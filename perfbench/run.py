"""warpft benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload erb_stream --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
BENCHMARK.json with no wrapper installed.  With ``--trace 1`` it runs a
fixed-size pass of the workload twice, untraced and traced (which goes
first alternates with the seed's parity), and prints the per-layer
metrics and ``trace_overhead.<metric>`` (traced minus untraced).  Spans
go to ``perfbench/out/trace-<workload>-<seed>.json``.

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
imports warpft from ``src/`` of the checkout that holds this file and
exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.  An
# operation has two timed stages; what they are depends on the workload
# (workloads.py).  Latencies are gated at the run's median.  The tail
# (the highest order statistic with ten samples beyond it) and the
# closed-loop rate are printed beside each median but not gated: on a
# shared host, page-fault and scheduling spikes hit a run's top tenth
# unevenly, so the tail of the same code spread past any useful bound
# between runs (see NOTES.md).
E2E = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("stage1_p50_ms", "ms"),
    ("stage2_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer quantities that a wrapper around public functions cannot see.
NOT_MEASURED = {
    "power-iteration steps": "the loops run inside "
                             "frame_bounds_power_iteration; their count "
                             "shows only as discretization.power_op_calls",
    "analyze FFT vs per-channel product/IFFT split": "both run inside "
                                                     "one analyze call",
    "quadrature panels, depth and slop": "kept in locals of "
                                         "quadrature.integrate",
    "kernel node counts": "built inside kernels' private helpers",
    "CG iterations and operator applications": "synthesize(iterative=True) "
                                               "runs them in a closure "
                                               "private to transform",
}


def load_program():
    """Import warpft from this checkout's ``src``; exit 2 without it."""
    if not (SRC / "warpft" / "__init__.py").is_file():
        print(f"error: no warpft sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import warpft
    if Path(warpft.__file__).resolve().parent != SRC / "warpft":
        print(f"error: imported warpft from {warpft.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        raise SystemExit(2)
    return warpft


# -- statistics ----------------------------------------------------------------


def tail(values):
    """The highest order statistic with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven
    samples it falls back to the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 11 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run) -> dict:
    """The E2E metrics of one pass, plus notes on how each was formed."""
    s = run.times
    if not all(s[k] for k in ("setup", "loop", "stage1", "stage2")):
        return {name: (0.0, "no successful sample") for name, _ in E2E}
    out = {"setup_s": (median(s["setup"]),
                       f"median of {len(s['setup'])}; first "
                       f"{s['setup'][0]:.4f}, min {min(s['setup']):.4f}")}
    for key in ("op", "stage1", "stage2"):
        vals = s["loop" if key == "op" else key]
        value, pct, n = tail(vals)
        note = f"n={n}; tail {1e3 * value:.3f} ms at p{pct:.1f}"
        if key == "op":
            note += f"; ops_per_s {run.loop_verified / sum(vals):.4f}"
        out[f"{key}_p50_ms"] = (1e3 * median(vals), note)
    out["peak_rss_mb"] = (peak_rss_mb(), "ru_maxrss of this process")
    return out


def per_layer(tracer, traced, untraced_e2e, traced_e2e, untraced) -> list:
    """(name, unit, value) rows of the traced pass."""
    from workloads import kernel_quick_s

    tot, slf, calls = tracer.total, tracer.self_time, tracer.calls

    def gauge(name):
        return tracer.gauges.get(name, 0)

    rows = [
        ("system.build_system_s", "s", tot("system.build_system")),
        ("system.build_atom_s", "s", tot("system.build_atom")),
        ("system.build_atom_calls", "count", calls("system.build_atom")),
        ("system.atom_bytes", "B", gauge("system.atom_bytes")),
        ("system.atom_fill_ratio", "ratio", gauge("system.atom_fill_ratio")),
        ("system.frame_diag_s", "s", tot("system.frame_diag")),
        ("system.painless_check_s", "s", tot("system.painless_check")),
        ("prototype.normalized_s", "s", tot("prototype.normalized")),
        ("prototype.admissibility_inner_product_s", "s",
         tot("prototype.admissibility_inner_product")),
        ("quadrature.integrate_calls", "count", calls("quadrature.integrate")),
        ("quadrature.integrate_s", "s", tot("quadrature.integrate")),
        ("transform.analyze_s", "s", tot("transform.analyze")),
        ("transform.analyze_calls", "count", calls("transform.analyze")),
        ("transform.synthesize_s", "s", tot("transform.synthesize")),
        ("transform.apply_frame_operator_s", "s",
         tot("transform.apply_frame_operator")),
        ("transform.apply_frame_operator_calls", "count",
         calls("transform.apply_frame_operator")),
        ("transform.moyal_residual_s", "s", tot("transform.moyal_residual")),
        ("transform.roundtrip_rel_err", "ratio", traced.max_rel_err),
        ("discretization.frame_bounds_power_iteration_s", "s",
         tot("discretization.frame_bounds_power_iteration")),
        ("discretization.power_op_calls", "count",
         tracer.calls_under("transform.apply_frame_operator",
                            "discretization.frame_bounds_power_iteration")),
        ("discretization.induced_cover_s", "s",
         tot("discretization.induced_cover")),
        ("discretization.cover_elements", "count",
         gauge("discretization.cover_elements")),
        ("discretization.check_cover_admissible_s", "s",
         tot("discretization.check_cover_admissible")),
        ("discretization.weight_bound_C_s", "s",
         tot("discretization.weight_bound_C")),
        ("kernels.osc_norm_estimate_s", "s", tot("kernels.osc_norm_estimate")),
        ("kernels.oscillation_s", "s", tot("kernels.oscillation")),
        ("kernels.oscillation_calls", "count", calls("kernels.oscillation")),
        ("kernels.kernel_norm_I_s", "s", tot("kernels.kernel_norm_I")),
        ("kernels.stationary_phase_check_s", "s",
         tot("kernels.stationary_phase_check")),
        ("kernels.gramian_s", "s", tot("kernels.gramian")),
        ("io.read_descriptor_self_s", "s", slf("io.read_descriptor")),
        ("io.read_signal_s", "s", tot("io.read_signal")),
        ("io.write_signal_s", "s", tot("io.write_signal")),
        ("io.write_coefficients_s", "s", tot("io.write_coefficients")),
        ("io.read_coefficients_s", "s", tot("io.read_coefficients")),
        ("io.coeff_bytes", "B", gauge("io.coeff_bytes")),
    ]
    for sub in ("design", "analyze", "synthesize", "diagnose", "kernel"):
        rows.append((f"cli.{sub}.self_s", "s", slf("cli.main", sub)))
    rows.append(("kernel_quick_s", "s", kernel_quick_s(untraced)))
    # Time overheads are indicative only: each comes from one pass of
    # each kind, and the machine's speed drifts between passes.
    for name, unit in E2E:
        if name != "peak_rss_mb":  # one process: a running high-water mark
            rows.append((f"trace_overhead.{name}", unit,
                         traced_e2e[name][0] - untraced_e2e[name][0]))
    return rows


# -- machine record ------------------------------------------------------------


def _blas_threads():
    import numpy as np
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "warpft").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# -- driver ----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["erb_stream", "erb_cg", "cli_session",
                            "cli_kernels"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def execute(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, list of report lines)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    body, min_ops = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    lines = []
    try:
        if not trace:
            run = Run(seed, min_ops, seconds)
            body(run, workdir)
            runs = [run]
            e2e = end_to_end(run)
            rows = [(name, unit, e2e[name][0], e2e[name][1])
                    for name, unit in E2E]
        else:
            tracer = Tracer()
            untraced = Run(seed, min_ops)
            traced = Run(seed, min_ops, tracer=tracer)
            runs = [untraced, traced] if seed % 2 == 0 else [traced, untraced]
            for r in runs:
                with tracer if r is traced else contextlib.nullcontext():
                    body(r, workdir)
            untraced_e2e = end_to_end(untraced)
            traced_e2e = end_to_end(traced)
            rows = [(n, u, v, "") for n, u, v in
                    per_layer(tracer, traced, untraced_e2e, traced_e2e,
                              untraced)]
            path = OUT / f"trace-{workload}-{seed}.json"
            tracer.dump(str(path))
            lines.append(f"spans: {len(tracer.spans)} written to "
                         f"{path.relative_to(ROOT)}")
            for key, why in NOT_MEASURED.items():
                lines.append(f"not measured: {key} -- {why}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for err in r.errors:
            lines.append(f"failure: {err}")
    for name, unit, value, note in rows:
        lines.append(f"metric {workload} {name} = {value:.6g} {unit}"
                     + (f"  ({note})" if note else ""))
    lines.append(f"error_rate = {failed / max(attempted, 1):.6g} "
                 f"({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in rows},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process and one BLAS thread: the numerics are single-threaded
    # apart from BLAS dot products, whose spare threads only spin.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    load_program()
    print("machine: " + json.dumps(machine(args.seed)), flush=True)
    print(f"workload: {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}", flush=True)
    result, lines = execute(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
