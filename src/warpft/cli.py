"""Command-line front end.

Subcommands: ``design``, ``analyze``, ``synthesize``, ``diagnose``,
``kernel``, ``cover-dump``, ``spectrogram``.  Exit codes: 0 success,
2 configuration, 3 shape mismatch, 4 file format, 5 capability,
1 internal.  A failing subcommand prints one ``error:`` line to stderr,
never a traceback.  Numeric text output uses 17 significant digits; the
JSON report of ``diagnose`` prints floats in Python's shortest
round-trip form and non-finite values as ``null``.  Either way printed
doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .discretization import (check_cover_admissible, frame_bounds_painless,
                             frame_bounds_power_iteration, induced_cover,
                             weight_bound_C)
from .errors import (CapabilityError, ConfigError, FormatError,
                     NotPainlessError, ShapeError, WarpFTError)
from .io import (fmt, read_coefficients, read_descriptor, read_signal,
                 system_from_config, read_config, write_coefficients,
                 write_descriptor, write_signal)
from .kernels import (KernelEvalSpec, gramian, kernel_norm_I,
                      osc_norm_estimate, oscillation, stationary_phase_check)
from .transform import (analyze, coefficient_deviation, export_spectrogram,
                        moyal_residual, stft_reference, synthesize)

_EXIT_OK = 0
_EXIT_INTERNAL = 1
_EXIT_CONFIG = 2
_EXIT_SHAPE = 3
_EXIT_FORMAT = 4
_EXIT_CAPABILITY = 5


def _jsonable(obj):
    """``obj`` with numpy scalars made Python ones and non-finite floats
    made ``None``, ready for :func:`json.dumps`."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _probe_signal(system, seed: int = 2024) -> np.ndarray:
    """Deterministic random signal supported on the interior band."""
    rng = np.random.default_rng(seed)
    idx = system.interior_bins()
    fhat = np.zeros(system.grid.length, dtype=complex)
    fhat[idx] = rng.standard_normal(idx.size) \
        + 1j * rng.standard_normal(idx.size)
    return np.fft.ifft(fhat)


# -- subcommands -----------------------------------------------------------


def _cmd_design(args) -> int:
    system = system_from_config(read_config(args.config))
    write_descriptor(args.out, system)
    print(f"channels = {len(system.channels)}")
    print(f"delta = {fmt(system.delta)}")
    print(f"painless = {'true' if system.painless else 'false'}")
    return _EXIT_OK


def _cmd_analyze(args) -> int:
    system = read_descriptor(args.system)
    signal = read_signal(args.signal)
    if signal.size != system.grid.length:
        raise ShapeError(f"signal has {signal.size} samples, system "
                         f"expects {system.grid.length}")
    coeffs = analyze(signal, system)
    write_coefficients(args.out, coeffs)
    print(f"coefficients = {coeffs.total_coefficients()}")
    return _EXIT_OK


def _cmd_synthesize(args) -> int:
    system = read_descriptor(args.system)
    coeffs = read_coefficients(args.coeffs, system)
    rec = synthesize(coeffs, system, iterative=args.iterative)
    write_signal(args.out, rec)
    if args.verify:
        ref = read_signal(args.verify)
        if ref.size != rec.size:
            raise ShapeError(f"reference has {ref.size} samples, "
                             f"reconstruction has {rec.size}")
        denom = np.linalg.norm(ref)
        rel = np.linalg.norm(rec - ref) / denom if denom else float("nan")
        print(f"relative_error = {fmt(rel)}")
    return _EXIT_OK


def _cmd_diagnose(args) -> int:
    system = read_descriptor(args.system)
    report = {
        "channels": len(system.channels),
        "delta": system.delta,
        "sample_rate": system.grid.sample_rate,
        "length": system.grid.length,
    }
    pl = system.painless_report
    report["painless"] = pl.painless
    report["painless_violations"] = len(pl.violations)
    report["alias_free"] = bool(np.all(pl.alias_free))

    try:
        a_diag, b_diag = frame_bounds_painless(system)
        report["frame_bounds_diagonal"] = {"A": a_diag, "B": b_diag,
                                           "B_over_A": b_diag / a_diag}
    except NotPainlessError:
        report["frame_bounds_diagonal"] = "not painless"
    a_est, b_est = frame_bounds_power_iteration(system, trials=args.trials)
    report["frame_bounds_power"] = {"A": a_est, "B": b_est,
                                    "B_over_A": b_est / a_est}

    probe = _probe_signal(system)
    energy = float(np.vdot(probe, probe).real) / system.grid.sample_rate
    residual = moyal_residual(probe, probe, system)
    report["moyal_residual"] = residual
    report["moyal_relative"] = residual / energy

    chans = system.channels
    f_window = (chans[0].band_lo_hz, chans[-1].band_hi_hz)
    t_window = (0.0, system.grid.length / system.grid.sample_rate)
    cover = induced_cover(system.warp, system.delta, f_window, t_window)
    cov = check_cover_admissible(cover)
    report["cover"] = {
        "elements": len(cover.elements),
        "max_neighbors": cov.max_neighbors,
        "moderateness_constant": cov.moderateness_constant,
        "min_measure": cov.min_measure,
        "covers_window": cov.covers_window,
        "max_measure_error": cov.max_measure_error,
    }
    report["C_mU"] = float(weight_bound_C(cover))

    if system.warp.kind == "linear":
        dev = coefficient_deviation(analyze(probe, system),
                                    stft_reference(probe, system))
        verdict = "PASS" if dev <= 1e-10 else "FAIL"
        report["stft_equivalence"] = f"max_dev {fmt(dev)} <= 1e-10: {verdict}"
    print(json.dumps(_jsonable(report), indent=2))
    return _EXIT_OK


def _parse_deltas(raw: str):
    try:
        deltas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--deltas: {raw!r} is not a comma-separated "
                          "list of numbers") from None
    if not deltas or any(d <= 0 for d in deltas):
        raise ConfigError("--deltas needs positive values")
    return deltas


def _cmd_kernel(args) -> int:
    system = read_descriptor(args.system)
    warp, theta = system.warp, system.theta
    spec = KernelEvalSpec(z_half_width=args.z_half,
                          eta_half_width=args.eta_half,
                          resolution=args.resolution)
    lines = []
    if args.op == "gramian":
        value = gramian(warp, theta, args.x, args.xi, args.y, args.omega)
        lines.append(f"re = {fmt(value.real)}")
        lines.append(f"im = {fmt(value.imag)}")
    elif args.op == "amnorm":
        rep = kernel_norm_I(warp, theta, spec, args.x, args.xi)
        lines.append(f"value = {fmt(rep.value)}")
        lines.append(f"tail_estimate = {fmt(rep.tail_estimate)}")
        lines.append(f"inconclusive = "
                     f"{'true' if rep.inconclusive else 'false'}")
    elif args.op == "osc":
        value = oscillation(warp, theta, args.delta or system.delta,
                            not args.gamma_off, args.x, args.xi,
                            args.y, args.omega,
                            q_resolution=args.q_resolution)
        lines.append(f"value = {fmt(value)}")
    elif args.op == "oscnorm":
        deltas = _parse_deltas(args.deltas)
        lines.append("delta,value")
        for d in deltas:
            rep = osc_norm_estimate(warp, theta, d, spec,
                                    gamma_on=not args.gamma_off,
                                    q_resolution=args.q_resolution)
            lines.append(f"{fmt(d)},{fmt(rep.value)}")
    else:  # statphase
        etas = np.concatenate([-np.arange(1, 65)[::-1], np.arange(1, 65)])
        rep = stationary_phase_check(warp, theta, args.order, args.x,
                                     etas.astype(float))
        lines.append("eta,lhs,rhs,verdict")
        for e, lhs, rhs in zip(rep.eta, rep.lhs, rep.rhs_decay):
            verdict = "PASS" if lhs <= rhs else "FAIL"
            lines.append(f"{fmt(e)},{fmt(lhs)},{fmt(rhs)},{verdict}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_cover_dump(args) -> int:
    system = read_descriptor(args.system)
    cover = induced_cover(system.warp, system.delta,
                          (args.f_lo, args.f_hi), (args.t_lo, args.t_hi))
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("l,k,f_lo,f_hi,t_lo,t_hi\n")
        for e in cover.elements:
            fh.write(f"{e.l},{e.k},{fmt(e.f_lo)},{fmt(e.f_hi)},"
                     f"{fmt(e.t_lo)},{fmt(e.t_hi)}\n")
    print(f"elements = {len(cover.elements)}")
    return _EXIT_OK


def _cmd_spectrogram(args) -> int:
    system = read_descriptor(args.system)
    coeffs = read_coefficients(args.coeffs, system)
    export_spectrogram(coeffs, args.out)
    return _EXIT_OK


# -- argument wiring -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpft",
        description="Warped time-frequency transforms: design, analysis, "
                    "synthesis, diagnostics, kernel sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a system descriptor")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("analyze", help="signal -> coefficient container")
    p.add_argument("--system", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("synthesize", help="coefficients -> signal")
    p.add_argument("--system", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iterative", action="store_true")
    p.add_argument("--verify", default=None,
                   help="reference signal; prints relative error")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("diagnose", help="full diagnostic report")
    p.add_argument("--system", required=True)
    p.add_argument("--trials", type=int, default=2,
                   help="power-iteration restarts")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("kernel", help="kernel-side numerics")
    p.add_argument("--system", required=True)
    p.add_argument("--op", required=True,
                   choices=["gramian", "amnorm", "osc", "oscnorm",
                            "statphase"])
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--deltas", default="0.5,0.25,0.125")
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--gamma-off", action="store_true")
    p.add_argument("--q-resolution", type=int, default=2)
    p.add_argument("--z-half", type=float, default=8.0)
    p.add_argument("--eta-half", type=float, default=8.0)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("cover-dump", help="induced cover as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--f-lo", type=float, required=True)
    p.add_argument("--f-hi", type=float, required=True)
    p.add_argument("--t-lo", type=float, required=True)
    p.add_argument("--t-hi", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cover_dump)

    p = sub.add_parser("spectrogram", help="coefficient magnitudes as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_spectrogram)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SHAPE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CAPABILITY
    except WarpFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except Exception as exc:  # last resort: one line, never a traceback
        msg = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {msg}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
