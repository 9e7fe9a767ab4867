"""Tests of the benchmark itself (not of warpft).

    python -m pytest perfbench -q

They use small systems (N = 2^12) so they run in seconds.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

import run
from run import E2E, ROOT, load_program

load_program()

import tracing  # noqa: E402
import warpft  # noqa: E402
import warpft.transform as wtr  # noqa: E402
import workloads  # noqa: E402
from workloads import (SETUPS, WARMUP, CheckFailed, LibrarySpec,  # noqa: E402
                       Run, gramian_points, library_workload, make_signals,
                       match_text)

TINY = LibrarySpec(radius=0.9, log2n=12, iterative=False, tol=1e-12)
TINY_CG = LibrarySpec(radius=2.0, log2n=12, iterative=True, tol=1e-8)
MIN_OPS = 2
BUILDS = 3 * SETUPS          # at the start, the middle and the end
ROUND_TRIPS = WARMUP + 2 * MIN_OPS


def _benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def _bindings():
    """Every function-valued name in the warpft modules, plus the traced
    method, mapped to the object it is bound to."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "warpft" or key.startswith("warpft."):
            for name, value in vars(mod).items():
                if callable(value):
                    out[(key, name)] = value
    out[("WarpedSystem", "frame_diag")] = \
        warpft.system.WarpedSystem.__dict__["frame_diag"]
    return out


@pytest.fixture
def tiny_workload(monkeypatch):
    """Swap erb_stream for a small system so main() runs quickly."""
    monkeypatch.setitem(
        workloads.WORKLOADS, "erb_stream",
        (lambda r, d: library_workload(r, TINY), MIN_OPS))


def _main_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny_workload, trace, key):
    result = _main_result(["--workload", "erb_stream", "--seed", "3",
                           "--seconds", "0.5", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _benchmark()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) or isinstance(m["value"], int)
               for m in result["metrics"].values())


def test_benchmark_json_names_the_runners_workloads_and_metrics():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(E2E)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_timed_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("a timed run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = _bindings()
    seen = []
    check = workloads.relative_error

    def spy(rec, ref):
        seen.append(_bindings() == before)
        return check(rec, ref)

    monkeypatch.setattr(workloads, "relative_error", spy)
    r = Run(1, MIN_OPS)
    library_workload(r, TINY)
    assert r.failed == 0 and seen and all(seen)


def test_traced_run_restores_every_name():
    before = _bindings()
    tracer = tracing.Tracer()
    r = Run(1, MIN_OPS, tracer=tracer)
    with tracer:
        # cli looks analyze up in its own namespace: both must be wrapped
        assert warpft.cli.analyze is warpft.transform.analyze
        assert warpft.transform.analyze is not before[("warpft.transform",
                                                       "analyze")]
        library_workload(r, TINY)
    assert _bindings() == before
    assert r.failed == 0
    assert tracer.calls("transform.analyze") == ROUND_TRIPS
    assert tracer.calls("system.build_atom") == 132 * BUILDS
    assert tracer.calls_under("system.build_atom", "system.build_system") \
        == 132 * BUILDS


def test_traced_run_restores_names_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_same_seed_same_inputs():
    bins = np.arange(10, 200)
    a = make_signals(1024, bins, 7, count=3)
    b = make_signals(1024, bins, 7, count=3)
    c = make_signals(1024, bins, 8, count=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert gramian_points(7) == gramian_points(7) != gramian_points(8)
    for x, xi, y, omega in gramian_points(7, count=40):
        assert 100.0 <= x <= 6000.0
        assert abs(workloads._erb(y) - workloads._erb(x)) <= 1.5 + 1e-12
        assert abs(xi) <= 0.05 and abs(omega) <= 0.05


def test_perturbed_coefficient_counts_as_failure(monkeypatch):
    analyze = wtr.analyze

    def perturbed(f, system):
        coeffs = analyze(f, system)
        coeffs.data[5][3] += 1e-3 * abs(coeffs.data[5]).max()
        return coeffs

    monkeypatch.setattr(wtr, "analyze", perturbed)
    r = Run(1, MIN_OPS)
    library_workload(r, TINY)
    assert r.failed == ROUND_TRIPS
    assert r.loop_verified == 0
    assert "round-trip error" in r.errors[0]


def test_cg_round_trip_passes_its_check():
    r = Run(1, MIN_OPS)
    library_workload(r, TINY_CG)
    assert (r.attempted, r.failed) == (BUILDS + ROUND_TRIPS, 0)
    assert 0 < r.max_rel_err <= TINY_CG.tol
    assert len(r.times["setup"]) == BUILDS
    assert len(r.times["stage2"]) == 2 * MIN_OPS


def test_perturbed_kernel_value_counts_as_failure():
    ref = workloads.load_reference()["amnorm"]
    altered = ref.replace("2.3071986691310422", "2.3071986691410422")
    r = Run(1, 1)
    assert r.op(match_text, ref, ref)
    assert not r.op(match_text, altered, ref)
    assert (r.attempted, r.failed) == (2, 1)
    with pytest.raises(CheckFailed):
        match_text(altered, ref)


def test_gramian_reference_matches_library():
    system = warpft.io.system_from_config(
        warpft.io.parse_config(workloads.ERB_CFG))
    for x, xi, y, omega in gramian_points(11):
        want, mass = workloads.gramian_reference(system.theta, system.warp,
                                                 x, xi, y, omega)
        got = warpft.kernels.gramian(system.warp, system.theta, x, xi, y,
                                     omega)
        assert abs(got - want) <= workloads.REL * mass


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    assert math.isclose(run.tail(list(range(25)))[1], 60.0)
