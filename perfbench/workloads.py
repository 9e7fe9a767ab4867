"""The benchmark workloads and their correctness checks.

Every workload runs in this one process as a closed loop with one
client: the next call starts only after the previous one returned and
its output was checked.  Library and CLI functions are looked up through
their modules at call time, so a traced run sees its wrappers and a
timed run calls the plain functions.

All use the ERB warp (c1 = 9.265, c2 = 228.8) at fs = 16 kHz with
delta = 0.5, which gives 132 channels.  One operation has two timed
stages:

* ``erb_stream`` -- smooth_bump r = 0.9, N = 2^16, painless: ``analyze``,
  diagonal ``synthesize``, round-trip check.
* ``erb_cg`` -- smooth_bump r = 2.0, N = 2^14, not painless: ``analyze``,
  ``synthesize(iterative=True)`` (conjugate gradients), check.
* ``cli_session`` -- ``warpft.cli.main`` on the README's ``erb.cfg``
  (N = 2^12): ``warpft analyze``, ``warpft synthesize --verify``, checks.
* ``cli_kernels`` -- ``warpft.cli.main`` on ``erb.cfg`` at N = 2^10:
  ``warpft kernel --op oscnorm --deltas 0.5``, then ``amnorm``,
  ``statphase`` and a seeded ``gramian`` (untimed as a stage), then
  ``warpft diagnose --trials 1``.

Set-up (``build_system`` or ``warpft design``) runs at the start, the
middle and the end of a run, so that ``setup_s`` samples the whole run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional

import numpy as np

import warpft.cli as wcli
import warpft.io as wio
import warpft.system as wsys
import warpft.transform as wtr
from warpft.prototype import bump_prototype
from warpft.warping import erb_warp

C1, C2 = 9.265, 228.8
FS = 16000.0
DELTA = 0.5
CHANNELS = 132
POOL = 8               # distinct seeded inputs per run, used in turn
SETUPS = 5             # set-ups at each of the start, middle and end of a run
REL = 1e-12            # relative tolerance against recorded values
MID, END = 0.5, 0.95   # shares of --seconds at which the two loops stop
WARMUP = 2             # untimed, checked round trips after the first build

ERB_CFG = f"""# erb.cfg
warp.kind = erb
warp.c1 = {C1!r}
warp.c2 = {C2!r}
prototype.kind = smooth_bump
prototype.radius = 0.9
delta = {DELTA!r}
sample_rate = 16000
length = 4096
"""
# cli_kernels: the same bank at N = 2^10.  Kernel values depend on the
# warp and the prototype only; diagnose reports the same diagonal bounds
# and its 600 frame-operator applications are ~3x cheaper than at 2^12.
KERNEL_CFG = ERB_CFG.replace("length = 4096", "length = 1024")
OSCNORM_ARGS = ["--op", "oscnorm", "--deltas", "0.5"]

_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference.json")


class CheckFailed(Exception):
    """An output of the program failed its correctness check."""


@dataclass
class Run:
    """Samples, outcome counts and loop totals of one workload pass.

    ``min_ops`` is the least number of operations in each of the run's
    two loops; a timed run (``seconds`` set) loops longer, until its
    share of ``seconds`` has passed since the run started.
    """

    seed: int
    min_ops: int
    seconds: Optional[float] = None
    tracer: Optional[object] = None
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    times: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    last_op_s: float = 0.0
    loop_ops: int = 0
    loop_verified: int = 0
    max_rel_err: float = 0.0

    def record(self, name: str, seconds: float) -> None:
        self.times[name].append(seconds)

    def op(self, fn: Callable, *args) -> bool:
        """Run one operation; anything it raises counts as a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            fn(*args)
            return True
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted
            self.failed += 1
            if len(self.errors) < 5:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                self.errors.append(f"{type(exc).__name__}: {exc} "
                                   f"({os.path.basename(where.filename)}:"
                                   f"{where.lineno})")
            return False
        finally:
            self.last_op_s = time.perf_counter() - t0

    def checking(self):
        """Suspend tracing while the benchmark checks an output."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def closed_loop(self, step: Callable[[int], None], until: float) -> None:
        """Repeat ``step`` at least ``min_ops`` times and, in a timed run,
        until ``until * seconds`` have passed since the run started.
        ``step`` gets the loop's running operation index."""
        done = 0
        while done < self.min_ops or (
                self.seconds is not None
                and time.perf_counter() - self.started
                < until * self.seconds):
            ok = self.op(step, self.loop_ops)
            self.record("loop", self.last_op_s)
            self.loop_verified += ok
            self.loop_ops += 1
            done += 1

    def session(self, setup: Callable[[], None],
                step: Callable[[int], None]) -> None:
        """Loop ``step`` twice, with ``SETUPS`` set-ups before (the first
        made by the caller, which needs the system), between and after.
        The machine's speed drifts over tens of seconds (see NOTES.md),
        so set-up is sampled across the whole run."""
        for share, count in ((MID, SETUPS - 1), (END, SETUPS),
                             (None, SETUPS)):
            for _ in range(count):
                self.op(setup)
            if share is not None:
                self.closed_loop(step, share)


# -- seeded inputs -------------------------------------------------------------


def make_signals(length: int, bins: np.ndarray, seed: int,
                 count: int = POOL) -> List[np.ndarray]:
    """Complex signals whose spectra are seeded Gaussians on ``bins``."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(count):
        fhat = np.zeros(length, dtype=complex)
        fhat[bins] = (rng.standard_normal(bins.size)
                      + 1j * rng.standard_normal(bins.size))
        out.append(np.fft.ifft(fhat))
    return out


def _erb(f):
    return math.copysign(C1 * math.log1p(abs(f) / C2), f)


def _erb_inverse(u):
    return math.copysign(C2 * math.expm1(abs(u) / C1), u)


def gramian_points(seed: int, count: int = POOL) -> List[tuple]:
    """Seeded (x, xi, y, omega) queries: x in [100, 6000] Hz, y within
    1.5 warped units of x, xi and omega in [-0.05, 0.05]."""
    rng = np.random.default_rng([seed, 2])
    pts = []
    for _ in range(count):
        x = float(rng.uniform(100.0, 6000.0))
        y = _erb_inverse(_erb(x) + float(rng.uniform(-1.5, 1.5)))
        xi, omega = (float(v) for v in rng.uniform(-0.05, 0.05, 2))
        pts.append((x, xi, y, omega))
    return pts


# -- checks ----------------------------------------------------------------------


def relative_error(rec: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(rec - ref) / np.linalg.norm(ref))


def close(value: float, ref: float, rel: float = REL) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def match_text(out: str, ref: str) -> None:
    """Token-wise equality; numbers to :data:`REL` relative."""
    got = re.split(r"[\s,=]+", out.strip())
    want = re.split(r"[\s,=]+", ref.strip())
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} output tokens, expected {len(want)}")
    for g, w in zip(got, want):
        try:
            gv, wv = float(g), float(w)
        except ValueError:
            if g != w:
                raise CheckFailed(f"token {g!r}, expected {w!r}") from None
            continue
        if not close(gv, wv):
            raise CheckFailed(f"value {g}, recorded {w}")


def gramian_reference(theta, warp, x, xi, y, omega):
    """The normalized Gramian by a dense composite Gauss-Legendre rule,
    independent of the program's adaptive quadrature.  Returns the value
    and the L1 mass of the normalized integrand, which bounds it."""
    fx, fy = _erb(x), _erb(y)
    r = theta.radius
    s, ws = _gauss_legendre(-r, r)
    norm2 = float(np.sum(ws * theta.eval(s) ** 2))
    u, wu = _gauss_legendre(max(fx, fy) - r, min(fx, fy) + r)
    v = (theta.eval(u - fx) * theta.eval(u - fy)
         * np.exp(2j * np.pi * (xi - omega) * warp.inverse(u)))
    return (complex(np.sum(wu * v)) / norm2,
            float(np.sum(wu * np.abs(v))) / norm2)


def _gauss_legendre(lo: float, hi: float, panels: int = 64, order: int = 200):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def load_reference() -> dict:
    with open(_REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


# -- library workloads -------------------------------------------------------------


@dataclass(frozen=True)
class LibrarySpec:
    radius: float
    log2n: int
    iterative: bool  # CG synthesis, on a system that is not painless
    tol: float       # largest accepted round-trip relative error


ERB_STREAM = LibrarySpec(radius=0.9, log2n=16, iterative=False, tol=1e-12)
ERB_CG = LibrarySpec(radius=2.0, log2n=14, iterative=True, tol=1e-8)


def library_workload(run: Run, spec: LibrarySpec) -> None:
    warp = erb_warp(C1, C2)
    theta = bump_prototype(spec.radius)
    grid = wsys.SignalGrid(1 << spec.log2n, FS)
    built = {}

    def build():
        built.pop("system", None)  # free the previous system first
        t0 = time.perf_counter()
        system = wsys.build_system(warp, theta, DELTA, grid)
        run.record("setup", time.perf_counter() - t0)
        with run.checking():
            if len(system.channels) != CHANNELS:
                raise CheckFailed(f"{len(system.channels)} channels, "
                                  f"expected {CHANNELS}")
            if system.painless == spec.iterative:
                raise CheckFailed(f"painless is {system.painless}, "
                                  f"expected {not spec.iterative}")
        built["system"] = system

    if not run.op(build):
        return
    with run.checking():
        signals = make_signals(grid.length, built["system"].interior_bins(),
                               run.seed)

    def round_trip(i: int, record: bool = True) -> None:
        system = built["system"]
        f = signals[i % len(signals)]
        t0 = time.perf_counter()
        coeffs = wtr.analyze(f, system)
        t1 = time.perf_counter()
        rec = wtr.synthesize(coeffs, system, iterative=spec.iterative)
        t2 = time.perf_counter()
        del coeffs
        err = relative_error(rec, f)
        run.max_rel_err = max(run.max_rel_err, err)
        if not err <= spec.tol:
            raise CheckFailed(f"round-trip error {err:.3e} > {spec.tol:g}")
        if record:
            run.record("stage1", t1 - t0)
            run.record("stage2", t2 - t1)

    for i in range(WARMUP):
        run.op(round_trip, i, False)
    run.session(build, round_trip)


def erb_stream(run: Run, workdir: str) -> None:
    library_workload(run, ERB_STREAM)


def erb_cg(run: Run, workdir: str) -> None:
    library_workload(run, ERB_CG)


# -- CLI workloads ---------------------------------------------------------------


def _cli(argv: List[str]):
    """Run ``warpft`` in-process; returns (stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wcli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    dt = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"warpft {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()}")
    return out.getvalue(), dt


def _cli_setup(run: Run, workdir: str, config: str):
    """Write ``config``; return the design step and the descriptor path."""
    cfg = os.path.join(workdir, "erb.cfg")
    desc = os.path.join(workdir, "erb.desc")
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(config)

    def design():
        out, dt = _cli(["design", "--config", cfg, "--out", desc])
        if out.split() != ["channels", "=", str(CHANNELS), "delta", "=",
                           "0.5", "painless", "=", "true"]:
            raise CheckFailed(f"design printed {out!r}")
        run.record("setup", dt)

    return design, desc


def cli_session(run: Run, workdir: str) -> None:
    design, desc = _cli_setup(run, workdir, ERB_CFG)
    coeffs = os.path.join(workdir, "coeffs.wtc")
    output = os.path.join(workdir, "output.f64")
    if not run.op(design):
        return
    inputs = {}

    def prepare():
        with run.checking():
            system = wio.read_descriptor(desc)
        paths = []
        for k, sig in enumerate(make_signals(system.grid.length,
                                             system.interior_bins(),
                                             run.seed)):
            path = os.path.join(workdir, f"input{k}.f64")
            sig.astype("<c16").tofile(path)
            paths.append(path)
        inputs.update(system=system, signals=paths,
                      total=sum(ch.frames for ch in system.channels))

    if not run.op(prepare):
        return
    system = inputs["system"]

    def round_trip(i: int) -> None:
        signal = inputs["signals"][i % POOL]
        out, t_an = _cli(["analyze", "--system", desc, "--signal", signal,
                          "--out", coeffs])
        if out.strip() != f"coefficients = {inputs['total']}":
            raise CheckFailed(f"analyze printed {out!r}")
        out, t_syn = _cli(["synthesize", "--system", desc, "--coeffs",
                           coeffs, "--out", output, "--verify", signal])
        key, _, value = out.strip().partition(" = ")
        err = float(value) if key == "relative_error" else math.inf
        run.max_rel_err = max(run.max_rel_err, err)
        if not err <= 1e-12:
            raise CheckFailed(f"synthesize --verify printed {out!r}")
        with run.checking():
            loaded = wio.read_coefficients(coeffs, system)
        if not loaded.matches_system(system):
            raise CheckFailed("coefficients do not match the system")
        run.record("stage1", t_an)
        run.record("stage2", t_syn)

    run.session(design, round_trip)


def cli_kernels(run: Run, workdir: str) -> None:
    ref = load_reference()
    design, desc = _cli_setup(run, workdir, KERNEL_CFG)
    if not run.op(design):
        return
    with run.checking():
        system = wio.read_descriptor(desc)
    points = gramian_points(run.seed)

    def kernel(name: str, args: List[str], recorded: str) -> float:
        out, dt = _cli(["kernel", "--system", desc] + args)
        match_text(out, recorded)
        if name == "statphase" and any(
                not row.endswith(",PASS") for row in out.split()[1:]):
            raise CheckFailed("statphase: a row does not read PASS")
        run.record(name, dt)
        return dt

    def gramian(point) -> None:
        x, xi, y, omega = point
        # "--xi=-5e-05": argparse reads a bare "-5e-05" as an option
        out, dt = _cli(["kernel", "--system", desc, "--op", "gramian",
                        f"--x={x!r}", f"--xi={xi!r}", f"--y={y!r}",
                        f"--omega={omega!r}"])
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        value = complex(float(fields["re"]), float(fields["im"]))
        with run.checking():
            want, mass = gramian_reference(system.theta, system.warp,
                                           x, xi, y, omega)
        if not abs(value - want) <= REL * mass:
            raise CheckFailed(f"gramian{point} = {value}, reference {want}")
        run.record("gramian", dt)

    def diagnose() -> float:
        out, dt = _cli(["diagnose", "--system", desc, "--trials", "1"])
        rep = json.loads(out)
        if rep["painless"] is not True or rep["channels"] != CHANNELS:
            raise CheckFailed("diagnose: expected a painless 132-channel "
                              "system")
        diag, power = rep["frame_bounds_diagonal"], rep["frame_bounds_power"]
        want = ref["diagnose"]
        if not (close(diag["A"], want["A"]) and close(diag["B"], want["B"])):
            raise CheckFailed(f"diagonal bounds {diag}, recorded {want}")
        if not diag["A"] <= power["A"] <= power["B"] <= diag["B"]:
            raise CheckFailed(f"power bounds {power} leave the diagonal "
                              f"bounds {diag}")
        return dt

    def step(i: int) -> None:
        t_osc = kernel("oscnorm", OSCNORM_ARGS, ref["oscnorm"])
        kernel("amnorm", ["--op", "amnorm"], ref["amnorm"])
        order = i % 3
        kernel("statphase", ["--op", "statphase", "--order", str(order)],
               ref["statphase"][str(order)])
        gramian(points[i % POOL])
        t_diag = diagnose()
        run.record("stage1", t_osc)
        run.record("stage2", t_diag)

    run.session(design, step)


QUICK_OPS = ("amnorm", "statphase", "gramian")


def kernel_quick_s(run: Run) -> float:
    """Sum of the median times of the quick kernel ops."""
    return sum(median(run.times[k]) for k in QUICK_OPS if run.times[k])


# name -> (body, least operations in each of a run's two loops)
WORKLOADS = {
    "erb_stream": (erb_stream, 10),
    "erb_cg": (erb_cg, 10),
    "cli_session": (cli_session, 10),
    "cli_kernels": (cli_kernels, 2),
}
