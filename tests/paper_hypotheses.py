"""Checkers for the hypotheses of the paper's Part II.

The discretization results (atomic decompositions and Banach frames from
a sampled warped system) assume that the warp ``F`` meets the warp
axioms, that the prototype ``theta`` meets decay and weighted
integrability conditions, and that the element clusters ``Q_{y,omega}``
of the induced cover stay inside an analytic rectangle.  No bank,
transform, kernel or subcommand reads these checks: a system is built
and inverted whether or not its warp meets them.  They live here so the
suites can state that every built-in family meets the hypotheses.

Used by ``test_warping.TestAxioms``, ``test_prototype.TestThetaConditions``,
``test_discretization.TestQSetBounds`` and ``test_acceptance.test_06``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from warpft.discretization import _quasi_constant, elements_containing
from warpft.errors import (ConfigError, DivergenceError,
                           UnsupportedOrderError, check_finite)
from warpft.prototype import MAX_DERIVATIVE_ORDER, Prototype, weighted_l2_norm
from warpft.warping import (POSITIVE_HALF_LINE, REAL_LINE, WarpingFunction,
                            WeightSpec)


# -- warp axioms -------------------------------------------------------------


def default_grid(warp: WarpingFunction):
    """Default check grid, 512 points: log-spaced over [0.01, 100] on the
    half-line, over [-100, 100] symmetric else."""
    if warp.domain == POSITIVE_HALF_LINE:
        return np.geomspace(0.01, 100.0, 512)
    return np.linspace(-100.0, 100.0, 512)


@dataclass(frozen=True)
class AxiomReport:
    monotone_increasing: bool
    positive_derivative: bool
    derivative_nonincreasing: bool
    odd_symmetry: bool
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return (self.monotone_increasing and self.positive_derivative
                and self.derivative_nonincreasing and self.odd_symmetry)


def check_warping_axioms(warp: WarpingFunction, grid=None) -> AxiomReport:
    """Verify the warp axioms on a grid.

    The decrease of ``F'`` in ``|t|`` is checked non-strictly (with a
    relative slack of 1e-9) so that linear warps qualify.
    """
    t = np.asarray(grid if grid is not None else default_grid(warp), dtype=float)
    t = np.sort(t)
    ft = warp.eval(t)
    dt = warp.derivative(t)
    notes = []

    monotone = bool(np.all(np.diff(ft) > 0))
    if not monotone:
        notes.append("F not strictly increasing on the grid")
    positive = bool(np.all(dt > 0))
    if not positive:
        notes.append("F' not everywhere positive on the grid")

    order = np.argsort(np.abs(t), kind="stable")
    d_sorted = dt[order]
    slack = 1e-9 * (1.0 + np.abs(d_sorted[:-1]))
    nonincr = bool(np.all(np.diff(d_sorted) <= slack))
    if not nonincr:
        notes.append("F' increases with |t| somewhere on the grid")

    if warp.domain == REAL_LINE:
        tt = t[t != 0]
        odd = bool(np.all(np.abs(warp.eval(-tt) + warp.eval(tt))
                          <= 1e-12 * np.maximum(1.0, np.abs(warp.eval(tt)))))
        if not odd:
            notes.append("F fails odd symmetry")
    else:
        odd = True  # not applicable on the half-line
    return AxiomReport(monotone, positive, nonincr, odd, tuple(notes))


# -- prototype conditions for the kernel-algebra membership ------------------


@dataclass(frozen=True)
class ConditionEntry:
    name: str
    value: float
    finite: bool


@dataclass(frozen=True)
class ThetaConditionReport:
    entries: tuple
    p: int
    eps: float

    @property
    def passed(self) -> bool:
        return all(e.finite for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.finite]


def _decays(fn, probes) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(np.asarray(fn(probes), dtype=float))
    if not np.all(np.isfinite(vals)):
        return False
    peak = max(float(np.max(vals)), 1e-300)
    return bool(np.all(vals[-4:] <= 1e-10 * peak))


def check_theta_conditions(theta: Prototype, warp: WarpingFunction,
                           v1: WeightSpec, p: int, eps: float) -> ThetaConditionReport:
    """Check the decay/integrability conditions that put the frame kernel
    in the weighted kernel algebra.

    With ``w`` the warp weight and ``v1`` a submultiplicative majorant
    for the composed frequency weight, the auxiliary weights are::

        w1(s) = v1(s) (1+|s|)^{1+eps} w(-s)^{1/2}
        w2(s) = w1(-s) w(s)
        w3(s) = w1(-s) w(-s)^{p+1}

    Checked: (a) decay of ``w(-s)^j theta^{(k+1)}`` for ``k <= j <= p+1``,
    (b) ``theta`` in L2_{w1} and L2_{w2}, (c) ``theta^{(k)}`` in L2_{w1}
    and L2_{w3} for ``k <= p+2``.  Divergent or overflowing entries are
    flagged with ``finite=False``.
    """
    if p < 0:
        raise ConfigError("p must be >= 0")
    if warp.domain == POSITIVE_HALF_LINE and p != 0:
        raise ConfigError("half-line warps require p = 0")
    if p + 2 > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"p={p} needs derivatives of order {p + 2} > {MAX_DERIVATIVE_ORDER}")

    def w(s):
        return warp.weight(s)

    def w1(s):
        s = np.asarray(s, dtype=float)
        return v1(s) * (1.0 + np.abs(s)) ** (1.0 + eps) * np.sqrt(w(-s))

    def w2(s):
        s = np.asarray(s, dtype=float)
        return w1(-s) * w(s)

    def w3(s):
        s = np.asarray(s, dtype=float)
        return w1(-s) * w(-s) ** (p + 1)

    entries = []

    # (a) decay of theta and of w(-s)^j * theta^(k+1)
    half = theta.support_radius(1e-16) if not theta.compact else theta.radius
    probes = np.concatenate([-np.geomspace(half, 64.0 * half, 25)[::-1],
                             np.geomspace(half, 64.0 * half, 25)])
    entries.append(ConditionEntry("decay theta", 0.0, _decays(theta.eval, probes)))
    for j in range(p + 2):
        for k in range(j + 1):
            def fn(s, j=j, k=k):
                s = np.asarray(s, dtype=float)
                tv = theta.eval(s, k + 1)
                with np.errstate(over="ignore"):
                    wv = w(-s) ** j
                # a vanished prototype kills any weight growth
                return np.where(tv == 0.0, 0.0, tv * wv)
            entries.append(ConditionEntry(
                f"decay w(-s)^{j} theta^({k + 1})", 0.0, _decays(fn, probes)))

    # (b) and (c): weighted L2 norms
    def norm_entry(name, order, wfn):
        target = theta if order == 0 else _DerivativeView(theta, order)
        try:
            val = weighted_l2_norm(target, wfn)
            entries.append(ConditionEntry(name, val, bool(np.isfinite(val))))
        except DivergenceError:
            entries.append(ConditionEntry(name, float("inf"), False))

    norm_entry("theta in L2_w1", 0, w1)
    norm_entry("theta in L2_w2", 0, w2)
    for k in range(p + 3):
        norm_entry(f"theta^({k}) in L2_w1", k, w1)
        norm_entry(f"theta^({k}) in L2_w3", k, w3)

    return ThetaConditionReport(tuple(entries), p, eps)


class _DerivativeView:
    """Minimal prototype-like wrapper exposing a fixed derivative order."""

    def __init__(self, theta: Prototype, order: int):
        self._theta = theta
        self._order = order
        self.compact = theta.compact
        self.radius = theta.radius
        self.sigma = theta.sigma

    def eval(self, s, order: int = 0):
        return self._theta.eval(s, self._order + order)


# -- element clusters of the induced cover -----------------------------------


@dataclass(frozen=True)
class QSetBounds:
    """Analytic rectangle bounding the element cluster at ``(y, omega)``."""

    i_lo: float          # frequency interval I_y
    i_hi: float
    j_half: float        # time half-width of omega + J_y
    omega: float
    contained: bool      # enumerated cluster verified inside the rectangle
    elements: tuple

    @property
    def t_lo(self) -> float:
        return self.omega - self.j_half

    @property
    def t_hi(self) -> float:
        return self.omega + self.j_half


def q_set_bounds(warp: WarpingFunction, y: float, omega: float,
                 delta: float) -> QSetBounds:
    """Bound the union of cover elements containing ``(y, omega)`` by
    ``I_y x (omega + J_y)`` with ``I_y = Finv([F(y)-delta, F(y)+delta])``
    and ``|J_y| = C delta w(delta)/w(F(y))``, ``C`` the
    quasi-submultiplicativity constant of the weight.  The cluster is
    enumerated and the containment checked exactly."""
    check_finite(positive=True, delta=delta)
    check_finite(y=y, omega=omega)
    wy = float(warp.eval(float(y)))
    i_lo = float(warp.inverse(wy - delta))
    i_hi = float(warp.inverse(wy + delta))
    c = _quasi_constant(warp)
    j_half = c * delta * float(warp.weight(delta)) / float(warp.weight(wy))
    elems = elements_containing(warp, delta, y, omega)
    ok = all(i_lo <= e.f_lo and e.f_hi <= i_hi
             and omega - j_half <= e.t_lo and e.t_hi <= omega + j_half
             for e in elems)
    return QSetBounds(i_lo, i_hi, j_half, float(omega), ok, tuple(elems))
