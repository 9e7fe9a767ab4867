"""Warped phase-space covers and frame-bound estimation.

Cutting the warped frequency axis into steps of ``delta`` induces a
cover of the frequency-time plane by rectangles

    U_{l,k} = [Finv(delta l), Finv(delta (l+1))] x [k tau_l, (k+1) tau_l]

with ``tau_l = delta^2 / |I_l|``, so every element has area exactly
``delta^2`` regardless of the warp.  This module materializes finite
windows of that cover, checks the covering-admissibility constants
(neighbor count, measure moderateness), bounds the element clusters
``Q_{y,omega}`` around a point, evaluates the weight constant
``C_{m,U}``, and estimates frame bounds for sampled systems both from
the diagonal profile and by operator power iteration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .errors import (ConfigError, DomainError, NonConvergenceError,
                     NotPainlessError)
from .system import WarpedSystem
from .transform import _frame_op, _pcg
from .warping import (POSITIVE_HALF_LINE, WarpingFunction, WeightSpec,
                      check_moderateness, check_quasi_submultiplicative,
                      constant_weight, induced_v1, warped_weight)

_MAX_ELEMENTS = 2_000_000

#: power iteration: relative Rayleigh-quotient change that ends a run,
#: and the iteration cap of each run
POWER_TOL = 1e-8
POWER_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class CoverElement:
    """One closed phase-space rectangle of the induced cover."""

    l: int
    k: int
    f_lo: float
    f_hi: float
    t_lo: float
    t_hi: float

    @property
    def measure_numeric(self) -> float:
        return (self.f_hi - self.f_lo) * (self.t_hi - self.t_lo)

    def intersects(self, other: "CoverElement") -> bool:
        return (self.f_lo <= other.f_hi and other.f_lo <= self.f_hi
                and self.t_lo <= other.t_hi and other.t_lo <= self.t_hi)


class Cover:
    """A finite window of the induced delta-cover."""

    def __init__(self, warp: WarpingFunction, delta: float,
                 elements: List[CoverElement],
                 freq_window: Tuple[float, float],
                 time_window: Tuple[float, float]):
        self.warp = warp
        self.delta = delta
        self.elements = elements
        self.freq_window = freq_window
        self.time_window = time_window
        self._adjacency: Optional[List[List[int]]] = None

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def measure_analytic(self) -> float:
        """Element area in closed form; exact for every warp."""
        return self.delta * self.delta

    def channel_indices(self) -> List[int]:
        return sorted({e.l for e in self.elements})

    def adjacency(self) -> List[List[int]]:
        """For each element, the other elements it touches (closed
        rectangles; boundary contact counts).

        Adjacent channel rows always share a frequency edge and rows
        further apart never meet, so only the time overlap against rows
        l-1, l, l+1 decides; candidate time slots are located by index
        arithmetic instead of scanning whole rows.
        """
        if self._adjacency is not None:
            return self._adjacency
        by_l = {}
        tau_of = {}
        for i, e in enumerate(self.elements):
            by_l.setdefault(e.l, {})[e.k] = i
            tau_of[e.l] = e.t_hi - e.t_lo
        adj: List[List[int]] = []
        for i, e in enumerate(self.elements):
            near = []
            for lp in (e.l - 1, e.l, e.l + 1):
                row = by_l.get(lp)
                if not row:
                    continue
                tau = tau_of[lp]
                k_a = int(np.floor(e.t_lo / tau)) - 1
                k_b = int(np.ceil(e.t_hi / tau)) + 1
                for kp in range(k_a, k_b + 1):
                    j = row.get(kp)
                    if j is None or j == i:
                        continue
                    o = self.elements[j]
                    if e.t_lo <= o.t_hi and o.t_lo <= e.t_hi:
                        near.append(j)
            adj.append(near)
        self._adjacency = adj
        return adj


def induced_cover(warp: WarpingFunction, delta: float,
                  freq_window: Tuple[float, float],
                  time_window: Tuple[float, float]) -> Cover:
    """All cover elements meeting ``freq_window x time_window``.

    Windows are closed; an element touching the boundary is included.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    f_a, f_b = map(float, freq_window)
    t_a, t_b = map(float, time_window)
    if not (f_a < f_b) or not (t_a < t_b):
        raise ConfigError("windows must be nonempty intervals")
    if warp.domain == POSITIVE_HALF_LINE and f_a <= 0:
        raise DomainError("frequency window must be positive for this warp")
    w_a = float(warp.eval(f_a))
    w_b = float(warp.eval(f_b))
    l_min = int(np.ceil(w_a / delta)) - 1
    l_max = int(np.floor(w_b / delta))
    elements: List[CoverElement] = []
    for l in range(l_min, l_max + 1):
        f_lo = float(warp.inverse(delta * l))
        f_hi = float(warp.inverse(delta * (l + 1)))
        tau = delta * delta / (f_hi - f_lo)
        k_min = int(np.ceil(t_a / tau)) - 1
        k_max = int(np.floor(t_b / tau))
        if (k_max - k_min + 1) * (l_max - l_min + 1) > _MAX_ELEMENTS:
            raise ConfigError(
                "cover window would materialize more than "
                f"{_MAX_ELEMENTS} elements; shrink the windows")
        for k in range(k_min, k_max + 1):
            elements.append(CoverElement(l, k, f_lo, f_hi,
                                         k * tau, (k + 1) * tau))
    return Cover(warp, delta, elements, (f_a, f_b), (t_a, t_b))


@dataclass(frozen=True)
class CoverReport:
    max_neighbors: int           # including the element itself
    moderateness_constant: float
    min_measure: float
    covers_window: bool
    max_measure_error: float     # worst relative defect of the numeric area


def check_cover_admissible(cover: Cover) -> CoverReport:
    """Covering diagnostics: neighbor bound, measure moderateness
    (ratio over touching pairs -- identically 1 here since all areas are
    ``delta^2``), minimum measure, and window coverage."""
    adj = cover.adjacency()
    max_n = max((len(a) + 1 for a in adj), default=0)
    mu = cover.measure_analytic
    ratio = 1.0   # every element has analytic area delta^2
    err = max((abs(e.measure_numeric - mu) / mu for e in cover.elements),
              default=0.0)

    f_a, f_b = cover.freq_window
    t_a, t_b = cover.time_window
    covered = bool(cover.elements)
    if covered:
        by_l = {}
        for e in cover.elements:
            by_l.setdefault(e.l, []).append(e)
        lo = min(e.f_lo for e in cover.elements)
        hi = max(e.f_hi for e in cover.elements)
        covered = lo <= f_a and hi >= f_b
        for group in by_l.values():
            group.sort(key=lambda e: e.k)
            covered = covered and group[0].t_lo <= t_a and group[-1].t_hi >= t_b
            covered = covered and all(a.k + 1 == b.k
                                      for a, b in zip(group, group[1:]))
    return CoverReport(max_n, ratio, mu, covered, err)


def elements_containing(warp: WarpingFunction, delta: float, y: float,
                        omega: float) -> List[CoverElement]:
    """Cover elements whose closed rectangle contains ``(y, omega)``."""
    wy = float(warp.eval(float(y)))
    ell = wy / delta
    ls = {int(np.floor(ell))}
    if ell == np.floor(ell):          # sitting on a channel boundary
        ls.add(int(ell) - 1)
    out = []
    for l in sorted(ls):
        if not (delta * l <= wy <= delta * (l + 1)):
            continue   # membership decided in warped coordinates: exact
        f_lo = float(warp.inverse(delta * l))
        f_hi = float(warp.inverse(delta * (l + 1)))
        tau = delta * delta / (f_hi - f_lo)
        kk = omega / tau
        ks = {int(np.floor(kk))}
        if kk == np.floor(kk):
            ks.add(int(kk) - 1)
        for k in sorted(ks):
            if k <= kk <= k + 1:
                out.append(CoverElement(l, k, f_lo, f_hi,
                                        k * tau, (k + 1) * tau))
    return out


@lru_cache(maxsize=64)
def _quasi_constant(warp: WarpingFunction) -> float:
    """Quasi-submultiplicativity constant, cached per warp (the grid
    measurement is expensive for warps with iterative inverses)."""
    return check_quasi_submultiplicative(warp)


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


def _corner_candidates(lo: float, hi: float) -> List[float]:
    pts = [lo, hi]
    if lo < 0.0 < hi:
        pts.append(0.0)   # |.|-monotone weights peak or dip at the origin
    return pts


@dataclass(frozen=True)
class WeightBoundReport:
    """Sampled and closed-form values of the cover weight constant."""

    sampled: float
    analytic: float

    def __float__(self) -> float:
        return self.sampled


def weight_bound_C(cover: Cover, m1_spec: Optional[WeightSpec] = None,
                   m2_spec: Optional[WeightSpec] = None) -> WeightBoundReport:
    """Largest value of the ratio weight ``m`` over point pairs inside a
    single cover element, against the closed-form bound
    ``C_tilde v1(delta) V2``.

    The weights are |.|-monotone, so the supremum over a rectangle is
    attained at corner points (plus the axis crossing when an interval
    straddles zero); those candidates are enumerated exactly.
    """
    m1 = m1_spec if m1_spec is not None else constant_weight()
    m2 = m2_spec if m2_spec is not None else constant_weight()
    sampled = 1.0
    for e in cover.elements:
        fs = _corner_candidates(e.f_lo, e.f_hi)
        ts = _corner_candidates(e.t_lo, e.t_hi)
        vals = [m1(x) * m2(t) for x in fs for t in ts]
        top, bot = max(vals), min(vals)
        if bot > 0:
            sampled = max(sampled, top / bot)

    # closed-form side: the warped weight m1 o Finv is (C1, v1)-moderate
    # and m2 is (C2, v2)-moderate with v2 = m2; the constants are
    # measured on grids covering the windowed region
    v1 = induced_v1(m1, cover.warp)
    if m1.kind == "constant_one":
        c1 = 1.0
    else:
        w_lo = float(cover.warp.eval(cover.freq_window[0]))
        w_hi = float(cover.warp.eval(cover.freq_window[1]))
        pad = max(cover.delta, 0.1 * (w_hi - w_lo))
        grid = np.linspace(w_lo - pad, w_hi + pad, 257)
        c1 = check_moderateness(warped_weight(m1, cover.warp), v1, grid)
    if m2.kind == "constant_one":
        c2 = 1.0
    else:
        t_a, t_b = cover.time_window
        span = max(t_b - t_a, 1.0)
        c2 = check_moderateness(m2, m2,
                                np.linspace(t_a - span, t_b + span, 257))
    if cover.warp.domain == POSITIVE_HALF_LINE:
        v2_cap = 1.0
    else:
        w0 = float(cover.warp.weight(0.0))
        v2_cap = float(np.max(m2(np.linspace(-1.0, 1.0, 201) / w0)))
    analytic = c1 * c2 * float(v1(cover.delta)) * v2_cap
    return WeightBoundReport(sampled, analytic)


def frame_bounds_painless(system: WarpedSystem) -> Tuple[float, float]:
    """Exact frame bounds of a painless system: the extremes of the
    diagonal profile over the fully covered band."""
    if not system.painless:
        raise NotPainlessError("diagonal frame bounds need a painless system")
    idx = system.interior_bins()
    if idx.size == 0:
        raise ConfigError("system has no fully covered bins")
    diag = system.frame_diag()[idx]
    return float(diag.min()), float(diag.max())


def frame_bounds_power_iteration(system: WarpedSystem, trials: int = 3
                                 ) -> Tuple[float, float]:
    """Estimate frame bounds over the covered band by operator iteration.

    The upper bound comes from power iteration on the frame operator,
    the lower bound from inverse power iteration with conjugate-gradient
    solves.  ``trials`` independent random starts are run and the most
    extreme Rayleigh quotients kept.  The operator is applied through
    the transform's fold/unfold pair, which never reads the diagonal
    profile, so the estimate is independent of it; the profile serves
    only as the CG preconditioner.
    """
    idx = system.interior_bins()
    if idx.size == 0:
        raise ConfigError("system has no fully covered bins")
    op = _frame_op(system, idx)
    diag = system.frame_diag()[idx]
    precond = 1.0 / np.maximum(diag, 1e-300)

    b_est = 0.0
    a_est = np.inf
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        # largest eigenvalue
        v = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        v /= np.linalg.norm(v)
        rho_prev = 0.0
        for _ in range(POWER_MAX_ITERATIONS):
            sv = op(v)
            rho = np.vdot(v, sv).real
            nv = np.linalg.norm(sv)
            if nv == 0:
                break
            v = sv / nv
            if abs(rho - rho_prev) <= POWER_TOL * abs(rho):
                break
            rho_prev = rho
        b_est = max(b_est, rho)

        # smallest eigenvalue via inverse iteration
        v = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        v /= np.linalg.norm(v)
        rho = np.vdot(v, op(v)).real  # kept if the first solve fails
        rho_prev = np.inf
        converged_all = True
        for _ in range(POWER_MAX_ITERATIONS):
            try:
                y, _, ok = _pcg(op, v, precond, 1e-10, 200)
            except NonConvergenceError:  # S is singular to rounding here
                converged_all = False
                break
            converged_all = converged_all and ok
            ny = np.linalg.norm(y)
            if ny == 0:
                break
            v = y / ny
            rho = np.vdot(v, op(v)).real
            if abs(rho - rho_prev) <= POWER_TOL * max(abs(rho), 1e-300):
                break
            rho_prev = rho
        if not converged_all:
            warnings.warn("conjugate-gradient solve stalled; lower frame "
                          "bound is a lower estimate", RuntimeWarning)
        a_est = min(a_est, rho)
    return float(a_est), float(b_est)
