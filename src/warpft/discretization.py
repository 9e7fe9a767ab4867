"""Warped phase-space covers and frame-bound estimation.

Cutting the warped frequency axis into steps of ``delta`` induces a
cover of the frequency-time plane by rectangles

    U_{l,k} = [Finv(delta l), Finv(delta (l+1))] x [k tau_l, (k+1) tau_l]

with ``tau_l = delta^2 / |I_l|``, so every element has area exactly
``delta^2`` regardless of the warp.  This module holds finite windows
of that cover as arrays over their elements, checks the covering-
admissibility constants (neighbor count, measure moderateness) on them,
finds the elements containing a point, evaluates the weight constant
``C_{m,U}``, and computes the exact frame bounds of sampled systems from
the fibers of their frame operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, NotPainlessError, check_finite
from .system import WarpedSystem
from .warping import (POSITIVE_HALF_LINE, WarpingFunction, WeightSpec,
                      check_moderateness, check_quasi_submultiplicative,
                      constant_weight, induced_v1, warped_weight)

_MAX_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class CoverElement:
    """One closed phase-space rectangle of the induced cover."""

    l: int
    k: int
    f_lo: float
    f_hi: float
    t_lo: float
    t_hi: float

    def intersects(self, other: "CoverElement") -> bool:
        return (self.f_lo <= other.f_hi and other.f_lo <= self.f_hi
                and self.t_lo <= other.t_hi and other.t_lo <= self.t_hi)


@dataclass(eq=False)
class Cover:
    """A finite window of the induced delta-cover, held as arrays over
    its elements: channel rows ``l`` in increasing order, each one a
    contiguous run with ``k`` increasing by one; element ``i`` is the
    rectangle ``[f_lo[i], f_hi[i]] x [t_lo[i], t_hi[i]]``."""

    warp: WarpingFunction
    delta: float
    l: np.ndarray
    k: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    freq_window: Tuple[float, float]
    time_window: Tuple[float, float]

    def __len__(self) -> int:
        return self.l.size

    @cached_property
    def elements(self) -> List[CoverElement]:
        """The elements as objects, built on first access."""
        cols = (self.l, self.k, self.f_lo, self.f_hi, self.t_lo, self.t_hi)
        return [CoverElement(*e) for e in zip(*(c.tolist() for c in cols))]

    @property
    def measure_analytic(self) -> float:
        """Element area in closed form; exact for every warp."""
        return self.delta * self.delta

    def channel_indices(self) -> List[int]:
        return np.unique(self.l).tolist()

    def _row_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """First and one-past-last element index of each row."""
        _, starts = np.unique(self.l, return_index=True)
        return starts, np.r_[starts[1:], len(self)]

    def neighbor_counts(self) -> np.ndarray:
        """For each element, how many others its closed rectangle touches.
        Rows are consecutive channels: adjacent rows share a frequency edge
        exactly and rows further apart never meet, so two binary searches
        in the sorted time edges of rows l-1, l, l+1 count the neighbors.
        """
        rows = [slice(a, b) for a, b in zip(*self._row_bounds())]
        counts = np.full(len(self), -1)   # each element touches itself
        for r, cur in enumerate(rows):
            for near in rows[max(r - 1, 0):r + 2]:
                counts[cur] += (
                    np.searchsorted(self.t_lo[near], self.t_hi[cur], "right")
                    - np.searchsorted(self.t_hi[near], self.t_lo[cur], "left"))
        return counts


def induced_cover(warp: WarpingFunction, delta: float,
                  freq_window: Tuple[float, float],
                  time_window: Tuple[float, float]) -> Cover:
    """All cover elements meeting ``freq_window x time_window``.

    Windows are closed; an element touching the boundary is included.
    """
    check_finite(positive=True, delta=delta)
    f_a, f_b = map(float, freq_window)
    t_a, t_b = map(float, time_window)
    check_finite(f_lo=f_a, f_hi=f_b, t_lo=t_a, t_hi=t_b)
    if not (f_a < f_b) or not (t_a < t_b):
        raise ConfigError("windows must be nonempty intervals")
    if warp.domain == POSITIVE_HALF_LINE and f_a <= 0:
        raise DomainError("frequency window must be positive for this warp")
    s_a, s_b = (float(warp.eval(f)) / delta for f in (f_a, f_b))
    check_finite(**{"F(f_lo)/delta": s_a, "F(f_hi)/delta": s_b})
    l_min = int(np.ceil(s_a)) - 1
    n_rows = int(np.floor(s_b)) - l_min + 1
    too_many = (f"cover window would materialize more than {_MAX_ELEMENTS} "
                "elements; shrink the windows")
    if n_rows > _MAX_ELEMENTS:
        raise ConfigError(too_many)
    f_edge = warp.inverse(delta * np.arange(l_min, l_min + n_rows + 1))
    with np.errstate(all="ignore"):   # degenerate rows are refused below
        tau = delta * delta / np.diff(f_edge)
        k_lo = np.ceil(t_a / tau) - 1
        k_hi = np.floor(t_b / tau)
    if not (np.all((tau > 0) & (tau < np.inf))
            and np.max(np.abs([k_lo, k_hi])) < 2.0 ** 53):
        raise ConfigError("delta and the windows give cover rows of no "
                          "finite positive width or element indices beyond "
                          "2^53; change delta or the windows")
    counts = (k_hi - k_lo).astype(np.int64) + 1
    if n_rows * int(counts.max()) > _MAX_ELEMENTS:
        raise ConfigError(too_many)
    row = np.repeat(np.arange(n_rows), counts)
    shift = k_lo.astype(np.int64) - (np.cumsum(counts) - counts)  # k - i
    k = shift[row] + np.arange(row.size)
    tau = tau[row]
    return Cover(warp, delta, row + l_min, k, f_edge[row], f_edge[row + 1],
                 k * tau, (k + 1) * tau, (f_a, f_b), (t_a, t_b))


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
    max_n = int(np.max(cover.neighbor_counts(), initial=-1)) + 1
    mu = cover.measure_analytic
    area = (cover.f_hi - cover.f_lo) * (cover.t_hi - cover.t_lo)
    err = float(np.max(np.abs(area - mu) / mu, initial=0.0))

    # rows are runs of consecutive k: each covers the time window when
    # its first and last elements reach past the ends
    f_a, f_b = cover.freq_window
    t_a, t_b = cover.time_window
    first, stop = cover._row_bounds()
    covered = bool(len(cover) and cover.f_lo.min() <= f_a
                   and cover.f_hi.max() >= f_b
                   and np.all(cover.t_lo[first] <= t_a)
                   and np.all(cover.t_hi[stop - 1] >= t_b))
    # every element has analytic area delta^2: the measure ratio is 1
    return CoverReport(max_n, 1.0, mu, covered, err)


def elements_containing(warp: WarpingFunction, delta: float, y: float,
                        omega: float) -> List[CoverElement]:
    """Cover elements whose closed rectangle contains ``(y, omega)``."""
    check_finite(positive=True, delta=delta)
    check_finite(y=y, omega=omega)
    with np.errstate(over="ignore"):   # an index not finite is refused
        wy = float(warp.eval(float(y)))
    ell = wy / delta
    if not math.isfinite(ell):
        raise ConfigError(f"delta = {delta} puts y = {y} in a cover row "
                          "whose index F(y)/delta is not finite; raise delta")
    ls = {int(np.floor(ell))}
    if ell == np.floor(ell):          # sitting on a channel boundary
        ls.add(int(ell) - 1)
    out = []
    for l in sorted(ls):
        if not (delta * l <= wy <= delta * (l + 1)):
            continue   # membership decided in warped coordinates: exact
        with np.errstate(over="ignore"):   # a row past the axis is refused
            f_lo = float(warp.inverse(delta * l))
            f_hi = float(warp.inverse(delta * (l + 1)))
        tau = delta * delta / (f_hi - f_lo) if f_hi > f_lo else 0.0
        if not 0 < tau < np.inf:
            raise ConfigError(f"delta = {delta} gives the cover row at "
                              f"y = {y} no finite positive width")
        kk = omega / tau
        if not math.isfinite(kk):
            raise ConfigError(f"omega = {omega} lies in a cover column whose "
                              f"index is not finite at delta = {delta}; "
                              "move omega in")
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
class WeightBoundReport:
    """Sampled and closed-form values of the cover weight constant."""

    sampled: float
    analytic: float

    def __float__(self) -> float:
        return self.sampled


def _axis_extremes(m: WeightSpec, lo: np.ndarray,
                   hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Largest and smallest of ``m`` at ``lo``, ``hi`` and
    ``clip(0, lo, hi)`` (the axis crossing, or a repeated end)."""
    a, b, c = m(lo), m(hi), m(np.clip(0.0, lo, hi))
    return np.maximum(np.maximum(a, b), c), np.minimum(np.minimum(a, b), c)


def weight_bound_C(cover: Cover, m1_spec: Optional[WeightSpec] = None,
                   m2_spec: Optional[WeightSpec] = None) -> WeightBoundReport:
    """Largest value of the ratio weight ``m`` over point pairs inside a
    single cover element, against the closed-form bound
    ``C_tilde v1(delta) V2``.

    The weights are positive and |.|-monotone, so on each axis they are
    extreme at the ends or at the axis crossing; correctly rounded
    products are monotone, so a rectangle's extreme products are the
    products of the axis extremes, exactly.  Ratios inf / inf are skipped.
    """
    m1 = m1_spec if m1_spec is not None else constant_weight()
    m2 = m2_spec if m2_spec is not None else constant_weight()
    top1, bot1 = _axis_extremes(m1, cover.f_lo, cover.f_hi)
    top2, bot2 = _axis_extremes(m2, cover.t_lo, cover.t_hi)
    top, bot = top1 * top2, bot1 * bot2
    keep = bot > 0
    with np.errstate(invalid="ignore"):   # inf / inf: a nan, skipped
        ratio = top[keep] / bot[keep]
    sampled = float(np.fmax.reduce(ratio, initial=1.0))

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


def frame_bounds(system: WarpedSystem) -> Tuple[float, float]:
    """Exact frame bounds over the fully covered band: the extreme
    eigenvalues of the frame operator compressed to the interior bins,
    fiber by fiber (see :meth:`WarpedSystem.interior_fibers`).  ``S`` is
    positive semidefinite, so a negative lower bound is rounding: 0."""
    if system.interior_bins().size == 0:
        raise ConfigError("system has no fully covered bins")
    singles, fibers = system.interior_fibers()
    eig = np.concatenate([system.frame_diag()[singles]]
                         + [np.linalg.eigvalsh(s).ravel() for _, s in fibers])
    return max(float(eig.min()), 0.0), float(eig.max())


def frame_bounds_painless(system: WarpedSystem) -> Tuple[float, float]:
    """Exact frame bounds of a painless system: the extremes of the
    diagonal profile over the fully covered band."""
    if not system.painless:
        raise NotPainlessError("diagonal frame bounds need a painless system")
    return frame_bounds(system)


# kept while the benchmark's tracer looks this name up in this module
frame_bounds_power_iteration = frame_bounds
