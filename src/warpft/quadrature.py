"""Adaptive Gauss-Legendre quadrature.

Composite 15-point panels refined by interval bisection, at most
``MAX_DEPTH`` levels deep, until each panel agrees with its two halves
to ``PANEL_TOL``, and at most ``MAX_PANELS`` panels per integral.
Infinite domains are handled by window doubling about
0 with a truncation-growth test: windows stop expanding once the
integrand drops below ``REL_FLOOR`` of its peak, and integrals whose
tail contributions keep growing raise
:class:`~warpft.errors.DivergenceError`.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, DivergenceError, NonConvergenceError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)

#: a panel is accepted once it agrees with its two halves to this
#: fraction of the integrand's L1 mass; past this depth it is accepted
#: anyway and its disagreement counted as residual slop
PANEL_TOL = 1e-10
MAX_DEPTH = 40
#: the most panels one integral evaluates (15 nodes each): a phase too
#: fast to resolve with them is refused instead of bisected for minutes
MAX_PANELS = 1 << 16
#: window doubling stops once the boundary samples fall below this
#: fraction of the running peak, and fails past this half-width
REL_FLOOR = 1e-16
MAX_HALF_WIDTH = 1e6


def _panel(fn, a, b):
    """One 15-point panel; returns (integral, integral of |fn|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    v = np.asarray(fn(mid + half * _NODES))
    if not np.all(np.isfinite(v)):
        raise DivergenceError(f"non-finite integrand values on [{a}, {b}]")
    return half * np.sum(v * _WEIGHTS), half * np.sum(np.abs(v) * _WEIGHTS)


def integrate(fn, a: float, b: float):
    """Integrate a vectorized callable over the finite interval [a, b].

    ``fn`` may return real or complex values.  Accuracy target is
    ``PANEL_TOL`` relative to the L1 mass of the integrand.  An integral
    that needs more than ``MAX_PANELS`` panels raises
    :class:`~warpft.errors.CapabilityError`.
    """
    if b <= a:
        return 0.0
    whole, whole_abs = _panel(fn, a, b)
    scale = max(whole_abs, 1e-300)
    width = b - a
    total = 0.0 + 0.0j if np.iscomplexobj(np.asarray(whole)) else 0.0
    slop = 0.0
    stack = [(a, b, whole, 0)]
    panels = 1
    while stack:
        panels += 2
        if panels > MAX_PANELS:
            raise CapabilityError(
                f"quadrature on [{a:.6g}, {b:.6g}] needs more than "
                f"{MAX_PANELS} panels")
        lo, hi, est, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, left_abs = _panel(fn, lo, mid)
        right, right_abs = _panel(fn, mid, hi)
        scale = max(scale, left_abs + right_abs)
        err = abs(est - (left + right))
        if err <= PANEL_TOL * scale * max((hi - lo) / width, 1e-3):
            total += left + right
        elif depth >= MAX_DEPTH:
            total += left + right
            slop += err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    if slop > 1e-6 * scale:
        raise NonConvergenceError(
            f"quadrature failed to settle: residual {slop:.3e} vs scale {scale:.3e}"
        )
    return total


def integrate_decaying(fn, initial_half_width: float = 1.0):
    """Integrate over the whole line assuming eventual decay away from 0.

    The window doubles until boundary samples fall below ``REL_FLOOR`` of
    the running peak.  Growth of successive boundary samples (or overflow)
    is reported as divergence.
    """
    w = float(initial_half_width)
    probe = np.linspace(-w, w, 65)
    vals = np.abs(np.asarray(fn(probe)))
    if not np.all(np.isfinite(vals)):
        raise DivergenceError("integrand overflows inside the initial window")
    peak = float(np.max(vals))
    prev_edge = None
    grow_count = 0
    while w < MAX_HALF_WIDTH:
        edge_pts = np.array([-w, -0.95 * w, 0.95 * w, w])
        edge_vals = np.asarray(fn(edge_pts))
        if not np.all(np.isfinite(edge_vals)):
            raise DivergenceError("integrand overflows while expanding the window")
        edge = float(np.max(np.abs(edge_vals)))
        peak = max(peak, edge)
        if edge <= REL_FLOOR * max(peak, 1e-300):
            break
        if prev_edge is not None and edge > prev_edge:
            grow_count += 1
            if grow_count >= 3:
                raise DivergenceError(
                    f"integrand still growing at half-width {w:.3e}"
                )
        else:
            grow_count = 0
        prev_edge = edge
        w *= 2.0
    else:
        raise DivergenceError(
            f"no decay detected out to half-width {MAX_HALF_WIDTH:.3e}"
        )
    return integrate(fn, -w, w)
