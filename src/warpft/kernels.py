"""Gramian kernels, oscillation measures, and stationary-phase bounds.

The kernel-side atoms carry the Jacobian at the running frequency,
``g_{x,xi}(f) = sqrt(F'(f)) theta(F(f)-F(x)) e^{-2 pi i xi f}``, so the
warped substitution ``u = F(f)`` absorbs the weight completely and the
normalized Gramian

    K(x,xi; y,omega)
        = A^{-1} int theta(u-F(x)) theta(u-F(y))
                     e^{2 pi i (xi-omega) Finv(u)} du,   A = ||theta||^2

equals 1 exactly at coincident points.  (The sampled transform uses the
per-channel constant ``sqrt(F'(x))`` instead; the two families differ by
a factor ``sqrt(F'(x)/F'(f))``, which tends to 1 on shrinking supports.)

All A_m-style norms computed here are truncated estimates over explicit
boxes; every report says how much the truncation might hide.  The
oscillatory inner integrals use uniform grids oversampled relative to
the largest phase rate, per-axis resolutions are kept modest, and no
claim of certified enclosure is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .discretization import _quasi_constant, elements_containing
from .errors import CapabilityError, ConfigError, DomainError, \
    NonConvergenceError, UnsupportedOrderError, check_finite
from .prototype import Prototype, l2_norm
from .quadrature import integrate
from .warping import POSITIVE_HALF_LINE, WarpingFunction, WeightSpec, \
    constant_weight

#: the most nodes a kernel grid may hold; a Gramian has at least
#: ``_MIN_U_NODES``
_NODE_CAP = 4_000_000
_MIN_U_NODES = 2048

#: the offset z of the pair ``theta . conj(T_z theta)`` that
#: :func:`stationary_phase_check` checks
STATPHASE_Z = 0.3


def _check_nodes(nodes: int, what: str, remedy: str) -> None:
    if nodes > _NODE_CAP:
        raise CapabilityError(
            f"{what} requires more than {_NODE_CAP} nodes; {remedy}")


@dataclass(frozen=True)
class KernelEvalSpec:
    """Truncation box and resolution for kernel-norm estimates.

    ``z_half_width``/``eta_half_width`` bound the integration box (in
    the offset/modulation variables of the integral at hand, or in Hz
    and seconds for phase-space boxes); ``resolution`` is the number of
    quadrature nodes per axis.  ``m1``/``m2`` are the component weights
    of the ratio weight m (None means constant one).
    """

    z_half_width: float = 8.0
    eta_half_width: float = 8.0
    resolution: int = 64
    m1: Optional[WeightSpec] = None
    m2: Optional[WeightSpec] = None

    def __post_init__(self):
        check_finite(positive=True, z_half_width=self.z_half_width,
                     eta_half_width=self.eta_half_width)
        if self.resolution < 16:
            raise ConfigError("resolution must be at least 16 nodes per axis")
        check_finite(z_spacing=2.0 * self.z_half_width / self.resolution,
                     eta_spacing=2.0 * self.eta_half_width / self.resolution)


def _require_eligible(warp: WarpingFunction):
    if not warp.kernel_eligible:
        raise CapabilityError(
            f"warp kind {warp.kind!r} is not kernel-eligible "
            "(quasi-submultiplicativity fails)")


def _radius(theta: Prototype) -> float:
    return float(theta.support_radius(1e-10))


def weight_m(m1_spec: Optional[WeightSpec], m2_spec: Optional[WeightSpec],
             x, y, xi, omega):
    """Ratio weight ``max{m1(x)m2(xi)/(m1(y)m2(omega)), inverse}``.

    Always >= 1, equals 1 on the diagonal, symmetric under swapping the
    two index pairs.  Accepts arrays and broadcasts.
    """
    m1 = m1_spec if m1_spec is not None else constant_weight()
    m2 = m2_spec if m2_spec is not None else constant_weight()
    num = np.asarray(m1(x), dtype=float) * np.asarray(m2(xi), dtype=float)
    den = np.asarray(m1(y), dtype=float) * np.asarray(m2(omega), dtype=float)
    out = np.maximum(num / den, den / num)
    return float(out) if out.ndim == 0 else out


def gramian(warp: WarpingFunction, theta: Prototype, x: float, xi: float,
            y: float, omega: float) -> complex:
    """Normalized atom cross-correlation by adaptive quadrature."""
    _require_eligible(warp)
    check_finite(x=x, xi=xi, y=y, omega=omega)
    if warp.domain == POSITIVE_HALF_LINE and (x <= 0 or y <= 0):
        raise DomainError("atom centers must lie in the warp domain")
    r = _radius(theta)
    fx, fy = float(warp.eval(x)), float(warp.eval(y))
    lo = max(fx, fy) - r
    hi = min(fx, fy) + r
    if hi <= lo:
        return 0.0 + 0.0j
    nu = xi - omega
    with np.errstate(all="ignore"):   # a phase not finite is refused
        ends = np.abs(np.asarray(warp.inverse(np.array([lo, hi])), dtype=float))
        top = 2.0 * np.pi * abs(nu) * np.max(ends)
    if not np.isfinite(ends).all():
        raise ConfigError(f"the atoms at x = {x} and y = {y} reach past the "
                          "largest finite frequency; move x and y in")
    if not math.isfinite(top):
        raise ConfigError(f"xi - omega = {nu} gives a phase that is not "
                          "finite; bring xi and omega closer")
    a = l2_norm(theta) ** 2

    def integrand(u):
        return (theta.eval(u - fx) * theta.eval(u - fy)
                * np.exp(2j * np.pi * nu * warp.inverse(u)))

    try:
        return complex(integrate(integrand, lo, hi) / a)
    except NonConvergenceError:
        ests = []
        for n_u in (1 << 14, 1 << 15):
            du = (hi - lo) / n_u
            u = lo + (np.arange(n_u) + 0.5) * du
            ests.append(complex(np.sum(integrand(u)) * du / a))
        raise NonConvergenceError(
            "gramian quadrature did not converge; last two refinements "
            f"gave {ests[0]!r} and {ests[1]!r}") from None


def _gramian_batch(warp: WarpingFunction, theta: Prototype, x: float,
                   xi: float, ys: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Gramian row K(x,xi; ys,omegas) on a shared oversampled u-grid."""
    _require_eligible(warp)
    r = _radius(theta)
    fx = float(warp.eval(float(x)))
    fys = np.asarray(warp.eval(np.asarray(ys, dtype=float)), dtype=float)
    nus = xi - np.asarray(omegas, dtype=float)
    lo, hi = fx - r, fx + r
    with np.errstate(all="ignore"):  # a rate that is not finite is refused
        wmax = float(np.max(warp.weight(np.linspace(lo, hi, 65))))
        rate = np.max(np.abs(nus)) * wmax
        nodes = 16.0 * rate * r
    if not math.isfinite(rate):
        raise ConfigError(f"the phase rate at xi = {xi} is not finite "
                          "over the omega of the cells; bring xi and "
                          "omega closer")
    n_u = max(_MIN_U_NODES, int(min(nodes, _NODE_CAP)) + 1)  # inf: past the cap
    _check_nodes(n_u, "phase rate", "shrink the box")
    du = (hi - lo) / n_u
    u = lo + (np.arange(n_u) + 0.5) * du
    base = theta.eval(u - fx)
    finv = np.asarray(warp.inverse(u), dtype=float)
    norm2 = l2_norm(theta) ** 2
    out = np.empty(len(fys), dtype=complex)
    for i, (fy, nu) in enumerate(zip(fys, nus)):
        vals = base * theta.eval(u - fy) * np.exp(2j * np.pi * nu * finv)
        out[i] = vals.sum() * du / norm2
    return out


def _f_product(theta: Prototype, z: float, order: int):
    """Derivative of ``f(s) = theta(s) theta(s - z)`` by Leibniz."""

    def fk(s):
        s = np.asarray(s, dtype=float)
        total = np.zeros_like(s)
        for i in range(order + 1):
            total = total + (math.comb(order, i)
                             * theta.eval(s, order=i)
                             * theta.eval(s - z, order=order - i))
        return total

    return fk


def _decay_constant(warp: WarpingFunction, theta: Prototype, z: float,
                    n: int, s: np.ndarray) -> float:
    """``max_{k<=n} int w(-s)^n |f^{(k+1)}(s)| ds`` for
    ``f = theta . T_z theta``, by the trapezoid rule on the grid ``s``."""
    wneg = np.asarray(warp.weight(-s), dtype=float) ** n
    best = 0.0
    for k in range(n + 1):
        deriv = _f_product(theta, z, k + 1)(s)
        best = max(best, float(np.trapezoid(wneg * np.abs(deriv), s)))
    return best


def _phase_constants(warp: WarpingFunction, x: float, n: int,
                     s_grid: np.ndarray) -> float:
    """``C_n``: the largest of sup |P_{n,k}/W^n| over the support, with
    the repeated-integration-by-parts polynomials written out for
    n <= 2 (P_{1,.} = -W', W; P_{2,.} = 3W'^2 - W W'', -3WW', W^2)."""
    if n == 0:
        return 1.0
    w0 = np.asarray(warp.weight(s_grid + x), dtype=float)
    w1 = np.asarray(warp.weight(s_grid + x, order=1), dtype=float)
    if n == 1:
        return float(max(1.0, np.max(np.abs(w1) / w0)))
    w2 = np.asarray(warp.weight(s_grid + x, order=2), dtype=float)
    t0 = np.max(np.abs(3.0 * w1 ** 2 - w0 * w2) / w0 ** 2)
    t1 = np.max(3.0 * np.abs(w1) / w0)
    return float(max(t0, t1, 1.0))


def _oscillatory_matrix(warp, theta, x, z_vals, etas, s_lo, s_hi):
    """Inner integrals over s for every (z, eta) pair, s-chunked so the
    phase matrix never exceeds a few tens of MB."""
    with np.errstate(all="ignore"):  # a rate that is not finite is refused
        wmax = float(np.max(warp.weight(np.linspace(s_lo, s_hi, 65) + x)))
        wx = float(warp.weight(x))
        rate = np.max(np.abs(etas)) * wmax / wx
        nodes = 16.0 * rate * (s_hi - s_lo)
    if not math.isfinite(rate):
        raise ConfigError(f"the phase rate at x = {x} is not finite; "
                          "move x or shrink the eta range")
    n_s = max(4096, int(min(nodes, _NODE_CAP)) + 1)  # inf: past the cap
    _check_nodes(n_s, "phase rate", "shrink the eta range")
    ds = (s_hi - s_lo) / n_s
    z_arr = np.asarray(z_vals, dtype=float)
    etas = np.asarray(etas, dtype=float)
    out = np.zeros((len(z_arr), len(etas)), dtype=complex)
    chunk = 1 << 15
    for start in range(0, n_s, chunk):
        idx = np.arange(start, min(start + chunk, n_s))
        s = s_lo + (idx + 0.5) * ds
        w_ratio = np.asarray(warp.weight(s + x), dtype=float) / wx
        g = np.asarray(warp.inverse(s + x), dtype=float) / wx
        amp = (theta.eval(s) * w_ratio
               * theta.eval(s[None, :] - z_arr[:, None]))
        phase = np.exp(-2j * np.pi * np.outer(etas, g))
        out += (amp * ds) @ phase.T
    return out   # shape (n_z, n_eta), complex


@dataclass(frozen=True)
class StationaryPhaseReport:
    order: int
    eta: np.ndarray
    lhs: np.ndarray
    rhs_decay: np.ndarray     # (n+1) c_n / (2 pi |eta|)^{n+1}, nan if |eta|<1
    flat_bound: float         # C ||f||_{L1_w}
    c_n: float
    big_c: float
    decay_ok: bool
    flat_ok: bool
    slope: float              # log-log fit over eta in [4, 64], nan if < 3 pts

    @property
    def passed(self) -> bool:
        ok = self.decay_ok and self.flat_ok
        if np.isfinite(self.slope):
            ok = ok and self.slope <= -(self.order + 1) + 0.1
        return ok


def stationary_phase_check(warp: WarpingFunction, theta: Prototype, n: int,
                           x: float, eta_grid: Sequence[float]
                           ) -> StationaryPhaseReport:
    """Check the oscillatory-decay bound of repeated integration by
    parts for ``f = theta . conj(T_z theta)``, z = :data:`STATPHASE_Z`.

    For each eta the left side is
    ``| int (w(s+x)/w(x)) f(s) e^{-2 pi i eta Finv(s+x)/w(x)} ds |``;
    for ``|eta| >= 1`` it must stay below
    ``(n+1) c_n / (2 pi |eta|)^{n+1}`` with
    ``c_n = C_n max_{k<=n} int w(-s)^n |f^{(k+1)}|``, and everywhere
    below the flat bound ``C ||f||_{L1_w}`` (``C`` the
    quasi-submultiplicativity constant of the weight).
    """
    _require_eligible(warp)
    if n not in (0, 1, 2):
        raise UnsupportedOrderError("stationary-phase orders 0..2 supported")
    check_finite(x=x)
    if theta.kind == "hann_bump" and n >= 2:
        raise UnsupportedOrderError(
            "hann_bump is C^1 only; order-2 bounds need classical third "
            "derivatives")
    etas = np.asarray(eta_grid, dtype=float)
    r, z = _radius(theta), STATPHASE_Z
    s_lo = max(-r, z - r)
    s_hi = min(r, z + r)
    if s_hi <= s_lo:
        raise ConfigError(f"prototypes translated by z = {z} do not "
                          "overlap; widen the prototype")
    lhs = np.abs(_oscillatory_matrix(warp, theta, x, [z], etas,
                                     s_lo, s_hi)[0])

    s = np.linspace(s_lo, s_hi, 4097)
    big_c = _phase_constants(warp, x, n, s)
    c_n = big_c * _decay_constant(warp, theta, z, n, s)

    f0 = _f_product(theta, z, 0)(s)
    l1w = float(np.trapezoid(np.abs(f0) * np.asarray(warp.weight(s)), s))
    flat = _quasi_constant(warp) * l1w

    with np.errstate(divide="ignore"):
        rhs = np.where(np.abs(etas) >= 1.0,
                       (n + 1) * c_n / (2.0 * np.pi * np.abs(etas)) ** (n + 1),
                       np.nan)
    decay_ok = bool(np.all(lhs[np.abs(etas) >= 1.0]
                           <= rhs[np.abs(etas) >= 1.0]))
    flat_ok = bool(np.all(lhs <= flat))

    # points at the quadrature noise floor would flatten the fitted slope
    band = (etas >= 4.0) & (etas <= 64.0) & (lhs > np.max(lhs) * 1e-10)
    if band.sum() >= 3:
        slope = float(np.polyfit(np.log(etas[band]), np.log(lhs[band]), 1)[0])
    else:
        slope = float("nan")
    return StationaryPhaseReport(n, etas, lhs, rhs, flat, c_n, big_c,
                                 decay_ok, flat_ok, slope)


@dataclass(frozen=True)
class KernelNormReport:
    value: float
    tail_estimate: float
    inconclusive: bool
    z_half_width: float
    eta_half_width: float
    resolution: int

    def __float__(self) -> float:
        return self.value


def kernel_norm_I(warp: WarpingFunction, theta: Prototype,
                  spec: KernelEvalSpec, x: float,
                  xi: float = 0.0) -> KernelNormReport:
    """Truncated kernel-algebra norm integral at warped position ``x``:

        I = int int C_x(z) m~(x,z,xi,eta) |inner(z, eta)| deta dz

    with ``C_x(z) = sqrt(w(z+x)/w(x))``, the ratio weight evaluated at
    ``m(Finv(x), Finv(z+x), xi, xi - eta/w(x))``, and the oscillatory
    inner s-integral of :func:`stationary_phase_check`.  The tail
    estimate combines the order-1 stationary-phase bound beyond the eta
    box with the boundary mass in z; if it exceeds 10% of the value the
    result is flagged inconclusive.
    """
    _require_eligible(warp)
    check_finite(x=x, xi=xi)
    nz = ne = spec.resolution
    _check_nodes(nz * ne, f"a {nz} x {ne} grid", "lower the resolution")
    zb, hb = spec.z_half_width, spec.eta_half_width
    dz = 2.0 * zb / nz
    de = 2.0 * hb / ne
    z_vals = -zb + (np.arange(nz) + 0.5) * dz
    etas = -hb + (np.arange(ne) + 0.5) * de
    r = _radius(theta)
    s_lo, s_hi = -r, r
    inner = np.abs(_oscillatory_matrix(warp, theta, x, z_vals, etas,
                                       s_lo, s_hi))

    with np.errstate(all="ignore"):  # weights not finite are refused
        wx = float(warp.weight(x))
        cx = np.sqrt(np.asarray(warp.weight(z_vals + x), dtype=float) / wx)
        x_hz = float(warp.inverse(x))
        z_hz = np.asarray(warp.inverse(z_vals + x), dtype=float)
        mt = weight_m(spec.m1, spec.m2,
                      x_hz, z_hz[:, None], xi, xi - etas[None, :] / wx)
    mt = np.broadcast_to(np.asarray(mt, dtype=float), inner.shape)
    if not (np.isfinite(cx).all() and np.isfinite(mt).all()):
        raise ConfigError(f"the weights at x = {x} are not finite on the "
                          "z box; shrink the z range")
    cell = inner * mt * cx[:, None]
    value = float(cell.sum() * dz * de)

    # eta tail: the sharpest of the order-1/2 integration-by-parts
    # bounds, integrated past the box on both sides; the decay constant
    # is tabulated at coarse z samples so rows with no prototype
    # overlap contribute nothing
    s = np.linspace(s_lo, s_hi, 2049)
    coarse = z_vals[:: max(1, nz // 8)]
    max_n = 1 if theta.kind == "hann_bump" else 2
    c_tab = np.array([[_decay_constant(warp, theta, zc, n_ord, s)
                       for zc in coarse] for n_ord in range(1, max_n + 1)])
    near = np.argmin(np.abs(z_vals[:, None] - coarse[None, :]), axis=1)
    m_edge = float(np.max(mt[:, [0, -1]]))
    tail_eta = np.inf
    for n_ord in range(1, max_n + 1):
        big_c = _phase_constants(warp, x, n_ord, s)
        # hb ** n_ord underflows to 0 for a tiny box
        den = (2.0 * np.pi) ** (n_ord + 1) * n_ord * hb ** n_ord
        factor = 2.0 * (n_ord + 1) * big_c / den if den else math.inf
        if not math.isfinite(factor):
            raise ConfigError(f"eta_half_width = {hb} gives an eta-tail "
                              "bound that is not finite; widen the eta box")
        cand = float(np.sum(cx * c_tab[n_ord - 1, near]) * dz
                     * m_edge * factor)
        tail_eta = min(tail_eta, cand)

    # z tail: zero once the box clears the support overlap, otherwise
    # a crude one-extra-row-per-side allowance
    if theta.compact and zb >= 2.0 * r:
        tail_z = 0.0
    else:
        edge = float(cell[0].sum() + cell[-1].sum()) * de * dz
        tail_z = 3.0 * edge
    tail = tail_eta + tail_z
    return KernelNormReport(value, tail, bool(tail > 0.1 * abs(value)),
                            zb, hb, nz)


def oscillation(warp: WarpingFunction, theta: Prototype, delta: float,
                gamma_on: bool, x: float, xi: float, y: float, omega: float,
                q_resolution: int = 3) -> float:
    """Largest deviation of the Gramian over the cover cells at
    ``(y, omega)``, after the phase correction ``e^{2 pi i (eta-omega) y}``
    when ``gamma_on``.

    ``q_resolution = 1`` samples only ``(y, omega)`` itself (and so
    returns 0 exactly).
    """
    _require_eligible(warp)
    check_finite(positive=True, delta=delta)
    check_finite(x=x, xi=xi, y=y, omega=omega)
    if q_resolution < 1:
        raise ConfigError("q_resolution must be at least 1")
    # q_resolution = 1 samples (y, omega) alone, as does an empty cover
    elems = (elements_containing(warp, delta, y, omega)
             if q_resolution > 1 else [])
    _check_nodes(len(elems) * q_resolution ** 2 * _MIN_U_NODES,
                 f"q_resolution {q_resolution}", "lower it")
    pts = [(float(fy), float(t)) for e in elems
           for fy in np.linspace(e.f_lo, e.f_hi, q_resolution)
           for t in np.linspace(e.t_lo, e.t_hi, q_resolution)]
    ys, oms = np.array(pts or [(float(y), float(omega))]).T
    vals = _gramian_batch(warp, theta, x, xi,
                          np.concatenate(([y], ys)),
                          np.concatenate(([omega], oms)))
    base = vals[0]
    if gamma_on:
        gam = np.exp(2j * np.pi * (oms - omega) * y)
    else:
        gam = np.ones_like(oms, dtype=complex)
    return float(np.max(np.abs(base - gam * vals[1:])))


@dataclass(frozen=True)
class OscNormReport:
    value: float
    tail_estimate: float
    inconclusive: bool
    gamma_on: bool
    delta: float

    def __float__(self) -> float:
        return self.value


def osc_norm_estimate(warp: WarpingFunction, theta: Prototype, delta: float,
                      spec: KernelEvalSpec, gamma_on: bool = True,
                      q_resolution: int = 2,
                      box_resolution: int = 12) -> OscNormReport:
    """Truncated Schur-norm estimate of the oscillation kernel.

    Probes a few phase-space points; around each, integrates
    ``m . osc`` over the truncation box in both orientations (fixed
    first pair integrating over the second, and the transpose), and
    takes the largest row/column mass.  The deliverable is the trend of
    this number as ``delta`` shrinks, not a certified norm.
    """
    _require_eligible(warp)
    check_finite(positive=True, delta=delta)
    probe_slots = (0.5, 3.5, 9.5)
    probes = []
    with np.errstate(over="ignore"):   # probes not finite are refused
        for slot in probe_slots:
            xw = delta * slot
            x_hz = float(warp.inverse(xw))
            f_hi = float(warp.inverse(xw + delta))
            f_lo = float(warp.inverse(xw - delta))
            tau = delta * delta / max(f_hi - f_lo, 1e-300)
            probes.append((x_hz, 0.5 * tau))
    if not np.isfinite(probes).all():
        raise ConfigError(f"delta = {delta} puts the probe points past the "
                          "largest finite frequency; lower delta")

    def mass(x0, xi0, y0, om0):
        return (oscillation(warp, theta, delta, gamma_on, x0, xi0, y0, om0,
                            q_resolution)
                * weight_m(spec.m1, spec.m2, x0, y0, xi0, om0))

    wy, wo = spec.z_half_width, spec.eta_half_width
    nb = box_resolution
    value = 0.0
    tail = 0.0
    for (px, pxi) in probes:
        lo = px - wy
        if warp.domain == POSITIVE_HALF_LINE:
            lo = max(lo, 0.05 * px)
        dy = (px + wy - lo) / nb
        do = 2.0 * wo / nb
        ys = lo + (np.arange(nb) + 0.5) * dy
        oms = pxi - wo + (np.arange(nb) + 0.5) * do

        # row orientation: fixed (px, pxi), Q-sets at the grid nodes
        rows = np.array([[mass(px, pxi, yv, ov) for ov in oms] for yv in ys])
        # column orientation: Q-set fixed at the probe, first pair varies
        cols = np.array([[mass(yv, ov, px, pxi) for ov in oms] for yv in ys])
        value = max(value, float(rows.sum() * dy * do),
                    float(cols.sum() * dy * do))
        # the tail is the row grid's outer ring
        ring = (rows[0].sum() + rows[-1].sum() + rows[1:-1, 0].sum()
                + rows[1:-1, -1].sum()) * dy * do
        tail = max(tail, float(ring))
    return OscNormReport(value, tail, bool(tail > 0.1 * abs(value)),
                         gamma_on, delta)
