"""Prototype windows, their derivatives and weighted norms.

A prototype ``theta`` lives on the warped axis; warped atoms are built
by translating it to each channel position.  Three built-in families:

``gaussian(sigma)``
    ``exp(-s^2 / (2 sigma^2))`` — smooth, never compactly supported.
``hann_bump(r)``
    ``cos^2(pi s / (2r))`` on ``|s| < r`` — compact, C^1 at the edges.
``smooth_bump(r)``
    ``exp(-1 / (1 - (s/r)^2))`` on ``|s| < r`` — compact and smooth.

Derivatives are symbolic up to order 4 (Hermite recursion for the
Gaussian, Faà di Bruno for the bump), which covers the second-order
stationary-phase machinery in :mod:`warpft.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DivergenceError, UnsupportedOrderError
from .quadrature import integrate, integrate_decaying
from .warping import _ret, _split

MAX_DERIVATIVE_ORDER = 4

# probabilists' Hermite polynomials He_0..He_4
_HERMITE = (
    lambda u: np.ones_like(u),
    lambda u: u,
    lambda u: u * u - 1.0,
    lambda u: u ** 3 - 3.0 * u,
    lambda u: u ** 4 - 6.0 * u * u + 3.0,
)


@dataclass(frozen=True)
class Prototype:
    """A prototype window, centred at 0 and scaled by ``scale``."""

    kind: str
    sigma: float = 1.0
    radius: float = 1.0
    scale: float = 1.0

    @property
    def compact(self) -> bool:
        return self.kind in ("hann_bump", "smooth_bump")

    def support_radius(self, floor: float = 1e-8) -> float:
        """Radius beyond which ``|theta|`` stays below ``floor * peak``."""
        if self.compact:
            return self.radius
        return self.sigma * np.sqrt(2.0 * np.log(1.0 / floor))

    def eval(self, s, order: int = 0):
        if order < 0 or order > MAX_DERIVATIVE_ORDER:
            raise UnsupportedOrderError(
                f"prototype derivatives available for order <= {MAX_DERIVATIVE_ORDER}")
        u, scalar = _split(s)
        if self.kind == "gaussian":
            out = self._gaussian(u, order)
        elif self.kind == "hann_bump":
            out = self._hann(u, order)
        elif self.kind == "smooth_bump":
            out = self._bump(u, order)
        else:
            raise ConfigError(f"unknown prototype kind {self.kind!r}")
        return _ret(self.scale * out, scalar)

    __call__ = eval

    def _gaussian(self, u, order):
        z = u / self.sigma
        sign = -1.0 if order % 2 else 1.0
        return sign * self.sigma ** (-order) * _HERMITE[order](z) * np.exp(-0.5 * z * z)

    def _hann(self, u, order):
        r = self.radius
        # every point evaluated, then selected, as in _bump; cos(inf) is nan
        inside = np.abs(u) < r
        phase = np.pi * np.atleast_1d(u) / r
        with np.errstate(invalid="ignore"):
            if order == 0:
                out = 0.5 * (1.0 + np.cos(phase))
            else:
                out = (0.5 * (np.pi / r) ** order
                       * np.cos(phase + 0.5 * np.pi * order))
        return np.where(inside, out.reshape(u.shape), 0.0)

    def _bump(self, u, order):
        r = self.radius
        # Stay clear of the support edge: every derivative vanishes there
        # faster than the rational prefactors blow up.  All points are
        # evaluated (at least 1-d: a numpy scalar's ``**`` is libm pow) and
        # np.where keeps the inside ones; outside, ``den <= 0`` may divide
        # by zero or overflow.
        inside = np.abs(u) < r * (1.0 - 1e-9)
        s = np.atleast_1d(u)
        r2 = r * r

        def keep(v):
            return np.where(inside, v.reshape(u.shape), 0.0)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            den = r2 - s * s
            g = np.exp(-r2 / den)
            if order == 0:
                return keep(g)
            g1 = -2.0 * r2 * s / den ** 2
            if order == 1:
                return keep(g1 * g)
            g2 = -2.0 * r2 * (r2 + 3.0 * s * s) / den ** 3
            if order == 2:
                return keep((g2 + g1 ** 2) * g)
            g3 = -24.0 * r2 * s * (r2 + s * s) / den ** 4
            if order == 3:
                return keep((g3 + 3.0 * g1 * g2 + g1 ** 3) * g)
            g4 = (-24.0 * r2 * (r2 ** 2 + 10.0 * r2 * s * s + 5.0 * s ** 4)
                  / den ** 5)
            return keep((g4 + 4.0 * g1 * g3 + 3.0 * g2 ** 2
                         + 6.0 * g1 ** 2 * g2 + g1 ** 4) * g)


def gaussian_prototype(sigma: float = 1.0) -> Prototype:
    if sigma <= 0:
        raise ConfigError("gaussian prototype needs sigma > 0")
    return Prototype("gaussian", sigma=sigma)


def hann_prototype(radius: float = 1.0) -> Prototype:
    if radius <= 0:
        raise ConfigError("hann_bump prototype needs radius > 0")
    return Prototype("hann_bump", radius=radius)


def bump_prototype(radius: float = 1.0) -> Prototype:
    # the bump is evaluated through radius**2
    if not (radius > 0 and np.isfinite(radius * radius)):
        raise ConfigError("smooth_bump prototype needs radius > 0 "
                          "with a finite square")
    return Prototype("smooth_bump", radius=radius)


#: each kind's constructor and the names of its parameters, which are
#: also the constructor's keywords and the prototype's attributes
PROTOTYPE_FAMILIES = {
    "gaussian": (gaussian_prototype, ("sigma",)),
    "hann_bump": (hann_prototype, ("radius",)),
    "smooth_bump": (bump_prototype, ("radius",)),
}


def prototype_from_params(kind: str, **params) -> Prototype:
    """Construct a prototype from flat config parameters; absent ones
    take the constructor's defaults."""
    if kind not in PROTOTYPE_FAMILIES:
        raise ConfigError(f"unknown prototype kind {kind!r}")
    return PROTOTYPE_FAMILIES[kind][0](**params)


def weighted_l2_norm(theta: Prototype, weight=None) -> float:
    """``(∫ |theta(s)|^2 weight(s)^2 ds)^{1/2}``.

    Compact prototypes integrate over their support; decaying ones over
    an adaptively expanded window.  A combination whose integrand keeps
    growing (or overflows) raises :class:`DivergenceError`.
    """
    def integrand(s):
        # overflow shows up as inf/nan and is reported as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            th = theta.eval(s)
            if weight is None:
                return th * th
            wv = np.asarray(weight(s), dtype=float)
            return th * th * wv * wv

    if theta.compact:
        val = integrate(integrand, -theta.radius, theta.radius)
    else:
        val = integrate_decaying(integrand, max(1.0, theta.sigma))
    val = float(np.real(val))
    if not np.isfinite(val):
        raise DivergenceError("weighted norm overflowed")
    return float(np.sqrt(max(val, 0.0)))


@lru_cache(maxsize=64)
def l2_norm(theta: Prototype) -> float:
    """``||theta||_2``, cached per (frozen) prototype."""
    return weighted_l2_norm(theta)


def normalized(theta: Prototype) -> Prototype:
    """Rescale so that the L2 norm equals 1."""
    return replace(theta, scale=theta.scale / l2_norm(theta))


def admissibility_inner_product(theta1: Prototype, theta2: Prototype) -> complex:
    """``<theta1, theta2>`` in L2; this is the constant appearing next to
    ``<f1, f2>`` in the orthogonality relation."""
    def integrand(s):
        return theta1.eval(s) * np.conj(theta2.eval(s))

    if theta1.compact and theta2.compact:
        r = min(theta1.radius, theta2.radius)
        val = integrate(integrand, -r, r)
    else:
        val = integrate_decaying(integrand, max(1.0, theta1.sigma))
    return complex(val)
