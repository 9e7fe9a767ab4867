"""Warping functions and weight specifications.

A *warping function* ``F`` maps a frequency domain ``D`` (the full real
line or the positive half-line) bijectively and increasingly onto the
real warped axis.  Its defining axioms:

* ``F`` is continuously differentiable with ``F' > 0``,
* ``F'`` is nonincreasing in ``|t|`` (finer resolution near 0),
* when ``D`` is the real line, ``F`` is odd.

The induced weight ``w = (F^{-1})'`` controls every estimate downstream:
sampling densities, kernel decay rates and admissible analysis weights.
This module provides the built-in warp families, their inverses and
weights with symbolic derivatives to second order, plus grid measurements
of the quasi-submultiplicativity constant of ``w`` and of the
moderateness constant of a weight pair, which the cover weight bound
and the stationary-phase flat bound read.  Nothing here checks the
axioms: a system is built from any increasing warp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, NonConvergenceError, UnsupportedOrderError

REAL_LINE = "real_line"
POSITIVE_HALF_LINE = "positive_half_line"

#: above this the power-law inverse takes its root as q = r (see inverse)
_POWER_LAW_BIG = 1e150


def _split(t):
    # powers of an input are np.power, not ``**``: on a numpy float ``**``
    # calls libm pow, whose last bit can differ from the ufunc's array
    # loop; np.power runs that loop for a 0-d input too
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


@dataclass(frozen=True)
class WarpingFunction:
    """One warp ``F`` with its domain, inverse and induced weight.

    Use the constructors :func:`linear_warp`, :func:`log_warp`,
    :func:`power_law_warp`, :func:`erb_warp`, :func:`alpha_like_warp`
    or :func:`custom_warp` rather than instantiating directly.
    """

    kind: str
    c: float = 1.0
    d: float = 1.0
    l: float = 1.0
    c1: float = 9.265
    c2: float = 228.8
    fn: Optional[Callable] = field(default=None, repr=False)
    fn_inverse: Optional[Callable] = field(default=None, repr=False)
    fn_derivative: Optional[Callable] = field(default=None, repr=False)
    custom_domain: str = REAL_LINE

    @property
    def domain(self) -> str:
        if self.kind in ("log", "power_law"):
            return POSITIVE_HALF_LINE
        if self.kind == "custom":
            return self.custom_domain
        return REAL_LINE

    @property
    def kernel_eligible(self) -> bool:
        """Whether the kernel-algebra estimates apply.

        The power-law family fails quasi-submultiplicativity of its
        weight, so every kernel-module routine refuses it.
        """
        return self.kind != "power_law"

    # -- forward map -------------------------------------------------------

    def _check_domain(self, arr):
        if self.domain == POSITIVE_HALF_LINE and np.any(arr <= 0):
            raise DomainError(f"{self.kind} warp is defined on t > 0 only")

    def eval(self, t):
        """Evaluate ``F(t)``; raises :class:`DomainError` off-domain."""
        arr, scalar = _split(t)
        self._check_domain(arr)
        if self.kind == "linear":
            out = self.c * arr
        elif self.kind == "log":
            out = np.log(arr)
        elif self.kind == "power_law":
            u = arr / self.d
            out = self.c * (np.power(u, self.l) - np.power(u, -self.l))
        elif self.kind == "erb":
            out = np.sign(arr) * (self.c1 * np.log1p(np.abs(arr) / self.c2))
        elif self.kind == "alpha_like":
            out = np.sign(arr) * (np.power(1.0 + np.abs(arr), self.l) - 1.0)
        else:
            out = np.asarray(self.fn(arr), dtype=float)
        return _ret(out, scalar)

    __call__ = eval

    def derivative(self, t):
        """First derivative ``F'(t)`` (symbolic for the built-ins)."""
        arr, scalar = _split(t)
        self._check_domain(arr)
        if self.kind == "linear":
            out = np.full_like(arr, self.c)
        elif self.kind == "log":
            out = 1.0 / arr
        elif self.kind == "power_law":
            u = arr / self.d
            out = (self.c * self.l / self.d) * (np.power(u, self.l - 1.0)
                                                 + np.power(u, -self.l - 1.0))
        elif self.kind == "erb":
            out = self.c1 / (self.c2 + np.abs(arr))
        elif self.kind == "alpha_like":
            out = self.l * np.power(1.0 + np.abs(arr), self.l - 1.0)
        elif self.fn_derivative is not None:
            out = np.asarray(self.fn_derivative(arr), dtype=float)
        else:
            h = 1e-6 * np.maximum(1.0, np.abs(arr))
            out = (self.fn(arr + h) - self.fn(arr - h)) / (2.0 * h)
        return _ret(out, scalar)

    # -- inverse map -------------------------------------------------------

    def inverse(self, s):
        """Evaluate ``F^{-1}(s)``.

        Closed forms exist for every built-in kind; custom warps fall
        back to guarded Newton iteration with a bisection rescue.
        """
        arr, scalar = _split(s)
        if self.kind == "linear":
            out = arr / self.c
        elif self.kind == "log":
            out = np.exp(arr)
        elif self.kind == "power_law":
            # q - 1/q = r; for r < 0 the conjugate root form avoids the
            # cancellation (and overflow) of r + sqrt(r^2 + 4); above
            # _POWER_LAW_BIG, 1/r is below half an ulp of r, so q = r
            # exactly and r^2 is never formed
            r = arr / self.c
            rn = np.minimum(r, 0.0)
            rp = np.clip(r, 0.0, _POWER_LAW_BIG)
            q = np.where(r < 0, 2.0 / (np.hypot(rn, 2.0) - rn),
                         np.where(r > _POWER_LAW_BIG, r,
                                  0.5 * (rp + np.sqrt(rp * rp + 4.0))))
            out = self.d * np.power(q, 1.0 / self.l)
        elif self.kind == "erb":
            out = np.sign(arr) * (self.c2 * np.expm1(np.abs(arr) / self.c1))
        elif self.kind == "alpha_like":
            out = np.sign(arr) * (np.power(1.0 + np.abs(arr), 1.0 / self.l) - 1.0)
        elif self.fn_inverse is not None:
            out = np.asarray(self.fn_inverse(arr), dtype=float)
        else:
            out = self._numeric_inverse(arr)
        return _ret(out, scalar)

    def _numeric_inverse(self, s_arr):
        flat = np.atleast_1d(s_arr).astype(float)
        out = np.empty_like(flat)
        for i, s in enumerate(flat):
            out[i] = self._newton_inverse(float(s))
        return out.reshape(np.shape(s_arr))

    def _newton_inverse(self, s: float, budget: int = 60) -> float:
        # Bracket first: F is increasing, so expand until the sign flips.
        lo, hi = (-1.0, 1.0) if self.domain == REAL_LINE else (1e-12, 1.0)
        for _ in range(200):
            if self.eval(lo) <= s:
                break
            lo = lo * 2.0 if self.domain == REAL_LINE else lo / 2.0
        for _ in range(200):
            if self.eval(hi) >= s:
                break
            hi *= 2.0
        t = 0.5 * (lo + hi)
        for _ in range(budget):
            f = self.eval(t) - s
            if abs(f) <= 1e-14 * max(1.0, abs(s)):
                return t
            df = self.derivative(t)
            step_ok = df > 0 and np.isfinite(df)
            t_new = t - f / df if step_ok else t
            if not step_ok or not (lo <= t_new <= hi):
                t_new = 0.5 * (lo + hi)  # bisection fallback
            if self.eval(t_new) < s:
                lo = t_new
            else:
                hi = t_new
            t = t_new
        if abs(self.eval(t) - s) > 1e-9 * max(1.0, abs(s)):
            raise NonConvergenceError(f"numeric inverse failed at s={s!r}")
        return t

    # -- induced weight ----------------------------------------------------

    def weight(self, s, order: int = 0):
        """Weight ``w = (F^{-1})'`` and its derivatives up to order 2.

        The erb and alpha-like weights are even with a kink at 0; there
        the one-sided (right) derivative is returned.
        """
        if order < 0 or order > 2:
            raise UnsupportedOrderError("weight derivatives available for order <= 2")
        arr, scalar = _split(s)
        sg = np.where(arr >= 0, 1.0, -1.0)  # right-sided at the kink
        if self.kind == "linear":
            vals = (1.0 / self.c, 0.0, 0.0)[order]
            out = np.full_like(arr, vals)
        elif self.kind == "log":
            out = np.exp(arr)
        elif self.kind == "erb":
            k = self.c2 / self.c1
            w = k * np.exp(np.abs(arr) / self.c1)
            out = (w, sg * w / self.c1, w / self.c1 ** 2)[order]
        elif self.kind == "alpha_like":
            a = 1.0 / self.l
            base = 1.0 + np.abs(arr)
            if order == 0:
                out = a * np.power(base, a - 1.0)
            elif order == 1:
                out = sg * a * (a - 1.0) * np.power(base, a - 2.0)
            else:
                out = a * (a - 1.0) * (a - 2.0) * np.power(base, a - 3.0)
        elif self.kind == "power_law":
            out = self._power_law_weight(arr, order)
        else:
            out = self._custom_weight(arr, order)
        return _ret(out, scalar)

    def _power_law_weight(self, arr, order):
        t = np.asarray(self.inverse(arr), dtype=float)
        u = t / self.d
        cl = self.c * self.l
        fp = (cl / self.d) * (np.power(u, self.l - 1.0) + np.power(u, -self.l - 1.0))
        w = 1.0 / fp
        if order == 0:
            return w
        fpp = (cl / self.d ** 2) * ((self.l - 1.0) * np.power(u, self.l - 2.0)
                                    - (self.l + 1.0) * np.power(u, -self.l - 2.0))
        if order == 1:
            return -fpp * np.power(w, 3)
        fppp = (cl / self.d ** 3) * (
            (self.l - 1.0) * (self.l - 2.0) * np.power(u, self.l - 3.0)
            + (self.l + 1.0) * (self.l + 2.0) * np.power(u, -self.l - 3.0))
        return -fppp * np.power(w, 4) + 3.0 * np.square(fpp) * np.power(w, 5)

    def _custom_weight(self, arr, order):
        def w0(x):
            return 1.0 / self.derivative(self.inverse(x))

        if order == 0:
            return w0(arr)
        h = 1e-5 * np.maximum(1.0, np.abs(arr))
        if order == 1:
            return (w0(arr + h) - w0(arr - h)) / (2.0 * h)
        return (w0(arr + h) - 2.0 * w0(arr) + w0(arr - h)) / (h * h)


# -- constructors ----------------------------------------------------------


def linear_warp(c: float = 1.0) -> WarpingFunction:
    """``F(t) = c t`` on the real line (constant-bandwidth analysis)."""
    if c <= 0:
        raise ConfigError("linear warp needs c > 0")
    return WarpingFunction("linear", c=c)


def log_warp() -> WarpingFunction:
    """``F(t) = ln t`` on the half-line (constant-Q / wavelet analysis)."""
    return WarpingFunction("log")


def power_law_warp(c: float = 1.0, d: float = 1.0, l: float = 0.5) -> WarpingFunction:
    """``F(t) = c((t/d)^l - (t/d)^{-l})`` on the half-line.

    Usable for transforms but flagged kernel-ineligible: its weight is
    not quasi-submultiplicative.
    """
    if c <= 0 or d <= 0:
        raise ConfigError("power_law warp needs c > 0 and d > 0")
    if not 0 < l <= 1:
        raise ConfigError("power_law warp needs 0 < l <= 1")
    return WarpingFunction("power_law", c=c, d=d, l=l)


def erb_warp(c1: float = 9.265, c2: float = 228.8) -> WarpingFunction:
    """``F(t) = sgn(t) c1 ln(1 + |t|/c2)``.

    The defaults place channel steps on the ERB auditory scale when
    frequencies are measured in Hz.
    """
    if c1 <= 0 or c2 <= 0:
        raise ConfigError("erb warp needs c1 > 0 and c2 > 0")
    return WarpingFunction("erb", c1=c1, c2=c2)


def alpha_like_warp(l: float = 1.0) -> WarpingFunction:
    """``F(t) = sgn(t)((1 + |t|)^l - 1)`` with ``0 < l <= 1``."""
    if not 0 < l <= 1:
        raise ConfigError("alpha_like warp needs 0 < l <= 1")
    return WarpingFunction("alpha_like", l=l)


def custom_warp(fn, fn_inverse=None, fn_derivative=None,
                domain: str = REAL_LINE) -> WarpingFunction:
    """Wrap arbitrary callables as a warp; without ``fn_inverse`` the
    inverse is a guarded Newton iteration."""
    if domain not in (REAL_LINE, POSITIVE_HALF_LINE):
        raise ConfigError(f"unknown domain {domain!r}")
    return WarpingFunction("custom", fn=fn, fn_inverse=fn_inverse,
                           fn_derivative=fn_derivative, custom_domain=domain)


#: each built-in kind's constructor and the names of its parameters,
#: which are also the constructor's keywords and the warp's attributes
WARP_FAMILIES = {
    "linear": (linear_warp, ("c",)),
    "log": (log_warp, ()),
    "power_law": (power_law_warp, ("c", "d", "l")),
    "erb": (erb_warp, ("c1", "c2")),
    "alpha_like": (alpha_like_warp, ("l",)),
}


def warp_from_params(kind: str, **params) -> WarpingFunction:
    """Construct a built-in warp from flat config parameters; absent ones
    take the constructor's defaults."""
    if kind not in WARP_FAMILIES:
        raise ConfigError(f"unknown warp kind {kind!r}")
    return WARP_FAMILIES[kind][0](**params)


# -- weight checks -------------------------------------------------------


def check_quasi_submultiplicative(warp: WarpingFunction, grid=None) -> float:
    """Largest ``w(x+y) / (w(x) w(y))`` over a grid of warped pairs: the
    moderateness constant of the weight ``w`` with respect to itself."""
    return _max_ratio(warp.weight, warp.weight, grid)


@dataclass(frozen=True)
class WeightSpec:
    """A scalar weight on an axis: ``1``, ``(1+|x|)^p``, ``e^{a|x|}``, or
    a base weight composed with an inverse warp (``base ∘ F^{-1}``)."""

    kind: str
    p: float = 0.0
    a: float = 0.0
    base: Optional["WeightSpec"] = None
    warp: Optional[WarpingFunction] = None

    def __call__(self, x):
        arr, scalar = _split(x)
        if self.kind == "constant_one":
            out = np.ones_like(arr)
        elif self.kind == "polynomial":
            out = np.power(1.0 + np.abs(arr), self.p)
        elif self.kind == "exponential":
            out = np.exp(self.a * np.abs(arr))
        elif self.kind == "composed_with_inverse_warp":
            out = np.asarray(self.base(self.warp.inverse(arr)), dtype=float)
        else:
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        return _ret(out, scalar)

    @property
    def is_symmetric(self) -> bool:
        if self.kind in ("constant_one", "polynomial", "exponential"):
            return True
        return self.warp.domain == REAL_LINE and self.base.is_symmetric


def constant_weight() -> WeightSpec:
    return WeightSpec("constant_one")


def polynomial_weight(p: float) -> WeightSpec:
    if p < 0:
        raise ConfigError("polynomial weight needs p >= 0")
    return WeightSpec("polynomial", p=p)


def exponential_weight(a: float) -> WeightSpec:
    if a < 0:
        raise ConfigError("exponential weight needs a >= 0")
    return WeightSpec("exponential", a=a)


def warped_weight(base: WeightSpec, warp: WarpingFunction) -> WeightSpec:
    """Weight ``x -> base(F^{-1}(x))`` on the warped axis."""
    return WeightSpec("composed_with_inverse_warp", base=base, warp=warp)


def check_moderateness(w_target, v, grid=None) -> float:
    """Smallest grid constant ``C`` with ``w(x+y) <= C v(x) w(y)``.

    ``w_target`` and ``v`` may be :class:`WeightSpec` objects or plain
    vectorized callables.
    """
    return _max_ratio(w_target, v, grid)


def _max_ratio(w_target, v, grid) -> float:
    s = np.asarray(grid if grid is not None else np.linspace(-20.0, 20.0, 257),
                   dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        wv = np.asarray(w_target(s), dtype=float)
        vv = np.asarray(v(s), dtype=float)
        num = np.asarray(w_target(s[:, None] + s[None, :]), dtype=float)
        ratio = num / (vv[:, None] * wv[None, :])
    finite = np.isfinite(ratio)
    if not np.all(finite):
        warnings.warn("weight overflow at extreme grid points; ratios truncated",
                      RuntimeWarning, stacklevel=3)
    if not np.any(finite):
        raise ConfigError("no finite ratios; grid entirely overflows the weight")
    return float(np.max(ratio[finite]))


def induced_v1(m1: WeightSpec, warp: WarpingFunction) -> WeightSpec:
    """Canonical submultiplicative majorant ``v1`` for ``m1 ∘ F^{-1}``.

    For a polynomial weight of exponent ``p`` the warped composition
    grows polynomially of exponent ``p/l`` under power-type warps and
    exponentially under (sgn-)logarithmic ones.
    """
    if m1.kind == "constant_one":
        return constant_weight()
    if m1.kind != "polynomial":
        raise ConfigError(
            f"no canonical v1 for weight kind {m1.kind!r} composed with a warp")
    p = m1.p
    if warp.kind == "linear":
        return polynomial_weight(p)
    if warp.kind == "alpha_like":
        return polynomial_weight(p / warp.l)
    if warp.kind == "power_law":
        return polynomial_weight(p / warp.l)
    if warp.kind == "erb":
        return exponential_weight(p / warp.c1)
    if warp.kind == "log":
        return exponential_weight(p)
    raise ConfigError(f"no canonical v1 for warp kind {warp.kind!r}")
