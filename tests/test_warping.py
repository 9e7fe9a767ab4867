"""Tests for warp evaluation, inversion, induced weights and the axiom,
quasi-submultiplicativity and moderateness checks.

Frozen expected values were computed with an independent 40-digit
mpmath oracle (noted inline) before the implementation existed.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpft import (
    ConfigError,
    DomainError,
    UnsupportedOrderError,
    alpha_like_warp,
    check_moderateness,
    check_quasi_submultiplicative,
    check_warping_axioms,
    constant_weight,
    custom_warp,
    erb_warp,
    exponential_weight,
    induced_v1,
    linear_warp,
    log_warp,
    polynomial_weight,
    power_law_warp,
    warp_from_params,
    warped_weight,
)
from warpft.warping import POSITIVE_HALF_LINE, WARP_FAMILIES

ALL_WARPS = [
    linear_warp(1.0),
    linear_warp(2.5),
    log_warp(),
    power_law_warp(1.0, 1.0, 0.5),
    erb_warp(),
    alpha_like_warp(0.5),
    alpha_like_warp(1.0),
]


class TestEval:
    def test_erb_at_zero(self):
        assert erb_warp().eval(0.0) == 0.0

    def test_log_at_one(self):
        assert log_warp().eval(1.0) == 0.0

    def test_erb_at_1000(self):
        # oracle: mpmath dps=40, 9.265*ln(1 + 1000/228.8)
        np.testing.assert_allclose(erb_warp().eval(1000.0),
                                   15.57395637825514167451, rtol=1e-14)

    def test_linear(self):
        np.testing.assert_allclose(linear_warp(2.0).eval(3.5), 7.0, rtol=0)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            log_warp().eval(-1.0)
        with pytest.raises(DomainError):
            power_law_warp().eval(0.0)

    def test_odd_symmetry_exact(self):
        t = np.linspace(0.1, 500.0, 101)
        for warp in (linear_warp(3.0), erb_warp(), alpha_like_warp(0.5)):
            assert np.all(warp.eval(-t) == -warp.eval(t))


class TestInverse:
    def test_log(self):
        assert log_warp().inverse(0.0) == 1.0

    def test_linear(self):
        assert linear_warp(2.0).inverse(3.0) == 1.5

    def test_alpha_like_against_bisection_oracle(self):
        # oracle: 200-step bisection on sgn(t)((1+|t|)^0.5 - 1) = 0.5 -> 1.25
        np.testing.assert_allclose(alpha_like_warp(0.5).inverse(0.5), 1.25,
                                   rtol=1e-14)
        # oracle: same bisection with target 1 -> 3.0
        np.testing.assert_allclose(alpha_like_warp(0.5).inverse(1.0), 3.0,
                                   rtol=1e-14)

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(42)
        s = rng.uniform(-20.0, 20.0, size=1000)
        for warp in ALL_WARPS:
            err = np.abs(warp.eval(warp.inverse(s)) - s)
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(s))), warp.kind

    @pytest.mark.parametrize("s", [-1e3, -1e8, -1e10, -1e150])
    def test_power_law_round_trip_far_below_d(self, s):
        # r + sqrt(r^2 + 4) cancels for large negative r
        warp = power_law_warp(1.0, 1.0, 0.5)
        assert warp.eval(warp.inverse(s)) == pytest.approx(s, rel=1e-13)

    def test_power_law_inverse_monotone_below_d(self):
        warp = power_law_warp(1.0, 1.0, 0.5)
        t = warp.inverse(-np.geomspace(1e150, 1e-3, 200))
        assert np.all(t > 0)
        assert np.all(np.diff(t) > 0)

    def test_power_law_inverse_no_overflow(self):
        t = power_law_warp(1.0, 1.0, 0.5).inverse(-1e200)
        assert np.isfinite(t) and t >= 0

    def test_power_law_inverse_unchanged_above_d(self):
        # up to the q = r threshold, 1e150
        warp = power_law_warp(2.0, 3.0, 0.7)
        s = np.concatenate(([0.0], np.geomspace(1e-6, 1e150, 300)))
        r = s / 2.0
        old = 3.0 * (0.5 * (r + np.sqrt(r * r + 4.0))) ** (1.0 / 0.7)
        assert np.array_equal(warp.inverse(s), old)

    def test_power_law_inverse_far_above_d(self):
        # r * r overflows above ~1.3e154; the root is q = r there
        warp = power_law_warp(1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warp.inverse(1e200) == 1e200
            s = np.geomspace(1.0, 1e300, 400)
            t = warp.inverse(s)
            np.testing.assert_allclose(warp.eval(t), s, rtol=1e-13, atol=0)

    def test_numeric_inverse_newton(self):
        cube = custom_warp(lambda t: t ** 3, fn_derivative=lambda t: 3.0 * t * t)
        np.testing.assert_allclose(cube.inverse(8.0), 2.0, rtol=1e-12)
        np.testing.assert_allclose(cube.inverse(-27.0), -3.0, rtol=1e-12)


class TestWeight:
    def test_erb_weight_value(self):
        # oracle: mpmath dps=40, (228.8/9.265)*exp(5/9.265)
        np.testing.assert_allclose(erb_warp().weight(5.0),
                                   42.36276562567656166005, rtol=1e-14)

    def test_linear_weight_constant(self):
        w = linear_warp(4.0)
        assert w.weight(0.3) == 0.25
        assert w.weight(10.0, order=1) == 0.0
        assert w.weight(10.0, order=2) == 0.0

    def test_weight_is_inverse_derivative(self):
        # w(s) must agree with a central difference of F^{-1}
        s = np.array([-7.0, -1.2, 0.4, 3.3, 12.0])
        for warp in ALL_WARPS:
            h = 1e-6 * np.maximum(1.0, np.abs(s))
            fd = (warp.inverse(s + h) - warp.inverse(s - h)) / (2.0 * h)
            np.testing.assert_allclose(warp.weight(s), fd, rtol=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_weight_derivative_consistency(self, order):
        s = np.array([-6.0, -2.1, 1.7, 4.9, 11.0])  # away from the kink at 0
        for warp in ALL_WARPS:
            h = (1e-6 if order == 1 else 1e-5) * np.maximum(1.0, np.abs(s))
            lower = warp.weight(s - h, order=order - 1)
            upper = warp.weight(s + h, order=order - 1)
            fd = (upper - lower) / (2.0 * h)
            np.testing.assert_allclose(warp.weight(s, order=order), fd,
                                       rtol=1e-5, err_msg=warp.kind)

    def test_log_weight_all_orders(self):
        s = 0.7
        for order in range(3):
            np.testing.assert_allclose(log_warp().weight(s, order), np.exp(s),
                                       rtol=1e-14)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            erb_warp().weight(1.0, order=3)

    def test_erb_kink_right_sided(self):
        # w is even with a kink at 0; order-1 returns the right-hand limit
        w = erb_warp()
        np.testing.assert_allclose(w.weight(0.0, order=1),
                                   w.weight(0.0) / 9.265, rtol=1e-14)


class TestAxioms:
    @pytest.mark.parametrize("warp", ALL_WARPS, ids=lambda w: w.kind)
    def test_builtins_pass(self, warp):
        report = check_warping_axioms(warp)
        assert report.passed, report.notes

    def test_cubic_probe_fails(self):
        cube = custom_warp(lambda t: t ** 3, fn_derivative=lambda t: 3.0 * t * t)
        report = check_warping_axioms(cube)
        assert not report.derivative_nonincreasing
        assert not report.passed

    def test_linear_allows_constant_derivative(self):
        assert check_warping_axioms(linear_warp(1.0)).derivative_nonincreasing


class TestQuasiSubmultiplicative:
    def test_linear_unit(self):
        np.testing.assert_allclose(check_quasi_submultiplicative(linear_warp(1.0)),
                                   1.0, rtol=1e-12)

    def test_log_unit(self):
        # w = exp makes the ratio identically 1
        np.testing.assert_allclose(check_quasi_submultiplicative(log_warp()),
                                   1.0, rtol=1e-12)

    def test_erb_constant(self):
        # analytic supremum c1/c2, attained for same-sign pairs
        np.testing.assert_allclose(check_quasi_submultiplicative(erb_warp()),
                                   9.265 / 228.8, rtol=1e-12)

    def test_alpha_constant(self):
        np.testing.assert_allclose(
            check_quasi_submultiplicative(alpha_like_warp(0.5)), 0.5, rtol=1e-10)

    def test_power_law_blows_up(self):
        # the power-law weight is not quasi-submultiplicative; the grid
        # constant is already large on the default grid
        assert check_quasi_submultiplicative(power_law_warp(1.0, 1.0, 0.5)) > 10.0
        assert not power_law_warp(1.0, 1.0, 0.5).kernel_eligible

    def test_overflow_truncation_warns(self):
        grid = np.linspace(-600.0, 600.0, 101)
        with pytest.warns(RuntimeWarning):
            c = check_quasi_submultiplicative(log_warp(), grid)
        assert np.isfinite(c)


def _quasi_constant_reference(warp, grid=None):
    """The pairwise ratio loop this check used before it became
    ``check_moderateness(w, w)``."""
    s = np.asarray(grid if grid is not None
                   else np.linspace(-20.0, 20.0, 257), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w = warp.weight(s)
        num = warp.weight(s[:, None] + s[None, :])
        ratio = num / (w[:, None] * w[None, :])
    return float(np.max(ratio[np.isfinite(ratio)]))


class TestQuasiSubmultiplicativeEquivalence:
    @pytest.mark.parametrize("warp", ALL_WARPS, ids=lambda w: w.kind)
    def test_equals_pairwise_ratio_loop(self, warp):
        assert (check_quasi_submultiplicative(warp)
                == _quasi_constant_reference(warp))

    def test_equals_pairwise_ratio_loop_with_overflow(self):
        grid = np.linspace(-600.0, 600.0, 101)
        with pytest.warns(RuntimeWarning) as record:
            got = check_quasi_submultiplicative(log_warp(), grid)
        assert got == _quasi_constant_reference(log_warp(), grid)
        assert [r.filename for r in record] == [__file__]

    def test_moderateness_overflow_warns_at_caller(self):
        grid = np.linspace(-600.0, 600.0, 101)
        w = log_warp().weight
        with pytest.warns(RuntimeWarning) as record:
            check_moderateness(w, w, grid)
        assert [r.filename for r in record] == [__file__]


class TestWeightSpecs:
    def test_values_at_least_one(self):
        x = np.linspace(-30.0, 30.0, 101)
        for spec in (constant_weight(), polynomial_weight(2.0),
                     exponential_weight(0.7)):
            assert np.all(spec(x) >= 1.0)

    def test_symmetry_exact(self):
        x = np.linspace(0.1, 25.0, 57)
        for spec in (polynomial_weight(1.5), exponential_weight(0.3)):
            assert np.all(spec(-x) == spec(x))
            assert spec.is_symmetric

    def test_composed_with_inverse_warp(self):
        spec = warped_weight(polynomial_weight(2.0), alpha_like_warp(0.5))
        # (1 + |F^{-1}(s)|)^2 with F^{-1}(s) = (1+|s|)^2 - 1
        np.testing.assert_allclose(spec(1.0), 16.0, rtol=1e-12)
        assert spec.is_symmetric  # even base, odd warp

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigError):
            polynomial_weight(-1.0)


class TestModerateness:
    def test_polynomial_vs_polynomial(self):
        p = 2.0
        c = check_moderateness(polynomial_weight(p), polynomial_weight(p))
        assert c <= 2.0 ** p  # in fact <= 1: (1+|x+y|) <= (1+|x|)(1+|y|)
        assert c <= 1.0 + 1e-12

    def test_composed_alpha_vs_matching_polynomial(self):
        m1 = polynomial_weight(2.0)
        warp = alpha_like_warp(0.5)
        c = check_moderateness(warped_weight(m1, warp), induced_v1(m1, warp))
        assert np.isfinite(c)
        assert c < 50.0

    def test_composed_erb_vs_induced_exponential(self):
        m1 = polynomial_weight(2.0)
        warp = erb_warp()
        v1 = induced_v1(m1, warp)
        assert v1.kind == "exponential"
        np.testing.assert_allclose(v1.a, 2.0 / 9.265, rtol=1e-14)
        c = check_moderateness(warped_weight(m1, warp), v1)
        assert np.isfinite(c)

    def test_induced_v1_table(self):
        m1 = polynomial_weight(3.0)
        assert induced_v1(m1, linear_warp(2.0)).kind == "polynomial"
        assert induced_v1(m1, alpha_like_warp(0.5)).p == 6.0
        assert induced_v1(m1, log_warp()).kind == "exponential"
        assert induced_v1(constant_weight(), log_warp()).kind == "constant_one"


class TestConfigValidation:
    def test_bad_params(self):
        with pytest.raises(ConfigError):
            linear_warp(0.0)
        with pytest.raises(ConfigError):
            alpha_like_warp(1.5)
        with pytest.raises(ConfigError):
            power_law_warp(l=2.0)
        with pytest.raises(ConfigError):
            erb_warp(c1=-1.0)

    def test_from_params_defaults_are_the_constructors(self):
        for kind, (make, _) in WARP_FAMILIES.items():
            assert warp_from_params(kind) == make()
        assert warp_from_params("alpha_like") == alpha_like_warp(1.0)
        assert warp_from_params("erb", c2=100.0) == erb_warp(9.265, 100.0)
        with pytest.raises(ConfigError, match="unknown warp kind"):
            warp_from_params("custom")


def _arcsinh_derivative(t):
    return 1.0 / np.sqrt(1.0 + t * t)


@st.composite
def _warps(draw):
    """A warp of every family with drawn parameters, and a custom warp
    with and without its inverse and derivative."""
    pos = st.floats(0.1, 10.0)
    expo = st.floats(0.05, 1.0)
    kind = draw(st.sampled_from(sorted(WARP_FAMILIES) + ["custom",
                                                         "custom_newton"]))
    if kind == "linear":
        return linear_warp(draw(pos))
    if kind == "log":
        return log_warp()
    if kind == "power_law":
        return power_law_warp(draw(pos), 100.0 * draw(pos), draw(expo))
    if kind == "erb":
        return erb_warp(9.265 * draw(pos), 228.8 * draw(pos))
    if kind == "alpha_like":
        return alpha_like_warp(draw(expo))
    if kind == "custom":
        return custom_warp(np.arcsinh, fn_inverse=np.sinh,
                           fn_derivative=_arcsinh_derivative)
    return custom_warp(np.arcsinh)


class TestFloatEqualsArrayEntry:
    """A warp gives a float exactly the value it gives the same number
    inside an array, so channel values can be evaluated on arrays."""

    @staticmethod
    def assert_same(fn, values):
        arr = fn(np.array(values))
        for v, a in zip(values, arr.tolist()):
            got = fn(v)
            assert isinstance(got, float)
            assert got == a, (v, got, a)

    @settings(max_examples=60, deadline=None)
    @given(warp=_warps(), data=st.data())
    def test_every_method_and_weight_order(self, warp, data):
        half = warp.domain == POSITIVE_HALF_LINE
        t = data.draw(st.lists(st.floats(1e-6, 1e6) if half
                               else st.floats(-1e6, 1e6),
                               min_size=1, max_size=20), label="t")
        self.assert_same(warp.eval, t)
        self.assert_same(warp.derivative, t)
        s = warp.eval(np.array(t)).tolist()
        self.assert_same(warp.inverse, s)
        for order in (0, 1, 2):
            self.assert_same(lambda x: warp.weight(x, order), s)

    @pytest.mark.parametrize("warp", [
        power_law_warp(2.0, 300.0, 0.3), power_law_warp(1.0, 100.0, 0.5),
        alpha_like_warp(0.7), alpha_like_warp(0.35), erb_warp(), log_warp(),
        linear_warp(1.7)], ids=repr)
    def test_sweep(self, warp):
        # ~5% of such values differed in the last bit under scalar ``**``
        rng = np.random.default_rng(7)
        t = (np.exp(rng.uniform(-5.0, 9.0, 1000))
             if warp.domain == POSITIVE_HALF_LINE
             else rng.uniform(-8000.0, 8000.0, 1000)).tolist()
        self.assert_same(warp.eval, t)
        self.assert_same(warp.derivative, t)
        s = warp.eval(np.array(t)).tolist()
        self.assert_same(warp.inverse, s)
        for order in (0, 1, 2):
            self.assert_same(lambda x: warp.weight(x, order), s)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(0.0, 8.0),
           x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20))
    def test_polynomial_weight(self, p, x):
        self.assert_same(polynomial_weight(p), x)
