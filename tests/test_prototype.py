"""Prototype window tests: point values, weighted norms against closed
forms, derivative consistency, and the admissibility condition report.

Frozen constants computed with a 40-digit mpmath oracle before
implementation (noted inline).
"""

import numpy as np
import pytest
from scipy.special import erf

from warpft import (
    ConfigError,
    DivergenceError,
    UnsupportedOrderError,
    admissibility_inner_product,
    alpha_like_warp,
    bump_prototype,
    erb_warp,
    exponential_weight,
    gaussian_prototype,
    hann_prototype,
    induced_v1,
    l2_norm,
    log_warp,
    normalized,
    polynomial_weight,
    prototype_from_params,
    warped_weight,
    weighted_l2_norm,
)
from warpft import quadrature
from warpft.prototype import PROTOTYPE_FAMILIES
from warpft.warping import POSITIVE_HALF_LINE, WARP_FAMILIES

from paper_hypotheses import check_theta_conditions


class TestPointValues:
    def test_bump_center(self):
        np.testing.assert_allclose(bump_prototype(1.0).eval(0.0), np.exp(-1.0),
                                   rtol=1e-15)

    def test_bump_vanishes_outside(self):
        th = bump_prototype(0.5)
        assert th.eval(0.5) == 0.0
        assert th.eval(-3.0) == 0.0

    def test_hann_half_height(self):
        # cos^2(pi/4) = 1/2 at s = r/2
        np.testing.assert_allclose(hann_prototype(2.0).eval(1.0), 0.5, rtol=1e-14)

    def test_gaussian_peak(self):
        assert gaussian_prototype(3.0).eval(0.0) == 1.0


class TestDerivatives:
    @pytest.mark.parametrize("theta", [
        gaussian_prototype(1.0),
        gaussian_prototype(0.7),
        hann_prototype(1.0),
        bump_prototype(1.0),
    ], ids=lambda t: t.kind + str(t.sigma if t.kind == "gaussian" else t.radius))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_against_central_differences(self, theta, order):
        s = np.array([-0.61, -0.25, 0.08, 0.33, 0.72])
        h = 1e-6
        fd = (theta.eval(s + h, order - 1) - theta.eval(s - h, order - 1)) / (2 * h)
        np.testing.assert_allclose(theta.eval(s, order), fd, rtol=1e-5, atol=1e-8)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            gaussian_prototype(1.0).eval(0.0, order=5)

    def test_bump_derivatives_vanish_at_edge(self):
        th = bump_prototype(1.0)
        for order in range(5):
            assert th.eval(1.0, order) == 0.0
            assert abs(th.eval(0.999999, order)) < 1e-200


def _masked_compact(theta, s, order):
    """``Prototype.eval`` of a compact prototype as it read with boolean
    gather and scatter: the reference for the ``np.where`` form."""
    u = np.asarray(s, dtype=float)
    r = theta.radius
    if theta.kind == "hann_bump":
        inside = np.abs(u) < r
        out = np.zeros_like(u)
        phase = np.pi * u[inside] / r
        if order == 0:
            out[inside] = 0.5 * (1.0 + np.cos(phase))
        else:
            out[inside] = (0.5 * (np.pi / r) ** order
                           * np.cos(phase + 0.5 * np.pi * order))
    else:
        inside = np.abs(u) < r * (1.0 - 1e-9)
        out = np.zeros_like(u)
        s = u[inside]
        r2 = r * r
        den = r2 - s * s
        g = np.exp(-r2 / den)
        g1 = -2.0 * r2 * s / den ** 2
        g2 = -2.0 * r2 * (r2 + 3.0 * s * s) / den ** 3
        g3 = -24.0 * r2 * s * (r2 + s * s) / den ** 4
        g4 = (-24.0 * r2 * (r2 ** 2 + 10.0 * r2 * s * s + 5.0 * s ** 4)
              / den ** 5)
        out[inside] = (g, g1 * g, (g2 + g1 ** 2) * g,
                       (g3 + 3.0 * g1 * g2 + g1 ** 3) * g,
                       (g4 + 4.0 * g1 * g3 + 3.0 * g2 ** 2
                        + 6.0 * g1 ** 2 * g2 + g1 ** 4) * g)[order]
    out = theta.scale * out
    return float(out) if u.ndim == 0 else out


class TestMaskFreeCompact:
    """The compact prototypes evaluate every point and select the inside
    ones; each value keeps the bits of the masked code, and no numpy
    warning from the points outside reaches the caller.  The points lie
    around the support edges, moved by an offset."""

    @staticmethod
    def points(r):
        edge = r * (1.0 - 1e-9)
        near = [0.0, edge, np.nextafter(edge, 0.0), r, np.nextafter(r, 0.0),
                np.nextafter(r, np.inf), 0.5 * r, 2.0 * r, 1e300, np.inf]
        grid = np.random.default_rng(5).uniform(-1.5 * r, 1.5 * r, 997)
        return np.concatenate([near, np.negative(near), [np.nan], grid])

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("case", [
        (bump_prototype(0.9), 0.0), (normalized(bump_prototype(2.5)), 0.0),
        (hann_prototype(1.0), -0.3),
        (hann_prototype(0.9), 0.0), (normalized(hann_prototype(2.5)), 0.0),
        (bump_prototype(1.0), -0.3),
    ], ids=lambda c: f"{c[0].kind}-{c[0].radius}-{c[1]}-{c[0].scale:.3f}")
    def test_bits_of_the_masked_code(self, case, order):
        theta, offset = case
        s = offset + self.points(theta.radius)
        got = theta.eval(s, order)
        want = _masked_compact(theta, s, order)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not got[~(np.abs(s) < theta.radius)].any()
        # a 0-d input gives a float with the bits of the masked code, which
        # ran array loops on it too (a numpy scalar's ``**`` is libm pow)
        for x in s[:240].tolist() + [np.float64(s[240]), np.array(s[241])]:
            got = theta.eval(x, order)
            want = _masked_compact(theta, x, order)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == \
                np.float64(want).view(np.uint64)


class TestNorms:
    def test_gaussian_l2_analytic(self):
        # ||e^{-s^2/2}||_2 = pi^{1/4} for sigma = 1
        np.testing.assert_allclose(l2_norm(gaussian_prototype(1.0)),
                                   np.pi ** 0.25, rtol=1e-10)

    def test_gaussian_l2_sigma_scaling(self):
        np.testing.assert_allclose(l2_norm(gaussian_prototype(2.0)),
                                   np.sqrt(2.0) * np.pi ** 0.25, rtol=1e-10)

    def test_hann_l2_analytic(self):
        # integral of cos^4 over the support gives 3r/4
        np.testing.assert_allclose(l2_norm(hann_prototype(1.0)),
                                   np.sqrt(0.75), rtol=1e-10)

    def test_bump_l2_frozen(self):
        # oracle: mpmath dps=40, sqrt(int_{-1}^{1} exp(-2/(1-s^2)) ds)
        np.testing.assert_allclose(l2_norm(bump_prototype(1.0)),
                                   0.3648097049764359977161, rtol=1e-10)

    def test_gaussian_exponential_weight_closed_form(self):
        # int e^{-s^2} e^{2|s|} ds = e sqrt(pi) (1 + erf(1)), via completing
        # the square; oracle cross-check: 2.979628505914140298568
        expected = np.sqrt(np.e * np.sqrt(np.pi) * (1.0 + erf(1.0)))
        got = weighted_l2_norm(gaussian_prototype(1.0), exponential_weight(1.0))
        np.testing.assert_allclose(got, expected, rtol=1e-10)
        np.testing.assert_allclose(got, 2.979628505914140298568, rtol=1e-10)

    def test_quadrature_stability(self, monkeypatch):
        thetas = (gaussian_prototype(1.0), hann_prototype(1.0),
                  bump_prototype(1.0))
        loose = [weighted_l2_norm(t, polynomial_weight(2.0)) for t in thetas]
        monkeypatch.setattr(quadrature, "PANEL_TOL", 1e-13)
        for theta, a in zip(thetas, loose):
            b = weighted_l2_norm(theta, polynomial_weight(2.0))
            assert abs(a - b) < 1e-9 * b

    def test_normalization(self):
        for theta in (gaussian_prototype(0.5), hann_prototype(2.0),
                      bump_prototype(1.0)):
            np.testing.assert_allclose(l2_norm(normalized(theta)), 1.0,
                                       rtol=1e-10)

    def test_divergent_combination_flagged(self):
        # weight e^{2 e^s} (exponential composed with the log warp) beats
        # the Gaussian decay
        weight = warped_weight(exponential_weight(2.0), log_warp())
        with pytest.raises(DivergenceError):
            weighted_l2_norm(gaussian_prototype(1.0), weight)

    def test_overflowing_weight_flagged(self):
        with pytest.raises(DivergenceError):
            weighted_l2_norm(gaussian_prototype(1.0), exponential_weight(60.0))


class TestAdmissibilityInnerProduct:
    def test_self_product_is_squared_norm(self):
        th = gaussian_prototype(1.0)
        got = admissibility_inner_product(th, th)
        np.testing.assert_allclose(got.real, l2_norm(th) ** 2, rtol=1e-10)
        assert got.imag == 0.0

    def test_symmetry(self):
        for a, b in ((gaussian_prototype(1.0), gaussian_prototype(2.0)),
                     (hann_prototype(0.6), bump_prototype(1.5))):
            ab = admissibility_inner_product(a, b)
            ba = admissibility_inner_product(b, a)
            np.testing.assert_allclose(ab, np.conj(ba), rtol=1e-10)


#: bits recorded before the prototype lost its centre and the quadrature
#: its settable tolerance and depth; every prototype was centred at 0
_PINNED = [
    # theta, normalized(theta).scale, <theta, gaussian(2.0)>.real
    (bump_prototype(0.9), 2.8894312267749234, 0.3933042698458596),
    (bump_prototype(2.0), 1.938289391813802, 0.8232657428228564),
    (hann_prototype(1.0), 1.1547005383792517, 0.9839789707116162),
    (gaussian_prototype(1.0), 0.7511255444649426, 2.2419964865591706),
]


@pytest.mark.parametrize("theta, scale, inner", _PINNED, ids=[
    f"{t.kind}-{t.sigma if t.kind == 'gaussian' else t.radius}"
    for t, _, _ in _PINNED])
def test_norm_and_inner_product_bits_pinned(theta, scale, inner):
    assert normalized(theta).scale == scale
    got = admissibility_inner_product(theta, gaussian_prototype(2.0))
    assert got.real == inner


class TestThetaConditions:
    def test_bump_erb_all_finite(self):
        m1 = polynomial_weight(2.0)
        warp = erb_warp()
        report = check_theta_conditions(bump_prototype(1.0), warp,
                                        induced_v1(m1, warp), p=1, eps=0.5)
        assert report.passed, [e.name for e in report.failures()]

    def test_gaussian_alpha_all_finite(self):
        warp = alpha_like_warp(0.5)
        v1 = induced_v1(polynomial_weight(2.0), warp)
        report = check_theta_conditions(gaussian_prototype(1.0), warp, v1,
                                        p=0, eps=0.5)
        assert report.passed, [e.name for e in report.failures()]

    def test_weighted_norm_entries_pinned(self):
        # recorded (17 digits) before the quadrature limits became
        # module constants and the unused derivative radius was removed
        expected = {
            "theta in L2_w1": 29.944154371270173,
            "theta in L2_w2": 159.71195087251382,
            "theta^(0) in L2_w1": 29.944154371270173,
            "theta^(0) in L2_w3": 922.2108633091627,
            "theta^(1) in L2_w1": 50.92687892683508,
            "theta^(1) in L2_w3": 1947.4270706245404,
            "theta^(2) in L2_w1": 79.66010801373159,
            "theta^(2) in L2_w3": 3829.165013538446,
            "theta^(3) in L2_w1": 122.95923305325672,
            "theta^(3) in L2_w3": 7116.16228809012,
        }
        warp = alpha_like_warp(0.5)
        report = check_theta_conditions(
            gaussian_prototype(1.0), warp,
            induced_v1(polynomial_weight(1.0), warp), p=1, eps=0.5)
        got = {e.name: e.value for e in report.entries if "L2" in e.name}
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=1e-13), name

    @pytest.mark.parametrize("prototype_kind", PROTOTYPE_FAMILIES)
    @pytest.mark.parametrize("warp_kind", WARP_FAMILIES)
    def test_every_builtin_family_passes(self, warp_kind, prototype_kind):
        # each pair at its defaults, with the largest p the checker
        # admits: half-line warps take p = 0 only
        warp = WARP_FAMILIES[warp_kind][0]()
        p = 0 if warp.domain == POSITIVE_HALF_LINE else 2
        report = check_theta_conditions(
            PROTOTYPE_FAMILIES[prototype_kind][0](), warp,
            induced_v1(polynomial_weight(1.0), warp), p=p, eps=0.5)
        assert report.passed, [e.name for e in report.failures()]

    def test_gaussian_log_large_rate_divergent(self):
        # huge exponential rate overflows the weighted integrals
        report = check_theta_conditions(gaussian_prototype(1.0), log_warp(),
                                        exponential_weight(60.0), p=0, eps=0.5)
        assert not report.passed
        assert len(report.failures()) > 0

    def test_half_line_forces_p_zero(self):
        with pytest.raises(ConfigError):
            check_theta_conditions(bump_prototype(1.0), log_warp(),
                                   exponential_weight(1.0), p=1, eps=0.5)

    def test_p_cap(self):
        with pytest.raises(UnsupportedOrderError):
            check_theta_conditions(bump_prototype(1.0), erb_warp(),
                                   polynomial_weight(1.0), p=3, eps=0.5)


class TestConstructors:
    @pytest.mark.parametrize("radius", [0.0, -1.0, 1e155, 1e300,
                                        float("inf"), float("nan")])
    def test_bump_radius_needs_finite_square(self, radius):
        with pytest.raises(ConfigError):
            bump_prototype(radius)

    def test_widest_accepted_bump_evaluates(self):
        assert bump_prototype(1e150).eval(0.0) == pytest.approx(np.exp(-1.0))

    def test_from_params_defaults_are_the_constructors(self):
        for kind, (make, _) in PROTOTYPE_FAMILIES.items():
            assert prototype_from_params(kind) == make()
        assert prototype_from_params("hann_bump", radius=2.0) \
            == hann_prototype(2.0)
        with pytest.raises(ConfigError, match="unknown prototype kind"):
            prototype_from_params("boxcar")
