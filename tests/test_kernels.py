"""Gramian closed forms, stationary-phase bounds, oscillation sweeps."""

import time
import tracemalloc

import numpy as np
import pytest

from warpft import (CapabilityError, ConfigError, DomainError,
                    NonConvergenceError, UnsupportedOrderError,
                    alpha_like_warp, bump_prototype, erb_warp,
                    gaussian_prototype, hann_prototype, linear_warp, log_warp,
                    power_law_warp)
from warpft import quadrature
from warpft.discretization import elements_containing
from warpft.kernels import (_NODE_CAP, KernelEvalSpec, _gramian_batch,
                            gramian, kernel_norm_I, osc_norm_estimate,
                            oscillation, stationary_phase_check, weight_m)
from warpft.prototype import l2_norm, normalized, weighted_l2_norm
from warpft.warping import polynomial_weight

LIN = linear_warp(1.0)
LOG = log_warp()
GAUSS = normalized(gaussian_prototype(1.0))
BUMP = normalized(bump_prototype(0.9))

ETA_FULL = np.concatenate([-np.arange(1, 65)[::-1],
                           np.arange(1, 65)]).astype(float)


class TestGramian:
    def test_coincident_is_one(self):
        assert gramian(LIN, GAUSS, 0.7, 0.3, 0.7, 0.3) == pytest.approx(1.0,
                                                                        abs=1e-12)

    def test_coincident_independent_of_theta_scale(self):
        # the normalization A = ||theta||^2 makes the diagonal 1 even for
        # an unnormalized prototype
        val = gramian(LIN, gaussian_prototype(1.0), 0.7, 0.3, 0.7, 0.3)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_compact_supports(self):
        assert gramian(LIN, BUMP, 0.0, 0.0, 5.0, 0.0) == 0.0

    def test_atoms_past_the_largest_frequency_refused(self):
        # F(1e308) + r is past log(max float): Finv overflows on the overlap
        with pytest.raises(ConfigError, match="largest finite frequency"):
            gramian(LOG, BUMP, 1e308, 0.0, 1e308, 0.0)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_gaussian_ambiguity_modulus(self, sigma):
        # oracle: |<M_om T_y g, M_xi T_x g>| for a normalized Gaussian is
        # exp(-(x-y)^2/(4 sigma^2) - pi^2 sigma^2 (xi-om)^2)
        g = normalized(gaussian_prototype(sigma))
        rng = np.random.default_rng(7)
        for _ in range(8):
            x, y = rng.uniform(-2.5, 2.5, 2)
            xi, om = rng.uniform(-1.2, 1.2, 2)
            expected = np.exp(-(x - y) ** 2 / (4 * sigma ** 2)
                              - np.pi ** 2 * sigma ** 2 * (xi - om) ** 2)
            assert abs(gramian(LIN, g, x, xi, y, om)) == pytest.approx(
                expected, abs=2e-9)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(11)
        for warp, lo, hi, tmax in ((LIN, -3.0, 3.0, 1.0),
                                   (erb_warp(), 200.0, 600.0, 0.02)):
            for _ in range(6):
                x, y = rng.uniform(lo, hi, 2)
                xi, om = rng.uniform(0.0, tmax, 2)
                a = gramian(warp, GAUSS, x, xi, y, om)
                b = gramian(warp, GAUSS, y, om, x, xi)
                assert abs(a - np.conj(b)) < 1e-10

    def test_erb_coincident(self):
        assert gramian(erb_warp(), BUMP, 400.0, 0.01, 400.0, 0.01) == \
            pytest.approx(1.0, abs=1e-12)

    def test_power_law_rejected(self):
        with pytest.raises(CapabilityError):
            gramian(power_law_warp(1.0, 1.0, 0.5), GAUSS, 1.0, 0.0, 1.0, 0.0)

    def test_half_line_center_validated(self):
        with pytest.raises(DomainError):
            gramian(LOG, GAUSS, -1.0, 0.0, 2.0, 0.0)

    def test_nonconvergence_reports_last_refinements(self, monkeypatch):
        # a hopeless depth budget against a fast phase forces the error
        # path; the prototype norm is cached at the default settings first
        l2_norm(GAUSS)
        monkeypatch.setattr(quadrature, "PANEL_TOL", 1e-14)
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
        with pytest.raises(NonConvergenceError, match="refinements"):
            gramian(LIN, GAUSS, 0.0, 0.0, 0.3, 5e4)

    def test_batch_matches_adaptive(self):
        rng = np.random.default_rng(5)
        ys = rng.uniform(-2, 2, 8)
        oms = rng.uniform(-1, 1, 8)
        batch = _gramian_batch(LIN, GAUSS, 0.3, 0.2, ys, oms)
        single = np.array([gramian(LIN, GAUSS, 0.3, 0.2, y, o)
                           for y, o in zip(ys, oms)])
        assert np.max(np.abs(batch - single)) < 1e-10


class TestStationaryPhase:
    def test_order_zero_linear_is_fourier_bound(self):
        # oracle: for w = 1 the integral is the Fourier transform of
        # f = theta . T_z theta, and c_0 = ||f'||_1
        rep = stationary_phase_check(LIN, GAUSS, 0, 0.0, ETA_FULL)
        r = GAUSS.support_radius(1e-10)
        s = np.linspace(max(-r, 0.3 - r), min(r, 0.3 + r), 8193)
        f = GAUSS.eval(s) * GAUSS.eval(s - 0.3)
        for eta in (1.0, 2.0, 3.0):
            fhat = abs(np.trapezoid(f * np.exp(-2j * np.pi * eta * s), s))
            i = int(np.argmin(np.abs(rep.eta - eta)))
            assert rep.lhs[i] == pytest.approx(fhat, abs=1e-12)
        fprime = (GAUSS.eval(s, order=1) * GAUSS.eval(s - 0.3)
                  + GAUSS.eval(s) * GAUSS.eval(s - 0.3, order=1))
        assert rep.c_n == pytest.approx(np.trapezoid(np.abs(fprime), s),
                                        rel=1e-5)
        assert rep.passed

    def test_order_one_log_bump_all_points_pass(self):
        rep = stationary_phase_check(LOG, BUMP, 1, 0.0, ETA_FULL)
        assert rep.decay_ok and rep.flat_ok
        inband = np.abs(rep.eta) >= 1.0
        assert np.all(rep.lhs[inband] <= rep.rhs_decay[inband])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_log_bump_slope(self, n):
        rep = stationary_phase_check(LOG, BUMP, n, 0.0, ETA_FULL)
        assert rep.passed
        assert rep.slope <= -(n + 1) + 0.1

    def test_all_eligible_builtins_pointwise(self):
        etas = np.array([-16.0, -8.0, -4.0, -2.0, -1.0,
                         1.0, 2.0, 4.0, 8.0, 16.0])
        hann = normalized(hann_prototype(0.9))
        for warp in (LIN, LOG, erb_warp(), alpha_like_warp(0.5)):
            for theta in (GAUSS, BUMP, hann):
                top = 1 if theta.kind == "hann_bump" else 2
                for n in range(top + 1):
                    rep = stationary_phase_check(warp, theta, n, 0.4, etas)
                    assert rep.decay_ok, (warp.kind, theta.kind, n)
                    assert rep.flat_ok, (warp.kind, theta.kind, n)

    def test_hann_order_two_unsupported(self):
        with pytest.raises(UnsupportedOrderError):
            stationary_phase_check(LOG, normalized(hann_prototype(0.9)), 2,
                                   0.0, [1.0, 2.0])

    def test_order_out_of_range(self):
        with pytest.raises(UnsupportedOrderError):
            stationary_phase_check(LOG, BUMP, 3, 0.0, [1.0])

    def test_power_law_rejected(self):
        with pytest.raises(CapabilityError):
            stationary_phase_check(power_law_warp(1.0, 1.0, 0.5), BUMP, 0,
                                   1.0, [1.0])

    def test_disjoint_translation_rejected(self):
        # support radius 0.1: the pair offset by z = 0.3 does not overlap
        with pytest.raises(ConfigError, match="do not overlap"):
            stationary_phase_check(LOG, bump_prototype(0.1), 0, 0.0, [1.0])


class TestKernelNormI:
    def test_linear_gaussian_closed_form(self):
        # oracle: double integral of the Gaussian ambiguity modulus
        # separates: int e^{-z^2/4} dz . int e^{-pi^2 eta^2} deta
        #          = 2 sqrt(pi) . 1/sqrt(pi) = 2
        rep = kernel_norm_I(LIN, GAUSS, KernelEvalSpec(8.0, 8.0, 128), x=0.0)
        assert rep.value == pytest.approx(2.0, rel=0.02)
        assert not rep.inconclusive

    def test_translation_invariance_linear(self):
        spec = KernelEvalSpec(8.0, 8.0, 64)
        vals = [kernel_norm_I(LIN, GAUSS, spec, x=x).value
                for x in (0.0, 3.0, -5.0)]
        assert max(vals) - min(vals) < 1e-6

    def test_xi_invariance(self):
        spec = KernelEvalSpec(8.0, 8.0, 64)
        a = kernel_norm_I(LIN, GAUSS, spec, x=0.0, xi=0.0).value
        b = kernel_norm_I(LIN, GAUSS, spec, x=0.0, xi=7.0).value
        assert a == pytest.approx(b, abs=1e-8)

    def test_box_doubling_monotone_cauchy(self):
        vals = []
        for half, res in ((6.0, 96), (12.0, 192), (24.0, 384)):
            vals.append(kernel_norm_I(LIN, GAUSS,
                                      KernelEvalSpec(half, half, res),
                                      x=0.0).value)
        assert vals[0] <= vals[1] <= vals[2]
        assert abs(vals[1] - vals[0]) < 1e-3
        assert abs(vals[2] - vals[1]) < 1e-3

    def test_log_bump_growth_and_tail_flag(self):
        small = kernel_norm_I(LOG, BUMP, KernelEvalSpec(4.0, 4.0, 64), x=0.0)
        big = kernel_norm_I(LOG, BUMP, KernelEvalSpec(8.0, 8.0, 128), x=0.0)
        assert small.value < big.value
        # the undersized box leaves more than 10% in the estimated tail
        assert small.inconclusive
        assert not big.inconclusive

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            KernelEvalSpec(z_half_width=0.0)
        with pytest.raises(ConfigError):
            KernelEvalSpec(resolution=8)


class TestPinnedValues:
    """Kernel outputs recorded (17 digits) before the decay constant and
    the oscillation-norm orientations were each given one loop."""

    def test_kernel_norm_linear_gaussian(self):
        rep = kernel_norm_I(LIN, GAUSS, KernelEvalSpec(8.0, 8.0, 64), x=0.0)
        assert rep.value == pytest.approx(1.9999995204673557, rel=1e-13)
        assert rep.tail_estimate == pytest.approx(0.0028615972234865166,
                                                  rel=1e-13)

    def test_kernel_norm_log_hann(self):
        hann = normalized(hann_prototype(0.9))
        rep = kernel_norm_I(LOG, hann, KernelEvalSpec(4.0, 4.0, 64), x=0.0)
        assert rep.value == pytest.approx(2.213881477693293, rel=1e-13)
        assert rep.tail_estimate == pytest.approx(0.5992927465386515,
                                                  rel=1e-13)

    @pytest.mark.parametrize("n,log_bump,lin_gauss", [
        (0, 2.134267740534865, 1.1032721959994025),
        (1, 10.056123652004988, 1.8926976491110792),
        (2, 421.4909508170993, 4.175917861761295)])
    def test_stationary_phase_c_n(self, n, log_bump, lin_gauss):
        etas = [1.0, 2.0, 4.0]
        got = stationary_phase_check(LOG, BUMP, n, 0.0, etas).c_n
        assert got == pytest.approx(log_bump, rel=1e-13)
        got = stationary_phase_check(LIN, GAUSS, n, 0.5, etas).c_n
        assert got == pytest.approx(lin_gauss, rel=1e-13)

    def test_osc_norm_linear_gaussian(self):
        # the sums over many oscillation values amplify rounding
        rep = osc_norm_estimate(LIN, GAUSS, 0.25, KernelEvalSpec(4.0, 4.0, 16),
                                q_resolution=2, box_resolution=8)
        assert rep.value == pytest.approx(1.5111183252659817, rel=1e-10)
        assert rep.tail_estimate == pytest.approx(0.05899175116396387,
                                                  rel=1e-10)


class TestOscillation:
    def test_zero_radius_is_zero(self):
        val = oscillation(LIN, GAUSS, 0.25, True, 1.0, 0.5, 1.3, 0.7,
                          q_resolution=1)
        assert val == 0.0

    def test_gamma_on_decreases_with_delta(self):
        vals = [oscillation(LIN, GAUSS, d, True, 1.0, 0.5, 1.05, 0.55,
                            q_resolution=3)
                for d in (0.5, 0.25, 0.125)]
        assert vals[0] > vals[1] > vals[2]

    def test_gamma_off_phase_obstruction(self):
        # with the phase correction disabled the oscillation at modulation
        # omega = 1/(2 delta) does not die out as the cover refines
        vals = []
        for d in (0.5, 0.25, 0.125):
            c = 1.0 / (2.0 * d)
            vals.append(oscillation(LIN, GAUSS, d, False, c, c, c, c,
                                    q_resolution=3))
        assert vals[2] >= 0.5 * vals[0]

    def test_gamma_on_below_gamma_off(self):
        on = oscillation(LIN, GAUSS, 0.25, True, 1.0, 0.5, 1.05, 0.55,
                         q_resolution=3)
        off = oscillation(LIN, GAUSS, 0.25, False, 1.0, 0.5, 1.05, 0.55,
                          q_resolution=3)
        assert on < off

    def test_q_resolution_validated(self):
        with pytest.raises(ConfigError):
            oscillation(LIN, GAUSS, 0.25, True, 0.0, 0.0, 0.0, 0.0,
                        q_resolution=0)


class TestGridCaps:
    """A kernel grid past the node cap is refused at once, before
    anything of its size is allocated."""

    @staticmethod
    def refused(fn):
        """Seconds and peak traced bytes of ``fn``, which must raise
        CapabilityError."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapabilityError, match=str(_NODE_CAP)):
                fn()
        finally:
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return seconds, peak

    # 2001^2 is the smallest square grid above the cap
    @pytest.mark.parametrize("resolution", [2001, 10 ** 5, 10 ** 12])
    def test_kernel_norm_resolution(self, resolution):
        spec = KernelEvalSpec(8.0, 8.0, resolution)
        seconds, peak = self.refused(
            lambda: kernel_norm_I(LIN, GAUSS, spec, x=0.0))
        assert seconds < 2.0 and peak < 1 << 20

    @pytest.mark.parametrize("q_resolution", [45, 10 ** 5, 10 ** 12])
    def test_oscillation_q_resolution(self, q_resolution):
        # one cover element: 45^2 points of at least 2048 nodes pass the cap
        assert len(elements_containing(LIN, 0.25, 1.05, 0.55)) == 1
        seconds, peak = self.refused(
            lambda: oscillation(LIN, GAUSS, 0.25, True, 1.0, 0.5, 1.05,
                                0.55, q_resolution=q_resolution))
        assert seconds < 2.0 and peak < 1 << 20

    def test_wide_prototype_statphase_admitted(self):
        # the CLI's 128 etas over ~55k s-nodes: the cap bounds the grid,
        # not the s-chunks of a wide prototype
        etas = np.concatenate([-np.arange(1, 65)[::-1], np.arange(1, 65)])
        rep = stationary_phase_check(LIN, gaussian_prototype(4.0), 0, 0.0,
                                     etas.astype(float))
        assert np.all(np.isfinite(rep.lhs))

    def test_largest_q_resolution_admitted(self):
        # 44^2 points of 2048 nodes stay below the cap
        val = oscillation(LIN, GAUSS, 0.25, True, 1.0, 0.5, 1.05, 0.55,
                          q_resolution=44)
        assert np.isfinite(val)


class TestOscNormEstimate:
    def test_erb_sweep_strictly_decreasing(self):
        spec = KernelEvalSpec(30.0, 0.02, 16)
        vals = [osc_norm_estimate(erb_warp(), BUMP, d, spec, gamma_on=True,
                                  q_resolution=2, box_resolution=10).value
                for d in (0.5, 0.25, 0.125)]
        assert vals[0] > vals[1] > vals[2]

    def test_weighted_at_least_unweighted(self):
        plain = KernelEvalSpec(4.0, 4.0, 16)
        weighted = KernelEvalSpec(4.0, 4.0, 16, m1=polynomial_weight(1))
        a = osc_norm_estimate(LIN, GAUSS, 0.25, plain,
                              q_resolution=2, box_resolution=8).value
        b = osc_norm_estimate(LIN, GAUSS, 0.25, weighted,
                              q_resolution=2, box_resolution=8).value
        assert b >= a

    def test_prototype_norm_computed_once(self, monkeypatch):
        import warpft.prototype as wp
        calls = []

        def counting(theta, *args):
            calls.append(theta)
            return weighted_l2_norm(theta, *args)

        monkeypatch.setattr(wp, "weighted_l2_norm", counting)
        l2_norm.cache_clear()
        osc_norm_estimate(LIN, GAUSS, 0.25, KernelEvalSpec(4.0, 4.0, 16),
                          q_resolution=2, box_resolution=4)
        assert calls == [GAUSS]
        oscillation(LIN, GAUSS, 0.25, True, 0.0, 0.0, 0.1, 0.1)
        assert calls == [GAUSS]

    def test_gamma_on_below_gamma_off(self):
        spec = KernelEvalSpec(4.0, 4.0, 16)
        on = osc_norm_estimate(LIN, GAUSS, 0.25, spec, gamma_on=True,
                               q_resolution=2, box_resolution=8).value
        off = osc_norm_estimate(LIN, GAUSS, 0.25, spec, gamma_on=False,
                                q_resolution=2, box_resolution=8).value
        assert on < off


class TestWeightM:
    def test_diagonal_is_one(self):
        assert weight_m(polynomial_weight(2), polynomial_weight(1),
                        1.3, 1.3, 0.4, 0.4) == 1.0

    def test_polynomial_example(self):
        assert weight_m(polynomial_weight(1), None, 0.0, 1.0, 0.0, 0.0) == 2.0

    def test_random_tuples_swap_symmetric_and_bounded(self):
        rng = np.random.default_rng(23)
        m1, m2 = polynomial_weight(2), polynomial_weight(1)
        for _ in range(1000):
            x, y, xi, om = rng.uniform(-5, 5, 4)
            a = weight_m(m1, m2, x, y, xi, om)
            b = weight_m(m1, m2, y, x, om, xi)
            assert a == b
            assert a >= 1.0
