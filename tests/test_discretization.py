"""Cover geometry, Q-set containment, weight bounds, frame bounds."""

import math

import numpy as np
import pytest

from warpft import (ConfigError, DomainError, NotPainlessError,
                    alpha_like_warp, bump_prototype, erb_warp,
                    gaussian_prototype, linear_warp, log_warp,
                    power_law_warp)
from warpft.discretization import (check_cover_admissible, elements_containing,
                                   frame_bounds_painless,
                                   frame_bounds_power_iteration, induced_cover,
                                   q_set_bounds, weight_bound_C)
from warpft.system import SignalGrid, build_system
from warpft.transform import apply_frame_operator
from warpft.warping import polynomial_weight


def _flat_linear_system():
    """sigma >> delta makes the Gaussian lattice sum constant, so the
    frame profile is flat on the interior band."""
    grid = SignalGrid(256, 256.0)
    return build_system(linear_warp(1.0), gaussian_prototype(16.0), 4.0,
                        grid, time_scale=1.0 / 1024)


class TestCoverGeometry:
    def test_linear_cover_is_congruent_rectangles(self):
        cov = induced_cover(linear_warp(1.0), 0.5, (-2.0, 2.0), (0.0, 2.0))
        for e in cov.elements:
            assert e.f_hi - e.f_lo == pytest.approx(0.5, rel=1e-14)
            assert e.t_hi - e.t_lo == pytest.approx(0.5, rel=1e-14)

    def test_log_cover_octave_bands(self):
        cov = induced_cover(log_warp(), math.log(2.0), (1.0, 64.0), (0.0, 1.0))
        bands = {e.l: (e.f_lo, e.f_hi) for e in cov.elements}
        # oracle: Finv(l ln 2) = 2^l
        np.testing.assert_allclose(bands[0], (1.0, 2.0), rtol=1e-12)
        np.testing.assert_allclose(bands[3], (8.0, 16.0), rtol=1e-12)
        np.testing.assert_allclose(bands[5], (32.0, 64.0), rtol=1e-12)

    def test_measure_exact(self):
        for warp, window in ((erb_warp(), (10.0, 4000.0)),
                             (alpha_like_warp(0.5), (-50.0, 50.0)),
                             (log_warp(), (0.5, 300.0))):
            cov = induced_cover(warp, 0.3, window, (-1.0, 1.0))
            rep = check_cover_admissible(cov)
            assert rep.max_measure_error < 1e-12
            assert rep.min_measure == pytest.approx(0.09, rel=1e-15)

    def test_boundary_touching_elements_included(self):
        cov = induced_cover(linear_warp(1.0), 0.5, (0.0, 1.0), (0.0, 1.0))
        assert cov.channel_indices() == [-1, 0, 1, 2]

    def test_window_validation(self):
        with pytest.raises(DomainError):
            induced_cover(log_warp(), 0.5, (-1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            induced_cover(linear_warp(1.0), 0.5, (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            induced_cover(linear_warp(1.0), -0.5, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigError):
            induced_cover(log_warp(), 1e-4, (1e-3, 1e4), (0.0, 100.0))


class TestAdjacency:
    @staticmethod
    def _brute(cov):
        out = []
        for i, a in enumerate(cov.elements):
            out.append(sorted(j for j, b in enumerate(cov.elements)
                              if j != i and a.intersects(b)))
        return out

    def test_linear_nine_neighbors(self):
        cov = induced_cover(linear_warp(1.0), 0.5, (-2.0, 2.0), (0.0, 2.0))
        rep = check_cover_admissible(cov)
        # oracle: closed 3x3 block around an interior cell
        assert rep.max_neighbors == 9
        assert [sorted(a) for a in cov.adjacency()] == self._brute(cov)

    def test_structural_adjacency_complete_for_erb(self):
        cov = induced_cover(erb_warp(), 0.5, (20.0, 2000.0), (0.0, 0.2))
        assert [sorted(a) for a in cov.adjacency()] == self._brute(cov)
        assert check_cover_admissible(cov).max_neighbors >= 4

    def test_moderateness_exactly_one(self):
        cov = induced_cover(log_warp(), math.log(2.0), (1.0, 64.0),
                            (0.0, 1.0))
        assert check_cover_admissible(cov).moderateness_constant == 1.0

    def test_coverage_flag(self):
        cov = induced_cover(erb_warp(), 0.25, (100.0, 200.0), (0.0, 0.1))
        assert check_cover_admissible(cov).covers_window


class TestQSetBounds:
    def test_linear_closed_form(self):
        qb = q_set_bounds(linear_warp(1.0), 0.7, 0.3, 0.5)
        # oracle: I_y = [y - delta, y + delta], |J| = delta for w == 1
        assert qb.i_lo == pytest.approx(0.2, rel=1e-12)
        assert qb.i_hi == pytest.approx(1.2, rel=1e-12)
        assert qb.j_half == pytest.approx(0.5, rel=1e-6)
        assert qb.contained

    def test_random_containment_all_warps(self):
        rng = np.random.default_rng(42)
        half_line = [log_warp(), power_law_warp(1.0, 1.0, 0.5)]
        real_line = [linear_warp(2.0), erb_warp(), alpha_like_warp(0.5)]
        for warp in half_line:
            for _ in range(100):
                y = 10.0 ** rng.uniform(-2.0, 3.5)
                om = rng.uniform(-2.0, 2.0)
                assert q_set_bounds(warp, y, om, 0.25).contained
        for warp in real_line:
            for _ in range(100):
                y = rng.uniform(-1000.0, 1000.0)
                om = rng.uniform(-2.0, 2.0)
                assert q_set_bounds(warp, y, om, 0.25).contained

    def test_boundary_point_hits_two_channels(self):
        warp = erb_warp()
        y = float(warp.inverse(0.75))    # exactly on a channel edge
        qb = q_set_bounds(warp, y, 0.1, 0.25)
        assert len({e.l for e in qb.elements}) == 2
        assert qb.contained

    def test_interval_shrinks_with_delta(self):
        widths = [q_set_bounds(erb_warp(), 500.0, 0.0, d).i_hi
                  - q_set_bounds(erb_warp(), 500.0, 0.0, d).i_lo
                  for d in (0.5, 0.25, 0.125)]
        assert widths[0] > widths[1] > widths[2]


class TestWeightBound:
    def test_trivial_weight(self):
        cov = induced_cover(erb_warp(), 0.5, (10.0, 4000.0), (0.0, 0.5))
        rep = weight_bound_C(cov)
        assert rep.sampled == 1.0
        assert rep.analytic == 1.0

    def test_erb_polynomial_bounded(self):
        caps = []
        samples = []
        for d in (0.5, 0.25, 0.125):
            cov = induced_cover(erb_warp(), d, (10.0, 4000.0), (0.0, 0.5))
            rep = weight_bound_C(cov, polynomial_weight(2.0))
            assert rep.sampled <= rep.analytic
            samples.append(rep.sampled)
            caps.append(rep.analytic)
        # nonincreasing as delta shrinks, and dominated by the coarsest cap
        assert samples[0] >= samples[1] >= samples[2]
        assert max(samples) <= caps[0]

    def test_corner_sampling_matches_dense_grid(self):
        cov = induced_cover(linear_warp(1.0), 0.5, (-1.0, 1.0), (0.0, 0.5))
        m1 = polynomial_weight(1.0)
        rep = weight_bound_C(cov, m1)
        dense = 1.0
        for e in cov.elements:
            xs = np.linspace(e.f_lo, e.f_hi, 50)
            vals = m1(xs)
            dense = max(dense, float(vals.max() / vals.min()))
        assert rep.sampled == pytest.approx(dense, rel=1e-9)


class TestFrameBounds:
    def test_flat_system_bounds(self):
        sys = _flat_linear_system()
        a, b = frame_bounds_painless(sys)
        # oracle: S_d = sum of unit-norm Gaussian translates at step 4
        # with hop 1 = 1/delta = 0.25 (lattice ripple < 1e-50)
        assert a == pytest.approx(0.25, abs=1e-12)
        assert b == pytest.approx(0.25, abs=1e-12)

    def test_power_iteration_matches_diagonal(self):
        sys = _flat_linear_system()
        a, b = frame_bounds_painless(sys)
        ae, be = frame_bounds_power_iteration(sys)
        assert abs(ae - a) <= 1e-6 * a
        assert abs(be - b) <= 1e-6 * b

    def test_non_painless_rejected(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 1024)
        assert not sys.painless
        with pytest.raises(NotPainlessError):
            frame_bounds_painless(sys)

    def test_estimates_inside_diagonal_bounds(self):
        grid = SignalGrid(1024, 8000.0)
        sys = build_system(erb_warp(), gaussian_prototype(0.125), 0.5, grid)
        assert sys.painless
        a, b = frame_bounds_painless(sys)
        ae, be = frame_bounds_power_iteration(sys, trials=1)
        # Rayleigh quotients can only move inward
        assert a - 1e-8 <= ae <= be <= b + 1e-8

    @pytest.mark.parametrize("radius, painless, a_ref, b_ref", [
        (0.9, True, 0.0002945851239872677, 0.00043648385125637863),
        (2.0, False, 0.000296370046370536, 0.0004428390695495626),
    ])
    def test_power_iteration_recorded_values(self, radius, painless,
                                             a_ref, b_ref):
        """Bounds recorded with the earlier time-domain frame operator (a
        full N-point FFT round trip per application, plain CG)."""
        grid = SignalGrid(1024, 16000.0)
        sys = build_system(log_warp(), bump_prototype(radius), 0.5, grid)
        assert sys.painless == painless
        a, b = frame_bounds_power_iteration(sys, trials=1)
        assert abs(a - a_ref) <= 1e-10 * a_ref
        assert abs(b - b_ref) <= 1e-10 * b_ref

    def test_singular_band_warns_instead_of_raising(self):
        """Hops far above the painless limit leave S singular to rounding
        on the band: CG loses positivity, and the estimate says so by a
        warning and a lower bound at rounding level."""
        grid = SignalGrid(256, 256.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(8.0), 32.0,
                           grid, time_scale=1.0 / 256)
        with pytest.warns(RuntimeWarning, match="stalled"):
            a, b = frame_bounds_power_iteration(sys, trials=1)
        assert abs(a) <= 1e-12 * b

    def test_rayleigh_sandwich(self):
        sys = _flat_linear_system()
        ae, be = frame_bounds_power_iteration(sys)
        idx = sys.interior_bins()
        rng = np.random.default_rng(5)
        for _ in range(100):
            fh = np.zeros(sys.grid.length, dtype=complex)
            fh[idx] = (rng.standard_normal(idx.size)
                       + 1j * rng.standard_normal(idx.size))
            f = np.fft.ifft(fh)
            r = np.vdot(f, apply_frame_operator(f, sys)).real / np.vdot(f, f).real
            assert ae - 1e-8 <= r <= be + 1e-8

    def test_profile_ratio_stable_under_refinement(self):
        grid = SignalGrid(4096, 16000.0)
        ratios = []
        for d in (0.25, 0.125):
            s = build_system(erb_warp(), gaussian_prototype(0.25), d, grid)
            a, b = frame_bounds_painless(s)
            ratios.append(b / a)
        assert abs(ratios[0] - ratios[1]) <= 0.1 * ratios[0]
