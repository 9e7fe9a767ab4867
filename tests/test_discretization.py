"""Cover geometry, Q-set containment, weight bounds, frame bounds."""

import math
import warnings

import numpy as np
import pytest

from warpft import (ConfigError, DomainError, NotPainlessError,
                    alpha_like_warp, bump_prototype, erb_warp,
                    gaussian_prototype, linear_warp, log_warp,
                    power_law_warp)
from warpft.discretization import (_MAX_ELEMENTS, CoverElement, CoverReport,
                                   check_cover_admissible, elements_containing,
                                   frame_bounds, frame_bounds_painless,
                                   induced_cover, weight_bound_C)
from warpft.system import SignalGrid, build_system
from warpft.transform import apply_frame_operator
from warpft.warping import (constant_weight, exponential_weight,
                            polynomial_weight)

from paper_hypotheses import q_set_bounds


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
        """Each element's count of other elements it touches, pair by pair."""
        return [sum(j != i and a.intersects(b)
                    for j, b in enumerate(cov.elements))
                for i, a in enumerate(cov.elements)]

    def test_linear_nine_neighbors(self):
        cov = induced_cover(linear_warp(1.0), 0.5, (-2.0, 2.0), (0.0, 2.0))
        rep = check_cover_admissible(cov)
        # oracle: closed 3x3 block around an interior cell
        assert rep.max_neighbors == 9
        assert cov.neighbor_counts().tolist() == self._brute(cov)

    def test_structural_adjacency_complete_for_erb(self):
        cov = induced_cover(erb_warp(), 0.5, (20.0, 2000.0), (0.0, 0.2))
        assert cov.neighbor_counts().tolist() == self._brute(cov)
        assert check_cover_admissible(cov).max_neighbors >= 4

    def test_moderateness_exactly_one(self):
        cov = induced_cover(log_warp(), math.log(2.0), (1.0, 64.0),
                            (0.0, 1.0))
        assert check_cover_admissible(cov).moderateness_constant == 1.0

    def test_coverage_flag(self):
        cov = induced_cover(erb_warp(), 0.25, (100.0, 200.0), (0.0, 0.1))
        assert check_cover_admissible(cov).covers_window


# -- the per-element cover code that the element arrays replaced, kept as
# an oracle: every result of the array code must equal these bit for bit


def _loop_cover(warp, delta, freq_window, time_window):
    f_a, f_b = map(float, freq_window)
    t_a, t_b = map(float, time_window)
    w_a = float(warp.eval(f_a))
    w_b = float(warp.eval(f_b))
    l_min = int(np.ceil(w_a / delta)) - 1
    l_max = int(np.floor(w_b / delta))
    elements = []
    for l in range(l_min, l_max + 1):
        f_lo = float(warp.inverse(delta * l))
        f_hi = float(warp.inverse(delta * (l + 1)))
        tau = delta * delta / (f_hi - f_lo)
        k_min = int(np.ceil(t_a / tau)) - 1
        k_max = int(np.floor(t_b / tau))
        if (k_max - k_min + 1) * (l_max - l_min + 1) > _MAX_ELEMENTS:
            raise ConfigError("too many elements")
        for k in range(k_min, k_max + 1):
            elements.append(CoverElement(l, k, f_lo, f_hi,
                                         k * tau, (k + 1) * tau))
    return elements


def _loop_adjacency(elements):
    by_l = {}
    tau_of = {}
    for i, e in enumerate(elements):
        by_l.setdefault(e.l, {})[e.k] = i
        tau_of[e.l] = e.t_hi - e.t_lo
    adj = []
    for i, e in enumerate(elements):
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
                o = elements[j]
                if e.t_lo <= o.t_hi and o.t_lo <= e.t_hi:
                    near.append(j)
        adj.append(near)
    return adj


def _loop_admissible(elements, adj, delta, freq_window, time_window):
    max_n = max((len(a) + 1 for a in adj), default=0)
    mu = delta * delta
    err = max((abs((e.f_hi - e.f_lo) * (e.t_hi - e.t_lo) - mu) / mu
               for e in elements), default=0.0)
    f_a, f_b = freq_window
    t_a, t_b = time_window
    covered = bool(elements)
    if covered:
        by_l = {}
        for e in elements:
            by_l.setdefault(e.l, []).append(e)
        lo = min(e.f_lo for e in elements)
        hi = max(e.f_hi for e in elements)
        covered = lo <= f_a and hi >= f_b
        for group in by_l.values():
            group.sort(key=lambda e: e.k)
            covered = covered and group[0].t_lo <= t_a and group[-1].t_hi >= t_b
            covered = covered and all(a.k + 1 == b.k
                                      for a, b in zip(group, group[1:]))
    return CoverReport(max_n, 1.0, mu, covered, err)


def _corner_candidates(lo, hi):
    pts = [lo, hi]
    if lo < 0.0 < hi:
        pts.append(0.0)
    return pts


def _loop_weight_sampled(elements, m1, m2):
    sampled = 1.0
    for e in elements:
        fs = _corner_candidates(e.f_lo, e.f_hi)
        ts = _corner_candidates(e.t_lo, e.t_hi)
        vals = [m1(x) * m2(t) for x in fs for t in ts]
        top, bot = max(vals), min(vals)
        if bot > 0:
            sampled = max(sampled, top / bot)
    return sampled


ORACLE_COVERS = {
    "linear": (linear_warp(1.0), 0.5, (-2.0, 2.0), (0.0, 2.0)),
    "log_octaves": (log_warp(), math.log(2.0), (1.0, 64.0), (0.0, 1.0)),
    "erb": (erb_warp(), 0.5, (20.0, 2000.0), (0.0, 0.2)),
    "erb_across_zero": (erb_warp(), 0.5, (-3000.0, 1000.0), (-0.3, 0.05)),
    "alpha_like": (alpha_like_warp(0.5), 0.3, (-50.0, 50.0), (-1.0, 1.0)),
    "power_law": (power_law_warp(2.0, 300.0, 0.3), 0.5, (10.0, 4000.0),
                  (0.0, 0.5)),
    "erb_fine": (erb_warp(), 0.125, (20.0, 2000.0), (0.0, 0.05)),
}

ORACLE_WEIGHTS = [
    (constant_weight(), constant_weight()),
    (polynomial_weight(2.0), constant_weight()),
    (polynomial_weight(1.0), polynomial_weight(0.5)),
    (polynomial_weight(2.0), exponential_weight(0.3)),
    # e^{1000 |t|} overflows past |t| = 0.71: an element there has an
    # inf / inf ratio, which is skipped, and one across it an inf ratio
    (constant_weight(), exponential_weight(1000.0)),
]


def _quietly(fn, *args):
    """``fn(*args)`` with overflow warnings silenced, as the weight
    constant of an overflowing weight raises them on both sides."""
    with warnings.catch_warnings(), np.errstate(over="ignore",
                                                invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args)


class TestArrayCoverOracle:
    """The element arrays, neighbor counts, admissibility report and
    sampled weight constant equal those of the per-element code."""

    @pytest.mark.parametrize("name", sorted(ORACLE_COVERS))
    def test_matches_per_element_code(self, name):
        warp, delta, fw, tw = ORACLE_COVERS[name]
        cov = induced_cover(warp, delta, fw, tw)
        old = _loop_cover(warp, delta, fw, tw)
        assert cov.elements == old and repr(cov.elements) == repr(old)
        assert len(cov) == len(old)
        adj = _loop_adjacency(old)
        assert cov.neighbor_counts().tolist() == [len(a) for a in adj]
        assert repr(check_cover_admissible(cov)) == repr(
            _loop_admissible(old, adj, delta, fw, tw))
        for m1, m2 in ORACLE_WEIGHTS:
            new = _quietly(weight_bound_C, cov, m1, m2).sampled
            want = _quietly(_loop_weight_sampled, old, m1, m2)
            assert repr(new) == repr(want), (m1, m2)

    def test_all_overflowed_elements_are_skipped(self):
        warp, delta, fw, _ = ORACLE_COVERS["erb"]
        cov = induced_cover(warp, delta, fw, (1.0, 2.0))
        m2 = exponential_weight(1000.0)
        assert np.all(_quietly(m2, cov.t_lo) == np.inf)
        new = _quietly(weight_bound_C, cov, None, m2).sampled
        want = _quietly(_loop_weight_sampled, cov.elements,
                        constant_weight(), m2)
        assert repr(new) == repr(want) == "1.0"

    def test_refusal_by_rows_times_largest_row(self):
        """2,002 rows of at most 1,099 elements: 114k elements in all, but
        rows times the largest row exceeds the cap, and both refuse."""
        warp, delta = log_warp(), 0.01
        fw, tw = (1.0, math.exp(20.0)), (0.0, 2.25e-8)
        edges = np.exp(delta * np.arange(-1, 2002))
        tau = delta * delta / np.diff(edges)
        counts = np.floor(tw[1] / tau) - np.ceil(tw[0] / tau) + 2
        assert counts.sum() < _MAX_ELEMENTS < counts.size * counts.max()
        with pytest.raises(ConfigError):
            _loop_cover(warp, delta, fw, tw)
        with pytest.raises(ConfigError, match="more than"):
            induced_cover(warp, delta, fw, tw)


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
        ae, be = frame_bounds(sys)
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
        ae, be = frame_bounds(sys)
        # Rayleigh quotients can only move inward
        assert a - 1e-8 <= ae <= be <= b + 1e-8

    @pytest.mark.parametrize("radius, painless, a_ref, b_ref", [
        (0.9, True, 0.00029439177611266504, 0.0004370349646686647),
        (2.0, False, 0.0002963692964619357, 0.00044291306830830814),
    ])
    def test_recorded_exact_bounds(self, radius, painless, a_ref, b_ref):
        """The extreme eigenvalues of the compressed frame operator, from
        a dense ``eigvalsh`` of ``_unfold(_fold(e_j))`` column by column."""
        grid = SignalGrid(1024, 16000.0)
        sys = build_system(log_warp(), bump_prototype(radius), 0.5, grid)
        assert sys.painless == painless
        a, b = frame_bounds(sys)
        assert abs(a - a_ref) <= 1e-12 * a_ref
        assert abs(b - b_ref) <= 1e-12 * b_ref

    def test_singular_band_lower_bound_is_zero(self):
        """Hops far above the painless limit leave S singular to rounding
        on the band: the dense ``eigvalsh`` gives -3.8e-18, which the
        bounds clip to 0, and nothing warns."""
        grid = SignalGrid(256, 256.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(8.0), 32.0,
                           grid, time_scale=1.0 / 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = frame_bounds(sys)
        assert a == 0.0
        assert abs(b - 0.004020525807436697) <= 1e-12 * b

    def test_rayleigh_sandwich(self):
        sys = _flat_linear_system()
        ae, be = frame_bounds(sys)
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
