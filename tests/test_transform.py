"""Analysis/synthesis round trips, reference cross-checks, Moyal pairing."""

import heapq

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from warpft import (CapabilityError, ConfigError, IllConditionedError,
                    NotPainlessError, ShapeError, WarpFTError,
                    alpha_like_warp, bump_prototype, erb_warp,
                    gaussian_prototype, linear_warp, log_warp,
                    power_law_warp)
from warpft import system as system_module
from warpft.discretization import frame_bounds, frame_bounds_painless
from warpft.prototype import (PROTOTYPE_FAMILIES, admissibility_inner_product,
                              l2_norm, prototype_from_params)
from warpft.system import Coefficients, SignalGrid, build_atom, build_system
from warpft.warping import WARP_FAMILIES
from warpft.transform import (UNFOLD_ROWS, _fold, _unfold,
                              adjoint, analyze,
                              apply_frame_operator, coefficient_deviation,
                              moyal_residual, roundtrip_residual,
                              stft_reference, synthesize)

RNG = np.random.default_rng(42)


def _linear_system():
    grid = SignalGrid(1024, 1024.0)
    return build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                        grid, time_scale=1.0 / 16384)


def _erb_system(radius=0.9, delta=0.5):
    grid = SignalGrid(4096, 16000.0)
    return build_system(erb_warp(), bump_prototype(radius), delta, grid)


def _log_system(radius):
    grid = SignalGrid(1024, 16000.0)
    return build_system(log_warp(), bump_prototype(radius), 0.5, grid)


# one painless and one non-painless system per warp
SYSTEMS = {
    "linear": _linear_system,
    "linear-not-painless": lambda: build_system(
        linear_warp(1.0), gaussian_prototype(16.0), 64.0,
        SignalGrid(1024, 1024.0), time_scale=1.0 / 1024),
    "log": lambda: _log_system(0.9),
    "log-not-painless": lambda: _log_system(2.0),
    "erb": _erb_system,
    "erb-not-painless": lambda: _erb_system(radius=2.0),
}


# the suite's systems, plus hops far above the painless limit (S singular
# to rounding on the band) and an ERB bank with a wide prototype
FIBER_SYSTEMS = dict(SYSTEMS)
FIBER_SYSTEMS["singular"] = lambda: build_system(
    linear_warp(1.0), gaussian_prototype(8.0), 32.0, SignalGrid(256, 256.0),
    time_scale=1.0 / 256)
FIBER_SYSTEMS["wide-erb"] = lambda: build_system(
    erb_warp(), bump_prototype(4.0), 0.5, SignalGrid(1024, 16000.0))


def _random_signal(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _interior_signal(system, rng=RNG):
    """Random signal whose spectrum lives on the fully covered band."""
    idx = system.interior_bins()
    fhat = np.zeros(system.grid.length, dtype=complex)
    fhat[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return np.fft.ifft(fhat)


class TestRoundTrip:
    def test_linear_exact(self):
        sys = _linear_system()
        f = _interior_signal(sys)
        assert roundtrip_residual(f, sys) < 1e-12

    def test_erb_exact(self):
        sys = _erb_system()
        f = _interior_signal(sys)
        assert roundtrip_residual(f, sys) < 1e-12

    def test_full_band_signal_recovers_interior(self):
        sys = _erb_system()
        f = RNG.standard_normal(4096) + 1j * RNG.standard_normal(4096)
        rec = synthesize(analyze(f, sys), sys)
        idx = sys.interior_bins()
        fhat, rhat = np.fft.fft(f), np.fft.fft(rec)
        np.testing.assert_allclose(rhat[idx], fhat[idx], rtol=0,
                                   atol=1e-10 * np.abs(fhat).max())

    def test_not_painless_refused(self):
        sys = _erb_system(radius=2.0)
        f = _interior_signal(sys)
        with pytest.raises(NotPainlessError):
            synthesize(analyze(f, sys), sys)

    def test_wrong_length_rejected(self):
        sys = _linear_system()
        with pytest.raises(ShapeError):
            analyze(np.zeros(100), sys)


class TestIterative:
    def test_cg_matches_diagonal_when_painless(self):
        sys = _erb_system()
        f = _interior_signal(sys)
        c = analyze(f, sys)
        rec_diag = synthesize(c, sys)
        rec_cg = synthesize(c, sys, iterative=True)
        assert np.array_equal(rec_cg, rec_diag)

    def test_cg_handles_non_painless(self):
        sys = _erb_system(radius=2.0)
        f = _interior_signal(sys)
        rec = synthesize(analyze(f, sys), sys, iterative=True)
        assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)


def _dense_analyze(f, system):
    """Reference analysis: a full N-point inverse FFT of each channel's
    spectral product, then every hop-th sample."""
    fhat = np.fft.fft(f)
    out = []
    for atom, ch in zip(system.atoms, system.channels):
        prod = np.zeros_like(fhat)
        prod[atom.support] = fhat[atom.support] * atom.values
        out.append(np.fft.ifft(prod)[::ch.hop_samples])
    return out


class TestFoldedCore:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_analyze_matches_dense_reference(self, name):
        sys = SYSTEMS[name]()
        assert sys.painless == (not name.endswith("not-painless"))
        n = sys.grid.length
        f = _random_signal(n, np.random.default_rng(17))
        coeffs = analyze(f, sys)
        for l, ref in enumerate(_dense_analyze(f, sys)):
            scale = np.abs(ref).max()
            assert np.abs(coeffs.data[l] - ref).max() <= 1e-13 * scale, l

    @pytest.mark.parametrize("name", sorted(FIBER_SYSTEMS))
    def test_frame_op_matches_time_domain_operator(self, name):
        """The frame operator assembled from its fibers, compressed to
        the interior bins, equals ``_unfold(_fold(.))`` and the spectrum
        of the time-domain frame operator on the same bins."""
        sys = FIBER_SYSTEMS[name]()
        n = sys.grid.length
        idx = sys.interior_bins()
        singles, fibers = sys.frame_fibers(idx)
        parts = [singles] + [bins.ravel() for bins, _ in fibers]
        assert np.array_equal(np.sort(np.concatenate(parts)), idx)
        vhat = np.zeros(n, dtype=complex)
        vhat[idx] = _random_signal(idx.size, np.random.default_rng(23))
        got = _fiber_product(sys, idx, vhat)[idx]
        ref = _unfold(_fold(vhat, sys), sys)[idx]
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = np.fft.fft(apply_frame_operator(np.fft.ifft(vhat), sys))[idx]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _fiber_product(system, bins, vhat):
    """``S vhat`` on ``bins`` (``vhat`` zero elsewhere), from the fibers."""
    singles, fibers = system.frame_fibers(bins)
    out = np.zeros_like(vhat)
    out[singles] = system.frame_diag()[singles] * vhat[singles]
    for fbins, blocks in fibers:
        out[fbins] = (blocks @ vhat[fbins][..., None])[..., 0]
    return out


def _dense_frame_operator(system, idx):
    """The frame operator compressed to the bins ``idx``, column by column
    from ``_unfold(_fold(e_j))``.  Column ``j`` is nonzero only on the
    atoms through bin ``j``, inside the signed-bin hull of their supports
    (its reach): unit vectors whose reaches are disjoint share one probe
    (greedy interval colouring) and are read back from their reaches."""
    n = system.grid.length
    lo, hi = np.full(n, n), np.full(n, -n)
    for atom in system.atoms:
        signed = np.where(atom.support > n // 2, atom.support - n,
                          atom.support)
        lo[atom.support] = np.minimum(lo[atom.support], signed.min())
        hi[atom.support] = np.maximum(hi[atom.support], signed.max())
    probes, ends = [], []  # ends: heap of (last reach end, probe)
    for j in idx[np.argsort(lo[idx], kind="stable")].tolist():
        if ends and ends[0][0] < lo[j]:
            p = heapq.heappop(ends)[1]
        else:
            p = len(probes)
            probes.append([])
        probes[p].append(j)
        heapq.heappush(ends, (hi[j], p))
    at = np.full(n, -1)
    at[idx] = np.arange(idx.size)
    dense = np.zeros((idx.size, idx.size), dtype=complex)
    for cols in probes:
        e = np.zeros(n, dtype=complex)
        e[cols] = 1.0
        out = _unfold(_fold(e, system), system)
        for j in cols:
            near = np.arange(lo[j], hi[j] + 1) % n
            near = near[at[near] >= 0]
            dense[at[near], at[j]] = out[near]
    return dense


def _assert_oracle_bounds(system):
    """``frame_bounds`` equals the extreme eigenvalues of the dense
    compressed frame operator to 1e-12 of the upper bound (the lower
    one clipped at 0, as ``S`` is positive semidefinite).

    A dense ``eigvalsh`` of thousands of bins takes tens of seconds, so
    the dense matrix is diagonalized per connected component of its
    entries above 1e-15 of the largest (the rest is FFT rounding); by
    Weyl's inequality the dropped part moves no eigenvalue by more than
    its Frobenius norm, which is added to the error."""
    dense = _dense_frame_operator(system, system.interior_bins())
    kept = np.abs(dense) > 1e-15 * np.abs(dense).max()
    _, comp = connected_components(kept, directed=False)
    order = np.argsort(comp, kind="stable")
    cuts = np.flatnonzero(np.diff(comp[order])) + 1
    eig = np.concatenate([np.linalg.eigvalsh(dense[np.ix_(m, m)])
                          for m in np.split(order, cuts)])
    dropped = float(np.linalg.norm(dense[~kept]))
    a, b = frame_bounds(system)
    assert abs(a - max(eig.min(), 0.0)) + dropped <= 1e-12 * eig.max()
    assert abs(b - eig.max()) + dropped <= 1e-12 * eig.max()


# drawn systems: (warp, sample rate, delta, time scale of painless hops)
DRAWN_WARPS = {
    "linear": (lambda: linear_warp(1.0), 1024.0, 64.0, 1.0 / 16384),
    "log": (log_warp, 16000.0, 0.5, 1.0),
    "erb": (erb_warp, 16000.0, 0.5, 1.0),
}


class TestFrameFibers:
    @pytest.mark.parametrize("name", sorted(FIBER_SYSTEMS))
    def test_bounds_match_dense_oracle(self, name):
        _assert_oracle_bounds(FIBER_SYSTEMS[name]())

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(sorted(DRAWN_WARPS)),
           bump=st.booleans(), log2n=st.integers(8, 10),
           delta_exp=st.floats(-1.0, 1.0), width_exp=st.floats(-2.0, 2.0),
           hop_exp=st.integers(-2, 5))
    def test_drawn_bounds_match_dense_oracle(self, kind, bump, log2n,
                                             delta_exp, width_exp, hop_exp):
        """A drawn system either has the dense oracle's bounds or raises
        a documented error (too few channels, no fully covered bins, a
        fiber above FIBER_CAP)."""
        make, fs, delta, time_scale = DRAWN_WARPS[kind]
        delta *= 2.0 ** delta_exp
        width = delta * 2.0 ** width_exp
        theta = bump_prototype(width) if bump else gaussian_prototype(width)
        try:
            sys = build_system(make(), theta, delta, SignalGrid(1 << log2n, fs),
                               time_scale=time_scale * 2.0 ** hop_exp)
            frame_bounds(sys)
        except WarpFTError:
            return
        _assert_oracle_bounds(sys)

    @pytest.mark.parametrize("name", ["erb", "linear", "log"])
    def test_painless_bounds_are_diagonal_extremes(self, name):
        sys = SYSTEMS[name]()
        assert sys.painless
        diag = sys.frame_diag()[sys.interior_bins()]
        assert sys.frame_fibers(sys.interior_bins())[1] == []
        expected = (float(diag.min()), float(diag.max()))
        assert frame_bounds(sys) == frame_bounds_painless(sys) == expected

    def test_fiber_cap_refused(self, monkeypatch):
        sys = FIBER_SYSTEMS["linear-not-painless"]()
        c = analyze(_interior_signal(sys), sys)
        monkeypatch.setattr(system_module, "FIBER_CAP", 8)
        with pytest.raises(CapabilityError, match="FIBER_CAP = 8"):
            frame_bounds(sys)
        with pytest.raises(CapabilityError, match="FIBER_CAP = 8"):
            synthesize(c, sys, iterative=True)

    def test_singular_fiber_refused(self):
        sys = FIBER_SYSTEMS["singular"]()
        c = analyze(_interior_signal(sys), sys)
        with pytest.raises(IllConditionedError, match="fiber"):
            synthesize(c, sys, iterative=True)

    def test_inverses_cached(self):
        sys = _erb_system(radius=2.0)
        assert sys.fiber_inverses() is sys.fiber_inverses()


def _per_channel_fold(fhat, system):
    """The fold as it ran before frame-count grouping: one bincount fold,
    one ``M_l``-point inverse FFT and one division per channel."""
    data = []
    for atom, ch in zip(system.atoms, system.channels):
        prod = fhat[atom.support] * atom.values
        residue = atom.support % ch.frames
        folded = (np.bincount(residue, prod.real, ch.frames)
                  + 1j * np.bincount(residue, prod.imag, ch.frames))
        data.append(np.fft.ifft(folded) / ch.hop_samples)
    return data


def _per_channel_unfold(data, system):
    """The adjoint as it ran before grouping: one FFT per channel,
    accumulated in channel order."""
    out = np.zeros(system.grid.length, dtype=complex)
    for c, atom, ch in zip(data, system.atoms, system.channels):
        spread = np.fft.fft(c)
        out[atom.support] += spread[atom.support % ch.frames] * atom.values
    return out


GROUPED_SYSTEMS = dict(SYSTEMS)
# one frame count shared by every channel (and more than UNFOLD_ROWS of them)
GROUPED_SYSTEMS["one-group"] = _linear_system
# a log bank one octave per channel: no two channels share a frame count
GROUPED_SYSTEMS["no-shared-group"] = lambda: build_system(
    log_warp(), bump_prototype(0.9), np.log(2.0), SignalGrid(1024, 16000.0))


class TestGroupedCore:
    def test_group_shapes(self):
        one = GROUPED_SYSTEMS["one-group"]()
        assert len(one.frame_groups()) == 1
        assert len(one.channels) > UNFOLD_ROWS
        lone = GROUPED_SYSTEMS["no-shared-group"]()
        assert all(len(ls) == 1 for _, _, ls in lone.frame_groups())
        assert len(lone.frame_groups()) == len(lone.channels) > 2

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_groups_partition_channels(self, name):
        sys = GROUPED_SYSTEMS[name]()
        seen = []
        for frames, hop, members in sys.frame_groups():
            assert members == sorted(members)
            assert frames * hop == sys.grid.length
            for l in members:
                ch = sys.channels[l]
                assert (ch.frames, ch.hop_samples) == (frames, hop)
            seen += members
        assert sorted(seen) == list(range(len(sys.channels)))
        assert len({g[0] for g in sys.frame_groups()}) == len(sys.frame_groups())

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_fold_equals_per_channel_fold(self, name):
        sys = GROUPED_SYSTEMS[name]()
        fhat = _random_signal(sys.grid.length, np.random.default_rng(29))
        got = _fold(fhat, sys)
        ref = _per_channel_fold(fhat, sys)
        assert len(got) == len(ref)
        for l, (g, r) in enumerate(zip(got, ref)):
            assert g.shape == r.shape and np.array_equal(g, r), l

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_unfold_and_adjoint_match_per_channel(self, name):
        """Only the order of summation across groups differs."""
        sys = GROUPED_SYSTEMS[name]()
        rng = np.random.default_rng(31)
        data = [_random_signal(ch.frames, rng) for ch in sys.channels]
        ref = _per_channel_unfold(data, sys)
        scale = np.abs(ref).max()
        assert np.abs(_unfold(data, sys) - ref).max() <= 1e-14 * scale
        coeffs = analyze(np.fft.ifft(_random_signal(sys.grid.length, rng)),
                         sys)
        ref_t = np.fft.ifft(_per_channel_unfold(coeffs.data, sys))
        got_t = adjoint(coeffs, sys)
        assert np.abs(got_t - ref_t).max() <= 1e-14 * np.abs(ref_t).max()


class TestCoveredBins:
    def test_diagonal_synthesis_unchanged(self):
        """Dividing on the cached index equals the boolean-mask divide it
        replaces, bit for bit."""
        sys = _erb_system()
        coeffs = analyze(_interior_signal(sys), sys)
        diag = sys.frame_diag()
        num = _unfold(coeffs.data, sys)
        good = diag >= 1e-12 * float(np.max(diag))
        fhat = np.zeros_like(num)
        fhat[good] = num[good] / diag[good]
        assert np.array_equal(synthesize(coeffs, sys), np.fft.ifft(fhat))
        covered, profile, interior_covered = sys.covered_bins()
        assert np.array_equal(covered, np.flatnonzero(good))
        assert np.array_equal(profile, diag[good]) and interior_covered

    def test_cached_and_read_only(self):
        sys = _erb_system()
        assert sys.interior_bins() is sys.interior_bins()
        assert sys.covered_bins() is sys.covered_bins()
        for arr in (sys.interior_bins(), *sys.covered_bins()[:2]):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestAdjoint:
    def test_pairing_identity(self):
        """<V f, c> must equal <f, V* c> for the analysis map V, on every
        system of SYSTEMS."""
        for name, make in SYSTEMS.items():
            sys = make()
            n = sys.grid.length
            rng = np.random.default_rng(3)
            f = _random_signal(n, rng)
            c = analyze(np.fft.ifft(_random_signal(n, rng)), sys)
            vf = analyze(f, sys)
            lhs = sum(np.vdot(cb, ca) for ca, cb in zip(vf.data, c.data))
            rhs = np.vdot(adjoint(c, sys), f)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), name

    def test_frame_operator_positive(self):
        sys = _linear_system()
        f = _interior_signal(sys)
        sf = apply_frame_operator(f, sys)
        quad = np.vdot(f, sf)
        assert quad.real > 0
        assert abs(quad.imag) < 1e-10 * quad.real


@st.composite
def _drawn_banks(draw):
    """A bank of any built-in warp with drawn parameters, any prototype
    family, a channel step giving ~3-48 channels across the band, a
    prototype width around the step, hops around the painless limit,
    and N from 2^8 to 2^10."""
    pos = st.floats(0.25, 4.0)
    kind = draw(st.sampled_from(sorted(WARP_FAMILIES)), label="warp")
    if kind == "linear":
        warp = linear_warp(draw(pos))
    elif kind == "log":
        warp = log_warp()
    elif kind == "power_law":
        warp = power_law_warp(draw(pos), 100.0 * draw(pos),
                              draw(st.floats(0.2, 1.0)))
    elif kind == "erb":
        warp = erb_warp(9.265 * draw(pos), 228.8 * draw(pos))
    else:
        warp = alpha_like_warp(draw(st.floats(0.2, 1.0)))
    grid = SignalGrid(1 << draw(st.integers(8, 10), label="log2n"), 16000.0)
    f_lo = grid.bin_hz if warp.domain == "positive_half_line" else -8000.0
    span = warp.eval(8000.0) - warp.eval(f_lo)
    delta = span / draw(st.floats(3.0, 48.0), label="channels")
    proto = draw(st.sampled_from(sorted(PROTOTYPE_FAMILIES)), label="proto")
    width = delta * 2.0 ** draw(st.floats(-2.0, 1.0), label="width_exp")
    theta = prototype_from_params(proto, **{PROTOTYPE_FAMILIES[proto][1][0]:
                                            width})
    time_scale = 0.25 / delta ** 2 * 2.0 ** draw(st.integers(-3, 3))
    return warp, theta, delta, grid, time_scale


class TestOperatorIdentities:
    @settings(max_examples=25, deadline=None)
    @given(bank=_drawn_banks(), seed=st.integers(0, 2 ** 32 - 1))
    def test_drawn_bank_identities(self, bank, seed):
        """A drawn bank builds or raises ConfigError (too few or too many
        channels, an atom that vanishes on the grid).  When it builds,
        V* is the adjoint of V to rounding, analysis equals the direct
        sliding-window reference, a painless bank reconstructs a signal
        on its covered bins exactly, and the frame bounds bracket the
        Rayleigh quotient of a signal on the fully covered band."""
        warp, theta, delta, grid, time_scale = bank
        try:
            sys = build_system(warp, theta, delta, grid,
                               time_scale=time_scale)
        except ConfigError:
            return
        rng = np.random.default_rng(seed)
        n = grid.length
        f = np.fft.ifft(_random_signal(n, rng))
        vf = analyze(f, sys)
        c = [_random_signal(ch.frames, rng) for ch in sys.channels]
        lhs = sum(np.vdot(cb, ca) for ca, cb in zip(vf.data, c))
        rhs = np.vdot(adjoint(Coefficients(c, sys.channel_positions(),
                                           sys.hop_seconds(), n), sys), f)
        scale = (np.linalg.norm(np.concatenate(vf.data))
                 * np.linalg.norm(np.concatenate(c)))
        assert abs(lhs - rhs) <= 1e-12 * scale

        peak = max(float(np.max(np.abs(d))) for d in vf.data)
        assert coefficient_deviation(vf, stft_reference(f, sys)) <= 1e-10 * peak

        covered, _, interior_covered = sys.covered_bins()
        if sys.painless and interior_covered:
            fhat = np.zeros(n, dtype=complex)
            fhat[covered] = _random_signal(covered.size, rng)
            assert roundtrip_residual(np.fft.ifft(fhat), sys) <= 1e-12

        try:
            a, b = frame_bounds(sys)
        except (ConfigError, CapabilityError):  # no covered band, FIBER_CAP
            return
        g = _interior_signal(sys, rng)
        q = np.vdot(g, apply_frame_operator(g, sys)).real / np.vdot(g, g).real
        assert a - 1e-12 * b <= q <= b + 1e-12 * b


class TestAgainstReferenceStft:
    def test_linear_matches_modulated_window_stft(self):
        """On-grid linear channels are modulates of one window, so the
        transform must agree with a plain windowed-DFT short-time
        Fourier transform built from scratch here."""
        sys = _linear_system()
        grid = sys.grid
        n = grid.length
        f = np.fft.ifft(RNG.standard_normal(n) + 1j * RNG.standard_normal(n))
        coeffs = analyze(f, sys)

        # centre-frequency-zero response sampled and truncated the same way
        xi = grid.bin_freqs()
        resp = sys.theta.eval(xi)
        resp[np.abs(resp) < 1e-8 * np.abs(resp).max()] = 0.0
        window = np.fft.ifft(resp)
        m = np.arange(n)
        hop = 4
        for l, ch in enumerate(sys.channels):
            if abs(ch.center_hz) > 384:
                continue  # edge atoms are clipped, not pure modulates
            carrier = np.exp(2j * np.pi * ch.center_hz * m / n)
            ref = np.array([np.vdot(np.roll(carrier * window, k * hop), f)
                            for k in range(ch.frames)])
            np.testing.assert_allclose(coeffs.data[l], ref, rtol=0,
                                       atol=1e-10 * np.abs(ref).max())

    def test_direct_correlation_reference(self):
        """stft_reference recomputes every coefficient as an explicit
        dot product; both paths must agree to rounding."""
        grid = SignalGrid(1024, 8000.0)
        sys = build_system(erb_warp(), bump_prototype(0.9), 1.0, grid)
        f = np.fft.ifft(RNG.standard_normal(1024) + 1j * RNG.standard_normal(1024))
        fast = analyze(f, sys)
        slow = stft_reference(f, sys)
        assert coefficient_deviation(fast, slow) < 1e-12


class TestWaveletIdentity:
    def test_log_warp_atoms_are_dilates(self):
        """For the log warp the sampled responses obey the wavelet
        scaling g_x(xi) = x^{-1/2} g_1(xi / x) exactly."""
        grid = SignalGrid(4096, 16000.0)
        warp = log_warp()
        theta = gaussian_prototype(1.0)
        xi = grid.bin_freqs()
        pos = xi > 0
        for x in (50.0, 341.7, 2000.0, 6500.0):
            atom = build_atom(warp, theta, x, grid, truncation=0.0)
            expected = np.zeros(grid.length)
            expected[pos] = theta.eval(np.log(xi[pos] / x)) / np.sqrt(x)
            np.testing.assert_allclose(atom.dense(grid.length), expected,
                                       rtol=1e-12, atol=1e-300)


class TestMoyal:
    def test_residual_small_and_decreasing(self):
        grid = SignalGrid(4096, 16000.0)
        warp = erb_warp()
        rng = np.random.default_rng(7)
        coarse = build_system(warp, bump_prototype(0.9), 0.5, grid)
        idx = coarse.interior_bins()

        def mk():
            fh = np.zeros(4096, complex)
            fh[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
            return np.fft.ifft(fh)

        f1, f2 = mk(), mk()
        scale = abs(np.vdot(f2, f1) / 16000.0)
        res = [moyal_residual(f1, f2, build_system(warp, bump_prototype(0.9),
                                                   d, grid))
               for d in (0.5, 0.25, 0.125)]
        assert res[0] < 0.05 * scale
        assert res[0] > res[1] > res[2]

    def test_diagonal_case_matches_energy(self):
        sys = _erb_system()
        f = _interior_signal(sys)
        res = moyal_residual(f, f, sys)
        energy = (np.linalg.norm(f) ** 2 / 16000.0) * l2_norm(sys.theta) ** 2
        assert res < 0.05 * energy

    def test_two_prototype_pairing(self):
        grid = SignalGrid(4096, 16000.0)
        warp = erb_warp()
        s1 = build_system(warp, bump_prototype(0.9), 0.25, grid)
        s2 = build_system(warp, bump_prototype(0.7), 0.25, grid)
        rng = np.random.default_rng(11)
        idx = s1.interior_bins()
        fh = np.zeros(4096, complex)
        fh[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        f1 = np.fft.ifft(fh)
        fh2 = np.zeros(4096, complex)
        fh2[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        f2 = np.fft.ifft(fh2)
        res = moyal_residual(f1, f2, s1, s2)
        scale = abs(np.vdot(f2, f1) / 16000.0
                    * admissibility_inner_product(s2.theta, s1.theta))
        assert res < 0.05 * scale

    def test_warp_parameter_mismatch_rejected(self):
        """Same warp kind and channel count, centres up to ~15 Hz apart."""
        grid = SignalGrid(4096, 16000.0)
        s1 = build_system(erb_warp(), bump_prototype(0.9), 0.5, grid)
        s2 = build_system(erb_warp(c1=9.27), bump_prototype(0.9), 0.5, grid)
        assert len(s1.channels) == len(s2.channels)
        f = _interior_signal(s1)
        with pytest.raises(ShapeError):
            moyal_residual(f, f, s1, s2)

    def test_layout_mismatch_rejected(self):
        s1 = _erb_system(delta=0.5)
        s2 = _erb_system(delta=0.25)
        f = _interior_signal(s1)
        with pytest.raises(ShapeError):
            moyal_residual(f, f, s1, s2)
