"""Analysis/synthesis round trips, reference cross-checks, Moyal pairing."""

import heapq
import os
import subprocess
import threading
import time

import numpy as np
import pytest

from sys import executable, getswitchinterval, setswitchinterval

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from warpft import (CapabilityError, ConfigError, IllConditionedError,
                    NotPainlessError, ShapeError, WarpFTError,
                    alpha_like_warp, bump_prototype, custom_warp, erb_warp,
                    gaussian_prototype, linear_warp, log_warp,
                    power_law_warp)
from warpft import system as system_module
from warpft import transform as transform_module
from warpft.discretization import frame_bounds, frame_bounds_painless
from warpft.prototype import (PROTOTYPE_FAMILIES, admissibility_inner_product,
                              hann_prototype, l2_norm,
                              prototype_from_params)
from warpft.system import (LANE_MIN_COEFFICIENTS, Coefficients, SignalGrid,
                           build_atom, build_system)
from warpft.warping import WARP_FAMILIES
from warpft.transform import (CHUNK_ROWS, _fold, _unfold,
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
# one frame count shared by every channel (and more than CHUNK_ROWS of them)
GROUPED_SYSTEMS["one-group"] = _linear_system
# a log bank one octave per channel: no two channels share a frame count
GROUPED_SYSTEMS["no-shared-group"] = lambda: build_system(
    log_warp(), bump_prototype(0.9), np.log(2.0), SignalGrid(1024, 16000.0))


class TestGroupedCore:
    def test_group_shapes(self):
        one = GROUPED_SYSTEMS["one-group"]()
        assert len(one.frame_groups()) == 1
        assert len(one.channels) > CHUNK_ROWS
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


# -- the grouped core as it ran before the flat bank layout: one bincount
# fold per channel into its group's block, and one spread per channel


def _grouped_fold(fhat, system):
    data = [None] * len(system.channels)
    for frames, hop, members in system.frame_groups():
        blk = np.empty((len(members), frames), dtype=complex)
        for row, l in zip(blk, members):
            atom = system.atoms[l]
            prod = fhat[atom.support] * atom.values
            residue = atom.support & (frames - 1)
            row.real = np.bincount(residue, prod.real, frames)
            row.imag = np.bincount(residue, prod.imag, frames)
            data[l] = row
        np.fft.ifft(blk, axis=1, out=blk)
        blk *= 1.0 / hop
    return data


def _grouped_unfold(data, system):
    out = np.zeros(system.grid.length, dtype=complex)
    for frames, _, members in system.frame_groups():
        for start in range(0, len(members), 8):
            chunk = members[start:start + 8]
            blk = np.array([data[l] for l in chunk], dtype=complex)
            np.fft.fft(blk, axis=1, out=blk)
            for spread, l in zip(blk, chunk):
                atom = system.atoms[l]
                out[atom.support] += (spread[atom.support & (frames - 1)]
                                      * atom.values)
    return out


def _grouped_synthesize(coeffs, system):
    covered, profile, interior_covered = system.covered_bins()
    if not interior_covered:
        raise IllConditionedError("no covered interior")
    num = _grouped_unfold(coeffs.data, system)
    fhat = np.zeros_like(num)
    fhat[covered] = num[covered] / profile
    for bins, inverses in system.fiber_inverses():
        fhat[bins] = (inverses @ num[bins][..., None])[..., 0]
    return np.fft.ifft(fhat)


def _assert_bits(got, ref):
    """Equal values and equal bits (which also tells -0.0 from 0.0)."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _resampled_gaussian_system():
    """An identity warp whose gaussian atoms partly keep a guard bin in
    the first sampling round, so the bank samples them again with the
    radius doubled (counted through the inverse's calls)."""
    calls = []

    def inverse(s):
        calls.append(np.size(s))
        return np.asarray(s, dtype=float)

    warp = custom_warp(lambda t: t, fn_inverse=inverse,
                       fn_derivative=np.ones_like)
    sys = build_system(warp, gaussian_prototype(0.05), 1.25,
                       SignalGrid(256, 256.0))
    assert 0 < calls[-1] == calls[-2] < calls[-3] == len(sys.channels)
    return sys


def _interleaved_system(time_scale, length=1024):
    """A warp whose slope swings between 0.2 and 1.8: the channel
    bandwidths rise and fall, so the frame-count groups interleave."""
    p = 40.0
    warp = custom_warp(lambda t: t + 0.8 * p * np.sin(t / p),
                       fn_derivative=lambda t: 1.0 + 0.8 * np.cos(t / p))
    sys = build_system(warp, bump_prototype(10.8), 12.0,
                       SignalGrid(length, 1024.0), time_scale=time_scale)
    assert any(ls != list(range(ls[0], ls[-1] + 1))
               for _, _, ls in sys.frame_groups())
    return sys


ORACLE_SYSTEMS = dict(SYSTEMS)
ORACLE_SYSTEMS["erb-stream"] = lambda: build_system(
    erb_warp(9.265, 228.8), bump_prototype(0.9), 0.5,
    SignalGrid(1 << 16, 16000.0))
ORACLE_SYSTEMS["erb-r2-16384"] = lambda: build_system(
    erb_warp(9.265, 228.8), bump_prototype(2.0), 0.5,
    SignalGrid(1 << 14, 16000.0))
ORACLE_SYSTEMS["resampled-gaussian"] = _resampled_gaussian_system
ORACLE_SYSTEMS["interleaved"] = lambda: _interleaved_system(1.0 / 1024)
ORACLE_SYSTEMS["interleaved-fibers"] = lambda: _interleaved_system(1.0 / 256)


class TestFlatLayoutOracle:
    """The chunked core on the flat bank layout gives the grouped core's
    bits: coefficients, the adjoint, the frame operator and synthesis,
    painless or solved on fibers."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_bitwise_equal_to_grouped_core(self, name):
        sys = ORACLE_SYSTEMS[name]()
        n = sys.grid.length
        rng = np.random.default_rng(37)
        f = _random_signal(n, rng)
        fhat = np.fft.fft(f)
        coeffs = analyze(f, sys)
        ref = _grouped_fold(fhat, sys)
        for got, want in zip(coeffs.data, ref, strict=True):
            _assert_bits(got, want)
        c = Coefficients([_random_signal(ch.frames, rng)
                          for ch in sys.channels], sys.channel_positions(),
                         sys.hop_seconds(), n)
        _assert_bits(adjoint(c, sys), np.fft.ifft(_grouped_unfold(c.data, sys)))
        _assert_bits(apply_frame_operator(f, sys),
                     np.fft.ifft(_grouped_unfold(ref, sys)))
        try:
            want = _grouped_synthesize(coeffs, sys)
        except WarpFTError as exc:
            with pytest.raises(type(exc)):
                synthesize(coeffs, sys, iterative=True)
            return
        _assert_bits(synthesize(coeffs, sys, iterative=True), want)

    def test_layout_views_the_bank(self):
        """Each chunk's entries are its channels' atoms end to end, as
        views of the one stored bank, and each slot is the entry's row
        within the chunk times the frame count plus its residue."""
        sys = ORACLE_SYSTEMS["interleaved"]()
        groups, position = sys.bank_layout()
        assert sys.bank_layout()[0] is groups
        rows = []
        for frames, _, members, chunks in groups:
            assert [c[0].start for c in chunks] == list(
                range(0, len(members), CHUNK_ROWS))
            for part, support, values, slot in chunks:
                atoms = [sys.atoms[l] for l in members[part]]
                assert 0 < len(atoms) <= CHUNK_ROWS
                assert np.array_equal(support, np.concatenate(
                    [a.support for a in atoms]))
                assert np.array_equal(values, np.concatenate(
                    [a.values for a in atoms]))
                row = np.repeat(np.arange(len(atoms)),
                                [a.support_bins for a in atoms])
                assert np.array_equal(slot, row * frames + support % frames)
                for a in atoms:
                    assert np.shares_memory(a.values, values)
                    assert np.shares_memory(a.support, support)
            rows += members
        assert [rows[p] for p in position] == list(
            range(len(sys.channels)))


# -- two lanes: banks of at least LANE_MIN_COEFFICIENTS coefficients, run
# with lanes forced on and off by setting the usable-CPU count

LANE_SYSTEMS = {
    "erb-stream": ORACLE_SYSTEMS["erb-stream"],
    "erb-r2-32768": lambda: build_system(
        erb_warp(9.265, 228.8), bump_prototype(2.0), 0.5,
        SignalGrid(1 << 15, 16000.0)),
    "interleaved-16384": lambda: _interleaved_system(1.0 / 1024, 1 << 14),
}


class _CountingWorker:
    """The lane worker, counting what is handed to it."""

    def __init__(self, worker):
        self.worker = worker
        self.calls = 0

    def submit(self, fn):
        self.calls += 1
        return self.worker.submit(fn)


@pytest.fixture
def worker(monkeypatch):
    spy = _CountingWorker(transform_module._worker())
    monkeypatch.setattr(transform_module, "_worker", lambda: spy)
    return spy


def _run_all(sys, f, c):
    """Every map built on the lanes, on signal ``f`` and coefficients ``c``."""
    fhat = np.fft.fft(f)
    out = {"fold": _fold(fhat, sys), "unfold": [_unfold(c.data, sys)],
           "analyze": analyze(f, sys).data, "adjoint": [adjoint(c, sys)],
           "frame_operator": [apply_frame_operator(f, sys)]}
    try:
        out["synthesize"] = [synthesize(c, sys, iterative=True)]
    except WarpFTError as exc:
        out["synthesize"] = type(exc)
    return out


def _env_with_src():
    """The environment, with this warpft first on the import path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(transform_module.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


class TestLanes:
    """Two lanes give the bits of one, and run only on large banks with
    more than one usable CPU."""

    @pytest.mark.parametrize("name", sorted(LANE_SYSTEMS))
    def test_bitwise_equal_to_one_lane(self, name, monkeypatch, worker):
        sys = LANE_SYSTEMS[name]()
        n = sys.grid.length
        groups = sys.frame_groups()
        assert sum(len(ls) * m for m, _, ls in groups) >= LANE_MIN_COEFFICIENTS
        assert 0 < sys.lane_split() < len(groups)
        rng = np.random.default_rng(53)
        f = _random_signal(n, rng)
        c = Coefficients([_random_signal(ch.frames, rng)
                          for ch in sys.channels], sys.channel_positions(),
                         sys.hop_seconds(), n)
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 1)
        one = _run_all(sys, f, c)
        assert worker.calls == 0
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 2)
        two = _run_all(sys, f, c)
        # fold, unfold, analyze, adjoint, the frame operator's two and
        # synthesize's, unless it refuses the system first
        refused = isinstance(one["synthesize"], type)
        assert worker.calls == 6 + (not refused)
        assert two.keys() == one.keys()
        if refused:
            assert two.pop("synthesize") is one.pop("synthesize")
        for key in one:
            for got, want in zip(two[key], one[key], strict=True):
                _assert_bits(got, want)
        for got, want in zip(two["fold"], _grouped_fold(np.fft.fft(f), sys),
                             strict=True):
            _assert_bits(got, want)
        _assert_bits(two["unfold"][0], _grouped_unfold(c.data, sys))

    def test_split_balances_fft_cost(self):
        for name in sorted(LANE_SYSTEMS):
            sys = LANE_SYSTEMS[name]()
            cost = [len(ls) * m * np.log2(m) for m, _, ls in sys.frame_groups()]
            half = sum(cost) / 2
            gaps = [abs(sum(cost[:k]) - half) for k in range(1, len(cost))]
            assert gaps[sys.lane_split() - 1] == min(gaps)

    def test_small_banks_and_one_cpu_stay_inline(self, monkeypatch, worker):
        """The README's erb.cfg bank at 2^12 never hands work over, nor
        does the erb-stream bank when one CPU is usable."""
        small = build_system(erb_warp(9.265, 228.8), bump_prototype(0.9),
                             0.5, SignalGrid(4096, 16000.0))
        assert small.lane_split() == 0
        rng = np.random.default_rng(59)
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 2)
        f = _random_signal(small.grid.length, rng)
        _run_all(small, f, analyze(f, small))
        assert worker.calls == 0
        big = LANE_SYSTEMS["erb-stream"]()
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 1)
        f = _random_signal(big.grid.length, rng)
        _run_all(big, f, analyze(f, big))
        assert worker.calls == 0

    def test_no_worker_thread_below_the_cutoff(self):
        """A process whose banks all stay below the cutoff starts no
        thread and imports no executor; importing the transform starts
        no thread either."""
        script = (
            "import sys, threading, numpy as np\n"
            "from warpft import analyze, synthesize, erb_warp, bump_prototype\n"
            "from warpft.system import SignalGrid, build_system\n"
            "assert threading.active_count() == 1\n"
            "s = build_system(erb_warp(9.265, 228.8), bump_prototype(0.9), "
            "0.5, SignalGrid(4096, 16000.0))\n"
            "f = np.random.default_rng(1).standard_normal(4096)\n"
            "synthesize(analyze(f, s), s)\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1 False"

    def test_concurrent_callers(self, monkeypatch):
        """Four threads (more than the cores) share the one worker and a
        system whose layout none has built yet, switching often: every
        result keeps the bits of one caller alone."""
        make = LANE_SYSTEMS["erb-stream"]
        ref = make()
        f = _random_signal(ref.grid.length, np.random.default_rng(67))
        want = analyze(f, ref)
        want_back = adjoint(want, ref)
        sys = make()
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 2)
        errors = []

        def work():
            try:
                for _ in range(3):
                    got = analyze(f, sys)
                    for a, b in zip(got.data, want.data, strict=True):
                        _assert_bits(a, b)
                    _assert_bits(adjoint(got, sys), want_back)
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = getswitchinterval()
        setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_lanes(self):
        """A child forked after the lanes ran inherits no worker thread;
        it starts its own instead of waiting on the parent's."""
        script = (
            "import os, signal, numpy as np\n"
            "from warpft import transform as t, erb_warp, bump_prototype\n"
            "from warpft.system import SignalGrid, build_system\n"
            "t._USABLE_CPUS = 2\n"
            "s = build_system(erb_warp(9.265, 228.8), bump_prototype(0.9), "
            "0.5, SignalGrid(1 << 16, 16000.0))\n"
            "f = np.random.default_rng(1).standard_normal(1 << 16)\n"
            "want = t.analyze(f, s).data\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)\n"
            "    got = t.analyze(f, s).data\n"
            "    os._exit(0 if all(map(np.array_equal, got, want)) else 3)\n"
            "print(os.waitpid(pid, 0)[1])\n")
        proc = subprocess.run([executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("where", ["worker", "caller"])
    @pytest.mark.parametrize("stage", ["fold", "unfold"])
    def test_exception_waits_for_the_worker(self, where, stage, monkeypatch):
        """A lane's exception reaches the caller, and only once the
        worker's lane has finished."""
        sys = LANE_SYSTEMS["erb-stream"]()
        monkeypatch.setattr(transform_module, "_USABLE_CPUS", 2)
        first = sys.bank_layout()[0][:sys.lane_split()]
        # the FFTs of the worker's lane: one per group, or one per chunk
        lane = (len(first) if stage == "fold"
                else sum(len(g[3]) for g in first))
        name = "ifft" if stage == "fold" else "fft"
        real = getattr(np.fft, name)
        finished = []

        def fft(*args, **kwargs):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker:
                time.sleep(0.2)
                finished.append(True)
            if on_worker == (where == "worker"):
                raise RuntimeError(where)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, fft)
        f = _random_signal(sys.grid.length, np.random.default_rng(61))
        with pytest.raises(RuntimeError, match=where):
            if stage == "fold":
                _fold(np.fft.fft(f), sys)
            else:
                _unfold([np.zeros(ch.frames, complex) for ch in sys.channels],
                        sys)
        # the worker's lane ended (at its first FFT when it raised)
        # before the caller returned, and nothing of it ran later
        assert len(finished) == (1 if where == "worker" else lane)
        time.sleep(0.3)
        assert len(finished) == (1 if where == "worker" else lane)


def _parent_sample_atoms(warp, theta, xs, grid, truncation):
    """The per-atom sampler that the flat bank replaced: a list of
    ``(values, support)``, one per centre (its final copy of the rounds'
    stores into one, which moved no value, is left out)."""
    x = np.array(xs, dtype=float)
    fx = warp.eval(x)
    scale = np.sqrt(warp.derivative(x))
    u0 = fx + theta.center
    peak_hz = x if theta.center == 0 else warp.inverse(u0)
    k_min, k_max = system_module._active_bins(grid, warp.domain)
    bin_hz = grid.bin_hz
    lo_edge, hi_edge = k_min * bin_hz, k_max * bin_hz

    def bin_of(hz, rounding):
        hz = np.where(hz >= lo_edge, np.minimum(hz, hi_edge), lo_edge)
        return np.clip(rounding(hz / bin_hz), k_min, k_max).astype(np.int64)

    k_peak_lo = bin_of(peak_hz, np.floor)
    k_peak_hi = bin_of(peak_hz, np.ceil)
    radius = float(theta.support_radius(
        truncation if 0 < truncation < 1 else np.finfo(float).tiny))
    atoms = [None] * len(xs)
    todo = np.arange(len(xs))
    while todo.size:
        k_lo, k_hi = np.full(todo.size, k_min), np.full(todo.size, k_max)
        if np.isfinite(radius):
            with np.errstate(over="ignore", invalid="ignore"):
                lo_hz = warp.inverse(u0[todo] - radius)
                hi_hz = warp.inverse(u0[todo] + radius)
            k_lo = np.clip(bin_of(lo_hz, np.ceil) - 1, k_min, k_peak_lo[todo])
            k_hi = np.clip(bin_of(hi_hz, np.floor) + 1, k_peak_hi[todo], k_max)
        sizes = k_hi - k_lo + 1
        block = (np.cumsum(sizes) - sizes) // system_module.SAMPLE_CHUNK
        cuts = np.flatnonzero(np.diff(block, prepend=-1))
        redo = []
        for a, b in zip(cuts.tolist(), cuts[1:].tolist() + [todo.size]):
            ids, lo, hi, size = todo[a:b], k_lo[a:b], k_hi[a:b], sizes[a:b]
            starts = np.cumsum(size) - size
            k = np.arange(starts[-1] + size[-1]) + np.repeat(lo - starts, size)
            vals = np.repeat(scale[ids], size) * theta.eval(
                warp.eval(grid.signed_bin_freqs(k)) - np.repeat(fx[ids], size))
            peak = np.maximum.reduceat(np.abs(vals), starts)
            if truncation:
                vals[np.abs(vals) < np.repeat(truncation * peak, size)] = 0.0
            done = (((lo == k_min) | (vals[starts] == 0.0))
                    & ((hi == k_max) | (vals[starts + size - 1] == 0.0)))
            redo.append(ids[~done])
            keep = (vals != 0.0) & np.repeat(done, size)
            ends_kept = np.cumsum(np.add.reduceat(keep, starts, dtype=np.intp))
            k = k[keep]
            vals = vals[keep]
            support = np.remainder(k, grid.length)
            for j in np.flatnonzero(done).tolist():
                seg = slice(ends_kept[j - 1] if j else 0, ends_kept[j])
                wrap = (np.count_nonzero(k[seg] < 0)
                        if lo[j] < 0 <= hi[j] else 0)
                if wrap:
                    vals[seg] = np.roll(vals[seg], -wrap)
                    support[seg] = np.roll(support[seg], -wrap)
                atoms[ids[j]] = (vals[seg], support[seg])
        todo = np.concatenate(redo)
        radius *= 2.0
    return atoms


def _parent_painless_check(system):
    """The painless check as it read the per-atom list, in channel order."""
    sizes = np.array([a.support_bins for a in system.atoms])
    sup = sizes * system.grid.bin_hz
    lim = np.array([1.0 / ch.tau_seconds for ch in system.channels])
    frames = np.array([ch.frames for ch in system.channels])
    offsets = np.cumsum(frames) - frames
    residues = (np.concatenate([a.support for a in system.atoms])
                % np.repeat(frames, sizes) + np.repeat(offsets, sizes))
    alias = np.maximum.reduceat(
        np.bincount(residues, minlength=int(frames.sum())), offsets) <= 1
    bad = tuple(np.flatnonzero((sup > lim) | ~alias).tolist())
    return len(bad) == 0, sup, lim, alias, bad


def _parent_frame_diag(system):
    hops = [ch.hop_samples for ch in system.channels]
    sizes = [a.support_bins for a in system.atoms]
    return np.bincount(
        np.concatenate([a.support for a in system.atoms]),
        np.concatenate([a.values for a in system.atoms]) ** 2
        / np.repeat(hops, sizes), minlength=system.grid.length)


def _parent_frame_fibers(system, bins):
    """``frame_fibers`` on the entries that ``_aliased_entries`` gathered
    and sorted over all bins, filtered to ``bins`` afterwards."""
    ls = np.flatnonzero(~system.painless_report.alias_free).tolist()
    sizes = [system.atoms[l].support_bins for l in ls]
    j = np.concatenate([np.zeros(0, dtype=np.int64)]
                       + [system.atoms[l].support for l in ls])
    g = np.concatenate([system.atoms[l].values for l in ls] + [[]])
    hop = np.repeat([system.channels[l].hop_samples for l in ls], sizes)
    n = system.grid.length
    cls = np.repeat(ls, sizes) * n + j % (n // hop)
    order = np.argsort(cls, kind="stable")
    j, g, hop, cls = (v[order] for v in (j, g, hop, cls))
    inside = np.zeros(n, dtype=bool)
    inside[bins] = True
    j, g, hop, cls = (v[inside[j]] for v in (j, g, hop, cls))
    link = np.flatnonzero(cls[1:] == cls[:-1])
    if link.size == 0:
        return bins, []
    a = np.concatenate([j[link], j[link + 1]])
    b = np.concatenate([j[link + 1], j[link]])
    label, prev = np.arange(n), None
    while not np.array_equal(label, prev):
        prev = label.copy()
        np.minimum.at(label, prev[a], prev[b])
        while not np.array_equal(label[label], label):
            label = label[label]
    size = np.bincount(label[bins], minlength=n)[label]
    order = bins[np.lexsort((bins, label[bins], size[bins]))]
    singles, multi = order[size[order] == 1], order[size[order] > 1]
    at, row = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    at[multi] = np.arange(multi.size)
    row[multi] = np.cumsum(size[multi]) - size[multi]
    pos = at - at[label]
    start = np.flatnonzero(np.diff(cls, prepend=-1))
    count = np.diff(np.append(start, cls.size))
    reps = np.repeat(count, count)
    r = np.repeat(np.arange(cls.size), reps)
    c = np.arange(r.size) + np.repeat(
        np.repeat(start, count) - np.cumsum(reps) + reps, reps)
    r, c = r[size[j[r]] > 1], c[size[j[r]] > 1]
    flat = np.bincount(row[j[r]] + pos[j[c]], g[r] * g[c] / hop[r],
                       int(np.sum(size[multi])))
    flat[row[multi] + pos[multi]] = _parent_frame_diag(system)[multi]
    cuts = np.flatnonzero(np.diff(size[multi])) + 1
    blocks = zip(np.split(multi, cuts), np.split(flat, row[multi[cuts]]))
    return singles, [(b.reshape(-1, size[b[0]]),
                      s.reshape(-1, size[b[0]], size[b[0]])) for b, s in blocks]


def _dc_crossing_system():
    """A full-line bank whose windows around DC store their negative
    bins after the others."""
    sys = build_system(linear_warp(1.0), hann_prototype(40.0), 24.0,
                       SignalGrid(512, 512.0), time_scale=1.0 / 1024)
    n = sys.grid.length
    assert any(a.support[0] < n // 4 and a.support[-1] > 3 * n // 4
               for a in sys.atoms)
    return sys


def _resampled_interleaved_system():
    """The interleaved warp with a gaussian narrower than a bin: atoms of
    several sizes are sampled again in a second and a third round."""
    p = 40.0
    fwd = lambda t: t + 0.8 * p * np.sin(t / p)
    slope = lambda t: 1.0 + 0.8 * np.cos(t / p)
    base, calls = custom_warp(fwd, fn_derivative=slope), []

    def inverse(s):
        calls.append(np.size(s))
        return base.inverse(s)

    sys = build_system(custom_warp(fwd, fn_inverse=inverse,
                                   fn_derivative=slope),
                       gaussian_prototype(0.05), 3.0, SignalGrid(256, 256.0))
    # band edges and centres, then a (lo, hi) pair of calls per round
    assert len(calls) == 8 and calls[-1] < calls[-3] < len(sys.channels)
    assert len(set(sys.bank[2].tolist())) > 1
    return sys


BANK_SYSTEMS = dict(FIBER_SYSTEMS)
BANK_SYSTEMS["erb-r2-16384"] = ORACLE_SYSTEMS["erb-r2-16384"]
BANK_SYSTEMS["interleaved"] = ORACLE_SYSTEMS["interleaved"]
BANK_SYSTEMS["resampled-gaussian"] = _resampled_gaussian_system
BANK_SYSTEMS["resampled-interleaved"] = _resampled_interleaved_system
BANK_SYSTEMS["dc-crossing"] = _dc_crossing_system


class TestSingleBankOracle:
    """The one stored bank, the groups computed at build and the fibers
    read from the bank give the bits of the per-atom code they
    replaced, and the build integrates the prototype norm and groups
    the channels once."""

    @pytest.mark.parametrize("name", sorted(BANK_SYSTEMS))
    def test_equal_to_per_atom_code(self, name):
        sys = BANK_SYSTEMS[name]()
        order = [l for _, _, ls in sys.frame_groups() for l in ls]
        ref = _parent_sample_atoms(
            sys.warp, sys.theta, [sys.channels[l].center_hz for l in order],
            sys.grid, sys.truncation)
        values, support, sizes = sys.bank
        assert sizes.tolist() == [s.size for _, s in ref]
        assert np.array_equal(values, np.concatenate([v for v, _ in ref]))
        assert np.array_equal(support, np.concatenate([s for _, s in ref]))
        for l, (v, s) in zip(order, ref):
            atom = sys.atoms[l]
            assert np.array_equal(atom.values, v)
            assert np.array_equal(atom.support, s)
            assert atom.center_hz == sys.channels[l].center_hz
            assert np.shares_memory(atom.values, values)

        report = sys.painless_report
        want = _parent_painless_check(sys)
        assert report.painless == want[0]
        _assert_bits(report.support_hz, want[1])
        _assert_bits(report.limit_hz, want[2])
        assert np.array_equal(report.alias_free, want[3])
        assert report.violations == want[4]

        _assert_bits(sys.frame_diag(), _parent_frame_diag(sys))
        for bins in (sys.interior_bins(), sys.covered_bins()[0]):
            try:
                want = _parent_frame_fibers(sys, bins)
            except CapabilityError:
                with pytest.raises(CapabilityError):
                    sys.frame_fibers(bins)
                continue
            singles, fibers = sys.frame_fibers(bins)
            assert np.array_equal(singles, want[0])
            assert len(fibers) == len(want[1])
            for (b, s), (wb, ws) in zip(fibers, want[1]):
                assert np.array_equal(b, wb)
                _assert_bits(s, ws)

    def test_prototype_norm_integrated_once(self, monkeypatch):
        from warpft import prototype
        calls = []
        integrate = prototype.weighted_l2_norm

        def counting(*args):
            calls.append(args[0])
            return integrate(*args)

        monkeypatch.setattr(prototype, "weighted_l2_norm", counting)
        prototype.l2_norm.cache_clear()
        first = _erb_system()
        assert len(calls) == 1
        second = _erb_system()
        assert len(calls) == 1
        assert second.theta == first.theta

    def test_groups_computed_once_per_build(self, monkeypatch):
        calls = []
        frame_groups = system_module._frame_groups

        def counting(channels):
            calls.append(len(channels))
            return frame_groups(channels)

        monkeypatch.setattr(system_module, "_frame_groups", counting)
        sys = _erb_system()
        analyze(_interior_signal(sys), sys)
        assert sys.painless_report.painless
        assert calls == [len(sys.channels)]


class TestAllocation:
    """The round trip copies no input and returns fresh memory."""

    def test_analyze_leaves_input_unchanged(self):
        sys = _erb_system()
        f = _random_signal(sys.grid.length, np.random.default_rng(41))
        before = f.copy()
        analyze(f, sys)
        apply_frame_operator(f, sys)
        _assert_bits(f, before)

    @pytest.mark.parametrize("name", ["erb", "erb-not-painless"])
    def test_synthesize_returns_fresh_memory(self, name):
        sys = SYSTEMS[name]()
        coeffs = analyze(_interior_signal(sys), sys)
        kept = [c.copy() for c in coeffs.data]
        first = synthesize(coeffs, sys, iterative=True)
        cached = [*sys.covered_bins()[:2], sys.frame_diag(),
                  sys.interior_bins(), *(a.values for a in sys.atoms)]
        for _, _, _, chunks in sys.bank_layout()[0]:
            for chunk in chunks:
                cached += chunk[1:]
        for bins, inverses in sys.fiber_inverses():
            cached += [bins, inverses]
        for arr in coeffs.data + cached:
            assert not np.shares_memory(first, arr)
        second = synthesize(coeffs, sys, iterative=True)
        _assert_bits(second, first)
        assert not np.shares_memory(first, second)
        for got, want in zip(coeffs.data, kept):
            _assert_bits(got, want)


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
    and N from 2^8 to 2^12."""
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
    grid = SignalGrid(1 << draw(st.integers(8, 12), label="log2n"), 16000.0)
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
    # three channels, no interior band, a covered profile spanning 5e11:
    # its covered-bin round trip is 4e-12, within the per-bin bound
    @example(bank=(alpha_like_warp(1.0), bump_prototype(5333.333333333333),
                   5333.333333333333, SignalGrid(256, 16000.0),
                   8.789062500000002e-09), seed=0)
    def test_drawn_bank_identities(self, bank, seed):
        """A drawn bank builds or raises ConfigError (too few or too many
        channels, an atom that vanishes on the grid).  When it builds,
        V* is the adjoint of V to rounding, analysis equals the direct
        sliding-window reference (up to N = 2^10; it takes O(N^2) per
        channel), ``_fold`` and ``_unfold`` give the grouped core's bits,
        and the frame bounds bracket the Rayleigh quotient of a signal
        on the fully covered band.  A painless bank reconstructs a
        signal on its covered bins to machine precision on the interior
        band, and on every covered bin ``j`` within ``eps * peak /
        profile[j]`` of the spectrum's peak (the diagonal solve's
        rounding); to 1e-12 in L2 when the covered profile spans at most
        10^4."""
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

        if n <= 1 << 10:
            peak = max(float(np.max(np.abs(d))) for d in vf.data)
            dev = coefficient_deviation(vf, stft_reference(f, sys))
            assert dev <= 1e-10 * peak

        fhat = np.fft.fft(f)
        for got, want in zip(_fold(fhat, sys), _grouped_fold(fhat, sys),
                             strict=True):
            _assert_bits(got, want)
        _assert_bits(_unfold(c, sys), _grouped_unfold(c, sys))

        covered, profile, interior_covered = sys.covered_bins()
        if sys.painless and interior_covered:
            fhat = np.zeros(n, dtype=complex)
            fhat[covered] = _random_signal(covered.size, rng)
            err = np.fft.fft(synthesize(analyze(np.fft.ifft(fhat), sys),
                                        sys)) - fhat
            eps = np.finfo(float).eps
            assert np.all(np.abs(err[covered]) <= 64 * eps * np.abs(fhat).max()
                          * (profile.max() / profile))
            interior = sys.interior_bins()
            assert (np.linalg.norm(err[interior])
                    <= 1e-12 * np.linalg.norm(fhat[interior]))
            if profile.max() <= 1e4 * profile.min():
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
