"""Analysis/synthesis round trips, reference cross-checks, Moyal pairing."""

import heapq
import os
import subprocess
import threading

import numpy as np
import pytest

from sys import executable, getswitchinterval, setswitchinterval

from hypothesis import assume, example, given, settings
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
from warpft.prototype import (PROTOTYPE_FAMILIES, hann_prototype, l2_norm,
                              prototype_from_params)
from warpft.system import (Coefficients, SignalGrid, build_atom,
                           build_system)
from warpft.warping import WARP_FAMILIES
from warpft.transform import (_fold, _unfold,
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
        ref = _unfold(_fold(vhat * (1.0 / n), sys), sys)[idx]
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


def _fiber_matrix(system, bins):
    """``S`` compressed to ``bins`` as a dense matrix, from its fibers."""
    singles, fibers = system.frame_fibers(bins)
    at = np.full(system.grid.length, -1)
    at[bins] = np.arange(bins.size)
    out = np.zeros((bins.size, bins.size))
    out[at[singles], at[singles]] = system.frame_diag()[singles]
    for fbins, blocks in fibers:
        rows = at[fbins]
        out[rows[:, :, None], rows[:, None, :]] = blocks
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
        out = _unfold(_fold(e * (1.0 / n), system), system)
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


def _rows(values, system):
    """The channels' rows of ``values``, laid end to end in channel order."""
    return np.split(values, np.cumsum(system.channels.frames)[:-1])


def _random_coefficients(system, rng):
    """Coefficients drawn channel by channel, in channel order."""
    return Coefficients(
        np.concatenate([_random_signal(ch.frames, rng)
                        for ch in system.channels]),
        system.channels.frames, system.channel_positions(),
        system.hop_seconds(), system.grid.length)


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
# one frame count shared by every channel
GROUPED_SYSTEMS["one-group"] = _linear_system
# a log bank one octave per channel: no two channels share a frame count
GROUPED_SYSTEMS["no-shared-group"] = lambda: build_system(
    log_warp(), bump_prototype(0.9), np.log(2.0), SignalGrid(1024, 16000.0))


def _runs(system):
    """The runs of the system's layout."""
    return system.bank_layout()[0]


def _chunk_channels(system, coeffs):
    """The channels whose coefficients fill the slice ``coeffs``."""
    starts = np.cumsum(system.channels.frames) - system.channels.frames
    return list(range(*np.searchsorted(starts, [coeffs.start, coeffs.stop])))


def _run_channels(system, run):
    """The channels of a run of the layout, in order."""
    return [l for chunk in run[2] for l in _chunk_channels(system, chunk[0])]


def _bound_chunks(system):
    """The chunks a scratch bound of ``CHUNK_SCRATCH`` gives: each run's
    channels in order, ``k`` to a chunk (the last may hold fewer), where
    ``k`` is the most channels whose coefficients, and whose entries
    counted at the run's widest atom, fit the bound, and one at least."""
    cap = system_module.CHUNK_SCRATCH
    chunks = []
    for frames, ls in _runs_by_channel(system):
        widest = max(system.atoms[l].support_bins for l in ls)
        k = max(1, cap // max(frames, widest))
        chunks += [ls[i:i + k] for i in range(0, len(ls), k)]
    return chunks


def _runs_by_channel(system):
    """The maximal stretches of consecutive channels sharing a frame
    count, as ``(frames, channels)`` in channel order."""
    runs = []
    for l, ch in enumerate(system.channels):
        if not runs or runs[-1][0] != ch.frames:
            runs.append((ch.frames, []))
        runs[-1][1].append(l)
    return runs


def _layout_chunks(system):
    """The channels of each chunk of the system's layout, in order."""
    return [_chunk_channels(system, c[0])
            for run in _runs(system) for c in run[2]]


class TestGroupedCore:
    def test_group_shapes(self, monkeypatch):
        """A bank of one frame count is one run, cut into the chunks the
        scratch bound gives (several under a bound below its size, one
        under the default), whether its coefficients or, in the bank
        with more entries than frames, its entries reach the bound; a
        bank whose channels all differ in frame count is a run per
        channel."""
        for cap in (1, 1000, 2000, 1 << 16):
            monkeypatch.setattr(system_module, "CHUNK_SCRATCH", cap)
            one = GROUPED_SYSTEMS["one-group"]()
            assert len(_frame_groups(one.channels)) == len(_runs(one)) == 1
            assert _layout_chunks(one) == _bound_chunks(one)
            count = len(_runs(one)[0][2])
            assert (count == 1) == (cap == 1 << 16)
            assert count == len(one.channels) or cap > 1
            wide = GROUPED_SYSTEMS["linear-not-painless"]()
            assert len(_runs(wide)) == 1
            assert wide.bank[2].min() > wide.channels.frames[0]
            assert _layout_chunks(wide) == _bound_chunks(wide)
            assert (len(_layout_chunks(wide)) == 1) == (cap == 1 << 16)
        lone = GROUPED_SYSTEMS["no-shared-group"]()
        assert all(len(ls) == 1 for _, _, ls in _frame_groups(lone.channels))
        assert all(len(_run_channels(lone, run)) == 1 for run in _runs(lone))
        assert len(_runs(lone)) == len(lone.channels) > 2

    def test_whole_run_chunks(self):
        """Under the default bound the README bank (N = 2^12) takes one
        chunk, so one FFT, per run; at N = 2^16 a run is cut so that the
        scratch holds at most 2^16 coefficients and entries."""
        readme = _erb_system()
        assert len(_runs(readme)) == len(_layout_chunks(readme)) == 11
        assert _layout_chunks(readme) == _bound_chunks(readme)
        stream = ORACLE_SYSTEMS["erb-stream"]()
        runs, size, entries = stream.bank_layout()
        assert len(runs) == 11 < len(_layout_chunks(stream))
        assert _layout_chunks(stream) == _bound_chunks(stream)
        assert size == 1 << 16 and entries <= 1 << 16

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_groups_partition_channels(self, name):
        """The runs cut the channels, in channel order, into maximal
        stretches that share a frame count, and each run's block holds
        its channels' coefficients in the channel-order store."""
        sys = GROUPED_SYSTEMS[name]()
        runs = _runs(sys)
        ends = np.cumsum(sys.channels.frames).tolist()
        seen = []
        for frames, block, chunks in runs:
            members = _run_channels(sys, (frames, block, chunks))
            assert members == list(range(members[0], members[-1] + 1))
            assert block == slice(ends[members[0]] - frames, ends[members[-1]])
            for l in members:
                ch = sys.channels[l]
                assert ch.frames == frames
                assert frames * ch.hop_samples == sys.grid.length
            seen += members
        assert seen == list(range(len(sys.channels)))
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_fold_equals_per_channel_fold(self, name):
        sys = GROUPED_SYSTEMS[name]()
        fhat = _random_signal(sys.grid.length, np.random.default_rng(29))
        got = _rows(_fold(fhat * (1.0 / fhat.size), sys), sys)
        ref = _per_channel_fold(fhat, sys)
        assert len(got) == len(ref)
        for l, (g, r) in enumerate(zip(got, ref)):
            assert g.shape == r.shape and np.array_equal(g, r), l

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_unfold_and_adjoint_match_per_channel(self, name):
        """Each bin sums its channels in channel order, as the per-channel
        adjoint does: the same bits."""
        sys = GROUPED_SYSTEMS[name]()
        rng = np.random.default_rng(31)
        c = _random_coefficients(sys, rng)
        _assert_bits(_unfold(c.values, sys), _per_channel_unfold(c.data, sys))
        coeffs = analyze(np.fft.ifft(_random_signal(sys.grid.length, rng)),
                         sys)
        _assert_bits(adjoint(coeffs, sys),
                     np.fft.ifft(_per_channel_unfold(coeffs.data, sys)))


# -- the grouped core as it ran before the flat bank layout: one bincount
# fold per channel into its group's block, and one spread per channel


def _frame_groups(channels):
    """The channels grouped by frame lattice, as the bank was laid out
    before it was kept in channel order: ``(frames, hop, channel
    indices)`` per distinct frame count, in order of first appearance,
    each index list in channel order."""
    groups = {}
    for l, key in enumerate(zip(channels.frames.tolist(),
                                channels.hop_samples.tolist())):
        groups.setdefault(key, []).append(l)
    return [(m, hop, ls) for (m, hop), ls in groups.items()]


def _groups_interleave(system):
    """Whether some frame-count group is not one stretch of channels, so
    that summing group by group differs from channel order."""
    return any(ls != list(range(ls[0], ls[-1] + 1))
               for _, _, ls in _frame_groups(system.channels))


def _grouped_fold(fhat, system):
    data = [None] * len(system.channels)
    for frames, hop, members in _frame_groups(system.channels):
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
    for frames, _, members in _frame_groups(system.channels):
        for start in range(0, len(members), 8):
            chunk = members[start:start + 8]
            blk = np.array([data[l] for l in chunk], dtype=complex)
            np.fft.fft(blk, axis=1, out=blk)
            for spread, l in zip(blk, chunk):
                atom = system.atoms[l]
                out[atom.support] += (spread[atom.support & (frames - 1)]
                                      * atom.values)
    return out


def _synthesize_with(unfold, coeffs, system):
    """Synthesis with the adjoint ``unfold``, solved as ``synthesize``
    solves it."""
    covered, profile, interior_covered = system.covered_bins()
    if not interior_covered:
        raise IllConditionedError("no covered interior")
    num = unfold(coeffs.data, system)
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
    assert _groups_interleave(sys)
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


def _adjoint_of(unfold, data, system):
    """``V* c`` in time, from the adjoint ``unfold``."""
    return np.fft.ifft(unfold(data, system))


def _outcome(fn, *args):
    """``fn(*args)``, or the class of the warpft error it raised."""
    try:
        return fn(*args)
    except WarpFTError as exc:
        return type(exc)


def _assert_adjoint_oracles(got, through, arg, system):
    """``got`` is ``through(_unfold, arg, system)``, or the class of what
    that raised.  It has the bits of ``through`` on the per-channel
    adjoint; it lies within 1e-14 of its peak of ``through`` on the
    grouped adjoint, and has its bits too when the groups do not
    interleave."""
    if isinstance(got, type):   # the oracles refuse the system alike
        with pytest.raises(got):
            through(_per_channel_unfold, arg, system)
        return
    _assert_bits(got, through(_per_channel_unfold, arg, system))
    grouped = through(_grouped_unfold, arg, system)
    assert np.abs(got - grouped).max() <= 1e-14 * np.abs(grouped).max()
    if not _groups_interleave(system):
        _assert_bits(got, grouped)


class TestFlatLayoutOracle:
    """The chunked core on the channel-order bank gives the grouped
    core's coefficients bit for bit, and the adjoint, the frame operator
    and synthesis (painless or solved on fibers) of the per-channel
    adjoint, which sums each bin in channel order."""

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
        c = _random_coefficients(sys, rng)
        _assert_bits(_unfold(c.values, sys), _per_channel_unfold(c.data, sys))
        _assert_adjoint_oracles(adjoint(c, sys), _adjoint_of, c.data, sys)
        _assert_adjoint_oracles(apply_frame_operator(f, sys), _adjoint_of,
                                ref, sys)
        _assert_adjoint_oracles(_outcome(synthesize, coeffs, sys, True),
                                _synthesize_with, coeffs, sys)

    def test_layout_views_the_bank(self, monkeypatch):
        """Each chunk's entries are its channels' atoms end to end, as
        views of the one stored bank, each slot is the entry's row
        within the chunk times the frame count plus its residue, and the
        chunks' coefficient slices lie end to end in channel order.  A
        chunk holds as many channels of its run as fit the scratch
        bound, one at least.  The scratch sizes are its largest
        chunk's.  Under the default bound and one that cuts runs."""
        for cap in (300, 1 << 16):
            monkeypatch.setattr(system_module, "CHUNK_SCRATCH", cap)
            self._layout_views_the_bank(cap)

    @staticmethod
    def _layout_views_the_bank(cap):
        sys = ORACLE_SYSTEMS["interleaved"]()
        layout = sys.bank_layout()
        assert sys.bank_layout() is layout
        runs, size, entries = layout
        assert len(runs) > len(_frame_groups(sys.channels))
        firsts = [ls[0] for ls in _bound_chunks(sys)]
        assert (len(firsts) > len(runs)) == (cap < 1 << 16)
        channels, coefficients = [], 0
        for frames, block, chunks in runs:
            members = _run_channels(sys, (frames, block, chunks))
            assert [_chunk_channels(sys, c[0])[0] for c in chunks] == [
                l for l in firsts if members[0] <= l <= members[-1]]
            assert block.start == coefficients
            for coeffs, support, values, slot in chunks:
                atoms = [sys.atoms[l] for l in _chunk_channels(sys, coeffs)]
                assert len(atoms) == 1 or max(
                    len(atoms) * frames, support.size) <= cap
                assert coeffs == slice(coefficients,
                                       coefficients + len(atoms) * frames)
                coefficients = coeffs.stop
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
            assert block.stop == coefficients
            channels += members
        assert channels == list(range(len(sys.channels)))
        assert coefficients == sys.channels.frames.sum()
        chunks = [c for run in runs for c in run[2]]
        assert size == max(c[0].stop - c[0].start for c in chunks)
        assert entries == max(c[1].size for c in chunks)


# -- banks of at least 2^17 coefficients in many runs, on the one thread
# the transform runs on

LARGE_SYSTEMS = {
    "erb-stream": ORACLE_SYSTEMS["erb-stream"],
    "erb-r2-32768": lambda: build_system(
        erb_warp(9.265, 228.8), bump_prototype(2.0), 0.5,
        SignalGrid(1 << 15, 16000.0)),
    "interleaved-16384": lambda: _interleaved_system(1.0 / 1024, 1 << 14),
}


def _env_with_src():
    """The environment, with this warpft first on the import path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(transform_module.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


class TestOneThread:
    """Large banks run every map on the calling thread, with the bits of
    the grouped and per-channel oracles."""

    @pytest.mark.parametrize("name", sorted(LARGE_SYSTEMS))
    def test_bitwise_equal_to_oracles(self, name):
        """Fold, analysis, unfold, the adjoint, the frame operator and
        synthesis (or its refusal), against the oracles; the scratch
        fits the largest chunk."""
        sys = LARGE_SYSTEMS[name]()
        n = sys.grid.length
        runs, size, entries = sys.bank_layout()
        assert sys.channels.frames.sum() >= 1 << 17 and len(runs) > 1
        chunks = [c for run in runs for c in run[2]]
        assert size == max(c[0].stop - c[0].start for c in chunks)
        assert entries == max(c[1].size for c in chunks)
        rng = np.random.default_rng(53)
        f = _random_signal(n, rng)
        c = _random_coefficients(sys, rng)
        fold = _fold(np.fft.fft(f, norm="forward"), sys)
        _assert_bits(analyze(f, sys).values, fold)
        ref = _grouped_fold(np.fft.fft(f), sys)
        for got, want in zip(_rows(fold, sys), ref, strict=True):
            _assert_bits(got, want)
        _assert_bits(_unfold(c.values, sys), _per_channel_unfold(c.data, sys))
        _assert_adjoint_oracles(adjoint(c, sys), _adjoint_of, c.data, sys)
        _assert_adjoint_oracles(apply_frame_operator(f, sys), _adjoint_of,
                                _rows(fold, sys), sys)
        _assert_adjoint_oracles(_outcome(synthesize, c, sys, True),
                                _synthesize_with, c, sys)

    def test_forward_spectrum_is_the_scaled_spectrum(self):
        """``fft(f, norm="forward")``, the one spectrum analysis takes,
        has the bits of ``fft(f) * (1/N)`` for every grid length from 2^4
        to 2^18; ``1/N`` is a power of two."""
        rng = np.random.default_rng(71)
        for log2n in range(4, 19):
            f = _random_signal(1 << log2n, rng)
            _assert_bits(np.fft.fft(f, norm="forward"),
                         np.fft.fft(f) * (1.0 / (1 << log2n)))

    def test_round_trip_starts_no_thread(self):
        """An ERB round trip at N = 2^16 starts no thread and imports no
        executor; importing the transform starts no thread either."""
        script = (
            "import sys, threading, numpy as np\n"
            "from warpft import analyze, synthesize, erb_warp, bump_prototype\n"
            "from warpft.system import SignalGrid, build_system\n"
            "assert threading.active_count() == 1\n"
            "s = build_system(erb_warp(9.265, 228.8), bump_prototype(0.9), "
            "0.5, SignalGrid(1 << 16, 16000.0))\n"
            "f = np.random.default_rng(1).standard_normal(1 << 16)\n"
            "synthesize(analyze(f, s), s)\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([executable, "-c", script], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1 False"

    def test_concurrent_callers(self):
        """Four threads (more than the cores) share a system whose layout
        none has built yet, switching often: every result keeps the bits
        of one caller alone."""
        make = LARGE_SYSTEMS["erb-stream"]
        ref = make()
        f = _random_signal(ref.grid.length, np.random.default_rng(67))
        want = analyze(f, ref)
        want_back = adjoint(want, ref)
        sys = make()
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


def _parent_sample_atoms(warp, theta, xs, grid, truncation):
    """The per-atom sampler that the flat bank replaced: a list of
    ``(values, support)``, one per centre (its final copy of the rounds'
    stores into one, which moved no value, is left out)."""
    x = np.array(xs, dtype=float)
    fx = warp.eval(x)
    scale = np.sqrt(warp.derivative(x))
    u0 = fx
    peak_hz = x
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


def _parent_frame_bounds(system):
    """``frame_bounds`` from the fibers and profile of the per-atom code."""
    if system.interior_bins().size == 0:
        raise ConfigError("system has no fully covered bins")
    singles, fibers = _parent_frame_fibers(system, system.interior_bins())
    eig = np.concatenate([_parent_frame_diag(system)[singles]]
                         + [np.linalg.eigvalsh(s).ravel() for _, s in fibers])
    return max(float(eig.min()), 0.0), float(eig.max())


def _parent_fiber_inverses(system):
    """``fiber_inverses`` from the fibers and profile of the per-atom code."""
    floor = system_module.DIAG_FLOOR * float(np.max(_parent_frame_diag(system)))
    fibers = _parent_frame_fibers(system, system.covered_bins()[0])[1]
    if any(np.linalg.eigvalsh(s)[:, 0].min() < floor for _, s in fibers):
        raise IllConditionedError("singular fiber")
    return [(b, np.linalg.inv(s)) for b, s in fibers]


def _assert_residue_readers(sys):
    """The painless report, the frame profile and the fibers on the
    interior and covered bins have the bits of the per-atom code, which
    counts the residues mod ``M_l`` itself; a fiber past FIBER_CAP is
    refused alike."""
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


class TestSingleBankOracle:
    """The one stored bank, held in channel order, and the painless
    report, profile, fibers, bounds and fiber inverses read from it give
    the bits of the per-atom code they replaced, sampled in the
    frame-group order that the bank was once stored in; the build
    integrates the prototype norm and samples the bank once."""

    @pytest.mark.parametrize("name", sorted(BANK_SYSTEMS))
    def test_equal_to_per_atom_code(self, name):
        sys = BANK_SYSTEMS[name]()
        order = [l for _, _, ls in _frame_groups(sys.channels) for l in ls]
        ref = [None] * len(order)
        for l, atom in zip(order, _parent_sample_atoms(
                sys.warp, sys.theta, [sys.channels[l].center_hz for l in order],
                sys.grid, sys.truncation)):
            ref[l] = atom
        values, support, sizes = sys.bank
        assert sizes.tolist() == [s.size for _, s in ref]
        _assert_bits(values, np.concatenate([v for v, _ in ref]))
        _assert_bits(support, np.concatenate([s for _, s in ref]))
        for l, (v, s) in enumerate(ref):
            atom = sys.atoms[l]
            _assert_bits(atom.values, v)
            _assert_bits(atom.support, s)
            assert atom.center_hz == sys.channels[l].center_hz
            assert np.shares_memory(atom.values, values)

        _assert_residue_readers(sys)
        want = _outcome(_parent_frame_bounds, sys)
        assert _outcome(frame_bounds, sys) == want
        want = _outcome(_parent_fiber_inverses, sys)
        got = _outcome(sys.fiber_inverses)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
        else:
            assert len(got) == len(want)
            for (b, s), (wb, ws) in zip(got, want):
                assert np.array_equal(b, wb)
                _assert_bits(s, ws)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_per_atom_code_at_any_batch_size(self, chunk, monkeypatch):
        """The sampler's batch size moves no bit of any bank here; the
        per-atom oracle is batched by the same constant."""
        monkeypatch.setattr(system_module, "SAMPLE_CHUNK", chunk)
        for name in sorted(BANK_SYSTEMS):
            self.test_equal_to_per_atom_code(name)

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

    def test_bank_sampled_once_in_channel_order(self, monkeypatch):
        """The build samples the bank once, at the channels' centres as
        designed; the transform and the painless check sample nothing."""
        calls = []
        sample = system_module._sample_bank

        def counting(warp, theta, xs, grid, truncation):
            calls.append(np.array(xs))
            return sample(warp, theta, xs, grid, truncation)

        monkeypatch.setattr(system_module, "_sample_bank", counting)
        sys = _erb_system()
        analyze(_interior_signal(sys), sys)
        assert sys.painless_report.painless
        assert len(calls) == 1
        _assert_bits(calls[0], sys.channels.center_hz)


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
        for _, _, chunks in _runs(sys):
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
        num = _unfold(coeffs.values, sys)
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


# each memoized part of a system, and a function it computes with
MEMOIZED = {
    "frame_diag": (np, "bincount"),
    "bank_layout": (np, "repeat"),
    "interior_bins": (SignalGrid, "bin_freqs"),
    "interior_fibers": (system_module.WarpedSystem, "frame_fibers"),
    "covered_bins": (np, "flatnonzero"),
    "fiber_inverses": (np.linalg, "inv"),
    "painless_report": (system_module, "painless_check"),
}


def _memoized(system, name):
    value = getattr(system, name)
    return value if name == "painless_report" else value()


def _spy(monkeypatch, owner, attr):
    """Count the calls of ``owner.attr`` for the rest of the test."""
    real, calls = getattr(owner, attr), []

    def spy(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, attr, spy)
    return calls


def _arrays(value):
    """Every array in a memoized value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for part in value:
            yield from _arrays(part)
    elif isinstance(value, system_module.PainlessReport):
        yield from _arrays(list(vars(value).values()))


class TestMemo:
    """What a system derives from its bank is computed on first use and
    kept by that system alone; an exception is not kept."""

    @pytest.mark.parametrize("name", sorted(MEMOIZED))
    def test_second_call_recomputes_nothing(self, name, monkeypatch):
        sys = _erb_system(radius=2.0)
        calls = _spy(monkeypatch, *MEMOIZED[name])
        first = _memoized(sys, name)
        made = len(calls)
        assert made > 0
        assert _memoized(sys, name) is first
        assert len(calls) == made
        assert not sys.painless

    def test_singular_fiber_raised_again(self, monkeypatch):
        sys = FIBER_SYSTEMS["singular"]()
        calls = _spy(monkeypatch, np.linalg, "eigvalsh")
        for tries in (1, 2):
            with pytest.raises(IllConditionedError, match="fiber"):
                sys.fiber_inverses()
            assert len(calls) >= tries

    def test_fiber_cap_raised_again(self, monkeypatch):
        sys = _erb_system(radius=2.0)
        monkeypatch.setattr(system_module, "FIBER_CAP", 2)
        for _ in range(2):
            with pytest.raises(CapabilityError, match="FIBER_CAP = 2"):
                sys.interior_fibers()
        monkeypatch.undo()
        singles, fibers = sys.interior_fibers()
        assert fibers and sys.interior_fibers()[1] is fibers

    def test_systems_share_no_cached_array(self):
        one, two = _erb_system(radius=2.0), _erb_system(radius=2.0)
        kept = [[a for name in sorted(MEMOIZED)
                 for a in _arrays(_memoized(s, name))] for s in (one, two)]
        assert len(kept[0]) == len(kept[1]) > 2 * len(MEMOIZED)
        for a, b in zip(*kept):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(a, b)
                       for a in kept[0] for b in kept[1])


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
def _drawn_banks(draw, max_log2n=12):
    """A bank of any built-in warp with drawn parameters, any prototype
    family, a channel step giving ~3-48 channels across the band, a
    prototype width around the step, hops around the painless limit,
    and N from 2^8 to 2^max_log2n."""
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
    grid = SignalGrid(1 << draw(st.integers(8, max_log2n), label="log2n"),
                      16000.0)
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
    # four channels; one interior bin's profile is 2.5e-12 of the peak,
    # so the interior profile spans 4e11 and its L2 round trip is 4e-11
    @example(bank=(alpha_like_warp(1.0), bump_prototype(2071.6513872039145),
                   4000.0, SignalGrid(256, 16000.0), 1.5625e-08), seed=0)
    def test_drawn_bank_identities(self, bank, seed):
        """A drawn bank builds or raises ConfigError (too few or too many
        channels, an atom that vanishes on the grid).  When it builds,
        V* is the adjoint of V to rounding, analysis equals the direct
        sliding-window reference (up to N = 2^10; it takes O(N^2) per
        channel), ``_fold`` gives the grouped core's bits and ``_unfold``
        the per-channel adjoint's, and the frame bounds bracket the
        Rayleigh quotient of a signal on the fully covered band.  A
        painless bank reconstructs a signal on its covered bins, on every
        covered bin ``j`` within ``eps * peak / profile[j]`` of the
        spectrum's peak (the diagonal solve's rounding); to 1e-12 in L2
        on the interior band when the profile there spans at most 10^4,
        and on all covered bins when the covered profile does.  The
        interior band is where every translate reaches, which admits a
        profile down to ``DIAG_FLOOR`` times its peak."""
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
        c = _random_coefficients(sys, rng)
        lhs = sum(np.vdot(cb, ca) for ca, cb in zip(vf.data, c.data))
        rhs = np.vdot(adjoint(c, sys), f)
        scale = np.linalg.norm(vf.values) * np.linalg.norm(c.values)
        assert abs(lhs - rhs) <= 1e-12 * scale

        if n <= 1 << 10:
            peak = max(float(np.max(np.abs(d))) for d in vf.data)
            dev = coefficient_deviation(vf, stft_reference(f, sys))
            assert dev <= 1e-10 * peak

        fold = _fold(np.fft.fft(f, norm="forward"), sys)
        ref = _grouped_fold(np.fft.fft(f), sys)
        for got, want in zip(_rows(fold, sys), ref, strict=True):
            _assert_bits(got, want)
        _assert_bits(_unfold(c.values, sys), _per_channel_unfold(c.data, sys))

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
            inner = sys.frame_diag()[interior]
            if interior.size and inner.max() <= 1e4 * inner.min():
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

    @settings(max_examples=25, deadline=None)
    @given(bank=_drawn_banks(max_log2n=10))
    def test_drawn_fibers_match_dense_oracle(self, bank):
        """On a drawn bank that builds and is not painless, the fibers of
        ``S`` on the covered bins are the dense ``S`` built column by
        column from ``_unfold(_fold(e_j))``, to 1e-14 of its largest
        entry, and ``frame_bounds`` are its extreme eigenvalues on the
        interior bins, to 1e-12 relative.  A fiber above FIBER_CAP, or no
        fully covered bin, is refused instead."""
        warp, theta, delta, grid, time_scale = bank
        try:
            sys = build_system(warp, theta, delta, grid,
                               time_scale=time_scale)
        except ConfigError:
            sys = None
        assume(sys is not None and not sys.painless)
        covered = sys.covered_bins()[0]
        try:
            got = _fiber_matrix(sys, covered)
        except CapabilityError:
            got = None
        if got is not None:
            dense = _dense_frame_operator(sys, covered)
            assert np.abs(got - dense).max() <= 1e-14 * np.abs(dense).max()
        try:
            frame_bounds(sys)
        except (ConfigError, CapabilityError):
            return
        _assert_oracle_bounds(sys)


class TestResiduesCountedOnce:
    """``painless_check`` and ``frame_fibers`` read each entry's residue
    mod ``M_l`` from the layout's slots, with the bits of the code that
    counted them again."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_oracle_systems(self, name):
        _assert_residue_readers(ORACLE_SYSTEMS[name]())

    @pytest.mark.parametrize("cap", [1, 100])
    def test_under_any_chunk_bound(self, cap, monkeypatch):
        """Chunks of one channel, and several chunks per run."""
        monkeypatch.setattr(system_module, "CHUNK_SCRATCH", cap)
        for name in ("interleaved-fibers", "linear-not-painless"):
            sys = ORACLE_SYSTEMS[name]()
            assert len(_layout_chunks(sys)) > len(_runs(sys))
            _assert_residue_readers(sys)

    @settings(max_examples=25, deadline=None)
    @given(bank=_drawn_banks(max_log2n=10))
    def test_drawn_banks(self, bank):
        warp, theta, delta, grid, time_scale = bank
        try:
            sys = build_system(warp, theta, delta, grid,
                               time_scale=time_scale)
        except ConfigError:
            return
        _assert_residue_readers(sys)


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
