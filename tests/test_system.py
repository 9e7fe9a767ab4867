"""Grid, channel-design and atom construction tests."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from warpft import (CapabilityError, ConfigError, DegenerateAtomError,
                    ShapeError, bump_prototype, erb_warp, gaussian_prototype,
                    linear_warp, log_warp)
from warpft import system as system_module
from warpft.prototype import hann_prototype, normalized
from warpft.system import (Atom, Channel, ChannelTable, Coefficients,
                           SignalGrid, _sample_bank, build_atom, build_system,
                           design_channels)
from warpft.warping import (POSITIVE_HALF_LINE, WARP_FAMILIES,
                            alpha_like_warp, custom_warp, power_law_warp)


class TestSignalGrid:
    def test_power_of_two_required(self):
        for bad in (0, 15, 17, 1000):
            with pytest.raises(ConfigError):
                SignalGrid(bad, 100.0)
        SignalGrid(16, 100.0)

    def test_sample_rate_positive(self):
        with pytest.raises(ConfigError):
            SignalGrid(64, 0.0)

    def test_nyquist_bin_positive(self):
        grid = SignalGrid(64, 64.0)
        f = grid.bin_freqs()
        assert f[32] == 32.0
        assert f.min() == -31.0
        assert f.max() == 32.0

    def test_half_line_mask(self):
        grid = SignalGrid(64, 64.0)
        mask = grid.active_mask("positive_half_line")
        f = grid.bin_freqs()
        assert not mask[0]                      # DC excluded
        assert np.all(f[mask] > 0)
        assert mask.sum() == 32                 # bins 1..31 plus Nyquist
        assert grid.active_mask("real_line").all()


class TestDesignChannels:
    def test_linear_centers_on_grid(self):
        grid = SignalGrid(1024, 1024.0)
        chans = design_channels(linear_warp(1.0), 64.0, grid)
        assert len(chans) == 16
        centers = np.array([c.center_hz for c in chans])
        # oracle: x_l = 64 (l + 1/2) for l = -8..7
        np.testing.assert_allclose(centers, 64.0 * (np.arange(-8, 8) + 0.5),
                                   rtol=1e-14)
        assert chans[0].index == -8 and chans[-1].index == 7

    def test_erb_channel_range(self):
        grid = SignalGrid(4096, 16000.0)
        chans = design_channels(erb_warp(), 0.5, grid)
        # oracle: ceil/floor of the warped band edges by hand,
        # F(+/-(8000 - 3.9)) ~= +/-33.19 => slots -66..65
        assert chans[0].index == -66
        assert chans[-1].index == 65
        assert len(chans) == 132

    def test_hops_divide_grid_and_respect_tau(self):
        grid = SignalGrid(4096, 16000.0)
        for ch in design_channels(erb_warp(), 0.5, grid):
            assert grid.length % ch.hop_samples == 0
            assert ch.hop_samples <= max(1.0, ch.tau_seconds * 16000.0)
            # power of two
            assert ch.hop_samples & (ch.hop_samples - 1) == 0

    def test_band_edges_consistent(self):
        grid = SignalGrid(1024, 1024.0)
        warp = log_warp()
        for ch in design_channels(warp, 0.7, grid):
            assert ch.band_lo_hz < ch.center_hz < ch.band_hi_hz
            np.testing.assert_allclose(ch.bandwidth_hz,
                                       ch.band_hi_hz - ch.band_lo_hz)
            np.testing.assert_allclose(warp.eval(ch.center_hz),
                                       0.7 * (ch.index + 0.5), rtol=1e-12)

    def test_too_few_channels_rejected(self):
        grid = SignalGrid(16, 64.0)
        with pytest.raises(ConfigError):
            design_channels(linear_warp(1.0), 64.0, grid)

    def test_bad_parameters_rejected(self):
        grid = SignalGrid(64, 64.0)
        with pytest.raises(ConfigError):
            design_channels(linear_warp(1.0), -1.0, grid)
        with pytest.raises(ConfigError):
            design_channels(linear_warp(1.0), 4.0, grid, time_scale=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        grid = SignalGrid(64, 64.0)
        with pytest.raises(ConfigError):
            SignalGrid(64, bad)
        with pytest.raises(ConfigError):
            design_channels(linear_warp(1.0), bad, grid)
        with pytest.raises(ConfigError):
            design_channels(linear_warp(1.0), 4.0, grid, time_scale=bad)
        with pytest.raises(ConfigError):
            build_system(linear_warp(1.0), gaussian_prototype(4.0), 4.0,
                         grid, truncation=bad)

    @pytest.mark.parametrize("truncation", [-1e-8, 1.0, 2.0])
    def test_truncation_range(self, truncation):
        with pytest.raises(ConfigError, match="truncation"):
            build_system(linear_warp(1.0), gaussian_prototype(4.0), 4.0,
                         SignalGrid(64, 64.0), truncation=truncation)

    def test_more_channels_than_bins_rejected(self):
        # a steep warp asks for ~1e300 channels; refused before the loop
        with pytest.raises(ConfigError, match="more than the grid"):
            design_channels(erb_warp(c1=1e300), 0.5, SignalGrid(64, 64.0))
        grid = SignalGrid(64, 64.0)
        assert len(design_channels(linear_warp(1.0), 1.0, grid)) == 63
        with pytest.raises(ConfigError, match="126 channels"):
            design_channels(linear_warp(1.0), 0.5, grid)


class TestBuildAtom:
    def test_linear_atom_values(self):
        grid = SignalGrid(1024, 1024.0)
        theta = gaussian_prototype(16.0)
        atom = build_atom(linear_warp(1.0), theta, 32.0, grid).dense(1024)
        assert atom[32] == pytest.approx(1.0)  # sqrt(F') theta(0) = 1
        # even symmetry about the centre bin
        for k in (1, 5, 40, 90):
            assert atom[32 + k] == pytest.approx(atom[32 - k])

    def test_truncation_support(self):
        grid = SignalGrid(1024, 1024.0)
        atom = build_atom(linear_warp(1.0), gaussian_prototype(16.0), 0.0,
                          grid, truncation=1e-8)
        dense = atom.dense(1024)
        peak = np.abs(dense).max()
        on = dense[atom.support]
        assert np.all(np.abs(on) >= 1e-8 * peak)
        off = np.delete(dense, atom.support)
        assert np.all(off == 0.0)
        # oracle: gaussian reaches 1e-8 at sigma sqrt(2 ln 1e8) ~= 97.1 Hz,
        # so bins -97..97 survive
        assert atom.support_bins == 195

    def test_untruncated_atom_dense(self):
        grid = SignalGrid(64, 64.0)
        atom = build_atom(linear_warp(1.0), gaussian_prototype(4.0), 0.0,
                          grid, truncation=0.0)
        assert atom.support_bins == 64

    def test_half_line_atom_zero_on_nonpositive_bins(self):
        grid = SignalGrid(256, 1000.0)
        atom = build_atom(log_warp(), gaussian_prototype(1.0), 100.0, grid)
        f = grid.bin_freqs()
        dense = atom.dense(256)
        assert np.all(dense[f <= 0] == 0.0)
        assert dense[f > 0].max() > 0

    def test_off_grid_atom_degenerates(self):
        grid = SignalGrid(1024, 1024.0)
        with pytest.raises(DegenerateAtomError):
            build_atom(linear_warp(1.0), gaussian_prototype(16.0), 1e6, grid)


def _dense_atom(warp, theta, x, grid, truncation=1e-8):
    """Reference sampler: the atom evaluated on every active bin."""
    freqs = np.fft.fftfreq(grid.length, 1.0 / grid.sample_rate)
    freqs[grid.length // 2] = 0.5 * grid.sample_rate
    active = (freqs > 0 if warp.domain == POSITIVE_HALF_LINE
              else np.ones(grid.length, dtype=bool))
    vals = np.zeros(grid.length)
    fx = warp.eval(float(x))
    vals[active] = np.sqrt(warp.derivative(float(x))) * theta.eval(
        warp.eval(freqs[active]) - fx)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        raise DegenerateAtomError(f"atom at {x} Hz vanishes on the grid")
    if truncation:
        vals[np.abs(vals) < truncation * peak] = 0.0
    support = np.flatnonzero(vals)
    if support.size == 0:
        raise DegenerateAtomError(f"atom at {x} Hz fully truncated")
    return vals[support], support


# warp, delta on a 4096-bin grid at 16 kHz
_WINDOW_WARPS = {
    "linear": (linear_warp(1.0), 1000.0),
    "log": (log_warp(), 0.3),
    "erb": (erb_warp(), 0.5),
    "alpha_like": (alpha_like_warp(0.5), 8.0),
    "power_law": (power_law_warp(1.0, 100.0, 0.5), 0.25),
}
_WINDOW_PROTOS = {
    "gaussian": gaussian_prototype(1.0),
    "hann_bump": hann_prototype(1.0),
    "smooth_bump": bump_prototype(0.9),
}


class TestWindowedAtoms:
    """``build_atom`` samples a window only; it must equal dense sampling
    on every bin, bit for bit, including the error it raises."""

    GRID = SignalGrid(4096, 16000.0)

    def assert_same(self, warp, theta, x, grid, truncation):
        try:
            values, support = _dense_atom(warp, theta, x, grid, truncation)
        except DegenerateAtomError as exc:
            with pytest.raises(DegenerateAtomError,
                               match=re.escape(str(exc))):
                build_atom(warp, theta, x, grid, truncation)
            return
        atom = build_atom(warp, theta, x, grid, truncation)
        assert np.array_equal(atom.support, support)
        assert atom.support.dtype == support.dtype
        assert np.array_equal(atom.values, values)

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    @pytest.mark.parametrize("proto", sorted(_WINDOW_PROTOS))
    @pytest.mark.parametrize("kind", sorted(_WINDOW_WARPS))
    def test_every_channel_matches_dense(self, kind, proto, truncation):
        warp, delta = _WINDOW_WARPS[kind]
        theta = normalized(_WINDOW_PROTOS[proto])
        for ch in design_channels(warp, delta, self.GRID):
            self.assert_same(warp, theta, ch.center_hz, self.GRID, truncation)

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    @pytest.mark.parametrize("kind", sorted(_WINDOW_WARPS))
    def test_band_edges_and_outside(self, kind, truncation):
        warp, _ = _WINDOW_WARPS[kind]
        fs, bin_hz = self.GRID.sample_rate, self.GRID.bin_hz
        xs = [0.5 * fs - 0.3 * bin_hz,       # touches Nyquist
              0.5 * fs + 0.2 * bin_hz,       # just outside, above
              0.5 * fs + 40.0 * bin_hz,
              0.3 * bin_hz,                  # below bin 1
              1e6]
        if warp.domain != POSITIVE_HALF_LINE:
            xs += [0.0, 0.4 * bin_hz, -2.5 * bin_hz,   # windows across DC
                   -0.5 * fs + 0.3 * bin_hz,
                   -0.5 * fs - 0.2 * bin_hz,            # just outside, below
                   -1e6]
        for proto in _WINDOW_PROTOS.values():
            theta = normalized(proto)
            for x in xs:
                self.assert_same(warp, theta, x, self.GRID, truncation)

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    def test_gaussian_narrower_than_a_bin(self, truncation):
        grid = SignalGrid(256, 256.0)
        theta = gaussian_prototype(0.05)
        for x in (0.0, 10.0, 10.3, 10.5, 127.9, 128.4, -127.6):
            self.assert_same(linear_warp(1.0), theta, x, grid, truncation)
            self.assert_same(erb_warp(), theta, x, grid, truncation)

    @pytest.mark.parametrize("broken", [np.inf, np.nan])
    def test_overflowing_inverse_still_exact(self, broken):
        # An inverse that overflows puts the window edges at inf or nan;
        # the window still holds the peak bins and widens to the band.
        warp = custom_warp(lambda t: t,
                           fn_inverse=lambda s: np.full_like(s, broken),
                           fn_derivative=np.ones_like)
        grid = SignalGrid(256, 256.0)
        for x in (10.3, -40.0, 127.8):
            self.assert_same(warp, gaussian_prototype(0.5), x, grid, 1e-8)


def _loop_channels(warp, delta, grid, time_scale=1.0):
    """Reference channel design: one channel at a time, hops in Python ints."""
    def pow2_floor(x):
        return 1 if x < 2.0 else 1 << int(np.floor(np.log2(x)))

    freqs = grid.bin_freqs()
    active = grid.active_mask(warp.domain)
    l_min = np.ceil(warp.eval(float(np.min(freqs[active]))) / delta - 0.5)
    l_max = np.floor(warp.eval(float(np.max(freqs[active]))) / delta - 0.5)
    channels = []
    for l in range(int(l_min), int(l_max) + 1):
        lo = float(warp.inverse(delta * l))
        hi = float(warp.inverse(delta * (l + 1)))
        center = float(warp.inverse(delta * (l + 0.5)))
        tau = time_scale * delta * delta / (hi - lo)
        hop = min(pow2_floor(tau * grid.sample_rate), grid.length)
        channels.append(Channel(l, center, lo, hi, hi - lo, tau, hop,
                                grid.length // hop))
    return channels


def _loop_atom(warp, theta, x, grid, truncation=1e-8):
    """Reference sampler: one atom's window, widened until its guard bins
    are truncated, then rotated into storage order."""
    fx = warp.eval(float(x))
    scale = np.sqrt(warp.derivative(float(x)))
    u0 = fx
    peak_hz = float(x)
    k_max = grid.length // 2
    k_min = 1 if warp.domain == POSITIVE_HALF_LINE else 1 - k_max
    lo_edge, hi_edge = k_min * grid.bin_hz, k_max * grid.bin_hz

    def bin_of(hz, rounding):
        hz = min(hz, hi_edge) if hz >= lo_edge else lo_edge
        return max(k_min, min(rounding(hz / grid.bin_hz), k_max))

    k_peak_lo = bin_of(peak_hz, math.floor)
    k_peak_hi = bin_of(peak_hz, math.ceil)
    radius = float(theta.support_radius(
        truncation if 0 < truncation < 1 else np.finfo(float).tiny))
    while True:
        if math.isfinite(radius):
            with np.errstate(over="ignore", invalid="ignore"):
                lo_hz, hi_hz = warp.inverse(
                    np.array([u0 - radius, u0 + radius]))
            k_lo = max(min(bin_of(lo_hz, math.ceil) - 1, k_peak_lo), k_min)
            k_hi = min(max(bin_of(hi_hz, math.floor) + 1, k_peak_hi), k_max)
        else:
            k_lo, k_hi = k_min, k_max
        k = np.arange(k_lo, k_hi + 1)
        vals = scale * theta.eval(warp.eval(grid.signed_bin_freqs(k)) - fx)
        peak = float(np.max(np.abs(vals)))
        if peak == 0.0:
            raise DegenerateAtomError(f"atom at {x} Hz vanishes on the grid")
        if truncation:
            vals[np.abs(vals) < truncation * peak] = 0.0
        if ((k_lo == k_min or vals[0] == 0.0)
                and (k_hi == k_max or vals[-1] == 0.0)):
            break
        radius *= 2.0
    keep = np.flatnonzero(vals)
    k, vals = k[keep], vals[keep]
    wrap = int(np.searchsorted(k, 0))
    return (np.concatenate((vals[wrap:], vals[:wrap])),
            np.concatenate((k[wrap:], k[:wrap] + grid.length)))


# the README's erb.cfg, the same bank at N = 2^16, a log and a linear bank
_PLAIN_BANKS = {
    "erb_4096": (erb_warp(9.265, 228.8), bump_prototype(0.9), 0.5,
                 SignalGrid(4096, 16000.0)),
    "erb_65536": (erb_warp(9.265, 228.8), bump_prototype(0.9), 0.5,
                  SignalGrid(1 << 16, 16000.0)),
    "log": (log_warp(), bump_prototype(0.9), 0.05, SignalGrid(4096, 16000.0)),
    "linear": (linear_warp(1.0), gaussian_prototype(40.0), 100.0,
               SignalGrid(4096, 16000.0)),
}


class TestBankSampler:
    """``build_system`` designs every channel and samples every atom in
    one pass; it must equal the channel-at-a-time loops, bit for bit,
    including the error a vanishing atom raises."""

    GRID = SignalGrid(4096, 16000.0)

    def assert_bank_same(self, warp, theta, xs, grid, truncation):
        expected, error = [], None
        for x in xs:
            try:
                expected.append(_loop_atom(warp, theta, x, grid, truncation))
            except DegenerateAtomError as exc:
                error = str(exc)
                break
        if error is not None:
            with pytest.raises(DegenerateAtomError, match=re.escape(error)):
                _sample_bank(warp, theta, xs, grid, truncation)
            return
        values, support, sizes = _sample_bank(warp, theta, xs, grid,
                                              truncation)
        assert sizes.tolist() == [s.size for _, s in expected]
        assert np.array_equal(support, np.concatenate([s for _, s in expected]))
        assert support.dtype == expected[0][1].dtype
        assert np.array_equal(values, np.concatenate([v for v, _ in expected]))

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    @pytest.mark.parametrize("proto", sorted(_WINDOW_PROTOS))
    @pytest.mark.parametrize("kind", sorted(_WINDOW_WARPS))
    def test_bank_matches_loop(self, kind, proto, truncation):
        warp, delta = _WINDOW_WARPS[kind]
        theta = normalized(_WINDOW_PROTOS[proto])
        system = build_system(warp, theta, delta, self.GRID,
                              truncation=truncation)
        assert system.channels == _loop_channels(warp, delta, self.GRID)
        for atom, ch in zip(system.atoms, system.channels):
            values, support = _loop_atom(warp, theta, ch.center_hz,
                                         self.GRID, truncation)
            assert np.array_equal(atom.support, support)
            assert np.array_equal(atom.values, values)

    @pytest.mark.parametrize("warp,delta", [(alpha_like_warp(0.7), 20.0),
                                            (power_law_warp(2.0, 300.0, 0.3),
                                             0.05)])
    def test_power_exponents_match_loop(self, warp, delta):
        # for some of these centres and band edges numpy's scalar ``**``
        # differs in the last bit from its vectorized array loop; the
        # warps take powers with np.power, which does not
        theta = normalized(bump_prototype(0.9))
        system = build_system(warp, theta, delta, self.GRID)
        assert system.channels == _loop_channels(warp, delta, self.GRID)
        self.assert_bank_same(warp, theta, system.channel_positions().tolist(),
                              self.GRID, 1e-8)

    @pytest.mark.parametrize("name", sorted(_PLAIN_BANKS))
    def test_plain_banks_match_loop(self, name):
        """Warps without powers give the bits they gave when the channel
        values were taken one float at a time (as the loops do)."""
        warp, theta, delta, grid = _PLAIN_BANKS[name]
        system = build_system(warp, theta, delta, grid)
        assert system.channels == _loop_channels(warp, delta, grid)
        for atom, ch in zip(system.atoms, system.channels):
            values, support = _loop_atom(warp, system.theta, ch.center_hz,
                                         grid)
            assert np.array_equal(atom.support, support)
            assert np.array_equal(atom.values, values)

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    @pytest.mark.parametrize("kind", sorted(_WINDOW_WARPS))
    def test_band_edges_and_dc(self, kind, truncation):
        warp, _ = _WINDOW_WARPS[kind]
        fs, bin_hz = self.GRID.sample_rate, self.GRID.bin_hz
        xs = [0.5 * fs - 0.3 * bin_hz, 0.3 * bin_hz, 1000.0]
        if warp.domain != POSITIVE_HALF_LINE:
            xs += [0.0, 0.4 * bin_hz, -2.5 * bin_hz, -0.5 * fs + 0.3 * bin_hz]
        for proto in _WINDOW_PROTOS.values():
            theta = normalized(proto)
            self.assert_bank_same(warp, theta, xs, self.GRID, truncation)
            # out of band: the first vanishing centre is named
            self.assert_bank_same(warp, theta, xs + [1e6, 2e6], self.GRID,
                                  truncation)

    @pytest.mark.parametrize("truncation", [1e-8, 0.0])
    def test_gaussian_narrower_than_a_bin(self, truncation):
        grid = SignalGrid(256, 256.0)
        xs = [0.0, 10.0, 10.3, 10.5, 127.9, 128.4, -127.6]
        for warp in (linear_warp(1.0), erb_warp()):
            self.assert_bank_same(warp, gaussian_prototype(0.05), xs, grid,
                                  truncation)

    def test_newton_inverse(self):
        # no closed-form inverse: F^{-1} is the guarded Newton iteration
        warp = custom_warp(lambda t: np.sign(t) * np.log1p(np.abs(t) / 50.0),
                           fn_derivative=lambda t: 1.0 / (50.0 + np.abs(t)))
        grid = SignalGrid(1024, 4000.0)
        theta = normalized(bump_prototype(0.9))
        system = build_system(warp, theta, 0.125, grid)
        assert system.channels == _loop_channels(warp, 0.125, grid)
        self.assert_bank_same(warp, theta, system.channel_positions().tolist(),
                              grid, 1e-8)

    def test_some_channels_double_the_radius(self):
        sizes = []

        def inverse(s):
            sizes.append(np.size(s))
            return np.asarray(s, dtype=float)

        warp = custom_warp(lambda t: t, fn_inverse=inverse,
                           fn_derivative=np.ones_like)
        grid = SignalGrid(256, 256.0)
        xs = [ch.center_hz for ch in design_channels(warp, 1.25, grid)]
        sizes.clear()
        self.assert_bank_same(warp, gaussian_prototype(0.05), xs, grid, 1e-8)
        # pass 1 widens every window, pass 2 only the ones that kept a
        # guard bin; the loop oracle made its calls after the sampler's
        bank_calls = sizes[-4:]
        assert bank_calls[:2] == [len(xs)] * 2
        assert 0 < bank_calls[2] == bank_calls[3] < len(xs)

    def test_vanishing_channel_named(self):
        grid = SignalGrid(256, 256.0)
        warp, theta = erb_warp(), hann_prototype(0.01)
        xs = [ch.center_hz for ch in _loop_channels(warp, 0.05, grid)]
        good, fails = [], []
        for x in xs:
            try:
                _loop_atom(warp, theta, x, grid)
                good.append(x)
            except DegenerateAtomError as exc:
                fails.append(str(exc))
        assert good and fails and good[-1] > xs[0]
        with pytest.raises(DegenerateAtomError, match=re.escape(fails[0])):
            build_system(warp, theta, 0.05, grid, normalize=False)
        self.assert_bank_same(warp, theta, good, grid, 1e-8)
        # reversed, the first vanishing centre comes after working ones
        self.assert_bank_same(warp, theta, xs[::-1], grid, 1e-8)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_loop_oracle_at_any_batch_size(self, chunk, monkeypatch):
        """The batches move no bit: the oracle tests above hold with
        one-window batches, batches of a few windows and one batch a
        round, as they do at the default, at which many of their banks
        are one batch."""
        monkeypatch.setattr(system_module, "SAMPLE_CHUNK", chunk)
        for truncation in (1e-8, 0.0):
            for kind in sorted(_WINDOW_WARPS):
                for proto in sorted(_WINDOW_PROTOS):
                    self.test_bank_matches_loop(kind, proto, truncation)
                self.test_band_edges_and_dc(kind, truncation)
            self.test_gaussian_narrower_than_a_bin(truncation)
        for name in sorted(_PLAIN_BANKS):
            self.test_plain_banks_match_loop(name)
        self.test_newton_inverse()
        self.test_some_channels_double_the_radius()
        self.test_vanishing_channel_named()

    def test_huge_time_scale_clamps_every_hop(self):
        # tau * fs ~ 1e300 samples: the hop is clamped to N, never cast
        channels = design_channels(erb_warp(), 0.5, self.GRID,
                                   time_scale=1e300)
        assert channels == _loop_channels(erb_warp(), 0.5, self.GRID, 1e300)
        assert {ch.hop_samples for ch in channels} == {self.GRID.length}
        assert {ch.frames for ch in channels} == {1}

    @pytest.mark.parametrize("time_scale", [1e-6, 1.0, 8.0])
    @pytest.mark.parametrize("kind", sorted(_WINDOW_WARPS))
    def test_channels_match_loop(self, kind, time_scale):
        warp, delta = _WINDOW_WARPS[kind]
        for grid in (SignalGrid(1024, 16000.0), self.GRID):
            assert (design_channels(warp, delta, grid, time_scale)
                    == _loop_channels(warp, delta, grid, time_scale))


def _eager_atoms(system):
    """The atoms as the constructor built them before they were lazy,
    reading the bank in channel order."""
    values, support, sizes = system.bank
    ends = np.cumsum(sizes).tolist()
    return [Atom(values[a:b], support[a:b], ch.center_hz)
            for ch, a, b in zip(system.channels, [0] + ends, ends)]


class TestChannelTable:
    """``design_channels`` returns one table of arrays.  Its columns hold
    the bits of the channel-at-a-time loop, and it reads as the list of
    :class:`Channel` it replaced."""

    GRID = SignalGrid(4096, 16000.0)

    @pytest.mark.parametrize("time_scale", [1e-6, 1.0, 1e300])
    @pytest.mark.parametrize("kind", sorted(WARP_FAMILIES))
    def test_columns_equal_loop(self, kind, time_scale):
        warp, delta = _WINDOW_WARPS[kind]
        table = design_channels(warp, delta, self.GRID, time_scale)
        ref = _loop_channels(warp, delta, self.GRID, time_scale)
        for name in (f.name for f in fields(Channel)):
            col = getattr(table, name)
            want = np.array([getattr(ch, name) for ch in ref])
            assert col.dtype == want.dtype and col.shape == want.shape
            assert np.array_equal(col.view(np.uint64), want.view(np.uint64))
            assert not col.flags.writeable

    def test_reads_as_the_channel_list(self):
        warp, delta = _WINDOW_WARPS["erb"]
        table = design_channels(warp, delta, self.GRID)
        ref = _loop_channels(warp, delta, self.GRID)
        assert len(table) == len(ref) == 132
        assert table == ref and ref == table and table == tuple(ref)
        assert table != ref[:-1] and table != ref[::-1]
        assert list(table) == ref
        assert all(type(ch) is Channel for ch in table)
        assert type(table[0].index) is int and type(table[0].frames) is int
        assert type(table[0].center_hz) is float
        for i in (0, 7, -1, -len(ref), np.int64(5)):
            assert table[i] == ref[i]
        for part in (slice(None, None, 7), slice(3, -3), slice(5, 5)):
            assert isinstance(table[part], ChannelTable)
            assert table[part] == ref[part]
        with pytest.raises(IndexError):
            table[len(ref)]
        assert (table == 3) is False and table != "channels"

    @pytest.mark.parametrize("name", sorted(_PLAIN_BANKS))
    def test_atoms_built_lazily_equal_eager(self, name):
        warp, theta, delta, grid = _PLAIN_BANKS[name]
        system = build_system(warp, theta, delta, grid)
        system.frame_diag()
        system.bank_layout()
        try:
            system.frame_fibers(system.interior_bins())
        except CapabilityError:  # the linear bank's fibers pass FIBER_CAP
            pass
        assert "atoms" not in vars(system)
        atoms = system.atoms
        assert system.atoms is atoms
        eager = _eager_atoms(system)
        assert len(atoms) == len(eager) == len(system.channels)
        for got, want in zip(atoms, eager):
            assert got.center_hz == want.center_hz
            assert type(got.center_hz) is float
            assert np.array_equal(got.values.view(np.uint64),
                                  want.values.view(np.uint64))
            assert np.array_equal(got.support, want.support)
            assert got.support.dtype == want.support.dtype
            assert np.shares_memory(got.values, system.bank[0])
            assert np.shares_memory(got.support, system.bank[1])


class TestPainless:
    def test_linear_gaussian_painless(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 16384)
        rep = sys.painless_report
        assert rep.painless
        assert rep.violations == ()
        # oracle: 195 retained bins at 1 Hz spacing vs limit 1/tau = 256 Hz
        assert rep.support_hz.max() == pytest.approx(195.0)
        assert rep.limit_hz.min() == pytest.approx(256.0)
        assert rep.alias_free.all()

    def test_slow_hops_break_painlessness(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 1024)
        rep = sys.painless_report
        assert not rep.painless
        assert len(rep.violations) == len(sys.channels)
        assert not rep.alias_free.any()

    def test_erb_bump_painless(self):
        grid = SignalGrid(4096, 16000.0)
        sys = build_system(erb_warp(), bump_prototype(0.9), 0.5, grid)
        rep = sys.painless_report
        assert rep.painless
        ratio = rep.support_hz / rep.limit_hz
        assert ratio.max() < 1.0

    def test_wide_bump_not_painless(self):
        grid = SignalGrid(4096, 16000.0)
        sys = build_system(erb_warp(), bump_prototype(2.0), 0.5, grid)
        assert not sys.painless

    def test_alias_flags_match_unique_definition(self):
        grid = SignalGrid(4096, 16000.0)
        systems = [
            build_system(erb_warp(), bump_prototype(0.9), 0.5, grid),
            build_system(erb_warp(), bump_prototype(2.0), 0.5, grid),
            build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                         SignalGrid(1024, 1024.0), time_scale=1.0 / 1024),
            build_system(log_warp(), gaussian_prototype(1.0), 0.3, grid,
                         time_scale=8.0),
        ]
        seen = set()
        for sys in systems:
            expected = [np.unique(a.support % ch.frames).size == a.support.size
                        for a, ch in zip(sys.atoms, sys.channels)]
            assert sys.painless_report.alias_free.tolist() == expected
            seen.update(expected)
        assert seen == {True, False}


class TestFrameProfile:
    def test_diag_matches_direct_sum(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 16384)
        diag = sys.frame_diag()
        direct = np.zeros(1024)
        for atom, ch in zip(sys.atoms, sys.channels):
            direct += np.abs(atom.dense(1024)) ** 2 / ch.hop_samples
        np.testing.assert_allclose(diag, direct, rtol=0, atol=1e-15)
        assert np.all(diag[sys.interior_bins()] > 0)

    def test_diag_equals_channel_loop(self):
        # overlapping supports with unequal hops: the summation order shows
        grid = SignalGrid(4096, 16000.0)
        for sys in (build_system(erb_warp(), bump_prototype(2.0), 0.5, grid),
                    build_system(log_warp(), gaussian_prototype(1.0), 0.3,
                                 grid, time_scale=8.0),
                    build_system(alpha_like_warp(0.5), hann_prototype(3.0),
                                 8.0, grid)):
            diag = np.zeros(grid.length)
            for atom, ch in zip(sys.atoms, sys.channels):
                diag[atom.support] += atom.values ** 2 / ch.hop_samples
            assert np.array_equal(sys.frame_diag(), diag)

    def test_interior_band_linear(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 16384)
        f = grid.bin_freqs()[sys.interior_bins()]
        # oracle: outermost centres +/-480 minus effective radius 97.12
        assert f.min() == -382.0
        assert f.max() == 382.0

    def test_interior_inside_coverage(self):
        grid = SignalGrid(4096, 16000.0)
        sys = build_system(erb_warp(), bump_prototype(0.9), 0.5, grid)
        diag = sys.frame_diag()
        inner = sys.interior_bins()
        assert inner.size > 1000
        assert diag[inner].min() > 1e-3 * diag.max()


class TestCoefficients:
    def test_metadata_validation(self):
        with pytest.raises(ShapeError):
            Coefficients(np.zeros(4, complex), np.array([4]),
                         np.array([1.0, 2.0]), np.array([0.1]), 64)
        with pytest.raises(ShapeError):  # frame counts that miss a value
            Coefficients(np.zeros(4, complex), np.array([3]),
                         np.array([1.0]), np.array([0.1]), 64)

    def test_matches_system(self):
        grid = SignalGrid(1024, 1024.0)
        sys = build_system(linear_warp(1.0), gaussian_prototype(16.0), 64.0,
                           grid, time_scale=1.0 / 16384)
        frames = sys.channels.frames
        values = np.zeros(frames.sum(), complex)
        good = Coefficients(values, frames, sys.channel_positions(),
                            np.array([ch.hop_samples / 1024.0
                                      for ch in sys.channels]), 1024)
        assert good.matches_system(sys)
        bad = Coefficients(values[:-frames[-1]], frames[:-1],
                           sys.channel_positions()[:-1],
                           np.array([ch.hop_samples / 1024.0
                                     for ch in sys.channels[:-1]]),
                           1024)
        assert not bad.matches_system(sys)
        assert good.values.size == sum(ch.frames for ch in sys.channels)

    def test_rows_are_views_of_values(self):
        values = np.arange(7, dtype=complex)
        c = Coefficients(values, np.array([2, 0, 5]), np.zeros(3), np.ones(3),
                         64)
        assert [row.tolist() for row in c.data] == [[0, 1], [],
                                                    [2, 3, 4, 5, 6]]
        c.data[2][1] += 10  # a row written in place writes the values
        assert c.values[3] == 13 and c.values is values
