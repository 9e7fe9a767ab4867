"""Discrete warped filterbank systems.

A system samples the continuous warped atoms on a finite DFT grid.  The
warped axis is cut into steps of width ``delta``; channel ``l`` sits at
the centre frequency ``F^{-1}(delta (l + 1/2))`` and carries the atom

    g_l[j] = sqrt(F'(x_l)) * theta(F(xi_j) - F(x_l))

sampled on the DFT bins ``xi_j``.  Each channel's time hop comes from
the induced phase-space tiling: the cell height ``delta^2 / |I_l|``
(seconds, after an optional ``time_scale`` calibration) is rounded
*down* to a power-of-two number of samples.  Keeping hops divisors of N
makes every per-channel time lattice a subgroup of Z_N, which is what
turns the painless support condition into an exact diagonal inversion.

Half-line warps analyze the analytic part only: non-positive bins are
zeroed and reconstructions live on positive frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (ConfigError, DegenerateAtomError, DivergenceError,
                     ShapeError)
from .prototype import Prototype, normalized
from .warping import POSITIVE_HALF_LINE, WarpingFunction

#: bins with frame profile below this fraction of its peak are treated
#: as uncovered by the diagonal inverse
DIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class SignalGrid:
    """A periodic sampling grid: ``length`` samples at ``sample_rate`` Hz."""

    length: int
    sample_rate: float

    def __post_init__(self):
        n = self.length
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid length must be a power of two >= 16, got {n}")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ConfigError("sample_rate must be positive and finite")

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.length

    def bin_freqs(self) -> np.ndarray:
        """Bin frequencies in DFT storage order, spanning (-fs/2, fs/2]."""
        k = np.arange(self.length)
        k[self.length // 2 + 1:] -= self.length
        return self.signed_bin_freqs(k)

    def signed_bin_freqs(self, k: np.ndarray) -> np.ndarray:
        """Frequencies of the signed bins ``k`` in ``(-N/2, N/2]``.

        Bit-for-bit ``np.fft.fftfreq``, except that the Nyquist bin
        ``N/2`` is kept positive at ``+fs/2``.
        """
        f = k * (1.0 / (self.length * (1.0 / self.sample_rate)))
        f[k == self.length // 2] = 0.5 * self.sample_rate
        return f

    def active_mask(self, domain: str) -> np.ndarray:
        f = self.bin_freqs()
        if domain == POSITIVE_HALF_LINE:
            return f > 0
        return np.ones_like(f, dtype=bool)


@dataclass(frozen=True)
class Channel:
    """Geometry of one filterbank channel."""

    index: int               # warped slot l
    center_hz: float         # F^{-1}(delta (l + 1/2))
    band_lo_hz: float        # F^{-1}(delta l)
    band_hi_hz: float        # F^{-1}(delta (l + 1))
    bandwidth_hz: float
    tau_seconds: float       # nominal hop, time_scale * delta^2 / bandwidth
    hop_samples: int         # power of two dividing the grid length
    frames: int


def _pow2_floor(x: float) -> int:
    if x < 2.0:
        return 1
    return 1 << (int(np.floor(np.log2(x))))


def design_channels(warp: WarpingFunction, delta: float, grid: SignalGrid,
                    time_scale: float = 1.0) -> List[Channel]:
    """All channels whose centre lies in the grid's active band.

    Raises :class:`ConfigError` when fewer than two channels fit, or
    more channels than the grid has bins.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ConfigError("delta must be positive and finite")
    if not (time_scale > 0 and math.isfinite(time_scale)):
        raise ConfigError("time_scale must be positive and finite")
    freqs = grid.bin_freqs()
    active = grid.active_mask(warp.domain)
    f_lo = float(np.min(freqs[active]))
    f_hi = float(np.max(freqs[active]))
    w_lo = warp.eval(f_lo)
    w_hi = warp.eval(f_hi)
    # counted in floats first: a steep warp can ask for ~1e300 channels
    l_min = np.ceil(w_lo / delta - 0.5)
    l_max = np.floor(w_hi / delta - 0.5)
    count = l_max - l_min + 1
    if not count >= 2:
        raise ConfigError(
            f"delta={delta} leaves {max(0, count):.0f} channel(s); need >= 2")
    if count > grid.length:
        raise ConfigError(f"delta={delta} gives {count:.6g} channels, more "
                          f"than the grid's {grid.length} bins")
    channels = []
    for l in range(int(l_min), int(l_max) + 1):
        lo = float(warp.inverse(delta * l))
        hi = float(warp.inverse(delta * (l + 1)))
        center = float(warp.inverse(delta * (l + 0.5)))
        bw = hi - lo
        tau = time_scale * delta * delta / bw
        hop = min(_pow2_floor(tau * grid.sample_rate), grid.length)
        channels.append(Channel(l, center, lo, hi, bw, tau, hop,
                                grid.length // hop))
    return channels


@dataclass(frozen=True)
class Atom:
    """A sampled atom, stored on its retained support only."""

    values: np.ndarray        # float64, the nonzero values on ``support``
    support: np.ndarray       # increasing bin indices
    center_hz: float

    @property
    def support_bins(self) -> int:
        return int(self.support.size)

    def dense(self, n: int) -> np.ndarray:
        """The atom on all ``n`` bins of its grid, zero off the support."""
        out = np.zeros(n)
        out[self.support] = self.values
        return out


def build_atom(warp: WarpingFunction, theta: Prototype, x: float,
               grid: SignalGrid, truncation: float = 1e-8) -> Atom:
    """Sample ``sqrt(F'(x)) theta(F(.) - F(x))`` on the grid bins.

    Values below ``truncation`` times the peak are zeroed; an atom with
    empty retained support raises :class:`DegenerateAtomError`.

    Only the atom's window is sampled: the active bins between
    ``F^{-1}(F(x) + c - R)`` and ``F^{-1}(F(x) + c + R)``, where ``c`` is
    the prototype's centre and ``R = theta.support_radius(truncation)``
    (the smallest normal double stands in for a truncation of 0),
    widened by one guard bin on each side and by the two bins around
    the peak frequency ``F^{-1}(F(x) + c)``.  This rests on the axioms:
    ``F`` is increasing and ``theta`` is even about ``c`` and does not
    increase away from it.  So the atom peaks on the bins around the
    peak frequency and decays monotonically away from them, and once
    the truncation drops a guard bin it drops every bin beyond it.  If
    a guard bin is kept, ``R`` is doubled and the window resampled, up
    to the edges of the active band.  The result equals sampling on
    every bin, bit for bit.
    """
    fx = warp.eval(float(x))
    scale = np.sqrt(warp.derivative(float(x)))
    u0 = fx + theta.center                      # the atom's peak, warped
    peak_hz = float(x) if theta.center == 0 else warp.inverse(u0)
    k_max = grid.length // 2
    k_min = 1 if warp.domain == POSITIVE_HALF_LINE else 1 - k_max
    bin_hz = grid.bin_hz
    lo_edge, hi_edge = k_min * bin_hz, k_max * bin_hz

    def bin_of(hz, rounding):
        # clamped in Hz first: an overflowed inverse gives inf or nan
        hz = min(hz, hi_edge) if hz >= lo_edge else lo_edge
        return max(k_min, min(rounding(hz / bin_hz), k_max))

    k_peak_lo = bin_of(peak_hz, math.floor)
    k_peak_hi = bin_of(peak_hz, math.ceil)
    radius = float(theta.support_radius(
        truncation if 0 < truncation < 1 else np.finfo(float).tiny))
    while True:
        if math.isfinite(radius):
            with np.errstate(over="ignore", invalid="ignore"):
                lo_hz, hi_hz = warp.inverse(
                    np.array([u0 - radius, u0 + radius]))
            k_lo = min(bin_of(lo_hz, math.ceil) - 1, k_peak_lo)
            k_hi = max(bin_of(hi_hz, math.floor) + 1, k_peak_hi)
            k_lo, k_hi = max(k_lo, k_min), min(k_hi, k_max)
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
    if keep.size == 0:
        raise DegenerateAtomError(f"atom at {x} Hz fully truncated")
    # storage order puts the negative bins after the non-negative ones
    k, vals = k[keep], vals[keep]
    wrap = int(np.searchsorted(k, 0))
    return Atom(np.concatenate((vals[wrap:], vals[:wrap])),
                np.concatenate((k[wrap:], k[:wrap] + grid.length)), float(x))


@dataclass(frozen=True)
class PainlessReport:
    painless: bool
    support_hz: np.ndarray      # per-channel retained support width
    limit_hz: np.ndarray        # per-channel 1 / tau_l
    alias_free: np.ndarray      # fold injectivity per channel
    violations: tuple           # channel list positions failing either test


def painless_check(system: "WarpedSystem") -> PainlessReport:
    """Painless iff every channel's retained support fits its cell: the
    support width in Hz must not exceed ``1/tau_l``, and the support bins
    must occupy distinct residues modulo the per-channel frame count
    (which makes the subsampled analysis alias-free)."""
    sup = np.array([a.support_bins * system.grid.bin_hz for a in system.atoms])
    lim = np.array([1.0 / ch.tau_seconds for ch in system.channels])
    alias = np.array([
        np.bincount(a.support % ch.frames, minlength=ch.frames).max() <= 1
        for a, ch in zip(system.atoms, system.channels)])
    bad = tuple(i for i in range(len(system.channels))
                if sup[i] > lim[i] or not alias[i])
    return PainlessReport(len(bad) == 0, sup, lim, alias, bad)


class WarpedSystem:
    """A fully built warped filterbank on a signal grid.

    Use :func:`build_system`; the constructor only wires the parts
    together and derives the diagonal frame profile.
    """

    def __init__(self, warp: WarpingFunction, theta: Prototype, delta: float,
                 grid: SignalGrid, channels: List[Channel], atoms: List[Atom],
                 time_scale: float = 1.0, truncation: float = 1e-8,
                 normalize: bool = True):
        self.warp = warp
        self.theta = theta
        self.delta = delta
        self.grid = grid
        self.channels = channels
        self.atoms = atoms
        self.time_scale = time_scale
        self.truncation = truncation
        self.normalize = normalize
        self._painless: Optional[PainlessReport] = None
        self._diag: Optional[np.ndarray] = None
        self._groups: Optional[List[Tuple[int, int, List[int]]]] = None
        self._interior: Optional[np.ndarray] = None
        self._covered: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None

    @property
    def painless_report(self) -> PainlessReport:
        if self._painless is None:
            self._painless = painless_check(self)
        return self._painless

    @property
    def painless(self) -> bool:
        return self.painless_report.painless

    def frame_diag(self) -> np.ndarray:
        """Diagonal frame profile ``S_d[j] = sum_l |g_l[j]|^2 / n_l``.

        In the painless regime this is the whole frame operator in the
        DFT basis.
        """
        if self._diag is None:
            d = np.zeros(self.grid.length)
            for atom, ch in zip(self.atoms, self.channels):
                d[atom.support] += atom.values ** 2 / ch.hop_samples
            self._diag = d
        return self._diag

    def frame_groups(self) -> List[Tuple[int, int, List[int]]]:
        """The channels grouped by frame lattice: ``(frames, hop,
        channel indices)`` per distinct frame count, in order of first
        appearance, each index list in channel order.

        Hops are powers of two dividing N, so a bank has only a handful
        of frame counts; the transform runs one FFT per group instead of
        one per channel.
        """
        if self._groups is None:
            groups = {}
            for l, ch in enumerate(self.channels):
                groups.setdefault((ch.frames, ch.hop_samples), []).append(l)
            self._groups = [(m, hop, ls) for (m, hop), ls in groups.items()]
        return self._groups

    def interior_bins(self) -> np.ndarray:
        """Bins whose warped position sees every prototype translate that
        an unbounded channel set would contribute (full-coverage band).
        Computed once; the array is read-only."""
        if self._interior is None:
            self._interior = self._interior_bins()
            self._interior.setflags(write=False)
        return self._interior

    def _interior_bins(self) -> np.ndarray:
        radius = self.theta.support_radius(max(self.truncation, 1e-12))
        w_lo = self.delta * (self.channels[0].index + 0.5) + radius
        w_hi = self.delta * (self.channels[-1].index + 0.5) - radius
        if w_hi <= w_lo:
            return np.array([], dtype=int)
        freqs = self.grid.bin_freqs()
        active = self.grid.active_mask(self.warp.domain)
        lo_hz = float(self.warp.inverse(w_lo))
        hi_hz = float(self.warp.inverse(w_hi))
        return np.flatnonzero(active & (freqs >= lo_hz) & (freqs <= hi_hz))

    def covered_bins(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """``(bins, profile, interior_covered)``: the bins whose frame
        profile reaches ``DIAG_FLOOR`` times its peak, the profile on
        them, and whether every interior bin is among them.  The
        diagonal inverse divides on these bins and leaves the rest at
        zero.  Computed once; the arrays are read-only."""
        if self._covered is None:
            d = self.frame_diag()
            floor = DIAG_FLOOR * float(np.max(d))
            bins = np.flatnonzero(d >= floor)
            profile = d[bins]
            interior = self.interior_bins()
            interior_covered = not (interior.size
                                    and float(np.min(d[interior])) < floor)
            bins.setflags(write=False)
            profile.setflags(write=False)
            self._covered = (bins, profile, interior_covered)
        return self._covered

    def channel_positions(self) -> np.ndarray:
        return np.array([ch.center_hz for ch in self.channels])

    def hop_seconds(self) -> np.ndarray:
        fs = self.grid.sample_rate
        return np.array([ch.hop_samples / fs for ch in self.channels])


def build_system(warp: WarpingFunction, theta: Prototype, delta: float,
                 grid: SignalGrid, time_scale: float = 1.0,
                 normalize: bool = True, truncation: float = 1e-8) -> WarpedSystem:
    """Design channels and atoms for a warp/prototype pair.

    ``normalize=True`` (the default) rescales the prototype to unit L2
    norm first, which fixes the reconstruction constant at 1.
    ``truncation`` must lie in ``[0, 1)``.
    """
    if not 0 <= truncation < 1:
        raise ConfigError(f"truncation must lie in [0, 1), got {truncation}")
    if normalize:
        try:
            theta = normalized(theta)
        except DivergenceError as exc:  # e.g. a gaussian too wide to integrate
            raise ConfigError(
                f"prototype cannot be normalized: {exc}") from None
    channels = design_channels(warp, delta, grid, time_scale)
    atoms = [build_atom(warp, theta, ch.center_hz, grid, truncation)
             for ch in channels]
    return WarpedSystem(warp, theta, delta, grid, channels, atoms,
                        time_scale, truncation, normalize)


class Coefficients:
    """Warped transform coefficients: one complex array per channel.

    Carries enough channel metadata (centre, hop in seconds, frame
    count) to be serialized standalone.
    """

    def __init__(self, data: List[np.ndarray], centers_hz: np.ndarray,
                 hop_seconds: np.ndarray, length: int):
        if not (len(data) == len(centers_hz) == len(hop_seconds)):
            raise ShapeError("coefficient metadata lengths disagree")
        self.data = [np.asarray(c, dtype=complex) for c in data]
        self.centers_hz = np.asarray(centers_hz, dtype=float)
        self.hop_seconds = np.asarray(hop_seconds, dtype=float)
        self.length = int(length)

    @property
    def channel_count(self) -> int:
        return len(self.data)

    def frame_counts(self) -> np.ndarray:
        return np.array([c.size for c in self.data], dtype=int)

    def total_coefficients(self) -> int:
        return int(sum(c.size for c in self.data))

    def matches_system(self, system: WarpedSystem) -> bool:
        if self.channel_count != len(system.channels):
            return False
        if self.length != system.grid.length:
            return False
        return all(c.size == ch.frames
                   for c, ch in zip(self.data, system.channels))
