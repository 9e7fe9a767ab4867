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

Every atom is the same prototype, warped and translated, so a bank is
sampled as one array expression over (channel, bin) pairs, evaluated in
batches of the channels' windows laid end to end.  The channels' band
edges, centres, ``F(x_l)`` and ``F'(x_l)`` are evaluated on arrays too.

A system stores its atoms once, as one bank in frame-group order (the
retained values and bins, and each atom's entry count): the channels'
atoms are views of it, and the transform reads it in chunks.

Half-line warps analyze the analytic part only: non-positive bins are
zeroed and reconstructions live on positive frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (CapabilityError, ConfigError, DegenerateAtomError,
                     DivergenceError, IllConditionedError, ShapeError)
from .prototype import Prototype, normalized
from .warping import POSITIVE_HALF_LINE, WarpingFunction

#: bins with frame profile below this fraction of its peak are treated
#: as uncovered by the diagonal inverse
DIAG_FLOOR = 1e-12

#: the largest frame-operator fiber decomposed; a larger one is refused
FIBER_CAP = 1024

#: channels per chunk of the bank layout; the transform's fold and
#: unfold work a chunk at a time, which bounds their scratch
CHUNK_ROWS = 8

#: the fewest coefficients for which the transform splits a bank into two
#: lanes (:meth:`WarpedSystem.lane_split`); below it a lane's FFTs are too
#: short to pay for handing them to another thread
LANE_MIN_COEFFICIENTS = 1 << 17


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


def _active_bins(grid: SignalGrid, domain: str) -> Tuple[int, int]:
    """The lowest and highest signed bin of the grid's active band."""
    k_max = grid.length // 2
    return (1 if domain == POSITIVE_HALF_LINE else 1 - k_max), k_max


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
    f_lo, f_hi = grid.signed_bin_freqs(
        np.array(_active_bins(grid, warp.domain))).tolist()
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
    l = np.arange(int(l_min), int(l_max) + 1)
    edges = warp.inverse(delta * np.append(l, l[-1] + 1))
    lo, hi = edges[:-1], edges[1:]
    center = warp.inverse(delta * (l + 0.5))
    bw = hi - lo
    tau = time_scale * delta * delta / bw
    # the hop is tau rounded down to a power of two, at most N; clamped
    # while still a float, since tau * fs can exceed any integer type
    samples = np.minimum(tau * grid.sample_rate, grid.length)
    hop = 1 << np.floor(np.log2(np.maximum(samples, 1.0))).astype(np.int64)
    return [Channel(*row) for row in zip(
        l.tolist(), center.tolist(), lo.tolist(), hi.tolist(), bw.tolist(),
        tau.tolist(), hop.tolist(), (grid.length // hop).tolist())]


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


#: window entries sampled per batch, which bounds the temporaries
SAMPLE_CHUNK = 1 << 12


def build_atom(warp: WarpingFunction, theta: Prototype, x: float,
               grid: SignalGrid, truncation: float = 1e-8) -> Atom:
    """Sample ``sqrt(F'(x)) theta(F(.) - F(x))`` on the grid bins.

    Values below ``truncation`` times the peak are zeroed; an atom that
    vanishes on every bin raises :class:`DegenerateAtomError`.  This is
    the one-atom case of the bank sampler behind :func:`build_system`.
    """
    values, support, _ = _sample_bank(warp, theta, [x], grid, truncation)
    return Atom(values, support, float(x))


def _sample_bank(warp: WarpingFunction, theta: Prototype, xs,
                 grid: SignalGrid, truncation: float
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms centred at ``xs``, sampled in one pass: ``(values,
    support, sizes)``, their retained entries end to end in the order of
    ``xs`` and each atom's entry count.

    Only each atom's window is sampled: the active bins between
    ``F^{-1}(F(x) + c - R)`` and ``F^{-1}(F(x) + c + R)``, where ``c`` is
    the prototype's centre and ``R = theta.support_radius(truncation)``
    (the smallest normal double stands in for a truncation of 0),
    widened by one guard bin on each side and by the two bins around
    the peak frequency ``F^{-1}(F(x) + c)``.  This rests on the axioms:
    ``F`` is increasing and ``theta`` is even about ``c`` and does not
    increase away from it.  So the atom peaks on the bins around the
    peak frequency and decays monotonically away from them, and once
    the truncation drops a guard bin it drops every bin beyond it.  The
    atoms that keep a guard bin are sampled again with ``R`` doubled, up
    to the edges of the active band.  Each atom equals sampling on every
    bin, bit for bit.

    ``F(x)``, ``F'(x)`` and the peak frequencies are evaluated on the
    array ``xs``, and ``F`` and ``theta`` on batches of whole windows,
    laid end to end, of about ``SAMPLE_CHUNK`` entries, each round into
    one store; atoms of later rounds are gathered back into ``xs`` order.
    The first centre in ``xs`` whose atom vanishes is named.
    """
    x = np.array(xs, dtype=float)
    fx = warp.eval(x)
    scale = np.sqrt(warp.derivative(x))
    u0 = fx + theta.center                      # the atoms' peaks, warped
    peak_hz = x if theta.center == 0 else warp.inverse(u0)
    k_min, k_max = _active_bins(grid, warp.domain)
    bin_hz = grid.bin_hz
    lo_edge, hi_edge = k_min * bin_hz, k_max * bin_hz

    def bin_of(hz, rounding):
        # clamped in Hz first: an overflowed inverse gives inf or nan
        hz = np.where(hz >= lo_edge, np.minimum(hz, hi_edge), lo_edge)
        return np.clip(rounding(hz / bin_hz), k_min, k_max).astype(np.int64)

    k_peak_lo = bin_of(peak_hz, np.floor)
    k_peak_hi = bin_of(peak_hz, np.ceil)
    radius = float(theta.support_radius(
        truncation if 0 < truncation < 1 else np.finfo(float).tiny))
    todo = np.arange(len(xs))
    stores = []                 # per round: (values, support, sizes, ids)
    while todo.size:
        k_lo, k_hi = np.full(todo.size, k_min), np.full(todo.size, k_max)
        if math.isfinite(radius):
            with np.errstate(over="ignore", invalid="ignore"):
                lo_hz = warp.inverse(u0[todo] - radius)
                hi_hz = warp.inverse(u0[todo] + radius)
            k_lo = np.clip(bin_of(lo_hz, np.ceil) - 1, k_min, k_peak_lo[todo])
            k_hi = np.clip(bin_of(hi_hz, np.floor) + 1, k_peak_hi[todo], k_max)
        # a batch: the windows that start in one SAMPLE_CHUNK-entry block
        sizes = k_hi - k_lo + 1
        block = (np.cumsum(sizes) - sizes) // SAMPLE_CHUNK
        cuts = np.flatnonzero(np.diff(block, prepend=-1))
        redo, done_ids, kept = [], [], []
        store_v = np.empty(int(sizes.sum()))
        store_s = np.empty(store_v.size, dtype=np.int64)
        used = 0
        for a, b in zip(cuts.tolist(), cuts[1:].tolist() + [todo.size]):
            ids, lo, hi, size = todo[a:b], k_lo[a:b], k_hi[a:b], sizes[a:b]
            starts = np.cumsum(size) - size
            k = np.arange(starts[-1] + size[-1]) + np.repeat(lo - starts, size)
            vals = np.repeat(scale[ids], size) * theta.eval(
                warp.eval(grid.signed_bin_freqs(k)) - np.repeat(fx[ids], size))
            peak = np.maximum.reduceat(np.abs(vals), starts)
            if not peak.all():
                x0 = xs[ids[np.argmin(peak != 0.0)]]
                raise DegenerateAtomError(
                    f"atom at {x0} Hz vanishes on the grid")
            if truncation:
                vals[np.abs(vals) < np.repeat(truncation * peak, size)] = 0.0
            done = (((lo == k_min) | (vals[starts] == 0.0))
                    & ((hi == k_max) | (vals[starts + size - 1] == 0.0)))
            redo.append(ids[~done])
            keep = (vals != 0.0) & np.repeat(done, size)
            counts = np.add.reduceat(keep, starts, dtype=np.intp)
            done_ids.append(ids[done])
            kept.append(counts[done])
            k = k[keep]
            vals = np.compress(keep, vals, out=store_v[used:used + k.size])
            support = np.remainder(k, grid.length,
                                   out=store_s[used:used + k.size])
            used += k.size
            # storage order: a window across DC puts its negative bins last
            ends_kept = np.cumsum(counts)
            for j in np.flatnonzero(done & (lo < 0) & (0 <= hi)).tolist():
                seg = slice(ends_kept[j] - counts[j], ends_kept[j])
                wrap = np.count_nonzero(k[seg] < 0)
                vals[seg] = np.roll(vals[seg], -wrap)
                support[seg] = np.roll(support[seg], -wrap)
        stores.append((store_v[:used], store_s[:used],
                       np.concatenate(kept), np.concatenate(done_ids)))
        todo = np.concatenate(redo)
        radius *= 2.0
    if len(stores) == 1:
        return stores[0][:3]
    # atoms sampled again lie in later stores: gather them into xs order
    values, support, sizes, ids = map(np.concatenate, zip(*stores))
    take = np.argsort(np.repeat(ids, sizes), kind="stable")
    return values[take], support[take], sizes[np.argsort(ids)]


def _frame_groups(channels: List[Channel]) -> List[Tuple[int, int, List[int]]]:
    groups = {}
    for l, ch in enumerate(channels):
        groups.setdefault((ch.frames, ch.hop_samples), []).append(l)
    return [(m, hop, ls) for (m, hop), ls in groups.items()]


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
    _, support, sizes = system.bank
    order = system._order       # the channel of each atom of the bank
    sup = np.empty(len(order))
    sup[order] = sizes * system.grid.bin_hz
    lim = np.array([1.0 / ch.tau_seconds for ch in system.channels])
    # one count per (channel, residue); channel l's residues start at
    # offsets[l], and the counts take as many entries as the coefficients
    frames = np.array([ch.frames for ch in system.channels])
    offsets = np.cumsum(frames) - frames
    residues = (support % np.repeat(frames[order], sizes)
                + np.repeat(offsets[order], sizes))
    alias = np.maximum.reduceat(
        np.bincount(residues, minlength=int(frames.sum())), offsets) <= 1
    bad = tuple(np.flatnonzero((sup > lim) | ~alias).tolist())
    return PainlessReport(len(bad) == 0, sup, lim, alias, bad)


class WarpedSystem:
    """A fully built warped filterbank on a signal grid.

    Use :func:`build_system`; the constructor only wires the parts
    together.  ``bank`` is the one stored form of the atoms: ``(values,
    support, sizes)``, their entries end to end in the order of
    ``groups`` (:meth:`frame_groups`) and each atom's entry count.
    ``atoms`` lists them in channel order, as views of the bank.
    """

    def __init__(self, warp: WarpingFunction, theta: Prototype, delta: float,
                 grid: SignalGrid, channels: List[Channel],
                 groups: List[Tuple[int, int, List[int]]],
                 bank: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 time_scale: float = 1.0, truncation: float = 1e-8,
                 normalize: bool = True):
        self.warp = warp
        self.theta = theta
        self.delta = delta
        self.grid = grid
        self.channels = channels
        self.bank = bank
        self.time_scale = time_scale
        self.truncation = truncation
        self.normalize = normalize
        self._groups = groups
        self._order = [l for _, _, ls in groups for l in ls]
        values, support, sizes = bank
        ends = np.cumsum(sizes).tolist()
        self.atoms: List[Atom] = [None] * len(channels)
        for l, a, b in zip(self._order, [0] + ends, ends):
            self.atoms[l] = Atom(values[a:b], support[a:b], channels[l].center_hz)
        self._painless: Optional[PainlessReport] = None
        self._diag: Optional[np.ndarray] = None
        self._layout: Optional[Tuple[list, List[int]]] = None
        self._split = 0
        self._interior: Optional[np.ndarray] = None
        self._covered: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None
        self._interior_fibers: Optional[Tuple[np.ndarray, list]] = None
        self._inverses: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

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

        This is the diagonal of the frame operator in the DFT basis, and
        in the painless regime the whole of it.
        """
        if self._diag is None:
            # summed in channel order, as bincount adds its weights in order
            hops = [ch.hop_samples for ch in self.channels]
            sizes = [a.support_bins for a in self.atoms]
            self._diag = np.bincount(
                np.concatenate([a.support for a in self.atoms]),
                np.concatenate([a.values for a in self.atoms]) ** 2
                / np.repeat(hops, sizes), minlength=self.grid.length)
        return self._diag

    def frame_groups(self) -> List[Tuple[int, int, List[int]]]:
        """The channels grouped by frame lattice: ``(frames, hop,
        channel indices)`` per distinct frame count, in order of first
        appearance, each index list in channel order.

        Hops are powers of two dividing N, so a bank has only a handful
        of frame counts; the transform runs one FFT per group instead of
        one per channel.
        """
        return self._groups

    def bank_layout(self) -> Tuple[list, List[int]]:
        """``(groups, position)``, built once: ``(frames, hop, channel
        indices, chunks)`` per group of :meth:`frame_groups`, and each
        channel's row among the groups' rows.  A chunk of at most
        :data:`CHUNK_ROWS` channels is ``(rows, support, values, slot)``:
        their rows in the group, their entries (views of the bank), and
        each entry's ``row * frames + (bin mod frames)`` in those rows."""
        if self._layout is None:
            groups = self._groups
            values, support, sizes = self.bank
            if (len(groups) > 1 and sum(len(ls) * m for m, _, ls in groups)
                    >= LANE_MIN_COEFFICIENTS):
                # FFT cost rows * M * log2 M, summed over the leading groups
                cost = np.cumsum([len(ls) * m * np.log2(m) for m, _, ls in groups])
                self._split = int(np.argmin(abs(cost[:-1] - cost[-1] / 2))) + 1
            frames = np.repeat([m for m, _, _ in groups],
                               [len(ls) for _, _, ls in groups])
            row = np.concatenate([np.arange(len(ls)) % CHUNK_ROWS
                                  for _, _, ls in groups])
            # frames is a power of two: the mask is the residue mod frames
            slot = np.repeat(frames - 1, sizes)
            slot &= support
            slot += np.repeat(row * frames, sizes)
            cuts = (np.cumsum(sizes) - sizes)[row == 0].tolist() + [slot.size]
            chunks = iter([(support[a:b], values[a:b], slot[a:b])
                           for a, b in zip(cuts, cuts[1:])])
            self._layout = ([(m, hop, ls, [
                (slice(r, r + CHUNK_ROWS), *next(chunks))
                for r in range(0, len(ls), CHUNK_ROWS)]) for m, hop, ls in groups],
                sorted(range(len(self._order)), key=self._order.__getitem__))
        return self._layout

    def lane_split(self) -> int:
        """How many leading groups of :meth:`bank_layout` form the first
        of two lanes of about equal FFT cost (``rows * M * log2 M``
        summed), built with the layout: at least one and fewer than all,
        or 0 when the bank has one group or fewer than
        :data:`LANE_MIN_COEFFICIENTS` coefficients."""
        self.bank_layout()
        return self._split

    def frame_fibers(self, bins: np.ndarray
                     ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """The frame operator ``S`` compressed to ``bins``, split into the
        fibers of bins it couples: ``S[j, j'] = sum_l g_l[j] g_l[j'] / n_l``
        over the channels holding both with ``j = j' (mod M_l)``.  Returns
        the bins coupled to none (a painless system has only these) and,
        per fiber size ``k > 1``, the fibers' bins ``(F, k)`` and blocks
        ``(F, k, k)``.  A fiber above :data:`FIBER_CAP` bins raises
        :class:`CapabilityError`."""
        # only a channel that is not alias-free couples two bins
        ls = np.flatnonzero(~self.painless_report.alias_free).tolist()
        if not ls:
            return bins, []
        n = self.grid.length
        inside = np.zeros(n, dtype=bool)
        inside[bins] = True
        sizes = [self.atoms[l].support_bins for l in ls]
        j = np.concatenate([self.atoms[l].support for l in ls])
        g = np.concatenate([self.atoms[l].values for l in ls])
        hop = np.repeat([self.channels[l].hop_samples for l in ls], sizes)
        # a class per channel and residue mod n / hop, its entries in order
        cls = np.repeat(ls, sizes) * n + j % (n // hop)
        keep = inside[j]
        order = np.flatnonzero(keep)[np.argsort(cls[keep], kind="stable")]
        j, g, hop, cls = (v[order] for v in (j, g, hop, cls))
        # a class is coupled pairwise, so each member is linked to the next;
        # min-label propagation with pointer jumping labels fibers by their least bin
        link = np.flatnonzero(cls[1:] == cls[:-1])
        if link.size == 0:  # nothing coupled: every fiber is one bin
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
        if size.max() > FIBER_CAP:
            raise CapabilityError(f"a frame-operator fiber of {size.max()} "
                                  f"bins exceeds FIBER_CAP = {FIBER_CAP}")
        order = bins[np.lexsort((bins, label[bins], size[bins]))]
        singles, multi = order[size[order] == 1], order[size[order] > 1]
        # the blocks lie end to end, one row of k entries per bin of a
        # fiber of k; a fiber's first bin is its label
        at, row = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        at[multi] = np.arange(multi.size)
        row[multi] = np.cumsum(size[multi]) - size[multi]
        pos = at - at[label]
        # every ordered pair (r, c) of members of a class, in a fiber
        start = np.flatnonzero(np.diff(cls, prepend=-1))
        count = np.diff(np.append(start, cls.size))
        reps = np.repeat(count, count)
        r = np.repeat(np.arange(cls.size), reps)
        c = np.arange(r.size) + np.repeat(
            np.repeat(start, count) - np.cumsum(reps) + reps, reps)
        r, c = r[size[j[r]] > 1], c[size[j[r]] > 1]
        flat = np.bincount(row[j[r]] + pos[j[c]], g[r] * g[c] / hop[r],
                           int(np.sum(size[multi])))
        flat[row[multi] + pos[multi]] = self.frame_diag()[multi]
        cuts = np.flatnonzero(np.diff(size[multi])) + 1
        blocks = zip(np.split(multi, cuts), np.split(flat, row[multi[cuts]]))
        return singles, [(b.reshape(-1, size[b[0]]),
                          s.reshape(-1, size[b[0]], size[b[0]])) for b, s in blocks]

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

    def interior_fibers(self):
        """:meth:`frame_fibers` on :meth:`interior_bins`, computed once."""
        if self._interior_fibers is None:
            self._interior_fibers = self.frame_fibers(self.interior_bins())
        return self._interior_fibers

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

    def fiber_inverses(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(bins, inverses)`` of the fibers of ``S`` on the covered bins,
        per size ``k > 1``; computed once.  A fiber eigenvalue below ``DIAG_FLOOR``
        times the profile's peak raises :class:`IllConditionedError`."""
        if self._inverses is None:
            floor = DIAG_FLOOR * float(np.max(self.frame_diag()))
            fibers = self.frame_fibers(self.covered_bins()[0])[1]
            if any(np.linalg.eigvalsh(s)[:, 0].min() < floor for _, s in fibers):
                raise IllConditionedError(
                    "frame operator is singular to rounding on a fiber")
            self._inverses = [(b, np.linalg.inv(s)) for b, s in fibers]
        return self._inverses

    def channel_positions(self) -> np.ndarray:
        return np.array([ch.center_hz for ch in self.channels])

    def hop_seconds(self) -> np.ndarray:
        fs = self.grid.sample_rate
        return np.array([ch.hop_samples / fs for ch in self.channels])


def build_system(warp: WarpingFunction, theta: Prototype, delta: float,
                 grid: SignalGrid, time_scale: float = 1.0,
                 normalize: bool = True, truncation: float = 1e-8) -> WarpedSystem:
    """Design channels and atoms for a warp/prototype pair.

    Every atom is sampled in one batched pass (see :func:`build_atom`).
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
    groups = _frame_groups(channels)
    # sampled in frame-group order, so the bank is laid out for the transform
    bank = _sample_bank(warp, theta, [channels[l].center_hz
                                      for _, _, ls in groups for l in ls],
                        grid, truncation)
    return WarpedSystem(warp, theta, delta, grid, channels, groups, bank,
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
