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

A system holds its channels as one table of arrays (:class:`ChannelTable`)
and its atoms once, as one bank in channel order (the retained values
and bins, and each atom's entry count).  All else it knows is a function
of these, computed on first use and kept per system: the per-channel
:class:`Channel` and :class:`Atom` objects, the painless report, the
frame profile, the transform's layout (runs of channels that share a
frame count), and the interior and covered bins and their fibers.

Half-line warps analyze the analytic part only: non-positive bins are
zeroed and reconstructions live on positive frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterator, List, Tuple

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


@dataclass(eq=False)
class ChannelTable:
    """The channels' geometry, one read-only array per :class:`Channel`
    field, in channel order.  It reads as a sequence of channels:
    indexing and iteration give :class:`Channel` rows, a slice gives a
    table, and a table equals a list of the same rows."""

    index: np.ndarray
    center_hz: np.ndarray
    band_lo_hz: np.ndarray
    band_hi_hz: np.ndarray
    bandwidth_hz: np.ndarray
    tau_seconds: np.ndarray
    hop_samples: np.ndarray
    frames: np.ndarray

    def __len__(self) -> int:
        return self.index.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ChannelTable(*(c[i] for c in vars(self).values()))
        return Channel(*(c[i].item() for c in vars(self).values()))

    def __iter__(self) -> Iterator[Channel]:
        return map(Channel, *(c.tolist() for c in vars(self).values()))

    def __eq__(self, other):
        if not isinstance(other, (ChannelTable, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


def _active_bins(grid: SignalGrid, domain: str) -> Tuple[int, int]:
    """The lowest and highest signed bin of the grid's active band."""
    k_max = grid.length // 2
    return (1 if domain == POSITIVE_HALF_LINE else 1 - k_max), k_max


def design_channels(warp: WarpingFunction, delta: float, grid: SignalGrid,
                    time_scale: float = 1.0) -> ChannelTable:
    """The table of all channels whose centre lies in the grid's active
    band.

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
    table = ChannelTable(l, center, lo, hi, bw, tau, hop, grid.length // hop)
    for column in vars(table).values():
        column.flags.writeable = False
    return table


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


#: window entries sampled per batch, which bounds the temporaries.  Each
#: batch makes ~30 numpy calls, so small batches are mostly overhead.
#: 2^15 built the ERB bank fastest from N = 2^12 to 2^18 and slowed no
#: bank measured; its temporaries pass glibc's 128 KiB mmap threshold,
#: which a process that has freed N = 2^16 arrays has raised already.
SAMPLE_CHUNK = 1 << 15


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
    ``F^{-1}(F(x) - R)`` and ``F^{-1}(F(x) + R)``, where
    ``R = theta.support_radius(truncation)`` (the smallest normal double
    stands in for a truncation of 0), widened by one guard bin on each
    side and by the two bins around the peak frequency ``x``.  This
    rests on the axioms: ``F`` is increasing and ``theta`` is even and
    does not increase away from 0.  So the atom peaks on the bins around
    ``x`` and decays monotonically away from them, and once the
    truncation drops a guard bin it drops every bin beyond it.  The atoms
    that keep a guard bin are sampled again with ``R`` doubled, up to the
    edges of the active band.  Each atom equals sampling on every bin,
    bit for bit.

    ``F(x)`` and ``F'(x)`` are evaluated on the array ``xs``, and
    ``theta`` on batches of whole windows laid end to end: the windows
    that start in one ``SAMPLE_CHUNK``-entry block, so a batch holds at
    most ``SAMPLE_CHUNK`` entries and its last window.
    ``F`` is evaluated once per bin of a batch's range when bins repeat
    in it, else once per entry.  Each round's kept entries go into one
    store; atoms of later rounds are gathered back into ``xs`` order.
    The first centre in ``xs`` whose atom vanishes is named.
    """
    x = np.array(xs, dtype=float)
    fx = warp.eval(x)
    scale = np.sqrt(warp.derivative(x))
    k_min, k_max = _active_bins(grid, warp.domain)
    bin_hz = grid.bin_hz
    lo_edge, hi_edge = k_min * bin_hz, k_max * bin_hz

    def bin_of(hz, rounding):
        # clamped in Hz first: an overflowed inverse gives inf or nan
        hz = np.where(hz >= lo_edge, np.minimum(hz, hi_edge), lo_edge)
        return np.clip(rounding(hz / bin_hz), k_min, k_max).astype(np.int64)

    k_peak_lo = bin_of(x, np.floor)
    k_peak_hi = bin_of(x, np.ceil)
    radius = float(theta.support_radius(
        truncation if 0 < truncation < 1 else np.finfo(float).tiny))
    todo = np.arange(len(xs))
    stores = []                 # per round: (values, support, sizes, ids)
    while todo.size:
        k_lo, k_hi = np.full(todo.size, k_min), np.full(todo.size, k_max)
        if math.isfinite(radius):
            with np.errstate(over="ignore", invalid="ignore"):
                lo_hz = warp.inverse(fx[todo] - radius)
                hi_hz = warp.inverse(fx[todo] + radius)
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
            # F once per bin of the batch's range (about the union of its
            # windows, which overlap) when bins repeat, else once per entry
            base = int(lo.min())
            span = int(hi.max()) - base + 1
            if span < k.size:
                bins = np.arange(base, base + span)
                vals = warp.eval(grid.signed_bin_freqs(bins))[k - base]
            else:
                vals = warp.eval(grid.signed_bin_freqs(k))
            # in place where the bits allow, so fewer temporaries are live
            vals -= np.repeat(fx[ids], size)
            vals = theta.eval(vals)
            np.multiply(np.repeat(scale[ids], size), vals, out=vals)
            mag = np.abs(vals)
            peak = np.maximum.reduceat(mag, starts)
            if not peak.all():
                x0 = xs[ids[np.argmin(peak != 0.0)]]
                raise DegenerateAtomError(
                    f"atom at {x0} Hz vanishes on the grid")
            # the entries the truncation drops; the floor is at least the
            # least subnormal, so zeros are dropped even when it underflows
            small = mag < (np.repeat(np.fmax(truncation * peak, 5e-324), size)
                           if truncation else 5e-324)
            done = (((lo == k_min) | small[starts])
                    & ((hi == k_max) | small[starts + size - 1]))
            redo.append(ids[~done])
            keep = ~small & np.repeat(done, size)
            counts = np.add.reduceat(keep, starts, dtype=np.intp)
            done_ids.append(ids[done])
            kept.append(counts[done])
            end = used + int(counts.sum())
            store_v[used:end] = vals[keep]
            store_s[used:end] = k[keep]
            vals, support = store_v[used:end], store_s[used:end]
            support &= grid.length - 1      # k + N (k < 0), as N = 2^m
            used = end
            # storage order: a window across DC puts its negative bins last,
            # a rotation of its entries, gathered for all such windows at once
            cross = np.flatnonzero(done & (lo < 0) & (0 <= hi))
            if cross.size:
                width = counts[cross]
                head = np.cumsum(width) - width
                start = np.repeat((np.cumsum(counts) - counts)[cross], width)
                at = start + np.arange(start.size) - np.repeat(head, width)
                wrap = np.add.reduceat(support[at] > grid.length // 2, head,
                                       dtype=np.intp)
                rot = at - start + np.repeat(wrap, width)
                take = start + rot % np.repeat(width, width)
                vals[at] = vals[take]
                support[at] = support[take]
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
    sup = sizes * system.grid.bin_hz
    lim = 1.0 / system.channels.tau_seconds
    # one count per (channel, residue); channel l's residues start at
    # offsets[l], and the counts take as many entries as the coefficients
    frames = system.channels.frames
    offsets = np.cumsum(frames) - frames
    residues = support % np.repeat(frames, sizes) + np.repeat(offsets, sizes)
    alias = np.maximum.reduceat(
        np.bincount(residues, minlength=int(frames.sum())), offsets) <= 1
    bad = tuple(np.flatnonzero((sup > lim) | ~alias).tolist())
    return PainlessReport(len(bad) == 0, sup, lim, alias, bad)


def _once(method):
    """A zero-argument method computed once per instance and kept in its
    ``_memo``; the first value stored wins, and an exception is not kept."""
    @wraps(method)
    def memo(self):
        try:
            return self._memo[method]
        except KeyError:
            return self._memo.setdefault(method, method(self))
    return memo


class WarpedSystem:
    """A fully built warped filterbank on a signal grid.

    Use :func:`build_system`; the constructor only wires the parts
    together.  ``bank`` is the one stored form of the atoms: ``(values,
    support, sizes)``, their entries end to end in channel order and
    each atom's entry count.  ``channels`` is the :class:`ChannelTable`.
    """

    def __init__(self, warp: WarpingFunction, theta: Prototype, delta: float,
                 grid: SignalGrid, channels: ChannelTable,
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
        self._memo: dict = {}

    @cached_property
    def atoms(self) -> List[Atom]:
        """The atoms in channel order, as views of the bank; built on
        first access."""
        values, support, sizes = self.bank
        return [Atom(values[b - k:b], support[b - k:b], x) for b, k, x in zip(
            np.cumsum(sizes).tolist(), sizes.tolist(),
            self.channels.center_hz.tolist())]

    @cached_property
    def painless_report(self) -> PainlessReport:
        return painless_check(self)

    @property
    def painless(self) -> bool:
        return self.painless_report.painless

    @_once
    def frame_diag(self) -> np.ndarray:
        """Diagonal frame profile ``S_d[j] = sum_l |g_l[j]|^2 / n_l``.

        This is the diagonal of the frame operator in the DFT basis, and
        in the painless regime the whole of it.
        """
        # summed in channel order, as bincount adds its weights in order;
        # divided in place, as each pass is one bank long
        values, support, sizes = self.bank
        weights = values ** 2
        weights /= np.repeat(self.channels.hop_samples, sizes)
        return np.bincount(support, weights, minlength=self.grid.length)

    @_once
    def bank_layout(self) -> Tuple[list, int, int]:
        """How the transform batches the bank: ``(runs, coefficients,
        entries)``, the runs in channel order and the counts of the
        largest chunk, which size the fold's and unfold's scratch.

        A run is a maximal stretch of consecutive channels that share a
        frame count ``M``: ``(M, block, chunks)``, with ``block`` its
        slice of the coefficients laid end to end in channel order, and
        its chunks of at most :data:`CHUNK_ROWS` channels.  A chunk is
        ``(coeffs, support, values, slot)``: its coefficient slice, its
        entries (views of the bank), and each entry's
        ``row * M + (bin mod M)`` in the chunk's rows."""
        values, support, sizes = self.bank
        frames = self.channels.frames
        # the runs' first channels, and each channel's row in its chunk
        heads = np.flatnonzero(np.diff(frames, prepend=0)).tolist()
        ends = heads[1:] + [len(frames)]
        row = np.concatenate([np.arange(b - a) for a, b in zip(heads, ends)])
        row %= CHUNK_ROWS
        # frames is a power of two: the mask is the residue mod frames
        slot = np.repeat(frames - 1, sizes)
        slot &= support
        slot += np.repeat(row * frames, sizes)
        coef = [0] + np.cumsum(frames).tolist()
        entry = [0] + np.cumsum(sizes).tolist()
        runs = []
        for a, b in zip(heads, ends):
            cuts = [*range(a, b, CHUNK_ROWS), b]
            runs.append((int(frames[a]), slice(coef[a], coef[b]), [
                (slice(coef[c], coef[d]),
                 *(v[entry[c]:entry[d]] for v in (support, values, slot)))
                for c, d in zip(cuts, cuts[1:])]))
        chunks = [c for _, _, cs in runs for c in cs]
        return (runs, max(c[0].stop - c[0].start for c in chunks),
                max(c[1].size for c in chunks))

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
        aliased = ~self.painless_report.alias_free
        ls = np.flatnonzero(aliased)
        if not ls.size:
            return bins, []
        n = self.grid.length
        inside = np.zeros(n, dtype=bool)
        inside[bins] = True
        values, support, sizes = self.bank
        entries = np.repeat(aliased, sizes)
        j, g, sizes = support[entries], values[entries], sizes[ls]
        hop = np.repeat(self.channels.hop_samples[ls], sizes)
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

    @_once
    def interior_bins(self) -> np.ndarray:
        """Bins whose warped position sees every prototype translate that
        an unbounded channel set would contribute (full-coverage band).
        The array is read-only."""
        radius = self.theta.support_radius(max(self.truncation, 1e-12))
        w_lo = self.delta * (int(self.channels.index[0]) + 0.5) + radius
        w_hi = self.delta * (int(self.channels.index[-1]) + 0.5) - radius
        bins = np.array([], dtype=int)
        if w_lo < w_hi:
            freqs = self.grid.bin_freqs()
            inside = ((freqs >= float(self.warp.inverse(w_lo)))
                      & (freqs <= float(self.warp.inverse(w_hi))))
            if self.warp.domain == POSITIVE_HALF_LINE:
                inside &= freqs > 0
            bins = np.flatnonzero(inside)
        bins.setflags(write=False)
        return bins

    @_once
    def interior_fibers(self):
        """:meth:`frame_fibers` on :meth:`interior_bins`."""
        return self.frame_fibers(self.interior_bins())

    @_once
    def covered_bins(self) -> Tuple[np.ndarray, np.ndarray, bool]:
        """``(bins, profile, interior_covered)``: the bins whose frame
        profile reaches ``DIAG_FLOOR`` times its peak, the profile on
        them, and whether every interior bin is among them.  The
        diagonal inverse divides on these bins and leaves the rest at
        zero.  The arrays are read-only."""
        d = self.frame_diag()
        floor = DIAG_FLOOR * float(np.max(d))
        bins = np.flatnonzero(d >= floor)
        profile = d[bins]
        interior_covered = bool(np.all(d[self.interior_bins()] >= floor))
        bins.setflags(write=False)
        profile.setflags(write=False)
        return bins, profile, interior_covered

    @_once
    def fiber_inverses(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(bins, inverses)`` of the fibers of ``S`` on the covered bins,
        per size ``k > 1``.  A fiber eigenvalue below ``DIAG_FLOOR``
        times the profile's peak raises :class:`IllConditionedError`."""
        floor = DIAG_FLOOR * float(np.max(self.frame_diag()))
        fibers = self.frame_fibers(self.covered_bins()[0])[1]
        if any(np.linalg.eigvalsh(s)[:, 0].min() < floor for _, s in fibers):
            raise IllConditionedError(
                "frame operator is singular to rounding on a fiber")
        return [(b, np.linalg.inv(s)) for b, s in fibers]

    def channel_positions(self) -> np.ndarray:
        return self.channels.center_hz.copy()

    def hop_seconds(self) -> np.ndarray:
        return self.channels.hop_samples / self.grid.sample_rate


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
    bank = _sample_bank(warp, theta, channels.center_hz, grid, truncation)
    return WarpedSystem(warp, theta, delta, grid, channels, bank,
                        time_scale, truncation, normalize)


class Coefficients:
    """Warped transform coefficients: every channel's frames end to end,
    in channel order, as one complex array ``values``, and the metadata
    (frame count, centre, hop in seconds) to serialize them standalone."""

    def __init__(self, values: np.ndarray, frames: np.ndarray,
                 centers_hz: np.ndarray, hop_seconds: np.ndarray, length: int):
        self.values = np.asarray(values, dtype=complex)
        self.frames = np.asarray(frames, dtype=int)
        self.centers_hz = np.asarray(centers_hz, dtype=float)
        self.hop_seconds = np.asarray(hop_seconds, dtype=float)
        self.length = int(length)
        if not (len(self.frames) == len(self.centers_hz)
                == len(self.hop_seconds)
                and self.values.shape == (self.frames.sum(),)):
            raise ShapeError("coefficient metadata lengths disagree")

    @property
    def data(self) -> List[np.ndarray]:
        """Each channel's frames, as views of ``values``."""
        return np.split(self.values, np.cumsum(self.frames)[:-1])

    @property
    def channel_count(self) -> int:
        return len(self.frames)

    def matches_system(self, system: WarpedSystem) -> bool:
        return (self.length == system.grid.length and np.array_equal(
            self.frames, system.channels.frames))
