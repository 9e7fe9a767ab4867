"""Analysis and synthesis with warped filterbanks.

Analysis correlates the signal with time translates of each channel
atom.  In the DFT domain that is a product followed by an inverse FFT,
subsampled by the channel hop:

    c_l[k] = ifft(fft(f) * conj(g_l))[k * n_l]

The hop ``n_l`` divides N, so that subsampled N-point inverse FFT is an
``M_l``-point one (``M_l = N / n_l`` frames) of the product folded mod
``M_l``, divided by ``n_l``.  :func:`_fold` computes ``V`` that way on
each atom's support and :func:`_unfold` is its adjoint; analysis, the
adjoint and the frame operator are built on this pair.

Hops are powers of two, so the channels fall into a few groups that
share one frame count (six for the 132-channel ERB bank at N = 2^16;
see :meth:`WarpedSystem.frame_groups`).  Both maps work on chunks of at
most :data:`CHUNK_ROWS` channels of a group, read from the system's flat
bank layout: a gather, an in-place multiply and one ``np.add.at`` per
chunk.  :func:`_fold` runs one in-place FFT per group and
:func:`_unfold` one per chunk.  :func:`_fold` scales the spectrum once
by ``1/N`` and inverts with ``norm="forward"`` (no scaling): ``1/N``,
``1/M_l`` and ``1/n_l`` are powers of two, so this gives the bits of
``ifft(.) / n_l`` without a pass over the coefficients.

The groups are independent batches of FFTs, and numpy's FFT releases
the interpreter lock.  So on a bank of at least
:data:`~warpft.system.LANE_MIN_COEFFICIENTS` coefficients, when more
than one CPU is usable, both maps run in two lanes of about equal FFT
cost (:meth:`WarpedSystem.lane_split`): the leading groups on one
worker thread, started on first use, and the rest on the caller, which
always waits for the worker.  Below that size, or on one CPU, handing a
lane over costs more than it saves (ERB bank on 2 CPUs, round trip in
lanes against one, three runs: 1.2-1.4x the time at N = 2^13, 45,696
coefficients; 1.0-1.1x at 2^14; 0.83-0.89x at 2^15, 182,784
coefficients), so everything runs on the caller.  Either way every
coefficient and every bin is summed in the same order, so the results
are the same bits.

With unit-norm prototypes these coefficients approximate the continuous
inner products ``<f, g_{x_l, k n_l / fs}>`` directly, no extra scaling.

Synthesis folds the coefficients back to the DFT grid and solves
``S x = V* c`` there, exactly, on the small fibers into which ``S``
splits (see :meth:`WarpedSystem.frame_fibers`); in a painless system
each fiber is one bin and the solve divides by the diagonal frame
profile.  The round trip is exact to rounding on the interior band, and
to ``eps * max|fhat| * max(profile) / profile[j]`` on covered bin ``j``.
"""

from __future__ import annotations

import csv
import os
import threading
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from .errors import IllConditionedError, NotPainlessError, ShapeError
from .prototype import admissibility_inner_product
from .system import CHUNK_ROWS, Coefficients, WarpedSystem

T = TypeVar("T")

#: CPUs this process may run on; on one, two lanes would only take turns
_USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


_WORKER = None  # the lane worker: one thread, made on first use
_WORKER_LOCK = threading.Lock()


def _worker():
    """The lane worker, made on first use.  ``concurrent.futures`` is
    imported only then: it adds ~0.6 MB to a process's RSS, which one
    whose banks all stay below the lane cutoff never needs."""
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None:
            from concurrent.futures import ThreadPoolExecutor
            _WORKER = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="warpft-lane")
    return _WORKER


def _forget_worker() -> None:
    """In a forked child, which inherits no threads: make a new worker
    on first use instead of waiting on the parent's."""
    global _WORKER, _WORKER_LOCK
    _WORKER, _WORKER_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _lane_split(system: WarpedSystem) -> int:
    """The groups of the first lane (:meth:`WarpedSystem.lane_split`), or
    0 to run the whole bank on the caller."""
    return system.lane_split() if _USABLE_CPUS > 1 else 0


def _scratch(groups: list) -> Tuple[np.ndarray, np.ndarray]:
    """Memory for the rows and for the entries of the largest chunk of
    ``groups``.  A lane works in memory that the caller takes: glibc
    keeps what the worker thread frees in that thread's own arena, which
    raised erb_stream's peak RSS by ~2 MB."""
    return (np.empty(max(min(len(ls), CHUNK_ROWS) * m for m, _, ls, _ in groups),
                     dtype=complex),
            np.empty(max(c[1].size for g in groups for c in g[3]), dtype=complex))


def _in_lanes(first: Callable[[], object], second: Callable[[], T]) -> T:
    """Run ``first()`` on the lane worker and ``second()`` here, and return
    ``second()``'s result once both have finished.  Either one's exception
    is raised, the caller's if both raise."""
    future = _worker().submit(first)
    try:
        result = second()
    finally:
        error = future.exception()  # waits for the worker
    if error is not None:
        raise error
    return result


def _as_signal(f, n: int) -> np.ndarray:
    """``f`` as a complex array, copied only when it is not one."""
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"signal must be 1-d of length {n}, got shape {arr.shape}")
    return np.asarray(arr, dtype=complex)


def _fold(fhat: np.ndarray, system: WarpedSystem) -> List[np.ndarray]:
    """Analysis in the DFT domain: ``V`` applied to the spectrum ``fhat``.

    Per channel the product ``fhat * g_l`` is aliased onto the ``M_l``
    residues of the frame lattice and inverted with an ``M_l``-point
    FFT; that equals ``ifft_N(fhat * g_l)[::n_l]`` for any hop dividing
    N, painless or not.  The channels of a frame-count group fill the
    rows of one block of a single coefficient store: per chunk of the
    layout, the products are added onto their slots in index order,
    which sums each coefficient in its atom's support order.  One FFT
    per group inverts the block in place; its rows are the coefficients.
    With two lanes each fills and inverts the blocks of its own groups.
    """
    groups, position = system.bank_layout()
    # 1/N is a power of two, so scaling here and leaving the inverse FFTs
    # unscaled gives the bits of ifft(.) / hop, with M_l * hop = N
    fhat = fhat * (1.0 / system.grid.length)
    # the coefficients, group block after group block, in one allocation
    sizes = [len(ls) * m for m, _, ls, _ in groups]
    store = np.zeros(sum(sizes), dtype=complex)
    blocks = [b.reshape(-1, g[0])
              for b, g in zip(np.split(store, np.cumsum(sizes)), groups)]

    def fold(lo: int, hi: int, prod: np.ndarray) -> None:
        for (_, _, _, chunks), blk in zip(groups[lo:hi], blocks[lo:hi]):
            for part, support, values, slot in chunks:
                # valid indices: "clip" changes none, and takes no buffer
                gathered = fhat.take(support, out=prod[:support.size],
                                     mode="clip")
                gathered *= values
                np.add.at(blk[part].ravel(), slot, gathered)
            np.fft.ifft(blk, axis=1, norm="forward", out=blk)

    split = _lane_split(system)
    if split:
        first = _scratch(groups[:split])[1]
        _in_lanes(lambda: fold(0, split, first),
                  lambda: fold(split, len(groups), _scratch(groups[split:])[1]))
    else:
        fold(0, len(groups), _scratch(groups)[1])
    rows = [row for blk in blocks for row in blk]
    return list(map(rows.__getitem__, position))


def _spreads(data: List[np.ndarray], groups: list) -> Iterator[tuple]:
    """Per chunk of ``groups``: its entries' bins and spread values,
    the FFT of its rows gathered at their slots and weighted.  A chunk's
    spread values are overwritten by the next chunk's; the scratch they
    live in is taken by the call, not by the iteration."""
    rows, spread = _scratch(groups)

    def run():
        for frames, _, members, chunks in groups:
            for part, support, values, slot in chunks:
                blk = rows[:len(members[part]) * frames]
                np.concatenate(list(map(data.__getitem__, members[part])),
                               out=blk)
                blk = blk.reshape(-1, frames)
                np.fft.fft(blk, axis=1, out=blk)
                weighted = blk.ravel().take(slot, out=spread[:slot.size],
                                            mode="clip")
                weighted *= values
                yield support, weighted
    return run()


def _unfold(data: List[np.ndarray], system: WarpedSystem) -> np.ndarray:
    """Synthesis in the DFT domain: the spectrum of ``V* c``.

    The rows of a chunk of the layout share one in-place FFT; the
    spread rows are added onto their atoms' supports, so each bin sums
    its channels group by group and in channel order within a group.
    With two lanes the first adds its groups itself while the second
    keeps copies of its spreads, which are added once the first has
    finished.
    """
    out = np.zeros(system.grid.length, dtype=complex)
    groups = system.bank_layout()[0]
    split = _lane_split(system)

    def add(spreads) -> None:
        for support, spread in spreads:
            np.add.at(out, support, spread)

    if split:
        first = _spreads(data, groups[:split])
        add(_in_lanes(lambda: add(first), lambda: [
            (support, spread.copy())
            for support, spread in _spreads(data, groups[split:])]))
    else:
        add(_spreads(data, groups))
    return out


def _check_layout(coeffs: Coefficients, system: WarpedSystem) -> None:
    if not coeffs.matches_system(system):
        raise ShapeError("coefficient layout does not match the system")


def analyze(f, system: WarpedSystem) -> Coefficients:
    """Warped transform coefficients of ``f`` (length must match the grid)."""
    fhat = np.fft.fft(_as_signal(f, system.grid.length))
    return Coefficients(_fold(fhat, system), system.channel_positions(),
                        system.hop_seconds(), system.grid.length)


def adjoint(coeffs: Coefficients, system: WarpedSystem) -> np.ndarray:
    """Apply the synthesis map ``V* c = sum_{l,k} c_l[k] g_{l,k}``."""
    _check_layout(coeffs, system)
    return np.fft.ifft(_unfold(coeffs.data, system))


def apply_frame_operator(f, system: WarpedSystem) -> np.ndarray:
    """``S f = V* V f``."""
    fhat = np.fft.fft(_as_signal(f, system.grid.length))
    return np.fft.ifft(_unfold(_fold(fhat, system), system))


def synthesize(coeffs: Coefficients, system: WarpedSystem,
               iterative: bool = False) -> np.ndarray:
    """Reconstruct a signal from coefficients: solve ``S x = V* c`` on the
    covered bins (bins outside stay zero), dividing by the frame profile
    on 1x1 fibers and applying :meth:`WarpedSystem.fiber_inverses` on
    the rest.  ``iterative=False`` refuses a system that is not painless;
    ``iterative=True`` admits it."""
    if not iterative and not system.painless:
        raise NotPainlessError(
            "system fails the painless support condition; pass "
            "iterative=True (--iterative on the command line)")
    covered, profile, interior_covered = system.covered_bins()
    if not interior_covered:
        raise IllConditionedError(
            "frame profile nearly vanishes inside the covered band")
    _check_layout(coeffs, system)
    num = _unfold(coeffs.data, system)
    # solved from num before num is reused for the spectrum and the output
    parts = [(covered, num[covered] / profile)] + [
        (bins, (inverses @ num[bins][..., None])[..., 0])
        for bins, inverses in system.fiber_inverses()]
    num.fill(0)
    for bins, x in parts:
        num[bins] = x
    return np.fft.ifft(num, out=num)


def roundtrip_residual(f, system: WarpedSystem, iterative: bool = False) -> float:
    """Relative L2 error of analyze-then-synthesize on ``f``."""
    f = _as_signal(f, system.grid.length)
    rec = synthesize(analyze(f, system), system, iterative=iterative)
    denom = float(np.linalg.norm(f))
    if denom == 0:
        return float(np.linalg.norm(rec))
    return float(np.linalg.norm(rec - f) / denom)


def moyal_residual(f1, f2, system1: WarpedSystem,
                   system2: Optional[WarpedSystem] = None) -> float:
    """Orthogonality-relation defect for a pair of signals.

    The weighted coefficient pairing (cell measure times the warp weight
    at each channel slot) should match ``<f1, f2> <theta2, theta1>``;
    the absolute difference is returned.  ``system2`` defaults to
    ``system1`` and must share its grid, warp and channel layout.
    """
    s1 = system1
    s2 = system2 if system2 is not None else system1
    if (s1.grid.length != s2.grid.length
            or s1.grid.sample_rate != s2.grid.sample_rate
            or s1.delta != s2.delta
            or not np.array_equal(s1.channel_positions(),
                                  s2.channel_positions())
            or not np.array_equal(s1.hop_seconds(), s2.hop_seconds())):
        raise ShapeError("moyal_residual needs systems on a shared layout")
    c1 = analyze(f1, s1)
    c2 = analyze(f2, s2)
    fs = s1.grid.sample_rate
    lhs = 0.0 + 0.0j
    for a, b, ch in zip(c1.data, c2.data, s1.channels):
        slot = s1.delta * (ch.index + 0.5)
        wslot = float(s1.warp.weight(slot))
        lhs += s1.delta * wslot * (ch.hop_samples / fs) * np.vdot(b, a)
    inner = np.vdot(_as_signal(f2, s1.grid.length),
                    _as_signal(f1, s1.grid.length)) / fs
    rhs = inner * admissibility_inner_product(s2.theta, s1.theta)
    return float(abs(lhs - rhs))


def stft_reference(f, system: WarpedSystem) -> Coefficients:
    """Sliding-window reference transform, computed the slow direct way.

    Each channel's window is the inverse FFT of its sampled response;
    coefficient ``(l, k)`` is the plain dot product of the signal with
    the window advanced by ``k`` hops.  Useful as an independent check
    of the FFT-subsampling analysis path.
    """
    n = system.grid.length
    sig = _as_signal(f, n)
    data = []
    for atom, ch in zip(system.atoms, system.channels):
        window = np.fft.ifft(atom.dense(n))
        frames = np.empty(ch.frames, dtype=complex)
        for k in range(ch.frames):
            rolled = np.roll(sig, -k * ch.hop_samples)
            frames[k] = np.vdot(window, rolled)
        data.append(frames)
    return Coefficients(data, system.channel_positions(),
                        system.hop_seconds(), n)


def coefficient_deviation(a: Coefficients, b: Coefficients) -> float:
    """Largest absolute entrywise difference between two coefficient sets."""
    if a.channel_count != b.channel_count:
        raise ShapeError("channel counts differ")
    dev = 0.0
    for ca, cb in zip(a.data, b.data):
        if ca.size != cb.size:
            raise ShapeError("frame counts differ")
        dev = max(dev, float(np.max(np.abs(ca - cb))) if ca.size else 0.0)
    return dev


def export_spectrogram(coeffs: Coefficients, path: str) -> None:
    """Write ``channel,frame,time_seconds,center_hz,magnitude`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "frame", "time_seconds",
                         "center_hz", "magnitude"])
        for l, c in enumerate(coeffs.data):
            hop = coeffs.hop_seconds[l]
            center = coeffs.centers_hz[l]
            for k in range(c.size):
                writer.writerow([l, k, "%.17g" % (k * hop),
                                 "%.17g" % center,
                                 "%.17g" % abs(c[k])])
