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

Hops are powers of two, so consecutive channels often share one frame
count: the channels fall into a few runs of them (eleven for the
132-channel ERB bank at N = 2^16; see :meth:`WarpedSystem.bank_layout`).
The coefficients lie end to end in channel order in one array, so the
channels of a run, and of each of its chunks, fill one block of it.
Both maps work on chunks of at most :data:`~warpft.system.CHUNK_ROWS`
channels of a run, read from the system's bank in channel order: a
gather, an in-place multiply and one ``np.add.at`` per chunk.
:func:`_fold` runs one in-place FFT per run and :func:`_unfold` one per
chunk, on a copy in its scratch.  Analysis takes the spectrum with
``norm="forward"`` (scaled by ``1/N``) and :func:`_fold` inverts with
``norm="forward"`` (no scaling): ``1/N``, ``1/M_l`` and ``1/n_l`` are
powers of two, so this gives the bits of ``ifft(fft(f) * .) / n_l``
with one spectrum and no pass over the coefficients.

Both maps run on the calling thread, one run after another; every
coefficient is summed in its atom's support order and every bin in
channel order, as the definition reads.  Handing half of the runs to a
second thread timed from 11% slower to 12% faster on 2 CPUs, depending
on the process (ERB bank, N = 2^15 to 2^18), and held ~1.2 MB more
memory at N = 2^16.

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

import numpy as np

from .errors import IllConditionedError, NotPainlessError, ShapeError
from .prototype import admissibility_inner_product
from .system import Coefficients, WarpedSystem


def _as_signal(f, n: int) -> np.ndarray:
    """``f`` as a complex array, copied only when it is not one."""
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"signal must be 1-d of length {n}, got shape {arr.shape}")
    return np.asarray(arr, dtype=complex)


def _fold(fhat: np.ndarray, system: WarpedSystem) -> np.ndarray:
    """Analysis in the DFT domain: ``V`` applied to the signal whose
    spectrum is ``fhat = fft(f, norm="forward")``.

    Per channel the product ``fhat * g_l`` is aliased onto the ``M_l``
    residues of the frame lattice and inverted with an unscaled
    ``M_l``-point FFT; that equals ``ifft_N(fft(f) * g_l)[::n_l]`` for
    any hop dividing N, painless or not.  Returns the coefficients, end
    to end in channel order: the channels of a run fill the rows of one
    block of them.  Per chunk of the layout, the products are added onto
    their slots in index order, which sums each coefficient in its
    atom's support order.  One FFT per run inverts the block in place.
    """
    runs, _, entries = system.bank_layout()
    store = np.zeros(int(system.channels.frames.sum()), dtype=complex)
    prod = np.empty(entries, dtype=complex)
    for frames, block, chunks in runs:
        for coeffs, support, values, slot in chunks:
            # valid indices: "clip" changes none, and takes no buffer
            gathered = fhat.take(support, out=prod[:support.size],
                                 mode="clip")
            gathered *= values
            np.add.at(store[coeffs], slot, gathered)
        blk = store[block].reshape(-1, frames)
        np.fft.ifft(blk, axis=1, norm="forward", out=blk)
    return store


def _unfold(c: np.ndarray, system: WarpedSystem) -> np.ndarray:
    """Synthesis in the DFT domain: the spectrum of ``V* c``, for
    coefficients ``c`` end to end in channel order.

    The rows of a chunk of the layout share one in-place FFT, on a copy
    in a scratch block; the spread rows are added onto their atoms'
    supports, so each bin sums its channels in channel order.
    """
    out = np.zeros(system.grid.length, dtype=complex)
    runs, size, entries = system.bank_layout()
    rows, spread = np.empty(size, complex), np.empty(entries, complex)
    for frames, _, chunks in runs:
        for coeffs, support, values, slot in chunks:
            blk = rows[:coeffs.stop - coeffs.start].reshape(-1, frames)
            # a copy transformed in place: an FFT from c[coeffs] into
            # blk faulted ~67 pages per CLI round trip at N = 2^12, this 0
            blk[...] = c[coeffs].reshape(-1, frames)
            np.fft.fft(blk, axis=1, out=blk)
            weighted = blk.ravel().take(slot, out=spread[:slot.size],
                                        mode="clip")
            weighted *= values
            np.add.at(out, support, weighted)
    return out


def _check_layout(coeffs: Coefficients, system: WarpedSystem) -> None:
    if not coeffs.matches_system(system):
        raise ShapeError("coefficient layout does not match the system")


def analyze(f, system: WarpedSystem) -> Coefficients:
    """Warped transform coefficients of ``f`` (length must match the grid)."""
    fhat = np.fft.fft(_as_signal(f, system.grid.length), norm="forward")
    return Coefficients(_fold(fhat, system), system.channels.frames,
                        system.channel_positions(), system.hop_seconds(),
                        system.grid.length)


def adjoint(coeffs: Coefficients, system: WarpedSystem) -> np.ndarray:
    """Apply the synthesis map ``V* c = sum_{l,k} c_l[k] g_{l,k}``."""
    _check_layout(coeffs, system)
    return np.fft.ifft(_unfold(coeffs.values, system))


def apply_frame_operator(f, system: WarpedSystem) -> np.ndarray:
    """``S f = V* V f``."""
    fhat = np.fft.fft(_as_signal(f, system.grid.length), norm="forward")
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
    num = _unfold(coeffs.values, system)
    # solved from num before num is divided in place
    fibers = [(bins, (inverses @ num[bins][..., None])[..., 0])
              for bins, inverses in system.fiber_inverses()]
    if covered.size == num.size:  # then profile is the whole frame profile
        num /= profile
    else:
        x = num[covered] / profile
        num.fill(0)
        num[covered] = x
    for bins, x in fibers:
        num[bins] = x
    return np.fft.ifft(num, out=num)


def roundtrip_residual(f, system: WarpedSystem) -> float:
    """Relative L2 error of analyze-then-synthesize on ``f``."""
    f = _as_signal(f, system.grid.length)
    rec = synthesize(analyze(f, system), system)
    denom = float(np.linalg.norm(f))
    if denom == 0:
        return float(np.linalg.norm(rec))
    return float(np.linalg.norm(rec - f) / denom)


def moyal_residual(f1, f2, system: WarpedSystem) -> float:
    """Orthogonality-relation defect for a pair of signals.

    The weighted coefficient pairing (cell measure times the warp weight
    at each channel slot) should match ``<f1, f2> ||theta||^2``; the
    absolute difference is returned.
    """
    c1, c2 = analyze(f1, system), analyze(f2, system)
    fs = system.grid.sample_rate
    lhs = 0.0 + 0.0j
    for a, b, l, hop in zip(c1.data, c2.data, system.channels.index.tolist(),
                            system.channels.hop_samples.tolist()):
        slot = system.delta * (l + 0.5)
        wslot = float(system.warp.weight(slot))
        lhs += system.delta * wslot * (hop / fs) * np.vdot(b, a)
    inner = np.vdot(_as_signal(f2, system.grid.length),
                    _as_signal(f1, system.grid.length)) / fs
    rhs = inner * admissibility_inner_product(system.theta, system.theta)
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
    out = Coefficients(np.empty(system.channels.frames.sum(), complex),
                       system.channels.frames, system.channel_positions(),
                       system.hop_seconds(), n)
    for atom, ch, frames in zip(system.atoms, system.channels, out.data):
        window = np.fft.ifft(atom.dense(n))
        for k in range(ch.frames):
            rolled = np.roll(sig, -k * ch.hop_samples)
            frames[k] = np.vdot(window, rolled)
    return out


def coefficient_deviation(a: Coefficients, b: Coefficients) -> float:
    """Largest absolute entrywise difference between two coefficient sets."""
    if not np.array_equal(a.frames, b.frames):
        raise ShapeError("channel or frame counts differ")
    return float(np.max(np.abs(a.values - b.values), initial=0.0))


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
