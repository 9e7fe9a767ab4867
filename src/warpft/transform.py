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
see :meth:`WarpedSystem.frame_groups`).  :func:`_fold` folds a group's
channels into the rows of one block and runs one in-place FFT per
group; :func:`_unfold` runs one in-place FFT per :data:`UNFOLD_ROWS`
channels of a group.

With unit-norm prototypes these coefficients approximate the continuous
inner products ``<f, g_{x_l, k n_l / fs}>`` directly, no extra scaling.

Synthesis folds the coefficients back to the DFT grid and solves
``S x = V* c`` there, exactly, on the small fibers into which ``S``
splits (see :meth:`WarpedSystem.frame_fibers`); in a painless system
each fiber is one bin and the solve divides by the diagonal frame
profile.  The round trip reproduces every covered bin to machine
precision.
"""

from __future__ import annotations

import csv
from typing import List, Optional

import numpy as np

from .errors import IllConditionedError, NotPainlessError, ShapeError
from .prototype import admissibility_inner_product
from .system import Coefficients, WarpedSystem

#: channels of one frame-count group stacked into one FFT by the
#: adjoint; bounds its scratch block at this many rows
UNFOLD_ROWS = 8


def _as_signal(f, n: int) -> np.ndarray:
    arr = np.asarray(f)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"signal must be 1-d of length {n}, got shape {arr.shape}")
    return arr.astype(complex)


def _fold(fhat: np.ndarray, system: WarpedSystem) -> List[np.ndarray]:
    """Analysis in the DFT domain: ``V`` applied to the spectrum ``fhat``.

    Per channel the product ``fhat * g_l`` is aliased onto the ``M_l``
    residues of the frame lattice and inverted with an ``M_l``-point
    FFT; that equals ``ifft_N(fhat * g_l)[::n_l]`` for any hop dividing
    N, painless or not.  The channels of a frame-count group fill the
    rows of one block, which is inverted in place by one FFT; its rows
    are the coefficients.
    """
    data: List[np.ndarray] = [None] * len(system.channels)
    for frames, hop, members in system.frame_groups():
        blk = np.empty((len(members), frames), dtype=complex)
        for row, l in zip(blk, members):
            atom = system.atoms[l]
            prod = fhat[atom.support] * atom.values
            # frames is a power of two: the mask is the residue mod frames
            residue = atom.support & (frames - 1)
            row.real = np.bincount(residue, prod.real, frames)
            row.imag = np.bincount(residue, prod.imag, frames)
            data[l] = row
        np.fft.ifft(blk, axis=1, out=blk)
        # hop is a power of two, so this scaling equals dividing by it
        blk *= 1.0 / hop
    return data


def _unfold(data: List[np.ndarray], system: WarpedSystem) -> np.ndarray:
    """Synthesis in the DFT domain: the spectrum of ``V* c``.

    Up to :data:`UNFOLD_ROWS` channels of a frame-count group share one
    in-place FFT; each row is then spread onto its atom's support.
    """
    out = np.zeros(system.grid.length, dtype=complex)
    for frames, _, members in system.frame_groups():
        for start in range(0, len(members), UNFOLD_ROWS):
            chunk = members[start:start + UNFOLD_ROWS]
            blk = np.array([data[l] for l in chunk], dtype=complex)
            np.fft.fft(blk, axis=1, out=blk)
            for spread, l in zip(blk, chunk):  # index by j mod M_l
                atom = system.atoms[l]
                out[atom.support] += (spread[atom.support & (frames - 1)]
                                      * atom.values)
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
            "system fails the painless support condition; "
            "use the iterative path")
    covered, profile, interior_covered = system.covered_bins()
    if not interior_covered:
        raise IllConditionedError(
            "frame profile nearly vanishes inside the covered band")
    _check_layout(coeffs, system)
    num = _unfold(coeffs.data, system)
    fhat = np.zeros_like(num)
    fhat[covered] = num[covered] / profile
    for bins, inverses in system.fiber_inverses():
        fhat[bins] = (inverses @ num[bins][..., None])[..., 0]
    return np.fft.ifft(fhat)


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
