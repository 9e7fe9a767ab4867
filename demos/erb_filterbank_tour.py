"""
An auditory filterbank from the ERB frequency scale
===================================================

Warping by the ERB map F(t) = c1 sign(t) log10(1 + |t|/c2) spaces
channels like the ear does: narrow at low frequencies, roughly
proportional bandwidth higher up.  The script designs such a bank at
16 kHz, analyzes a unit-amplitude linear chirp, and writes the
magnitudes as a spectrogram CSV.
"""

import numpy as np

from warpft import (
    SignalGrid, analyze, build_system, export_spectrogram, synthesize,
)
from warpft.prototype import bump_prototype
from warpft.warping import erb_warp

grid = SignalGrid(4096, 16000.0)
system = build_system(erb_warp(), bump_prototype(0.9), 0.5, grid)

print(f"channels: {len(system.channels)}  painless: {system.painless}")
print("  l  center_hz   bandwidth_hz  hop")
for ch in system.channels[::16]:
    print(f"{ch.index:3d}  {ch.center_hz:9.1f}  {ch.bandwidth_hz:12.2f}"
          f"  {ch.hop_samples:4d}")

# chirp sweeping 200 Hz -> 4 kHz over the grid duration
t = np.arange(grid.length) / grid.sample_rate
dur = grid.length / grid.sample_rate
phase = 2 * np.pi * (200.0 * t + 0.5 * (4000.0 - 200.0) / dur * t ** 2)
f = np.exp(1j * phase)

coeffs = analyze(f, system)
print(f"total coefficients: {coeffs.values.size} "
      f"(signal length {grid.length})")

# per-channel energy peaks where the chirp crosses the channel band
energies = [float(np.sum(np.abs(c) ** 2)) for c in coeffs.data]
top = int(np.argmax(energies))
print(f"most energetic channel: l={system.channels[top].index} at "
      f"{system.channels[top].center_hz:.0f} Hz")

rec = synthesize(coeffs, system)
# the chirp sits inside the covered band, so reconstruction is exact
print(f"reconstruction error: "
      f"{np.linalg.norm(rec - f) / np.linalg.norm(f):.3e}")

export_spectrogram(coeffs, "erb_chirp_spectrogram.csv")
print("wrote erb_chirp_spectrogram.csv")
