"""
Frame bounds, the painless condition, and the Moyal defect
==========================================================

Three ways of asking "how invertible is this filterbank":

* the painless check -- do atom supports fit their time cells, making
  the frame operator diagonal in frequency;
* frame bounds -- extremes of the frame operator's spectrum, exact from
  its small fibers, and for a painless bank the extremes of that
  diagonal;
* the Moyal defect -- how far the weighted coefficient energy is from
  the signal energy, which shrinks as the channel spacing refines.
"""

import numpy as np

from warpft import (
    SignalGrid, build_system, frame_bounds, frame_bounds_painless,
    moyal_residual,
)
from warpft.prototype import bump_prototype
from warpft.warping import erb_warp

grid = SignalGrid(4096, 16000.0)
warp = erb_warp()
theta = bump_prototype(0.9)

system = build_system(warp, theta, 0.5, grid)
report = system.painless_report
print(f"painless: {report.painless}")
print(f"worst support/limit ratio: "
      f"{float(np.max(report.support_hz / report.limit_hz)):.3f}")

a_diag, b_diag = frame_bounds_painless(system)
print(f"diagonal bounds:        A = {a_diag:.6e}  B = {b_diag:.6e}"
      f"  B/A = {b_diag / a_diag:.4f}")

a, b = frame_bounds(system)
print(f"exact bounds:           A = {a:.6e}  B = {b:.6e}")

# a wider prototype overlaps the time cells: not painless, so the frame
# operator couples bins in fibers beyond its diagonal
wide = build_system(warp, bump_prototype(2.0), 0.5, grid)
_, fibers = wide.frame_fibers(wide.interior_bins())
a, b = frame_bounds(wide)
print(f"\nradius 2.0: painless {wide.painless}, largest fiber "
      f"{fibers[-1][0].shape[1] if fibers else 1} bins")
print(f"exact bounds:           A = {a:.6e}  B = {b:.6e}  B/A = {b / a:.4f}")

# random signal limited to the fully covered band
idx = system.interior_bins()
rng = np.random.default_rng(42)
fhat = np.zeros(grid.length, dtype=complex)
fhat[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
f = np.fft.ifft(fhat)
norm2 = float(np.vdot(f, f).real) / grid.sample_rate

print("\ndelta    moyal defect   relative")
for delta in (0.5, 0.25, 0.125):
    s = build_system(warp, theta, delta, grid)
    res = moyal_residual(f, f, s)
    print(f"{delta:5.3f}  {res:13.3e}  {res / norm2:9.3e}")
print("the defect drops sharply with delta until it reaches the "
      "quadrature floor of the admissibility constant")
