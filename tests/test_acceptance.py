"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantity, so
``pytest -s tests/test_acceptance.py`` doubles as an acceptance report.
Tolerances are part of the release contract; do not loosen them here.
"""

import numpy as np
import pytest

from warpft import (
    KernelEvalSpec,
    SignalGrid,
    analyze,
    apply_frame_operator,
    build_system,
    check_cover_admissible,
    coefficient_deviation,
    frame_bounds,
    frame_bounds_painless,
    induced_cover,
    moyal_residual,
    osc_norm_estimate,
    oscillation,
    roundtrip_residual,
    stationary_phase_check,
    stft_reference,
    weight_bound_C,
)
from warpft.prototype import bump_prototype, gaussian_prototype
from warpft.warping import (
    alpha_like_warp,
    erb_warp,
    linear_warp,
    log_warp,
    polynomial_weight,
)

from paper_hypotheses import q_set_bounds

LIN = linear_warp(1.0)
LOG = log_warp()
ERB = erb_warp()
GAUSS = gaussian_prototype(16.0)
BUMP = bump_prototype(0.9)
DELTAS = (0.5, 0.25, 0.125)


def _report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def erb_grid():
    return SignalGrid(4096, 16000.0)


@pytest.fixture(scope="module")
def erb_systems(erb_grid):
    return {d: build_system(ERB, BUMP, d, erb_grid) for d in DELTAS}


@pytest.fixture(scope="module")
def bandlimited(erb_systems):
    """Random spectrum supported on the fully covered band of the
    coarsest system (a subset of the finer systems' bands)."""
    idx = erb_systems[0.5].interior_bins()
    rng = np.random.default_rng(101)
    fhat = np.zeros(4096, dtype=complex)
    fhat[idx] = rng.standard_normal(idx.size) \
        + 1j * rng.standard_normal(idx.size)
    return np.fft.ifft(fhat)


def test_01_stft_equivalence():
    # linear warp + Gaussian window is an ordinary STFT; the subsampled
    # FFT analysis must match plain sliding-window dot products
    grid = SignalGrid(1024, 1024.0)
    system = build_system(LIN, GAUSS, 4.0, grid, time_scale=1.0 / 1024.0)
    assert system.painless
    rng = np.random.default_rng(11)
    f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    dev = coefficient_deviation(analyze(f, system), stft_reference(f, system))
    _report("01 stft-equivalence", dev <= 1e-10, f"max dev {dev:.3e} <= 1e-10")


def test_02_wavelet_dilation_identity():
    # log-warped atoms are dilates of a single mother profile:
    # g_x = x^{-1/2} g_1(./x), checked bin-wise on an 8-channel design
    grid = SignalGrid(1024, 1024.0)
    system = build_system(LOG, BUMP, 0.75, grid, truncation=0.0)
    assert len(system.channels) == 8
    theta = system.theta
    freqs = grid.bin_freqs()
    active = grid.active_mask(LOG.domain)
    dev = 0.0
    for atom, ch in zip(system.atoms, system.channels):
        x = ch.center_hz
        ref = np.zeros(grid.length)
        ref[active] = x ** -0.5 * theta.eval(np.log(freqs[active] / x))
        dev = max(dev, float(np.max(np.abs(atom.dense(grid.length) - ref))))
    _report("02 wavelet-dilation", dev <= 1e-12, f"max dev {dev:.3e} <= 1e-12")


def test_03_perfect_reconstruction(erb_systems, bandlimited):
    system = erb_systems[0.5]
    assert system.painless
    err = roundtrip_residual(bandlimited, system)
    _report("03 perfect-reconstruction", err <= 1e-10,
            f"relative L2 error {err:.3e} <= 1e-10")


def test_04_moyal_trend(erb_systems, bandlimited):
    residuals = [moyal_residual(bandlimited, bandlimited, erb_systems[d])
                 for d in DELTAS]
    norm2 = float(np.vdot(bandlimited, bandlimited).real) / 16000.0
    decreasing = residuals[0] > residuals[1] > residuals[2]
    small = residuals[2] <= 1e-2 * norm2
    _report("04 moyal-trend", decreasing and small,
            "residuals " + ", ".join(f"{r:.3e}" for r in residuals)
            + f"; last <= 1e-2*|f|^2 = {1e-2 * norm2:.3e}")


def test_05_cover_measure_admissibility():
    cover = induced_cover(ERB, 0.5, (100.0, 1000.0), (0.0, 0.05))
    report = check_cover_admissible(cover)
    brute = [sum(j != i and e.intersects(o)
                 for j, o in enumerate(cover.elements))
             for i, e in enumerate(cover.elements)]
    brute_max = max(brute) + 1
    brute_match = cover.neighbor_counts().tolist() == brute
    ok = (report.max_measure_error <= 1e-12
          and report.moderateness_constant == 1.0
          and brute_match and report.max_neighbors == brute_max)
    _report("05 cover-admissibility", ok,
            f"{len(cover)} elements, measure err {report.max_measure_error:.3e}"
            f" <= 1e-12, C-tilde {report.moderateness_constant},"
            f" neighbors {report.max_neighbors} == brute {brute_max}")


def test_06_qset_containment():
    ranges = {
        "linear": (LIN, -50.0, 50.0),
        "log": (LOG, 0.05, 50.0),
        "erb": (ERB, 0.05, 8000.0),
        "alpha_like": (alpha_like_warp(0.3), -50.0, 50.0),
    }
    rng = np.random.default_rng(606)
    failures = 0
    for warp, lo, hi in ranges.values():
        for _ in range(100):
            y = rng.uniform(lo, hi)
            omega = rng.uniform(-5.0, 5.0)
            bounds = q_set_bounds(warp, y, omega, 0.25)
            if not bounds.contained or not bounds.elements:
                failures += 1
    _report("06 qset-containment", failures == 0,
            f"{failures} failures over 4 warps x 100 random points")


def test_07_stationary_phase_bounds():
    etas = np.array([s * m for m in (1, 2, 4, 8, 16, 32, 64)
                     for s in (1, -1)], dtype=float)
    details = []
    ok = True
    for n in (0, 1, 2):
        rep = stationary_phase_check(LOG, BUMP, n, 1.0, etas)
        slope_ok = rep.slope <= -(n + 1) + 0.1
        ok = ok and rep.decay_ok and slope_ok
        details.append(f"n={n} slope {rep.slope:.2f}")
    _report("07 stationary-phase", ok, "; ".join(details))


def test_08_oscillation_decay():
    spec = KernelEvalSpec(z_half_width=30.0, eta_half_width=0.02,
                          resolution=16)
    on = [float(osc_norm_estimate(ERB, BUMP, d, spec, gamma_on=True,
                                  q_resolution=2, box_resolution=10))
          for d in DELTAS]
    decreasing = on[0] > on[1] > on[2]
    # without the modulation factor the linear-warp oscillation at
    # omega = 1/(2 delta) stays put: the classical STFT counterexample
    off = []
    for d in DELTAS:
        c = 1.0 / (2.0 * d)
        off.append(oscillation(LIN, BUMP, d, False, c, c, c, c))
    persists = min(off) >= 0.5 * off[0]
    _report("08 oscillation-decay", decreasing and persists,
            "gamma-on " + ", ".join(f"{v:.3f}" for v in on)
            + "; gamma-off " + ", ".join(f"{v:.3f}" for v in off))


def test_09_frame_bound_cross_validation():
    grid = SignalGrid(256, 256.0)
    system = build_system(LIN, GAUSS, 4.0, grid, time_scale=1.0 / 1024.0)
    a_diag, b_diag = frame_bounds_painless(system)
    a_exact, b_exact = frame_bounds(system)
    rel = max(abs(a_exact - a_diag) / a_diag, abs(b_exact - b_diag) / b_diag)
    idx = system.interior_bins()
    rng = np.random.default_rng(909)
    outside = 0
    for _ in range(100):
        fhat = np.zeros(256, dtype=complex)
        fhat[idx] = rng.standard_normal(idx.size) \
            + 1j * rng.standard_normal(idx.size)
        f = np.fft.ifft(fhat)
        quot = float(np.vdot(f, apply_frame_operator(f, system)).real
                     / np.vdot(f, f).real)
        if not (a_diag - 1e-8 <= quot <= b_diag + 1e-8):
            outside += 1
    _report("09 frame-bounds", rel <= 1e-6 and outside == 0,
            f"diag ({a_diag:.6g}, {b_diag:.6g}) vs exact rel {rel:.3e}"
            f" <= 1e-6; {outside}/100 Rayleigh quotients out of range")


def test_10_weight_bound():
    m1 = polynomial_weight(2.0)
    sampled, ok = [], True
    for d in DELTAS:
        cover = induced_cover(ERB, d, (100.0, 1000.0), (0.0, 0.05))
        rep = weight_bound_C(cover, m1, None)
        sampled.append(rep.sampled)
        ok = ok and rep.sampled <= rep.analytic
    bounded = sampled[0] >= sampled[1] >= sampled[2]
    _report("10 weight-bound", ok and bounded,
            "sampled " + ", ".join(f"{v:.4f}" for v in sampled)
            + " each <= analytic, bounded as delta -> 0")
