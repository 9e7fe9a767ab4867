"""End-to-end subcommand runs, exit codes, determinism."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpft.cli import main
from warpft.io import read_coefficients, read_descriptor, write_signal

ERB_CFG = """\
warp.kind = erb
warp.c1 = 9.265
warp.c2 = 228.8
prototype.kind = smooth_bump
prototype.radius = 0.9
delta = 0.5
sample_rate = 16000
length = 4096
"""

# hop 1, flat diagonal: cheap to diagnose exhaustively
FLAT_CFG = """\
warp.kind = linear
warp.c = 1.0
prototype.kind = gaussian
prototype.sigma = 16
delta = 4
sample_rate = 256
length = 256
time_scale = 0.0009765625
"""

# hops far above the painless limit: S is singular to rounding on the band
SINGULAR_CFG = """\
warp.kind = linear
warp.c = 1.0
prototype.kind = gaussian
prototype.sigma = 8
delta = 32
sample_rate = 256
length = 256
time_scale = 0.00390625
"""


@pytest.fixture
def erb_paths(tmp_path):
    cfg = tmp_path / "erb.cfg"
    cfg.write_text(ERB_CFG)
    desc = tmp_path / "erb.desc"
    assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
    return cfg, desc


def _bandlimited_signal(desc, seed=99):
    system = read_descriptor(desc)
    rng = np.random.default_rng(seed)
    idx = system.interior_bins()
    fhat = np.zeros(system.grid.length, dtype=complex)
    fhat[idx] = rng.standard_normal(idx.size) \
        + 1j * rng.standard_normal(idx.size)
    return np.fft.ifft(fhat)


class TestDesign:
    def test_prints_summary(self, tmp_path, capsys):
        cfg = tmp_path / "erb.cfg"
        cfg.write_text(ERB_CFG)
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "out.desc")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "channels = " in out
        assert "delta = 0.5" in out
        assert "painless = true" in out

    def test_coarse_delta_design_succeeds(self, tmp_path, capsys):
        # delta = 1 still yields a valid descriptor (66 monotone
        # channels), just not a painless one.
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(ERB_CFG.replace("delta = 0.5", "delta = 1"))
        desc = tmp_path / "coarse.desc"
        rc = main(["design", "--config", str(cfg), "--out", str(desc)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "channels = 66" in out
        system = read_descriptor(desc)
        centers = [ch.center_hz for ch in system.channels]
        assert centers == sorted(centers)

    def test_erb_centers_monotone(self, erb_paths):
        _, desc = erb_paths
        system = read_descriptor(desc)
        centers = [ch.center_hz for ch in system.channels]
        assert centers == sorted(centers)

    def test_deterministic_descriptor(self, tmp_path):
        cfg = tmp_path / "erb.cfg"
        cfg.write_text(ERB_CFG)
        a, b = tmp_path / "a.desc", tmp_path / "b.desc"
        assert main(["design", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["design", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_delta_too_large_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(ERB_CFG.replace("delta = 0.5", "delta = 100"))
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "x.desc")])
        assert rc == 2
        assert "channel" in capsys.readouterr().err

    def test_syntax_error_exits_2_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("warp.kind = erb\nnot a config line\n")
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "x.desc")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


def _with_value(cfg, key, value):
    """``cfg`` with ``key`` set to ``value`` (replaced or appended)."""
    lines = [ln for ln in cfg.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestConfigValues:
    @pytest.mark.parametrize("key,value", [("delta", "nan"),
                                           ("sample_rate", "inf"),
                                           ("time_scale", "inf"),
                                           ("truncation", "nan")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_with_value(ERB_CFG, key, value))
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "x.desc")])
        captured = capsys.readouterr()
        assert rc == 2
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert key in err[0]
        assert "painless" not in captured.out

    @settings(max_examples=50, deadline=None)
    @given(key=st.sampled_from(["delta", "sample_rate", "time_scale",
                                "truncation", "prototype.radius",
                                "warp.c1"]),
           value=st.sampled_from(["nan", "inf", "-inf", "0", "-1.5",
                                  "-1e-3", "1e300"]))
    def test_mutated_config_never_tracebacks(self, key, value):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "mut.cfg")
            with open(cfg, "w") as fh:
                fh.write(_with_value(ERB_CFG, key, value))
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = main(["design", "--config", cfg,
                           "--out", os.path.join(tmp, "x.desc")])
        assert rc in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()


    @pytest.mark.parametrize("kind,key", [("gaussian", "prototype.radius"),
                                          ("smooth_bump", "prototype.sigma")])
    def test_key_of_another_prototype_kind_exits_2(self, tmp_path, capsys,
                                                   kind, key):
        text = _with_value(_with_value(ERB_CFG, "prototype.kind", kind),
                           key, "0.9")
        cfg = tmp_path / "foreign.cfg"
        cfg.write_text(text)
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "x.desc")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown keys: {key}"]

    def test_overflowing_bump_radius_exits_2(self, tmp_path, capsys):
        text = _with_value(_with_value(ERB_CFG, "prototype.radius", "1e300"),
                           "prototype.normalize", "false")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["design", "--config", str(cfg),
                       "--out", str(tmp_path / "x.desc")])
        captured = capsys.readouterr()
        assert rc == 2
        assert caught == []
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "radius" in err[0]
        assert "painless" not in captured.out


class TestLastResort:
    def test_unexpected_exception_exits_1_with_one_line(self, tmp_path,
                                                        capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr("warpft.cli._cmd_design", broken)
        cfg = tmp_path / "erb.cfg"
        cfg.write_text(ERB_CFG)
        rc = main(["design", "--config", str(cfg),
                   "--out", str(tmp_path / "x.desc")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: internal: RuntimeError: boom second line"]


class TestAnalyzeSynthesize:
    def test_round_trip_reports_error(self, erb_paths, tmp_path, capsys):
        _, desc = erb_paths
        sig = tmp_path / "sig.f64"
        write_signal(sig, _bandlimited_signal(desc))
        coeffs = tmp_path / "c.wtc"
        rec = tmp_path / "rec.f64"
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
        rc = main(["synthesize", "--system", str(desc),
                   "--coeffs", str(coeffs), "--out", str(rec),
                   "--verify", str(sig)])
        assert rc == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("relative_error")][0]
        assert float(line.split("=")[1]) <= 1e-10

    def test_zero_signal_zero_payload(self, erb_paths, tmp_path):
        _, desc = erb_paths
        system = read_descriptor(desc)
        sig = tmp_path / "zero.f64"
        write_signal(sig, np.zeros(system.grid.length, dtype=complex))
        coeffs = tmp_path / "c.wtc"
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
        back = read_coefficients(coeffs, system)
        assert all(np.all(block == 0) for block in back.data)

    def test_length_mismatch_exits_3(self, erb_paths, tmp_path):
        _, desc = erb_paths
        sig = tmp_path / "short.f64"
        write_signal(sig, np.zeros(100, dtype=complex))
        rc = main(["analyze", "--system", str(desc), "--signal", str(sig),
                   "--out", str(tmp_path / "c.wtc")])
        assert rc == 3

    def test_bad_magic_exits_4(self, erb_paths, tmp_path):
        _, desc = erb_paths
        bad = tmp_path / "bad.wtc"
        bad.write_bytes(b"XXXX" + b"\x00" * 32)
        rc = main(["synthesize", "--system", str(desc), "--coeffs", str(bad),
                   "--out", str(tmp_path / "r.f64")])
        assert rc == 4

    def test_truncated_header_exits_4(self, erb_paths, tmp_path, capsys):
        _, desc = erb_paths
        bad = tmp_path / "short.wtc"
        bad.write_bytes(b"WTC1\x01\x00")
        capsys.readouterr()
        rc = main(["synthesize", "--system", str(desc), "--coeffs", str(bad),
                   "--out", str(tmp_path / "r.f64")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_non_painless_exits_5(self, tmp_path):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(ERB_CFG.replace("prototype.radius = 0.9",
                                       "prototype.radius = 2.0"))
        desc = tmp_path / "hard.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        sig = tmp_path / "sig.f64"
        write_signal(sig, _bandlimited_signal(desc))
        coeffs = tmp_path / "c.wtc"
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
        rc = main(["synthesize", "--system", str(desc),
                   "--coeffs", str(coeffs),
                   "--out", str(tmp_path / "r.f64")])
        assert rc == 5


@pytest.fixture(scope="module")
def small_container(tmp_path_factory):
    """An ERB descriptor at N = 2^10, its WTC1 container of a band-limited
    signal, and the container's header length (12 + 24 per channel)."""
    tmp = tmp_path_factory.mktemp("wtc1")
    cfg = tmp / "erb.cfg"
    cfg.write_text(_with_value(ERB_CFG, "length", "1024"))
    desc, sig, coeffs = tmp / "erb.desc", tmp / "sig.f64", tmp / "c.wtc"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        write_signal(sig, _bandlimited_signal(desc))
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
    header = 12 + 24 * len(read_descriptor(desc).channels)
    return desc, coeffs.read_bytes(), header


def _synthesize_with_bit_flipped(desc, blob, bit):
    """Exit code and stderr lines of ``synthesize`` on ``blob`` with one
    bit flipped."""
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.wtc")
        with open(path, "wb") as fh:
            fh.write(flipped)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["synthesize", "--system", str(desc), "--coeffs", path,
                       "--out", os.path.join(tmp, "r.f64")])
    return rc, err.getvalue().splitlines()


class TestContainerBitFlips:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_header_flip_rejected(self, small_container, data):
        desc, blob, header = small_container
        bit = data.draw(st.integers(0, 8 * header - 1), label="bit")
        rc, err = _synthesize_with_bit_flipped(desc, blob, bit)
        assert rc in (3, 4)
        assert len(err) == 1 and err[0].startswith("error: "), err

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_payload_flip_accepted(self, small_container, data):
        desc, blob, header = small_container
        bit = data.draw(st.integers(8 * header, 8 * len(blob) - 1),
                        label="bit")
        rc, err = _synthesize_with_bit_flipped(desc, blob, bit)
        assert rc == 0, err


class TestDiagnose:
    def test_flat_linear_report(self, tmp_path, capsys):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(FLAT_CFG)
        desc = tmp_path / "flat.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        rc = main(["diagnose", "--system", str(desc), "--trials", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        for key in ('"painless": true', '"frame_bounds_diagonal"',
                    '"frame_bounds_power"', '"frame_fibers"',
                    '"moyal_residual"', '"cover"', '"C_mU": 1'):
            assert key in out
        assert "<= 1e-10: PASS" in out

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(FLAT_CFG)
        desc = tmp_path / "flat.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--system", str(desc), "--trials", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["diagnose", "--system", str(desc), "--trials", "1"]) == 0
        assert capsys.readouterr().out == first

    def test_non_finite_values_are_null(self, tmp_path, capsys,
                                        monkeypatch):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(FLAT_CFG)
        desc = tmp_path / "flat.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("warpft.cli.frame_bounds",
                            lambda system: (float("nan"), float("inf")))
        assert main(["diagnose", "--system", str(desc), "--trials", "1"]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["frame_bounds_power"] == {"A": None, "B": None,
                                                "B_over_A": None}
        assert report["painless"] is True

    def test_singular_band_report(self, tmp_path, capsys):
        """Hops far above the painless limit leave S singular to rounding
        on the band: A is 0, the ratio is null, and nothing warns."""
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(SINGULAR_CFG)
        desc = tmp_path / "singular.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["diagnose", "--system", str(desc), "--trials", "1"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads(captured.out, parse_constant=reject)
        bounds = report["frame_bounds_power"]
        assert bounds["A"] == 0 and bounds["B"] > 0
        assert bounds["B_over_A"] is None
        assert report["frame_fibers"]["largest"] > 1


class TestKernelOps:
    def test_gramian_coincident(self, erb_paths, capsys):
        _, desc = erb_paths
        rc = main(["kernel", "--system", str(desc), "--op", "gramian",
                   "--x", "400", "--xi", "0.01", "--y", "400",
                   "--omega", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        re = float([ln for ln in out.splitlines()
                    if ln.startswith("re =")][0].split("=")[1])
        assert re == pytest.approx(1.0, abs=1e-10)

    def test_statphase_all_pass(self, erb_paths, tmp_path):
        _, desc = erb_paths
        out = tmp_path / "sp.csv"
        rc = main(["kernel", "--system", str(desc), "--op", "statphase",
                   "--order", "0", "--x", "0.4", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "eta,lhs,rhs,verdict"
        assert len(rows) == 129
        assert all(row.endswith(",PASS") for row in rows[1:])

    def test_oscnorm_sweep_decreasing(self, erb_paths, tmp_path):
        _, desc = erb_paths
        out = tmp_path / "osc.csv"
        rc = main(["kernel", "--system", str(desc), "--op", "oscnorm",
                   "--deltas", "0.5,0.25,0.125", "--z-half", "30",
                   "--eta-half", "0.02", "--resolution", "16",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "delta,value"
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(vals) == 3
        assert vals[0] > vals[1] > vals[2]


class TestCoverDumpAndSpectrogram:
    def test_cover_dump(self, erb_paths, tmp_path):
        _, desc = erb_paths
        out = tmp_path / "cov.csv"
        rc = main(["cover-dump", "--system", str(desc), "--f-lo", "50",
                   "--f-hi", "4000", "--t-lo", "0", "--t-hi", "0.25",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "l,k,f_lo,f_hi,t_lo,t_hi"
        assert len(rows) > 10

    def test_spectrogram(self, erb_paths, tmp_path):
        _, desc = erb_paths
        sig = tmp_path / "sig.f64"
        write_signal(sig, _bandlimited_signal(desc))
        coeffs = tmp_path / "c.wtc"
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
        out = tmp_path / "spec.csv"
        rc = main(["spectrogram", "--system", str(desc),
                   "--coeffs", str(coeffs), "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "channel,frame,time_seconds,center_hz,magnitude"
