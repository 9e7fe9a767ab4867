"""End-to-end subcommand runs, exit codes, determinism."""

import argparse
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

from warpft.cli import _build_parser, main
from warpft.discretization import (Cover, frame_bounds,
                                   frame_bounds_painless, induced_cover)
from warpft.io import (fmt, read_coefficients, read_descriptor, read_signal,
                       write_signal)
from warpft.system import Atom, Channel, WarpedSystem

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


SUBCOMMANDS = ["design", "analyze", "synthesize", "diagnose", "kernel",
               "cover-dump", "spectrogram"]


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _actions(subparser):
    return [(a.option_strings, a.dest, a.default, a.required, a.type,
             a.choices, a.help) for a in subparser._actions]


class TestParser:
    """``main`` builds only the subparser it runs; that parser reads its
    arguments and words its messages as the full one does."""

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_one_subcommand_parser_matches_full(self, cmd):
        full, one = _build_parser(), _build_parser(cmd)
        assert list(_subparsers(full)) == SUBCOMMANDS
        assert list(_subparsers(one)) == [cmd]
        assert _actions(_subparsers(one)[cmd]) == _actions(
            _subparsers(full)[cmd])
        assert (_subparsers(one)[cmd].format_help()
                == _subparsers(full)[cmd].format_help())
        assert one.format_usage() == full.format_usage()

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"],
                                      ["--config", "x"]])
    def test_no_subcommand_gets_the_full_parser(self, argv):
        assert list(_subparsers(_build_parser(*argv[:1]))) == SUBCOMMANDS

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in SUBCOMMANDS:
            assert f"\n    {cmd} " in out

    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_subcommand_help_exits_0(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: warpft {cmd} ")

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_stray_argument_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--config", "a", "--out", "b", "stray"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "{" + ",".join(SUBCOMMANDS) + "}" in err
        assert err.endswith("error: unrecognized arguments: stray\n")


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

    def test_round_trip_builds_no_channel_or_atom(self, erb_paths, tmp_path,
                                                  capsys, monkeypatch):
        """The system, the transform and the container all read the
        channel table and the bank: no per-channel object is made."""
        _, desc = erb_paths
        sig = tmp_path / "sig.f64"
        write_signal(sig, _bandlimited_signal(desc))

        def refuse(self, *args):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(Channel, "__init__", refuse)
        monkeypatch.setattr(Atom, "__init__", refuse)
        coeffs = tmp_path / "c.wtc"
        capsys.readouterr()
        assert main(["analyze", "--system", str(desc), "--signal", str(sig),
                     "--out", str(coeffs)]) == 0
        assert main(["synthesize", "--system", str(desc),
                     "--coeffs", str(coeffs), "--out", str(tmp_path / "r.f64"),
                     "--verify", str(sig)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert float(out.out.splitlines()[-1].split("=")[1]) <= 1e-12
        with pytest.raises(AssertionError, match="Channel constructed"):
            read_descriptor(desc).channels[0]

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

    @pytest.mark.parametrize("value,index", [(np.inf, 5), (np.nan, 7)])
    @pytest.mark.parametrize("cmd", ["analyze", "synthesize"])
    def test_non_finite_sample_exits_4(self, erb_paths, tmp_path, capsys,
                                       cmd, value, index):
        """A signal holding one inf or nan sample, as ``analyze``'s input
        or as ``synthesize --verify``'s reference, exits 4 with one line
        naming the sample, and no numpy warning."""
        _, desc = erb_paths
        good, bad = tmp_path / "good.f64", tmp_path / "bad.f64"
        signal = _bandlimited_signal(desc)
        write_signal(good, signal)
        signal[index] = value
        write_signal(bad, signal)
        coeffs = tmp_path / "c.wtc"
        argv = {"analyze": ["analyze", "--system", str(desc), "--signal",
                            str(bad), "--out", str(coeffs)],
                "synthesize": ["synthesize", "--system", str(desc),
                               "--coeffs", str(coeffs), "--out",
                               str(tmp_path / "rec.f64"), "--verify",
                               str(bad)]}[cmd]
        assert main(["analyze", "--system", str(desc), "--signal", str(good),
                     "--out", str(coeffs)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: signal file {bad}: sample {index} is not finite"]

    def test_non_painless_exits_5(self, tmp_path, capsys):
        """The refusal is one line naming the flag that admits the
        system, and that flag reconstructs it."""
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
        capsys.readouterr()
        rc = main(["synthesize", "--system", str(desc),
                   "--coeffs", str(coeffs),
                   "--out", str(tmp_path / "r.f64")])
        assert rc == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--iterative" in err[0]
        assert main(["synthesize", "--system", str(desc),
                     "--coeffs", str(coeffs), "--out", str(tmp_path / "r.f64"),
                     "--iterative"]) == 0


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


def _synthesize_blob(desc, blob):
    """Exit code, stderr lines and written signal (``None`` on failure) of
    ``synthesize`` on the container ``blob``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "c.wtc"), os.path.join(tmp, "r.f64")
        with open(path, "wb") as fh:
            fh.write(blob)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["synthesize", "--system", str(desc), "--coeffs", path,
                       "--out", out])
        rec = read_signal(out) if rc == 0 else None
    return rc, err.getvalue().splitlines(), rec


def _synthesize_with_bit_flipped(desc, blob, bit):
    """:func:`_synthesize_blob` on ``blob`` with one bit flipped."""
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return _synthesize_blob(desc, bytes(flipped))


class TestContainerBitFlips:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_header_flip_rejected(self, small_container, data):
        desc, blob, header = small_container
        bit = data.draw(st.integers(0, 8 * header - 1), label="bit")
        rc, err, _ = _synthesize_with_bit_flipped(desc, blob, bit)
        assert rc in (3, 4)
        assert len(err) == 1 and err[0].startswith("error: "), err

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_payload_flip_accepted(self, small_container, data):
        """A flipped payload bit gives a finite signal and no stderr, or,
        when the value or the reconstruction is no longer finite, exit 4
        with one line."""
        desc, blob, header = small_container
        bit = data.draw(st.integers(8 * header, 8 * len(blob) - 1),
                        label="bit")
        rc, err, rec = _synthesize_with_bit_flipped(desc, blob, bit)
        if rc == 0:
            assert err == [] and np.all(np.isfinite(rec))
        else:
            assert rc == 4
            assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("value,reason", [
        (np.inf, "channel 0 holds a value that is not finite"),
        (1e308, "the reconstruction is not finite")])
    def test_planted_payload_value_refused(self, small_container, value,
                                           reason):
        desc, blob, header = small_container
        payload = np.frombuffer(blob, "<f8", offset=header).copy()
        payload[payload.size // 2] = value  # in the middle channel, slot 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err, _ = _synthesize_blob(desc,
                                          blob[:header] + payload.tobytes())
        assert rc == 4
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert reason in err[0]


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


class TestDiagnoseCover:
    def test_recorded_cover_report(self, tmp_path, capsys):
        """The README erb.cfg at N = 2^10, as the per-element cover code
        reported it."""
        cfg = tmp_path / "erb.cfg"
        cfg.write_text(_with_value(ERB_CFG, "length", "1024"))
        desc = tmp_path / "erb.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--system", str(desc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cover"] == {
            "elements": 4442, "max_neighbors": 9,
            "moderateness_constant": 1.0, "min_measure": 0.25,
            "covers_window": True,
            "max_measure_error": 1.709743457922741e-14}
        assert report["C_mU"] == 1.0


class TestDiagnoseFibersOnce:
    """``diagnose`` assembles the interior fibers once, for the bounds and
    the fiber report alike, and reports the bounds of the library."""

    @pytest.mark.parametrize("radius", ["0.9", "2.0"])
    def test_frame_fibers_called_once(self, tmp_path, capsys, monkeypatch,
                                      radius):
        cfg = tmp_path / "erb.cfg"
        cfg.write_text(_with_value(
            _with_value(ERB_CFG, "prototype.radius", radius),
            "length", "4096" if radius == "0.9" else "2048"))
        desc = tmp_path / "erb.desc"
        assert main(["design", "--config", str(cfg), "--out", str(desc)]) == 0
        capsys.readouterr()
        calls = []
        assemble = WarpedSystem.frame_fibers

        def counted(self, bins):
            calls.append(bins.size)
            return assemble(self, bins)

        monkeypatch.setattr(WarpedSystem, "frame_fibers", counted)
        assert main(["diagnose", "--system", str(desc)]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        system = read_descriptor(desc)
        a, b = frame_bounds(system)
        assert report["frame_bounds_power"] == {"A": a, "B": b,
                                                "B_over_A": b / a}
        if radius == "0.9":
            assert report["frame_bounds_diagonal"] == report[
                "frame_bounds_power"]
            assert frame_bounds_painless(system) == (a, b)
        else:
            assert report["frame_bounds_diagonal"] == "not painless"


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


class TestKernelGridCaps:
    @pytest.mark.parametrize("argv", [
        ["--op", "amnorm", "--resolution", "100000"],
        ["--op", "osc", "--q-resolution", "100000"],
        ["--op", "oscnorm", "--q-resolution", "100000"],
        # a finite phase rate whose node count overflows to inf
        ["--op", "amnorm", "--eta-half", "6e306"],
    ])
    def test_exits_5_with_one_line(self, erb_paths, capsys, argv):
        _, desc = erb_paths
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["kernel", "--system", str(desc)] + argv)
        err = capsys.readouterr().err
        assert rc == 5
        assert [w for w in caught if w.category is RuntimeWarning] == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "4000000" in lines[0]


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv", [
        ["cover-dump", "--f-lo", "100", "--f-hi", "inf", "--t-lo", "0",
         "--t-hi", "0.05"],
        ["cover-dump", "--f-lo", "100", "--f-hi", "1000", "--t-lo", "0",
         "--t-hi", "inf"],
        ["kernel", "--op", "amnorm", "--z-half", "nan"],
        ["kernel", "--op", "amnorm", "--eta-half", "inf"],
        ["kernel", "--op", "amnorm", "--x", "inf"],
        ["kernel", "--op", "osc", "--delta", "nan"],
        ["kernel", "--op", "osc", "--omega", "nan"],
        ["kernel", "--op", "oscnorm", "--deltas", "nan"],
        ["kernel", "--op", "oscnorm", "--deltas", "inf"],
        ["kernel", "--op", "statphase", "--x", "nan"],
        ["kernel", "--op", "osc", "--delta", "-0.5"],
        ["kernel", "--op", "osc", "--delta", "0"],
        ["kernel", "--op", "gramian", "--x", "nan"],
        ["kernel", "--op", "gramian", "--xi", "inf"],
        # a cover row of zero width
        ["kernel", "--op", "oscnorm", "--deltas", "1e-300"],
        # a phase rate that is not finite
        ["kernel", "--op", "amnorm", "--x", "1e308"],
        ["kernel", "--op", "statphase", "--x", "1e308"],
        # a half-width whose node spacing is not finite
        ["kernel", "--op", "amnorm", "--eta-half", "1e308"],
        ["kernel", "--op", "amnorm", "--z-half", "1e308"],
        ["kernel", "--op", "oscnorm", "--z-half", "1e308"],
        # a warp weight that overflows on the z box
        ["kernel", "--op", "amnorm", "--z-half", "1e307"],
        # an eta box so small that the eta-tail bound is not finite
        ["kernel", "--op", "amnorm", "--eta-half", "1e-300"],
        ["kernel", "--op", "amnorm", "--eta-half", "5e-324"],
        # a Gramian phase rate that is not finite
        ["kernel", "--op", "osc", "--xi", "1e308"],
        ["kernel", "--op", "gramian", "--xi", "1e308"],
        # a cover row or column index that is not finite
        ["kernel", "--op", "osc", "--omega", "1e308"],
        ["kernel", "--op", "osc", "--delta", "5e-324", "--y", "1e-12"],
        ["kernel", "--op", "oscnorm", "--deltas", "5e-324"],
        # a cover row past the largest finite frequency
        ["kernel", "--op", "osc", "--delta", "1e6"],
        ["kernel", "--op", "oscnorm", "--deltas", "1e6"],
    ])
    def test_exits_2_with_one_line(self, erb_paths, tmp_path, capsys, argv):
        assert self._one_line(erb_paths, tmp_path, capsys, argv)[0] == 2

    @pytest.mark.parametrize("argv", [
        # a finite phase rate whose node count is not: clipped to the cap
        ["kernel", "--op", "osc", "--xi", "5e306"],
        ["kernel", "--op", "osc", "--omega", "1e306"],
    ])
    def test_exits_5_with_one_line(self, erb_paths, tmp_path, capsys, argv):
        assert self._one_line(erb_paths, tmp_path, capsys, argv)[0] == 5

    @pytest.mark.parametrize("argv, name", [
        (["kernel", "--op", "amnorm", "--eta-half", "1e-300"], "eta_half"),
        (["kernel", "--op", "gramian", "--xi", "1e308"], "xi"),
        (["kernel", "--op", "osc", "--omega", "1e308"], "omega"),
        (["kernel", "--op", "osc", "--delta", "5e-324", "--y", "1e-12"],
         "delta"),
        (["kernel", "--op", "oscnorm", "--deltas", "5e-324"], "delta"),
        (["kernel", "--op", "oscnorm", "--deltas", "1e6"], "delta"),
    ])
    def test_error_names_the_option(self, erb_paths, tmp_path, capsys, argv,
                                    name):
        assert name in self._one_line(erb_paths, tmp_path, capsys, argv)[1]

    @staticmethod
    def _one_line(erb_paths, tmp_path, capsys, argv):
        """Run ``argv`` on the ERB descriptor; check that it printed one
        ``error:`` line, no warning and no ``nan``, and return its exit
        code and that line."""
        _, desc = erb_paths
        capsys.readouterr()
        argv = argv[:1] + ["--system", str(desc)] + argv[1:]
        if argv[0] == "cover-dump":
            argv += ["--out", str(tmp_path / "cov.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        out, err = capsys.readouterr()
        assert [w for w in caught if w.category is RuntimeWarning] == []
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert "nan" not in out
        return rc, lines[0]


def _element_loop_dump(cover):
    """cover-dump's file as it was written from ``Cover.elements``, one
    element object at a time."""
    lines = ["l,k,f_lo,f_hi,t_lo,t_hi\n"]
    for e in cover.elements:
        lines.append(f"{e.l},{e.k},{fmt(e.f_lo)},{fmt(e.f_hi)},"
                     f"{fmt(e.t_lo)},{fmt(e.t_hi)}\n")
    return "".join(lines).encode("ascii")


class TestCoverDumpAndSpectrogram:
    @pytest.mark.parametrize("cfg", ["erb", "flat"])
    @pytest.mark.parametrize("window", [
        ("50", "4000", "0", "0.25"), ("-3000", "2500", "-0.01", "0.02"),
        ("-8000", "8000", "-1e-3", "1e-3"), ("100", "100.5", "0.5", "0.5001")])
    def test_cover_dump_bytes_equal_element_loop(self, cfg, window, tmp_path,
                                                 monkeypatch):
        """The rows formatted from the cover's arrays, building no element
        object, are the bytes the element loop wrote."""
        path = tmp_path / "sys.cfg"
        path.write_text(ERB_CFG if cfg == "erb" else FLAT_CFG)
        desc = tmp_path / "sys.desc"
        assert main(["design", "--config", str(path), "--out", str(desc)]) == 0
        out = tmp_path / "cov.csv"
        f_lo, f_hi, t_lo, t_hi = window
        monkeypatch.setattr(Cover, "elements", property(
            lambda cover: pytest.fail("cover-dump built the elements")))
        assert main(["cover-dump", "--system", str(desc), f"--f-lo={f_lo}",
                     f"--f-hi={f_hi}", f"--t-lo={t_lo}", f"--t-hi={t_hi}",
                     "--out", str(out)]) == 0
        monkeypatch.undo()
        system = read_descriptor(desc)
        cover = induced_cover(system.warp, system.delta,
                              (float(f_lo), float(f_hi)),
                              (float(t_lo), float(t_hi)))
        assert len(cover) > 0
        assert out.read_bytes() == _element_loop_dump(cover)

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
