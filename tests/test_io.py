"""Config parsing, descriptors, and binary container round trips."""

import numpy as np
import pytest

from warpft import ConfigError, FormatError, ShapeError
from warpft.io import (format_config, parse_config, read_coefficients,
                       read_descriptor, read_signal, system_from_config,
                       system_to_config, write_coefficients,
                       write_descriptor, write_signal)
from warpft.prototype import bump_prototype, gaussian_prototype
from warpft.system import SignalGrid, build_system
from warpft.transform import analyze
from warpft.warping import erb_warp, linear_warp

RNG = np.random.default_rng(31)


def _erb_system():
    return build_system(erb_warp(), bump_prototype(0.9), 0.5,
                        SignalGrid(1024, 8000.0))


def _signal(system):
    idx = system.interior_bins()
    fhat = np.zeros(system.grid.length, dtype=complex)
    fhat[idx] = RNG.standard_normal(idx.size) \
        + 1j * RNG.standard_normal(idx.size)
    return np.fft.ifft(fhat)


class TestConfigText:
    def test_parse_basics(self):
        cfg = parse_config("a = 1\n# comment\nb.c = hello  # trailing\n\n")
        assert cfg == {"a": "1", "b.c": "hello"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("a = 1\n\nbroken line\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("a =\n")

    def test_format_round_trip(self):
        cfg = {"x": "1.5", "warp.kind": "erb"}
        assert parse_config(format_config(cfg)) == cfg


class TestDescriptor:
    def test_round_trip_rebuilds_identical_system(self, tmp_path):
        sys1 = _erb_system()
        path = tmp_path / "sys.desc"
        write_descriptor(path, sys1)
        sys2 = read_descriptor(path)
        assert len(sys2.channels) == len(sys1.channels)
        assert sys2.delta == sys1.delta
        for a, b in zip(sys1.atoms, sys2.atoms):
            assert np.array_equal(a.dense(1024), b.dense(1024))

    def test_unknown_key_rejected(self):
        cfg = system_to_config(_erb_system())
        cfg["warp.bogus"] = "1"
        with pytest.raises(ConfigError, match="warp.bogus"):
            system_from_config(cfg)

    def test_missing_required_key(self):
        cfg = system_to_config(_erb_system())
        del cfg["delta"]
        with pytest.raises(ConfigError, match="delta"):
            system_from_config(cfg)

    def test_non_numeric_value(self):
        cfg = system_to_config(_erb_system())
        cfg["delta"] = "wide"
        with pytest.raises(ConfigError, match="delta"):
            system_from_config(cfg)


class TestSignalFiles:
    def test_round_trip_exact(self, tmp_path):
        sig = RNG.standard_normal(64) + 1j * RNG.standard_normal(64)
        path = tmp_path / "s.f64"
        write_signal(path, sig)
        assert path.stat().st_size == 64 * 16
        back = read_signal(path)
        assert np.array_equal(back, sig)

    def test_ragged_size_rejected(self, tmp_path):
        path = tmp_path / "bad.f64"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(FormatError):
            read_signal(path)


class TestCoefficientContainer:
    def test_round_trip_exact(self, tmp_path):
        system = _erb_system()
        coeffs = analyze(_signal(system), system)
        path = tmp_path / "c.wtc"
        write_coefficients(path, coeffs)
        back = read_coefficients(path, system)
        assert back.matches_system(system)
        for a, b in zip(coeffs.data, back.data):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.wtc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_coefficients(path, _erb_system())

    def test_truncated_payload(self, tmp_path):
        system = _erb_system()
        coeffs = analyze(_signal(system), system)
        path = tmp_path / "c.wtc"
        write_coefficients(path, coeffs)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            read_coefficients(path, system)

    def test_every_prefix_rejected(self, tmp_path):
        system = build_system(linear_warp(1.0), gaussian_prototype(4.0),
                              16.0, SignalGrid(64, 64.0),
                              time_scale=1.0 / 16)
        coeffs = analyze(_signal(system), system)
        path = tmp_path / "c.wtc"
        write_coefficients(path, coeffs)
        blob = path.read_bytes()
        assert len(blob) < 2048
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises((FormatError, ShapeError)):
                read_coefficients(path, system)

    def test_patched_centre_rejected(self, tmp_path):
        system = _erb_system()
        coeffs = analyze(_signal(system), system)
        coeffs.centers_hz[0] += 1e-9
        path = tmp_path / "c.wtc"
        write_coefficients(path, coeffs)
        with pytest.raises(ShapeError, match="Hz"):
            read_coefficients(path, system)

    def test_channel_count_mismatch(self, tmp_path):
        system = _erb_system()
        other = build_system(erb_warp(), bump_prototype(0.9), 1.0,
                             SignalGrid(1024, 8000.0))
        coeffs = analyze(_signal(system), system)
        path = tmp_path / "c.wtc"
        write_coefficients(path, coeffs)
        with pytest.raises(ShapeError, match="channels"):
            read_coefficients(path, other)
