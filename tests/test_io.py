"""Config parsing, descriptors, and binary container round trips."""

import numpy as np
import pytest

from warpft import ConfigError, FormatError, ShapeError
from warpft.io import (fmt, format_config, parse_config, read_coefficients,
                       read_descriptor, read_signal, system_from_config,
                       system_to_config, write_coefficients,
                       write_descriptor, write_signal)
from warpft.prototype import (bump_prototype, gaussian_prototype,
                              hann_prototype)
from warpft.system import SignalGrid, build_system
from warpft.transform import analyze
from warpft.warping import (alpha_like_warp, erb_warp, linear_warp, log_warp,
                            power_law_warp)

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


# (warp, delta) pairs that design 10-32 channels on a 256-bin grid
FAMILY_DESIGNS = [(linear_warp(2.0), 16.0), (log_warp(), 0.5),
                  (power_law_warp(1.5, 2.0, 0.6), 1.0),
                  (erb_warp(9.0, 200.0), 0.5), (alpha_like_warp(0.5), 1.0)]


def _descriptor_by_kind_branches(system):
    """The descriptor writer as it was before the family tables: one
    parameter list per warp kind and a branch on the prototype kind."""
    warp_params = {"linear": ("c",), "log": (), "power_law": ("c", "d", "l"),
                   "erb": ("c1", "c2"), "alpha_like": ("l",)}
    warp, theta = system.warp, system.theta
    out = {"warp.kind": warp.kind}
    for p in warp_params[warp.kind]:
        out[f"warp.{p}"] = fmt(getattr(warp, p))
    out["prototype.kind"] = theta.kind
    if theta.kind == "gaussian":
        out["prototype.sigma"] = fmt(theta.sigma)
    else:
        out["prototype.radius"] = fmt(theta.radius)
    out["prototype.normalize"] = "true" if system.normalize else "false"
    out["delta"] = fmt(system.delta)
    out["sample_rate"] = fmt(system.grid.sample_rate)
    out["length"] = str(system.grid.length)
    out["time_scale"] = fmt(system.time_scale)
    out["truncation"] = fmt(system.truncation)
    return format_config(out)


class TestFamilyTables:
    @pytest.mark.parametrize("warp,delta", FAMILY_DESIGNS,
                             ids=[w.kind for w, _ in FAMILY_DESIGNS])
    @pytest.mark.parametrize("make", [gaussian_prototype, hann_prototype,
                                      bump_prototype],
                             ids=lambda make: make.__name__)
    def test_descriptor_unchanged_and_read_back(self, warp, delta, make):
        theta = make(0.7 * delta)
        system = build_system(warp, theta, delta, SignalGrid(256, 256.0),
                              time_scale=0.5, normalize=False)
        text = format_config(system_to_config(system))
        assert text == _descriptor_by_kind_branches(system)
        back = system_from_config(parse_config(text))
        assert back.warp == warp and back.theta == theta

    @pytest.mark.parametrize("key", ["warp.l", "prototype.radius",
                                     "prototype.center"])
    def test_key_of_another_kind_rejected(self, key):
        cfg = system_to_config(build_system(
            linear_warp(1.0), gaussian_prototype(4.0), 8.0,
            SignalGrid(256, 256.0)))
        cfg[key] = "0.5"
        with pytest.raises(ConfigError, match=f"unknown keys: {key}"):
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
