"""Config parsing, descriptors, and binary container round trips."""

import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpft.io as wio
from warpft import ConfigError, FormatError, ShapeError
from warpft.cli import main
from warpft.io import (fmt, format_config, parse_config, read_coefficients,
                       read_descriptor, read_signal, system_from_config,
                       system_to_config, write_coefficients,
                       write_descriptor, write_signal)
from warpft.prototype import (bump_prototype, gaussian_prototype,
                              hann_prototype)
from warpft.system import Coefficients, SignalGrid, build_system
from warpft.transform import analyze
from warpft.warping import (alpha_like_warp, erb_warp, linear_warp, log_warp,
                            power_law_warp)

from test_transform import SYSTEMS

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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="needs /dev/fd to name a pipe")
    def test_pipe_refused(self):
        # a pipe has no size to take the length from: refused, not empty
        r, w = os.pipe()
        try:
            os.write(w, b"\x00" * 64)
            os.close(w)
            with pytest.raises(FormatError, match="not a regular file"):
                read_signal(f"/dev/fd/{r}")
        finally:
            os.close(r)


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


# -- the WTC1 reader and writer as they ran channel by channel with struct,
# kept as the reference for the ones that read headers as one structured
# array and the payload as one buffer


def _parent_write_coefficients(path, coeffs):
    with open(path, "wb") as fh:
        fh.write(b"WTC1")
        fh.write(struct.pack("<II", 1, len(coeffs.data)))
        for center, hop, frames in zip(coeffs.centers_hz,
                                       coeffs.hop_seconds,
                                       coeffs.frames):
            fh.write(struct.pack("<ddQ", center, hop, frames))
        for block in coeffs.data:
            fh.write(np.asarray(block, dtype=np.complex128)
                     .astype("<c16").tobytes())


def _parent_read_coefficients(path, system):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"WTC1":
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, "
                          f"expected {b'WTC1'!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported container version {version}")
    if count != len(system.channels):
        raise ShapeError(f"{path}: container has {count} channels, "
                         f"system has {len(system.channels)}")
    off = 12 + 24 * count
    if off > len(blob):
        raise FormatError(f"{path}: truncated channel headers")
    centers, hops = system.channel_positions(), system.hop_seconds()
    data = []
    for i, ch in enumerate(system.channels):
        center, hop, frames = struct.unpack_from("<ddQ", blob, 12 + 24 * i)
        if center != centers[i] or hop != hops[i]:
            raise ShapeError(f"{path}: channel {ch.index} sits at "
                             f"({fmt(center)} Hz, {fmt(hop)} s), system has "
                             f"({fmt(centers[i])} Hz, {fmt(hops[i])} s)")
        if frames != ch.frames:
            raise ShapeError(f"{path}: channel {ch.index} has {frames} "
                             f"frames, system expects {ch.frames}")
        end = off + 16 * frames
        if end > len(blob):
            raise FormatError(f"{path}: truncated payload")
        data.append(np.frombuffer(blob[off:end], dtype="<c16")
                    .astype(np.complex128))
        off = end
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
    finite = np.isfinite(np.frombuffer(blob, "<f8", offset=12 + 24 * count))
    if not finite.all():
        ends = np.cumsum([ch.frames for ch in system.channels])
        l = int(np.searchsorted(ends, np.argmin(finite) // 2, side="right"))
        raise FormatError(f"{path}: channel {system.channels[l].index} "
                          "holds a value that is not finite")
    return Coefficients(np.concatenate(data), system.channels.frames,
                        centers, hops, system.grid.length)


def _bits(a):
    return np.asarray(a).view(np.uint8).tobytes()


# a 4-channel linear bank on 64 bins and a 108-channel ERB bank on 1024
_CONTAINER_SYSTEMS = [
    build_system(linear_warp(1.0), gaussian_prototype(4.0), 16.0,
                 SignalGrid(64, 64.0), time_scale=1.0 / 16),
    _erb_system(),
]


def _container_bytes(system):
    """The WTC1 container of a seeded full-band signal's coefficients."""
    rng = np.random.default_rng(43)
    coeffs = analyze(rng.standard_normal(system.grid.length) + 0j, system)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.wtc")
        write_coefficients(path, coeffs)
        with open(path, "rb") as fh:
            return fh.read()


_CONTAINERS = [_container_bytes(system) for system in _CONTAINER_SYSTEMS]


def _outcome(read, path, system):
    try:
        return read(path, system)
    except (FormatError, ShapeError) as exc:
        return type(exc), str(exc)


@st.composite
def _damaged(draw):
    """A container of one of the systems above with some of: a header
    field of one channel replaced, one payload value replaced (often by
    one that is not finite), the file cut at any byte, bytes appended."""
    which = draw(st.integers(0, len(_CONTAINERS) - 1))
    system, blob = _CONTAINER_SYSTEMS[which], bytearray(_CONTAINERS[which])
    count = len(system.channels)
    if draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        field = draw(st.sampled_from(["center", "hop", "frames"]))
        at = 12 + 24 * i + {"center": 0, "hop": 8, "frames": 16}[field]
        if field == "frames":
            new = struct.pack("<Q", draw(st.one_of(
                st.integers(0, 2 ** 64 - 1),
                st.integers(0, 2 * system.grid.length))))
        else:
            old = struct.unpack_from("<d", blob, at)[0]
            new = struct.pack("<d", draw(st.one_of(
                st.floats(), st.sampled_from([np.nextafter(old, np.inf),
                                              -old, 0.0, -0.0]))))
        blob[at:at + 8] = new
    if draw(st.booleans()):
        j = draw(st.integers(0, (len(blob) - 12 - 24 * count) // 8 - 1))
        value = draw(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                               st.floats()))
        struct.pack_into("<d", blob, 12 + 24 * count + 8 * j, value)
    if draw(st.booleans()):  # often inside the payload
        blob = blob[:draw(st.one_of(st.integers(0, len(blob)), st.integers(
            12 + 24 * count, len(blob))))]
    if draw(st.booleans()):
        blob += draw(st.binary(min_size=1, max_size=40))
    return system, bytes(blob)


class TestContainerAgainstStructReader:
    """The array reader and writer equal the channel-by-channel struct
    ones: the same exception class and message (the first bad channel
    named) or bit-identical data, and byte-identical files."""

    @settings(max_examples=300, deadline=None)
    @given(_damaged())
    def test_same_outcome(self, case):
        system, blob = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.wtc")
            with open(path, "wb") as fh:
                fh.write(blob)
            got = _outcome(read_coefficients, path, system)
            want = _outcome(_parent_read_coefficients, path, system)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, Coefficients)
        assert len(got.data) == len(want.data)
        for a, b in zip(got.data, want.data):
            assert a.dtype == b.dtype and _bits(a) == _bits(b)
        assert _bits(got.centers_hz) == _bits(want.centers_hz)
        assert _bits(got.hop_seconds) == _bits(want.hop_seconds)
        assert got.length == want.length

    def test_every_cut_of_every_damaged_header(self, tmp_path):
        """The 4-channel container, each header field in turn nudged (or
        none), cut at every byte and with one byte appended."""
        system, blob = _CONTAINER_SYSTEMS[0], _CONTAINERS[0]
        path = tmp_path / "c.wtc"
        variants = [blob]
        for at in range(12, 12 + 24 * len(system.channels), 8):
            damaged = bytearray(blob)
            if (at - 12) % 24 == 16:  # a frame count, one more
                struct.pack_into("<Q", damaged, at,
                                 struct.unpack_from("<Q", blob, at)[0] + 1)
            else:                     # a centre or hop, one ulp up
                struct.pack_into("<d", damaged, at, np.nextafter(
                    struct.unpack_from("<d", blob, at)[0], np.inf))
            variants.append(bytes(damaged))
        for damaged in variants:
            for cut in [damaged[:size] for size in range(len(damaged) + 1)
                        ] + [damaged + b"\0"]:
                path.write_bytes(cut)
                got = _outcome(read_coefficients, path, system)
                want = _outcome(_parent_read_coefficients, path, system)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert [_bits(c) for c in got.data] == [
                        _bits(c) for c in want.data]

    def test_intact_containers_read_back(self):
        # the property's undamaged case, drawn or not
        for system, blob in zip(_CONTAINER_SYSTEMS, _CONTAINERS):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "c.wtc")
                with open(path, "wb") as fh:
                    fh.write(blob)
                assert read_coefficients(path, system).matches_system(system)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_files_byte_identical(self, name, tmp_path):
        system = SYSTEMS[name]()
        coeffs = analyze(_signal(system), system)
        # and blocks that are strided views, which the writer makes contiguous
        strided = Coefficients(
            np.repeat(coeffs.values, 2)[::2], coeffs.frames,
            coeffs.centers_hz, coeffs.hop_seconds, coeffs.length)
        assert not strided.values.flags.c_contiguous
        for c in (coeffs, strided):
            write_coefficients(tmp_path / "new.wtc", c)
            _parent_write_coefficients(tmp_path / "old.wtc", c)
            assert ((tmp_path / "new.wtc").read_bytes()
                    == (tmp_path / "old.wtc").read_bytes())


# -- the writers as they truncated their path on opening, kept as the
# reference for the ones that write over it and cut it to length after


def _truncating_write_descriptor(path, system):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_config(system_to_config(system)))


def _truncating_write_signal(path, signal):
    np.asarray(signal, dtype=np.complex128).astype("<c16").tofile(path)


# (writer, its truncating reference, what they write)
_WRITERS = {
    "descriptor": (write_descriptor, _truncating_write_descriptor,
                   lambda system: system),
    "signal": (write_signal, _truncating_write_signal, _signal),
    "container": (write_coefficients, _parent_write_coefficients,
                  lambda system: analyze(_signal(system), system)),
}


class _CutPayload(io.BufferedWriter):
    """A file whose write of ``nbytes`` bytes or more fails, as a full
    disk or a killed process would cut it."""

    def __init__(self, raw, nbytes):
        super().__init__(raw)
        self.nbytes = nbytes

    def write(self, data):
        if memoryview(data).nbytes >= self.nbytes:
            raise OSError(28, "No space left on device")
        return super().write(data)


class TestWriteOver:
    """Descriptors, signals and containers written over an existing file
    equal, byte for byte, the file the truncating writers made."""

    @pytest.mark.parametrize("before", ["missing", "shorter", "equal",
                                        "longer"])
    @pytest.mark.parametrize("name", sorted(_WRITERS))
    def test_bytes_equal_truncating_writer(self, name, before, tmp_path):
        write, reference, make = _WRITERS[name]
        value = make(_erb_system())
        reference(tmp_path / "want", value)
        want = (tmp_path / "want").read_bytes()
        path = tmp_path / "got"
        size = {"shorter": len(want) // 2, "equal": len(want),
                "longer": 3 * len(want) + 5}.get(before)
        if size is not None:  # stale bytes that differ from every new one
            path.write_bytes(bytes(~np.frombuffer(want * 4, np.uint8)
                                   [:size]))
        write(path, value)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("argv", [
        ["design", "--config", "{cfg}"],
        ["analyze", "--system", "{desc}", "--signal", "{sig}"],
        ["synthesize", "--system", "{desc}", "--coeffs", "{wtc}"],
    ])
    def test_devnull_output(self, argv, tmp_path):
        # a character device is written, never truncated or rewound
        system = _erb_system()
        paths = {k: str(tmp_path / k) for k in ("cfg", "desc", "sig", "wtc")}
        (tmp_path / "cfg").write_text(format_config(system_to_config(system)))
        write_descriptor(paths["desc"], system)
        signal = _signal(system)
        write_signal(paths["sig"], signal)
        write_coefficients(paths["wtc"], analyze(signal, system))
        argv = [a.format(**paths) for a in argv] + ["--out", os.devnull]
        assert main(argv) == 0
        assert not os.path.isfile(os.devnull)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="needs /dev/fd to name a pipe")
    def test_pipe_round_trip(self, tmp_path):
        # a pipe cannot be rewound: the magic goes first, as it always did,
        # and the reader takes no length from the file's size
        system = _CONTAINER_SYSTEMS[0]
        coeffs = analyze(_signal(system), system)
        _parent_write_coefficients(tmp_path / "want", coeffs)
        want = (tmp_path / "want").read_bytes()
        assert len(want) < 4096  # fits the pipe's buffer
        r, w = os.pipe()
        with open(r, "rb") as reader:
            try:
                write_coefficients(f"/dev/fd/{w}", coeffs)
            finally:
                os.close(w)
            assert reader.read() == want
        r, w = os.pipe()
        try:
            with open(w, "wb") as writer:
                writer.write(want)
            back = read_coefficients(f"/dev/fd/{r}", system)
        finally:
            os.close(r)
        assert _bits(back.values) == _bits(coeffs.values)

    @pytest.mark.parametrize("before", ["missing", "equal"])
    def test_cut_after_headers_refused(self, before, tmp_path, monkeypatch):
        system = _erb_system()
        coeffs = analyze(_signal(system), system)
        path = tmp_path / "c.wtc"
        if before == "equal":  # a good container of another signal
            write_coefficients(path, analyze(_signal(system), system))
            read_coefficients(path, system)
        with monkeypatch.context() as patch:
            patch.setattr(wio, "open", lambda fd, mode: _CutPayload(
                io.FileIO(fd, "w"), coeffs.values.nbytes), raising=False)
            with pytest.raises(OSError, match="No space"):
                write_coefficients(path, coeffs)
        with pytest.raises(FormatError, match="bad magic"):
            read_coefficients(path, system)
