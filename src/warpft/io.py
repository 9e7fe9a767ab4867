"""File formats: flat configs, system descriptors, signals, containers.

Everything on disk is either flat ``key = value`` text (configs and
descriptors, ``#`` comments allowed, numbers printed with 17 significant
digits so they round-trip) or little-endian binary:

* signals — raw interleaved f64 re/im pairs, length from file size;
* coefficients — magic ``WTC1``, u32 version, u32 channel count,
  per-channel ``{f64 center_hz, f64 hop_seconds, u64 frame_count}``
  headers, then the payload: :attr:`Coefficients.values`, every
  channel's frames end to end in channel order, as interleaved f64
  re/im pairs.  Reading checks every header against the system it is
  read for and refuses a payload value that is not finite.

Descriptors, signals and containers are written over what the output
path holds, from its start, and a regular file left longer is then cut
to length: the bytes are those of a fresh file, and the file system is
spared freeing the old blocks only to allocate new ones.  A write cut
short leaves a file the reader refuses: a descriptor or signal is one
write, and a container's magic goes in last, over a placeholder.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from typing import Dict

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .prototype import PROTOTYPE_FAMILIES, prototype_from_params
from .system import SignalGrid, WarpedSystem, build_system
from .transform import Coefficients
from .warping import WARP_FAMILIES, warp_from_params

_COEFF_MAGIC = b"WTC1"
_VERSION = 1
#: one channel header of a WTC1 container
_HEADER = np.dtype([("center", "<f8"), ("hop", "<f8"), ("frames", "<u8")])


def fmt(value) -> str:
    """17-significant-digit decimal text; round-trips doubles exactly."""
    return format(float(value), ".17g")


# -- flat key = value text -------------------------------------------------


def parse_config(text: str) -> Dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError:
        raise FormatError(f"{path} is not a text config") from None


def format_config(entries: Dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def _take_float(cfg: Dict[str, str], key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return float(default)
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a number") \
            from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not finite")
    return value


def _take_bool(cfg: Dict[str, str], key: str, default: bool) -> bool:
    raw = cfg.get(key, "true" if default else "false").lower()
    if raw not in ("true", "false"):
        raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")
    return raw == "true"


# -- system descriptors ----------------------------------------------------


def _from_family(cfg: Dict[str, str], prefix: str, families, from_params,
                 known: set):
    """Build ``<prefix>.kind`` with ``from_params`` from the ``<prefix>.*``
    keys its family accepts; adds those keys to ``known``."""
    kind = cfg.get(f"{prefix}.kind")
    if kind is None:
        raise ConfigError(f"missing required key '{prefix}.kind'")
    names = families[kind][1] if kind in families else ()  # rejected below
    keys = {p: f"{prefix}.{p}" for p in names}
    known.update(keys.values())
    return from_params(kind, **{p: _take_float(cfg, k)
                                for p, k in keys.items() if k in cfg})


def system_from_config(cfg: Dict[str, str]) -> WarpedSystem:
    """Build a system from parsed descriptor/config keys."""
    known = {"warp.kind", "prototype.kind", "delta", "sample_rate", "length",
             "time_scale", "truncation", "prototype.normalize"}
    warp = _from_family(cfg, "warp", WARP_FAMILIES, warp_from_params, known)
    theta = _from_family(cfg, "prototype", PROTOTYPE_FAMILIES,
                         prototype_from_params, known)

    length = _take_float(cfg, "length")
    if length != int(length):
        raise ConfigError("length must be an integer")
    grid = SignalGrid(int(length), _take_float(cfg, "sample_rate"))
    stray = sorted(set(cfg) - known)
    if stray:
        raise ConfigError(f"unknown keys: {', '.join(stray)}")
    return build_system(
        warp, theta, _take_float(cfg, "delta"), grid,
        time_scale=_take_float(cfg, "time_scale", 1.0),
        normalize=_take_bool(cfg, "prototype.normalize", True),
        truncation=_take_float(cfg, "truncation", 1e-8))


def system_to_config(system: WarpedSystem) -> Dict[str, str]:
    out = {}
    for prefix, families, part in (("warp", WARP_FAMILIES, system.warp),
                                   ("prototype", PROTOTYPE_FAMILIES,
                                    system.theta)):
        out[f"{prefix}.kind"] = part.kind
        for p in families[part.kind][1]:
            out[f"{prefix}.{p}"] = fmt(getattr(part, p))
    out["prototype.normalize"] = "true" if system.normalize else "false"
    out["delta"] = fmt(system.delta)
    out["sample_rate"] = fmt(system.grid.sample_rate)
    out["length"] = str(system.grid.length)
    out["time_scale"] = fmt(system.time_scale)
    out["truncation"] = fmt(system.truncation)
    return out


def _write_over(path, parts, magic=b""):
    """Write ``magic`` and then ``parts`` to ``path`` from its start,
    creating it if missing but not truncating it first; a regular file
    that was longer is cut to the written length afterwards.  In a
    regular file ``magic`` goes in last, over zeros, so that until the
    write is complete the file does not start with it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    with open(fd, "wb") as fh:
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        fh.write(bytes(len(magic)) if regular else magic)
        for part in parts:
            fh.write(part)
        if regular:
            size = fh.tell()
            fh.seek(0)
            fh.write(magic)
            if st.st_size > size:
                fh.truncate(size)


def write_descriptor(path, system: WarpedSystem):
    _write_over(path, [format_config(system_to_config(system))
                       .encode("ascii")])


def read_descriptor(path) -> WarpedSystem:
    return system_from_config(read_config(path))


# -- raw signals -----------------------------------------------------------


def write_signal(path, signal: np.ndarray):
    _write_over(path, [np.ascontiguousarray(signal, "<c16")])


def read_signal(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):  # its size is no length
                raise FormatError(f"cannot read signal {path}: not a "
                                  "regular file")
            size = st.st_size
            if size % 16:
                raise FormatError(f"signal file {path} is not a whole "
                                  "number of f64 re/im pairs")
            signal = np.empty(size // 16, "<c16")
            if fh.readinto(signal) != size:
                raise FormatError(f"signal file {path} shrank while read")
    except OSError as exc:
        raise FormatError(f"cannot read signal {path}: {exc}") from None
    signal = signal.astype(np.complex128, copy=False)
    bad = np.flatnonzero(~np.isfinite(signal))
    if bad.size:
        raise FormatError(f"signal file {path}: sample {bad[0]} is not finite")
    return signal


# -- WTC1 coefficient containers ------------------------------------------


def write_coefficients(path, coeffs: Coefficients):
    headers = np.empty(coeffs.channel_count, _HEADER)
    headers["center"] = coeffs.centers_hz
    headers["hop"] = coeffs.hop_seconds
    headers["frames"] = coeffs.frames
    _write_over(path, [struct.pack("<II", _VERSION, coeffs.channel_count),
                       headers,
                       # as stored when little-endian and contiguous
                       np.ascontiguousarray(coeffs.values, "<c16")],
                magic=_COEFF_MAGIC)


def read_coefficients(path, system: WarpedSystem) -> Coefficients:
    try:
        with open(path, "rb") as fh:
            return _read_container(fh, path, system)
    except OSError as exc:
        raise FormatError(f"cannot read coefficients {path}: {exc}") from None


def _read_container(fh, path, system: WarpedSystem) -> Coefficients:
    """The checks of :func:`read_coefficients`, in the order of the bytes
    they need; the payload is read straight into the returned array."""
    head = fh.read(12)
    if head[:4] != _COEFF_MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}, "
                          f"expected {_COEFF_MAGIC!r}")
    if len(head) < 12:
        raise FormatError(f"{path}: truncated header")
    version, count = struct.unpack_from("<II", head, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    channels = system.channels
    if count != len(channels):
        raise ShapeError(f"{path}: container has {count} channels, "
                         f"system has {len(channels)}")
    raw = fh.read(24 * count)
    if len(raw) < 24 * count:
        raise FormatError(f"{path}: truncated channel headers")
    headers = np.frombuffer(raw, _HEADER)
    centers, hops = system.channel_positions(), system.hop_seconds()
    frames_end = np.cumsum(channels.frames)
    payload = np.empty(frames_end[-1], "<c16")
    got = fh.readinto(payload)  # bytes of payload the file holds
    # channels are checked in order: the first whose header disagrees, or
    # whose frames run past the end of the file, is the one reported
    wrong = ((headers["center"] != centers) | (headers["hop"] != hops)
             | (headers["frames"] != channels.frames.astype(np.uint64)))
    bad = np.flatnonzero(wrong | (16 * frames_end > got))
    if bad.size:
        i = int(bad[0])
        center, hop, frames = headers[i].tolist()
        if center != centers[i] or hop != hops[i]:
            raise ShapeError(f"{path}: channel {channels.index[i]} sits at "
                             f"({fmt(center)} Hz, {fmt(hop)} s), system has "
                             f"({fmt(centers[i])} Hz, {fmt(hops[i])} s)")
        if wrong[i]:
            raise ShapeError(f"{path}: channel {channels.index[i]} has "
                             f"{frames} frames, system expects "
                             f"{channels.frames[i]}")
        raise FormatError(f"{path}: truncated payload")
    trailing = len(fh.read())
    if trailing:
        raise FormatError(f"{path}: {trailing} trailing bytes")
    payload = payload.astype(np.complex128, copy=False)
    finite = np.isfinite(payload.view(float))
    if not finite.all():  # name the channel of the first bad entry
        l = int(np.searchsorted(frames_end, np.argmin(finite) // 2,
                                side="right"))
        raise FormatError(f"{path}: channel {channels.index[l]} "
                          "holds a value that is not finite")
    return Coefficients(payload, channels.frames, centers, hops,
                        system.grid.length)
