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
"""

from __future__ import annotations

import math
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


def write_descriptor(path, system: WarpedSystem):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_config(system_to_config(system)))


def read_descriptor(path) -> WarpedSystem:
    return system_from_config(read_config(path))


# -- raw signals -----------------------------------------------------------


def write_signal(path, signal: np.ndarray):
    np.asarray(signal, dtype=np.complex128).astype("<c16").tofile(path)


def read_signal(path) -> np.ndarray:
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except OSError as exc:
        raise FormatError(f"cannot read signal {path}: {exc}") from None
    if raw.size % 16:
        raise FormatError(f"signal file {path} is not a whole number of "
                          "f64 re/im pairs")
    signal = raw.view("<c16").astype(np.complex128)
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
    with open(path, "wb") as fh:
        fh.write(_COEFF_MAGIC)
        fh.write(struct.pack("<II", _VERSION, coeffs.channel_count))
        fh.write(headers)
        # as stored when it already is little-endian and contiguous
        fh.write(np.ascontiguousarray(coeffs.values, "<c16"))


def read_coefficients(path, system: WarpedSystem) -> Coefficients:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read coefficients {path}: {exc}") from None
    if blob[:4] != _COEFF_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, "
                          f"expected {_COEFF_MAGIC!r}")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    channels = system.channels
    if count != len(channels):
        raise ShapeError(f"{path}: container has {count} channels, "
                         f"system has {len(channels)}")
    off = 12 + 24 * count
    if off > len(blob):
        raise FormatError(f"{path}: truncated channel headers")
    headers = np.frombuffer(blob, _HEADER, count, 12)
    centers, hops = system.channel_positions(), system.hop_seconds()
    # channels are checked in order: the first whose header disagrees, or
    # whose frames run past the end of the file, is the one reported
    frames_end = np.cumsum(channels.frames)
    ends = off + 16 * frames_end
    wrong = ((headers["center"] != centers) | (headers["hop"] != hops)
             | (headers["frames"] != channels.frames.astype(np.uint64)))
    bad = np.flatnonzero(wrong | (ends > len(blob)))
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
    if ends[-1] != len(blob):
        raise FormatError(f"{path}: {len(blob) - ends[-1]} trailing bytes")
    payload = np.frombuffer(blob, "<c16", offset=off).astype(np.complex128)
    finite = np.isfinite(payload.view(float))
    if not finite.all():  # name the channel of the first bad entry
        l = int(np.searchsorted(frames_end, np.argmin(finite) // 2,
                                side="right"))
        raise FormatError(f"{path}: channel {channels.index[l]} "
                          "holds a value that is not finite")
    return Coefficients(payload, channels.frames, centers, hops,
                        system.grid.length)
