"""File formats: flat configs, system descriptors, signals, containers.

Everything on disk is either flat ``key = value`` text (configs and
descriptors, ``#`` comments allowed, numbers printed with 17 significant
digits so they round-trip) or little-endian binary:

* signals — raw interleaved f64 re/im pairs, length from file size;
* coefficients — magic ``WTC1``, u32 version, u32 channel count,
  per-channel ``{f64 center_hz, f64 hop_seconds, u64 frame_count}``
  headers, then per-channel interleaved f64 re/im frames.  Reading
  checks every header against the system it is read for and refuses a
  payload value that is not finite.
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
    return raw.view("<c16").astype(np.complex128)


# -- WTC1 coefficient containers ------------------------------------------


def write_coefficients(path, coeffs: Coefficients):
    with open(path, "wb") as fh:
        fh.write(_COEFF_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(coeffs.data)))
        for center, hop, frames in zip(coeffs.centers_hz,
                                       coeffs.hop_seconds,
                                       coeffs.frame_counts()):
            fh.write(struct.pack("<ddQ", center, hop, frames))
        for block in coeffs.data:
            fh.write(np.asarray(block, dtype=np.complex128)
                     .astype("<c16").tobytes())


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
    if not finite.all():  # name the channel of the first bad entry
        ends = np.cumsum([ch.frames for ch in system.channels])
        l = int(np.searchsorted(ends, np.argmin(finite) // 2, side="right"))
        raise FormatError(f"{path}: channel {system.channels[l].index} "
                          "holds a value that is not finite")
    return Coefficients(data, centers, hops, system.grid.length)
