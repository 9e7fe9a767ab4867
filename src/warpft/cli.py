"""Command-line front end.

Subcommands: ``design``, ``analyze``, ``synthesize``, ``diagnose``,
``kernel``, ``cover-dump``, ``spectrogram``, each described once in the
table ``_SUBCOMMANDS`` (help, handler, options); :func:`main` reads a
valid call with the parser of its subcommand alone, and any other with
the parser of all of them, which words its error.  Exit codes: 0 success,
2 configuration, 3 shape mismatch, 4 file format, 5 capability,
1 internal.  A failing subcommand prints one ``error:`` line to stderr,
never a traceback.  Numeric text output uses 17 significant digits; the
JSON report of ``diagnose`` prints floats in Python's shortest
round-trip form and non-finite values as ``null``.  Either way printed
doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

import numpy as np

from .discretization import (check_cover_admissible, frame_bounds,
                             induced_cover, weight_bound_C)
from .errors import (CapabilityError, ConfigError, FormatError, ShapeError,
                     WarpFTError)
from .io import (fmt, read_coefficients, read_descriptor, read_signal,
                 system_from_config, read_config, write_coefficients,
                 write_descriptor, write_signal)
from .kernels import (KernelEvalSpec, gramian, kernel_norm_I,
                      osc_norm_estimate, oscillation, stationary_phase_check)
from .transform import (analyze, coefficient_deviation, export_spectrogram,
                        moyal_residual, stft_reference, synthesize)

_EXIT_OK = 0
_EXIT_INTERNAL = 1
#: the exit code of the first class an error is an instance of
_EXIT_CODES = ((ConfigError, 2), (ShapeError, 3), (FormatError, 4),
               (CapabilityError, 5), (WarpFTError, _EXIT_INTERNAL))


def _jsonable(obj):
    """``obj`` with numpy scalars made Python ones and non-finite floats
    made ``None``, ready for :func:`json.dumps`."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _probe_signal(system, seed: int = 2024) -> np.ndarray:
    """Deterministic random signal supported on the interior band."""
    rng = np.random.default_rng(seed)
    idx = system.interior_bins()
    fhat = np.zeros(system.grid.length, dtype=complex)
    fhat[idx] = rng.standard_normal(idx.size) \
        + 1j * rng.standard_normal(idx.size)
    return np.fft.ifft(fhat)


# -- subcommands -----------------------------------------------------------


def _cmd_design(args) -> int:
    system = system_from_config(read_config(args.config))
    write_descriptor(args.out, system)
    print(f"channels = {len(system.channels)}")
    print(f"delta = {fmt(system.delta)}")
    print(f"painless = {'true' if system.painless else 'false'}")
    return _EXIT_OK


def _cmd_analyze(args) -> int:
    system = read_descriptor(args.system)
    signal = read_signal(args.signal)
    if signal.size != system.grid.length:
        raise ShapeError(f"signal has {signal.size} samples, system "
                         f"expects {system.grid.length}")
    coeffs = analyze(signal, system)
    write_coefficients(args.out, coeffs)
    print(f"coefficients = {coeffs.values.size}")
    return _EXIT_OK


def _cmd_synthesize(args) -> int:
    system = read_descriptor(args.system)
    coeffs = read_coefficients(args.coeffs, system)
    ref = read_signal(args.verify) if args.verify else None
    with np.errstate(all="ignore"):  # finite coefficients can overflow
        rec = synthesize(coeffs, system, iterative=args.iterative)
    if not np.all(np.isfinite(rec)):
        raise FormatError(f"{args.coeffs}: coefficients too large: the "
                          "reconstruction is not finite")
    write_signal(args.out, rec)
    if ref is not None:
        if ref.size != rec.size:
            raise ShapeError(f"reference has {ref.size} samples, "
                             f"reconstruction has {rec.size}")
        denom = np.linalg.norm(ref)
        rel = np.linalg.norm(rec - ref) / denom if denom else float("nan")
        print(f"relative_error = {fmt(rel)}")
    return _EXIT_OK


def _cmd_diagnose(args) -> int:
    system = read_descriptor(args.system)
    report = {
        "channels": len(system.channels),
        "delta": system.delta,
        "sample_rate": system.grid.sample_rate,
        "length": system.grid.length,
    }
    pl = system.painless_report
    report["painless"] = pl.painless
    report["painless_violations"] = len(pl.violations)
    report["alias_free"] = bool(np.all(pl.alias_free))

    # exact, and on a painless system also the diagonal bounds; the
    # benchmark reads both keys
    a, b = frame_bounds(system)
    bounds = {"A": a, "B": b, "B_over_A": b / a if a else None}
    report["frame_bounds_diagonal"] = (bounds if pl.painless
                                       else "not painless")
    report["frame_bounds_power"] = bounds
    singles, fibers = system.interior_fibers()
    report["frame_fibers"] = {
        "count": singles.size + sum(len(bins) for bins, _ in fibers),
        "largest": fibers[-1][0].shape[1] if fibers else 1}

    probe = _probe_signal(system)
    energy = float(np.vdot(probe, probe).real) / system.grid.sample_rate
    residual = moyal_residual(probe, probe, system)
    report["moyal_residual"] = residual
    report["moyal_relative"] = residual / energy

    chans = system.channels
    f_window = (chans.band_lo_hz[0].item(), chans.band_hi_hz[-1].item())
    t_window = (0.0, system.grid.length / system.grid.sample_rate)
    cover = induced_cover(system.warp, system.delta, f_window, t_window)
    cov = check_cover_admissible(cover)
    report["cover"] = {
        "elements": len(cover),
        "max_neighbors": cov.max_neighbors,
        "moderateness_constant": cov.moderateness_constant,
        "min_measure": cov.min_measure,
        "covers_window": cov.covers_window,
        "max_measure_error": cov.max_measure_error,
    }
    report["C_mU"] = float(weight_bound_C(cover))

    if system.warp.kind == "linear":
        dev = coefficient_deviation(analyze(probe, system),
                                    stft_reference(probe, system))
        verdict = "PASS" if dev <= 1e-10 else "FAIL"
        report["stft_equivalence"] = f"max_dev {fmt(dev)} <= 1e-10: {verdict}"
    print(json.dumps(_jsonable(report), indent=2))
    return _EXIT_OK


def _parse_deltas(raw: str):
    try:
        deltas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--deltas: {raw!r} is not a comma-separated "
                          "list of numbers") from None
    if not deltas or not all(d > 0 and math.isfinite(d) for d in deltas):
        raise ConfigError("--deltas needs finite positive values")
    return deltas


def _cmd_kernel(args) -> int:
    system = read_descriptor(args.system)
    warp, theta = system.warp, system.theta
    spec = KernelEvalSpec(z_half_width=args.z_half,
                          eta_half_width=args.eta_half,
                          resolution=args.resolution)
    lines = []
    if args.op == "gramian":
        value = gramian(warp, theta, args.x, args.xi, args.y, args.omega)
        lines.append(f"re = {fmt(value.real)}")
        lines.append(f"im = {fmt(value.imag)}")
    elif args.op == "amnorm":
        rep = kernel_norm_I(warp, theta, spec, args.x, args.xi)
        lines.append(f"value = {fmt(rep.value)}")
        lines.append(f"tail_estimate = {fmt(rep.tail_estimate)}")
        lines.append(f"inconclusive = "
                     f"{'true' if rep.inconclusive else 'false'}")
    elif args.op == "osc":
        value = oscillation(warp, theta,
                            system.delta if args.delta is None else args.delta,
                            not args.gamma_off, args.x, args.xi,
                            args.y, args.omega,
                            q_resolution=args.q_resolution)
        lines.append(f"value = {fmt(value)}")
    elif args.op == "oscnorm":
        deltas = _parse_deltas(args.deltas)
        lines.append("delta,value")
        for d in deltas:
            rep = osc_norm_estimate(warp, theta, d, spec,
                                    gamma_on=not args.gamma_off,
                                    q_resolution=args.q_resolution)
            lines.append(f"{fmt(d)},{fmt(rep.value)}")
    else:  # statphase
        etas = np.concatenate([-np.arange(1, 65)[::-1], np.arange(1, 65)])
        rep = stationary_phase_check(warp, theta, args.order, args.x,
                                     etas.astype(float))
        lines.append("eta,lhs,rhs,verdict")
        for e, lhs, rhs in zip(rep.eta, rep.lhs, rep.rhs_decay):
            verdict = "PASS" if lhs <= rhs else "FAIL"
            lines.append(f"{fmt(e)},{fmt(lhs)},{fmt(rhs)},{verdict}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_cover_dump(args) -> int:
    system = read_descriptor(args.system)
    cover = induced_cover(system.warp, system.delta,
                          (args.f_lo, args.f_hi), (args.t_lo, args.t_hi))
    cols = (cover.l, cover.k, cover.f_lo, cover.f_hi, cover.t_lo, cover.t_hi)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("l,k,f_lo,f_hi,t_lo,t_hi\n")
        for l, k, *edges in zip(*(c.tolist() for c in cols)):
            fh.write(f"{l},{k},{','.join(map(fmt, edges))}\n")
    print(f"elements = {len(cover)}")
    return _EXIT_OK


def _cmd_spectrogram(args) -> int:
    system = read_descriptor(args.system)
    coeffs = read_coefficients(args.coeffs, system)
    export_spectrogram(coeffs, args.out)
    return _EXIT_OK


# -- argument wiring -------------------------------------------------------


_REQUIRED = {"required": True}
_FLOAT0 = {"type": float, "default": 0.0}
_FLOAT_REQUIRED = {"type": float, "required": True}

#: each subcommand's help, handler (a name in this module, looked up when
#: called) and options (flag -> add_argument keywords)
_SUBCOMMANDS = {
    "design": ("build a system descriptor", "_cmd_design",
               {"--config": _REQUIRED, "--out": _REQUIRED}),
    "analyze": ("signal -> coefficient container", "_cmd_analyze",
                {"--system": _REQUIRED, "--signal": _REQUIRED,
                 "--out": _REQUIRED}),
    "synthesize": ("coefficients -> signal", "_cmd_synthesize", {
        "--system": _REQUIRED, "--coeffs": _REQUIRED, "--out": _REQUIRED,
        "--iterative": {"action": "store_true",
                        "help": "admit systems that are not painless"},
        "--verify": {"default": None,
                     "help": "reference signal; prints relative error"}}),
    "diagnose": ("full diagnostic report", "_cmd_diagnose", {
        "--system": _REQUIRED,
        # kept while the benchmark's commands pass it
        "--trials": {"type": int, "default": 2,
                     "help": "ignored: the frame bounds are exact"}}),
    "kernel": ("kernel-side numerics", "_cmd_kernel", {
        "--system": _REQUIRED,
        "--op": {"required": True, "choices": ["gramian", "amnorm", "osc",
                                               "oscnorm", "statphase"]},
        "--x": _FLOAT0, "--xi": _FLOAT0, "--y": _FLOAT0, "--omega": _FLOAT0,
        "--delta": {"type": float, "default": None},
        "--deltas": {"default": "0.5,0.25,0.125"},
        "--order": {"type": int, "default": 0},
        "--gamma-off": {"action": "store_true"},
        "--q-resolution": {"type": int, "default": 2},
        "--z-half": {"type": float, "default": 8.0},
        "--eta-half": {"type": float, "default": 8.0},
        "--resolution": {"type": int, "default": 32},
        "--out": {"default": None}}),
    "cover-dump": ("induced cover as CSV", "_cmd_cover_dump", {
        "--system": _REQUIRED, "--f-lo": _FLOAT_REQUIRED,
        "--f-hi": _FLOAT_REQUIRED, "--t-lo": _FLOAT_REQUIRED,
        "--t-hi": _FLOAT_REQUIRED, "--out": _REQUIRED}),
    "spectrogram": ("coefficient magnitudes as CSV", "_cmd_spectrogram",
                    {"--system": _REQUIRED, "--coeffs": _REQUIRED,
                     "--out": _REQUIRED}),
}


#: what reads as a negative number, not a flag: a minus sign before a
#: digit, or before a point and a digit
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Trial(argparse.ArgumentParser):
    """A parser that raises the error it would print and exit with."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser(name=None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given ``name``, its subparser alone
    as a :class:`_Trial`, less ``-h`` (which costs as much as two options
    to add).  Each reads a negative number in exponent form, ``-5e-05``,
    as a value, not a flag (Python 3.10-3.13 admit ``-1`` and ``-1.5``)."""
    if name:
        parser = _Trial(prog=f"warpft {name}", add_help=False)
        subparsers = {name: parser}
    else:
        parser = argparse.ArgumentParser(
            prog="warpft",
            description="Warped time-frequency transforms: design, "
                        "analysis, synthesis, diagnostics, kernel sweeps.")
        sub = parser.add_subparsers(dest="command", required=True)
        subparsers = {n: sub.add_parser(n, help=help_text)
                      for n, (help_text, _, _) in _SUBCOMMANDS.items()}
    for n, p in subparsers.items():
        _, fn, options = _SUBCOMMANDS[n]
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(command=n, fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the full parser reads what the subcommand's parser refuses or leaves
    args, extra = None, True
    if argv and argv[0] in _SUBCOMMANDS:
        with contextlib.suppress(argparse.ArgumentError):
            args, extra = _build_parser(argv[0]).parse_known_args(argv[1:])
    if extra:
        args = _build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
    except WarpFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    except Exception as exc:  # last resort: one line, never a traceback
        msg = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {msg}", file=sys.stderr)
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
