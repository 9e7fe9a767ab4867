"""The settable surface of the library's public entry points.

Every name :mod:`warpft` exports and the parameters of every exported
function and class are pinned here, each in one place, so a new option
or a new name anywhere needs one edit to this file.  The tests of single
entry points below pin the parameters that have a caller which sets
them.
"""

import dataclasses
import inspect
import types

import warpft
from warpft import (Coefficients, KernelEvalSpec, build_system,
                    check_cover_admissible, frame_bounds, induced_cover,
                    synthesize, weight_bound_C)


def _parameters(fn):
    return tuple(inspect.signature(fn).parameters)


def _fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


#: the exported exception classes, which take a message only
_ERRORS = (
    "CapabilityError", "ConfigError", "DegenerateAtomError",
    "DivergenceError", "DomainError", "FormatError", "IllConditionedError",
    "NonConvergenceError", "NotPainlessError", "ShapeError",
    "UnsupportedOrderError", "WarpFTError",
)

#: the exported names whose parameters the tests below pin
_PINNED_BELOW = (
    "Coefficients", "KernelEvalSpec", "build_system",
    "check_cover_admissible", "frame_bounds", "induced_cover", "synthesize",
    "weight_bound_C",
)

#: every other exported name and its parameters
_PARAMETERS = {
    "Atom": ("values", "support", "center_hz"),
    "Channel": ("index", "center_hz", "band_lo_hz", "band_hi_hz",
                "bandwidth_hz", "tau_seconds", "hop_samples", "frames"),
    "ChannelTable": ("index", "center_hz", "band_lo_hz", "band_hi_hz",
                     "bandwidth_hz", "tau_seconds", "hop_samples", "frames"),
    "Cover": ("warp", "delta", "l", "k", "f_lo", "f_hi", "t_lo", "t_hi",
              "freq_window", "time_window"),
    "CoverElement": ("l", "k", "f_lo", "f_hi", "t_lo", "t_hi"),
    "CoverReport": ("max_neighbors", "moderateness_constant", "min_measure",
                    "covers_window", "max_measure_error"),
    "KernelNormReport": ("value", "tail_estimate", "inconclusive",
                         "z_half_width", "eta_half_width", "resolution"),
    "OscNormReport": ("value", "tail_estimate", "inconclusive", "gamma_on",
                      "delta"),
    "PainlessReport": ("painless", "support_hz", "limit_hz", "alias_free",
                       "violations"),
    "Prototype": ("kind", "sigma", "radius", "scale"),
    "SignalGrid": ("length", "sample_rate"),
    "StationaryPhaseReport": ("order", "eta", "lhs", "rhs_decay", "flat_bound",
                              "c_n", "big_c", "decay_ok", "flat_ok", "slope"),
    "WarpedSystem": ("warp", "theta", "delta", "grid", "channels", "bank",
                     "time_scale", "truncation", "normalize"),
    "WarpingFunction": ("kind", "c", "d", "l", "c1", "c2", "fn", "fn_inverse",
                        "fn_derivative", "custom_domain"),
    "WeightBoundReport": ("sampled", "analytic"),
    "WeightSpec": ("kind", "p", "a", "base", "warp"),
    "adjoint": ("coeffs", "system"),
    "admissibility_inner_product": ("theta1", "theta2"),
    "alpha_like_warp": ("l",),
    "analyze": ("f", "system"),
    "apply_frame_operator": ("f", "system"),
    "build_atom": ("warp", "theta", "x", "grid", "truncation"),
    "bump_prototype": ("radius",),
    "check_moderateness": ("w_target", "v", "grid"),
    "check_quasi_submultiplicative": ("warp", "grid"),
    "coefficient_deviation": ("a", "b"),
    "constant_weight": (),
    "custom_warp": ("fn", "fn_inverse", "fn_derivative", "domain"),
    "design_channels": ("warp", "delta", "grid", "time_scale"),
    "elements_containing": ("warp", "delta", "y", "omega"),
    "erb_warp": ("c1", "c2"),
    "exponential_weight": ("a",),
    "export_spectrogram": ("coeffs", "path"),
    "frame_bounds_painless": ("system",),
    "frame_bounds_power_iteration": ("system",),
    "gaussian_prototype": ("sigma",),
    "gramian": ("warp", "theta", "x", "xi", "y", "omega"),
    "hann_prototype": ("radius",),
    "induced_v1": ("m1", "warp"),
    "integrate": ("fn", "a", "b"),
    "integrate_decaying": ("fn", "initial_half_width"),
    "kernel_norm_I": ("warp", "theta", "spec", "x", "xi"),
    "l2_norm": ("theta",),
    "linear_warp": ("c",),
    "log_warp": (),
    "moyal_residual": ("f1", "f2", "system"),
    "normalized": ("theta",),
    "osc_norm_estimate": ("warp", "theta", "delta", "spec", "gamma_on",
                          "q_resolution", "box_resolution"),
    "oscillation": ("warp", "theta", "delta", "gamma_on", "x", "xi", "y",
                    "omega", "q_resolution"),
    "painless_check": ("system",),
    "polynomial_weight": ("p",),
    "power_law_warp": ("c", "d", "l"),
    "prototype_from_params": ("kind", "params"),
    "read_coefficients": ("path", "system"),
    "read_descriptor": ("path",),
    "read_signal": ("path",),
    "roundtrip_residual": ("f", "system"),
    "stationary_phase_check": ("warp", "theta", "n", "x", "eta_grid"),
    "stft_reference": ("f", "system"),
    "system_from_config": ("cfg",),
    "system_to_config": ("system",),
    "warp_from_params": ("kind", "params"),
    "warped_weight": ("base", "warp"),
    "weight_m": ("m1_spec", "m2_spec", "x", "y", "xi", "omega"),
    "weighted_l2_norm": ("theta", "weight"),
    "write_coefficients": ("path", "coeffs"),
    "write_descriptor": ("path", "system"),
    "write_signal": ("path", "signal"),
}


def _exported():
    return {name for name in dir(warpft) if not name.startswith("_")
            and not isinstance(getattr(warpft, name), types.ModuleType)}


def test_exported_names():
    assert _exported() == set(_ERRORS) | set(_PINNED_BELOW) | set(_PARAMETERS)
    assert all(issubclass(getattr(warpft, name), warpft.WarpFTError)
               for name in _ERRORS)


def test_exported_parameters():
    got = {name: _parameters(getattr(warpft, name)) for name in _PARAMETERS}
    assert got == _PARAMETERS


def test_build_system_parameters():
    assert _parameters(build_system) == ("warp", "theta", "delta", "grid",
                                         "time_scale", "normalize",
                                         "truncation")


def test_synthesize_parameters():
    assert _parameters(synthesize) == ("coeffs", "system", "iterative")


def test_power_iteration_parameters():
    assert _parameters(frame_bounds) == ("system",)


def test_cover_parameters():
    assert _parameters(induced_cover) == ("warp", "delta", "freq_window",
                                          "time_window")
    assert _parameters(check_cover_admissible) == ("cover",)
    assert _parameters(weight_bound_C) == ("cover", "m1_spec", "m2_spec")


def test_kernel_eval_spec_fields():
    assert _fields(KernelEvalSpec) == ("z_half_width", "eta_half_width",
                                       "resolution", "m1", "m2")


def test_coefficients_arguments():
    assert _parameters(Coefficients.__init__) == (
        "self", "values", "frames", "centers_hz", "hop_seconds", "length")
