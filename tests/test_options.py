"""The settable surface of the library's tunable entry points.

Every parameter and config field pinned here has a caller that sets it.
A new option needs such a caller and an edit to this file.
"""

import dataclasses
import inspect

from warpft import (Coefficients, KernelEvalSpec, QuadratureSpec,
                    build_system, check_cover_admissible, frame_bounds,
                    induced_cover, synthesize, weight_bound_C)


def _parameters(fn):
    return tuple(inspect.signature(fn).parameters)


def _fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


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


def test_quadrature_spec_fields():
    assert _fields(QuadratureSpec) == ("panel_tol", "max_depth")


def test_coefficients_arguments():
    assert _parameters(Coefficients.__init__) == (
        "self", "data", "centers_hz", "hop_seconds", "length")
