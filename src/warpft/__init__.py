"""Warped time-frequency analysis toolkit.

Atoms are built by translating a prototype window along a warped
frequency axis; the package provides the resulting invertible
transforms, the induced phase-space covers with frame-bound
diagnostics, and the kernel-algebra machinery that controls them.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateAtomError,
    DivergenceError,
    DomainError,
    FormatError,
    IllConditionedError,
    NonConvergenceError,
    NotPainlessError,
    ShapeError,
    UnsupportedOrderError,
    WarpFTError,
)
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate, integrate_decaying
from .warping import (
    AxiomReport,
    WarpingFunction,
    WeightSpec,
    alpha_like_warp,
    check_moderateness,
    check_quasi_submultiplicative,
    check_warping_axioms,
    constant_weight,
    custom_warp,
    default_grid,
    erb_warp,
    exponential_weight,
    induced_v1,
    linear_warp,
    log_warp,
    polynomial_weight,
    power_law_warp,
    warp_from_params,
    warped_weight,
)
from .prototype import (
    Prototype,
    ThetaConditionReport,
    admissibility_inner_product,
    bump_prototype,
    check_theta_conditions,
    gaussian_prototype,
    hann_prototype,
    l2_norm,
    normalized,
    prototype_from_params,
    weighted_l2_norm,
)
from .system import (
    Atom,
    Channel,
    Coefficients,
    PainlessReport,
    SignalGrid,
    WarpedSystem,
    build_atom,
    build_system,
    design_channels,
    painless_check,
)
from .transform import (
    adjoint,
    analyze,
    apply_frame_operator,
    coefficient_deviation,
    export_spectrogram,
    moyal_residual,
    roundtrip_residual,
    stft_reference,
    synthesize,
)
from .discretization import (
    Cover,
    CoverElement,
    CoverReport,
    QSetBounds,
    WeightBoundReport,
    check_cover_admissible,
    elements_containing,
    frame_bounds,
    frame_bounds_painless,
    frame_bounds_power_iteration,
    induced_cover,
    q_set_bounds,
    weight_bound_C,
)
from .kernels import (
    KernelEvalSpec,
    KernelNormReport,
    OscNormReport,
    StationaryPhaseReport,
    gramian,
    kernel_norm_I,
    osc_norm_estimate,
    oscillation,
    stationary_phase_check,
    weight_m,
)
from .io import (
    read_coefficients,
    read_descriptor,
    read_signal,
    system_from_config,
    system_to_config,
    write_coefficients,
    write_descriptor,
    write_signal,
)

__version__ = "0.1.0"
