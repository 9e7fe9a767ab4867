"""Exception types shared across the package, and the finite-number
check that library entry points run on the numbers they take.

Each class maps to one failure category of the command-line tool; the
numeric exit codes live in :mod:`warpft.cli`.
"""

import math


class WarpFTError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(WarpFTError):
    """Invalid configuration value or an unsatisfiable design request."""


def check_finite(positive: bool = False, **values) -> None:
    """Raise :class:`ConfigError` unless every value is a finite number,
    and a positive one when ``positive``."""
    for name, value in values.items():
        if not (math.isfinite(value) and (value > 0 or not positive)):
            kind = "finite positive" if positive else "finite"
            raise ConfigError(f"{name} must be a {kind} number, got {value}")


class DomainError(ConfigError):
    """Argument outside the warping function's domain."""


class UnsupportedOrderError(ConfigError):
    """Derivative order beyond what a symbolic formula provides."""


class ShapeError(WarpFTError):
    """Array length or channel layout does not match the system."""


class FormatError(WarpFTError):
    """Malformed container file (bad magic, truncated payload, bad CSV)."""


class CapabilityError(WarpFTError):
    """Requested operation is not available for this system."""


class NotPainlessError(CapabilityError):
    """Diagonal synthesis requested for a system that is not painless."""


class IllConditionedError(CapabilityError):
    """Frame diagonal too close to singular for stable inversion."""


class DegenerateAtomError(ConfigError):
    """Atom truncation left no retained support."""


class DivergenceError(WarpFTError):
    """Integral failed the truncation-growth test (no finite value)."""


class NonConvergenceError(WarpFTError):
    """Iteration budget exhausted before reaching tolerance."""
