"""Fit renewable availability profiles to a target capacity factor.

The fit raises every per-unit value to a common exponent chosen so that the
profile mean matches the requested capacity factor, which shifts mid-range
values while leaving zeros and ones untouched.
"""

from .fitcore import (
    EmptyProfileError,
    FitOptions,
    FitOutcome,
    FitStatus,
    MaxIterationsExceededError,
    NonFiniteValueError,
    Profile,
    ProfileFitError,
    ProfileStats,
    ProfileValidationError,
    TargetOutOfRangeError,
    ValueOutOfRangeError,
    apply_exponent,
    bisect_root,
    classify_feasibility,
    find_search_interval,
    find_solution,
    mean_power,
    mean_power_derivative,
    profile_stats,
    validate_profile,
)
from .profile_io import (
    CsvLayout,
    CsvParseError,
    FitReport,
    LengthMismatchError,
    MissingColumnError,
    read_profile,
    write_plot_data,
    write_profile,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "CsvLayout",
    "CsvParseError",
    "EmptyProfileError",
    "FitOptions",
    "FitOutcome",
    "FitReport",
    "FitStatus",
    "LengthMismatchError",
    "MaxIterationsExceededError",
    "MissingColumnError",
    "NonFiniteValueError",
    "Profile",
    "ProfileFitError",
    "ProfileStats",
    "ProfileValidationError",
    "TargetOutOfRangeError",
    "ValueOutOfRangeError",
    "apply_exponent",
    "bisect_root",
    "classify_feasibility",
    "find_search_interval",
    "find_solution",
    "mean_power",
    "mean_power_derivative",
    "profile_stats",
    "read_profile",
    "validate_profile",
    "write_plot_data",
    "write_profile",
    "write_report",
    "__version__",
]
