"""Fit renewable availability profiles to a target capacity factor.

The fit raises every per-unit value to a common exponent chosen so that the
profile mean matches the requested capacity factor, which shifts mid-range
values while leaving zeros and ones untouched.
"""

from . import fitcore, profile_io
from .fitcore import *  # noqa: F403  each module declares its public names
from .profile_io import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*fitcore.__all__, *profile_io.__all__, "__version__"]
