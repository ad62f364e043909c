"""Exact harmonic/beta-family computations with verification tooling.

The package exports every name in the ``__all__`` of harmonic_core,
beta_engine, identity_suite, series_lab and float_oracle: each list is the
one declaration of what its module makes public.
"""

from . import beta_engine, float_oracle, harmonic_core, identity_suite, series_lab
from .harmonic_core import *
from .beta_engine import *
from .identity_suite import *
from .series_lab import *
from .float_oracle import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *harmonic_core.__all__,
    *beta_engine.__all__,
    *identity_suite.__all__,
    *series_lab.__all__,
    *float_oracle.__all__,
]
