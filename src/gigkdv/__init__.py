"""GIG-family laws, discrete-KdV involutions, and detailed-balance checks."""

__version__ = "0.1.0"

from . import balance, dist, lattice, maps, matrix, specfun  # noqa: F401
from .errors import DomainError, IllConditionedError, NotSpdError  # noqa: F401
