"""Exception types shared across the package."""


class GKStatesError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GKStatesError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(GKStatesError, RuntimeError):
    """A series or quadrature failed to converge within its budget."""


class SpectrumRangeError(DomainError):
    """Quantum number outside the valid range of a (possibly truncated) spectrum."""


class DegenerateSpectrumError(DomainError):
    """A dimensionless level e_n vanished or decreased where it must not."""


class TruncatedSpectrumError(DomainError):
    """Coherent-state construction requested on a finite (truncated) spectrum."""


class ModelMismatchError(GKStatesError, ValueError):
    """Two states built on different spectrum models were combined."""


class GridError(GKStatesError, ValueError):
    """A sampling grid is unusable (margin too small, boundary blow-up...)."""


class ResolutionError(GridError):
    """A time or space grid is too coarse for the requested analysis."""
