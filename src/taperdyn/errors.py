"""Exception hierarchy shared by all taperdyn modules."""


class TaperdynError(Exception):
    """Base class for all taperdyn errors."""


class DomainError(TaperdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(TaperdynError, ValueError):
    """A sequence or window is too short (or too long) for the operation."""


class ShapeError(TaperdynError, ValueError):
    """Array dimensions are incompatible."""


class DegenerateWeightError(DomainError):
    """Weights are negative or non-finite, or sum to zero, so they cannot be
    normalized; a DomainError of the weights."""


class ConfigError(TaperdynError, ValueError):
    """Invalid configuration, parameter value, or mode selection."""


class ConditioningError(TaperdynError, ArithmeticError):
    """A matrix is too ill-conditioned (or indefinite) for the requested factorization."""


class NumericalError(TaperdynError, ArithmeticError):
    """An iterative numerical routine failed to converge."""


class IngestError(TaperdynError, ValueError):
    """A data file failed to parse or validate; message carries location detail."""
