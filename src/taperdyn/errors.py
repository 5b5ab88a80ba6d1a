"""Exception hierarchy shared by all taperdyn modules, and the count checks
that raise it."""

import operator

import numpy as np


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


def as_integer(value, name: str, error: type[Exception], minimum: int | None = None) -> int:
    """value as an int of at least minimum; a bool, a value without
    __index__, or one below minimum raises error."""
    try:
        checked = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        checked = None
    if checked is not None and (minimum is None or checked >= minimum):
        return checked
    bound = "" if minimum is None else f" >= {minimum}"
    raise error(f"{name} must be an integer{bound}, got {value!r}")


def as_windows(N_values, minimum: int, benchmark_N=None) -> list[int]:
    """A sweep's window lengths N_values, sorted.  SizeError unless there is
    at least one, and each window, and benchmark_N when given, is an integer
    of at least minimum, with no window above benchmark_N."""
    windows = sorted(as_integer(N, "window N", SizeError, minimum) for N in N_values)
    if not windows:
        raise SizeError("a sweep needs at least one window length")
    if benchmark_N is not None and windows[-1] > as_integer(
            benchmark_N, "benchmark_N", SizeError, minimum):
        raise SizeError(f"window N={windows[-1]} exceeds benchmark_N={benchmark_N}")
    return windows
