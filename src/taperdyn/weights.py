"""Taper weight functions on [0, 1] and normalized weight vectors.

A taper is any vectorised nonnegative function on [0, 1].  The exponential
bump vanishes with all derivatives at 0 and 1, which is what drives the fast
convergence of tapered time averages on regular dynamics.  Weight vectors
sample a taper at the points n/N, n = 0..N-1, and carry the raw values;
their normalization is derived on read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (ConfigError, DegenerateWeightError, DomainError, ShapeError, SizeError,
                     as_integer)

__all__ = [
    "WeightVector",
    "eval_bump",
    "uniform_taper",
    "make_weight_vector",
]


def _unit_interval(x) -> np.ndarray:
    """x as a float array, checked to lie in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    # comparisons with NaN are False, so NaN fails this check too
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError(f"taper argument outside [0, 1]: {x!r}")
    return arr


def eval_bump(x):
    """Unnormalized exponential bump exp(-1/(x(1-x))) on [0, 1].

    Returns exactly 0 at the endpoints and never produces NaN or overflow
    for arguments inside the domain: where x(1-x) is 0 or below 1e-300 the
    exponent is -inf or below -1e300, and exp gives exactly 0.  Accepts
    scalars or arrays.

    Raises:
        DomainError: if any argument lies outside [0, 1] or is NaN.
    """
    arr = _unit_interval(x)
    out = np.subtract(1.0, arr, out=np.empty_like(arr))
    out *= arr
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    return float(out) if arr.ndim == 0 else out


def uniform_taper(x):
    """Constant taper 1 on [0, 1]; reproduces plain arithmetic averaging.

    Raises:
        DomainError: if any argument lies outside [0, 1] or is NaN.
    """
    arr = _unit_interval(x)
    return 1.0 if arr.ndim == 0 else np.ones_like(arr)


def exponential_bump() -> Callable:
    """eval_bump, the default taper.  Kept for callers written against the
    factory form (the benchmark harness); pass eval_bump directly instead."""
    return eval_bump


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Taper weights sampled along a window of length N.

    raw[n] = w(n/N) for n = 0..N-1.  The vector owns a read-only copy of
    raw, checked once here, so the caller's array stays writeable and later
    writes to it do not reach the vector.  normalized, raw divided by its
    sum, is derived on its first read and kept, read-only; the fits read raw
    alone, so a vector of N samples holds 8 N bytes until then.  Instances
    are immutable, compare and hash by identity, and are safe to share
    across threads.

    Raises:
        ShapeError: raw is not 1-D.
        DegenerateWeightError: raw holds a negative or non-finite value, or
            its sum is zero or overflows.
    """

    raw: np.ndarray

    def __post_init__(self):
        raw = np.array(self.raw, dtype=float)
        if raw.ndim != 1:
            raise ShapeError(f"weights must be 1-D, got shape {raw.shape}")
        alpha = float(raw.sum())
        # NaN fails the min check; +-inf, and finite values whose sum
        # overflows, make the sum non-finite
        if raw.size and not (raw.min() >= 0.0 and math.isfinite(alpha)):
            raise DegenerateWeightError(f"weights must be finite and non-negative (sum {alpha})")
        if alpha <= 0.0:
            raise DegenerateWeightError(f"weights sum to {alpha}; cannot normalize")
        object.__setattr__(self, "raw", _read_only(raw))

    @cached_property
    def normalized(self) -> np.ndarray:
        """raw / raw.sum(), read-only; computed on the first read."""
        return _read_only(self.raw / self.raw.sum())

    def __len__(self) -> int:
        return self.raw.shape[0]


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    # a view of a read-only array cannot be made writeable again
    return values.view()


def check_weights(weights) -> None:
    """ConfigError naming the type of weights that are neither a WeightVector nor None."""
    if weights is not None and not isinstance(weights, WeightVector):
        raise ConfigError(f"weights must be a WeightVector or None, got {type(weights).__name__}")


def make_weight_vector(N: int, w: Callable) -> WeightVector:
    """Sample a taper w (vectorised over arrays) at n/N, n = 0..N-1, as a WeightVector.

    Raises:
        SizeError: N not an integer >= 2.
        DegenerateWeightError: if the taper returns the wrong shape, or
            WeightVector refuses the samples.
    """
    N = as_integer(N, "N", SizeError, 2)
    x = np.arange(N, dtype=float)
    x /= N
    raw = np.asarray(w(x), dtype=float)
    del x  # two N-sample arrays at most while the vector copies raw
    if raw.shape != (N,):
        raise DegenerateWeightError(
            f"weight profile returned shape {raw.shape}, expected ({N},)")
    return WeightVector(raw)
