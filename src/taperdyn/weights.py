"""Taper weight functions on [0, 1] and normalized weight vectors.

A taper is any vectorised nonnegative function on [0, 1].  The exponential
bump vanishes with all derivatives at 0 and 1, which is what drives the fast
convergence of tapered time averages on regular dynamics.  Weight vectors
sample a taper at the points n/N, n = 0..N-1, and carry both the raw values
and their normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateWeightError, DomainError, SizeError

__all__ = [
    "WeightVector",
    "eval_bump",
    "exponential_bump",
    "uniform_weight",
    "make_weight_vector",
]


def eval_bump(x):
    """Unnormalized exponential bump exp(-1/(x(1-x))) on [0, 1].

    Returns exactly 0 at the endpoints and never produces NaN or overflow
    for arguments inside the domain: where x(1-x) is 0 or below 1e-300 the
    exponent is -inf or below -1e300, and exp gives exactly 0.  Accepts
    scalars or arrays.

    Raises:
        DomainError: if any argument lies outside [0, 1] or is NaN.
    """
    arr = np.asarray(x, dtype=float)
    # comparisons with NaN are False, so NaN fails this check too
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError(f"bump argument outside [0, 1]: {x!r}")
    out = np.subtract(1.0, arr, out=np.empty_like(arr))
    out *= arr
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _uniform_profile(x):
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
        raise DomainError(f"weight argument outside [0, 1]: {x!r}")
    out = np.ones_like(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def exponential_bump() -> Callable:
    """The canonical smooth taper: all derivatives vanish at 0 and 1."""
    return eval_bump


def uniform_weight() -> Callable:
    """Constant profile; reproduces plain arithmetic averaging."""
    return _uniform_profile


@dataclass(frozen=True)
class WeightVector:
    """Taper weights sampled along a window of length N.

    raw[n] = w(n/N) for n = 0..N-1; normalized is raw divided by its sum.
    Instances are immutable and safe to share across threads.
    """

    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        # read-only views: the caller's arrays are neither copied nor frozen
        for name in ("raw", "normalized"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.raw.shape[0]


def make_weight_vector(N: int, w: Callable) -> WeightVector:
    """Sample a taper w (vectorised over arrays) at n/N, n = 0..N-1, and normalize.

    Raises:
        SizeError: if N < 2.
        DegenerateWeightError: if the sampled weights are negative or
            non-finite, or their sum is zero or overflows.
    """
    if N < 2:
        raise SizeError(f"weight vector needs N >= 2, got {N}")
    x = np.arange(N, dtype=float)
    x /= N
    raw = np.asarray(w(x), dtype=float)
    if raw.shape != (N,):
        raise DegenerateWeightError(
            f"weight profile returned shape {raw.shape}, expected ({N},)")
    alpha = float(raw.sum())
    # NaN fails the min check; +-inf, and finite values whose sum
    # overflows, make the sum non-finite
    if not (raw.min() >= 0.0 and math.isfinite(alpha)):
        raise DegenerateWeightError(
            f"weight profile produced negative or non-finite values (sum {alpha})")
    if alpha <= 0.0:
        raise DegenerateWeightError(f"weights sum to {alpha}; cannot normalize")
    return WeightVector(raw=raw, normalized=raw / alpha)
