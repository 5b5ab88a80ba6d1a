"""Taper weight functions on [0, 1] and normalized weight vectors.

The exponential bump vanishes with all derivatives at 0 and 1, which is what
drives the fast convergence of tapered time averages on regular dynamics.
Weight vectors sample a profile at the points n/N, n = 0..N-1, and carry both
the raw values and their normalization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateWeightError, DomainError, SizeError

__all__ = [
    "WeightFunction",
    "WeightVector",
    "eval_bump",
    "exponential_bump",
    "uniform_weight",
    "custom_taper",
    "make_weight_vector",
    "uniform_weight_vector",
]

# Below this, 1/(x(1-x)) overflows past the double range; the bump is
# indistinguishable from zero there anyway.
_BUMP_GUARD = 1e-300


def eval_bump(x):
    """Unnormalized exponential bump exp(-1/(x(1-x))) on [0, 1].

    Returns exactly 0 at the endpoints and never produces NaN or overflow
    for arguments inside the domain.  Accepts scalars or arrays.

    Raises:
        DomainError: if any argument lies outside [0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"bump argument outside [0, 1]: {x!r}")
    prod = arr * (1.0 - arr)
    out = np.zeros_like(arr)
    inside = prod > _BUMP_GUARD
    out[inside] = np.exp(-1.0 / prod[inside])
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class WeightFunction:
    """A taper profile on [0, 1].

    kind is one of "exponential_bump", "uniform", or "custom"; custom
    profiles carry their own callable, which must be vectorized over
    numpy arrays.
    """

    kind: str
    func: Callable = field(compare=False)

    def __call__(self, x):
        return self.func(x)


def _uniform_profile(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"weight argument outside [0, 1]: {x!r}")
    out = np.ones_like(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def exponential_bump() -> WeightFunction:
    """The canonical smooth taper: all derivatives vanish at 0 and 1."""
    return WeightFunction("exponential_bump", eval_bump)


def uniform_weight() -> WeightFunction:
    """Constant profile; reproduces plain arithmetic averaging."""
    return WeightFunction("uniform", _uniform_profile)


def custom_taper(func: Callable, name: str = "custom") -> WeightFunction:
    """Wrap a user-supplied nonnegative profile on [0, 1]."""
    return WeightFunction(name if name != "custom" else "custom", func)


@dataclass(frozen=True)
class WeightVector:
    """Taper weights sampled along a window of length N.

    raw[n] = w(n/N) for n = 0..N-1; alpha is their sum; normalized sums
    to one.  Instances are immutable and safe to share across threads.
    """

    raw: np.ndarray
    alpha: float
    normalized: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        # read-only views: the caller's arrays are neither copied nor frozen
        for name in ("raw", "normalized"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.raw.shape[0]


def make_weight_vector(N: int, w: WeightFunction) -> WeightVector:
    """Sample a weight profile at the points n/N, n = 0..N-1, and normalize.

    Raises:
        SizeError: if N < 2.
        DegenerateWeightError: if the sampled weights sum to zero.
    """
    if N < 2:
        raise SizeError(f"weight vector needs N >= 2, got {N}")
    raw = np.asarray(w(np.arange(N) / N), dtype=float)
    if raw.shape != (N,):
        raise DegenerateWeightError(
            f"weight profile returned shape {raw.shape}, expected ({N},)")
    if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
        raise DegenerateWeightError("weight profile produced negative or non-finite values")
    alpha = float(raw.sum())
    if alpha <= 0.0:
        raise DegenerateWeightError(f"weights sum to {alpha}; cannot normalize")
    return WeightVector(raw=raw, alpha=alpha, normalized=raw / alpha, kind=w.kind)


def uniform_weight_vector(N: int) -> WeightVector:
    """Weight vector of N equal weights (the arithmetic-mean weights)."""
    return make_weight_vector(N, uniform_weight())
