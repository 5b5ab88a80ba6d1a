"""Uniform and tapered time averages of observables along a trajectory.

All operations here are pure functions of their inputs; distinct window
lengths in a sweep are independent and could run concurrently without
changing the (deterministic) output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError, SizeError, as_windows
from .weights import WeightVector, check_weights, eval_bump, make_weight_vector

__all__ = ["SweepRow", "birkhoff_average", "convergence_sweep"]


@dataclass(frozen=True)
class SweepRow:
    """One row of a convergence table: window length and both absolute errors."""

    N: int
    err_unweighted: float
    err_weighted: float


def birkhoff_average(series, weights: WeightVector | None = None):
    """Average a series of observations with optional taper weights.

    Returns a float (complex for a complex series) for a scalar series and
    an array for a vector series.  With weights=None this is the plain
    arithmetic mean.  Summation is pairwise (numpy), so accumulation noise
    stays near machine precision even for windows of 10^6 samples.

    Args:
        series: sequence of scalars or vectors, one observation per step.
        weights: a WeightVector whose length matches the series, or None.

    Raises:
        ConfigError: weights neither a WeightVector nor None.
        SizeError: empty series.
        ShapeError: series/weight length mismatch.
        DomainError: the average is not finite.
    """
    check_weights(weights)
    arr = np.asarray(series)
    if arr.shape[0] == 0:
        raise SizeError("cannot average an empty series")
    if weights is None:
        return _as_scalar(arr.mean(axis=0))
    if len(weights) != arr.shape[0]:
        raise ShapeError(
            f"series length {arr.shape[0]} != weight length {len(weights)}")
    wn = weights.normalized
    if arr.ndim > 1:
        value = np.tensordot(wn, arr, axes=(0, 0))
    else:
        value = np.sum(wn * arr)
    return _as_scalar(value)


def _as_scalar(value):
    if not np.all(np.isfinite(np.asarray(value))):
        raise DomainError("average is not finite; input contains NaN/Inf or overflowed")
    if np.ndim(value) == 0:
        return complex(value) if np.iscomplexobj(value) else float(value)
    return value


def convergence_sweep(
    orbit,
    observable: Callable,
    N_values: Sequence[int],
    benchmark_N: int,
    w: Callable = eval_bump,
) -> list[SweepRow]:
    """Absolute errors of plain and tapered averages against a long benchmark.

    The benchmark is the tapered average over benchmark_N samples.  For each
    window length N the table reports |B_N - benchmark| and |WB_N - benchmark|,
    sorted by N.  Vector-valued observables are compared in the 2-norm.

    Args:
        orbit: a Trajectory (or (N, d) array) of at least benchmark_N states.
        observable: vectorized map from an (N, d) state block to N values.
        N_values: window lengths, each <= benchmark_N.
        benchmark_N: length of the reference window.
        w: taper profile; defaults to the exponential bump.

    Raises:
        SizeError: no window lengths, a window or benchmark_N that is not an
            integer >= 2, an orbit shorter than benchmark_N, or a window above it.
    """
    states = np.asarray(getattr(orbit, "states", orbit))
    windows = as_windows(N_values, 2, benchmark_N)
    if benchmark_N > states.shape[0]:
        raise SizeError(
            f"benchmark_N={benchmark_N} exceeds orbit length {states.shape[0]}")
    series = np.asarray(observable(states[:benchmark_N]))
    benchmark = birkhoff_average(series, make_weight_vector(benchmark_N, w))
    rows = []
    for N in windows:
        window = series[:N]
        bu = birkhoff_average(window)
        bw = birkhoff_average(window, make_weight_vector(N, w))
        rows.append(SweepRow(N, _abs_err(bu, benchmark), _abs_err(bw, benchmark)))
    return rows


def _abs_err(value, reference) -> float:
    diff = np.asarray(value) - np.asarray(reference)
    if diff.ndim == 0:
        return float(abs(diff))
    return float(np.linalg.norm(diff))
