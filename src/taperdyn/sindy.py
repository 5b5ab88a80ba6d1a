"""Sparse model identification by sequentially thresholded least squares.

Fits x_{n+1} = Xi psi(x_n) (discrete mode) or x' = Xi psi(x) (continuous
mode, with externally supplied derivative estimates), pruning coefficients
below a hard threshold and refitting on the surviving columns until the
active set stabilizes.  Pruning is per entry and cumulative within a run,
which guarantees termination in at most L passes per output row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .edmd import monomial_dictionary
from .errors import ConfigError, DomainError, ShapeError
from .systems import RngStream, harmonic_series
from .weights import WeightFunction, WeightVector, exponential_bump, make_weight_vector

__all__ = [
    "TargetData",
    "SindyModel",
    "SindySweepRow",
    "stlsq",
    "harmonic_oscillator_exact",
    "sindy_error_sweep",
]


@dataclass(frozen=True)
class TargetData:
    """Regression targets: next states (discrete) or derivative estimates
    (continuous), one column per sample."""

    values: np.ndarray
    mode: str = "continuous"

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values))
        object.__setattr__(self, "values", values)
        if self.mode not in ("discrete", "continuous"):
            raise ConfigError(f"mode must be 'discrete' or 'continuous', got {self.mode!r}")
        if not np.all(np.isfinite(values)):
            raise DomainError("targets contain non-finite values")


@dataclass(frozen=True)
class SindyModel:
    """Thresholded-least-squares coefficient matrix with run diagnostics.

    coefficients is d x L; active_mask marks surviving entries; a converged
    run is a fixed point of the prune-refit loop, so every active entry has
    magnitude >= eta.  Rows whose columns were all pruned are reported in
    zeroed_rows rather than raised.
    """

    coefficients: np.ndarray
    active_mask: np.ndarray
    eta: float
    iterations: int
    converged: bool
    mode: str
    dictionary_label: str = ""
    zeroed_rows: tuple = field(default=())


def stlsq(
    Psi: np.ndarray,
    targets: TargetData | np.ndarray,
    eta: float,
    weights: WeightVector | None = None,
    max_iter: int | None = None,
    rel_tol: float = linalg.DEFAULT_REL_TOL,
    dictionary_label: str = "",
) -> SindyModel:
    """Sequentially thresholded (optionally taper-weighted) least squares.

    Starts from the full weighted least-squares solution of
    ||W^(1/2)(targets^T - Psi Xi^T)||_F, then alternately zeroes entries with
    |xi| < eta and refits each output row restricted to its surviving
    columns, until the active mask stops changing or max_iter passes.

    Args:
        Psi: N x L dictionary matrix (rows are samples).
        targets: d x N targets, or a TargetData wrapper.
        eta: hard threshold; eta = 0 reduces to one unthresholded solve.
        weights: optional taper over the N samples.
        max_iter: defaults to L + 1, which suffices under cumulative pruning.

    Raises:
        ShapeError: sample-count mismatch between Psi, targets, or weights.
        DomainError: Psi or the targets hold NaN or infinity.
    """
    Psi = np.asarray(Psi)
    if isinstance(targets, TargetData):
        mode = targets.mode
        T = targets.values
    else:
        mode = "continuous"
        T = np.atleast_2d(np.asarray(targets))
    if eta < 0:
        raise ConfigError(f"eta must be >= 0, got {eta}")
    N, L = Psi.shape
    d = T.shape[0]
    if T.shape[1] != N:
        raise ShapeError(f"targets have {T.shape[1]} samples, Psi has {N} rows")
    if max_iter is None:
        max_iter = L + 1
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")

    dtype = np.result_type(Psi.dtype, T.dtype, float)
    Xi = np.zeros((d, L), dtype=dtype)
    # initial unrestricted solve: Xi = T pinv(Psi^T) in the weighted norm
    Xi[:] = linalg.pinv_lstsq(Psi.T, T, rel_tol=rel_tol, fit="left",
                              weights=weights).matrix
    active = np.ones((d, L), dtype=bool)
    if eta == 0.0:
        return SindyModel(Xi, active, eta, 1, True, mode, dictionary_label, ())

    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        small = active & (np.abs(Xi) < eta)
        if not small.any():
            converged = True
            break
        active &= ~small
        Xi = np.zeros((d, L), dtype=dtype)
        for j in range(d):
            cols = np.flatnonzero(active[j])
            if cols.size == 0:
                continue
            sol = linalg.pinv_lstsq(Psi[:, cols].T, T[j:j + 1], rel_tol=rel_tol,
                                    fit="left", weights=weights)
            Xi[j, cols] = sol.matrix[0]
    else:
        converged = not (active & (np.abs(Xi) < eta)).any()
    zeroed = tuple(int(j) for j in range(d) if not active[j].any())
    return SindyModel(Xi, active, eta, iterations, converged, mode,
                      dictionary_label, zeroed)


def harmonic_oscillator_exact(L: int = 6) -> np.ndarray:
    """Exact monomial coefficients of x'' = -x: [0, -1, 0, ..., 0]."""
    xi = np.zeros((1, L))
    xi[0, 1] = -1.0
    return xi


@dataclass(frozen=True)
class SindySweepRow:
    """Coefficient-recovery error of one method at one window length."""

    N: int
    method: str
    eta: float
    coeff_error: float


def sindy_error_sweep(
    N_values: Sequence[int],
    etas: Sequence[float],
    amplitude: float = 2.0,
    phase: float = 0.7,
    dt: float = 0.01,
    noise_sigma: float = 0.0,
    rng: RngStream | None = None,
    degree: int = 5,
    w: WeightFunction | None = None,
) -> list[SindySweepRow]:
    """Coefficient errors of four identification methods on the harmonic surrogate.

    For each window length the harmonic series (optionally noisy) is fitted
    with plain least squares (LS), taper-weighted least squares (wtLS), and
    the thresholded variants (SINDy, wtSINDy) at each eta; the reported error
    is the Frobenius distance to the exact coefficients [0, -1, 0, ...].
    Thresholded rows carry their eta; the LS rows carry eta = 0.
    """
    if w is None:
        w = exponential_bump()
    dictionary = monomial_dictionary(degree, dim=1)
    exact = harmonic_oscillator_exact(dictionary.size)
    rows: list[SindySweepRow] = []
    for N in sorted(int(n) for n in N_values):
        data = harmonic_series(amplitude, phase, dt, N,
                               noise_sigma=noise_sigma, rng=rng)
        Psi = dictionary(data.interior_positions[:, None]).real
        targets = TargetData(data.second_derivative[None, :], mode="continuous")
        wv = make_weight_vector(N, w)
        for method, weight_vec, eta_list in (
            ("LS", None, [0.0]),
            ("wtLS", wv, [0.0]),
            ("SINDy", None, etas),
            ("wtSINDy", wv, etas),
        ):
            for eta in eta_list:
                model = stlsq(Psi, targets, eta=eta, weights=weight_vec,
                              dictionary_label=dictionary.label)
                err = float(np.linalg.norm(model.coefficients.real - exact))
                rows.append(SindySweepRow(N=N, method=method, eta=float(eta),
                                          coeff_error=err))
    return rows
