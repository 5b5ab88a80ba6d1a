"""Sparse model identification by sequentially thresholded least squares.

Fits x_{n+1} = Xi psi(x_n) (discrete mode) or x' = Xi psi(x) (continuous
mode, with externally supplied derivative estimates), pruning coefficients
below a hard threshold and refitting on the surviving columns until the
active set stabilizes.  Pruning is per entry and cumulative within a run,
which guarantees termination in at most L passes per output row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .edmd import monomial_dictionary
from .errors import ConfigError, ShapeError, as_integer, as_real, as_windows
from .systems import RngStream, harmonic_series
from .weights import WeightVector, eval_bump, make_weight_vector

__all__ = [
    "SindyModel",
    "SindySweepRow",
    "stlsq",
    "harmonic_oscillator_exact",
    "sindy_error_sweep",
]


@dataclass(frozen=True)
class SindyModel:
    """Thresholded-least-squares coefficient matrix with run diagnostics.

    coefficients is d x L; active_mask marks surviving entries; a converged
    run is a fixed point of the prune-refit loop, so every active entry has
    magnitude >= the threshold eta given to stlsq.  Rows whose columns were
    all pruned are reported in zeroed_rows rather than raised.
    """

    coefficients: np.ndarray
    active_mask: np.ndarray
    iterations: int
    converged: bool
    zeroed_rows: tuple = field(default=())


def stlsq(
    Psi: np.ndarray,
    targets: np.ndarray,
    eta: float,
    weights: WeightVector | None = None,
    max_iter: int | None = None,
) -> SindyModel:
    """Sequentially thresholded (optionally taper-weighted) least squares.

    Starts from the full weighted least-squares solution of
    ||W^(1/2)(targets - Psi Xi^T)||_F, then alternately zeroes entries with
    |xi| < eta and refits each output row restricted to its surviving
    columns, until the active mask stops changing or max_iter passes.

    Args:
        Psi: N x L dictionary matrix (rows are samples).
        targets: N x d targets, one row per sample: next states (discrete
            mode) or derivative estimates (continuous mode).  A 1-D array
            of N values is one output.
        eta: hard threshold; eta = 0 reduces to one unthresholded solve.
        weights: optional taper over the N samples.
        max_iter: defaults to L + 1, which suffices under cumulative pruning.

    Raises:
        ConfigError: eta not a finite real >= 0 (a bool, a string, NaN or
            inf included), or max_iter not an integer >= 1.
        ShapeError: Psi not 2-D, targets neither 1-D nor 2-D, or a
            sample-count mismatch between Psi, targets, or weights.
        DomainError: Psi or the targets hold NaN or infinity.
    """
    Psi = np.asarray(Psi)
    T = np.asarray(targets)
    T = T[:, None] if T.ndim == 1 else T
    eta = as_real(eta, "eta", ConfigError, 0.0)
    if Psi.ndim != 2 or T.ndim != 2 or T.shape[0] != Psi.shape[0]:
        raise ShapeError(f"Psi {Psi.shape} and targets {T.shape} must be N x L and N x d")
    (N, L), d = Psi.shape, T.shape[1]
    max_iter = L + 1 if max_iter is None else as_integer(max_iter, "max_iter", ConfigError, 1)

    dtype = np.result_type(Psi.dtype, T.dtype, float)
    Xi = np.zeros((d, L), dtype=dtype)
    # initial unrestricted solve: Xi^T = pinv(Psi) T in the weighted norm
    Xi[:] = linalg.pinv_lstsq(Psi, T, weights).matrix.T
    active = np.ones((d, L), dtype=bool)
    if eta == 0.0:
        return SindyModel(Xi, active, 1, True, ())

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
            sol = linalg.pinv_lstsq(Psi[:, cols], T[:, j:j + 1], weights)
            Xi[j, cols] = sol.matrix[:, 0]
    else:
        converged = not (active & (np.abs(Xi) < eta)).any()
    zeroed = tuple(int(j) for j in range(d) if not active[j].any())
    return SindyModel(Xi, active, iterations, converged, zeroed)


def harmonic_oscillator_exact(L: int = 6) -> np.ndarray:
    """Exact monomial coefficients of x'' = -x: [0, -1, 0, ..., 0]."""
    xi = np.zeros((1, as_integer(L, "L", ConfigError, 2)))
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
    w: Callable = eval_bump,
) -> list[SindySweepRow]:
    """Coefficient errors of four identification methods on the harmonic surrogate.

    For each window length the harmonic series (optionally noisy) is fitted
    with plain least squares (LS), taper-weighted least squares (wtLS), and
    the thresholded variants (SINDy, wtSINDy) at each eta; the reported error
    is the Frobenius distance to the exact coefficients [0, -1, 0, ...].
    Thresholded rows carry their eta; the LS rows carry eta = 0.

    Raises:
        SizeError: no window lengths, or one that is not an integer >= 3.
    """
    dictionary = monomial_dictionary(degree, dim=1)
    exact = harmonic_oscillator_exact(dictionary.size)
    rows: list[SindySweepRow] = []
    for N in as_windows(N_values, 3):
        data = harmonic_series(amplitude, phase, dt, N,
                               noise_sigma=noise_sigma, rng=rng)
        Psi = dictionary(data.interior_positions[:, None]).real
        wv = make_weight_vector(N, w)
        for method, weight_vec, eta_list in (
            ("LS", None, [0.0]),
            ("wtLS", wv, [0.0]),
            ("SINDy", None, etas),
            ("wtSINDy", wv, etas),
        ):
            for eta in eta_list:
                model = stlsq(Psi, data.second_derivative, eta=eta, weights=weight_vec)
                err = float(np.linalg.norm(model.coefficients.real - exact))
                rows.append(SindySweepRow(N=N, method=method, eta=float(eta),
                                          coeff_error=err))
    return rows
