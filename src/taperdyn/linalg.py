"""Dense linear-algebra kernels shared by the fitting modules.

Thin, contract-checked wrappers over LAPACK (via numpy/scipy): weighted
truncated-SVD least squares with samples as rows, reduced by a blocked QR
on tall data, sorted eigendecomposition, and Hermitian square roots.  All
kernels are stateless and safe for concurrent use on distinct inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DomainError, NumericalError, ShapeError
from .weights import WeightVector

__all__ = [
    "DEFAULT_REL_TOL",
    "LstsqSolution",
    "pinv_lstsq",
    "eig",
    "sym_sqrt_inv",
]

# The relative singular-value cutoff of pinv_lstsq and sym_sqrt_inv.
# Aggressive truncation would mask machine-precision convergence studies,
# so the cutoff keeps everything above eps-level noise.
DEFAULT_REL_TOL = 1e-12

# Samples per block of the TSQR reduction in pinv_lstsq.  On a weighted
# 1e5 x 9 complex EDMD fit (2 vCPU AMD EPYC, OpenBLAS) 4096-8192 rows ran
# fastest, 14 ms against 33 ms for the thin SVD of the whole matrix; 256 rows
# took 19 ms and 65536 rows 22 ms.
_TSQR_ROWS = 4096


@dataclass(frozen=True)
class LstsqSolution:
    """Minimal-norm least-squares solution with its rank diagnostics."""

    matrix: np.ndarray
    effective_rank: int
    singular_values: np.ndarray


def _sqrt_weights(weights: WeightVector, n: int) -> np.ndarray:
    diag = weights.raw
    if diag.shape != (n,):
        raise ShapeError(f"weights have shape {diag.shape}, data has {n} samples")
    if not (np.isfinite(diag).all() and (diag >= 0).all()):
        raise DomainError("weights must be finite and non-negative")
    return np.sqrt(diag)


def _reduce(A: np.ndarray, B: np.ndarray, sqrt_w):
    """A small (A_r, B_r) with the least-squares problem of (W^½A, W^½B).

    Up to one block of samples the weighted data are the reduced problem.
    Longer data are walked in blocks of _TSQR_ROWS samples: each block of
    [W^½A | W^½B] is copied into one reused buffer and replaced by its R
    factor, and the stacked R factors are factored once more (TSQR).  Since
    [W^½A | W^½B] = Q [R_A | R_B] with orthonormal Q, ||W^½B - W^½A K|| =
    ||R_B - R_A K|| for every K, and R_A has the singular values of W^½A.
    """
    n, L = A.shape
    if n <= _TSQR_ROWS:
        if sqrt_w is not None:
            A, B = A * sqrt_w[:, None], B * sqrt_w[:, None]
        return A, B
    buf = np.empty((_TSQR_ROWS, L + B.shape[1]), dtype=np.result_type(A, B, float))
    factors = []
    for start in range(0, n, _TSQR_ROWS):
        block = buf[:min(_TSQR_ROWS, n - start)]
        stop = start + block.shape[0]
        block[:, :L] = A[start:stop]
        block[:, L:] = B[start:stop]
        if sqrt_w is not None:
            block *= sqrt_w[start:stop, None]
        factors.append(np.linalg.qr(block, mode="r"))
    R = np.linalg.qr(np.vstack(factors), mode="r")
    return R[:, :L], R[:, L:]


def pinv_lstsq(A: np.ndarray, B: np.ndarray,
               weights: WeightVector | None = None) -> LstsqSolution:
    """Minimal-norm minimizer K of ||W^(1/2)(B - A K)||_F by truncated SVD.

    Samples are rows: A is n x L, B is n x m, and the diagonal taper W runs
    over the n rows (K = pinv(A) B when unweighted).  A caller whose samples
    are columns, fitting B ≈ K A, passes A.T and B.T and transposes the
    result.  Data with more than _TSQR_ROWS samples are first reduced by a
    blocked QR (TSQR) to a problem whose size does not grow with the sample
    count; the truncated SVD then runs on the reduced A, whose singular
    values are those of the weighted A.  Singular values below
    DEFAULT_REL_TOL * sigma_max are treated as zero.  An all-zero A yields
    the zero solution with effective_rank 0, not an error.  The caller's
    arrays are only read.

    Args:
        weights: WeightVector over the n samples (its raw values are used;
            normalization cancels in the fit), or None for the plain fit.

    Raises:
        ShapeError: incompatible shapes.
        DomainError: the weighted data hold NaN or infinity, or the weights
            are negative or not finite.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2:
        raise ShapeError(f"A and B must be 2-D, got {A.shape} and {B.shape}")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ShapeError(f"||B - A K||: B is {B.shape}, A is {A.shape}")
    sqrt_w = None if weights is None else _sqrt_weights(weights, n)
    with np.errstate(invalid="ignore"):  # inf * 0 on a zero-weight sample
        A_r, B_r = _reduce(A, B, sqrt_w)
    # NaN and inf survive the reduction, so the small factor shows them
    if not (np.isfinite(A_r).all() and np.isfinite(B_r).all()):
        raise DomainError("least-squares data hold NaN or infinity")
    U, S, Vh = np.linalg.svd(A_r, full_matrices=False)
    keep = S > DEFAULT_REL_TOL * S[:1]  # none kept when A is all zero or empty
    inv = np.where(keep, 1.0 / np.where(keep, S, 1.0), 0.0)
    K = (Vh.conj().T * inv) @ (U.conj().T @ B_r)
    return LstsqSolution(matrix=K, effective_rank=int(keep.sum()), singular_values=S)


def eig(A: np.ndarray):
    """Eigendecomposition with a deterministic ordering.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    real part and then descending imaginary part; eigenvector columns follow.

    Raises:
        ShapeError: non-square input.
        NumericalError: LAPACK non-convergence (message carries the condition
            number estimate).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"eig needs a square matrix, got {A.shape}")
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(A)) if np.all(np.isfinite(A)) else float("inf")
        raise NumericalError(
            f"eigendecomposition failed to converge (cond ~ {cond:.3e}): {exc}"
        ) from exc
    # descending modulus; ties by descending real part, then descending imag
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return values[order], vectors[:, order]


def sym_sqrt_inv(G: np.ndarray):
    """Square root and inverse square root of a Hermitian positive-definite matrix.

    Computed from the Hermitian eigendecomposition.  The input must be
    Hermitian within 1e-10 relative and have smallest eigenvalue above
    DEFAULT_REL_TOL times the largest.

    Returns:
        (G_half, G_inv_half) with G_half @ G_half ~= G.

    Raises:
        ShapeError: non-square or non-Hermitian input.
        ConditioningError: indefinite or ill-conditioned G; the message names
            the offending eigenvalue ratio.
    """
    G = np.asarray(G)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeError(f"sym_sqrt_inv needs a square matrix, got {G.shape}")
    herm_resid = np.linalg.norm(G - G.conj().T) / max(np.linalg.norm(G), 1e-300)
    if herm_resid > 1e-10:
        raise ShapeError(f"matrix is not Hermitian (relative residual {herm_resid:.3e})")
    lam, Q = scipy.linalg.eigh(G)
    lam_max = lam[-1]
    if lam_max <= 0.0 or lam[0] <= DEFAULT_REL_TOL * lam_max:
        ratio = lam[0] / lam_max if lam_max > 0 else float("-inf")
        raise ConditioningError(
            f"matrix not positive definite at cutoff {DEFAULT_REL_TOL:g}: "
            f"eigenvalue ratio min/max = {ratio:.3e}")
    root = np.sqrt(lam)
    G_half = (Q * root) @ Q.conj().T
    G_inv_half = (Q / root) @ Q.conj().T
    return G_half, G_inv_half
