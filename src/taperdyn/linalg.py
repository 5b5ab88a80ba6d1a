"""Dense linear-algebra kernels shared by the fitting modules.

Thin, contract-checked wrappers over numpy's LAPACK: weighted truncated-SVD
least squares with samples as rows, reduced by a blocked QR on tall data,
and sorted eigendecomposition.  Every taper-weighted fit in the package
reaches its data through the one reduction here.  All kernels are stateless
and safe for concurrent use on distinct inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError
from .weights import WeightVector, check_weights

__all__ = [
    "DEFAULT_REL_TOL",
    "LstsqSolution",
    "pinv_lstsq",
    "eig",
]

# The relative singular-value cutoff of pinv_lstsq; mpedmd refuses data whose
# Gram matrix has an eigenvalue ratio at or below it.  Aggressive truncation
# would mask machine-precision convergence studies, so the cutoff keeps
# everything above eps-level noise.
DEFAULT_REL_TOL = 1e-12

# Samples per block of the TSQR reduction, and rows per sub-block of its
# batched block QR (_block_factor); one pair for real and complex data.
# Measured on 2 vCPUs (Intel Xeon, OpenBLAS 0.3.31 at its default 2 threads),
# medians of 21 interleaved runs, per 1e5 rows of an 18-column block:
# Householder QR of whole 4096-row real blocks took 20.9 ms (12.2 ms in a
# one-thread process), and batched 128-, 256- and 512-row sub-blocks 11.9,
# 10.4 and 12.0 ms.  Complex blocks took 22.7 ms whole and 29.8, 28.9 and
# 49.1 ms in sub-blocks.  On the standard-map fits (medians of 11: tapered
# edmd and mpedmd of a 1e5-step orbit and plain edmd of its 1e4-step
# prefix, 3x3 Fourier dictionary) 2048, 4096 and 8192 rows took 27.0, 26.0
# and 28.3 ms with 256-row sub-blocks, and 128- and 512-row sub-blocks
# 29.1 ms each at 4096 rows.
_TSQR_ROWS = 4096
_SUB_ROWS = 256


@dataclass(frozen=True)
class LstsqSolution:
    """Minimal-norm least-squares solution with its rank diagnostics."""

    matrix: np.ndarray
    effective_rank: int
    singular_values: np.ndarray


def _reduce(rows, n: int, weights: WeightVector | None):
    """A small (A_r, B_r) with the least-squares problem of (W^½A, W^½B).

    rows(start, stop) returns (only reads) samples start..stop-1 of A and B.
    Up to one block of samples the weighted data are the reduced problem.
    Longer data are walked in blocks of _TSQR_ROWS samples: each block of
    [W^½A | W^½B] is copied into one reused buffer and replaced by its R
    factor (_block_factor), and the stacked R factors are factored once more
    (TSQR).  Since [W^½A | W^½B] = Q [R_A | R_B] with orthonormal Q,
    ||W^½B - W^½A K|| = ||R_B - R_A K|| for every K, and R_A has the
    singular values of W^½A.  Real data stay real throughout.
    This is the one place where a taper enters a fit.

    Raises:
        ConfigError: weights neither a WeightVector nor None.
        ShapeError: the weights do not match the sample count.
        DomainError: the weighted data hold NaN or infinity.
    """
    check_weights(weights)
    raw = None if weights is None else weights.raw
    # WeightVector checked its values when it was built, and they cannot change
    if raw is not None and raw.shape != (n,):
        raise ShapeError(f"weights have shape {raw.shape}, data has {n} samples")
    with np.errstate(invalid="ignore"):  # inf * 0 on a zero-weight sample
        if n <= _TSQR_ROWS:
            A, B = rows(0, n)
            if raw is not None:
                sqrt_w = np.sqrt(raw)[:, None]
                A, B = A * sqrt_w, B * sqrt_w
        else:
            buf, factors = None, []
            for start in range(0, n, _TSQR_ROWS):
                stop = min(start + _TSQR_ROWS, n)
                A, B = rows(start, stop)
                if buf is None:
                    L = A.shape[1]
                    buf = np.empty((_TSQR_ROWS, L + B.shape[1]),
                                   dtype=np.result_type(A, B, float))
                block = buf[:stop - start]
                block[:, :L], block[:, L:] = A, B
                if raw is not None:
                    block *= np.sqrt(raw[start:stop])[:, None]
                factors.append(_block_factor(block))
            R = np.linalg.qr(np.vstack(factors), mode="r")
            A, B = R[:, :L], R[:, L:]
    # NaN and inf survive the reduction, so the small factor shows them
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DomainError("least-squares data hold NaN or infinity")
    return A, B


def _block_factor(block: np.ndarray) -> np.ndarray:
    """R factor of one TSQR block.  Its whole _SUB_ROWS-row sub-blocks are
    factored in one batched QR call, and their stacked R factors together
    with the leftover rows are factored once more.  A block at least
    _SUB_ROWS columns wide is factored whole."""
    cols = block.shape[1]
    whole = len(block) - len(block) % _SUB_ROWS if cols < _SUB_ROWS else 0
    sub = np.linalg.qr(block[:whole].reshape(-1, _SUB_ROWS, cols), mode="r")
    return np.linalg.qr(np.vstack((sub.reshape(-1, cols), block[whole:])), mode="r")


def pinv_lstsq(A: np.ndarray, B: np.ndarray,
               weights: WeightVector | None = None) -> LstsqSolution:
    """Minimal-norm minimizer K of ||W^(1/2)(B - A K)||_F by truncated SVD.

    Samples are rows: A is n x L, B is n x m, and the diagonal taper W runs
    over the n rows (K = pinv(A) B when unweighted).  Data with more than
    _TSQR_ROWS samples are first reduced by a blocked QR (TSQR) to a problem
    whose size does not grow with the sample count; the truncated SVD then
    runs on the reduced A, whose singular values are those of the weighted
    A.  Singular values below DEFAULT_REL_TOL * sigma_max are treated as
    zero.  An all-zero A yields the zero solution with effective_rank 0, not
    an error.  The caller's arrays are only read.

    Args:
        weights: WeightVector over the n samples (its raw values are used;
            normalization cancels in the fit), or None for the plain fit.

    Raises:
        ConfigError: weights neither a WeightVector nor None.
        ShapeError: incompatible shapes.
        DomainError: the weighted data hold NaN or infinity.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or B.ndim != 2:
        raise ShapeError(f"A and B must be 2-D, got {A.shape} and {B.shape}")
    if B.shape[0] != A.shape[0]:
        raise ShapeError(f"||B - A K||: B is {B.shape}, A is {A.shape}")
    A_r, B_r = _reduce(lambda start, stop: (A[start:stop], B[start:stop]), A.shape[0], weights)
    U, S, Vh = np.linalg.svd(A_r, full_matrices=False)
    keep = S > DEFAULT_REL_TOL * S[:1]  # none kept when A is all zero or empty
    inv = np.where(keep, 1.0 / np.where(keep, S, 1.0), 0.0)
    K = (Vh.conj().T * inv) @ (U.conj().T @ B_r)
    return LstsqSolution(matrix=K, effective_rank=int(keep.sum()), singular_values=S)


def eig(A: np.ndarray):
    """Eigendecomposition with a deterministic ordering.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    real part and then descending imaginary part; eigenvector columns follow.
    Moduli, and then real parts, tie when they chain by gaps of at most 1e-12
    times the largest modulus, so rounding noise cannot reorder the values.

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
    modulus = np.abs(values)
    tol = 1e-12 * modulus.max(initial=0.0)
    by_modulus = _tie_groups(modulus, np.zeros(values.size), tol)
    order = np.lexsort((-values.imag, _tie_groups(values.real, by_modulus, tol)))
    return values[order], vectors[:, order]


def _tie_groups(x: np.ndarray, groups: np.ndarray, tol: float) -> np.ndarray:
    """Refine groups by descending x: group ids in sorted order, starting a
    new group where the old group changes or x drops by more than tol."""
    order = np.lexsort((-x, groups))
    xs, gs = x[order], groups[order]
    starts = np.ones(x.size, dtype=bool)
    starts[1:] = (gs[1:] != gs[:-1]) | (xs[:-1] - xs[1:] > tol)
    refined = np.empty(x.size, dtype=np.intp)
    refined[order] = np.cumsum(starts)
    return refined
