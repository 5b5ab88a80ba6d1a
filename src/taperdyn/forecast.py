"""Nonparametric forecasting with a data-driven kernel eigenbasis.

A Gaussian kernel on (delay-embedded) training data, held as a certified
low-rank factor or as its stored lower triangle, is balanced to a
symmetric doubly stochastic operator; its leading eigenvectors give basis
functions that are exactly orthonormal in the empirical inner product with
the leading one constant.  One-step transfer is estimated by an (optionally
taper-weighted) least-squares fit of the basis at consecutive samples, on
the same kernel as every other fit in the package; matrix powers of that
shift matrix push point forecasts to longer leads, and skill is scored by
lead-time RMSE and correlation against a climatology baseline.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    ConditioningError,
    ConfigError,
    DomainError,
    IngestError,
    NumericalError,
    ShapeError,
    SizeError,
    as_integer,
)
from .weights import WeightVector, eval_bump, make_weight_vector

__all__ = [
    "DelayEmbedding",
    "DiffusionBasis",
    "ShiftMatrix",
    "ForecastResult",
    "delay_embed",
    "diffusion_basis",
    "shift_matrix",
    "forecast",
    "skill",
    "nino34_compare",
]

# Documented guidance: very large bases amplify the sampling noise of the
# poorly resolved high-order eigenfunctions and can degrade tapered forecasts.
LARGE_BASIS_WARN = 30

_KERNEL_FLOOR = 1e-14
_BANDWIDTH_SUBSAMPLE = 2048
# the bandwidth's median is bracketed from 65,536 random pairs, 8 standard
# deviations of the sample median's rank to either side of it
_BRACKET_PAIRS = 65536
_BRACKET_SIGMAS = 8.0
_SMALLEST_POSITIVE = math.ulp(0.0)
# rows per distance band, in the bandwidth pass and in the dense kernel's
# stored lower triangle: 32 and 64 rows time the same (_auto_bandwidth 21-25 ms
# at n = 2000 to 8000 on 2 CPUs), 128 and 256 rows 10-30% slower; 64 keeps each
# band temporary at 1 MB or less
_KERNEL_BAND = 64
_LOWRANK_CAP_DIV = 32  # the low-rank route tries at most n // 32 pivot columns
_LOWRANK_TOL = 1e-16   # and needs a residual trace of at most 1e-16 per point
_GRAM_BLOCK = 1024     # rows per block of the low-rank route's n x r products
_ROW_BLOCK_BYTES = 1 << 23  # bytes of differences per block of exact kernel rows in extend
# The dense path's block Krylov solver stops once every wanted Ritz residual
# is at most _KRYLOV_TOL times the top Ritz value (1 for the balanced kernel),
# or once its basis spans R^n.  A basis past _KRYLOV_RESTART blocks restarts
# from its leading half of Ritz vectors, and after _KRYLOV_MAX_BLOCKS block
# products it gives up.  The residuals fall through the threshold, not onto
# it: 3e-12 then 6e-15 over the last two blocks at p = 3, n = 2000, M = 6
# (72 columns, no restart), and 1e-9 then 5e-23 at n = 8000, M = 10.
_KRYLOV_TOL = 1e-14
_KRYLOV_RESTART = 12
_KRYLOV_MAX_BLOCKS = 500
_SINKHORN_TOL = 1e-10     # balancing stops once every s_i (K s)_i is this close to 1
_SINKHORN_MAX_ITER = 500  # and raises after this many sweeps


@dataclass(frozen=True)
class DelayEmbedding:
    """Delay vectors of a scalar series.

    Row n stacks samples n..n+lags-1 in time order, so the most recent
    sample of each embedded point is its last coordinate.  offset maps row
    n back to the index (n + lags - 1) of that most recent sample.
    """

    points: np.ndarray
    lags: int

    @property
    def offset(self) -> int:
        return self.lags - 1

    def __len__(self) -> int:
        return self.points.shape[0]


def delay_embed(series, lags: int) -> DelayEmbedding:
    """Stack consecutive samples into (len(series) - lags + 1) delay vectors.

    lags = 1 is the identity embedding.

    Raises:
        SizeError: lags not an integer >= 1, or series shorter than lags.
    """
    s = np.asarray(series, dtype=float).ravel()
    lags = as_integer(lags, "lags", SizeError)
    if lags < 1:
        raise SizeError(f"lags >= 1 required, got {lags}")
    if s.shape[0] < lags:
        raise SizeError(f"series of length {s.shape[0]} is shorter than lags={lags}")
    n = s.shape[0] - lags + 1
    idx = np.arange(n)[:, None] + np.arange(lags)[None, :]
    return DelayEmbedding(points=s[idx], lags=lags)


@dataclass(frozen=True)
class DiffusionBasis:
    """Kernel eigenbasis over training points.

    phi is (N, M) with (1/N) phi^T phi = I enforced by construction and the
    first column constant; kernel_eigenvalues are the matching eigenvalues
    of the balanced kernel operator, descending.  points and scaling are
    retained for out-of-sample extension; on the low-rank route, factor holds
    (pivot points, T^-1, the column h = L^T s, G = sqrt(N) (diag(s) L)^T vecs
    / lambda with phi's column signs), see extend and diffusion_basis.
    """

    phi: np.ndarray
    kernel_eigenvalues: np.ndarray
    bandwidth: float
    points: np.ndarray
    scaling: np.ndarray
    factor: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def n_train(self) -> int:
        return self.phi.shape[0]

    @property
    def M(self) -> int:
        return self.phi.shape[1]

    def extend(self, x) -> tuple[np.ndarray, np.ndarray | bool]:
        """Eigenfunction vectors at one point (p,) or a block of points (S, p).

        Returns (c (M,), in_support bool) for one point, (C (S, M),
        in_support (S,)) for a block.  With a factor K ~ L L^T, a point's
        row a solves T a = k(pivots, x) (Nystrom extension), all S at once;
        where its residual |1 - |a|^2| is within the route's 1e-16 N
        certificate, c = (a G) / (a h) in O(r (p + r + M)).  Other points
        project their exact kernel rows onto phi in O(N (p + M)), in blocks
        of at most _ROW_BLOCK_BYTES of differences; a numerically zero row
        (far outside the data support) gets the constant-mode vector as a
        climatological fallback, in_support False and one counting warning.

        Raises:
            ShapeError, SizeError, DomainError: points not of dimension p,
                an empty block, or a point holding NaN or inf.
        """
        X = np.asarray(x, dtype=float)
        single = X.ndim < 2
        X = X.reshape(1, -1) if single else X
        p = self.points.shape[1]
        if X.ndim != 2 or X.shape[1] != p:
            raise ShapeError(f"expected points of dimension {p}, got shape {np.shape(x)}")
        if not len(X):
            raise SizeError("no points to extend")
        if self.factor is None:
            C, rest = np.zeros((len(X), self.M)), np.arange(len(X))
        else:
            pivots, T_inv, h, G = self.factor
            A = _kernel_column(pivots, X, self.bandwidth) @ T_inv.T
            # |a|^2 - 1 in one reduction: |a| > 1 is a bad solve, and NaN or inf never passes
            ok = abs((A * A).sum(axis=1, initial=-1.0)) <= _LOWRANK_TOL * self.n_train
            if np.count_nonzero(ok) == len(X):
                C = (A @ G) / (A @ h)
                return (C[0], True) if single else (C, ok)
            C, rest = np.zeros((len(X), self.M)), np.flatnonzero(~ok)
            C[ok] = (A[ok] @ G) / (A[ok] @ h)
        if not np.isfinite(X).all():
            raise DomainError("extension points contain non-finite values")
        in_support = np.ones(len(X), dtype=bool)
        step = max(_ROW_BLOCK_BYTES // (8 * self.points.size), 1)  # rows per block
        for k in range(0, rest.size, step):
            rows = rest[k:k + step]
            R = _kernel_column(self.points, X[rows], self.bandwidth)
            near = R.max(axis=1) >= _KERNEL_FLOOR
            V = R[near] * self.scaling
            V /= V.sum(axis=1, keepdims=True)
            C[rows[near]] = (V @ self.phi) / self.kernel_eigenvalues
            in_support[rows[~near]] = False
        if not in_support.all():
            warnings.warn(f"{len(X) - np.count_nonzero(in_support)} of {len(X)} extension points "
                          "lie outside the data support; falling back to the climatological mode")
            C[~in_support, 0] = self.phi[0, 0]  # the constant value
        return (C[0], bool(in_support[0])) if single else (C, in_support)


def _augmented(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, W) with rows [x, |x|^2, 1] and [-2x, 1, |x|^2]: U W^T holds every
    pair's squared distance in one product over p + 2 columns, rounded to about
    eps (|x|^2 + |y|^2), so near pairs may come out negative."""
    sq = (points * points).sum(axis=1)[:, None]
    ones = np.ones_like(sq)
    return np.hstack([points, sq, ones]), np.hstack([-2.0 * points, ones, sq])


def _kernel_column(points: np.ndarray, X: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-|y - x|^2 / eps^2) for every row y of points: n values for one point
    x, an S x n block for an S x p block X.  From exact differences:
    augmented-product columns carry their rounding into the pivoted Cholesky's
    residual trace, and on the diffusion-ou path moved to +20 never reach the
    1e-16 n certificate within the cap (exact differences: rank 37).  A finite
    point so far out that its squared distance overflows gets exp(-inf) = 0,
    which sends it to the caller's out-of-support fallback."""
    with np.errstate(over="ignore"):
        return np.exp(((points - X[..., None, :]) ** 2).sum(axis=-1) / -bandwidth**2)


def _median_bracket(U: np.ndarray, W: np.ndarray, pairs: int):
    """(lo, hi, capacity): squared distances that bracket the median over
    the pairs i < j of _augmented's (U, W), and room for about twice the
    pairs between them.

    _BRACKET_PAIRS pairs i != j drawn from a private default_rng(0) set the
    bracket _BRACKET_SIGMAS standard deviations of the sample median's rank
    to either side of it; an edge past the sample is 5e-324 or inf.  The
    bracket is a guess: the caller counts the exact ranks.
    """
    gen = np.random.default_rng(0)
    m, k, chunk = U.shape[0], _BRACKET_PAIRS, 4096  # no temporary outgrows 32 (p + 2) KB
    d2 = np.empty(k)
    for c in range(0, k, chunk):
        i = gen.integers(0, m, chunk)
        j = gen.integers(0, m - 1, chunk)
        j += j >= i
        np.einsum("ij,ij->i", U.take(i, axis=0), W.take(j, axis=0), out=d2[c:c + chunk])
    # the positive sample between two edge values: rank t sits at index t + 1
    sample = np.sort(np.concatenate(([_SMALLEST_POSITIVE], d2[d2 > 0.0], [math.inf])))
    middle, spread = (sample.size - 3) / 2.0, _BRACKET_SIGMAS * math.sqrt(sample.size - 2) / 2.0
    lo = float(sample[max(math.floor(middle - spread) + 1, 0)])
    hi = float(sample[min(math.ceil(middle + spread) + 1, sample.size - 1)])
    inside = int(np.count_nonzero((d2 >= lo) & (d2 <= hi)))
    return lo, hi, 2 * inside * pairs // k + _BRACKET_PAIRS


def _bracket_pass(U: np.ndarray, W: np.ndarray, lo: float, hi: float, capacity: int):
    """(kept, positive, below) over the pairs i < j of _augmented's (U, W), a band at a time.

    positive counts the positive squared distances (a negative residue counts
    as zero) and below those under lo; kept holds the ones in [lo, hi], or is
    None when more than capacity of them fall there.
    """
    m = U.shape[0]
    kept, stored, positive, below = np.empty(capacity), 0, 0, 0
    buf = np.empty((min(_KERNEL_BAND, m), m))
    under, upto = np.empty(buf.shape, dtype=bool), np.empty(buf.shape, dtype=bool)
    on_or_above = ~np.tri(len(buf), k=-1, dtype=bool)
    for i in range(0, m, _KERNEL_BAND):
        j = min(i + _KERNEL_BAND, m)
        d2 = np.matmul(U[i:j], W[:j].T, out=buf[:j - i, :j])
        # band row r holds the pairs (i + r, c) with c < i + r; zeros mask the rest
        np.copyto(d2[:, i:], 0.0, where=on_or_above[:j - i, :j - i])
        nonzero = np.count_nonzero(np.greater(d2, 0.0, out=under[:j - i, :j]))
        lt, le = np.less(d2, lo, out=under[:j - i, :j]), np.less_equal(d2, hi, out=upto[:j - i, :j])
        n_lt = np.count_nonzero(lt)  # the zeros too, since lo > 0
        count = np.count_nonzero(le) - n_lt
        positive += nonzero
        below += n_lt - (d2.size - nonzero)
        if stored + count <= capacity:
            kept[stored:stored + count] = d2[np.greater(le, lt, out=le)]  # lo <= d2 <= hi
        stored += count
    return (kept[:stored] if stored <= capacity else None), positive, below


def _auto_bandwidth(points: np.ndarray, rng) -> float:
    """The median positive distance over distinct pairs i < j, from U W^T (_augmented).

    Each pair is visited once and self-pairs never enter: for p > 1 the
    product's diagonal holds rounding residues, not zeros.
    With more than 4 _BRACKET_PAIRS pairs, a random sample brackets the
    median (_median_bracket) and one banded pass counts the pairs below the
    bracket and keeps those inside it; when the counts put a middle rank
    outside, or the bracket holds more pairs than it has room for, a second
    pass keeps every positive pair, in one buffer sized from their count.
    One in-place selection of the kept pairs finds np.median's value bit
    for bit (for an even count, the mean of the two middle values).  rng
    draws the subsample of larger data only.
    """
    n = points.shape[0]
    if n > _BANDWIDTH_SUBSAMPLE:
        gen = rng if rng is not None else np.random.default_rng(0)
        sub = points[gen.choice(n, size=_BANDWIDTH_SUBSAMPLE, replace=False)]
    else:
        sub = points
    m = sub.shape[0]
    U, W = _augmented(sub)
    pairs = m * (m - 1) // 2
    everything = (_SMALLEST_POSITIVE, math.inf)
    bracket = (_median_bracket(U, W, pairs) if pairs > 4 * _BRACKET_PAIRS
               else (*everything, pairs))
    kept, size, below = _bracket_pass(U, W, *bracket)
    if size == 0:
        raise ConfigError("auto bandwidth failed: all pairwise distances are zero")
    # the middle ranks are h - 1 and h for an even count, h for an odd one
    h = size // 2
    if kept is None or below > h - 1 + size % 2 or h >= below + kept.size:
        del kept  # freed before the second buffer is made
        kept, size, below = _bracket_pass(U, W, *everything, size)
    h -= below
    kept.partition(h)
    median = kept[h] if size % 2 else (kept[:h].max() + kept[h]) / 2.0
    return float(np.sqrt(median))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _kernel_matrix(pts: np.ndarray, bandwidth: float) -> list[tuple[int, np.ndarray]]:
    """Gaussian kernel's lower triangle, as row bands (i, K[i:j, :j]) of _KERNEL_BAND rows.

    Each band is one product U W^T of _augmented's arrays, W scaled by
    -1/eps^2, clipped at 0 and exponentiated in place; its diagonal block
    K[i:j, i:j] is made exactly symmetric by copying its lower triangle over
    its upper one.  With n = 64 (q - 1) + r, 0 < r <= 64, the bands store
    64^2 q (q - 1) / 2 + r n entries.
    """
    n = pts.shape[0]
    U, W = _augmented(pts)
    W *= -1.0 / bandwidth**2
    bands = []
    for i in range(0, n, _KERNEL_BAND):
        j = min(i + _KERNEL_BAND, n)
        band = np.matmul(U[i:j], W[:j].T)
        np.minimum(band, 0.0, out=band)
        np.exp(band, out=band)
        block = band[:, i:]
        np.copyto(block, block.T, where=np.tri(j - i, k=-1, dtype=bool).T)
        bands.append((i, band))
    return bands


def _kernel_product(K, X: np.ndarray) -> np.ndarray:
    """K @ X for a kernel stored by _kernel_matrix; X is a vector or an n x b block.

    Each band enters twice: whole for its own rows, and its part left of its
    diagonal block, transposed, for the rows above it.
    """
    Y = np.zeros(X.shape)
    for i, band in K:
        j = i + len(band)
        Y[i:j] += band @ X[:j]
        Y[:i] += band[:, :i].T @ X[i:j]
    return Y


def _pivoted_cholesky(pts: np.ndarray, bandwidth: float, cap: int):
    """Greedy pivoted Cholesky factor (L, pivots, roots) of the Gaussian kernel, L n x r, r <= cap.

    Each step pivots on the largest residual diagonal entry d_i, computes that
    one kernel column and divides it by roots[k] = sqrt(d_i).  K - L L^T is
    positive semidefinite, so the residual trace sum(d) bounds
    ||K - L L^T||_2: the factor is returned once that is at most
    _LOWRANK_TOL * n, None when cap columns do not get there.
    """
    n = pts.shape[0]
    rows = np.empty((min(cap, 64), n))  # rows of L^T, doubled when full
    d, piv, roots = np.ones(n), np.empty(cap, dtype=np.intp), np.empty(cap)
    for r in range(cap):
        if d.sum() <= _LOWRANK_TOL * n:
            return rows[:r].T, piv[:r], roots[:r]
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(r, cap - r), n))])
        i = piv[r] = int(np.argmax(d))
        roots[r] = math.sqrt(d[i])
        col = _kernel_column(pts, pts[i], bandwidth)
        col -= rows[:r, i] @ rows[:r]
        col /= roots[r]
        rows[r] = col
        d -= col * col
        np.maximum(d, 0.0, out=d)  # rounding must not shrink the certificate
    return (rows.T, piv, roots) if d.sum() <= _LOWRANK_TOL * n else None


def _sinkhorn_scaling(matvec, row_sums: np.ndarray):
    """Diagonal s with s_i (K s)_i = 1, balancing a positive kernel from its row sums K 1."""
    s = 1.0 / np.sqrt(np.maximum(row_sums, 1e-300))
    for _ in range(_SINKHORN_MAX_ITER):
        r = s * matvec(s)
        err = float(np.abs(r - 1.0).max())
        if err < _SINKHORN_TOL:
            return s
        s = s / np.sqrt(r)
    raise ConfigError(
        f"kernel balancing did not converge (residual {err:.3e}); "
        "the kernel may contain exact zero blocks (bandwidth too small)")


def _krylov_eigenpairs(matmul, n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The M leading eigenpairs of a symmetric positive semidefinite operator.

    Block Krylov with Rayleigh-Ritz and thick restarts (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2011, ch. 6-7): matmul(X) applies
    the n x n operator to an n x k block, the first block of b = M + 2
    columns comes from a seeded Gaussian draw, and each new block A Q is
    orthogonalised against the basis V twice.  The first pass's QR factor B
    gives every Ritz pair's residual |(I - V V^T) A V y| = |B y_last|; the
    second pass drops the directions lying mostly inside span(V), which are
    rounding noise.  Blocks wider than M hold degenerate pairs, which one
    vector's Krylov space cannot.  A basis that would pass _KRYLOV_RESTART
    blocks is replaced by its leading half of Ritz vectors, whose images
    stay inside the basis plus the next block.

    Raises:
        NumericalError: the residual is still above the threshold after
            _KRYLOV_MAX_BLOCKS block products, or is not finite.
        ConditioningError: the projected eigenproblem fails (numpy LinAlgError).
    """
    b = min(M + 2, n)
    V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, b)))
    AQ = matmul(V)
    T = P = V.T @ AQ  # T = V^T A V grows by P = V^T A Q, the newest block's columns
    residual = math.inf
    for step in range(1, _KRYLOV_MAX_BLOCKS + 1):
        try:
            lam, Z = np.linalg.eigh(T)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"Rayleigh-Ritz eigensolve failed at Krylov dimension "
                                    f"{V.shape[1]} (residual {residual:.3e})") from exc
        theta, Y = lam[:-M - 1:-1], Z[:, :-M - 1:-1]
        if V.shape[1] < n:  # else the basis spans R^n and the Ritz pairs are exact
            Q, B = np.linalg.qr(AQ - V @ P)
            residual = float(np.linalg.norm(B @ Y[V.shape[1] - B.shape[0]:], axis=0).max())
        if V.shape[1] == n or residual <= _KRYLOV_TOL * theta[0]:
            return theta, np.asfortranarray(V @ Y)
        if not math.isfinite(residual):
            break
        U, sigma, _ = np.linalg.svd(Q - V @ (V.T @ Q), full_matrices=False)
        Q = U[:, sigma > 0.5]
        if V.shape[1] + Q.shape[1] > _KRYLOV_RESTART * b:
            keep = _KRYLOV_RESTART * b // 2
            V, T = V @ Z[:, -keep:], np.diag(lam[-keep:])
        AQ = matmul(Q)
        V = np.hstack([V, Q])
        P = V.T @ AQ
        T = np.vstack([np.hstack([T, P[:len(T)]]), P.T])
    raise NumericalError(f"dense eigensolver did not converge: residual {residual:.3e} > "
                         f"{_KRYLOV_TOL:.0e} x {theta[0]:.3e} after {step} blocks")


def _gram_eigenpairs(A: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The M leading eigenpairs (theta, vecs) of A A^T for a tall n x r A, and
    A^T vecs = B Y, all from r x r matrices.

    eigh(A^T A) = V diag(lam) V^T gives U0 = A V lam^(-1/2), with lam kept
    at least eps times its largest value, so that rounding residues at or
    below zero stay finite.  U0's small columns lose their orthogonality to
    rounding, so one CholeskyQR pass U0^T U0 = R R^T makes Q = U0 R^-T
    orthonormal, and Rayleigh-Ritz on B = A^T Q, eigh(B^T B) = Y diag(theta)
    Y^T, gives the eigenpairs (theta, Q Y).  U0 overwrites A in blocks of
    _GRAM_BLOCK rows once each block's share of U0^T U0 and A^T U0 is
    summed, and Q enters only through r x r products, so no second n x r
    array is made.  The vectors are column-major like the dense route's,
    since forecasts read phi by columns.

    Raises:
        ConditioningError: an r x r eigensolve or the Cholesky factorization
            fails (numpy LinAlgError).
    """
    r = A.shape[1]
    try:
        lam, V = np.linalg.eigh(A.T @ A)
        X = V / np.sqrt(np.maximum(lam, np.finfo(float).eps * lam[-1]))
        W, AtU0 = np.zeros((r, r)), np.zeros((r, r))
        for k in range(0, A.shape[0], _GRAM_BLOCK):
            block = A[k:k + _GRAM_BLOCK]
            U0 = block @ X
            W += U0.T @ U0
            AtU0 += block.T @ U0
            block[...] = U0
        R_inv_T = np.linalg.inv(np.linalg.cholesky(W)).T
        B = AtU0 @ R_inv_T
        theta, Y = np.linalg.eigh(B.T @ B)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"the {r} x {r} Gram eigenproblem of the low-rank kernel "
                                "factor failed") from exc
    Y = Y[:, :-M - 1:-1]
    return theta[:-M - 1:-1], ((R_inv_T @ Y).T @ A.T).T, B @ Y


def _dense_eigenpairs(pts: np.ndarray, M: int, bandwidth: float):
    """(s, lam, vecs) of the balanced kernel, its lower triangle built in full.

    Raises:
        SizeError: the stored triangle is larger than physical memory.
        ConfigError: M or more points are isolated (each one's kernel row
            mass off the diagonal is below _KERNEL_FLOOR), so the eigenvalue
            1 has multiplicity above M and the leading eigenfunctions are
            not determined.
    """
    n = pts.shape[0]
    kernel_bytes = 8 * sum(min(_KERNEL_BAND, n - i) * min(i + _KERNEL_BAND, n)
                           for i in range(0, n, _KERNEL_BAND))
    memory = _physical_memory_bytes()
    if kernel_bytes > memory:
        raise SizeError(f"the lower triangle of the {n} x {n} kernel needs {kernel_bytes} "
                        f"bytes, more than the {memory} bytes of physical memory")
    K = _kernel_matrix(pts, bandwidth)
    row_sums = _kernel_product(K, np.ones(n))
    self_weights = np.concatenate([np.diagonal(band, offset=i) for i, band in K])
    isolated = int(np.count_nonzero(row_sums - self_weights < _KERNEL_FLOOR))
    if isolated >= M:
        raise ConfigError(f"bandwidth {bandwidth:g} isolates {isolated} of {n} training points "
                          f"(off-diagonal kernel row mass < {_KERNEL_FLOOR:g}), so the {M} "
                          "leading eigenfunctions are not determined; use a larger bandwidth")
    s = _sinkhorn_scaling(lambda v: _kernel_product(K, v), row_sums)
    lam, vecs = _krylov_eigenpairs(lambda X: _kernel_product(K, X * s[:, None]) * s[:, None],
                                   n, M)
    return s, lam, vecs


def diffusion_basis(
    points,
    M: int,
    bandwidth: float | None = None,
    rng: np.random.Generator | None = None,
) -> DiffusionBasis:
    """Leading eigenfunctions of a balanced Gaussian kernel on training data.

    The Gaussian kernel exp(-|x-y|^2 / eps^2) is diagonally balanced to a
    symmetric doubly stochastic matrix (a density-correcting normalization),
    whose eigenvectors are orthogonal and whose leading eigenvector is
    constant; scaling by sqrt(N) gives basis functions with
    (1/N) sum_n phi_i(X_n) phi_j(X_n) = delta_ij.

    A greedy pivoted Cholesky factor K ~ L L^T (N x r, r <= N // 32) is
    tried first.  Its residual is positive semidefinite, so the residual
    trace bounds ||K - L L^T||_2.  When that bound is at most 1e-16 N (about
    the rounding error of a dense float64 kernel) and M <= r, balancing uses
    the products L (L^T v) and the eigenpairs come from r x r eigenproblems
    of A = diag(s) L (see _gram_eigenpairs).  Otherwise the kernel's lower
    triangle is built in full (about 4 N^2 bytes, see _kernel_matrix),
    balanced with K @ v, and a block Krylov solver with Rayleigh-Ritz finds
    the leading eigenpairs, exactly once its basis spans all N dimensions.  The basis keeps a
    read-only copy of the training points for extension.

    Args:
        points: (N, p) training data, or a DelayEmbedding.
        M: number of eigenfunctions to keep (M <= N).
        bandwidth: kernel width eps; None selects the median positive
            distance over the distinct pairs i < j of (a subsample of) the
            data (see _auto_bandwidth).
        rng: generator used only for the bandwidth subsample on large data;
            None draws it from default_rng(0).

    Raises:
        ShapeError: training points that are not 1-D or 2-D.
        DomainError: non-finite training points.
        SizeError: M not an integer in 1..N, or, on the dense path, a kernel
            triangle larger than the machine's physical memory.
        NumericalError: the dense path's eigensolver does not converge
            (see _krylov_eigenpairs).
        ConditioningError: an eigensolve or factorization fails on either
            route (see _krylov_eigenpairs and _gram_eigenpairs).
        ConfigError: rng neither a Generator nor None, non-finite or
            non-positive bandwidth, degenerate data under auto bandwidth,
            or, on the dense path, a bandwidth that isolates M or more
            points (see _dense_eigenpairs).
    """
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng must be a numpy Generator or None, got {type(rng).__name__}")
    # a read-only copy: extension reads it later, and the caller may write to theirs
    pts = np.array(getattr(points, "points", points), dtype=float)
    pts.setflags(write=False)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ShapeError(f"training points must be 1-D or 2-D, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("training points contain non-finite values")
    n = pts.shape[0]
    M = as_integer(M, "M", SizeError)
    if M < 1 or M > n:
        raise SizeError(f"need 1 <= M <= {n}, got M={M}")
    if M > LARGE_BASIS_WARN:
        warnings.warn(
            f"M={M} basis functions: high-order eigenfunctions are often "
            "poorly resolved and can degrade tapered forecasts")
    if bandwidth is None:
        bandwidth = _auto_bandwidth(pts, rng)
    bandwidth = float(bandwidth)
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ConfigError(f"bandwidth must be finite and > 0, got {bandwidth}")

    # the low-rank route needs M <= rank <= cap, so past the cap it is not tried
    cap = max(n // _LOWRANK_CAP_DIV, 1)
    factor = _pivoted_cholesky(pts, bandwidth, cap) if M <= cap else None
    if factor is not None and M <= factor[0].shape[1]:
        L, piv, roots = factor
        s = _sinkhorn_scaling(lambda v: L @ (L.T @ v), L @ (L.T @ np.ones(n)))
        # T (L[piv] below the diagonal, the roots on it) is the recursion that
        # made L; L[piv]'s own diagonal is rounding noise at late pivots
        T_inv, h = np.linalg.inv(np.tril(L[piv], -1) + np.diag(roots)), (L.T @ s)[:, None]
        L *= s[:, None]  # diag(s) L in place, which _gram_eigenpairs then overwrites
        lam, vecs, AtV = _gram_eigenpairs(L, M)
    else:
        factor = None
        s, lam, vecs = _dense_eigenpairs(pts, M, bandwidth)

    phi = np.sqrt(n) * vecs
    # deterministic sign convention: largest-magnitude entry positive
    top = [int(np.argmax(np.abs(column))) for column in phi.T]  # no n x M temporary
    signs = np.where(phi[top, np.arange(M)] < 0, -1.0, 1.0)
    phi *= signs
    if factor is not None:
        factor = (pts[piv], T_inv, h, np.sqrt(n) * AtV * signs / lam)
    return DiffusionBasis(phi=phi, kernel_eigenvalues=lam, bandwidth=float(bandwidth),
                          points=pts, scaling=s, factor=factor)


@dataclass(frozen=True)
class ShiftMatrix:
    """Least-squares estimate of the one-step transfer operator in the
    eigenfunction basis; powers give multi-step forecasts."""

    matrix: np.ndarray


def shift_matrix(basis: DiffusionBasis,
                 weights: WeightVector | Callable | None = None) -> ShiftMatrix:
    """Weighted least-squares fit of phi(X_{n+1}) = A phi(X_n); row 0 is e_0.

    This is EDMD in the diffusion basis: A is the transpose of
    linalg.pinv_lstsq(phi[:-1], phi[1:], weights).matrix over the N - 1
    consecutive training pairs.  Dividing out the (weighted) Gram matrix of
    the basis keeps a taper from inflating the spectrum, since the basis is
    orthonormal in the uniform average only.  weights=None is the plain fit;
    a taper (WeightVector of length N - 1, or a taper function to sample
    one) reweights the pairs.  The constant eigenfunction maps to itself, so
    row 0 is e_0 up to roundoff in both modes.
    """
    n_pairs = basis.n_train - 1
    if n_pairs < 1:
        raise SizeError("shift matrix needs at least 2 consecutive training samples")
    if callable(weights):
        weights = make_weight_vector(n_pairs, weights)
    fit = linalg.pinv_lstsq(basis.phi[:-1], basis.phi[1:], weights)
    return ShiftMatrix(matrix=fit.matrix.T)


def forecast(
    basis: DiffusionBasis,
    shift: ShiftMatrix,
    x_init,
    k_max: int,
    target_observable,
) -> tuple[np.ndarray, np.ndarray | bool]:
    """Point forecasts of an observable at leads 0..k_max from one start or a block of them.

    Each start (a point (p,), or a row of an (S, p) block) is represented by
    its eigenfunction vector c (a point mass pushed through
    DiffusionBasis.extend); the lead-k prediction is ghat^T A^k c with ghat
    the empirical basis coefficients of the observable over training data,
    computed once per call, and the block of vectors steps as C <- C A^T.
    Lead 0 is the basis-truncated reconstruction of the observable at the
    start and does not involve A.

    Args:
        target_observable: the observable's N values at the training points.

    Returns:
        (predictions (k_max + 1,), in_support bool) for one start, and
        (predictions (S, k_max + 1), in_support (S,)) for a block.

    Raises:
        ConfigError: k_max not an integer >= 0.
        ShapeError: a shift matrix not M x M, or observables not N long.
        DomainError: non-finite shift matrix entries or observable values.
        ShapeError, SizeError, DomainError: starts that extend refuses.
    """
    k_max = as_integer(k_max, "k_max", ConfigError)
    if k_max < 0:
        raise ConfigError(f"k_max must be >= 0, got {k_max}")
    A = np.asarray(shift.matrix, dtype=float)
    if A.shape != (basis.M, basis.M):
        raise ShapeError(f"shift matrix has shape {A.shape}, the basis needs {(basis.M,) * 2}")
    # count_nonzero, not .all(): about 1 us less per check, which single-start calls feel
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise DomainError("shift matrix contains non-finite entries")
    g = np.asarray(target_observable, dtype=float).ravel()
    if g.shape[0] != basis.n_train:
        raise ShapeError(
            f"observable values have length {g.shape[0]}, expected {basis.n_train}")
    with np.errstate(invalid="ignore", over="ignore"):
        ghat = basis.phi.T @ g / basis.n_train
    # non-finite g spoils every coefficient: check those M, and raise, not warn
    if np.count_nonzero(np.isfinite(ghat)) < ghat.size:
        raise DomainError("observable values contain non-finite entries")
    C, in_support = basis.extend(x_init)
    leads, At = [C], A.T
    for _ in range(k_max):
        leads.append(leads[-1].dot(At))
    return (np.array(leads) @ ghat).T, in_support


@dataclass(frozen=True)
class ForecastResult:
    """Lead-time skill of a batch of forecasts.

    Arrays are indexed by lead 1..k_max; NaN marks leads with fewer than 3
    aligned prediction/truth pairs or an undefined correlation.
    climatology is the standard deviation of the validation truth.
    """

    leads: np.ndarray
    rmse: np.ndarray
    correlation: np.ndarray
    climatology: float
    n_pairs: np.ndarray


def skill(
    predictions: np.ndarray,
    truth: np.ndarray,
    climatology: float | None = None,
) -> ForecastResult:
    """Per-lead RMSE and Pearson correlation over validation starts.

    predictions and truth are (n_starts, k_max) arrays aligned by lead
    (column j = lead j+1); NaNs in truth mark unavailable comparisons.
    climatology defaults to the standard deviation of the finite truth
    values.  Leads with fewer than 3 aligned pairs, and correlations of
    constant series, are reported as NaN (missing).
    """
    P = np.atleast_2d(np.asarray(predictions, dtype=float))
    T = np.atleast_2d(np.asarray(truth, dtype=float))
    if P.shape != T.shape:
        raise ShapeError(f"predictions {P.shape} and truth {T.shape} differ")
    k_max = P.shape[1]
    rmse = np.full(k_max, np.nan)
    corr = np.full(k_max, np.nan)
    n_pairs = np.zeros(k_max, dtype=int)
    for k in range(k_max):
        mask = np.isfinite(T[:, k]) & np.isfinite(P[:, k])
        n_pairs[k] = int(mask.sum())
        if n_pairs[k] < 3:
            continue
        diff = P[mask, k] - T[mask, k]
        rmse[k] = float(np.sqrt(np.mean(diff**2)))
        ps = np.std(P[mask, k])
        ts = np.std(T[mask, k])
        # a column constant up to roundoff has no defined correlation
        p_floor = 1e-12 * (np.abs(P[mask, k]).max() + 1e-300)
        t_floor = 1e-12 * (np.abs(T[mask, k]).max() + 1e-300)
        if ps > p_floor and ts > t_floor:
            corr[k] = float(np.corrcoef(P[mask, k], T[mask, k])[0, 1])
    if climatology is None:
        finite = T[np.isfinite(T)]
        climatology = float(np.std(finite)) if finite.size else float("nan")
    return ForecastResult(leads=np.arange(1, k_max + 1), rmse=rmse,
                          correlation=corr, climatology=float(climatology),
                          n_pairs=n_pairs)


# ---------------------------------------------------------------------------
# Monthly-index pipeline


def _month_key(year: int, month: int) -> int:
    return year * 12 + (month - 1)


def _parse_month(text: str) -> int:
    try:
        y, m = (int(part) for part in text.split("-"))
    except Exception as exc:
        raise ConfigError(f"month must look like YYYY-MM, got {text!r}") from exc
    if not 1 <= m <= 12:
        raise ConfigError(f"month must lie in 1..12, got {text!r}")
    return _month_key(y, m)


def nino34_compare(
    csv_path,
    train_range: tuple[str, str] = ("1920-01", "1999-12"),
    valid_range: tuple[str, str] = ("2000-01", "2013-12"),
    lags: int = 6,
    M: int = 14,
    k_max: int = 16,
    bandwidth: float | None = None,
    w: Callable = eval_bump,
) -> tuple[ForecastResult, ForecastResult, dict]:
    """Plain and taper-weighted forecast skill on a monthly index series.

    Both runs share the delay embedding, eigenbasis, observable and starts
    (every validation month's window, one forecast call per run); they
    differ only through the shift matrix.  Returns (unweighted result,
    weighted result, details) where details carries the per-start
    forecast/truth arrays and month labels.
    """
    from .dataio import read_nino34_csv

    months, values = read_nino34_csv(csv_path)
    t0, t1 = (_parse_month(s) for s in train_range)
    v0, v1 = (_parse_month(s) for s in valid_range)
    for name, (first, last), backwards in (("training", train_range, t1 < t0),
                                           ("validation", valid_range, v1 < v0)):
        if backwards:
            raise ConfigError(f"{name} range {first}..{last} ends before it starts")
    start = _month_key(*months[0])
    if t0 < start or v1 > _month_key(*months[-1]):
        raise IngestError(
            f"file covers {months[0][0]}-{months[0][1]:02d}.."
            f"{months[-1][0]}-{months[-1][1]:02d}, which does not contain "
            "the requested train/validation ranges")
    t0, t1, v0, v1 = (key - start for key in (t0, t1, v0, v1))  # positions in the file
    if t1 - t0 + 1 < lags + 2:
        raise SizeError("training range too short for the requested embedding")
    emb = delay_embed(values[t0:t1 + 1], lags)
    if v0 < emb.offset:
        raise SizeError(
            "validation start precedes the file by more than the embedding window")
    # row i is the window ending at validation month v0 + i
    windows = delay_embed(values[v0 - emb.offset:v1 + 1], lags).points
    basis = diffusion_basis(emb, M=M, bandwidth=bandwidth)
    g = basis.points[:, -1]                     # most recent coordinate
    plain, in_support = forecast(basis, shift_matrix(basis, None), windows, k_max, g)
    tapered, _ = forecast(basis, shift_matrix(basis, w), windows, k_max, g)
    preds_u, preds_w = plain[:, 1:], tapered[:, 1:]  # leads 1..k_max
    # lead k of start i is month v0 + i + k, with truth inside the validation range
    ahead = v0 + np.arange(len(windows))[:, None] + np.arange(1, k_max + 1)
    truth = np.where(ahead <= v1, values[np.minimum(ahead, v1)], np.nan)
    climatology = float(np.std(values[v0:v1 + 1]))
    res_u = skill(preds_u, truth, climatology=climatology)
    res_w = skill(preds_w, truth, climatology=climatology)
    details = {
        "start_months": [(k // 12, k % 12 + 1) for k in range(start + v0, start + v1 + 1)],
        "predictions_unweighted": preds_u,
        "predictions_weighted": preds_w,
        "truth": truth,
        "fallback_starts": int(np.count_nonzero(~in_support)),
        "basis_eigenvalues": basis.kernel_eigenvalues,
    }
    return res_u, res_w, details
