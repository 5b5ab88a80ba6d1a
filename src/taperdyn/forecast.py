"""Nonparametric forecasting with a data-driven kernel eigenbasis.

A Gaussian kernel on (delay-embedded) training data is balanced to a
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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConfigError, DomainError, IngestError, ShapeError, SizeError
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
# rows per distance band: 32 to 256 rows time the same (_auto_bandwidth 19-35 ms
# at n = 2000 to 8000, _kernel_lower 19-26 ms at p = 3, n = 2000); 64 keeps
# each band temporary at 1 MB or less
_KERNEL_BAND = 64
_LOWRANK_CAP_DIV = 32  # the low-rank route tries at most n // 32 pivot columns
_LOWRANK_TOL = 1e-16   # and needs a residual trace of at most 1e-16 per point


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
        SizeError: lags < 1 or series shorter than lags.
    """
    s = np.asarray(series, dtype=float).ravel()
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
    retained for out-of-sample extension.
    """

    phi: np.ndarray
    kernel_eigenvalues: np.ndarray
    bandwidth: float
    points: np.ndarray
    scaling: np.ndarray

    @property
    def n_train(self) -> int:
        return self.phi.shape[0]

    @property
    def M(self) -> int:
        return self.phi.shape[1]

    def extend(self, x) -> tuple[np.ndarray, bool]:
        """Eigenfunction vector at a new point by kernel extension.

        Returns (c, in_support).  When the kernel row is numerically zero
        (point far outside the data support) the constant-mode vector is
        returned as a climatological fallback, in_support is False, and a
        warning is emitted.

        Raises:
            ShapeError: the point has the wrong dimension.
            DomainError: the point holds NaN or inf.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.points.shape[1],):
            raise ShapeError(
                f"expected a point of dimension {self.points.shape[1]}, got {x.shape}")
        if not np.isfinite(x).all():
            raise DomainError(f"extension point contains non-finite values: {x!r}")
        d2 = ((self.points - x[None, :]) ** 2).sum(axis=1)
        row = np.exp(-d2 / self.bandwidth**2)
        if row.max() < _KERNEL_FLOOR:
            warnings.warn("extension point lies outside the data support; "
                          "falling back to the climatological mode")
            c = np.zeros(self.M)
            c[0] = self.phi[0, 0]  # the constant value
            return c, False
        v = row * self.scaling
        v /= v.sum()
        return (v @ self.phi) / self.kernel_eigenvalues, True


def _pairwise_sq_dists_chunk(A: np.ndarray, B: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    # (aa + bb) - 2 A B^T rounded as written, with A B^T formed in out
    d2 = np.matmul(A, B.T, out=out)
    d2 *= 2.0
    np.subtract(aa + bb, d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _lower_bands(pts: np.ndarray, K: np.ndarray | None = None):
    """(i, j, d2) per band of _KERNEL_BAND rows: d2 = squared distances of
    rows i..j-1 to rows 0..j-1, the band's part on and below the diagonal,
    computed in K[i:j, :j] when K is given, else in one reused band buffer."""
    n = pts.shape[0]
    buf = np.empty((min(_KERNEL_BAND, n), n)) if K is None else None
    for i in range(0, n, _KERNEL_BAND):
        j = min(i + _KERNEL_BAND, n)
        out = buf[:j - i, :j] if K is None else K[i:j, :j]
        yield i, j, _pairwise_sq_dists_chunk(pts[i:j], pts[:j], out)


def _auto_bandwidth(points: np.ndarray, rng) -> float:
    """The median positive distance over distinct pairs i < j.

    Each pair is visited once and self-pairs never enter: for p > 1 the
    diagonal of the distance formula holds rounding residues, not zeros.
    The bands fill one pair buffer, and one in-place selection finds np.median's
    value bit for bit (for an even count, the mean of the two middle values).
    """
    n = points.shape[0]
    if n > _BANDWIDTH_SUBSAMPLE:
        gen = rng if rng is not None else np.random.default_rng(0)
        sub = points[gen.choice(n, size=_BANDWIDTH_SUBSAMPLE, replace=False)]
    else:
        sub = points
    m = sub.shape[0]
    positive, size = np.empty(m * (m - 1) // 2), 0
    mask = np.empty((min(_KERNEL_BAND, m), m), dtype=bool)
    for i, j, d2 in _lower_bands(sub):
        keep = np.greater(d2, 0.0, out=mask[:j - i, :j])
        # band row r keeps columns c < i + r: pairs i < j once
        keep[:, i:] &= np.tri(j - i, k=-1, dtype=bool)
        count = np.count_nonzero(keep)
        positive[size:size + count] = d2[keep]
        size += count
    if size == 0:
        raise ConfigError("auto bandwidth failed: all pairwise distances are zero")
    positive, h = positive[:size], size // 2
    positive.partition(h)
    median = positive[h] if size % 2 else (positive[:h].max() + positive[h]) / 2.0
    return float(np.sqrt(median))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _kernel_lower(pts: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel with only the part on and below the diagonal filled.

    Each band of _KERNEL_BAND rows is computed in place in K[i:j, :j], with
    no band-sized copy and no band outliving the next; nothing above the
    diagonal is ever read.
    """
    n = pts.shape[0]
    K = np.zeros((n, n))
    for _, _, band in _lower_bands(pts, K):
        band /= -bandwidth**2
        np.exp(band, out=band)
    return K


def _pivoted_cholesky(pts: np.ndarray, bandwidth: float, cap: int) -> np.ndarray | None:
    """Greedy pivoted Cholesky factor L (n x r, r <= cap) of the Gaussian kernel.

    Each step pivots on the largest residual diagonal entry and computes that
    one kernel column.  K - L L^T is positive semidefinite, so the residual
    trace sum(d) bounds ||K - L L^T||_2: L is returned once that is at most
    _LOWRANK_TOL * n, None when cap columns do not get there.
    """
    n = pts.shape[0]
    rows = np.empty((min(cap, 64), n))  # rows of L^T, doubled when full
    d = np.ones(n)
    for r in range(cap):
        if d.sum() <= _LOWRANK_TOL * n:
            return rows[:r].T
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(r, cap - r), n))])
        i = int(np.argmax(d))
        col = np.exp(((pts - pts[i]) ** 2).sum(axis=1) / -bandwidth**2)
        col -= rows[:r, i] @ rows[:r]
        col /= math.sqrt(d[i])
        rows[r] = col
        d -= col * col
        np.maximum(d, 0.0, out=d)  # rounding must not shrink the certificate
    return rows.T if d.sum() <= _LOWRANK_TOL * n else None


def _sinkhorn_scaling(matvec, n: int, tol: float = 1e-10, max_iter: int = 500):
    """Diagonal s with s_i (K s)_i = 1, balancing a positive kernel."""
    s = np.full(n, 1.0)
    s = 1.0 / np.sqrt(np.maximum(matvec(s), 1e-300))
    for _ in range(max_iter):
        r = s * matvec(s)
        err = float(np.abs(r - 1.0).max())
        if err < tol:
            return s
        s = s / np.sqrt(r)
    raise ConfigError(
        f"kernel balancing did not converge (residual {err:.3e}); "
        "the kernel may contain exact zero blocks (bandwidth too small)")


def _dense_eigenpairs(pts: np.ndarray, M: int, bandwidth: float):
    """(s, lam, vecs) of the balanced kernel from its dense lower triangle."""
    from scipy.linalg import eigh
    from scipy.linalg.blas import dsymv
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = pts.shape[0]
    kernel_bytes, memory = n * n * 8, _physical_memory_bytes()
    if kernel_bytes > memory:
        raise SizeError(f"the {n} x {n} kernel needs {kernel_bytes} bytes, more "
                        f"than the {memory} bytes of physical memory")
    K = _kernel_lower(pts, bandwidth)
    # K.T is Fortran-ordered with the filled triangle as its upper one, so
    # dsymv reads it in place and touches only that triangle
    KT = K.T
    s = _sinkhorn_scaling(lambda v: dsymv(1.0, KT, v, lower=0), n)
    if M < n - 1:
        op = LinearOperator((n, n), matvec=lambda v: s * dsymv(1.0, KT, s * v, lower=0),
                            dtype=np.float64)
        lam, vecs = eigsh(op, k=M, which="LA", v0=np.ones(n))
        order = np.argsort(lam)[::-1]
        return s, lam[order], vecs[:, order]
    # ARPACK needs M < n - 1
    K *= s[:, None]
    K *= s[None, :]
    lam, vecs = eigh(K, lower=True, check_finite=False, subset_by_index=[n - M, n - 1])
    return s, lam[::-1].copy(), vecs[:, ::-1].copy()


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
    the products L (L^T v) and the eigenpairs come from one thin SVD of
    diag(s) L.  Otherwise only the kernel's lower triangle is built (one
    N x N array) and read (BLAS dsymv), and ARPACK (eigsh) finds the leading
    eigenpairs, or a dense eigensolver when M >= N - 1.

    Args:
        points: (N, p) training data, or a DelayEmbedding.
        M: number of eigenfunctions to keep (M <= N).
        bandwidth: kernel width eps; None selects the median positive
            distance over the distinct pairs i < j of (a subsample of) the
            data.
        rng: generator used only for the bandwidth subsample on large data;
            None draws it from default_rng(0).

    Raises:
        ShapeError: training points that are not 1-D or 2-D.
        DomainError: non-finite training points.
        SizeError: M outside 1..N, or, on the dense path, an N x N kernel
            larger than the machine's physical memory.
        ConfigError: rng neither a Generator nor None, non-finite or
            non-positive bandwidth, or degenerate data under auto bandwidth.
    """
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng must be a numpy Generator or None, got {type(rng).__name__}")
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ShapeError(f"training points must be 1-D or 2-D, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("training points contain non-finite values")
    n = pts.shape[0]
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
    L = _pivoted_cholesky(pts, bandwidth, cap) if M <= cap else None
    if L is not None and M <= L.shape[1]:
        s = _sinkhorn_scaling(lambda v: L @ (L.T @ v), n)
        U, sigma, _ = np.linalg.svd(s[:, None] * L, full_matrices=False)
        # column-major like eigsh's vectors: forecasts read phi by columns
        lam, vecs = sigma[:M] ** 2, np.asfortranarray(U[:, :M])
    else:
        s, lam, vecs = _dense_eigenpairs(pts, M, bandwidth)

    phi = np.sqrt(n) * vecs
    # deterministic sign convention: largest-magnitude entry positive
    for j in range(M):
        i = int(np.argmax(np.abs(phi[:, j])))
        if phi[i, j] < 0:
            phi[:, j] = -phi[:, j]
    return DiffusionBasis(phi=phi, kernel_eigenvalues=lam, bandwidth=float(bandwidth),
                          points=pts, scaling=s)


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
) -> tuple[np.ndarray, bool]:
    """Point forecast of an observable at leads 0..k_max from one state.

    The initial condition is represented by its eigenfunction vector c at
    x_init (a point mass pushed through the kernel extension); the lead-k
    prediction is ghat^T A^k c with ghat the empirical basis coefficients
    of the observable over training data.  Lead 0 is the basis-truncated
    reconstruction of the observable at x_init and does not involve A.

    Args:
        target_observable: the observable's N values at the training points.

    Returns:
        (predictions of shape (k_max + 1,), in_support flag from extension).

    Raises:
        DomainError: non-finite observable values.
    """
    if k_max < 0:
        raise ConfigError(f"k_max must be >= 0, got {k_max}")
    g = np.asarray(target_observable, dtype=float).ravel()
    if g.shape[0] != basis.n_train:
        raise ShapeError(
            f"observable values have length {g.shape[0]}, expected {basis.n_train}")
    with np.errstate(invalid="ignore", over="ignore"):
        ghat = basis.phi.T @ g / basis.n_train
    # non-finite g spoils every coefficient: check those M, and raise, not warn
    if not np.isfinite(ghat).all():
        raise DomainError("observable values contain non-finite entries")
    c, ok = basis.extend(x_init)
    preds = np.empty(k_max + 1)
    vec = c.copy()
    preds[0] = ghat @ vec
    for k in range(1, k_max + 1):
        vec = shift.matrix @ vec
        preds[k] = ghat @ vec
    return preds, ok


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
        y, m = text.split("-")
        key = _month_key(int(y), int(m))
    except Exception as exc:
        raise ConfigError(f"month must look like YYYY-MM, got {text!r}") from exc
    return key


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

    Both runs share the same delay embedding, eigenbasis, observable
    coefficients, and initial vectors; they differ only through the shift
    matrix.  Returns (unweighted result, weighted result, details) where
    details carries the per-start forecast/truth arrays and month labels.
    """
    from .dataio import read_nino34_csv

    months, values = read_nino34_csv(csv_path)
    keys = [_month_key(y, m) for y, m in months]
    t0, t1 = (_parse_month(s) for s in train_range)
    v0, v1 = (_parse_month(s) for s in valid_range)
    if t0 < keys[0] or v1 > keys[-1]:
        raise IngestError(
            f"file covers {months[0][0]}-{months[0][1]:02d}.."
            f"{months[-1][0]}-{months[-1][1]:02d}, which does not contain "
            "the requested train/validation ranges")
    start = keys[0]

    def pos(key: int) -> int:
        return key - start

    train_series = values[pos(t0): pos(t1) + 1]
    if train_series.shape[0] < lags + 2:
        raise SizeError("training range too short for the requested embedding")
    emb = delay_embed(train_series, lags)
    basis = diffusion_basis(emb, M=M, bandwidth=bandwidth)
    A_unw = shift_matrix(basis, None)
    A_w = shift_matrix(basis, w)
    g = basis.points[:, -1]                     # most recent coordinate
    ghat = basis.phi.T @ g / basis.n_train

    starts = list(range(v0, v1 + 1))
    if pos(v0) - lags + 1 < 0:
        raise SizeError(
            "validation start precedes the file by more than the embedding window")
    n_starts = len(starts)
    preds_u = np.full((n_starts, k_max), np.nan)
    preds_w = np.full((n_starts, k_max), np.nan)
    truth = np.full((n_starts, k_max), np.nan)
    fallbacks = 0
    for si, s_key in enumerate(starts):
        window = values[pos(s_key) - lags + 1: pos(s_key) + 1]
        c, ok = basis.extend(window)
        if not ok:
            fallbacks += 1
        vec_u = c.copy()
        vec_w = c.copy()
        for k in range(1, k_max + 1):
            vec_u = A_unw.matrix @ vec_u
            vec_w = A_w.matrix @ vec_w
            preds_u[si, k - 1] = ghat @ vec_u
            preds_w[si, k - 1] = ghat @ vec_w
            if s_key + k <= v1:
                truth[si, k - 1] = values[pos(s_key + k)]
    valid_series = values[pos(v0): pos(v1) + 1]
    climatology = float(np.std(valid_series))
    res_u = skill(preds_u, truth, climatology=climatology)
    res_w = skill(preds_w, truth, climatology=climatology)
    details = {
        "start_months": [(k // 12, k % 12 + 1) for k in starts],
        "predictions_unweighted": preds_u,
        "predictions_weighted": preds_w,
        "truth": truth,
        "fallback_starts": fallbacks,
        "basis_eigenvalues": basis.kernel_eigenvalues,
    }
    return res_u, res_w, details

