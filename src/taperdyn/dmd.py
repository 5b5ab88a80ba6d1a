"""Best-fit linear propagators between consecutive snapshots, with optional
taper weighting, random orthonormal projection of high-dimensional data, and
the window-length error sweep used for convergence benchmarking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError, SizeError
from .systems import RngStream, Trajectory
from .weights import WeightVector, eval_bump, make_weight_vector

__all__ = [
    "DmdResult",
    "ProjectionBasis",
    "DmdSweepRow",
    "dmd",
    "random_projection",
    "project",
    "dmd_error_sweep",
    "spectrum_distance",
]

_UNSCALED_LOW, _UNSCALED_HIGH = 2.0**-500, 2.0**500


@dataclass(frozen=True)
class DmdResult:
    """Fitted propagator with its spectrum.

    matrix maps a snapshot to the best-fit next snapshot; eigenvalues are
    sorted by descending modulus and modes holds the matching eigenvectors.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray


def dmd(X: np.ndarray, Y: np.ndarray, weights: WeightVector | None = None) -> DmdResult:
    """Fit A minimizing ||W^(1/2)(Y - X A^T)||_F: row n of Y from row n of X.

    Samples are rows: X holds the snapshots x_0..x_{N-1} and Y their
    successors, both N x d.  With weights=None this is the classical fit
    A^T = pinv(X) Y.  The taper weights the N snapshot pairs, which leaves
    any exactly consistent linear model unchanged but accelerates
    convergence of the fit on ergodic data.  The caller's arrays are only read.

    Raises:
        ShapeError: X and Y are not 2-D arrays of one shape, or the weight
            length differs from the number of snapshot pairs.
        SizeError: fewer than 2 snapshot pairs.
        DomainError: the snapshots hold NaN or infinity.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    if X.ndim != 2 or X.shape != Y.shape:
        raise ShapeError(f"X {X.shape} and Y {Y.shape} must be N x d arrays of one shape")
    if X.shape[0] < 2:
        raise SizeError("need at least 2 snapshot pairs")
    A = linalg.pinv_lstsq(X, Y, weights).matrix.T
    values, vectors = linalg.eig(A)
    return DmdResult(matrix=A, eigenvalues=values, modes=vectors)


@dataclass(frozen=True)
class ProjectionBasis:
    """Random orthonormal columns used to compress high-dimensional snapshots."""

    U: np.ndarray
    seed: int

    @property
    def rank(self) -> int:
        return self.U.shape[1]


def random_projection(D: int, r: int, seed: int) -> ProjectionBasis:
    """Orthonormal basis U (D x r) from the QR of a seeded Gaussian matrix.

    Raises:
        ShapeError: r > D.
    """
    if r > D or r < 1:
        raise ShapeError(f"need 1 <= r <= D, got r={r}, D={D}")
    gen = RngStream(seed, "random_projection").generator()
    G = gen.standard_normal((D, r))
    Q, R = np.linalg.qr(G)
    # fix signs so the basis is unique given the seed
    Q = Q * np.sign(np.diag(R))
    return ProjectionBasis(U=Q, seed=seed)


def project(traj: Trajectory, basis: ProjectionBasis) -> Trajectory:
    """Multiply each snapshot by U^T, compressing states to r coordinates."""
    states = traj.states
    if states.shape[1] != basis.U.shape[0]:
        raise ShapeError(
            f"state dimension {states.shape[1]} != projection rows {basis.U.shape[0]}")
    meta = dict(traj.meta)
    meta["projected_rank"] = basis.rank
    meta["projection_seed"] = basis.seed
    return Trajectory(states @ basis.U, dt=traj.dt, seed=traj.seed, meta=meta)


def _assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square cost matrix.

    Shortest augmenting paths with dual potentials (Jonker-Volgenant; Burkard,
    Dell'Amico & Martello, Assignment Problems, 2009, ch. 4), scanning columns
    and breaking ties as scipy.optimize.linear_sum_assignment does, so the two
    give the same assignment.  Plain lists are the fastest form at n <= 20.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        dist, remaining = [math.inf] * n, list(range(n - 1, -1, -1))
        rows, cols, i, low = [], [], cur, 0.0
        while True:  # grow shortest paths from row cur to a free column
            base, row, ui = low, cost[i], u[i]
            low, index = math.inf, -1
            for k, j in enumerate(remaining):
                d, r = dist[j], base + row[j] - ui - v[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < low or (d == low and row4col[j] == -1):
                    low, index = d, k
            j = remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows.append(i)
        u[cur] += low
        for i in rows:
            u[i] += low - dist[col4row[i]]
        for k in cols:
            v[k] -= low - dist[k]
        while True:  # flip the path's matched and unmatched edges
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def spectrum_distance(values: np.ndarray, reference: np.ndarray) -> float:
    """Normalized l2 distance between two spectra under optimal pairing.

    Eigenvalues are matched by a minimal-cost assignment, so the result is
    independent of the order either eigensolver returned them in and stable
    when moduli are nearly tied (where lexicographic sorting would flip).
    With a zero reference the distance is absolute.

    Raises:
        ShapeError: the spectra differ in size.
        DomainError: either spectrum holds NaN or infinity.
    """
    a = np.asarray(values, dtype=complex).ravel()
    b = np.asarray(reference, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"spectra sizes differ: {a.shape} vs {b.shape}")
    top = float(np.abs(np.concatenate([a, b]).view(float)).max(initial=0.0))
    if not math.isfinite(top):
        raise DomainError("spectra contain NaN or infinite eigenvalues")
    if top == 0.0 or _UNSCALED_LOW <= top <= _UNSCALED_HIGH:
        scale, denom = 1.0, float(np.linalg.norm(b))
    else:  # an exact power-of-two rescale keeps every |a - b|^2 finite and normal
        scale, denom = math.ldexp(1.0, -math.frexp(top)[1]), math.hypot(*b.view(float).tolist())
    cost = np.abs(a[:, None] * scale - b[None, :] * scale) ** 2
    cols = _assignment(cost.tolist())
    gap = math.sqrt(cost[np.arange(a.size), cols].sum()) / scale
    return gap / denom if denom > 0 else gap


@dataclass(frozen=True)
class DmdSweepRow:
    """Relative matrix and spectrum errors at one window length."""

    N: int
    relerr_matrix_unw: float
    relerr_matrix_w: float
    relerr_eigs_unw: float
    relerr_eigs_w: float


def dmd_error_sweep(
    traj: Trajectory,
    N_values: Sequence[int],
    benchmark_N: int,
    w: Callable = eval_bump,
) -> list[DmdSweepRow]:
    """Relative errors of plain and tapered fits against a long tapered benchmark.

    For each window length N the propagator is fitted from the first N
    snapshot pairs, with and without weighting, and compared in relative
    Frobenius norm (and spectrum distance) to the weighted fit at benchmark_N.

    Raises:
        SizeError: no window lengths, a benchmark shorter than the largest
            requested window, or a trajectory shorter than benchmark_N + 1 states.
    """
    if len(N_values) == 0:
        raise SizeError("DMD error sweep needs at least one window length")
    if max(N_values) > benchmark_N:
        raise SizeError(
            f"max(N_values)={max(N_values)} exceeds benchmark_N={benchmark_N}")
    if len(traj) < benchmark_N + 1:
        raise SizeError(
            f"trajectory has {len(traj)} states; benchmark needs {benchmark_N + 1}")
    states = traj.states
    bench = dmd(states[:benchmark_N], states[1:benchmark_N + 1],
                make_weight_vector(benchmark_N, w))
    bench_norm = np.linalg.norm(bench.matrix)
    rows = []
    for N in sorted(int(n) for n in N_values):
        X, Y = states[:N], states[1:N + 1]
        unw = dmd(X, Y, None)
        wt = dmd(X, Y, make_weight_vector(N, w))
        rows.append(DmdSweepRow(
            N=N,
            relerr_matrix_unw=float(np.linalg.norm(unw.matrix - bench.matrix) / bench_norm),
            relerr_matrix_w=float(np.linalg.norm(wt.matrix - bench.matrix) / bench_norm),
            relerr_eigs_unw=spectrum_distance(unw.eigenvalues, bench.eigenvalues),
            relerr_eigs_w=spectrum_distance(wt.eigenvalues, bench.eigenvalues),
        ))
    return rows
