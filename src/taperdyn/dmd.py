"""Best-fit linear propagators between consecutive snapshots, with optional
taper weighting, random orthonormal projection of high-dimensional data, and
the window-length error sweep used for convergence benchmarking.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import ShapeError, SizeError
from .systems import RngStream, Trajectory
from .weights import WeightVector, eval_bump, make_weight_vector

__all__ = [
    "SnapshotPair",
    "DmdResult",
    "ProjectionBasis",
    "DmdSweepRow",
    "snapshot_pair",
    "dmd",
    "random_projection",
    "project",
    "dmd_error_sweep",
    "spectrum_distance",
]


@dataclass(frozen=True)
class SnapshotPair:
    """Snapshot matrices X (columns X_1..X_N) and its one-step shift Y."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.shape != self.Y.shape:
            raise ShapeError(f"X {self.X.shape} and Y {self.Y.shape} must match")
        if self.X.shape[1] < 2:
            raise SizeError("need at least 2 snapshot columns")

    @property
    def n_pairs(self) -> int:
        return self.X.shape[1]


def snapshot_pair(traj: Trajectory | np.ndarray) -> SnapshotPair:
    """Arrange a trajectory of N+1 states into d x N matrices (X, Y)."""
    states = np.asarray(getattr(traj, "states", traj))
    if states.ndim == 1:
        states = states[:, None]
    return SnapshotPair(X=states[:-1].T.copy(), Y=states[1:].T.copy())


@dataclass(frozen=True)
class DmdResult:
    """Fitted propagator with its spectrum.

    matrix maps a snapshot to the best-fit next snapshot; eigenvalues are
    sorted by descending modulus and modes holds the matching eigenvectors.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray


def dmd(pair: SnapshotPair, weights: WeightVector | None = None) -> DmdResult:
    """Fit A minimizing ||Y_w - A X_w||_F with tapered snapshot matrices.

    With weights=None this is the classical pseudoinverse fit A = Y pinv(X).
    The taper multiplies both snapshot matrices by W^(1/2) columnwise, which
    leaves any exactly consistent linear model unchanged but accelerates
    convergence of the fit on ergodic data.

    Raises:
        ShapeError: weight length differs from the number of snapshot pairs.
        DomainError: the snapshots hold NaN or infinity.
    """
    A = linalg.pinv_lstsq(pair.X.T, pair.Y.T, weights).matrix.T
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


def spectrum_distance(values: np.ndarray, reference: np.ndarray) -> float:
    """Normalized l2 distance between two spectra under optimal pairing.

    Eigenvalues are matched by a minimal-cost assignment, so the result is
    independent of the order either eigensolver returned them in and stable
    when moduli are nearly tied (where lexicographic sorting would flip).
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(values, dtype=complex).ravel()
    b = np.asarray(reference, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"spectra sizes differ: {a.shape} vs {b.shape}")
    cost = np.abs(a[:, None] - b[None, :]) ** 2
    rows, cols = linear_sum_assignment(cost)
    denom = np.linalg.norm(b)
    return float(np.sqrt(cost[rows, cols].sum()) / (denom if denom > 0 else 1.0))


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
    pair_full = snapshot_pair(traj)
    bench = dmd(
        SnapshotPair(pair_full.X[:, :benchmark_N], pair_full.Y[:, :benchmark_N]),
        make_weight_vector(benchmark_N, w))
    bench_norm = np.linalg.norm(bench.matrix)
    rows = []
    for N in sorted(int(n) for n in N_values):
        sub = SnapshotPair(pair_full.X[:, :N], pair_full.Y[:, :N])
        unw = dmd(sub, None)
        wt = dmd(sub, make_weight_vector(N, w))
        rows.append(DmdSweepRow(
            N=N,
            relerr_matrix_unw=float(np.linalg.norm(unw.matrix - bench.matrix) / bench_norm),
            relerr_matrix_w=float(np.linalg.norm(wt.matrix - bench.matrix) / bench_norm),
            relerr_eigs_unw=spectrum_distance(unw.eigenvalues, bench.eigenvalues),
            relerr_eigs_w=spectrum_distance(wt.eigenvalues, bench.eigenvalues),
        ))
    return rows
