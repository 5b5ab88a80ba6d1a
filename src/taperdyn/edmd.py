"""Dictionary-based Koopman approximation from snapshot data.

Builds dictionary data matrices, fits the least-squares Koopman matrix with
optional taper weighting, and provides the measure-preserving variant whose
spectrum is constrained to the unit circle via a polar-type construction in
the data Gram inner product.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConfigError, DomainError, ShapeError, SizeError
from .systems import Trajectory
from .weights import WeightVector

__all__ = [
    "Dictionary",
    "DictionaryMatrices",
    "KoopmanMatrix",
    "MpedmdResult",
    "fourier_dictionary",
    "monomial_dictionary",
    "identity_dictionary",
    "build_dictionary_matrices",
    "edmd",
    "mpedmd",
]

@dataclass(frozen=True)
class Dictionary:
    """A finite dictionary of observables.

    evaluate maps an (N, d) block of states to an (N, size) complex matrix,
    one column per dictionary element.
    """

    size: int
    dim: int
    evaluate: Callable

    def __call__(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        if states.shape[1] != self.dim:
            raise ShapeError(
                f"dictionary expects dimension {self.dim}, got {states.shape[1]}")
        out = self.evaluate(states)
        if out.shape != (states.shape[0], self.size):
            raise ShapeError(
                f"dictionary returned shape {out.shape}, "
                f"expected ({states.shape[0]}, {self.size})")
        return out


def fourier_dictionary(max_index: int, dim: int = 2) -> Dictionary:
    """Complex exponentials x -> exp(i (k_1 x_1 + ... + k_d x_d)) on a 2 pi torus.

    Index tuples k run over {-max_index..max_index}^dim in lexicographic
    order, so the matrix layout is reproducible.
    """
    if max_index < 0 or dim < 1:
        raise ConfigError("max_index >= 0 and dim >= 1 required")

    def evaluate(states):
        # one exponential per coordinate and a kron-style expansion of the
        # integer powers; the expansion order reproduces the lexicographic
        # index layout of itertools.product
        n = states.shape[0]
        per_axis = []
        for axis in range(states.shape[1]):
            z = np.exp(1j * states[:, axis])
            block = np.empty((n, 2 * max_index + 1), dtype=complex)
            block[:, max_index] = 1.0
            for p in range(1, max_index + 1):
                block[:, max_index + p] = block[:, max_index + p - 1] * z
                block[:, max_index - p] = np.conj(block[:, max_index + p])
            per_axis.append(block)
        out = per_axis[0]
        for block in per_axis[1:]:
            out = (out[:, :, None] * block[:, None, :]).reshape(n, -1)
        return out

    return Dictionary(size=(2 * max_index + 1) ** dim, dim=dim, evaluate=evaluate)


def _monomial_exponents(max_degree: int, dim: int) -> list[tuple[int, ...]]:
    # graded lexicographic: total degree first, then lexicographic
    exps = []
    for total in range(max_degree + 1):
        level = [e for e in itertools.product(range(total + 1), repeat=dim)
                 if sum(e) == total]
        exps.extend(sorted(level))
    return exps


def monomial_dictionary(max_degree: int, dim: int = 1) -> Dictionary:
    """All monomials of total degree <= max_degree, graded-lex ordered.

    For dim = 1 this is (1, x, x^2, ..., x^max_degree).
    """
    if max_degree < 0 or dim < 1:
        raise ConfigError("max_degree >= 0 and dim >= 1 required")
    exps = np.array(_monomial_exponents(max_degree, dim))

    def evaluate(states):
        out = np.ones((states.shape[0], exps.shape[0]), dtype=complex)
        for j, e in enumerate(exps):
            for axis, p in enumerate(e):
                if p:
                    out[:, j] *= states[:, axis] ** p
        return out

    return Dictionary(size=exps.shape[0], dim=dim, evaluate=evaluate)


def identity_dictionary(dim: int) -> Dictionary:
    """The state coordinates themselves; reduces EDMD to a transposed DMD fit."""
    if dim < 1:
        raise ConfigError("dim >= 1 required")

    def evaluate(states):
        return states.astype(complex)

    return Dictionary(size=dim, dim=dim, evaluate=evaluate)


@dataclass(frozen=True)
class DictionaryMatrices:
    """Dictionary evaluations along a trajectory.

    Row n of Psi is psi(X_n) and row n of Phi is phi(X_{n+1}), so both share
    the same row count and row n describes one transition.
    """

    Psi: np.ndarray
    Phi: np.ndarray

    def __post_init__(self):
        if self.Psi.shape[0] != self.Phi.shape[0]:
            raise ShapeError(
                f"row counts differ: Psi {self.Psi.shape}, Phi {self.Phi.shape}")

    @property
    def n_pairs(self) -> int:
        return self.Psi.shape[0]

    def prefix(self, N: int) -> "DictionaryMatrices":
        """First N transitions; used by window sweeps."""
        if N > self.n_pairs:
            raise SizeError(f"prefix {N} exceeds {self.n_pairs} rows")
        return DictionaryMatrices(self.Psi[:N], self.Phi[:N])


def build_dictionary_matrices(
    traj: Trajectory | np.ndarray,
    psi: Dictionary,
) -> DictionaryMatrices:
    """Evaluate a dictionary along a trajectory of at least 3 states."""
    states = np.asarray(getattr(traj, "states", traj))
    if states.ndim == 1:
        states = states[:, None]
    if states.shape[0] < 3:
        raise SizeError(f"need at least 3 states, got {states.shape[0]}")
    full = psi(states)  # one evaluation, two overlapping row windows
    return DictionaryMatrices(Psi=full[:-1], Phi=full[1:])


@dataclass(frozen=True)
class KoopmanMatrix:
    """Least-squares Koopman approximation on the chosen dictionaries."""

    matrix: np.ndarray
    effective_rank: int = 0


def edmd(mats: DictionaryMatrices, weights: WeightVector | None = None) -> KoopmanMatrix:
    """Minimal-norm minimizer of ||W^(1/2)(Phi - Psi K)||_F.

    weights=None gives the plain fit K = pinv(Psi) Phi; a taper reweights the
    transition rows inside the same truncated-SVD solve.

    Raises:
        ShapeError: weight length differs from the transition count.
        DomainError: Psi or Phi holds NaN or infinity.
    """
    sol = linalg.pinv_lstsq(mats.Psi, mats.Phi, weights)
    return KoopmanMatrix(matrix=sol.matrix, effective_rank=sol.effective_rank)


@dataclass(frozen=True)
class MpedmdResult:
    """Koopman approximation constrained to be unitary in the data Gram
    inner product, so all eigenvalues lie on the unit circle."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gram: np.ndarray


def mpedmd(mats: DictionaryMatrices, weights: WeightVector | None = None) -> MpedmdResult:
    """Measure-preserving Koopman fit via an SVD polar construction.

    With G = Psi* W Psi and A = Psi* W Phi, the SVD U1 S U2* of
    G^(-1/2) A* G^(-1/2) yields K = G^(-1/2) U2 U1* G^(1/2), which satisfies
    K* G K = G exactly up to roundoff; its spectrum lies on the unit circle.

    Requires phi = psi (square, same dictionary).  Ill-conditioned G raises
    rather than silently truncating, because the unitary structure degrades
    silently under rank truncation.

    Raises:
        ShapeError: weight length differs from the transition count.
        DomainError: Psi or Phi holds NaN or infinity.
        ConditioningError: G is indefinite or ill-conditioned at the
            linalg.DEFAULT_REL_TOL cutoff.
        NumericalError: the eigendecomposition of the unitary factor fails.
    """
    if mats.Psi.shape[1] != mats.Phi.shape[1]:
        raise ShapeError("mpedmd requires matching dictionary sizes (phi = psi)")
    N = mats.n_pairs
    if weights is not None:
        if len(weights) != N:
            raise ShapeError(f"weight length {len(weights)} != transition count {N}")
        wn = weights.normalized
    else:
        wn = np.full(N, 1.0 / N)
    with np.errstate(invalid="ignore"):  # inf * 0 on a zero-weight row
        Psi_w = mats.Psi * np.sqrt(wn)[:, None]
        Phi_w = mats.Phi * np.sqrt(wn)[:, None]
        G = Psi_w.conj().T @ Psi_w
        A = Psi_w.conj().T @ Phi_w
    if not (np.isfinite(G).all() and np.isfinite(A).all()):
        raise DomainError("mpedmd data hold NaN or infinity")
    G_half, G_inv_half = linalg.sym_sqrt_inv(G)
    U1, _, U2h = np.linalg.svd(G_inv_half @ A.conj().T @ G_inv_half)
    U21 = U2h.conj().T @ U1.conj().T
    lam, Vhat = linalg.eig(U21)
    K = G_inv_half @ U21 @ G_half
    V = G_inv_half @ Vhat
    return MpedmdResult(matrix=K, eigenvalues=lam, eigenvectors=V, gram=G)
