"""Dictionary-based Koopman approximation from snapshot data.

Builds dictionary data matrices, fits the least-squares Koopman matrix with
optional taper weighting, and provides the measure-preserving variant whose
spectrum is constrained to the unit circle via a polar-type construction in
the data Gram inner product.  Both fits reach the data through linalg's one
weighted TSQR reduction.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConditioningError, ConfigError, ShapeError, SizeError
from .systems import Trajectory
from .weights import WeightVector, check_weights

__all__ = [
    "Dictionary",
    "DictionaryMatrices",
    "KoopmanMatrix",
    "MpedmdResult",
    "fourier_dictionary",
    "monomial_dictionary",
    "identity_dictionary",
    "build_dictionary_matrices",
    "evaluate_transitions",
    "edmd",
    "mpedmd",
]

@dataclass(frozen=True)
class Dictionary:
    """A finite dictionary of observables.

    evaluate maps an (N, d) block of states to an (N, size) complex matrix,
    one column per dictionary element.  It must be row-wise (row n depends on
    state n alone): fits evaluate a trajectory one block of rows at a time.
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


def _read_only_copy(array) -> np.ndarray:
    array = np.array(array)
    array.setflags(write=False)
    return array


class DictionaryMatrices:
    """Dictionary evaluations along a trajectory, read one row block at a time.

    Row n of Psi is psi(X_n) and row n of Phi is phi(X_{n+1}), so both share
    the same row count and row n describes one transition.  Built from a
    trajectory, it holds a read-only copy of the states and evaluates the
    dictionary per TSQR block; DictionaryMatrices(Psi, Phi) holds read-only
    copies of a pair.  Psi and Phi are evaluated on their first read and
    kept, and no fit reads them: the fits share the last weighted R factor
    while the weights are equal.
    """

    def __init__(self, Psi, Phi):
        Psi, Phi = _read_only_copy(Psi), _read_only_copy(Phi)
        if Psi.ndim != 2 or Phi.ndim != 2 or Psi.shape[0] != Phi.shape[0]:
            raise ShapeError(f"Psi {Psi.shape}, Phi {Phi.shape}: need 2-D, equal row counts")
        self._read(lambda start, stop: (Psi[start:stop], Phi[start:stop]), Psi.shape[0])

    def _read(self, rows, n_pairs: int) -> "DictionaryMatrices":
        """Read n_pairs transitions from rows(start, stop); every instance is set up here."""
        self._rows, self.n_pairs, self._reduced = rows, n_pairs, None
        return self

    _pair = functools.cached_property(lambda self: self._rows(0, self.n_pairs))
    Psi = property(lambda self: self._pair[0])
    Phi = property(lambda self: self._pair[1])

    def prefix(self, N: int) -> "DictionaryMatrices":
        """First N transitions, read from the same data; used by window sweeps."""
        if N > self.n_pairs:
            raise SizeError(f"prefix {N} exceeds {self.n_pairs} rows")
        return object.__new__(DictionaryMatrices)._read(self._rows, N)

    def _reduce(self, weights: WeightVector | None) -> tuple[np.ndarray, np.ndarray]:
        """linalg._reduce of these rows, computed once while the weights are equal."""
        check_weights(weights)
        raw = None if weights is None else weights.raw
        # array_equal(None, x) holds for x = None alone, so plain fits key on
        # None; a vector's raw array is its own read-only copy, so it is the key
        if self._reduced is None or not np.array_equal(self._reduced[0], raw):
            factors = linalg._reduce(self._rows, self.n_pairs, weights)
            for factor in factors:
                factor.setflags(write=False)
            self._reduced = (raw, factors)
        return self._reduced[1]


def evaluate_transitions(states: np.ndarray, psi: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Psi and Phi rows of the transitions along m + 1 states, psi(X_n) and
    psi(X_{n+1}) for n < m: two overlapping, read-only views of one evaluation."""
    values = psi(states)
    values.setflags(write=False)
    return values[:-1], values[1:]


def build_dictionary_matrices(
    traj: Trajectory | np.ndarray,
    psi: Dictionary,
) -> DictionaryMatrices:
    """Dictionary matrices along a trajectory of at least 3 states."""
    states = _read_only_copy(getattr(traj, "states", traj))
    if states.ndim == 1:
        states = states[:, None]
    if states.shape[0] < 3:
        raise SizeError(f"need at least 3 states, got {states.shape[0]}")
    if states.shape[1] != psi.dim:
        raise ShapeError(f"dictionary expects dimension {psi.dim}, got {states.shape[1]}")
    return object.__new__(DictionaryMatrices)._read(
        lambda start, stop: evaluate_transitions(states[start:stop + 1], psi), states.shape[0] - 1)


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
        ConfigError: weights neither a WeightVector nor None.
        ShapeError: weight length differs from the transition count.
        DomainError: Psi or Phi holds NaN or infinity.
    """
    sol = linalg.pinv_lstsq(*mats._reduce(weights))
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
    """Measure-preserving Koopman fit from the R factor of the weighted data.

    With [W^½Psi | W^½Phi] = Q [[R11, R12], [0, R22]] (the TSQR reduction
    of linalg.pinv_lstsq, then one QR of the small factor), the Gram matrix
    is G = Psi* W Psi = R11* R11 and Psi* W Phi = R11* R12.  With U the
    polar factor of R12 R11^-1, K = R11^-1 U R11 satisfies K* G K = G up to
    roundoff, so its spectrum lies on the unit circle; in exact arithmetic
    it equals G^-½ polar(G^-½ Psi* W Phi G^-½) G^½.  Working on R11 rather
    than G keeps the conditioning of the data instead of squaring it.
    gram is G with the weights normalized to sum 1 (1/N each when plain).

    Requires phi = psi (square, same dictionary).  Ill-conditioned data
    raise rather than silently truncating, because the unitary structure
    degrades silently under rank truncation.

    Raises:
        ConfigError: weights neither a WeightVector nor None.
        ShapeError: weight length differs from the transition count.
        DomainError: Psi or Phi holds NaN or infinity.
        ConditioningError: the eigenvalue ratio of G, sigma_min(R11)^2 /
            sigma_max(R11)^2, is at or below linalg.DEFAULT_REL_TOL.
        NumericalError: the eigendecomposition of the unitary factor fails.
    """
    R_Psi, R_Phi = mats._reduce(weights)
    L = R_Psi.shape[1]
    if R_Phi.shape[1] != L:
        raise ShapeError("mpedmd requires matching dictionary sizes (phi = psi)")
    R = np.linalg.qr(np.hstack((R_Psi, R_Phi)), mode="r")
    R11, R12 = R[:L, :L], R[:L, L:]
    sigma = np.linalg.svd(R11, compute_uv=False)
    ratio = (sigma[-1] / sigma[0]) ** 2 if R11.shape[0] == L and sigma[0] > 0 else 0.0
    if ratio <= linalg.DEFAULT_REL_TOL:
        raise ConditioningError(
            f"Gram matrix ill-conditioned at cutoff {linalg.DEFAULT_REL_TOL:g}: "
            f"eigenvalue ratio min/max = {ratio:.3e}")
    # R12 R11^-1 as the transposed solve R11^T X^T = R12^T
    U_s, _, Vh_s = np.linalg.svd(np.linalg.solve(R11.T, R12.T).T)
    U = U_s @ Vh_s
    lam, Vhat = linalg.eig(U)
    total = mats.n_pairs if weights is None else weights.raw.sum()
    return MpedmdResult(matrix=np.linalg.solve(R11, U @ R11), eigenvalues=lam,
                        eigenvectors=np.linalg.solve(R11, Vhat),
                        gram=R11.conj().T @ R11 / total)
