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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import ConditioningError, ConfigError, ShapeError, SizeError, as_integer
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

    Calling it maps an (N, d) block of states to an (N, size) complex matrix,
    one column per dictionary element.  evaluate computes that block's
    features, and it must be row-wise (row n depends on state n alone): fits
    evaluate a trajectory one block of rows at a time.  A caller-built
    Dictionary(size, dim, evaluate) returns the complex values themselves.
    The built-in dictionaries evaluate real features instead, and their
    private field _to_complex maps the columns of any real array to complex
    values exactly (its coefficients are 0, +-1 and +-i), so their fits
    reduce real data and map only the small factors.
    """

    size: int
    dim: int
    evaluate: Callable
    _to_complex: Callable | None = field(default=None, repr=False)

    def _features(self, states: np.ndarray) -> np.ndarray:
        """evaluate on the states as a 2-D float array, both shapes checked."""
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

    def __call__(self, states: np.ndarray) -> np.ndarray:
        out = self._features(states)
        return out if self._to_complex is None else self._to_complex(out)


def _as_complex(features: np.ndarray) -> np.ndarray:
    return features.astype(complex)


def fourier_dictionary(max_index: int, dim: int = 2) -> Dictionary:
    """Complex exponentials x -> exp(i (k_1 x_1 + ... + k_d x_d)) on a 2 pi torus.

    Index tuples k run over {-max_index..max_index}^dim in lexicographic
    order, so the matrix layout is reproducible.  The layout reverses under
    k -> -k, so on real states column L-1-j is the conjugate of column j, and
    the centre column c = (L-1)/2 is the constant.  The real features are
    Re psi_j and Im psi_j in columns 2j and 2j + 1 for j < c, and the
    constant last.  The order changes only the rounding of the fits: with
    the constant in the middle, as in the complex layout, EDMD fits of 10
    standard-map orbits, plain and tapered, erred about ten times more
    against a 32-digit reference (README).
    """
    max_index = as_integer(max_index, "max_index", ConfigError, 0)
    dim = as_integer(dim, "dim", ConfigError, 1)
    size = (2 * max_index + 1) ** dim
    c = size // 2

    def evaluate(states):
        # the columns j <= c of the products of per-axis powers exp(i p x),
        # p = -max_index..max_index, in lexicographic order and formed left
        # to right; None stands for the power 0, which is 1
        n = states.shape[0]
        values = [None]
        with np.errstate(invalid="ignore"):  # a non-finite state: the fit refuses its NaN
            for axis in range(dim):
                z, up = np.exp(1j * states[:, axis]), []
                for _ in range(max_index):
                    up.append(up[-1] * z if up else z)
                pairs = itertools.product(values, [np.conj(u) for u in up[::-1]] + [None] + up)
                last = c + 1 if axis == dim - 1 else None
                values = [b if a is None else a if b is None else a * b
                          for a, b in itertools.islice(pairs, last)]
        features = np.empty((n, size))
        features[:, -1] = 1.0
        for j, value in enumerate(values[:c]):
            features[:, 2 * j], features[:, 2 * j + 1] = value.real, value.imag
        return features

    def to_complex(features):
        values = np.empty(features.shape, dtype=complex)
        values.real[:, :c], values.imag[:, :c] = features[:, 0:-1:2], features[:, 1:-1:2]
        values[:, c] = features[:, -1]
        values[:, c + 1:] = np.conj(values[:, :c][:, ::-1])
        return values

    return Dictionary(size=size, dim=dim, evaluate=evaluate, _to_complex=to_complex)


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

    For dim = 1 this is (1, x, x^2, ..., x^max_degree).  The features are
    the monomials themselves.
    """
    max_degree = as_integer(max_degree, "max_degree", ConfigError, 0)
    dim = as_integer(dim, "dim", ConfigError, 1)
    exps = np.array(_monomial_exponents(max_degree, dim))

    def evaluate(states):
        out = np.ones((states.shape[0], exps.shape[0]))
        # a huge state overflows to inf (and inf * 0 to NaN): the fit refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            for j, e in enumerate(exps):
                for axis, p in enumerate(e):
                    if p:
                        out[:, j] *= states[:, axis] ** p
        return out

    return Dictionary(size=exps.shape[0], dim=dim, evaluate=evaluate, _to_complex=_as_complex)


def identity_dictionary(dim: int) -> Dictionary:
    """The state coordinates themselves; reduces EDMD to a transposed DMD fit."""
    dim = as_integer(dim, "dim", ConfigError, 1)

    def evaluate(states):
        return states.copy()  # the fits freeze what evaluate returns

    return Dictionary(size=dim, dim=dim, evaluate=evaluate, _to_complex=_as_complex)


def _read_only_copy(array) -> np.ndarray:
    array = np.array(array)
    array.setflags(write=False)
    return array


class DictionaryMatrices:
    """Dictionary evaluations along a trajectory, read one row block at a time.

    Row n of Psi is psi(X_n) and row n of Phi is phi(X_{n+1}), so both share
    the same row count and row n describes one transition.  Built from a
    trajectory, it holds a read-only copy of the states and evaluates the
    dictionary's features per TSQR block; a built-in dictionary's real
    features are reduced in real arithmetic, and its exact map takes the
    small reduced factors to complex values.  DictionaryMatrices(Psi, Phi)
    holds read-only copies of a pair.  Psi and Phi hold the complex values;
    they are evaluated on their first read and kept, and no fit reads them:
    the fits share the last weighted R factor while the weights are equal.
    """

    def __init__(self, Psi, Phi):
        Psi, Phi = _read_only_copy(Psi), _read_only_copy(Phi)
        if Psi.ndim != 2 or Phi.ndim != 2 or Psi.shape[0] != Phi.shape[0]:
            raise ShapeError(f"Psi {Psi.shape}, Phi {Phi.shape}: need 2-D, equal row counts")

        def rows(start, stop):
            return Psi[start:stop], Phi[start:stop]

        self._read(rows, Psi.shape[0], None, rows)

    def _read(self, rows, n_pairs: int, to_complex, values) -> "DictionaryMatrices":
        """Read n_pairs transitions: rows(start, stop) gives the feature rows
        the fits reduce, to_complex maps features to complex values (None:
        they are the values), and values(start, stop) gives the rows of Psi
        and Phi.  Every instance is set up here."""
        self._rows, self.n_pairs, self._reduced = rows, n_pairs, None
        self._to_complex, self._values = to_complex, values
        return self

    _pair = functools.cached_property(lambda self: self._values(0, self.n_pairs))
    Psi = property(lambda self: self._pair[0])
    Phi = property(lambda self: self._pair[1])

    def prefix(self, N: int) -> "DictionaryMatrices":
        """First N transitions, read from the same data; used by window sweeps.

        Raises:
            SizeError: N not an integer in 1..n_pairs.
        """
        N = as_integer(N, "N", SizeError, 1)
        if N > self.n_pairs:
            raise SizeError(f"prefix {N} exceeds {self.n_pairs} rows")
        return object.__new__(DictionaryMatrices)._read(self._rows, N, self._to_complex,
                                                        self._values)

    def _reduce(self, weights: WeightVector | None) -> tuple[np.ndarray, np.ndarray]:
        """linalg._reduce of these rows, computed once while the weights are
        equal; the map to complex values, if any, runs on the small factors."""
        check_weights(weights)
        raw = None if weights is None else weights.raw
        # array_equal(None, x) holds for x = None alone, so plain fits key on
        # None; a vector's raw array is its own read-only copy, so it is the key
        if self._reduced is None or not np.array_equal(self._reduced[0], raw):
            factors = linalg._reduce(self._rows, self.n_pairs, weights)
            if self._to_complex is not None:
                factors = [self._to_complex(factor) for factor in factors]
            for factor in factors:
                factor.setflags(write=False)
            self._reduced = (raw, factors)
        return self._reduced[1]


def evaluate_transitions(states: np.ndarray, psi: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the transitions along m + 1 states, at X_n and X_{n+1}
    for n < m: two overlapping, read-only views of one evaluation.  The
    features are psi's complex values, or a built-in dictionary's real
    features."""
    features = psi._features(states)
    features.setflags(write=False)
    return features[:-1], features[1:]


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

    def transitions(dictionary):
        return lambda start, stop: evaluate_transitions(states[start:stop + 1], dictionary)

    # Psi and Phi are the features of a caller-built wrapper that returns the
    # complex values, so the map also runs inside evaluate_transitions
    values = psi if psi._to_complex is None else Dictionary(psi.size, psi.dim, psi)
    return object.__new__(DictionaryMatrices)._read(
        transitions(psi), states.shape[0] - 1, psi._to_complex, transitions(values))


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
