import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_memory
from taperdyn import (
    RngStream,
    ShapeError,
    WeightVector,
    build_dictionary_matrices,
    edmd,
    eig,
    fourier_dictionary,
    make_weight_vector,
    pinv_lstsq,
    standard_map,
)
from taperdyn.linalg import _SUB_ROWS, _TSQR_ROWS
from taperdyn.weights import eval_bump


# the module, which holds the private block factor
linalg_module = importlib.import_module("taperdyn.linalg")


@pytest.fixture
def gen():
    return RngStream(77, "linalg").generator()


def _svd_reference(A, B, fit="right", weights=None):
    """The solve before the TSQR reduction: weight, then thin SVD of the full A.

    fit="left" is the law ||B - K A|| with samples as columns, solved here by
    conjugate transposes.
    """
    A, B = np.asarray(A), np.asarray(B)
    if fit == "left":
        A, B = A.conj().T, B.conj().T
    if weights is not None:
        sw = np.sqrt(weights.raw)
        A, B = A * sw[:, None], B * sw[:, None]
    U, S, Vh = np.linalg.svd(A, full_matrices=False)
    if S.size == 0 or S[0] == 0.0:
        inv, rank = np.zeros_like(S), 0
    else:
        keep = S > 1e-12 * S[0]
        inv, rank = np.where(keep, 1.0 / np.where(keep, S, 1.0), 0.0), int(keep.sum())
    K = (Vh.conj().T * inv) @ (U.conj().T @ B)
    return (K.conj().T if fit == "left" else K), rank, S


def _solve(A, B, fit, weights=None):
    """(K, solution) from pinv_lstsq; fit="left" passes the transposes."""
    if fit == "left":
        sol = pinv_lstsq(A.T, B.T, weights)
        return sol.matrix.T, sol
    sol = pinv_lstsq(A, B, weights)
    return sol.matrix, sol


def _tall_problem(seed, N, L, m, complex_data):
    # columns scaled over three decades, so the fit is not trivially conditioned
    g = np.random.default_rng(seed)
    A = g.standard_normal((N, L)) * np.logspace(0, -3, L)
    B = A @ g.standard_normal((L, m)) + 0.1 * g.standard_normal((N, m))
    if complex_data:
        A = A + 1j * g.standard_normal((N, L)) * np.logspace(0, -3, L)
        B = B + 1j * g.standard_normal((N, m))
    return A, B


class TestPinvWeights:
    def test_identity_weights_change_nothing(self, gen):
        M = gen.standard_normal((6, 3))
        B = gen.standard_normal((6, 2))
        out = pinv_lstsq(M, B, WeightVector(np.ones(6)))
        np.testing.assert_array_equal(out.matrix, pinv_lstsq(M, B).matrix)

    def test_last_sample_only(self, gen):
        M = gen.standard_normal((5, 3))
        B = gen.standard_normal((5, 2))
        out = pinv_lstsq(M, B, WeightVector([0.0, 0, 0, 0, 1.0]))
        alone = pinv_lstsq(M[4:], B[4:])
        np.testing.assert_allclose(out.matrix, alone.matrix, rtol=1e-13)
        assert out.effective_rank == alone.effective_rank == 1

    def test_twice_equals_diag_scaling(self, gen):
        # weighting by diag is the unweighted fit of the sqrt(diag)-scaled data
        M = gen.standard_normal((7, 4))
        B = gen.standard_normal((7, 2))
        diag = gen.uniform(0.1, 2.0, 7)
        out = pinv_lstsq(M, B, WeightVector(diag))
        sw = np.sqrt(diag)[:, None]
        scaled = pinv_lstsq(M * sw, B * sw)
        np.testing.assert_allclose(out.matrix, scaled.matrix, rtol=1e-14)

    def test_shape_error(self, gen):
        with pytest.raises(ShapeError):
            pinv_lstsq(gen.standard_normal((5, 3)), np.ones((5, 2)), WeightVector(np.ones(4)))
        with pytest.raises(ShapeError):
            pinv_lstsq(gen.standard_normal((5, 3)), np.ones((5, 2)),
                       WeightVector(np.ones((5, 1))))


class TestTsqrAgainstSvd:
    """The blocked-QR reduction against the full thin-SVD solve it replaced.

    fit="right" fits B ~ A K with samples as rows; fit="left" fits B ~ K A
    with samples as columns by passing the transposes, as DMD does.
    """

    @pytest.mark.parametrize("N", [1, 6, _TSQR_ROWS - 1, _TSQR_ROWS, _TSQR_ROWS + 1,
                                   3 * _TSQR_ROWS + 1, 100_000])
    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("fit", ["left", "right"])
    def test_matches_reference(self, N, complex_data, weighted, fit):
        L, m = 6, 4
        A, B = _tall_problem(N, N, L, m, complex_data)
        weights = None
        if weighted:  # make_weight_vector needs N >= 2
            weights = make_weight_vector(N, eval_bump) if N > 1 else WeightVector([0.5])
        if fit == "left":
            A, B = A.T, B.T
        K, sol = _solve(A, B, fit, weights)
        K_ref, rank_ref, S_ref = _svd_reference(A, B, fit=fit, weights=weights)
        assert sol.effective_rank == rank_ref
        err = np.linalg.norm(K - K_ref) / np.linalg.norm(K_ref)
        assert err <= 1e-12
        np.testing.assert_allclose(sol.singular_values, S_ref, rtol=0,
                                   atol=1e-13 * S_ref[0])

    @pytest.mark.parametrize("rows", [1, _SUB_ROWS - 1, _SUB_ROWS, 3 * _SUB_ROWS + 7, _TSQR_ROWS])
    @pytest.mark.parametrize("cols", [18, _SUB_ROWS + 2])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_block_factor_keeps_the_gram_matrix(self, rows, cols, complex_data):
        # R* R = X* X: batched sub-blocks, leftover rows and wide blocks alike
        X = np.hstack(_tall_problem(rows, rows, cols - 2, 2, complex_data))
        R = linalg_module._block_factor(X)
        assert R.dtype == X.dtype and R.shape == (min(rows, cols), cols)
        assert np.array_equal(np.triu(R), R)
        gram = X.conj().T @ X
        assert np.linalg.norm(R.conj().T @ R - gram) <= 1e-13 * np.linalg.norm(gram)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_wide_data(self, complex_data):
        # more columns than a sub-block has rows: the blocks are factored whole
        N, L = _TSQR_ROWS + 700, _SUB_ROWS + 4
        A, B = _tall_problem(N, N, L, 3, complex_data)
        weights = make_weight_vector(N, eval_bump)
        sol = pinv_lstsq(A, B, weights)
        K_ref, rank_ref, _ = _svd_reference(A, B, weights=weights)
        assert sol.effective_rank == rank_ref
        assert np.linalg.norm(sol.matrix - K_ref) <= 1e-12 * np.linalg.norm(K_ref)

    @pytest.mark.parametrize("N", [500, 3 * _TSQR_ROWS + 1])
    def test_truncation(self, gen, N):
        # two singular values fall below the fixed 1e-12 cutoff, one is zero
        Q, _ = np.linalg.qr(gen.standard_normal((N, 6)))
        V, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        A = Q @ np.diag([1.0, 0.5, 0.1, 1e-14, 1e-15, 0.0]) @ V.T
        B = gen.standard_normal((N, 2))
        sol = pinv_lstsq(A, B)
        K_ref, rank_ref, _ = _svd_reference(A, B)
        assert sol.effective_rank == rank_ref == 3
        np.testing.assert_allclose(sol.matrix, K_ref, rtol=1e-12)

    @pytest.mark.parametrize("N", [5, 3 * _TSQR_ROWS + 1])
    def test_zero_matrix(self, N):
        sol = pinv_lstsq(np.zeros((N, 3)), np.ones((N, 2)), WeightVector(np.ones(N)))
        assert sol.effective_rank == 0
        np.testing.assert_array_equal(sol.matrix, np.zeros((3, 2)))

    @pytest.mark.parametrize("N", [50, 2 * _TSQR_ROWS + 3])
    @pytest.mark.parametrize("fit", ["left", "right"])
    def test_inputs_neither_changed_nor_frozen(self, N, fit):
        A, B = _tall_problem(1, N, 4, 2, complex_data=True)
        if fit == "left":
            A, B = A.T, B.T
        raw = make_weight_vector(N, eval_bump).raw.copy()
        before = [a.copy() for a in (A, B, raw)]
        _solve(A, B, fit, WeightVector(raw))
        for arr, old in zip((A, B, raw), before):
            np.testing.assert_array_equal(arr, old)
            assert arr.flags.writeable

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edmd_on_a_quasiperiodic_orbit(self, weighted):
        # the koopman-long fit: 3x3 Fourier dictionary on a libration of
        # the lambda = 0.25 standard map, 1e5 transitions
        orbit = standard_map(0.25, 0.5, math.pi, 100_001)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=2))
        wv = make_weight_vector(mats.n_pairs, eval_bump) if weighted else None
        fit = edmd(mats, wv)
        K_ref, rank_ref, _ = _svd_reference(mats.Psi, mats.Phi, weights=wv)
        assert fit.effective_rank == rank_ref == 9
        assert np.linalg.norm(fit.matrix - K_ref) <= 1e-12 * np.linalg.norm(K_ref)

    def test_edmd_peak_allocation_is_small(self):
        # 2e5 x 9 complex: the materialised Psi and Phi would take 28.8 MB.
        # The fit evaluates the dictionary one block at a time and allocates
        # O(block) memory plus the kept copy of the weights: 3.3 MB measured
        # (numpy 2.4), against a bound of 4.0 MB (20% margin), a seventh of
        # 28.8 MB.
        orbit = np.random.default_rng(3).uniform(0, 2 * np.pi, (200_001, 2))
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=2))
        wv = make_weight_vector(mats.n_pairs, eval_bump)
        with traced_memory() as mem:
            edmd(mats, wv)
        assert mem.peak <= 4.0e6

    def test_pinv_lstsq_peak_allocation_is_small(self):
        # 1e5 x 9 complex arrays, as dmd, sindy and shift_matrix pass them:
        # A and B hold 14.4 MB each, and the weighted reduction allocates
        # O(block) memory (2.4 MiB measured), where a weighted copy of
        # either would not fit under the bound
        orbit = np.random.default_rng(3).uniform(0, 2 * np.pi, (100_001, 2))
        full = fourier_dictionary(1, dim=2)(orbit)
        wv = make_weight_vector(100_000, eval_bump)
        with traced_memory() as mem:
            pinv_lstsq(full[:-1], full[1:], wv)
        assert mem.peak <= 8 * 2**20


class TestPinvLstsq:
    def test_exact_consistency_square(self, gen):
        A = gen.standard_normal((4, 4)) + 4.0 * np.eye(4)
        C = gen.standard_normal((4, 4))
        B = A @ C
        sol = pinv_lstsq(A, B)
        np.testing.assert_allclose(sol.matrix, C, rtol=1e-10)
        assert sol.effective_rank == 4

    def test_zero_rhs(self, gen):
        A = gen.standard_normal((8, 3))
        sol = pinv_lstsq(A, np.zeros((8, 2)))
        np.testing.assert_allclose(sol.matrix, 0.0, atol=1e-14)

    def test_zero_matrix_is_not_an_error(self):
        sol = pinv_lstsq(np.zeros((5, 3)), np.ones((5, 2)))
        assert sol.effective_rank == 0
        np.testing.assert_array_equal(sol.matrix, np.zeros((3, 2)))

    def test_rank_one_closed_form(self, gen):
        # A = v u^T, B = v w^T: minimal-norm K = u w^T / |u|^2
        u = gen.standard_normal(3)
        v = gen.standard_normal(7)
        w = gen.standard_normal(2)
        A = np.outer(v, u)
        B = np.outer(v, w)
        sol = pinv_lstsq(A, B)
        np.testing.assert_allclose(sol.matrix, np.outer(u, w) / (u @ u), rtol=1e-10)
        assert sol.effective_rank == 1

    @given(m=st.integers(2, 6), n=st.integers(2, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_normal_equations_oracle(self, m, n, seed):
        # independent oracle: dense normal equations on full-column-rank systems
        g = np.random.default_rng(seed)
        A = g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))
        B = g.standard_normal((n, 3)) + 1j * g.standard_normal((n, 3))
        if m > n:
            return  # oracle needs full column rank
        K = pinv_lstsq(A, B).matrix
        gram = A.conj().T @ A
        if np.linalg.cond(gram) > 1e6:
            return
        K_ref = np.linalg.inv(gram) @ A.conj().T @ B
        np.testing.assert_allclose(K, K_ref, rtol=1e-8, atol=1e-10)

    def test_right_convention(self, gen):
        A = gen.standard_normal((10, 4))
        K_true = gen.standard_normal((4, 2))
        B = A @ K_true
        sol = pinv_lstsq(A, B)
        np.testing.assert_allclose(sol.matrix, K_true, rtol=1e-10)

    def test_conventions_are_transposes(self, gen):
        # the left law ||B - K A|| is solved by plain transposes, with no
        # conjugation, on complex data too
        A = gen.standard_normal((5, 9)) + 1j * gen.standard_normal((5, 9))
        B = gen.standard_normal((2, 9)) + 1j * gen.standard_normal((2, 9))
        left = pinv_lstsq(A.T, B.T).matrix.T
        np.testing.assert_allclose(left, B @ np.linalg.pinv(A), rtol=1e-12, atol=1e-14)

    def test_truncation(self, gen):
        # the fixed 1e-12 cutoff drops the 1e-14, 1e-15 and 0 singular values
        U, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        V, _ = np.linalg.qr(gen.standard_normal((6, 6)))
        A = U @ np.diag([1.0, 0.5, 0.1, 1e-14, 1e-15, 0.0]) @ V.T
        sol = pinv_lstsq(A, np.eye(6))
        assert sol.effective_rank == 3

    def test_bad_args(self, gen):
        A = gen.standard_normal((5, 3))
        with pytest.raises(ShapeError):
            pinv_lstsq(A, np.ones((4, 2)))
        with pytest.raises(ShapeError):
            pinv_lstsq(A, np.ones(5))


class TestEig:
    def test_identity(self):
        values, _ = eig(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4))

    def test_rotation_closed_form(self):
        alpha = 0.8
        R = np.array([[math.cos(alpha), -math.sin(alpha)],
                      [math.sin(alpha), math.cos(alpha)]])
        values, vectors = eig(R)
        expected = np.array([np.exp(1j * alpha), np.exp(-1j * alpha)])
        np.testing.assert_allclose(values, expected, atol=1e-12)
        np.testing.assert_allclose(R @ vectors, vectors @ np.diag(values), atol=1e-12)

    def test_tie_breaking_order(self):
        values, _ = eig(np.diag([1.0, -1.0, 2.0j, -2.0]))
        np.testing.assert_allclose(values, [2.0j, -2.0, 1.0, -1.0], atol=1e-14)

    def test_unit_circle_order_ignores_modulus_noise(self):
        # angles in the expected order: descending real part, +j before -j.
        # Moduli 1 +- 1e-15 that, compared exactly, would put each -j first.
        angles = np.array([0.3, -0.3, 1.0, -1.0, 2.0, -2.5, math.pi])
        z = np.exp(1j * angles) * (1 + 1e-15 * np.array([-1, 1, -1, 1, -1, 1, 1]))
        A = np.diag(z[[6, 3, 0, 5, 2, 4, 1]])
        values, vectors = eig(A)
        np.testing.assert_array_equal(values, z)
        np.testing.assert_allclose(A @ vectors, vectors * values, atol=1e-15)

    @pytest.mark.parametrize("minus, plus", [
        # the -j member has the larger modulus, by one ulp
        (0.35646433330396265 - 0.93430890024765878j, 0.35646433330396998 + 0.93430890024765567j),
        # real parts 3.7e-13 apart, on either side of a 1e-12 rounding grid line
        (0.46913912244179234 - 0.22410948855529744j, 0.46913912244141887 + 0.22410948855519605j),
    ], ids=["one-ulp-moduli", "straddles-grid"])
    def test_near_conjugate_pair_puts_positive_imaginary_first(self, minus, plus):
        values, _ = eig(np.diag([minus, plus]))
        np.testing.assert_array_equal(values, [plus, minus])

    def test_hermitian_real_eigenvalues(self, gen):
        H = gen.standard_normal((5, 5))
        H = H + H.T
        values, _ = eig(H)
        assert np.max(np.abs(values.imag)) <= 1e-10

    def test_residual_bound(self, gen):
        A = gen.standard_normal((6, 6))
        values, vectors = eig(A)
        resid = np.linalg.norm(A @ vectors - vectors @ np.diag(values))
        assert resid <= 1e-10 * np.linalg.norm(A) * 100

    def test_deterministic(self, gen):
        A = gen.standard_normal((5, 5))
        v1, _ = eig(A)
        v2, _ = eig(A)
        np.testing.assert_array_equal(v1, v2)

    def test_non_square(self):
        with pytest.raises(ShapeError):
            eig(np.ones((2, 3)))
