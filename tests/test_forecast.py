import importlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from taperdyn import (
    ConditioningError,
    ConfigError,
    DomainError,
    NumericalError,
    RngStream,
    ShapeError,
    SizeError,
    delay_embed,
    diffusion_basis,
    eval_bump,
    forecast,
    make_weight_vector,
    nino34_compare,
    ou_sample,
    shift_matrix,
    skill,
    uniform_taper,
)
from taperdyn.dataio import read_nino34_csv
from taperdyn.forecast import (
    DiffusionBasis,
    ShiftMatrix,
    _sinkhorn_scaling,
)


class TestDelayEmbed:
    def test_lags_one_is_identity(self):
        emb = delay_embed([1.0, 2.0, 3.0], 1)
        np.testing.assert_array_equal(emb.points, [[1.0], [2.0], [3.0]])
        assert emb.offset == 0

    def test_small_example(self):
        emb = delay_embed([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(emb.points, [[1, 2], [2, 3], [3, 4]])

    def test_length_formula(self):
        for L, lags in [(10, 3), (50, 6), (7, 7)]:
            emb = delay_embed(np.arange(float(L)), lags)
            assert len(emb) == L - lags + 1

    def test_errors(self):
        with pytest.raises(SizeError):
            delay_embed([1.0, 2.0], 0)
        with pytest.raises(SizeError):
            delay_embed([1.0, 2.0], 3)

    @pytest.mark.parametrize("lags", [2.5, 2.0, True, "2", None])
    def test_lags_not_an_integer_is_a_size_error(self, lags):
        with pytest.raises(SizeError, match="lags must be an integer"):
            delay_embed([1.0, 2.0, 3.0], lags)

    def test_numpy_integer_lags_accepted(self):
        assert delay_embed([1.0, 2.0, 3.0], np.int64(2)).lags == 2


# the package exports a function named forecast, which hides the module
forecast_module = importlib.import_module("taperdyn.forecast")


def _exact_sq_dists(A, B):
    """|a - b|^2 for every row a of A and b of B, from exact differences."""
    return sum((a[:, None] - b[None, :]) ** 2 for a, b in zip(A.T, B.T))


def _dense_basis(pts, M, bandwidth):
    """Reference basis: full kernel, K @ v Sinkhorn, dense eigh on s K s."""
    n = pts.shape[0]
    K = np.exp(-_exact_sq_dists(pts, pts) / bandwidth**2)
    s = _sinkhorn_scaling(lambda v: K @ v, K @ np.ones(n))
    lam, vecs = scipy.linalg.eigh(s[:, None] * K * s[None, :],
                                  subset_by_index=[n - M, n - 1])
    phi = np.sqrt(n) * vecs[:, ::-1]
    rows = np.argmax(np.abs(phi), axis=0)
    phi *= np.sign(phi[rows, np.arange(M)])
    return phi, lam[::-1], s


def _rel(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def _refuse(*args):
    raise AssertionError("kernel work this test does not allow")


@pytest.fixture
def no_dense_kernel(monkeypatch):
    """Fail the test if diffusion_basis builds the dense n x n kernel."""
    monkeypatch.setattr(forecast_module, "_kernel_matrix", _refuse)


@pytest.fixture
def no_kernel(monkeypatch, no_dense_kernel):
    """Fail the test if diffusion_basis starts any kernel work, dense or low-rank."""
    monkeypatch.setattr(forecast_module, "_pivoted_cholesky", _refuse)


def _ou_training(n):
    return ou_sample(1.0, 1.0, 0.0, 0.2, n, substeps=4, rng=RngStream(3, "basis")).states


def _bandwidth_subsample(points, seed):
    """The subsample _auto_bandwidth draws with default_rng(seed)."""
    n = points.shape[0]
    if n <= forecast_module._BANDWIDTH_SUBSAMPLE:
        return points
    gen = np.random.default_rng(seed)
    return points[gen.choice(n, size=forecast_module._BANDWIDTH_SUBSAMPLE, replace=False)]


def _band_products(sub):
    """The squared distances of _auto_bandwidth's pass as an m x m matrix:
    each 64-row band of the augmented product U W^T formed as the pass forms
    it, on and below the diagonal, and mirrored above it.  OpenBLAS rounds a
    64-row band differently from one whole product when p >= 2."""
    m, band = sub.shape[0], forecast_module._KERNEL_BAND
    U, W = forecast_module._augmented(sub)
    buf, lower = np.empty((min(band, m), m)), np.zeros((m, m))
    for i in range(0, m, band):
        j = min(i + band, m)
        lower[i:j, :j] = np.matmul(U[i:j], W[:j].T, out=buf[:j - i, :j])
    lower = np.tril(lower)
    return lower + np.tril(lower, -1).T


def _full_matrix_bandwidth(points, seed):
    """The former rule: the median over every positive entry of the full
    distance matrix, so each pair counts twice and diagonal residues enter."""
    d2 = _band_products(_bandwidth_subsample(points, seed))
    return float(np.sqrt(np.median(d2[d2 > 0])))


def _distinct_pairs_bandwidth(points, seed):
    """The median positive distance over pairs i < j, same distance products."""
    sub = _bandwidth_subsample(points, seed)
    d2 = _band_products(sub)[np.tril_indices(sub.shape[0], -1)]
    return float(np.sqrt(np.median(d2[d2 > 0])))


def _auto_bandwidth(points, seed):
    return forecast_module._auto_bandwidth(points, np.random.default_rng(seed))


def _count_passes(monkeypatch):
    """The calls of _auto_bandwidth's banded pass over the pairs, as a list."""
    calls, bracket_pass = [], forecast_module._bracket_pass
    monkeypatch.setattr(forecast_module, "_bracket_pass",
                        lambda *a: calls.append(a) or bracket_pass(*a))
    return calls


class TestAugmented:
    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("offset", [0.0, 20.0])
    def test_product_matches_exact_differences(self, p, offset):
        # first-order bounds with u = 2^-53: the product's p + 2 terms sum to
        # at most 2 (|x|^2 + |y|^2) in magnitude, so the dot rounds by at
        # most 2 (p + 2) u of that and the two squared norms add p u; the
        # reference rounds by at most (p + 2) u |x - y|^2 <= 2 (p + 2) u of
        # it; together (5p + 8) u (|x|^2 + |y|^2); at most 8.8 u measured (p = 8)
        gen = np.random.default_rng(p)
        A = gen.standard_normal((300, p)) + offset
        # near pairs too, where the product's rounding dwarfs the distance
        B = np.vstack([A[:100] + 1e-6 * gen.standard_normal((100, p)),
                       gen.standard_normal((200, p)) + offset])
        U, _ = forecast_module._augmented(A)
        _, W = forecast_module._augmented(B)
        scale = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
        error = np.abs(U @ W.T - _exact_sq_dists(A, B))
        assert np.all(error <= (5 * p + 8) * (np.finfo(float).eps / 2) * scale)


class TestAutoBandwidth:
    @pytest.mark.parametrize("n", [8000, 1500])
    def test_one_dimensional_matches_full_matrix_median(self, n):
        # for p = 1 the product's diagonal is exactly zero, and doubling
        # every value of a multiset keeps its median
        pts = _ou_training(n)
        assert not np.diag(_band_products(_bandwidth_subsample(pts, 5))).any()
        assert _auto_bandwidth(pts, 5) == _full_matrix_bandwidth(pts, 5)

    @pytest.mark.parametrize("lags, n", [(2, 1500), (3, 2000), (3, 6000)])
    def test_embedded_data_drop_diagonal_residues(self, lags, n):
        pts = delay_embed(_ou_training(n + lags - 1)[:, 0], lags).points
        sub = _bandwidth_subsample(pts, 5)
        assert (np.diag(_band_products(sub)) > 0).any()
        got = _auto_bandwidth(pts, 5)
        assert got == _distinct_pairs_bandwidth(pts, 5)
        assert got != _full_matrix_bandwidth(pts, 5)
        assert got == pytest.approx(_full_matrix_bandwidth(pts, 5), rel=1e-3)

    # m = 2..5 give 1, 3, 6 and 10 pairs: odd and even counts
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 255, 256, 257, 513])
    @pytest.mark.parametrize("p", [1, 3])
    def test_band_edges(self, m, p):
        pts = np.random.default_rng(m).standard_normal((m, p))
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0)
        if p == 1:
            assert _auto_bandwidth(pts, 0) == _full_matrix_bandwidth(pts, 0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_duplicate_points_are_left_out(self, p):
        pts = np.random.default_rng(9).integers(0, 4, (300, p)).astype(float)
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0)

    def test_tied_middle_ranks(self):
        # squared distances of 0..4: 1 x4, 4 x3, 9 x2, 16; ranks 4 and 5 are both 4
        pts = np.arange(5.0)[:, None]
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0) == 2.0

    @pytest.mark.parametrize("m", [300, 301])
    def test_mostly_duplicate_pairs(self, m):
        # two values: every positive distance is the same
        two_values = np.random.default_rng(m).integers(0, 2, (m, 1)).astype(float)
        assert _auto_bandwidth(two_values, 0) == _distinct_pairs_bandwidth(two_values, 0)
        # all but ten points identical: most pairs are zero and left out
        mostly_one = np.full((m, 2), 0.5)
        mostly_one[:10] = np.random.default_rng(m).standard_normal((10, 2))
        assert _auto_bandwidth(mostly_one, 0) == _distinct_pairs_bandwidth(mostly_one, 0)

    @pytest.mark.parametrize("n, p", [(8000, 1), (2000, 3)])
    def test_peak_allocation_is_a_quarter_of_the_pair_buffer(self, n, p):
        # the pass keeps only the pairs inside the bracket: one 64-row band
        # with its norms and two masks (2.4 MB) and room for twice the
        # bracket's expected pairs (1.6 MB); 0.243 and 0.248 x the m(m-1)/2
        # float64 pair buffer measured (numpy 2.4) against a bound of 0.27 x
        # (9% margin), which one more band-sized temporary (0.0625 x) or the
        # former pair buffer (1.14 x) would exceed
        m = min(n, forecast_module._BANDWIDTH_SUBSAMPLE)
        pts = np.random.default_rng(p).standard_normal((n, p))
        tracemalloc.start()
        try:
            _auto_bandwidth(pts, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.27 * (m * (m - 1) // 2 * 8)

    @pytest.mark.parametrize("n", [8000, 2048])
    def test_caller_rng_draws_the_subsample_only(self, n):
        # the bracket draws its pairs from a private generator
        pts = np.random.default_rng(1).standard_normal((n, 1))
        rng, expected = np.random.default_rng(3), np.random.default_rng(3)
        if n > forecast_module._BANDWIDTH_SUBSAMPLE:
            expected.choice(n, size=forecast_module._BANDWIDTH_SUBSAMPLE, replace=False)
        forecast_module._auto_bandwidth(pts, rng)
        assert rng.bit_generator.state == expected.bit_generator.state

    # more than 4 x 65,536 pairs from m = 725: each case takes the bracket
    @pytest.mark.parametrize("case", ["random walk", "half duplicates", "even pair count",
                                      "odd pair count"])
    def test_bracket_holds_the_middle_ranks(self, monkeypatch, case):
        gen = np.random.default_rng(11)
        pts = {
            # time-ordered and at most 2048 points, so no subsample shuffles it
            "random walk": np.cumsum(gen.standard_normal((2000, 1)), axis=0),
            # every point twice: 750 of the 1,124,250 pairs are zero
            "half duplicates": np.repeat(gen.standard_normal((750, 2)), 2, axis=0),
            "even pair count": gen.standard_normal((1000, 2)),  # 499,500 pairs
            "odd pair count": gen.standard_normal((1002, 2)),   # 501,501 pairs
        }[case]
        passes = _count_passes(monkeypatch)
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0)
        assert len(passes) == 1

    def test_lattice_with_ties_at_the_median(self, monkeypatch):
        # integer squared distances: the median, 421 = 14^2 + 15^2, is shared by many pairs
        pts = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0)), axis=-1).reshape(-1, 2)
        d2 = _band_products(pts)[np.tril_indices(len(pts), -1)]
        assert np.median(d2) == 421.0 and np.count_nonzero(d2 == 421.0) > 1000
        passes = _count_passes(monkeypatch)
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0) == math.sqrt(421.0)
        assert len(passes) == 1

    @pytest.mark.parametrize("miss", ["below the median", "above the median", "too many pairs"])
    def test_missed_bracket_keeps_every_pair(self, monkeypatch, miss):
        median_bracket = forecast_module._median_bracket

        def missing(U, W, pairs):
            lo, hi, capacity = median_bracket(U, W, pairs)
            return {"below the median": (lo / 4, lo / 2, capacity),
                    "above the median": (hi * 2, hi * 4, capacity),
                    "too many pairs": (lo, hi, 10)}[miss]

        monkeypatch.setattr(forecast_module, "_median_bracket", missing)
        passes = _count_passes(monkeypatch)
        pts = np.random.default_rng(8).standard_normal((1200, 2))
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0)
        assert len(passes) == 2

    # the bracket's edges on the middle ranks, and one step past them
    @pytest.mark.parametrize("m, edges, passes", [
        (1002, "on", 1), (1002, "past", 2),             # odd count: rank h
        (1000, "on", 1), (1000, "past low", 2), (1000, "past high", 2),  # h - 1 and h
    ])
    def test_bracket_edges_at_the_middle_ranks(self, monkeypatch, m, edges, passes):
        pts = np.random.default_rng(m).standard_normal((m, 2))
        ranked = np.sort(_band_products(pts)[np.tril_indices(m, -1)])
        h = ranked.size // 2
        low, high = ranked[h - 1 + ranked.size % 2], ranked[h]
        lo, hi = {"on": (low, high), "past": (np.nextafter(low, np.inf), np.inf),
                  "past low": (np.nextafter(low, np.inf), high),
                  "past high": (low, np.nextafter(high, 0.0))}[edges]
        monkeypatch.setattr(forecast_module, "_median_bracket",
                            lambda U, W, pairs: (float(lo), float(hi), pairs))
        counted = _count_passes(monkeypatch)
        assert _auto_bandwidth(pts, 0) == _distinct_pairs_bandwidth(pts, 0)
        assert len(counted) == passes

    @pytest.mark.parametrize("shape", [(2, 1), (300, 2), (3000, 1)])
    def test_identical_points_rejected(self, shape):
        with pytest.raises(ConfigError, match="all pairwise distances are zero"):
            _auto_bandwidth(np.full(shape, 0.7), 0)


def _mirrored(K, n):
    """The n x n kernel from its stored row bands, each stored entry on or
    below the diagonal placed once and mirrored above it."""
    full, count = np.zeros((n, n)), np.zeros((n, n), dtype=int)
    for i, band in K:
        rows, cols = band.shape
        assert cols == i + rows  # the band K[i:i + rows, :i + rows]
        full[i:cols, :cols] += np.tril(band, i)
        count[i:cols, :cols] += np.tri(rows, cols, i, dtype=int)
    np.testing.assert_array_equal(count, np.tri(n, dtype=int))
    return full + np.tril(full, -1).T


def _stored_bytes(K):
    return sum(band.nbytes for _, band in K)


class TestKernelLower:
    @pytest.mark.parametrize("n, h", [(65, 1.0), (700, 0.5), (2000, 1.0)])
    def test_entries_match_reference(self, n, h):
        pts = np.random.default_rng(n).standard_normal((n, 3))
        K = forecast_module._kernel_matrix(pts, h)
        reference = np.exp(-_exact_sq_dists(pts, pts) / h**2)
        lower = np.tril_indices(n)
        np.testing.assert_allclose(_mirrored(K, n)[lower], reference[lower], rtol=1e-13, atol=0)

    def test_negative_residues_clipped(self):
        # an offset cloud's augmented products leave residues of either sign
        # on the diagonal; clipped at 0, no kernel entry exceeds 1
        pts = np.random.default_rng(5).standard_normal((300, 3)) + 20.0
        for _, band in forecast_module._kernel_matrix(pts, 1.0):
            assert band.max() <= 1.0

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 700])
    def test_diagonal_blocks_exactly_symmetric(self, n):
        K = forecast_module._kernel_matrix(np.random.default_rng(n).standard_normal((n, 2)), 1.0)
        for i, band in K:
            np.testing.assert_array_equal(band[:, i:], band[:, i:].T)

    @pytest.mark.parametrize("n", [1, 65, 700, 2000])
    def test_product_matches_mirrored_matrix(self, n):
        gen = np.random.default_rng(n)
        K = forecast_module._kernel_matrix(gen.standard_normal((n, 3)), 1.0)
        full = _mirrored(K, n)
        for X in (gen.standard_normal(n), gen.standard_normal((n, 8)),
                  np.asfortranarray(gen.standard_normal((n, 8)))):
            got, want = forecast_module._kernel_product(K, X), full @ X
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_layout_bytes(self):
        # with n = 64 (q - 1) + r, 0 < r <= 64, the bands store
        # 64^2 q (q - 1) / 2 + r n entries
        for n, q, r in ((1, 1, 1), (63, 1, 63), (64, 1, 64), (65, 2, 1),
                        (1000, 16, 40), (2000, 32, 16)):
            K = forecast_module._kernel_matrix(np.zeros((n, 1)), 1.0)
            assert n == 64 * (q - 1) + r
            assert _stored_bytes(K) == 8 * (64 * 64 * q * (q - 1) // 2 + r * n)

    def test_bands_are_filled_in_place(self):
        # n = 2000, p = 3: the bands store 16.5 MB, and one band's temporaries
        # are at most 0.5 MB; 0.17 MB above the stored bytes measured
        # (numpy 2.4) against a bound of 2 MB, which a copy of every band or
        # a full n x n product would exceed
        n = 2000
        pts = np.random.default_rng(3).standard_normal((n, 3))
        tracemalloc.start()
        try:
            K = forecast_module._kernel_matrix(pts, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - _stored_bytes(K) < 2e6


class TestKrylovEigenpairs:
    def test_matches_dense_eigh(self):
        # an operator with a degenerate pair inside the wanted block
        gen = np.random.default_rng(4)
        Q, _ = np.linalg.qr(gen.standard_normal((300, 300)))
        lam = np.sort(np.r_[1.0, 0.6, 0.6, gen.uniform(0.0, 0.5, 297)])[::-1]
        A = (Q * lam) @ Q.T
        got, vecs = forecast_module._krylov_eigenpairs(lambda X: A @ X, 300, 4)
        np.testing.assert_allclose(got, lam[:4], rtol=1e-12)
        assert _rel(vecs @ vecs.T, Q[:, :4] @ Q[:, :4].T) < 1e-12

    def test_thick_restart_keeps_converging(self):
        # eigenvalues 0.99^k: a 1% gap after the wanted four needs more
        # columns than one basis of _KRYLOV_RESTART blocks holds
        gen = np.random.default_rng(7)
        Q, _ = np.linalg.qr(gen.standard_normal((400, 400)))
        lam = 0.99 ** np.arange(400)
        A = (Q * lam) @ Q.T
        columns = []
        got, vecs = forecast_module._krylov_eigenpairs(
            lambda X: columns.append(X.shape[1]) or A @ X, 400, 4)
        assert sum(columns) > forecast_module._KRYLOV_RESTART * 6
        np.testing.assert_allclose(got, lam[:4], rtol=1e-12)
        assert _rel(vecs @ vecs.T, Q[:, :4] @ Q[:, :4].T) < 1e-11

    def test_operator_that_cannot_converge_raises(self, monkeypatch):
        # a fresh random block each call: no Krylov space is ever invariant
        monkeypatch.setattr(forecast_module, "_KRYLOV_MAX_BLOCKS", 30)
        gen = np.random.default_rng(5)
        with pytest.raises(NumericalError, match=r"residual \d\.\d+e[+-]\d+ .* after 30 blocks"):
            forecast_module._krylov_eigenpairs(lambda X: gen.standard_normal(X.shape), 200, 3)

    def test_failed_projected_eigensolve_raises(self, monkeypatch):
        def eigh(T):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(ConditioningError, match="residual inf"):
            forecast_module._krylov_eigenpairs(lambda X: X, 50, 3)

    def test_nan_operator_raises(self):
        # numpy's eigh returns NaN here or raises LinAlgError, by the NaNs' places
        with pytest.raises((NumericalError, ConditioningError), match="residual"):
            forecast_module._krylov_eigenpairs(lambda X: np.full(X.shape, np.nan), 50, 3)


def _low_rank_factor(n):
    """The low-rank route's A = diag(s) L on n OU training points."""
    pts = _ou_training(n)
    L, _, _ = forecast_module._pivoted_cholesky(pts, forecast_module._auto_bandwidth(pts, None),
                                                n // 32)
    s = _sinkhorn_scaling(lambda v: L @ (L.T @ v), L @ (L.T @ np.ones(n)))
    return s[:, None] * L


class TestGramEigenpairs:
    def test_low_rank_route_runs_no_svd(self, monkeypatch, no_dense_kernel):
        monkeypatch.setattr(np.linalg, "svd", _refuse)
        basis = diffusion_basis(_ou_training(1500), M=6)
        gram = basis.phi.T @ basis.phi / basis.n_train
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12

    def test_every_eigenpair_of_the_factor(self):
        # M = r = 34: the smallest eigenvalue (about 5e-17) is below the
        # rounding of A^T A, and U0 = A V lam^(-1/2) alone is far from
        # orthonormal there (0.56 measured); Q Y reads 2e-15
        A = _low_rank_factor(1500)
        r = A.shape[1]
        lam, V = np.linalg.eigh(A.T @ A)
        U0 = A @ (V / np.sqrt(np.maximum(lam, np.finfo(float).eps * lam[-1])))
        assert np.abs(U0.T @ U0 - np.eye(r)).max() > 0.1
        sigma = np.linalg.svd(A, compute_uv=False)
        A_copy = A.copy()
        theta, vecs, At_vecs = forecast_module._gram_eigenpairs(A, r)  # overwrites A
        assert np.abs(vecs.T @ vecs - np.eye(r)).max() < 1e-13
        assert np.abs(theta - sigma**2).max() < 1e-14
        assert vecs.flags.f_contiguous
        assert np.abs(At_vecs - A_copy.T @ vecs).max() < 1e-14

    def test_negative_rounding_residue_stays_finite(self):
        # a repeated column makes A^T A singular, and its smallest computed
        # eigenvalue is a negative rounding residue (-4.8e-16); RuntimeWarning
        # is an error in this suite, so no square root of it may be taken
        A = _low_rank_factor(1500)
        A = np.hstack([A, A[:, :1]])
        assert np.linalg.eigh(A.T @ A)[0][0] < 0
        sigma = np.linalg.svd(A, compute_uv=False)
        theta, vecs, _ = forecast_module._gram_eigenpairs(A, 6)
        np.testing.assert_allclose(theta, sigma[:6] ** 2, rtol=1e-13)
        assert np.abs(vecs.T @ vecs - np.eye(6)).max() < 1e-13

    def test_failed_cholesky_raises(self, monkeypatch):
        def cholesky(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        with pytest.raises(ConditioningError, match="34 x 34 Gram eigenproblem"):
            diffusion_basis(_ou_training(1500), M=6)


class TestDiffusionBasis:
    def test_no_pivoted_cholesky_past_its_cap(self, monkeypatch):
        # M = 12 > 300 // 32 = 9 columns, so the low-rank route cannot serve
        monkeypatch.setattr(forecast_module, "_pivoted_cholesky", _refuse)
        pts = _ou_training(300)
        basis = diffusion_basis(pts, M=12)
        phi, lam, _ = _dense_basis(pts, 12, basis.bandwidth)
        assert _rel(basis.phi, phi) < 1e-12
        np.testing.assert_allclose(basis.kernel_eigenvalues, lam, rtol=1e-12)

    def test_identical_points_keep_only_constant_mode(self, monkeypatch):
        # the kernel is certified at rank 1 < M, so the dense path must run
        pts = np.ones((40, 1))
        assert forecast_module._pivoted_cholesky(pts, 1.0, 1)[0].shape == (40, 1)
        dense_builds = []
        kernel_lower = forecast_module._kernel_matrix
        monkeypatch.setattr(forecast_module, "_kernel_matrix",
                            lambda *a: dense_builds.append(a) or kernel_lower(*a))
        basis = diffusion_basis(pts, M=3, bandwidth=1.0)
        assert len(dense_builds) == 1
        np.testing.assert_allclose(basis.kernel_eigenvalues[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(basis.kernel_eigenvalues[1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(basis.phi[:, 0]), 1.0, atol=1e-12)

    def test_auto_bandwidth_rejects_degenerate_cloud(self):
        with pytest.raises(ConfigError):
            diffusion_basis(np.ones((10, 1)), M=2)

    def test_orthonormality_and_constant_leading(self):
        traj = ou_sample(1.0, 1.0, 0.0, 0.2, 1500, substeps=4,
                         rng=RngStream(3, "basis"))
        basis = diffusion_basis(traj.states, M=6)
        gram = basis.phi.T @ basis.phi / basis.n_train
        assert np.max(np.abs(gram - np.eye(6))) < 1e-6
        lead = basis.phi[:, 0]
        assert np.std(lead) / abs(np.mean(lead)) < 1e-6

    def test_circle_eigenfunctions(self):
        # Laplacian eigenfunctions on the circle: phi_2, phi_3 span cos/sin,
        # so phi_2^2 + phi_3^2 is constant up to discretization
        angles = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        basis = diffusion_basis(pts, M=3, bandwidth=0.5)
        mag = basis.phi[:, 1] ** 2 + basis.phi[:, 2] ** 2
        assert mag.std() / mag.mean() < 0.1

    @pytest.mark.parametrize("M", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_m_not_an_integer_is_a_size_error(self, M, no_kernel):
        with pytest.raises(SizeError, match="M must be an integer"):
            diffusion_basis(np.linspace(0.0, 1.0, 50), M=M, bandwidth=0.3)

    def test_m_too_large(self):
        with pytest.raises(SizeError):
            diffusion_basis(np.random.default_rng(0).standard_normal((10, 1)), M=11)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            diffusion_basis(np.random.default_rng(0).standard_normal((10, 1)),
                            M=2, bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_bandwidth_rejected(self, bandwidth, no_kernel):
        with pytest.raises(ConfigError, match="finite and > 0"):
            diffusion_basis(np.random.default_rng(0).standard_normal((10, 1)),
                            M=2, bandwidth=bandwidth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("bandwidth", [None, 1.0])
    def test_non_finite_points_rejected(self, bad, bandwidth, no_kernel):
        pts = np.random.default_rng(0).standard_normal((10, 2))
        pts[4, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            diffusion_basis(pts, M=2, bandwidth=bandwidth)

    @pytest.mark.parametrize("shape", [(3, 2, 2), ()])
    def test_points_not_one_or_two_dimensional_rejected(self, shape, no_kernel):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            diffusion_basis(np.zeros(shape), M=1)

    @pytest.mark.parametrize("rng", [5, np.random.RandomState(5), RngStream(5, "bw")])
    def test_rng_other_than_generator_rejected(self, rng, no_kernel):
        pts = np.random.default_rng(0).standard_normal((3000, 1))
        with pytest.raises(ConfigError, match="Generator or None"):
            diffusion_basis(pts, M=2, rng=rng)

    def test_kernel_larger_than_memory_refused(self, monkeypatch, no_dense_kernel):
        """The dense path stores the kernel's lower triangle: n = 1000 =
        64 * 15 + 40 stores 64^2 * 16 * 15 / 2 + 40 * 1000 = 531520 entries,
        4252160 bytes, and one byte less memory is refused."""
        # 3-dimensional data: no certified low-rank factor within the cap,
        # so the dense path and its memory check run
        limit = 4252160 - 1
        monkeypatch.setattr(forecast_module, "_physical_memory_bytes", lambda: limit)
        pts = np.random.default_rng(0).standard_normal((1000, 3))
        with pytest.raises(SizeError, match=f"4252160 bytes.*{limit} bytes"):
            diffusion_basis(pts, M=2, bandwidth=1.0)

    def test_kernel_that_fits_memory_is_built(self, monkeypatch):
        # one byte more memory than the 4252160 bytes above passes the check
        monkeypatch.setattr(forecast_module, "_physical_memory_bytes", lambda: 4252160 + 1)
        kernel_matrix, stored = forecast_module._kernel_matrix, []

        def counted(*args):
            K = kernel_matrix(*args)
            stored.append(_stored_bytes(K))
            return K

        monkeypatch.setattr(forecast_module, "_kernel_matrix", counted)
        basis = diffusion_basis(np.random.default_rng(0).standard_normal((1000, 3)), M=2,
                                bandwidth=1.0)
        assert stored == [4252160] and basis.M == 2

    @pytest.mark.parametrize("bandwidth, isolated", [(0.05, 30), (0.1, 5)])
    def test_isolating_bandwidth_rejected(self, monkeypatch, bandwidth, isolated):
        # with k isolated points the eigenvalue 1 has multiplicity k + 1, so
        # k >= M leaves the M leading eigenfunctions undetermined; the check
        # comes before the Krylov solver, which this test refuses
        monkeypatch.setattr(forecast_module, "_pivoted_cholesky", lambda *a: None)
        monkeypatch.setattr(forecast_module, "_krylov_eigenpairs", _refuse)
        pts = np.random.default_rng(0).standard_normal((700, 2))
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=f"bandwidth {bandwidth} isolates {isolated} of 700"):
            diffusion_basis(pts, M=5, bandwidth=bandwidth)
        assert time.perf_counter() - start < 0.5

    def test_bandwidth_without_isolated_points_converges(self, monkeypatch):
        # smallest off-diagonal row mass 4.1e-12, above the 1e-14 floor
        monkeypatch.setattr(forecast_module, "_pivoted_cholesky", lambda *a: None)
        basis = diffusion_basis(np.random.default_rng(0).standard_normal((700, 2)), M=5,
                                bandwidth=0.2)
        gram = basis.phi.T @ basis.phi / basis.n_train
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12
        np.testing.assert_allclose(basis.kernel_eigenvalues[:3], 1.0, atol=1e-12)

    def test_balancing_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(forecast_module, "_SINKHORN_MAX_ITER", 2)
        with pytest.raises(ConfigError, match=r"balancing did not converge \(residual \d"):
            diffusion_basis(_ou_training(300), M=3, bandwidth=0.5)

    def test_basis_keeps_its_own_points(self):
        pts = np.random.default_rng(2).standard_normal((100, 1))
        basis = diffusion_basis(pts, M=4, bandwidth=1.0)
        before = basis.extend([0.3])[0]
        assert basis.points is not pts and not basis.points.flags.writeable
        pts += 5.0
        assert pts.flags.writeable
        np.testing.assert_array_equal(basis.extend([0.3])[0], before)

    def test_dense_call_peak_allocation(self, monkeypatch):
        # p = 3, n = 2000, M = 6: the bandwidth selection's 4 MB, then the
        # 16.5 MB triangle and the Krylov basis; 0.610 x n^2 * 8 measured
        # (numpy 2.4) against a bound of 0.65 x, which a second 2 MB temporary
        # beside the triangle, or a full n x n kernel, would exceed
        n, builds = 2000, []
        kernel_matrix = forecast_module._kernel_matrix
        monkeypatch.setattr(forecast_module, "_kernel_matrix",
                            lambda *a: builds.append(1) or kernel_matrix(*a))
        pts = delay_embed(_ou_training(n + 2)[:, 0], 3)
        tracemalloc.start()
        try:
            diffusion_basis(pts, M=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert builds == [1]
        assert peak < 0.65 * n * n * 8

    def test_low_rank_route_needs_no_kernel_memory(self, monkeypatch, no_dense_kernel):
        monkeypatch.setattr(forecast_module, "_physical_memory_bytes",
                            lambda: 1500 * 1500 * 8 - 1)
        basis = diffusion_basis(_ou_training(1500), M=6)
        gram = basis.phi.T @ basis.phi / basis.n_train
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12

    def test_pivoted_cholesky_certificate(self):
        # the trace of K - L L^T, recomputed from a kernel built with direct
        # differences, meets the certificate; the second case certifies at
        # rank 91 of cap 93, past the 64-row buffer's first doubling
        for pts, bandwidth, rank in ((_ou_training(1500), 1.0, 26),
                                     (np.linspace(0.0, 1.0, 3000)[:, None], 0.05, 91)):
            n = pts.shape[0]
            L, piv, roots = forecast_module._pivoted_cholesky(pts, bandwidth, n // 32)
            assert L.shape == (n, rank) and piv.shape == roots.shape == (rank,)
            # each column is its pivot's kernel column less the earlier ones, over its root
            i = piv[-1]
            np.testing.assert_allclose(L[:, -1] * roots[-1] + L[:, :-1] @ L[i, :-1],
                                       np.exp(-_exact_sq_dists(pts, pts[i:i + 1])[:, 0]
                                              / bandwidth**2), rtol=0, atol=1e-15)
            K = np.exp(-_exact_sq_dists(pts, pts) / bandwidth**2)
            assert np.trace(K - L @ L.T) <= 1e-16 * n
        wide = np.random.default_rng(0).standard_normal((1000, 3))
        assert forecast_module._pivoted_cholesky(wide, 1.0, 1000 // 32) is None

    def test_offset_cloud_takes_the_low_rank_route(self, no_dense_kernel):
        # exact-difference kernel columns certify the cloud moved to +20 at
        # rank 35 of a cap of 46, and columns of the augmented product not at
        # all (see _kernel_column); the kernel is translation invariant
        pts = _ou_training(1500)
        basis = diffusion_basis(pts + 20.0, M=6)
        reference = diffusion_basis(pts, M=6, bandwidth=basis.bandwidth)
        assert _rel(basis.phi, reference.phi) < 1e-12
        np.testing.assert_allclose(basis.kernel_eigenvalues, reference.kernel_eigenvalues,
                                   rtol=1e-12)

    def test_matches_dense_reference(self, no_dense_kernel):
        for n in (1500, 4000):
            basis = diffusion_basis(_ou_training(n), M=6)
            phi, lam, s = _dense_basis(basis.points, 6, basis.bandwidth)
            assert _rel(basis.phi, phi) < 1e-12
            np.testing.assert_allclose(basis.kernel_eigenvalues, lam, rtol=1e-12)
            assert _rel(basis.scaling, s) < 1e-12

    def test_low_rank_route_matches_dense_route_at_benchmark_size(self, monkeypatch):
        # n = 8000, M = 10 as in the diffusion-ou benchmark; the reference
        # is the package's own dense path, since _dense_basis's full eigh
        # takes about 11 s and 1.6 GB at this size on a 2-CPU machine
        traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 8000, substeps=25,
                         rng=RngStream(1, "perfbench/ou"))
        with monkeypatch.context() as m:
            m.setattr(forecast_module, "_kernel_matrix", _refuse)
            basis = diffusion_basis(traj.states, M=10, rng=np.random.default_rng([1, 3]))
        monkeypatch.setattr(forecast_module, "_pivoted_cholesky", lambda *a: None)
        dense = diffusion_basis(traj.states, M=10, bandwidth=basis.bandwidth)
        assert _rel(basis.phi, dense.phi) < 1e-12
        np.testing.assert_allclose(basis.kernel_eigenvalues, dense.kernel_eigenvalues,
                                   rtol=1e-12)
        assert _rel(basis.scaling, dense.scaling) < 1e-12

    def test_circle_pair_spans_dense_reference_eigenspace(self):
        # the cos/sin pair is degenerate, so only its span is determined
        angles = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        basis = diffusion_basis(pts, M=3, bandwidth=0.5)
        phi, lam, _ = _dense_basis(pts, 3, 0.5)
        proj = basis.phi[:, 1:] @ basis.phi[:, 1:].T / 400
        proj_ref = phi[:, 1:] @ phi[:, 1:].T / 400
        assert _rel(proj, proj_ref) < 1e-12
        np.testing.assert_allclose(basis.kernel_eigenvalues, lam, rtol=1e-12)

    @pytest.mark.parametrize("extra", [1, 0])
    def test_dense_branch_for_m_near_n(self, extra):
        n = 30
        pts = np.random.default_rng(6).standard_normal((n, 2))
        basis = diffusion_basis(pts, M=n - extra, bandwidth=1.0)
        gram = basis.phi.T @ basis.phi / n
        assert np.max(np.abs(gram - np.eye(n - extra))) < 1e-12
        # constant up to the balancing tolerance (Sinkhorn residual 1e-10)
        lead = basis.phi[:, 0]
        assert np.std(lead) / abs(np.mean(lead)) < 1e-9

    def test_large_basis_warns(self):
        pts = np.random.default_rng(1).standard_normal((80, 1))
        with pytest.warns(UserWarning, match="poorly resolved"):
            diffusion_basis(pts, M=31, bandwidth=1.0)

    def test_extension_matches_training_values(self):
        traj = ou_sample(1.0, 1.0, 0.0, 0.2, 800, substeps=4,
                         rng=RngStream(9, "ext"))
        basis = diffusion_basis(traj.states, M=5)
        i = 123
        c, ok = basis.extend(basis.points[i])
        assert ok
        np.testing.assert_allclose(c, basis.phi[i], atol=0.05)

    def test_extension_fallback_outside_support(self):
        pts = np.random.default_rng(2).standard_normal((100, 1))
        basis = diffusion_basis(pts, M=4, bandwidth=0.3)
        with pytest.warns(UserWarning, match="outside the data support"):
            c, ok = basis.extend(np.array([1e6]))
        assert not ok
        assert c[0] == pytest.approx(basis.phi[0, 0])
        np.testing.assert_array_equal(c[1:], 0.0)

    def test_huge_point_falls_back_without_overflow(self):
        # its squared distance overflows to inf; exp(-inf) = 0 takes the
        # climatological fallback with its counting warning and no other
        pts = np.random.default_rng(2).standard_normal((400, 2))
        basis = diffusion_basis(pts, M=4, bandwidth=0.5)
        assert basis.factor is None
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            c, ok = basis.extend(np.array([1e200, 0.0]))
        assert [str(w.message) for w in record] == [
            "1 of 1 extension points lie outside the data support; "
            "falling back to the climatological mode"]
        assert not ok and c[0] == basis.phi[0, 0] and not c[1:].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_extension_rejects_non_finite_point(self, bad):
        pts = np.random.default_rng(0).standard_normal((100, 1))
        basis = diffusion_basis(pts, M=3, bandwidth=1.0)
        with pytest.raises(DomainError):
            basis.extend(np.array([bad]))
        with pytest.raises(DomainError):
            forecast(basis, ShiftMatrix(np.eye(3)),
                     np.array([bad]), 2, pts[:, 0])


def _exact_row_extension(basis, x):
    """The extension by the exact kernel row to every training point, from
    exact differences: the one formula of every basis before the factor's."""
    row = np.exp(-_exact_sq_dists(basis.points, np.atleast_2d(x))[:, 0] / basis.bandwidth**2)
    v = row * basis.scaling
    v /= v.sum()
    return (v @ basis.phi) / basis.kernel_eigenvalues


@pytest.fixture(scope="module", params=[1, 2], ids=["seed1", "seed2"])
def ou_benchmark_basis(request):
    """The diffusion-ou benchmark's basis: n = 8000, M = 10, factor rank 37 or 34."""
    traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 8000, substeps=25,
                     rng=RngStream(request.param, "perfbench/ou"))
    return diffusion_basis(traj.states, M=10, rng=np.random.default_rng([request.param, 3]))


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of every kernel column built while the test runs."""
    rows, column = [], forecast_module._kernel_column
    monkeypatch.setattr(forecast_module, "_kernel_column",
                        lambda points, *a: rows.append(len(points)) or column(points, *a))
    return rows


@pytest.fixture
def no_training_row(monkeypatch):
    """Fail the test if a kernel column to the training points is built; a
    factor's pivots are at most n // 32 of them."""
    column = forecast_module._kernel_column

    def pivots_only(points, *a):
        if len(points) >= 1000:
            raise AssertionError("a kernel column to the training points")
        return column(points, *a)

    monkeypatch.setattr(forecast_module, "_kernel_column", pivots_only)


class TestFactorExtension:
    def test_stationary_starts_extend_through_the_factor(self, ou_benchmark_basis,
                                                         no_training_row):
        basis = ou_benchmark_basis
        assert basis.factor[0].shape[0] in (37, 34)
        worst = 0.0
        for x in np.random.default_rng(5).standard_normal(1000):
            c, ok = basis.extend([x])
            ref = _exact_row_extension(basis, [x])
            assert ok
            worst = max(worst, _rel(c, ref))
        assert worst <= 1e-12  # 1.2e-14 measured

    def test_grid_across_and_past_the_training_range(self, ou_benchmark_basis, kernel_rows):
        # every point matches the exact row, whichever way it went; those the
        # factor does not certify build one n-entry column
        basis = ou_benchmark_basis
        grid = np.linspace(-4.5, 4.5, 3601)
        through_factor = np.empty(grid.shape, dtype=bool)
        for i, x in enumerate(grid):
            kernel_rows.clear()
            c, ok = basis.extend([x])
            assert ok and _rel(c, _exact_row_extension(basis, [x])) <= 1e-12  # 4.4e-14 measured
            through_factor[i] = kernel_rows == [basis.factor[0].shape[0]]
        inside = (grid >= basis.points.min()) & (grid <= basis.points.max())
        assert through_factor[inside].mean() >= 0.99
        assert not through_factor[np.abs(grid) >= 4.0].any()

    @pytest.mark.parametrize("x", [4.0, 5.0, 6.0])
    def test_uncertified_points_take_the_exact_row(self, ou_benchmark_basis, kernel_rows, x):
        # residuals 1e-8 to 0.96, where the factor alone errs by up to 3e-6
        basis = ou_benchmark_basis
        c, ok = basis.extend([x])
        assert ok and kernel_rows == [basis.factor[0].shape[0], basis.n_train]
        assert _rel(c, _exact_row_extension(basis, [x])) <= 1e-12

    def test_far_point_still_falls_back(self, ou_benchmark_basis):
        basis = ou_benchmark_basis
        with pytest.warns(UserWarning, match="outside the data support"):
            c, ok = basis.extend([40.0])
        assert not ok
        assert c[0] == basis.phi[0, 0] and not c[1:].any()

    def test_huge_point_falls_back_without_overflow(self, ou_benchmark_basis):
        basis = ou_benchmark_basis
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            c, ok = basis.extend([1e200])
        assert [str(w.message) for w in record] == [
            "1 of 1 extension points lie outside the data support; "
            "falling back to the climatological mode"]
        assert not ok and c[0] == basis.phi[0, 0] and not c[1:].any()

    def test_certified_forecasts_build_no_training_row(self, ou_benchmark_basis,
                                                       no_training_row):
        basis, train = ou_benchmark_basis, ou_benchmark_basis.points[:, 0]
        shift = shift_matrix(basis, eval_bump)
        ghat = basis.phi.T @ train / basis.n_train
        for x0 in np.random.default_rng(7).standard_normal(50):
            preds, ok = forecast(basis, shift, np.array([x0]), 20, train)
            ref = _exact_row_extension(basis, [x0])
            ref = [ghat @ np.linalg.matrix_power(shift.matrix, k) @ ref for k in range(21)]
            assert ok and _rel(preds, np.array(ref)) <= 1e-12

    def test_dense_route_basis_extends_by_the_row_as_before(self, monkeypatch):
        # p = 3, n = 2000: the factor is not certified within its cap
        pts = delay_embed(_ou_training(2002)[:, 0], 3)
        basis = diffusion_basis(pts, M=6)
        assert basis.factor is None
        for x in (*basis.points[::250], basis.points[7] + 0.1):
            row = forecast_module._kernel_column(basis.points, x, basis.bandwidth)
            v = row * basis.scaling
            v /= v.sum()
            c, ok = basis.extend(x)
            np.testing.assert_array_equal(c, (v @ basis.phi) / basis.kernel_eigenvalues)

    def test_hand_built_basis_has_no_factor(self):
        basis = DiffusionBasis(phi=np.ones((5, 1)), kernel_eigenvalues=np.ones(1),
                               bandwidth=1.0, points=np.arange(5.0)[:, None],
                               scaling=np.ones(5))
        assert basis.factor is None and "factor" not in repr(basis)
        np.testing.assert_allclose(basis.extend([2.0])[0], [1.0])


@pytest.fixture(scope="module")
def embedded_basis():
    """p = 3, n = 2000: a dense-route basis (no factor)."""
    basis = diffusion_basis(delay_embed(_ou_training(2002)[:, 0], 3), M=6)
    assert basis.factor is None
    return basis


def _worst(batch, rows):
    """The largest difference between a batch and its per-start rows, relative
    to the largest entry of the rows."""
    rows = np.array(rows)
    return np.abs(batch - rows).max() / np.abs(rows).max()


def _outside_warnings(record):
    return [str(w.message) for w in record if "outside the data support" in str(w.message)]


class TestBatchedExtension:
    def test_low_rank_batch_rows_match_single_starts(self, ou_benchmark_basis):
        basis, train = ou_benchmark_basis, ou_benchmark_basis.points[:, 0]
        starts = np.random.default_rng(11).standard_normal((60, 1))
        C, ok = basis.extend(starts)
        assert C.shape == (60, basis.M) and ok.shape == (60,) and ok.dtype == bool and ok.all()
        assert _worst(C, [basis.extend(x)[0] for x in starts]) <= 1e-14
        for w in (None, eval_bump):
            shift = shift_matrix(basis, w)
            preds, ok = forecast(basis, shift, starts, 20, train)
            assert preds.shape == (60, 21) and ok.all()
            assert _worst(preds, [forecast(basis, shift, x, 20, train)[0] for x in starts]) <= 1e-14

    def test_dense_batch_rows_match_single_starts(self, embedded_basis):
        basis = embedded_basis
        g = basis.points[:, -1]
        starts = np.vstack([basis.points[::97], basis.points[5:8] + 0.05])
        C, ok = basis.extend(starts)
        assert ok.all()
        assert _worst(C, [basis.extend(x)[0] for x in starts]) <= 1e-14
        shift = shift_matrix(basis, eval_bump)
        preds, ok = forecast(basis, shift, starts, 12, g)
        assert preds.shape == (len(starts), 13) and ok.all()
        assert _worst(preds, [forecast(basis, shift, x, 12, g)[0] for x in starts]) <= 1e-14

    def test_single_start_keeps_its_shapes(self, ou_benchmark_basis):
        basis = ou_benchmark_basis
        c, ok = basis.extend(np.array([0.4]))
        assert c.shape == (basis.M,) and ok is True
        preds, ok = forecast(basis, shift_matrix(basis), 0.4, 5, basis.points[:, 0])
        assert preds.shape == (6,) and ok is True
        C, ok = basis.extend(np.array([[0.4]]))
        assert C.shape == (1, basis.M) and ok.shape == (1,)
        np.testing.assert_array_equal(C[0], c)

    def test_mixed_batch_one_warning(self, ou_benchmark_basis, kernel_rows):
        # certified, uncertified but inside the support (see
        # test_uncertified_points_take_the_exact_row), and far outside
        basis, train = ou_benchmark_basis, ou_benchmark_basis.points[:, 0]
        starts = np.array([[0.3], [5.0], [40.0], [-0.7], [-60.0], [4.0]])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            C, ok = basis.extend(starts)
        assert ok.tolist() == [True, True, False, True, False, True]
        assert _outside_warnings(record) == [
            "2 of 6 extension points lie outside the data support; "
            "falling back to the climatological mode"]
        # one block of factor columns, then one block of exact rows for the other three
        assert kernel_rows == [basis.factor[0].shape[0], basis.n_train]
        for i in (2, 4):
            assert C[i, 0] == basis.phi[0, 0] and not C[i, 1:].any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            singles = [basis.extend(x)[0] for x in starts]
            preds, mask = forecast(basis, shift_matrix(basis), starts, 8, train)
            single_preds = [forecast(basis, shift_matrix(basis), x, 8, train)[0]
                            for x in starts]
        assert _worst(C, singles) <= 1e-14
        assert mask.tolist() == ok.tolist()
        assert _worst(preds, single_preds) <= 1e-14

    def test_exact_rows_come_in_bounded_blocks(self, embedded_basis, monkeypatch):
        basis = embedded_basis
        starts = basis.points[3::41] + 0.01
        whole, _ = basis.extend(starts)
        sizes = []
        column = forecast_module._kernel_column

        def record(points, X, bandwidth):
            sizes.append(X.size * len(points) * 8)
            return column(points, X, bandwidth)

        monkeypatch.setattr(forecast_module, "_kernel_column", record)
        # room for the differences of 5 rows per block
        monkeypatch.setattr(forecast_module, "_ROW_BLOCK_BYTES", 5 * 8 * basis.points.size + 7)
        C, ok = basis.extend(starts)
        assert len(sizes) == -(-len(starts) // 5)
        assert max(sizes) <= 5 * 8 * basis.points.size
        assert ok.all() and _worst(C, whole) <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 2), (4, 1, 3), (2, 3, 1)])
    def test_wrong_point_dimension_is_a_shape_error(self, embedded_basis, shape):
        with pytest.raises(ShapeError, match="dimension 3"):
            embedded_basis.extend(np.zeros(shape))
        with pytest.raises(ShapeError, match="dimension 3"):
            forecast(embedded_basis, shift_matrix(embedded_basis), np.zeros(shape), 2,
                     embedded_basis.points[:, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_anywhere_is_a_domain_error(self, ou_benchmark_basis,
                                                          embedded_basis, bad):
        for basis in (ou_benchmark_basis, embedded_basis):
            starts = basis.points[:5].copy()
            starts[3, -1] = bad
            with pytest.raises(DomainError, match="non-finite"):
                basis.extend(starts)
            with pytest.raises(DomainError, match="non-finite"):
                forecast(basis, shift_matrix(basis), starts, 2, basis.points[:, 0])

    def test_empty_batch_is_a_size_error(self, ou_benchmark_basis, embedded_basis):
        for basis in (ou_benchmark_basis, embedded_basis):
            empty = np.empty((0, basis.points.shape[1]))
            with pytest.raises(SizeError, match="no points"):
                basis.extend(empty)
            with pytest.raises(SizeError, match="no points"):
                forecast(basis, shift_matrix(basis), empty, 2, basis.points[:, 0])

    def test_caller_starts_unchanged_and_writeable(self, ou_benchmark_basis, embedded_basis):
        for basis in (ou_benchmark_basis, embedded_basis):
            starts = np.vstack([basis.points[:4] + 0.01, basis.points[:1] + 1e3])
            before = starts.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                basis.extend(starts)
                forecast(basis, shift_matrix(basis), starts, 3, basis.points[:, 0])
            np.testing.assert_array_equal(starts, before)
            assert starts.flags.writeable
            starts[0, 0] = 1.0


# fits and forecasts on an n = 8000 OU path (the low-rank route) and builds a
# p = 3, n = 2000 delay-embedded basis (the dense route) in one fresh
# process, then prints the growth of the peak RSS across the low-rank basis,
# in MB, and the scipy modules loaded.  The peak is the kernel's VmHWM, which
# starts afresh in the new process: ru_maxrss would carry over the peak of
# the process that started it, and read no growth under a large test run.
_SCIPY_PROBE = """
import json, math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from taperdyn import (RngStream, delay_embed, diffusion_basis, eval_bump, forecast,
                      ou_sample, shift_matrix)


def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


train = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 8000, substeps=25,
                  rng=RngStream(1, "probe")).states[:, 0]
before = peak_mb()
basis = diffusion_basis(train[:, None], M=10)
print(peak_mb() - before)
for w in (None, eval_bump):
    forecast(basis, shift_matrix(basis, w), np.array([0.5]), 20, train)
dense_builds, module = [], sys.modules["taperdyn.forecast"]
kernel_matrix = module._kernel_matrix
module._kernel_matrix = lambda *a: dense_builds.append(1) or kernel_matrix(*a)
embedded = diffusion_basis(delay_embed(train[:2002], 3), M=6)
assert dense_builds == [1] and embedded.phi.shape == (2000, 6)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_low_rank_forecast_loads_no_scipy():
    src = Path(forecast_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, growth, modules = proc.stdout.splitlines()
    assert json.loads(modules) == []
    # tracemalloc misses what LAPACK and the allocator keep: the low-rank
    # basis grew the peak RSS by 5.0-6.2 MB (numpy 2.4, OpenBLAS with 2
    # threads; with and without bytecode caches) against a bound of 8 MB; a
    # thin SVD of the factor in place of the Gram route read 9.8-10.4 MB,
    # and the former pair buffer with the SVD 17.1-17.7 MB
    assert float(growth) < 8.0


@pytest.fixture(scope="module")
def ou_basis():
    traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 4000, substeps=5,
                     rng=RngStream(11, "shift"))
    return diffusion_basis(traj.states, M=8)


class TestShiftMatrix:
    def test_constant_mode_is_fixed(self, ou_basis):
        for weights in (None, eval_bump):
            A = shift_matrix(ou_basis, weights).matrix
            np.testing.assert_allclose(A[0], np.eye(ou_basis.M)[0], atol=1e-9)

    @pytest.mark.parametrize("weights", [None, eval_bump], ids=["plain", "tapered"])
    def test_exact_linear_dynamics_recovered(self, weights):
        # phi_{n+1} = B phi_n holds exactly, so the least-squares fit is B
        # whatever the taper; B fixes the constant mode and rotates two planes
        def rot(a):
            return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

        B = np.zeros((5, 5))
        B[0, 0] = 1.0
        B[1:3, 1:3] = rot(math.sqrt(2.0))
        B[3:, 3:] = rot(math.sqrt(3.0))
        phi = np.empty((400, 5))
        phi[0] = [1.0, 1.0, 0.0, 0.5, -0.3]
        for n in range(1, 400):
            phi[n] = B @ phi[n - 1]
        basis = DiffusionBasis(phi=phi, kernel_eigenvalues=np.ones(5), bandwidth=1.0,
                               points=np.zeros((400, 1)), scaling=np.ones(400))
        np.testing.assert_allclose(shift_matrix(basis, weights).matrix, B, atol=1e-12)

    def test_spectrum_inside_unit_disk(self, ou_basis):
        for weights in (None, eval_bump):
            A = shift_matrix(ou_basis, weights).matrix
            radii = np.abs(np.linalg.eigvals(A))
            assert radii.max() <= 1.0 + 1e-12

    def test_uniform_matches_plain_average_exactly(self, ou_basis):
        A_u = shift_matrix(ou_basis, None).matrix
        A_1 = shift_matrix(ou_basis,
                           make_weight_vector(ou_basis.n_train - 1, uniform_taper)).matrix
        np.testing.assert_allclose(A_1, A_u, atol=1e-13)

    def test_weighted_converges_toward_plain(self):
        # both fits estimate the same transfer operator from one sample path,
        # so they agree to O(N^-1/2) in expectation; check the seed-averaged
        # trend and the level (0.15 at N = 1500, 0.07 at N = 6000)
        def mean_rel(N):
            rels = []
            for seed in range(4):
                traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, N, substeps=5,
                                 rng=RngStream(seed, "shift-trend"))
                basis = diffusion_basis(traj.states, M=5)
                A_u = shift_matrix(basis, None).matrix
                A_w = shift_matrix(basis, eval_bump).matrix
                rels.append(np.linalg.norm(A_w - A_u) / np.linalg.norm(A_u))
            return np.mean(rels)

        short, long = mean_rel(1500), mean_rel(6000)
        assert long < short
        assert long <= 0.12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tapered_forecasts_stable_on_ou(self, seed):
        # the OU workload's inputs: n = 8000, M = 10, 120 stationary starts
        traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 8000, substeps=25,
                         rng=RngStream(seed, "perfbench/ou"))
        train = traj.states[:, 0]
        basis = diffusion_basis(train[:, None], M=10, rng=np.random.default_rng([seed, 3]))
        shift = shift_matrix(basis, eval_bump)
        radius = np.abs(np.linalg.eigvals(shift.matrix)).max()
        assert abs(radius - 1.0) <= 1e-12
        x0s = np.random.default_rng([seed, 2]).standard_normal(120)
        preds = np.array([forecast(basis, shift, np.array([x0]), 20, train)[0] for x0 in x0s])
        truth = x0s[:, None] * np.exp(-0.1 * np.arange(1, 21))[None, :]
        rel = np.linalg.norm(preds[:, 1:] - truth, axis=0) / np.linalg.norm(truth, axis=0)
        assert rel.max() < 1.0

    def test_weight_vector_length_checked(self, ou_basis):
        with pytest.raises(ShapeError):
            shift_matrix(ou_basis, make_weight_vector(17, eval_bump))


class TestForecast:
    def test_identity_shift_is_constant_in_lead(self):
        pts = np.random.default_rng(4).standard_normal((200, 1))
        basis = diffusion_basis(pts, M=4, bandwidth=1.0)
        ident = ShiftMatrix(np.eye(4))
        preds, ok = forecast(basis, ident, pts[10], 5, pts[:, 0])
        assert ok
        np.testing.assert_allclose(preds, preds[0], atol=1e-12)

    def test_lead_zero_is_basis_reconstruction(self):
        traj = ou_sample(1.0, 1.0, 0.0, 0.2, 1000, substeps=4,
                         rng=RngStream(13, "rec"))
        basis = diffusion_basis(traj.states, M=6)
        shift = shift_matrix(basis, None)
        g = traj.states[:, 0]
        ghat = basis.phi.T @ g / basis.n_train
        recon = basis.phi @ ghat
        i = 500
        preds, _ = forecast(basis, shift, basis.points[i], 0, g)
        assert preds[0] == pytest.approx(recon[i], abs=0.05)

    def test_ou_conditional_mean_smoke(self):
        # scaled-down version of the benchmark oracle: k*tau <= 1, loose bound
        tau = 0.1
        traj = ou_sample(1.0, math.sqrt(2.0), 0.0, tau, 4200, substeps=10,
                         rng=RngStream(2, "ou-small"))
        path = traj.states[:, 0]
        basis = diffusion_basis(path[:4000, None], M=8)
        shift = shift_matrix(basis, None)
        starts = path[4000:4150]
        preds = np.array([forecast(basis, shift, np.array([x0]), 10, path[:4000])[0]
                          for x0 in starts])
        for k in (1, 5, 10):
            truth = starts * math.exp(-k * tau)
            rel = np.linalg.norm(preds[:, k] - truth) / np.linalg.norm(truth)
            assert rel < 0.2

    @pytest.mark.parametrize("k_max", [2.0, 2.5, True, "2"])
    def test_k_max_not_an_integer_is_a_config_error(self, ou_basis, monkeypatch, k_max):
        monkeypatch.setattr(DiffusionBasis, "extend", _refuse)  # checked before extending
        with pytest.raises(ConfigError, match="k_max must be an integer"):
            forecast(ou_basis, shift_matrix(ou_basis), np.array([0.1]), k_max,
                     ou_basis.points[:, 0])

    def test_numpy_integer_k_max_accepted(self, ou_basis):
        preds, _ = forecast(ou_basis, shift_matrix(ou_basis), np.array([0.1]), np.int32(3),
                            ou_basis.points[:, 0])
        assert preds.shape == (4,)

    def test_observable_length_checked(self):
        pts = np.random.default_rng(4).standard_normal((50, 1))
        basis = diffusion_basis(pts, M=3, bandwidth=1.0)
        with pytest.raises(ShapeError):
            forecast(basis, ShiftMatrix(np.eye(3)), pts[0], 2, np.ones(49))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("everywhere", [False, True])
    def test_non_finite_observable_rejected(self, bad, everywhere):
        basis = diffusion_basis(np.linspace(0, 1, 50)[:, None], M=3)
        g = np.full(50, bad) if everywhere else np.linspace(0, 1, 50)
        g[7] = bad
        with pytest.raises(DomainError, match="non-finite"):
            forecast(basis, shift_matrix(basis), np.array([0.5]), 2, g)

    def test_lead_zero_independent_of_shift_matrix(self, ou_basis):
        g = ou_basis.points[:, 0]
        x0 = ou_basis.points[37]
        rng = np.random.default_rng(0)
        p1, _ = forecast(ou_basis, ShiftMatrix(np.eye(ou_basis.M)), x0, 3, g)
        p2, _ = forecast(ou_basis,
                         ShiftMatrix(rng.standard_normal((ou_basis.M,) * 2)),
                         x0, 3, g)
        assert p1[0] == p2[0]

    def test_lead_recursion_matches_repeated_products(self, ou_basis):
        g = ou_basis.points[:, 0]
        ghat = ou_basis.phi.T @ g / ou_basis.n_train
        shift = shift_matrix(ou_basis, eval_bump)
        for x0 in (-1.3, 0.2, 2.1):
            preds, _ = forecast(ou_basis, shift, np.array([x0]), 25, g)
            vec, ref = ou_basis.extend([x0])[0], []
            for _ in range(26):
                ref.append(ghat @ vec)
                vec = shift.matrix @ vec
            assert np.abs(preds - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_shift_matrix_of_another_basis_is_a_shape_error(self, ou_basis, monkeypatch):
        other = diffusion_basis(ou_basis.points, M=6, bandwidth=ou_basis.bandwidth)
        monkeypatch.setattr(DiffusionBasis, "extend", _refuse)  # checked before extending
        with pytest.raises(ShapeError, match=r"shift matrix has shape \(6, 6\), the basis "
                                             r"needs \(8, 8\)"):
            forecast(ou_basis, shift_matrix(other), np.array([0.1]), 3, ou_basis.points[:, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shift_matrix_is_a_domain_error(self, ou_basis, monkeypatch, bad):
        matrix = np.eye(ou_basis.M)
        matrix[3, 5] = bad
        monkeypatch.setattr(DiffusionBasis, "extend", _refuse)
        with pytest.raises(DomainError, match="shift matrix contains non-finite"):
            forecast(ou_basis, ShiftMatrix(matrix), np.array([0.1]), 3, ou_basis.points[:, 0])


class TestSkill:
    def test_perfect_prediction(self):
        truth = np.random.default_rng(0).standard_normal((20, 4))
        res = skill(truth.copy(), truth)
        np.testing.assert_allclose(res.rmse, 0.0, atol=1e-15)
        np.testing.assert_allclose(res.correlation, 1.0, atol=1e-12)
        assert res.climatology == pytest.approx(np.std(truth))

    def test_constant_prediction_hits_climatology(self):
        g = np.random.default_rng(1)
        truth = g.standard_normal((50, 2))
        preds = np.full((50, 2), truth.mean(axis=0))
        res = skill(preds, truth)
        for k in range(2):
            assert res.rmse[k] == pytest.approx(np.std(truth[:, k]), rel=1e-12)
            assert np.isnan(res.correlation[k])

    def test_anticorrelated(self):
        truth = np.linspace(-1, 1, 30)[:, None]
        res = skill(-truth, truth)
        assert res.correlation[0] == pytest.approx(-1.0)

    def test_missing_leads(self):
        truth = np.full((5, 3), np.nan)
        truth[:, 0] = 1.0
        truth[:2, 1] = 1.0
        res = skill(np.ones((5, 3)), truth)
        assert res.n_pairs.tolist() == [5, 2, 0]
        assert np.isnan(res.rmse[1]) and np.isnan(res.rmse[2])

    def test_correlation_invariant_under_common_shift(self):
        g = np.random.default_rng(5)
        truth = g.standard_normal((40, 2))
        preds = truth + 0.3 * g.standard_normal((40, 2))
        base = skill(preds, truth)
        shifted = skill(preds + 7.5, truth + 7.5)
        np.testing.assert_allclose(shifted.correlation, base.correlation, rtol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            skill(np.ones((3, 2)), np.ones((3, 3)))


from conftest import synth_monthly_csv


class TestMonthlyPipeline:
    def test_compare_shares_everything_but_the_shift(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        res_u, res_w, details = nino34_compare(
            csv, valid_range=("2000-01", "2010-12"), k_max=6, M=8)
        assert res_u.leads.tolist() == [1, 2, 3, 4, 5, 6]
        assert res_u.climatology == res_w.climatology
        # with a uniform taper the two modes must coincide exactly
        res_u2, res_w2, _ = nino34_compare(
            csv, valid_range=("2000-01", "2010-12"), k_max=6, M=8,
            w=uniform_taper)
        np.testing.assert_allclose(res_u2.rmse, res_w2.rmse, rtol=1e-12)

    def test_deterministic(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        a = nino34_compare(csv, valid_range=("2000-01", "2005-12"), k_max=4, M=6)
        b = nino34_compare(csv, valid_range=("2000-01", "2005-12"), k_max=4, M=6)
        np.testing.assert_array_equal(a[0].rmse, b[0].rmse)
        np.testing.assert_array_equal(a[1].rmse, b[1].rmse)

    @pytest.mark.parametrize("text, message", [
        ("1920-13", "1..12"), ("1920-00", "1..12"), ("1920-0", "1..12"),
        ("1920", "YYYY-MM"), ("1920-1-1", "YYYY-MM"), ("1920-x", "YYYY-MM"),
    ])
    def test_month_outside_the_year_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"{re.escape(message)}, got '{text}'"):
            forecast_module._parse_month(text)

    def test_month_keys(self):
        assert forecast_module._parse_month("1920-01") == 1920 * 12
        assert forecast_module._parse_month("1920-12") == 1920 * 12 + 11

    def test_truth_capped_at_validation_end(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        res_u, _, details = nino34_compare(
            csv, valid_range=("2013-01", "2013-12"), k_max=6, M=6)
        # the last start has no truth at any lead inside the window
        assert np.isnan(details["truth"][-1]).all()
        assert res_u.n_pairs[0] == 11

    @pytest.mark.parametrize("ranges, message", [
        ({"valid_range": ("2005-01", "2004-12")}, "validation range 2005-01..2004-12"),
        ({"train_range": ("1950-01", "1940-12")}, "training range 1950-01..1940-12"),
    ])
    def test_reversed_range_rejected_before_the_basis(self, tmp_path, monkeypatch,
                                                      ranges, message):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        monkeypatch.setattr(forecast_module, "diffusion_basis", _refuse)
        with pytest.raises(ConfigError, match=f"{message} ends before it starts"):
            nino34_compare(csv, **ranges)

    def test_validation_start_before_the_window_rejected_before_the_basis(
            self, tmp_path, monkeypatch):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        monkeypatch.setattr(forecast_module, "diffusion_basis", _refuse)
        with pytest.raises(SizeError, match="validation start precedes the file"):
            nino34_compare(csv, valid_range=("1920-03", "1930-12"), lags=6)

    def test_one_month_validation_range(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        _, _, details = nino34_compare(csv, valid_range=("2005-06", "2005-06"), k_max=3, M=6)
        assert details["start_months"] == [(2005, 6)]
        assert details["predictions_weighted"].shape == (1, 3)
        assert np.isnan(details["truth"]).all()

    @pytest.mark.parametrize("kwargs", [
        {},
        {"valid_range": ("2000-01", "2010-12"), "k_max": 6, "M": 8},
        {"lags": 3, "M": 20, "k_max": 12, "valid_range": ("1990-01", "2015-12")},
    ])
    def test_details_match_per_start_forecasts(self, tmp_path, kwargs):
        # the loop nino34_compare ran before it made one call per shift matrix
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        values = read_nino34_csv(csv)[1]
        cfg = {"train_range": ("1920-01", "1999-12"), "valid_range": ("2000-01", "2013-12"),
               "lags": 6, "M": 14, "k_max": 16, **kwargs}
        _, _, details = nino34_compare(csv, **cfg)
        lags, k_max = cfg["lags"], cfg["k_max"]
        t0, t1, v0, v1 = (forecast_module._parse_month(m) - 1920 * 12
                          for m in (*cfg["train_range"], *cfg["valid_range"]))
        basis = diffusion_basis(delay_embed(values[t0:t1 + 1], lags), M=cfg["M"])
        g = basis.points[:, -1]
        for key, w in (("predictions_unweighted", None), ("predictions_weighted", eval_bump)):
            shift = shift_matrix(basis, w)
            ref = [forecast(basis, shift, values[s - lags + 1:s + 1], k_max, g)[0][1:]
                   for s in range(v0, v1 + 1)]
            assert _worst(details[key], ref) <= 1e-13
        truth = np.full((v1 - v0 + 1, k_max), np.nan)
        for i, s in enumerate(range(v0, v1 + 1)):
            ahead = min(k_max, v1 - s)
            truth[i, :ahead] = values[s + 1:s + 1 + ahead]
        np.testing.assert_array_equal(details["truth"], truth)
        assert details["fallback_starts"] == 0

    def test_fallback_starts_counted_from_the_mask(self, tmp_path):
        csv = tmp_path / "index.csv"
        values = synth_monthly_csv(csv)
        lines = csv.read_text().splitlines()
        # two validation months far outside the training data
        for i in (2003 - 1920) * 12 + 4, (2003 - 1920) * 12 + 9:
            year, month, _ = lines[i + 1].split(",")
            lines[i + 1] = f"{year},{month},{values[i] + 1e3}"
        csv.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            _, _, details = nino34_compare(csv, valid_range=("2003-01", "2003-12"),
                                           lags=1, M=6, k_max=2)
        assert details["fallback_starts"] == 2
        assert _outside_warnings(record) == [
            "2 of 12 extension points lie outside the data support; "
            "falling back to the climatological mode"] * 2  # one per shift matrix

    def test_range_outside_file(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv, n_years=30)
        with pytest.raises(Exception):
            nino34_compare(csv)
