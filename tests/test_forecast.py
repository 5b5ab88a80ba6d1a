import importlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from taperdyn import (
    ConfigError,
    DomainError,
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
from taperdyn.forecast import (
    DiffusionBasis,
    ShiftMatrix,
    _pairwise_sq_dists_chunk,
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


# the package exports a function named forecast, which hides the module
forecast_module = importlib.import_module("taperdyn.forecast")


def _dense_basis(pts, M, bandwidth):
    """Reference basis: full kernel, K @ v Sinkhorn, dense eigh on s K s."""
    n = pts.shape[0]
    K = np.exp(-_pairwise_sq_dists_chunk(pts, pts) / bandwidth**2)
    s = _sinkhorn_scaling(lambda v: K @ v, n)
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
    monkeypatch.setattr(forecast_module, "_kernel_lower", _refuse)


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


def _full_matrix_bandwidth(points, seed):
    """The former rule: the median over every positive entry of the full
    distance matrix, so each pair counts twice and diagonal residues enter."""
    sub = _bandwidth_subsample(points, seed)
    d2 = _pairwise_sq_dists_chunk(sub, sub)
    return float(np.sqrt(np.median(d2[d2 > 0])))


def _distinct_pairs_bandwidth(points, seed):
    """The median positive distance over pairs i < j, same distance formula."""
    sub = _bandwidth_subsample(points, seed)
    d2 = _pairwise_sq_dists_chunk(sub, sub)[np.tril_indices(sub.shape[0], -1)]
    return float(np.sqrt(np.median(d2[d2 > 0])))


def _auto_bandwidth(points, seed):
    return forecast_module._auto_bandwidth(points, np.random.default_rng(seed))


class TestAutoBandwidth:
    @pytest.mark.parametrize("n", [8000, 1500])
    def test_one_dimensional_matches_full_matrix_median(self, n):
        # for p = 1 the full matrix is exactly symmetric with a zero diagonal,
        # and doubling every value of a multiset keeps its median
        pts = _ou_training(n)
        assert _auto_bandwidth(pts, 5) == _full_matrix_bandwidth(pts, 5)

    @pytest.mark.parametrize("lags, n", [(2, 1500), (3, 2000), (3, 6000)])
    def test_embedded_data_drop_diagonal_residues(self, lags, n):
        pts = delay_embed(_ou_training(n + lags - 1)[:, 0], lags).points
        sub = _bandwidth_subsample(pts, 5)
        assert (np.diag(_pairwise_sq_dists_chunk(sub, sub)) > 0).any()
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

    @pytest.mark.parametrize("p", [1, 3])
    def test_peak_allocation_is_about_one_pair_buffer(self, p):
        # one float64 per distinct pair of the subsample, plus one 64-row band's
        # temporaries: 1.143-1.145 x the buffer measured (numpy 2.4) against a
        # bound of 1.19 x (4% margin); one more band-sized (1 MB) temporary
        # would read 1.205 x, and a second buffer-sized array 2 x
        m = forecast_module._BANDWIDTH_SUBSAMPLE
        pts = np.random.default_rng(p).standard_normal((8000, p))
        tracemalloc.start()
        try:
            _auto_bandwidth(pts, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.19 * (m * (m - 1) // 2 * 8)

    @pytest.mark.parametrize("shape", [(2, 1), (300, 2), (3000, 1)])
    def test_identical_points_rejected(self, shape):
        with pytest.raises(ConfigError, match="all pairwise distances are zero"):
            _auto_bandwidth(np.full(shape, 0.7), 0)


class TestKernelLower:
    def test_bands_are_filled_in_place(self):
        # n = 2000, p = 3: one 64-row band's temporaries are 1 MB each; 1.16 MB
        # above the n^2 * 8 kernel measured (numpy 2.4) against a bound of
        # 2 MB, which a band-sized copy or a second live band would exceed
        n = 2000
        pts = np.random.default_rng(3).standard_normal((n, 3))
        tracemalloc.start()
        try:
            K = forecast_module._kernel_lower(pts, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n * n * 8 < 2e6
        full = np.exp(-_pairwise_sq_dists_chunk(pts, pts))
        np.testing.assert_allclose(np.tril(K), np.tril(full), rtol=1e-13)


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
        assert forecast_module._pivoted_cholesky(pts, 1.0, 1).shape == (40, 1)
        dense_builds = []
        kernel_lower = forecast_module._kernel_lower
        monkeypatch.setattr(forecast_module, "_kernel_lower",
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
        # 3-dimensional data: no certified low-rank factor within the cap,
        # so the dense path and its memory check run
        limit = 1000 * 1000 * 8 - 1
        monkeypatch.setattr(forecast_module, "_physical_memory_bytes", lambda: limit)
        pts = np.random.default_rng(0).standard_normal((1000, 3))
        with pytest.raises(SizeError, match=f"8000000 bytes.*{limit} bytes"):
            diffusion_basis(pts, M=2, bandwidth=1.0)

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
            L = forecast_module._pivoted_cholesky(pts, bandwidth, n // 32)
            assert L.shape == (n, rank)
            K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) / bandwidth**2)
            assert np.trace(K - L @ L.T) <= 1e-16 * n
        wide = np.random.default_rng(0).standard_normal((1000, 3))
        assert forecast_module._pivoted_cholesky(wide, 1.0, 1000 // 32) is None

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
            m.setattr(forecast_module, "_kernel_lower", _refuse)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_extension_rejects_non_finite_point(self, bad):
        pts = np.random.default_rng(0).standard_normal((100, 1))
        basis = diffusion_basis(pts, M=3, bandwidth=1.0)
        with pytest.raises(DomainError):
            basis.extend(np.array([bad]))
        with pytest.raises(DomainError):
            forecast(basis, ShiftMatrix(np.eye(3)),
                     np.array([bad]), 2, pts[:, 0])


# fits and forecasts on an n = 8000 OU path in one fresh process and prints
# the scipy modules loaded
_SCIPY_PROBE = """
import json, math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from taperdyn import (RngStream, diffusion_basis, eval_bump, forecast,
                      ou_sample, shift_matrix)

train = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 8000, substeps=25,
                  rng=RngStream(1, "probe")).states[:, 0]
basis = diffusion_basis(train[:, None], M=10)
for w in (None, eval_bump):
    forecast(basis, shift_matrix(basis, w), np.array([0.5]), 20, train)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_low_rank_forecast_loads_no_scipy():
    src = Path(forecast_module.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


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

    def test_truth_capped_at_validation_end(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv)
        res_u, _, details = nino34_compare(
            csv, valid_range=("2013-01", "2013-12"), k_max=6, M=6)
        # the last start has no truth at any lead inside the window
        assert np.isnan(details["truth"][-1]).all()
        assert res_u.n_pairs[0] == 11

    def test_range_outside_file(self, tmp_path):
        csv = tmp_path / "index.csv"
        synth_monthly_csv(csv, n_years=30)
        with pytest.raises(Exception):
            nino34_compare(csv)
