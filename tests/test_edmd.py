import math

import numpy as np
import pytest

from taperdyn import (
    DictionaryMatrices,
    NumericalError,
    RngStream,
    ShapeError,
    build_dictionary_matrices,
    dmd,
    edmd,
    exponential_bump,
    fourier_dictionary,
    identity_dictionary,
    make_weight_vector,
    monomial_dictionary,
    mpedmd,
    snapshot_pair,
    standard_map,
    uniform_weight,
)
from taperdyn.systems import Trajectory

TWO_PI = 2.0 * math.pi
ALPHA = (math.sqrt(2.0) * TWO_PI) % TWO_PI


@pytest.fixture
def gen():
    return RngStream(17, "edmd").generator()


def rotation_orbit(n, theta0=0.3):
    return ((theta0 + ALPHA * np.arange(n)) % TWO_PI)[:, None]


class TestDictionaries:
    def test_fourier_unit_modulus_and_order(self, gen):
        d = fourier_dictionary(1, dim=2)
        assert d.size == 9
        states = gen.uniform(0, TWO_PI, (50, 2))
        vals = d(states)
        np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-14)
        # lexicographic order: first column is k = (-1, -1), middle is (0, 0)
        np.testing.assert_allclose(
            vals[:, 0], np.exp(-1j * (states[:, 0] + states[:, 1])), atol=1e-12)
        np.testing.assert_allclose(vals[:, 4], 1.0, atol=1e-15)

    def test_monomials_1d(self):
        d = monomial_dictionary(5, dim=1)
        assert d.size == 6
        vals = d(np.array([[2.0]]))
        np.testing.assert_allclose(vals[0].real, [1, 2, 4, 8, 16, 32], atol=1e-12)

    def test_monomials_graded_order_2d(self):
        d = monomial_dictionary(2, dim=2)
        # 1; y, x; y^2, xy, x^2
        vals = d(np.array([[2.0, 3.0]]))[0].real
        np.testing.assert_allclose(vals, [1, 3, 2, 9, 6, 4], atol=1e-12)

    def test_identity(self, gen):
        d = identity_dictionary(3)
        states = gen.standard_normal((10, 3))
        np.testing.assert_allclose(d(states), states, atol=1e-15)

    def test_dimension_mismatch(self, gen):
        with pytest.raises(ShapeError):
            fourier_dictionary(1, dim=2)(gen.standard_normal((5, 3)))


class TestBuildMatrices:
    def test_identity_matches_snapshots(self, gen):
        states = gen.standard_normal((20, 3))
        mats = build_dictionary_matrices(Trajectory(states), identity_dictionary(3))
        pair = snapshot_pair(states)
        np.testing.assert_allclose(mats.Psi, pair.X.T, atol=1e-15)
        np.testing.assert_allclose(mats.Phi, pair.Y.T, atol=1e-15)

    def test_constant_trajectory_identical_rows(self):
        states = np.tile([0.5, 1.0], (10, 1))
        mats = build_dictionary_matrices(states, fourier_dictionary(1, dim=2))
        assert np.all(mats.Psi == mats.Psi[0])

    def test_prefix(self, gen):
        states = gen.standard_normal((30, 2))
        mats = build_dictionary_matrices(states, identity_dictionary(2))
        assert mats.prefix(10).n_pairs == 10


class TestEdmd:
    def test_exact_consistency_any_weights(self):
        orbit = rotation_orbit(500)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=1))
        expected = np.diag([np.exp(-1j * ALPHA), 1.0, np.exp(1j * ALPHA)])
        for weights in (None, make_weight_vector(mats.n_pairs, exponential_bump())):
            K = edmd(mats, weights).matrix
            np.testing.assert_allclose(K, expected, atol=1e-9)

    def test_identity_dictionary_reproduces_dmd_transposed(self, gen):
        states = gen.standard_normal((40, 3))
        mats = build_dictionary_matrices(states, identity_dictionary(3))
        K = edmd(mats, None).matrix
        A = dmd(snapshot_pair(states)).matrix
        np.testing.assert_allclose(K, A.T, atol=1e-10)

    def test_uniform_equals_unweighted(self, gen):
        states = gen.standard_normal((25, 2))
        mats = build_dictionary_matrices(states, monomial_dictionary(2, dim=2))
        K0 = edmd(mats, None).matrix
        K1 = edmd(mats, make_weight_vector(mats.n_pairs, uniform_weight())).matrix
        np.testing.assert_allclose(K0, K1, atol=1e-13)

    def test_weight_mismatch(self, gen):
        states = gen.standard_normal((25, 2))
        mats = build_dictionary_matrices(states, identity_dictionary(2))
        with pytest.raises(ShapeError):
            edmd(mats, make_weight_vector(7, uniform_weight()))


class TestMpedmd:
    def test_identity_dynamics_gives_identity(self, gen):
        # pairs (X_n, X_n): the fit must be exactly the identity operator
        pts = gen.uniform(-1, 1, (300, 1))
        Psi = monomial_dictionary(3, dim=1)(pts)
        mats = DictionaryMatrices(Psi, Psi.copy())
        res = mpedmd(mats)
        np.testing.assert_allclose(res.matrix, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(res.eigenvalues, np.ones(4), atol=1e-10)

    def test_rotation_eigenvalues(self):
        orbit = rotation_orbit(10_000)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=1))
        res = mpedmd(mats, make_weight_vector(mats.n_pairs, exponential_bump()))
        got = np.sort(np.angle(res.eigenvalues))
        want = np.sort(np.angle([np.exp(-1j * ALPHA), 1.0, np.exp(1j * ALPHA)]))
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_unit_circle_and_gram_unitarity(self, gen):
        states = gen.standard_normal((400, 2)) @ np.diag([1.0, 0.4])
        mats = build_dictionary_matrices(states, monomial_dictionary(2, dim=2))
        res = mpedmd(mats, make_weight_vector(mats.n_pairs, exponential_bump()))
        assert np.max(np.abs(np.abs(res.eigenvalues) - 1.0)) <= 1e-10
        K, G = res.matrix, res.gram
        resid = np.linalg.norm(K.conj().T @ G @ K - G) / np.linalg.norm(G)
        assert resid < 1e-9

    def test_eigen_residual(self):
        orbit = rotation_orbit(2000)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=1))
        res = mpedmd(mats)
        resid = np.linalg.norm(res.matrix @ res.eigenvectors
                               - res.eigenvectors @ np.diag(res.eigenvalues))
        assert resid < 1e-10

    def test_invariant_under_unitary_remixing(self, gen):
        # consistent left-unitary change of dictionary leaves K similar;
        # here: remix Psi and Phi by the same unitary, K transforms by
        # conjugation, so the spectrum is unchanged
        orbit = rotation_orbit(3000)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=1))
        Q, _ = np.linalg.qr(gen.standard_normal((3, 3))
                            + 1j * gen.standard_normal((3, 3)))
        remixed = DictionaryMatrices(mats.Psi @ Q, mats.Phi @ Q)
        a = mpedmd(mats)
        b = mpedmd(remixed)
        np.testing.assert_allclose(
            np.sort(np.angle(a.eigenvalues)), np.sort(np.angle(b.eigenvalues)),
            atol=1e-9)
        np.testing.assert_allclose(b.matrix, Q.conj().T @ a.matrix @ Q, atol=1e-9)

    def test_requires_square(self, gen):
        states = gen.standard_normal((20, 2))
        mats = DictionaryMatrices(identity_dictionary(2)(states[:-1]),
                                  monomial_dictionary(2, dim=2)(states[1:]))
        with pytest.raises(ShapeError):
            mpedmd(mats)

    def test_eig_failure_is_numerical_error(self, monkeypatch):
        def not_converging(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        mats = build_dictionary_matrices(rotation_orbit(200), fourier_dictionary(1, dim=1))
        monkeypatch.setattr(np.linalg, "eig", not_converging)
        with pytest.raises(NumericalError, match="failed to converge"):
            mpedmd(mats)


@pytest.mark.slow
def test_chaotic_limit_agreement():
    # at the benchmark window the tapered and plain fits nearly coincide
    traj = standard_map(5.0, 1.0, 2.0, 1_000_001,
                        rng=RngStream(3, "edmd-chaos"))
    mats = build_dictionary_matrices(traj, fourier_dictionary(1, dim=2))
    K_u = edmd(mats, None).matrix
    K_w = edmd(mats, make_weight_vector(mats.n_pairs, exponential_bump())).matrix
    rel = np.linalg.norm(K_w - K_u) / np.linalg.norm(K_u)
    assert rel <= 1e-2
