import dataclasses
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from taperdyn import (
    ConditioningError,
    ConfigError,
    Dictionary,
    DictionaryMatrices,
    DomainError,
    NumericalError,
    RngStream,
    ShapeError,
    build_dictionary_matrices,
    dmd,
    edmd,
    eval_bump,
    fourier_dictionary,
    identity_dictionary,
    make_weight_vector,
    monomial_dictionary,
    mpedmd,
    standard_map,
    uniform_taper,
    WeightVector,
)
from taperdyn.linalg import _TSQR_ROWS
from taperdyn.systems import Trajectory

# the module, which the package's edmd function shadows
edmd_module = importlib.import_module("taperdyn.edmd")
linalg_module = importlib.import_module("taperdyn.linalg")
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

    @pytest.mark.parametrize("factory, args", [
        (fourier_dictionary, (1.5,)), (monomial_dictionary, (2.5,)),
        (fourier_dictionary, (True,)), (fourier_dictionary, (1, 2.0)),
        (identity_dictionary, (2.0,)), (monomial_dictionary, (2, True)),
        (identity_dictionary, (np.bool_(True),)), (fourier_dictionary, ("1",)),
        (fourier_dictionary, (-1,)), (monomial_dictionary, (1, 0)), (identity_dictionary, (0,)),
    ])
    def test_sizes_must_be_integers_in_range(self, factory, args):
        with pytest.raises(ConfigError):
            factory(*args)

    def test_numpy_integer_sizes(self):
        assert fourier_dictionary(np.int64(1), dim=np.int32(2)).size == 9
        assert monomial_dictionary(np.uint8(2), dim=np.int64(2)).size == 6
        assert identity_dictionary(np.int16(3)).size == 3

    @pytest.mark.parametrize("n", [50, _TSQR_ROWS + 50])
    @pytest.mark.parametrize("dictionary, bad", [
        (monomial_dictionary(2, dim=1), 1e200), (monomial_dictionary(3, dim=2), 1e200),
        (fourier_dictionary(1, dim=2), np.inf), (fourier_dictionary(1, dim=2), np.nan),
        (identity_dictionary(2), -np.inf),
    ], ids=["monomial-overflow", "monomial-2d-overflow", "fourier-inf", "fourier-nan",
            "identity-inf"])
    def test_non_finite_values_raise_domain_error(self, n, dictionary, bad):
        # with no numpy warning: the suite turns RuntimeWarning into an error
        states = np.random.default_rng(5).standard_normal((n + 1, dictionary.dim))
        states[n // 2, 0] = bad
        mats = build_dictionary_matrices(states, dictionary)
        for fit in (edmd, mpedmd):
            for weights in (None, make_weight_vector(n, eval_bump)):
                with pytest.raises(DomainError, match="NaN or infinity"):
                    fit(mats, weights)
        assert not np.isfinite(mats.Psi[n // 2]).all()


class TestBuildMatrices:
    def test_identity_matches_snapshots(self, gen):
        states = gen.standard_normal((20, 3))
        mats = build_dictionary_matrices(Trajectory(states), identity_dictionary(3))
        np.testing.assert_allclose(mats.Psi, states[:-1], atol=1e-15)
        np.testing.assert_allclose(mats.Phi, states[1:], atol=1e-15)

    def test_constant_trajectory_identical_rows(self):
        states = np.tile([0.5, 1.0], (10, 1))
        mats = build_dictionary_matrices(states, fourier_dictionary(1, dim=2))
        assert np.all(mats.Psi == mats.Psi[0])

    def test_prefix(self, gen):
        states = gen.standard_normal((30, 2))
        mats = build_dictionary_matrices(states, identity_dictionary(2))
        assert mats.prefix(10).n_pairs == 10


DICTIONARIES = {"fourier": fourier_dictionary(1, dim=2),
                "monomial": monomial_dictionary(2, dim=2),
                "identity": identity_dictionary(2)}


def _outcome(fit, mats, weights):
    """Every field of a fit, or the message of its ConditioningError."""
    try:
        return dataclasses.asdict(fit(mats, weights))
    except ConditioningError as exc:
        return str(exc)


def _counting(dictionary):
    """The dictionary, and the list of state counts it is evaluated on."""
    counts = []

    def evaluate(states):
        counts.append(states.shape[0])
        return dictionary.evaluate(states)

    return dataclasses.replace(dictionary, evaluate=evaluate), counts


def _complex_dictionary(dictionary):
    """A caller-built dictionary with the same complex values, and no map."""
    return Dictionary(dictionary.size, dictionary.dim, dictionary)


def _in_memory(features, N, to_complex):
    """The first N transitions along in-memory feature rows, as a trajectory's
    matrices read them."""
    def rows(start, stop):
        return features[start:stop], features[start + 1:stop + 1]

    def values(start, stop):
        return tuple(to_complex(block) for block in rows(start, stop))

    return object.__new__(DictionaryMatrices)._read(rows, N, to_complex, values)


STREAM_SIZES = [3, _TSQR_ROWS - 1, _TSQR_ROWS, _TSQR_ROWS + 1, 3 * _TSQR_ROWS + 17]


class TestStreamedMatrices:
    @pytest.mark.parametrize("n", STREAM_SIZES)
    @pytest.mark.parametrize("name", list(DICTIONARIES))
    def test_bit_equal_to_paired_arrays(self, n, name):
        # a built-in dictionary's fit reduces real features: streamed per
        # block, they give the bits of the same features evaluated at once
        dictionary = DICTIONARIES[name]
        states = np.random.default_rng(n).uniform(0.0, TWO_PI, (n + 1, 2))
        streamed = build_dictionary_matrices(states, dictionary)
        features = dictionary.evaluate(states)  # evaluated at once, not per block
        for N in (n, max(2, n - 5)):
            mats = streamed if N == n else streamed.prefix(N)
            paired = _in_memory(features, N, dictionary._to_complex)
            for weights in (None, make_weight_vector(mats.n_pairs, eval_bump)):
                for fit in (edmd, mpedmd):
                    np.testing.assert_equal(_outcome(fit, mats, weights),
                                            _outcome(fit, paired, weights))

    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_caller_built_dictionary_is_bit_equal_to_paired_arrays(self, n):
        # complex values with no map keep the complex reduction
        dictionary = _complex_dictionary(DICTIONARIES["fourier"])
        states = np.random.default_rng(n).uniform(0.0, TWO_PI, (n + 1, 2))
        streamed = build_dictionary_matrices(states, dictionary)
        full = dictionary(states)
        assert full.dtype == complex
        for N in (n, max(2, n - 5)):
            mats = streamed if N == n else streamed.prefix(N)
            paired = DictionaryMatrices(full[:N], full[1:N + 1])
            for weights in (None, make_weight_vector(mats.n_pairs, eval_bump)):
                for fit in (edmd, mpedmd):
                    np.testing.assert_equal(_outcome(fit, mats, weights),
                                            _outcome(fit, paired, weights))

    @pytest.mark.parametrize("n", [_TSQR_ROWS + 1, 3 * _TSQR_ROWS + 17])
    @pytest.mark.parametrize("name", list(DICTIONARIES))
    @pytest.mark.parametrize("fit", [edmd, mpedmd])
    def test_real_and_complex_routes_agree(self, n, name, fit):
        # above one block the real features and the complex values take
        # different rounding.  Over four seeds each at 4097, 12305 and 20580
        # transitions the fits differed by at most 5.8e-14 relative
        # (monomial mpEDMD; EDMD at most 8.8e-15): the bound leaves 8x
        states = np.random.default_rng(n).uniform(0.0, TWO_PI, (n + 1, 2))
        real = build_dictionary_matrices(states, DICTIONARIES[name])
        values = DICTIONARIES[name](states)
        paired = DictionaryMatrices(values[:-1], values[1:])
        for weights in (None, make_weight_vector(n, eval_bump)):
            K, K_ref = fit(real, weights).matrix, fit(paired, weights).matrix
            assert K.dtype == K_ref.dtype == complex
            assert np.linalg.norm(K - K_ref) <= 5e-13 * np.linalg.norm(K_ref)

    @pytest.mark.parametrize("name", list(DICTIONARIES))
    def test_built_in_dictionaries_reduce_real_blocks(self, monkeypatch, name):
        dtypes = {}  # sample count -> dtypes of the rows read
        reduce = linalg_module._reduce

        def spy(rows, n, weights):
            def recorded(start, stop):
                blocks = rows(start, stop)
                dtypes.setdefault(n, []).extend(block.dtype for block in blocks)
                return blocks
            return reduce(recorded, n, weights)

        monkeypatch.setattr(linalg_module, "_reduce", spy)
        n = 2 * _TSQR_ROWS + 5
        states = np.random.default_rng(4).uniform(0.0, TWO_PI, (n + 1, 2))
        for dictionary, dtype in ((DICTIONARIES[name], np.float64),
                                  (_complex_dictionary(DICTIONARIES[name]), np.complex128)):
            dtypes.clear()
            mats = build_dictionary_matrices(states, dictionary)
            assert edmd(mats).matrix.dtype == complex
            # Psi and Phi rows of three blocks; pinv_lstsq then passes the
            # small complex factors through the same function
            assert dtypes.pop(n) == [dtype] * 6
            assert list(dtypes.values()) == [[np.complex128] * 2]

    def test_one_reduction_per_taper(self):
        n = 2 * _TSQR_ROWS + 5
        dictionary, counts = _counting(fourier_dictionary(1, dim=2))
        states = np.random.default_rng(0).uniform(0.0, TWO_PI, (n + 1, 2))
        mats = build_dictionary_matrices(states, dictionary)
        one_pass = [_TSQR_ROWS + 1, _TSQR_ROWS + 1, 6]  # each block and its next state
        bump = make_weight_vector(n, eval_bump)
        edmd(mats, bump)
        mpedmd(mats, make_weight_vector(n, eval_bump))  # equal raw values
        assert counts == one_pass
        edmd(mats, make_weight_vector(n, uniform_taper))
        assert counts == 2 * one_pass
        edmd(mats, None)
        mpedmd(mats, None)
        assert counts == 3 * one_pass
        edmd(mats, bump)
        assert counts == 4 * one_pass

    def test_fits_read_a_snapshot_of_the_callers_arrays(self):
        n = _TSQR_ROWS + 50
        states = np.random.default_rng(1).uniform(0.0, TWO_PI, (n + 1, 2))
        original = states.copy()
        raw = make_weight_vector(n, eval_bump).raw.copy()
        weights = WeightVector(raw)
        mats = build_dictionary_matrices(states, fourier_dictionary(1, dim=2))
        first = {fit: _outcome(fit, mats, weights) for fit in (edmd, mpedmd)}
        states += 0.5
        raw[:] = np.linspace(1.0, 2.0, n)  # the vector keeps its own copy
        np.testing.assert_array_equal(weights.raw, make_weight_vector(n, eval_bump).raw)
        fresh = build_dictionary_matrices(original, fourier_dictionary(1, dim=2))
        for fit in (edmd, mpedmd):
            np.testing.assert_equal(_outcome(fit, mats, weights), first[fit])
            np.testing.assert_equal(_outcome(fit, fresh, weights), first[fit])
        assert states.flags.writeable and raw.flags.writeable

    def test_paired_arrays_are_a_snapshot(self, gen):
        Psi = gen.standard_normal((40, 3)) + 1j * gen.standard_normal((40, 3))
        Phi = gen.standard_normal((40, 3)) + 1j * gen.standard_normal((40, 3))
        mats = DictionaryMatrices(Psi, Phi)
        before = edmd(mats).matrix
        Psi[:] = 0.0
        edmd(mats, make_weight_vector(40, eval_bump))  # replaces the kept factor
        np.testing.assert_array_equal(edmd(mats).matrix, before)
        np.testing.assert_array_equal(edmd(mats.prefix(40)).matrix, before)
        assert Psi.flags.writeable and not mats.Psi.flags.writeable

    def test_psi_and_phi_are_evaluated_once_on_demand(self):
        n = _TSQR_ROWS + 50
        dictionary, counts = _counting(fourier_dictionary(1, dim=2))
        states = np.random.default_rng(2).uniform(0.0, TWO_PI, (n + 1, 2))
        mats = build_dictionary_matrices(states, dictionary)
        assert counts == []
        Psi, Phi = mats.Psi, mats.Phi
        assert mats.Psi is Psi and mats.Phi is Phi and counts == [n + 1]
        full = fourier_dictionary(1, dim=2)(states)
        np.testing.assert_array_equal(Psi, full[:-1])
        np.testing.assert_array_equal(Phi, full[1:])
        assert np.shares_memory(Psi, Phi)  # one evaluation, two row windows
        assert not (Psi.flags.writeable or Phi.flags.writeable)
        np.testing.assert_array_equal(mats.prefix(10).Phi, full[1:11])
        assert counts == [n + 1, 11]

    def test_every_evaluation_goes_through_evaluate_transitions(self, monkeypatch):
        # looked up at call time, so a wrapper of the module's public
        # function installed after the build (a profiler's span, say) sees
        # every block and every read
        n = _TSQR_ROWS + 50
        states = np.random.default_rng(3).uniform(0.0, TWO_PI, (n + 1, 2))
        mats = build_dictionary_matrices(states, fourier_dictionary(1, dim=2))
        calls = []
        evaluate = edmd_module.evaluate_transitions
        monkeypatch.setattr(edmd_module, "evaluate_transitions",
                            lambda states, psi: calls.append(len(states)) or evaluate(states, psi))
        edmd(mats)
        mats.Psi
        assert calls == [_TSQR_ROWS + 1, 51, n + 1]

    def test_dimension_mismatch_is_refused_at_build(self, gen):
        with pytest.raises(ShapeError, match="dimension 2, got 3"):
            build_dictionary_matrices(gen.standard_normal((10, 3)), fourier_dictionary(1, dim=2))


class TestEdmd:
    def test_exact_consistency_any_weights(self):
        orbit = rotation_orbit(500)
        mats = build_dictionary_matrices(orbit, fourier_dictionary(1, dim=1))
        expected = np.diag([np.exp(-1j * ALPHA), 1.0, np.exp(1j * ALPHA)])
        for weights in (None, make_weight_vector(mats.n_pairs, eval_bump)):
            K = edmd(mats, weights).matrix
            np.testing.assert_allclose(K, expected, atol=1e-9)

    def test_identity_dictionary_reproduces_dmd_transposed(self, gen):
        states = gen.standard_normal((40, 3))
        mats = build_dictionary_matrices(states, identity_dictionary(3))
        K = edmd(mats, None).matrix
        A = dmd(states[:-1], states[1:]).matrix
        np.testing.assert_allclose(K, A.T, atol=1e-10)

    def test_uniform_equals_unweighted(self, gen):
        states = gen.standard_normal((25, 2))
        mats = build_dictionary_matrices(states, monomial_dictionary(2, dim=2))
        K0 = edmd(mats, None).matrix
        K1 = edmd(mats, make_weight_vector(mats.n_pairs, uniform_taper)).matrix
        np.testing.assert_allclose(K0, K1, atol=1e-13)

    def test_weight_mismatch(self, gen):
        states = gen.standard_normal((25, 2))
        mats = build_dictionary_matrices(states, identity_dictionary(2))
        with pytest.raises(ShapeError):
            edmd(mats, make_weight_vector(7, uniform_taper))


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
        res = mpedmd(mats, make_weight_vector(mats.n_pairs, eval_bump))
        got = np.sort(np.angle(res.eigenvalues))
        want = np.sort(np.angle([np.exp(-1j * ALPHA), 1.0, np.exp(1j * ALPHA)]))
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_unit_circle_and_gram_unitarity(self, gen):
        states = gen.standard_normal((400, 2)) @ np.diag([1.0, 0.4])
        mats = build_dictionary_matrices(states, monomial_dictionary(2, dim=2))
        res = mpedmd(mats, make_weight_vector(mats.n_pairs, eval_bump))
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

    @pytest.mark.parametrize("n", [300, _TSQR_ROWS + 300])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rank_deficient_data_name_the_ratio(self, gen, n, weighted):
        # a duplicated coordinate makes the Gram matrix singular
        x = gen.standard_normal((n + 1, 1))
        mats = build_dictionary_matrices(np.hstack([x, x, gen.standard_normal((n + 1, 1))]),
                                         identity_dictionary(3))
        weights = make_weight_vector(n, eval_bump) if weighted else None
        with pytest.raises(ConditioningError, match="eigenvalue ratio min/max"):
            mpedmd(mats, weights)

    @pytest.mark.parametrize("Psi", [np.zeros((50, 2), complex), np.ones((1, 2), complex)],
                             ids=["all-zero", "fewer-pairs-than-columns"])
    def test_degenerate_data_are_ill_conditioned(self, Psi):
        with pytest.raises(ConditioningError, match="ratio"):
            mpedmd(DictionaryMatrices(Psi, Psi.copy()))

    def test_eig_failure_is_numerical_error(self, monkeypatch):
        def not_converging(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        mats = build_dictionary_matrices(rotation_orbit(200), fourier_dictionary(1, dim=1))
        monkeypatch.setattr(np.linalg, "eig", not_converging)
        with pytest.raises(NumericalError, match="failed to converge"):
            mpedmd(mats)


def _mpedmd_reference(mats, weights):
    """K = G^-½ polar(G^-½ A G^-½) G^½ with G = Psi* W Psi, A = Psi* W Phi,
    in 50-digit arithmetic from the float64 dictionary values."""
    mp = pytest.importorskip("mpmath").mp
    N, L = mats.Psi.shape
    with mp.workdps(50):
        raw = [mp.mpf(1)] * N if weights is None else [mp.mpf(float(v)) for v in weights.raw]
        total = mp.fsum(raw)
        wpsi = [[raw[n] / total * mp.mpc(complex(v)).conjugate() for n, v in enumerate(col)]
                for col in mats.Psi.T]
        psi = [[mp.mpc(complex(v)) for v in col] for col in mats.Psi.T]
        phi = [[mp.mpc(complex(v)) for v in col] for col in mats.Phi.T]
        G = mp.matrix([[mp.fdot(wpsi[i], psi[j]) for j in range(L)] for i in range(L)])
        A = mp.matrix([[mp.fdot(wpsi[i], phi[j]) for j in range(L)] for i in range(L)])
        E, Q = mp.eighe(G)
        G_half = Q * mp.diag([mp.sqrt(e) for e in E]) * Q.H
        G_inv_half = Q * mp.diag([1 / mp.sqrt(e) for e in E]) * Q.H
        U, _, Vh = mp.svd_c(G_inv_half * A * G_inv_half)  # G^-½ A G^-½ = U S Vh
        return np.array((G_inv_half * U * Vh * G_half).tolist(), dtype=complex)


def _relerr(K, ref):
    return np.linalg.norm(K - ref) / np.linalg.norm(ref)


class TestMpedmdReference:
    @pytest.mark.slow
    @pytest.mark.parametrize("weighted", [False, True])
    def test_standard_map_orbit(self, weighted):
        # G's eigenvalue ratio is 1.4e-9 here: forming G and its square roots
        # would square the conditioning of the data, which the R factor keeps
        traj = standard_map(0.25, 0.45, math.pi, 801)
        mats = build_dictionary_matrices(traj, fourier_dictionary(1, dim=2))
        weights = make_weight_vector(800, eval_bump) if weighted else None
        assert _relerr(mpedmd(mats, weights).matrix, _mpedmd_reference(mats, weights)) <= 1e-9

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rotation(self, weighted):
        mats = build_dictionary_matrices(rotation_orbit(2001), fourier_dictionary(1, dim=1))
        weights = make_weight_vector(2000, eval_bump) if weighted else None
        assert _relerr(mpedmd(mats, weights).matrix, _mpedmd_reference(mats, weights)) <= 1e-13

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rotation_above_one_block(self, weighted):
        # real features through TSQR blocks: 6.7e-16 and 5.0e-16 measured at
        # n = 5000, plain and tapered
        n = _TSQR_ROWS + 904
        mats = build_dictionary_matrices(rotation_orbit(n + 1), fourier_dictionary(1, dim=1))
        weights = make_weight_vector(n, eval_bump) if weighted else None
        assert _relerr(mpedmd(mats, weights).matrix, _mpedmd_reference(mats, weights)) <= 1e-13


@pytest.mark.slow
def test_chaotic_limit_agreement():
    # at the benchmark window the tapered and plain fits nearly coincide
    traj = standard_map(5.0, 1.0, 2.0, 1_000_001,
                        rng=RngStream(3, "edmd-chaos"))
    mats = build_dictionary_matrices(traj, fourier_dictionary(1, dim=2))
    K_u = edmd(mats, None).matrix
    K_w = edmd(mats, make_weight_vector(mats.n_pairs, eval_bump)).matrix
    rel = np.linalg.norm(K_w - K_u) / np.linalg.norm(K_u)
    assert rel <= 1e-2


# one EDMD and one mpEDMD fit above one TSQR block, plain and tapered; prints
# the SHA-256 of every result array
_FIT_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from taperdyn import (build_dictionary_matrices, edmd, eval_bump, fourier_dictionary,
                      make_weight_vector, mpedmd, standard_map)

n = int(sys.argv[2])
mats = build_dictionary_matrices(standard_map(0.25, 0.5, 3.141592653589793, n + 1),
                                 fourier_dictionary(1, dim=2))
digest = hashlib.sha256()
for weights in (None, make_weight_vector(n, eval_bump)):
    fit = mpedmd(mats, weights)
    for array in (edmd(mats, weights).matrix, fit.matrix, fit.eigenvalues, fit.eigenvectors):
        digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_fits_do_not_depend_on_blas_threads():
    # the koopman-long fit size: 25 blocks
    src = Path(edmd_module.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        # the variable reaches the child processes only
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _FIT_CHILD, str(src), str(100_000)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
