import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperdyn import (
    ConfigError,
    RngStream,
    ShapeError,
    SizeError,
    dmd,
    eval_bump,
    harmonic_oscillator_exact,
    harmonic_series,
    make_weight_vector,
    monomial_dictionary,
    pinv_lstsq,
    sindy_error_sweep,
    stlsq,
    uniform_taper,
)
from taperdyn.linalg import _TSQR_ROWS


@pytest.fixture
def gen():
    return RngStream(21, "sindy").generator()


def harmonic_design(N, sigma=0.0, rng=None, degree=5, k=0.01):
    data = harmonic_series(2.0, 0.7, k, N, noise_sigma=sigma, rng=rng)
    Psi = monomial_dictionary(degree, dim=1)(data.interior_positions[:, None]).real
    return Psi, data.second_derivative


class TestStlsq:
    def test_eta_zero_is_plain_least_squares(self, gen):
        Psi = gen.standard_normal((50, 4))
        T = gen.standard_normal((50, 2))
        model = stlsq(Psi, T, eta=0.0)
        direct = pinv_lstsq(Psi, T).matrix.T
        np.testing.assert_allclose(model.coefficients, direct, atol=1e-12)
        assert model.converged
        assert model.active_mask.all()

    def test_huge_eta_zeroes_everything(self, gen):
        Psi = gen.standard_normal((50, 4))
        T = gen.standard_normal((50, 1))
        model = stlsq(Psi, T, eta=1e6)
        np.testing.assert_array_equal(model.coefficients, 0.0)
        assert model.zeroed_rows == (0,)
        assert not model.active_mask.any()

    def test_noiseless_harmonic_recovery(self):
        Psi, T = harmonic_design(10_000)
        wv = make_weight_vector(10_000, eval_bump)
        for weights in (None, wv):
            model = stlsq(Psi, T, eta=1e-2, weights=weights)
            err = np.linalg.norm(model.coefficients.real - harmonic_oscillator_exact(6))
            assert err < 1e-3
            # only the linear column survives
            assert model.active_mask.sum() == 1
            assert model.active_mask[0, 1]

    def test_converged_entries_exceed_eta(self, gen):
        Psi = gen.standard_normal((200, 6))
        T = gen.standard_normal((200, 3))
        model = stlsq(Psi, T, eta=0.05)
        assert model.converged
        active_values = np.abs(model.coefficients[model.active_mask])
        assert np.all(active_values >= 0.05)

    def test_fixed_point_of_refit(self):
        Psi, T = harmonic_design(2000, sigma=1e-5, rng=RngStream(5, "fp"))
        wv = make_weight_vector(2000, eval_bump)
        model = stlsq(Psi, T, eta=1e-2, weights=wv)
        again = stlsq(Psi, T, eta=1e-2, weights=wv)
        np.testing.assert_array_equal(model.coefficients, again.coefficients)
        np.testing.assert_array_equal(model.active_mask, again.active_mask)
        # the surviving coefficients solve the restricted weighted problem
        cols = np.flatnonzero(model.active_mask[0])
        sw = np.sqrt(wv.raw)
        restricted = pinv_lstsq(Psi[:, cols] * sw[:, None], T[:, None] * sw[:, None]).matrix
        np.testing.assert_allclose(model.coefficients[0, cols], restricted[:, 0],
                                   rtol=1e-12)

    @given(c=st.floats(min_value=0.1, max_value=50.0), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_scaling_equivariance(self, c, seed):
        g = np.random.default_rng(seed)
        Psi = g.standard_normal((60, 5))
        T = g.standard_normal((60, 2))
        base = stlsq(Psi, T, eta=0.02)
        scaled = stlsq(Psi, c * T, eta=c * 0.02)
        np.testing.assert_allclose(scaled.coefficients, c * base.coefficients,
                                   rtol=1e-9, atol=1e-12)

    def test_discrete_identity_dictionary_matches_dmd(self, gen):
        states = gen.standard_normal((40, 3))
        Psi = states[:-1]
        model = stlsq(Psi, states[1:], eta=0.0, weights=make_weight_vector(39, uniform_taper))
        A = dmd(Psi, states[1:], make_weight_vector(39, uniform_taper)).matrix
        np.testing.assert_allclose(model.coefficients.real, A, atol=1e-10)

    def test_errors(self, gen):
        Psi = gen.standard_normal((30, 4))
        with pytest.raises(ShapeError):
            stlsq(Psi, gen.standard_normal((29, 2)), eta=0.1)
        with pytest.raises(ShapeError):
            stlsq(Psi, gen.standard_normal((30, 2)), eta=0.1,
                  weights=make_weight_vector(29, uniform_taper))

    @pytest.mark.parametrize("Psi, targets", [
        (np.ones((30, 4)), np.ones(29)), (np.ones((30, 4)), np.ones((2, 30))),
        (np.ones((30, 4)), np.ones((30, 2, 1))), (np.ones(30), np.ones(30))],
        ids=["1-D-short", "columns", "3-D", "1-D-dictionary"])
    def test_samples_must_be_rows(self, Psi, targets):
        with pytest.raises(ShapeError, match="must be N x L and N x d"):
            stlsq(Psi, targets, eta=0.1)

    @pytest.mark.parametrize("N", [50, _TSQR_ROWS + 9])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_equal_to_the_least_squares_kernel(self, gen, N, weighted):
        # eta = 0 is one solve: the coefficients are pinv_lstsq's, transposed
        Psi, T = gen.standard_normal((N, 4)), gen.standard_normal((N, 2))
        weights = make_weight_vector(N, eval_bump) if weighted else None
        np.testing.assert_array_equal(stlsq(Psi, T, eta=0.0, weights=weights).coefficients,
                                      pinv_lstsq(Psi, T, weights).matrix.T)

    def test_each_output_refits_its_own_targets(self, gen):
        Psi = gen.standard_normal((200, 6))
        Xi = np.array([[1.0, 0.0, 0.5, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0, 0.0, 0.3]])
        T = Psi @ Xi.T + 0.01 * gen.standard_normal((200, 2))
        model = stlsq(Psi, T, eta=0.1)
        for j in range(2):
            single = stlsq(Psi, T[:, j], eta=0.1)
            np.testing.assert_array_equal(model.active_mask[j], single.active_mask[0])
            np.testing.assert_allclose(model.coefficients[j], single.coefficients[0],
                                       rtol=1e-12, atol=0)

    def test_one_dimensional_targets_are_one_output(self, gen):
        Psi, t = gen.standard_normal((40, 4)), gen.standard_normal(40)
        flat, column = stlsq(Psi, t, eta=0.3), stlsq(Psi, t[:, None], eta=0.3)
        assert flat.coefficients.shape == (1, 4)
        np.testing.assert_array_equal(flat.coefficients, column.coefficients)
        np.testing.assert_array_equal(flat.active_mask, column.active_mask)

    @pytest.mark.parametrize("eta", [-0.1, np.nan])
    def test_eta_must_be_non_negative(self, gen, eta):
        with pytest.raises(ConfigError, match="eta must be >= 0"):
            stlsq(gen.standard_normal((30, 4)), gen.standard_normal(30), eta=eta)

    def test_max_iter_termination_state(self, gen):
        Psi = gen.standard_normal((100, 6))
        T = gen.standard_normal((100, 1))
        model = stlsq(Psi, T, eta=0.2, max_iter=1)
        assert model.iterations <= 1


class TestErrorSweep:
    def test_noiseless_errors_near_truncation_floor(self):
        rows = sindy_error_sweep([400, 1000], [1e-2])
        # FD truncation of the k = 0.01 stencil: error ~ k^2/12 = 8.3e-6
        for row in rows:
            assert 0.0 < row.coeff_error < 2e-5

    def test_thresholded_beats_plain_on_noisy_data(self):
        rows = sindy_error_sweep([3000], [1e-2], noise_sigma=5.8e-6,
                                 rng=RngStream(12, "sweep"))
        by_method = {r.method: r.coeff_error for r in rows}
        assert by_method["wtSINDy"] <= by_method["LS"]
        assert by_method["SINDy"] <= by_method["LS"]

    def test_uniform_weights_make_pairs_identical(self):
        rows = sindy_error_sweep([500], [1e-2], w=uniform_taper)
        by_method = {r.method: r.coeff_error for r in rows}
        assert by_method["LS"] == by_method["wtLS"]
        assert by_method["SINDy"] == by_method["wtSINDy"]

    @pytest.mark.parametrize("windows", [[], np.array([], dtype=int), [10.7], [100, 2],
                                         [True], ["100"]])
    def test_windows_must_be_integers_in_range(self, windows):
        with pytest.raises(SizeError):
            sindy_error_sweep(windows, [1e-2])

    def test_numpy_windows_are_bit_identical(self):
        rows = sindy_error_sweep([100, 300], [1e-2])
        numpy_rows = sindy_error_sweep(np.array([300, 100]), [1e-2])
        assert numpy_rows == rows and all(type(row.N) is int for row in numpy_rows)

    def test_rows_cover_methods_and_etas(self):
        rows = sindy_error_sweep([300], [1e-2, 1e-4])
        methods = {(r.method, r.eta) for r in rows}
        assert ("LS", 0.0) in methods
        assert ("SINDy", 1e-2) in methods and ("SINDy", 1e-4) in methods
        assert ("wtSINDy", 1e-2) in methods
