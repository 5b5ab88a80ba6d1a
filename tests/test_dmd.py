import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from taperdyn import (
    DomainError,
    RngStream,
    ShapeError,
    SizeError,
    dmd,
    dmd_error_sweep,
    eval_bump,
    make_weight_vector,
    pinv_lstsq,
    project,
    quasiperiodic_field,
    random_projection,
    spectrum_distance,
    uniform_taper,
)
from taperdyn.dmd import _assignment
from taperdyn.linalg import _TSQR_ROWS
from taperdyn.systems import Trajectory


@pytest.fixture
def gen():
    return RngStream(31, "dmd").generator()


def iterate(M, x0, N):
    states = np.empty((N + 1, len(x0)))
    states[0] = x0
    for n in range(N):
        states[n + 1] = M @ states[n]
    return states


def rotation_states(alpha, N):
    R = np.array([[math.cos(alpha), -math.sin(alpha)],
                  [math.sin(alpha), math.cos(alpha)]])
    return iterate(R, np.array([1.0, 0.3]), N), R


class TestDmd:
    def test_exact_linear_recovery_any_weights(self, gen):
        M = gen.standard_normal((3, 3)) * 0.4 + np.eye(3)
        states = iterate(M, gen.standard_normal(3), 12)
        for weights in (None, make_weight_vector(12, eval_bump)):
            fit = dmd(states[:-1], states[1:], weights)
            assert np.linalg.norm(fit.matrix - M) / np.linalg.norm(M) < 1e-9

    def test_constant_snapshots_projection(self):
        c = np.array([1.0, 2.0, -1.0])
        states = np.tile(c, (8, 1))
        fit = dmd(states[:-1], states[1:])
        np.testing.assert_allclose(fit.matrix, np.outer(c, c) / (c @ c), atol=1e-12)
        assert fit.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        # leading mode is parallel to c
        mode = fit.modes[:, 0].real
        cosine = abs(mode @ c) / (np.linalg.norm(mode) * np.linalg.norm(c))
        assert cosine == pytest.approx(1.0, abs=1e-10)

    def test_rotation_spectrum(self):
        states, _ = rotation_states(0.7, 40)
        fit = dmd(states[:-1], states[1:])
        expected = np.array([np.exp(1j * 0.7), np.exp(-1j * 0.7)])
        assert spectrum_distance(fit.eigenvalues, expected) < 1e-10
        assert np.max(np.abs(np.abs(fit.eigenvalues) - 1.0)) <= 1e-8

    def test_uniform_weights_reduce_to_classical(self, gen):
        states = gen.standard_normal((30, 4))
        classical = dmd(states[:-1], states[1:], None)
        uniform = dmd(states[:-1], states[1:], make_weight_vector(29, uniform_taper))
        diff = np.linalg.norm(uniform.matrix - classical.matrix)
        assert diff <= 1e-13 * np.linalg.norm(classical.matrix)

    def test_weight_length_mismatch(self, gen):
        states = gen.standard_normal((10, 2))
        with pytest.raises(ShapeError):
            dmd(states[:-1], states[1:], make_weight_vector(5, uniform_taper))

    @pytest.mark.parametrize("N", [7, _TSQR_ROWS + 9])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_equal_to_the_least_squares_kernel(self, gen, N, weighted):
        # rows in, rows out: dmd is pinv_lstsq(X, Y, w) transposed, to the bit
        X, Y = gen.standard_normal((N, 3)), gen.standard_normal((N, 3))
        weights = make_weight_vector(N, eval_bump) if weighted else None
        np.testing.assert_array_equal(dmd(X, Y, weights).matrix,
                                      pinv_lstsq(X, Y, weights).matrix.T)

    @pytest.mark.parametrize("X, Y", [
        (np.ones(5), np.ones(5)),
        (np.ones((5, 2)), np.ones((4, 2))),
        (np.ones((5, 2)), np.ones((5, 3))),
        (np.ones((5, 2, 1)), np.ones((5, 2, 1))),
    ], ids=["1-D", "unequal-rows", "unequal-columns", "3-D"])
    def test_snapshots_must_be_rows_of_one_shape(self, X, Y):
        with pytest.raises(ShapeError, match="must be N x d arrays of one shape"):
            dmd(X, Y)

    @pytest.mark.parametrize("N", [0, 1])
    def test_fewer_than_two_pairs_is_a_size_error(self, N):
        with pytest.raises(SizeError, match="at least 2 snapshot pairs"):
            dmd(np.ones((N, 2)), np.ones((N, 2)))


class TestRandomProjection:
    def test_orthonormal_columns(self):
        basis = random_projection(50, 11, seed=3)
        gram = basis.U.T @ basis.U
        assert np.max(np.abs(gram - np.eye(11))) < 1e-10

    def test_square_case_invertible(self):
        basis = random_projection(6, 6, seed=3)
        assert abs(abs(np.linalg.det(basis.U)) - 1.0) < 1e-10

    def test_seed_determinism(self):
        a = random_projection(20, 5, seed=9)
        b = random_projection(20, 5, seed=9)
        np.testing.assert_array_equal(a.U, b.U)

    def test_rank_error(self):
        with pytest.raises(ShapeError):
            random_projection(4, 5, seed=0)

    def test_project(self, gen):
        traj = Trajectory(gen.standard_normal((30, 10)))
        basis = random_projection(10, 3, seed=1)
        out = project(traj, basis)
        assert out.states.shape == (30, 3)
        np.testing.assert_allclose(out.states, traj.states @ basis.U)


class TestSpectrumDistance:
    def test_permutation_stable(self, gen):
        values = gen.standard_normal(6) + 1j * gen.standard_normal(6)
        ref = values + 1e-3
        shuffled = values[gen.permutation(6)]
        assert spectrum_distance(values, ref) == spectrum_distance(shuffled, ref)

    def test_zero_for_identical(self, gen):
        values = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        assert spectrum_distance(values, values.copy()) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf)])
    def test_non_finite_spectra_rejected(self, bad):
        finite = np.array([0.9, 0.5j, -0.2])
        for values, reference in (([bad, 0.5j, -0.2], finite), (finite, [0.9, bad, -0.2])):
            with pytest.raises(DomainError, match="NaN or infinite"):
                spectrum_distance(np.array(values), reference)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300])
    def test_extreme_finite_spectra_neither_overflow_nor_underflow(self, gen, scale):
        values = gen.standard_normal(5) + 1j * gen.standard_normal(5)
        reference = values + 1e-3 * gen.standard_normal(5)
        expected = spectrum_distance(values, reference)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum_distance(scale * values, scale * reference)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_huge_eigenvalue_against_unit_reference(self):
        # |1e200 - 2| dominates: the distance is 1e200 / |(1, 2)|
        got = spectrum_distance(np.array([1e200, 1.0]), np.array([1.0, 2.0]))
        assert got == pytest.approx(1e200 / math.sqrt(5.0), rel=1e-15)

    def test_zero_reference_gives_absolute_distance(self):
        assert spectrum_distance(np.array([3.0, 4.0j]), np.zeros(2)) == 5.0


def _scipy_assignment(cost):
    rows, cols = linear_sum_assignment(cost)
    assert rows.tolist() == list(range(len(cost)))
    return cols.tolist()


class TestAssignment:
    """The list solver against scipy.optimize.linear_sum_assignment."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.lists(
        st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_optimal_cost_matches_scipy(self, rows):
        cost = np.array(rows)
        cols = _assignment(rows)
        assert sorted(cols) == list(range(len(rows)))
        got = cost[np.arange(len(rows)), cols].sum()
        want = cost[np.arange(len(rows)), _scipy_assignment(cost)].sum()
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_near_identity_spectra(self):
        gen = np.random.default_rng(8)
        for _ in range(200):
            a = gen.standard_normal(8) + 1j * gen.standard_normal(8)
            b = a + 1e-3 * (gen.standard_normal(8) + 1j * gen.standard_normal(8))
            cost = np.abs(a[:, None] - b[None, :]) ** 2
            assert _assignment(cost.tolist()) == _scipy_assignment(cost)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_tied_costs(self, n):
        gen = np.random.default_rng(n)
        for cost in (np.zeros((n, n)), np.ones((n, n)),
                     *(gen.integers(0, 3, (n, n)).astype(float) for _ in range(50))):
            assert _assignment(cost.tolist()) == _scipy_assignment(cost)

    def test_single_row(self):
        assert _assignment([[2.5]]) == _scipy_assignment(np.array([[2.5]])) == [0]
        assert spectrum_distance(np.array([1.0 + 1.0j]), np.array([1.0])) == 1.0


class TestErrorSweep:
    def test_exact_linear_all_errors_tiny(self, gen):
        M = gen.standard_normal((3, 3)) * 0.3 + np.eye(3)
        states = iterate(M, gen.standard_normal(3), 200)
        rows = dmd_error_sweep(Trajectory(states), [20, 50, 100], 200)
        for row in rows:
            assert row.relerr_matrix_unw < 1e-9
            assert row.relerr_matrix_w < 1e-9

    def test_two_frequency_field_weighted_wins(self):
        # harmonics of two incommensurate frequencies folded into R^4: the
        # fit is a genuine projection, so the window error is an ergodic
        # average and tapering accelerates it by orders of magnitude
        traj = quasiperiodic_field(4, 1101, seed=2)
        rows = dmd_error_sweep(traj, [500], 1000)
        assert rows[0].relerr_matrix_w * 100 <= rows[0].relerr_matrix_unw

    def test_self_comparison_is_exactly_zero(self):
        traj = quasiperiodic_field(6, 301, seed=4)
        rows = dmd_error_sweep(traj, [300], 300)
        assert rows[0].relerr_matrix_w == 0.0
        assert rows[0].relerr_eigs_w == 0.0

    def test_row_shape_and_sorting(self):
        traj = quasiperiodic_field(5, 401, seed=4)
        rows = dmd_error_sweep(traj, [200, 50, 100], 400)
        assert [r.N for r in rows] == [50, 100, 200]

    @pytest.mark.parametrize("windows", [[], (), np.array([], dtype=int)])
    def test_no_windows(self, windows):
        traj = quasiperiodic_field(5, 101, seed=4)
        with pytest.raises(SizeError, match="at least one window"):
            dmd_error_sweep(traj, windows, 100)

    @pytest.mark.parametrize("windows", [[10.7], [20, 1], [True], ["10"], [20, 101]])
    def test_windows_must_be_integers_in_range(self, windows):
        traj = quasiperiodic_field(5, 201, seed=4)
        with pytest.raises(SizeError):
            dmd_error_sweep(traj, windows, 100)

    def test_numpy_windows_are_bit_identical(self):
        traj = quasiperiodic_field(5, 101, seed=4)
        rows = dmd_error_sweep(traj, [10, 50], 100)
        for windows in (np.array([50, 10]), (np.int32(50), np.int64(10))):
            numpy_rows = dmd_error_sweep(traj, windows, np.int64(100))
            assert numpy_rows == rows and all(type(row.N) is int for row in numpy_rows)
