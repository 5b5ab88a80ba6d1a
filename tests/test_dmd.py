import math

import numpy as np
import pytest

from taperdyn import (
    RngStream,
    ShapeError,
    SizeError,
    dmd,
    dmd_error_sweep,
    eval_bump,
    make_weight_vector,
    project,
    quasiperiodic_field,
    random_projection,
    snapshot_pair,
    spectrum_distance,
    uniform_taper,
)
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
        pair = snapshot_pair(states)
        for weights in (None, make_weight_vector(12, eval_bump)):
            fit = dmd(pair, weights)
            assert np.linalg.norm(fit.matrix - M) / np.linalg.norm(M) < 1e-9

    def test_constant_snapshots_projection(self):
        c = np.array([1.0, 2.0, -1.0])
        states = np.tile(c, (8, 1))
        fit = dmd(snapshot_pair(states))
        np.testing.assert_allclose(fit.matrix, np.outer(c, c) / (c @ c), atol=1e-12)
        assert fit.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        # leading mode is parallel to c
        mode = fit.modes[:, 0].real
        cosine = abs(mode @ c) / (np.linalg.norm(mode) * np.linalg.norm(c))
        assert cosine == pytest.approx(1.0, abs=1e-10)

    def test_rotation_spectrum(self):
        states, _ = rotation_states(0.7, 40)
        fit = dmd(snapshot_pair(states))
        expected = np.array([np.exp(1j * 0.7), np.exp(-1j * 0.7)])
        assert spectrum_distance(fit.eigenvalues, expected) < 1e-10
        assert np.max(np.abs(np.abs(fit.eigenvalues) - 1.0)) <= 1e-8

    def test_uniform_weights_reduce_to_classical(self, gen):
        states = gen.standard_normal((30, 4))
        pair = snapshot_pair(states)
        classical = dmd(pair, None)
        uniform = dmd(pair, make_weight_vector(29, uniform_taper))
        diff = np.linalg.norm(uniform.matrix - classical.matrix)
        assert diff <= 1e-13 * np.linalg.norm(classical.matrix)

    def test_weight_length_mismatch(self, gen):
        pair = snapshot_pair(gen.standard_normal((10, 2)))
        with pytest.raises(ShapeError):
            dmd(pair, make_weight_vector(5, uniform_taper))


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
