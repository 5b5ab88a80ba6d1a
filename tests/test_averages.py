import math

import numpy as np
import pytest

from taperdyn import (
    ShapeError,
    SizeError,
    birkhoff_average,
    convergence_sweep,
    driven_logistic,
    eval_bump,
    make_weight_vector,
    uniform_taper,
)

SQRT2 = math.sqrt(2.0)


def test_constant_series_any_weights():
    series = np.full(100, 3.25)
    for weights in (None, make_weight_vector(100, eval_bump),
                    make_weight_vector(100, uniform_taper)):
        assert birkhoff_average(series, weights) == pytest.approx(3.25, abs=1e-14)


def test_uniform_weights_equal_arithmetic_mean(gen):
    series = gen.standard_normal(4097)
    mean = birkhoff_average(series)
    wmean = birkhoff_average(series, make_weight_vector(4097, uniform_taper))
    assert isinstance(mean, float) and isinstance(wmean, float)
    assert wmean == pytest.approx(mean, rel=1e-13)


def test_vector_series():
    series = np.stack([np.arange(10.0), np.ones(10)], axis=1)
    np.testing.assert_allclose(birkhoff_average(series), [4.5, 1.0])


def test_rotation_observable_superpolynomial():
    # space average of exp(2 pi i theta) under Lebesgue is exactly 0
    N = 10_000
    theta = (np.arange(N) * SQRT2) % 1.0
    series = np.exp(2j * np.pi * theta)
    plain = birkhoff_average(series)
    tapered = birkhoff_average(series, make_weight_vector(N, eval_bump))
    assert abs(tapered) < 1e-10
    assert abs(tapered) <= abs(plain)


def test_logistic_period4_cycle_average():
    # oracle: iterate past the transient and average one exact period
    orbit = driven_logistic(0.0, 0.25, 0.0, 100_000)
    x = orbit.states[:, 0]
    tail = x[10_000:10_004]
    assert np.allclose(np.sort(tail), np.sort(x[10_004:10_008]), atol=1e-10)
    cycle_mean = tail.mean()
    wt = birkhoff_average(x, make_weight_vector(len(x), eval_bump))
    assert wt == pytest.approx(cycle_mean, abs=1e-12)


def test_errors():
    with pytest.raises(SizeError):
        birkhoff_average(np.array([]))
    with pytest.raises(ShapeError):
        birkhoff_average(np.arange(5.0), make_weight_vector(4, uniform_taper))


class TestConvergenceSweep:
    def test_constant_orbit_zero_errors(self):
        states = np.full((500, 1), 2.0)
        rows = convergence_sweep(states, lambda s: s[:, 0], [10, 100], 400)
        for row in rows:  # zero up to normalization roundoff
            assert row.err_unweighted <= 1e-15
            assert row.err_weighted <= 1e-15

    def test_rows_sorted_and_finite(self):
        orbit = driven_logistic(0.1, 0.25, 0.0, 5000)
        rows = convergence_sweep(orbit, lambda s: s[:, 0], [400, 100, 1000], 5000)
        assert [r.N for r in rows] == [100, 400, 1000]
        for row in rows:
            assert np.isfinite(row.err_unweighted) and row.err_unweighted >= 0
            assert np.isfinite(row.err_weighted) and row.err_weighted >= 0

    def test_quasiperiodic_weighted_wins(self):
        orbit = driven_logistic(0.01, 0.25, 0.0, 200_000)
        rows = convergence_sweep(orbit, lambda s: s[:, 0], [50_000], 200_000)
        assert rows[0].err_weighted < 1e-10
        assert rows[0].err_unweighted > 100 * rows[0].err_weighted

    def test_benchmark_too_long(self):
        orbit = driven_logistic(0.0, 0.25, 0.0, 100)
        with pytest.raises(SizeError):
            convergence_sweep(orbit, lambda s: s[:, 0], [10], 1000)
        with pytest.raises(SizeError):
            convergence_sweep(orbit, lambda s: s[:, 0], [200], 100)

    @pytest.mark.parametrize("windows", [[], (), np.array([], dtype=int)])
    def test_no_windows(self, windows):
        orbit = driven_logistic(0.0, 0.25, 0.0, 100)
        with pytest.raises(SizeError, match="at least one window"):
            convergence_sweep(orbit, lambda s: s[:, 0], windows, 100)

    @pytest.mark.parametrize("windows", [[10.7], [20, 1], [True], ["10"], [20, 101]])
    def test_windows_must_be_integers_in_range(self, windows):
        orbit = driven_logistic(0.0, 0.25, 0.0, 200)
        with pytest.raises(SizeError):
            convergence_sweep(orbit, lambda s: s[:, 0], windows, 100)

    def test_numpy_windows_are_bit_identical(self):
        orbit = driven_logistic(0.01, 0.25, 0.0, 100)
        rows = convergence_sweep(orbit, lambda s: s[:, 0], [10, 50], 100)
        for windows in (np.array([50, 10]), (np.int32(50), np.int64(10))):
            numpy_rows = convergence_sweep(orbit, lambda s: s[:, 0], windows, np.int64(100))
            assert numpy_rows == rows and all(type(row.N) is int for row in numpy_rows)


@pytest.fixture
def gen():
    from taperdyn import RngStream
    return RngStream(55, "avg-tests").generator()
