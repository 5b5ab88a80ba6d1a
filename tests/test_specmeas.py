import hashlib
import math

import numpy as np
import pytest

from taperdyn import (
    DomainError,
    SizeError,
    autocorrelations,
    cosine_filter,
    density,
    peak_report,
    smoothstep_filter,
    standard_map,
)
from taperdyn.specmeas import SpectralDensity, _find_peaks

TWO_PI = 2.0 * math.pi
ALPHA = (math.sqrt(2.0) * TWO_PI) % TWO_PI


def rotation_series(n, theta0=0.0):
    return np.exp(1j * ((theta0 + ALPHA * np.arange(n)) % TWO_PI))


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<c16").tobytes()).hexdigest()


# recorded before the lag product was scaled in place: N = 20000, M = 100
# on a chaotic standard-map orbit packed as p + i theta
ACS_DIGEST = {
    True: "5dc119af14a41d65f2ff6c66276188e8f2501f3dabfd7c9d23cbdf692648dadf",
    False: "b22d17c7a9ebfed6ddc191353bdc912054ac4b0fecef60c6bb994ef3a20a4780",
}


def direct_density(coefficients, M, grid):
    """The dense sum_n c_n e^{i n theta} over a G x (2M+1) exponential
    matrix: the reference for the Horner evaluation."""
    ns = np.arange(-M, M + 1)
    return (np.exp(1j * np.outer(grid, ns)) @ coefficients).real


def hermitian_coefficients(M, seed):
    # decaying, as filtered autocorrelations are
    g = np.random.default_rng(seed)
    a = (g.standard_normal(M + 1) + 1j * g.standard_normal(M + 1)) / (1.0 + np.arange(M + 1))
    a[0] = a[0].real
    return np.concatenate([np.conj(a[:0:-1]), a])


class TestAutocorrelations:
    def test_constant_unit_series(self):
        series = np.ones(200, dtype=complex)
        for weighted in (True, False):
            acs = autocorrelations(series, 20, weighted=weighted)
            np.testing.assert_allclose(acs.values, 1.0 / TWO_PI, rtol=1e-14)

    def test_rotation_closed_form(self):
        # Koopman action on e^{i theta} under rotation: a_n = e^{-i n alpha}/(2 pi)
        acs = autocorrelations(rotation_series(10_000), 50)
        ns = np.arange(-50, 51)
        expected = np.exp(-1j * ns * ALPHA) / TWO_PI
        np.testing.assert_allclose(acs.values, expected, atol=1e-8)

    def test_hermitian_symmetry_exact(self):
        g = np.random.default_rng(3)
        series = g.standard_normal(500) + 1j * g.standard_normal(500)
        acs = autocorrelations(series, 30)
        for n in range(31):
            assert acs.values[acs.M - n] == np.conj(acs.values[acs.M + n])

    def test_lag_accessor(self):
        acs = autocorrelations(np.ones(50, dtype=complex), 5)
        assert acs.lag(3) == np.conj(acs.lag(-3))
        with pytest.raises(DomainError):
            acs.lag(6)
        assert acs.lag(np.int64(-3)) == acs.lag(-3)

    @pytest.mark.parametrize("n", [2.5, 1.0, True, "1", None])
    def test_lag_not_an_integer_is_a_domain_error(self, n):
        # 2.5 raised IndexError, True read lag 1 and "1" raised TypeError
        acs = autocorrelations(np.ones(50, dtype=complex), 5)
        with pytest.raises(DomainError, match="lag n must be an integer"):
            acs.lag(n)

    def test_size_errors(self):
        series = np.ones(10, dtype=complex)
        with pytest.raises(SizeError):
            autocorrelations(series, 9)
        autocorrelations(series, 8)  # N - M = 2 samples is still legal

    @pytest.mark.parametrize("weighted", [True, False])
    def test_golden_digest(self, weighted):
        states = standard_map(5.0, 0.5, 1.0, 20_000).states
        series = states[:, 0] + 1j * states[:, 1]
        acs = autocorrelations(series, 100, weighted=weighted)
        assert sha256(acs.values) == ACS_DIGEST[weighted]

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_series_rejected(self, weighted, bad):
        series = np.ones(100, dtype=complex)
        series[37] = bad
        with pytest.raises(DomainError):
            autocorrelations(series, 10, weighted=weighted)

    def test_series_not_modified(self):
        series = rotation_series(300)
        before = series.copy()
        autocorrelations(series, 20)
        np.testing.assert_array_equal(series, before)

    def test_weighted_and_plain_agree_on_random_phases(self):
        g = np.random.default_rng(11)
        series = np.exp(1j * g.uniform(0, TWO_PI, 50_000))
        a_w = autocorrelations(series, 10, weighted=True)
        a_u = autocorrelations(series, 10, weighted=False)
        np.testing.assert_allclose(a_w.values, a_u.values, atol=2e-2 / TWO_PI)

    def test_weighted_and_plain_agree_on_chaotic_series(self):
        # mixing data: every lag coefficient agrees to 1% of the a_0 scale
        from taperdyn import standard_map
        traj = standard_map(5.0, 0.5, 1.0, 100_000)
        series = np.exp(1j * traj.states[:, 1])
        a_w = autocorrelations(series, 20, weighted=True)
        a_u = autocorrelations(series, 20, weighted=False)
        scale = abs(a_u.lag(0))
        assert np.max(np.abs(a_w.values - a_u.values)) <= 1e-2 * scale

    def test_weighted_converges_faster_on_quasiperiodic_series(self):
        # a two-harmonic observable makes the lag products genuinely
        # oscillatory, so the estimators converge at different rates;
        # oracle: <phi, K^n phi> = sum_k |c_k|^2 e^{-i n k alpha}
        theta = (ALPHA * np.arange(10_000)) % TWO_PI
        series = np.exp(1j * theta) + np.exp(2j * theta)
        ns = np.arange(-30, 31)
        exact = (np.exp(-1j * ns * ALPHA) + np.exp(-2j * ns * ALPHA)) / TWO_PI
        err_w = np.linalg.norm(autocorrelations(series, 30, weighted=True).values - exact)
        err_u = np.linalg.norm(autocorrelations(series, 30, weighted=False).values - exact)
        assert err_w * 100 <= err_u


class TestFilters:
    def test_cosine_values(self):
        assert cosine_filter(0.0) == 1.0
        assert cosine_filter(1.0) == pytest.approx(0.0, abs=1e-16)
        assert cosine_filter(-1.0) == pytest.approx(0.0, abs=1e-16)
        assert cosine_filter(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_cosine_domain(self):
        with pytest.raises(DomainError):
            cosine_filter(1.01)

    @pytest.mark.parametrize("filt", [cosine_filter, smoothstep_filter])
    @pytest.mark.parametrize("x", [float("nan"), np.array([0.5, np.nan]),
                                   np.array([np.inf, 0.0])])
    def test_non_finite_rejected(self, filt, x):
        with pytest.raises(DomainError):
            filt(x)

    def test_cosine_even(self):
        x = np.linspace(0, 1, 21)
        np.testing.assert_allclose(cosine_filter(x), cosine_filter(-x), rtol=1e-15)

    def test_bump_smoothstep_properties(self):
        f = smoothstep_filter
        assert f(0.0) == 1.0
        assert f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert f(-1.0) == pytest.approx(0.0, abs=1e-12)
        x = np.linspace(-1, 1, 101)
        vals = f(x)
        assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
        np.testing.assert_allclose(vals, f(-x), rtol=1e-14)


class TestDensity:
    def test_fejer_like_kernel_from_flat_series(self):
        acs = autocorrelations(np.ones(500, dtype=complex), 40)
        dens = density(acs, cosine_filter)
        grid = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
        vals = dens.eval_grid(grid)
        assert grid[np.argmax(vals)] == pytest.approx(0.0, abs=1e-12)
        # quadrature oracle: the trapezoid integral matches 2 pi a_0 = 1
        integral = np.sum(vals) * (grid[1] - grid[0])
        assert integral == pytest.approx(dens.analytic_integral, abs=1e-6)
        assert dens.analytic_integral == pytest.approx(1.0, rel=1e-12)

    def test_rotation_peak_at_eigenvalue_angle(self):
        acs = autocorrelations(rotation_series(100_000), 100)
        dens = density(acs)
        grid = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        vals = dens.eval_grid(grid)
        target = ALPHA if ALPHA < math.pi else ALPHA - TWO_PI
        step = grid[1] - grid[0]
        assert abs(grid[np.argmax(vals)] - target) <= step

    def test_real_observable_symmetric_peaks(self):
        theta = (ALPHA * np.arange(50_000)) % TWO_PI
        acs = autocorrelations(np.cos(theta).astype(complex), 80)
        dens = density(acs)
        peaks = peak_report(dens, 2048, min_prominence=1.0)
        target = ALPHA if ALPHA < math.pi else ALPHA - TWO_PI
        locations = sorted(th for th, _ in peaks)
        assert len(locations) == 2
        np.testing.assert_allclose(locations, sorted([-target, target]), atol=0.01)

    def test_eval_scalar(self):
        acs = autocorrelations(np.ones(100, dtype=complex), 10)
        dens = density(acs)
        assert dens.eval(0.0) == pytest.approx(dens.eval_grid([0.0])[0])

    @pytest.mark.parametrize("M", [1, 20, 100])
    @pytest.mark.parametrize("grid_kind", ["uniform", "random"])
    def test_eval_grid_matches_direct_sum(self, M, grid_kind):
        c = hermitian_coefficients(M, seed=M)
        if grid_kind == "uniform":
            grid = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        else:
            grid = np.sort(np.random.default_rng(5).uniform(-4.0, 4.0, 777))
        dens = SpectralDensity(coefficients=c, M=M)
        ref = direct_density(c, M, grid)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(dens.eval_grid(grid) - ref)) <= 1e-13 * scale
        for theta in grid[::97]:
            assert abs(dens.eval(float(theta)) - direct_density(c, M, [theta])[0]) <= 1e-13 * scale

    def test_eval_grid_m_zero_is_constant(self):
        dens = SpectralDensity(coefficients=np.array([0.25 + 0j]), M=0)
        np.testing.assert_array_equal(dens.eval_grid(np.linspace(-3, 3, 7)), 0.25)

    def test_eval_grid_empty(self):
        dens = SpectralDensity(coefficients=hermitian_coefficients(5, seed=1), M=5)
        assert dens.eval_grid(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        dens = SpectralDensity(coefficients=hermitian_coefficients(5, seed=1), M=5)
        with pytest.raises(DomainError):
            dens.eval_grid(np.array([0.0, bad]))
        with pytest.raises(DomainError):
            dens.eval(bad)

    def test_non_hermitian_coefficients_rejected(self):
        bad = SpectralDensity(coefficients=np.array([1j, 1.0, 1j]), M=1)
        with pytest.raises(Exception):
            bad.eval_grid(np.linspace(-1, 1, 8))


class TestPeakReport:
    def test_two_harmonics(self):
        theta = (ALPHA * np.arange(100_000)) % TWO_PI
        series = np.exp(1j * theta) + np.exp(3j * theta)
        acs = autocorrelations(series, 100)
        dens = density(acs)
        peaks = peak_report(dens, 4096, min_prominence=1.0)
        targets = sorted(((angle + math.pi) % TWO_PI) - math.pi
                         for angle in (ALPHA, 3 * ALPHA))
        locations = [th for th, _ in peaks]
        assert len(locations) == 2
        np.testing.assert_allclose(locations, targets, atol=0.01)

    def test_flat_density_no_peaks(self):
        dens = SpectralDensity(coefficients=np.array([0.0, 1.0 / TWO_PI, 0.0]), M=1)
        assert peak_report(dens, 1024) == []

    def test_grid_size_validated(self):
        dens = SpectralDensity(coefficients=np.array([0.0, 1.0, 0.0]), M=1)
        with pytest.raises(SizeError):
            peak_report(dens, 8)

    def test_sorted_by_angle(self):
        theta = (ALPHA * np.arange(20_000)) % TWO_PI
        series = np.exp(1j * theta) + 0.5 * np.exp(-2j * theta)
        acs = autocorrelations(series, 60)
        peaks = peak_report(density(acs), 2048, min_prominence=0.3)
        locations = [th for th, _ in peaks]
        assert locations == sorted(locations)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_prominence_rejected(self, bad):
        dens = SpectralDensity(coefficients=np.array([0.1, 1.0, 0.1]), M=1)
        with pytest.raises(DomainError, match="min_prominence"):
            peak_report(dens, 64, min_prominence=bad)


def _peak_corpus():
    # normal samples, small integers (plateaus and ties) and rounded random
    # walks of lengths 3..300, then hand-picked edge cases
    g = np.random.default_rng(2024)
    for case in range(400):
        n = int(g.integers(3, 301))
        kind = case % 3
        if kind == 0:
            yield g.standard_normal(n)
        elif kind == 1:
            yield g.integers(0, 4, n).astype(float)
        else:
            yield np.round(np.cumsum(g.standard_normal(n)))
    yield from (np.array(x, dtype=float) for x in (
        [3, 3, 3, 1, 2, 1],          # plateau touching the left end
        [1, 2, 1, 3, 3, 3],          # plateau touching the right end
        [1, 3, 3, 3, 3, 1],          # even plateau: lower middle sample
        [5, 5, 5, 5, 5],             # all equal
        [1, 2, 1], [2, 1, 2], [1, 2, 2], [2, 2, 1],  # length 3
    ))


class TestFindPeaks:
    """The numpy peak finder against scipy.signal.find_peaks."""

    @pytest.mark.parametrize("min_prominence", [0.0, 0.5, 1.0, 2.5])
    def test_matches_scipy(self, min_prominence):
        from scipy.signal import find_peaks

        prominence = min_prominence if min_prominence > 0 else None
        for x in _peak_corpus():
            expected, _ = find_peaks(x, prominence=prominence)
            np.testing.assert_array_equal(_find_peaks(x, min_prominence), expected,
                                          err_msg=str(x))
