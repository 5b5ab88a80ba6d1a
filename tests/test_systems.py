import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperdyn import (
    ConfigError,
    RngStream,
    ShapeError,
    SizeError,
    Trajectory,
    driven_logistic,
    harmonic_series,
    ou_sample,
    quasiperiodic_field,
    standard_map,
)
from taperdyn import systems
from taperdyn.systems import second_difference, standard_map_batch

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# -1e-300 % 2 pi rounds up to 2 pi itself, so the third IC exercises the guard
GOLDEN_P0 = [0.3, 1.0, -1e-300]
GOLDEN_TH0 = [1.0, 4.0, 6.0]

# SHA-256 of the float64 outputs, recorded from the vectorised batch loop and
# the per-call _mod_tau scalar loops that the shared kernel replaced
GOLDEN = {
    "standard_map-fixed": (
        lambda: standard_map(0.9, 1.2, 2.3, 2000).states,
        "e335ef7e6e6a79b8e325237b779b00083c07f5c14499cc5c7440d70e9eb57126"),
    "standard_map-resample": (
        lambda: standard_map("uniform_resample", 1.0, 2.0, 2000,
                             rng=RngStream(11, "golden")).states,
        "e8a5e8d5b12771d70c6dd71ce05921339e4734c505817e9bbbbacfa128117090"),
    "batch-0.25": (
        lambda: standard_map_batch(0.25, GOLDEN_P0, GOLDEN_TH0, 2000),
        "b79e85120cfcc8094478209f8183a5cf5430db333a3ec8180ffee8b40584e942"),
    "batch-5.0": (
        lambda: standard_map_batch(5.0, GOLDEN_P0, GOLDEN_TH0, 2000),
        "1969fd9aae33258ab174a140612d7aaff45a231e792488f3da9734018b0e393b"),
    "batch-resample": (
        lambda: standard_map_batch("uniform_resample", GOLDEN_P0, GOLDEN_TH0, 2000,
                                   rng=RngStream(12, "golden")),
        "73e2023d8b382564256483137cada8035567e85925b00333457d0c48e57b6943"),
    "logistic-0": (
        lambda: driven_logistic(0.0, 0.25, 0.1, 2000).states,
        "24bdb6b065ae254d9e91ad36946d36a50ff72ce62a17786fbb5f170575a82a1e"),
    "logistic-0.01": (
        lambda: driven_logistic(0.01, 0.25, 0.1, 2000).states,
        "8534df027485e35abcd0610eed24a1156d81cd5c46f78e70e146cd5df097fbbf"),
    "logistic-0.1": (
        lambda: driven_logistic(0.1, 0.25, 0.1, 2000).states,
        "0a2ee28ee29da7c0d225fd2b170ff775003de97f8e1a97c715331225ad7c9ec8"),
    "ou-substeps-25": (
        lambda: ou_sample(1.0, math.sqrt(2.0), 0.3, 0.1, 2000, substeps=25,
                          rng=RngStream(8, "golden")).states,
        "8460fd7abe5a49d196f7a3cdd89e8634e3face02535701f00a4955f7a4ecd892"),
}
# numpy-scalar arguments (as rng.uniform draws are) give the same bits
F64 = np.float64
GOLDEN["logistic-0.01-numpy-scalars"] = (
    lambda: driven_logistic(F64(0.01), F64(0.25), F64(0.1), 2000).states,
    GOLDEN["logistic-0.01"][1])
GOLDEN["logistic-0.1-numpy-scalars"] = (
    lambda: driven_logistic(F64(0.1), F64(0.25), F64(0.1), 2000).states,
    GOLDEN["logistic-0.1"][1])


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(case):
    generate, digest = GOLDEN[case]
    assert sha256(generate()) == digest


class TestTrajectory:
    @pytest.mark.parametrize("shape", [(4, 2), (5,)])
    def test_caller_array_stays_writeable(self, shape):
        a = np.zeros(shape)
        traj = Trajectory(a)
        assert a.flags.writeable
        assert not traj.states.flags.writeable
        assert np.shares_memory(traj.states, a)


class TestRngStream:
    def test_same_seed_same_stream(self):
        a = RngStream(7, "x").generator().standard_normal(5)
        b = RngStream(7, "x").generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_decorrelate(self):
        root = RngStream(7)
        a = root.split("one").generator().standard_normal(5)
        b = root.split("two").generator().standard_normal(5)
        assert not np.allclose(a, b)

    def test_split_paths_are_stable(self):
        assert RngStream(7).split("a").split("b").label == "a/b"

    @pytest.mark.parametrize("seed", [1.0, 1.5, True, np.bool_(False), "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # a float seed would hash as "1.0" and draw another stream than seed 1
        with pytest.raises(ConfigError, match="seed must be an integer"):
            RngStream(seed, "x")

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_seed_draws_the_same_stream(self, kind):
        stream = RngStream(kind(7), "x")
        assert type(stream.seed) is int and stream == RngStream(7, "x")
        np.testing.assert_array_equal(stream.split("y").generator().random(5),
                                      RngStream(7, "x").split("y").generator().random(5))


class TestDrivenLogistic:
    def test_zero_stays_zero(self):
        orbit = driven_logistic(0.0, 0.0, 0.0, 5)
        assert np.all(orbit.states[:, 0] == 0.0)

    def test_theta_is_decoupled_rotation(self):
        orbit = driven_logistic(0.1, 0.5, 0.2, 1000)
        n = np.arange(1000)
        np.testing.assert_allclose(orbit.states[:, 1], (0.2 + n * SQRT2) % 1.0,
                                   rtol=0, atol=1e-9)

    def test_period_four_after_transient(self):
        orbit = driven_logistic(0.0, 0.25, 0.0, 3000)
        x = orbit.states[:, 0]
        np.testing.assert_allclose(x[1000:2000], x[1004:2004], atol=1e-10)

    def test_theta_range(self):
        orbit = driven_logistic(0.1, 0.25, 0.9, 500)
        th = orbit.states[:, 1]
        assert np.all((th >= 0.0) & (th < 1.0))

    def test_errors(self):
        with pytest.raises(SizeError):
            driven_logistic(0.0, 0.25, 0.0, 1)
        with pytest.raises(ConfigError):
            driven_logistic(-0.5, 0.25, 0.0, 10)

    @pytest.mark.parametrize("eps, x0, theta0", [(math.nan, 0.25, 0.0),
                                                 (math.inf, 0.25, 0.0),
                                                 (0.1, math.nan, 0.0),
                                                 (0.1, 0.25, -math.inf)])
    def test_rejects_non_finite_arguments(self, eps, x0, theta0):
        # rejected up front, not by the trajectory's own check after the loop
        with pytest.raises(ConfigError, match="eps|initial condition"):
            driven_logistic(eps, x0, theta0, 10)


class TestStandardMap:
    def test_integrable_limit(self):
        orbit = standard_map(0.0, 1.0, 0.0, 50)
        p, th = orbit.states[:, 0], orbit.states[:, 1]
        np.testing.assert_allclose(p, 1.0, atol=1e-12)
        np.testing.assert_allclose(th, np.arange(50) % TWO_PI, atol=1e-9)

    def test_outputs_on_torus(self):
        orbit = standard_map(5.0, 2.5, 1.3, 2000)
        assert np.all((orbit.states >= 0.0) & (orbit.states < TWO_PI))

    def test_theta_update_uses_new_momentum(self):
        lam, p0, th0 = 1.7, 0.4, 2.0
        orbit = standard_map(lam, p0, th0, 3)
        p1 = (p0 + lam * math.sin(th0)) % TWO_PI
        th1 = (th0 + p1) % TWO_PI
        assert orbit.states[1, 0] == pytest.approx(p1, abs=1e-15)
        assert orbit.states[1, 1] == pytest.approx(th1, abs=1e-15)

    def test_resample_is_seed_deterministic(self):
        rng = RngStream(99, "sm")
        a = standard_map("uniform_resample", 1.0, 2.0, 100, rng=rng)
        b = standard_map("uniform_resample", 1.0, 2.0, 100, rng=rng)
        np.testing.assert_array_equal(a.states, b.states)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            standard_map("bogus", 1.0, 2.0, 10)
        with pytest.raises(ConfigError):
            standard_map("uniform_resample", 1.0, 2.0, 10)

    def test_batch_matches_scalar_for_fixed_lambda(self):
        p0 = np.array([0.3, 1.0])
        th0 = np.array([1.0, 4.0])
        batch = standard_map_batch(2.0, p0, th0, 200)
        for i in range(2):
            single = standard_map(2.0, p0[i], th0[i], 200)
            np.testing.assert_array_equal(batch[:, i, :], single.states)

    def test_one_ic_batch_matches_scalar_for_resample(self):
        rng = RngStream(5, "one-ic")
        batch = standard_map_batch("uniform_resample", [0.7], [2.5], 300, rng=rng)
        single = standard_map("uniform_resample", 0.7, 2.5, 300, rng=rng)
        np.testing.assert_array_equal(batch[:, 0, :], single.states)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.one_of(st.floats(0.0, 10.0), st.just("uniform_resample")),
        p0=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e-300, -0.0, TWO_PI])),
        th0=st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-1e-300, -5e-324])),
    )
    def test_outputs_in_half_open_torus(self, lam, p0, th0):
        rng = RngStream(3, "torus")
        single = standard_map(lam, p0, th0, 50, rng=rng).states
        batch = standard_map_batch(lam, [p0, th0], [th0, p0], 50, rng=rng)
        for states in (single, batch):
            assert np.all((states >= 0.0) & (states < TWO_PI))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_batch_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ConfigError, match="invalid lambda"):
            standard_map_batch(lam, [0.5], [1.0], 5)

    @pytest.mark.parametrize("p0, th0", [([float("nan")], [1.0]),
                                         ([0.5], [float("inf")])])
    def test_rejects_non_finite_initial_conditions(self, p0, th0):
        with pytest.raises(ConfigError, match="finite"):
            standard_map_batch(1.0, p0, th0, 5)
        with pytest.raises(ConfigError, match="finite"):
            standard_map(1.0, p0[0], th0[0], 5)

    @pytest.mark.parametrize("p0, th0", [(np.zeros((2, 2)), np.zeros((2, 2))),
                                         (np.zeros(3), np.zeros(2))])
    def test_batch_rejects_bad_ic_shapes(self, p0, th0):
        with pytest.raises(ShapeError):
            standard_map_batch(1.0, p0, th0, 5)


class TestHarmonicSeries:
    def test_lengths_and_metadata(self):
        data = harmonic_series(1.0, 0.0, 0.01, 50)
        assert data.positions.shape == (52,)
        assert data.interior_positions.shape == (50,)
        assert data.second_derivative.shape == (50,)
        assert data.meta["n_interior"] == 50

    def test_noiseless_fd_truncation_bound(self):
        # classical central-difference bound: |X'' + X| <= k^2/12 * max|x''''|
        A, k = 1.0, 0.01
        data = harmonic_series(A, 0.3, k, 5000)
        resid = np.max(np.abs(data.second_derivative + data.interior_positions))
        assert resid <= (k**2 / 12.0) * A * 1.1

    def test_zero_amplitude(self):
        data = harmonic_series(0.0, 0.0, 0.1, 20)
        assert np.all(data.positions == 0.0)
        assert np.all(data.second_derivative == 0.0)

    def test_fd_noise_amplification(self):
        # Monte-Carlo oracle: differencing white noise multiplies its standard
        # deviation by sqrt(6)/k^2 (variances 1 + 1 + 4 from the stencil)
        sigma, k = 1e-3, 0.01
        data = harmonic_series(0.0, 0.0, k, 200_000, noise_sigma=sigma,
                               rng=RngStream(3, "fd-noise"))
        predicted = math.sqrt(6.0) * sigma / k**2
        assert np.std(data.second_derivative) == pytest.approx(predicted, rel=0.05)

    def test_errors(self):
        with pytest.raises(SizeError):
            harmonic_series(1.0, 0.0, 0.1, 2)
        with pytest.raises(ConfigError):
            harmonic_series(1.0, 0.0, -0.1, 10)
        with pytest.raises(ConfigError):
            harmonic_series(1.0, 0.0, 0.1, 10, noise_sigma=0.5)

    @pytest.mark.parametrize("name, value", [
        ("amplitude", math.nan), ("amplitude", math.inf), ("phase", math.inf),
        ("phase", -math.inf), ("dt", 0.0), ("dt", math.inf), ("dt", math.nan),
        ("dt", 1e-200), ("noise_sigma", -1.0), ("noise_sigma", math.nan),
        ("noise_sigma", math.inf)])
    def test_bad_scalar_named_before_any_draw(self, name, value):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew before checking the scalars")

        args = dict(amplitude=2.0, phase=0.7, dt=0.01, noise_sigma=1e-3)
        args[name] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=name):
                harmonic_series(N=10, rng=NoDraws(), **args)


class TestSecondDifference:
    def test_is_the_stencil_of_harmonic_series(self):
        data = harmonic_series(2.0, 0.7, 0.01, 300, noise_sigma=1e-4, rng=RngStream(2, "sd"))
        x = data.positions
        np.testing.assert_array_equal(second_difference(x, 0.01), data.second_derivative)
        np.testing.assert_array_equal(data.second_derivative,
                                      (x[2:] + x[:-2] - 2.0 * x[1:-1]) / 0.01**2)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, -math.inf, math.nan, 1e-200, 1e200])
    def test_step_without_a_finite_nonzero_square_is_refused(self, dt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="dt must be > 0"):
                second_difference(np.arange(6.0), dt)


class TestOuSample:
    def test_small_diffusion_tracks_exponential(self):
        traj = ou_sample(1.0, 1e-12, 1.0, 0.01, 101, substeps=1,
                         rng=RngStream(0, "ou1"))
        x = traj.states[:, 0]
        n = np.arange(101)
        # Euler drift error over t = 1 is about theta^2 h t / 2 = 0.5%
        np.testing.assert_allclose(x, np.exp(-0.01 * n), rtol=6e-3)
        # and matches the exact Euler product to machine precision
        np.testing.assert_allclose(x, (1.0 - 0.01) ** n, rtol=1e-10)

    def test_stationary_variance(self):
        traj = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 100_000, substeps=4,
                         rng=RngStream(8, "ou2"))
        var = traj.states[:, 0].var()
        assert var == pytest.approx(1.0, rel=0.05)

    def test_reproducible(self):
        a = ou_sample(0.5, 1.0, 0.0, 0.05, 500, substeps=2, rng=RngStream(4, "z"))
        b = ou_sample(0.5, 1.0, 0.0, 0.05, 500, substeps=2, rng=RngStream(4, "z"))
        np.testing.assert_array_equal(a.states, b.states)

    @pytest.mark.parametrize("N, substeps", [(300, 25), (40, 100)])
    def test_matches_per_sample_draws(self, N, substeps, monkeypatch):
        # reference: one draw of `substeps` normals per recorded sample; with
        # 64-normal blocks the cases span many blocks, and a sample larger
        # than a block
        monkeypatch.setattr(systems, "_NORMALS_PER_DRAW", 64)
        rng = RngStream(6, "blocks")
        gen = rng.generator()
        decay, scale = 1.0 - 0.5 * 0.1 / substeps, 0.7 * math.sqrt(0.1 / substeps)
        ref = [0.2]
        for _ in range(N - 1):
            cur = ref[-1]
            for z in gen.standard_normal(substeps):
                cur = cur * decay + scale * z
            ref.append(cur)
        traj = ou_sample(0.5, 0.7, 0.2, 0.1, N, substeps=substeps, rng=rng)
        np.testing.assert_array_equal(traj.states[:, 0], ref)

    def test_unstable_step_rejected(self):
        with pytest.raises(ConfigError):
            ou_sample(100.0, 1.0, 0.0, 0.1, 10, substeps=1)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 0.0, 0.1),
                                      (1.0, math.nan, 0.0, 0.1),
                                      (1.0, math.inf, 0.0, 0.1),
                                      (1.0, 1.0, math.nan, 0.1),
                                      (1.0, 1.0, math.inf, 0.1),
                                      (1.0, 1.0, 0.0, math.nan)])
    def test_rejects_non_finite_arguments(self, args, monkeypatch):
        # rejected up front: no noise is drawn, and the message names the
        # arguments rather than the trajectory
        def no_generator(self):
            raise AssertionError("the Euler loop ran")
        monkeypatch.setattr(RngStream, "generator", no_generator)
        with pytest.raises(ConfigError, match="must be finite"):
            ou_sample(*args, 20000, substeps=25)


class TestQuasiperiodicField:
    def test_shape_and_determinism(self):
        a = quasiperiodic_field(20, 300, seed=5)
        b = quasiperiodic_field(20, 300, seed=5)
        assert a.states.shape == (300, 20)
        np.testing.assert_array_equal(a.states, b.states)
        assert not np.allclose(a.states, quasiperiodic_field(20, 300, seed=6).states)

    def test_bounded(self):
        traj = quasiperiodic_field(5, 1000, seed=1)
        assert np.all(np.isfinite(traj.states))
