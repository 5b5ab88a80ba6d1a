import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperdyn import (
    ConfigError,
    DegenerateWeightError,
    DomainError,
    ShapeError,
    SizeError,
    WeightVector,
    birkhoff_average,
    build_dictionary_matrices,
    diffusion_basis,
    edmd,
    eval_bump,
    identity_dictionary,
    make_weight_vector,
    mpedmd,
    pinv_lstsq,
    shift_matrix,
    uniform_taper,
)


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# x(1-x) is 0 at the ends, at or below 1e-300 at 1e-310 and 1e-300, and
# about 1e-16 at 1 - 1e-16; the digests were recorded before eval_bump moved
# to one in-place pass
BUMP_EDGES = [0.0, 1e-310, 1e-300, 1e-200, 1e-3, 0.25, 0.5, 0.75,
              1 - 1e-3, 1 - 1e-16, 1.0]
BUMP_EDGES_DIGEST = "3621880bb8743ed61ccbafc1234ea81bb0e3788cd049c275c1977c4b14e68600"
WEIGHTS_DIGEST = {
    2: "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
    3: "d9291b19672511a3eb81414532e8daa8c45978c5470e6064ff14e17b1eeae9d1",
    10: "386fd45fef03ce4efb77a43cc12ec4f539f490c95656e2b816d56642d46926fc",
    1000: "e42d69b57de1332faba1e186e471bb78e46bc44d3c935e0a52cf663699603ba3",
    100000: "9e2327abd907315a47525c64217704e33e804b1f0ac22b5cd70248ed690effad",
}


class TestEvalBump:
    def test_boundaries_are_exactly_zero(self):
        assert eval_bump(0.0) == 0.0
        assert eval_bump(1.0) == 0.0

    def test_midpoint_closed_form(self):
        # direct evaluation: exp(-1/(0.5*0.5)) = e^-4
        assert eval_bump(0.5) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_symmetry(self):
        assert eval_bump(0.25) == eval_bump(0.75)
        x = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(eval_bump(x), eval_bump(1.0 - x), rtol=1e-13)

    def test_never_nan_near_edges(self):
        x = np.array([1e-320, 1e-200, 1e-10, 1 - 1e-10])
        vals = eval_bump(x)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_bump(-0.001)
        with pytest.raises(DomainError):
            eval_bump(1.001)

    def test_positive_inside(self):
        assert eval_bump(0.01) > 0.0
        assert eval_bump(0.99) > 0.0

    def test_golden_digest_at_edges(self):
        assert sha256(eval_bump(np.array(BUMP_EDGES))) == BUMP_EDGES_DIGEST
        scalars = [eval_bump(x) for x in BUMP_EDGES]
        assert all(type(v) is float for v in scalars)
        assert sha256(scalars) == BUMP_EDGES_DIGEST

    @pytest.mark.parametrize("bad", [float("nan"), [0.5, float("nan")], [float("inf")]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            eval_bump(bad)

    def test_empty_and_0d(self):
        assert eval_bump(np.array([])).shape == (0,)
        assert eval_bump(np.array(0.5)) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_input_not_modified(self):
        x = np.linspace(0.0, 1.0, 11)
        before = x.copy()
        eval_bump(x)
        np.testing.assert_array_equal(x, before)


class TestMakeWeightVector:
    def test_n2_bump_puts_all_mass_on_midpoint(self):
        wv = make_weight_vector(2, eval_bump)
        np.testing.assert_allclose(wv.raw, [0.0, math.exp(-4.0)], rtol=1e-15)
        np.testing.assert_allclose(wv.normalized, [0.0, 1.0], rtol=0, atol=0)

    def test_uniform_gives_mean_weights(self):
        wv = make_weight_vector(5, uniform_taper)
        np.testing.assert_allclose(wv.normalized, np.full(5, 0.2), rtol=0, atol=0)
        np.testing.assert_array_equal(wv.raw, np.ones(5))

    @pytest.mark.parametrize("N", [3, 8, 17, 256, 1001])
    def test_bump_palindrome_inside(self, N):
        wv = make_weight_vector(N, eval_bump)
        inner = wv.normalized[1:]
        np.testing.assert_allclose(inner, inner[::-1], rtol=1e-13, atol=1e-18)

    def test_size_error(self):
        with pytest.raises(SizeError):
            make_weight_vector(1, eval_bump)

    def test_degenerate_taper(self):
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, lambda x: np.zeros_like(np.asarray(x)))

    def test_negative_taper_rejected(self):
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, lambda x: np.asarray(x) - 0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_taper_rejected(self, value):
        def taper(x):
            out = np.ones_like(x)
            out[3] = value
            return out
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, taper)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_taper_whose_sum_overflows_rejected(self):
        # every value is finite, but their sum is inf, which would
        # normalize every weight to 0
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(4, lambda x: np.full_like(x, 1e308))

    @pytest.mark.parametrize("N", sorted(WEIGHTS_DIGEST))
    def test_golden_digest(self, N):
        wv = make_weight_vector(N, eval_bump)
        assert sha256(wv.normalized) == WEIGHTS_DIGEST[N]

    @given(N=st.integers(min_value=2, max_value=3000),
           kind=st.sampled_from(["bump", "uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, N, kind):
        w = eval_bump if kind == "bump" else uniform_taper
        wv = make_weight_vector(N, w)
        assert abs(wv.normalized.sum() - 1.0) <= 1e-12
        assert wv.raw.sum() > 0.0
        assert len(wv) == N

    @pytest.mark.parametrize("x", [float("nan"), np.array([0.5, np.nan]), np.array([-0.1])])
    def test_uniform_profile_domain(self, x):
        with pytest.raises(DomainError):
            uniform_taper(x)

    def test_uniform_helper(self):
        assert np.array_equal(make_weight_vector(4, uniform_taper).normalized,
                              np.full(4, 0.25))

    def test_immutability(self):
        wv = make_weight_vector(8, eval_bump)
        with pytest.raises(ValueError):
            wv.raw[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        a = np.ones(5)
        wv = WeightVector(a)
        assert a.flags.writeable
        assert not wv.raw.flags.writeable and not wv.normalized.flags.writeable
        assert not np.shares_memory(wv.raw, a)


class TestWeightVector:
    def test_keeps_its_values_after_the_source_changes(self):
        a = np.arange(1.0, 6.0)
        wv = WeightVector(a)
        a[:] = -1.0
        np.testing.assert_array_equal(wv.raw, np.arange(1.0, 6.0))
        np.testing.assert_array_equal(wv.normalized, np.arange(1.0, 6.0) / 15.0)

    def test_cannot_be_made_writeable(self):
        wv = WeightVector([1.0, 2.0])
        for values in (wv.raw, wv.normalized):
            with pytest.raises(ValueError):
                values.setflags(write=True)

    def test_normalized_is_raw_over_its_sum(self):
        raw = np.random.default_rng(3).uniform(0.0, 1.0, 1001)
        assert np.array_equal(WeightVector(raw).normalized, raw / float(raw.sum()))

    def test_sampled_and_direct_vectors_agree(self):
        sampled = make_weight_vector(100, eval_bump)
        direct = WeightVector(eval_bump(np.arange(100) / 100))
        assert np.array_equal(sampled.raw, direct.raw)
        assert np.array_equal(sampled.normalized, direct.normalized)

    @pytest.mark.parametrize("raw", [np.ones((3, 2)), np.float64(1.0)])
    def test_not_1d_is_a_shape_error(self, raw):
        with pytest.raises(ShapeError):
            WeightVector(raw)

    @pytest.mark.parametrize("raw", [[], [0.0, 0.0]])
    def test_zero_sum_rejected(self, raw):
        with pytest.raises(DegenerateWeightError, match="cannot normalize"):
            WeightVector(raw)

    def test_bad_values_are_a_domain_error_of_the_weights(self):
        with pytest.raises(DegenerateWeightError) as exc:
            WeightVector([1.0, -1.0])
        assert isinstance(exc.value, DomainError)
        assert "weights must be finite and non-negative" in str(exc.value)


def _fit_with(entry, weights):
    """Call one weighted entry point on 40 samples (transitions, pairs) and the weights."""
    states = np.random.default_rng(0).standard_normal((41, 2))
    if entry in ("edmd", "mpedmd"):
        fit = edmd if entry == "edmd" else mpedmd
        return fit(build_dictionary_matrices(states, identity_dictionary(2)), weights)
    if entry == "pinv_lstsq":
        return pinv_lstsq(states[:-1], states[1:], weights=weights)
    if entry == "shift_matrix":
        return shift_matrix(diffusion_basis(states, M=3, bandwidth=1.0), weights)
    return birkhoff_average(states[:-1, 0], weights)


class TestWeightsMustBeAWeightVector:
    ENTRIES = ["edmd", "mpedmd", "pinv_lstsq", "shift_matrix", "birkhoff_average"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("kind", ["ndarray", "list"])
    def test_raw_values_are_a_config_error(self, entry, kind):
        weights = np.ones(40) if kind == "ndarray" else [1.0] * 40
        name = type(weights).__name__
        with pytest.raises(ConfigError, match=f"WeightVector or None, got {name}"):
            _fit_with(entry, weights)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_the_same_values_as_a_weight_vector_fit(self, entry):
        _fit_with(entry, WeightVector(np.ones(40)))
