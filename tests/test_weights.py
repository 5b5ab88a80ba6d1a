import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperdyn import (
    DegenerateWeightError,
    DomainError,
    SizeError,
    WeightVector,
    custom_taper,
    eval_bump,
    exponential_bump,
    make_weight_vector,
    uniform_weight,
    uniform_weight_vector,
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
        wv = make_weight_vector(2, exponential_bump())
        np.testing.assert_allclose(wv.raw, [0.0, math.exp(-4.0)], rtol=1e-15)
        np.testing.assert_allclose(wv.normalized, [0.0, 1.0], rtol=0, atol=0)

    def test_uniform_gives_mean_weights(self):
        wv = make_weight_vector(5, uniform_weight())
        np.testing.assert_allclose(wv.normalized, np.full(5, 0.2), rtol=0, atol=0)
        assert wv.alpha == 5.0

    @pytest.mark.parametrize("N", [3, 8, 17, 256, 1001])
    def test_bump_palindrome_inside(self, N):
        wv = make_weight_vector(N, exponential_bump())
        inner = wv.normalized[1:]
        np.testing.assert_allclose(inner, inner[::-1], rtol=1e-13, atol=1e-18)

    def test_size_error(self):
        with pytest.raises(SizeError):
            make_weight_vector(1, exponential_bump())

    def test_degenerate_taper(self):
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, custom_taper(lambda x: np.zeros_like(np.asarray(x))))

    def test_negative_taper_rejected(self):
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, custom_taper(lambda x: np.asarray(x) - 0.5))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_taper_rejected(self, value):
        def taper(x):
            out = np.ones_like(x)
            out[3] = value
            return out
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(10, custom_taper(taper))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_taper_whose_sum_overflows_rejected(self):
        # every value is finite, but their sum is inf, which would
        # normalize every weight to 0
        with pytest.raises(DegenerateWeightError):
            make_weight_vector(4, custom_taper(lambda x: np.full_like(x, 1e308)))

    @pytest.mark.parametrize("N", sorted(WEIGHTS_DIGEST))
    def test_golden_digest(self, N):
        wv = make_weight_vector(N, exponential_bump())
        assert sha256(wv.normalized) == WEIGHTS_DIGEST[N]

    @given(N=st.integers(min_value=2, max_value=3000),
           kind=st.sampled_from(["bump", "uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, N, kind):
        w = exponential_bump() if kind == "bump" else uniform_weight()
        wv = make_weight_vector(N, w)
        assert abs(wv.normalized.sum() - 1.0) <= 1e-12
        assert wv.alpha > 0.0
        assert len(wv) == N

    @pytest.mark.parametrize("x", [float("nan"), np.array([0.5, np.nan]), np.array([-0.1])])
    def test_uniform_profile_domain(self, x):
        with pytest.raises(DomainError):
            uniform_weight()(x)

    def test_uniform_helper(self):
        assert np.array_equal(uniform_weight_vector(4).normalized, np.full(4, 0.25))

    def test_immutability(self):
        wv = make_weight_vector(8, exponential_bump())
        with pytest.raises(ValueError):
            wv.raw[0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        a = np.ones(5)
        wv = WeightVector(a, 1.0, a / 5)
        assert a.flags.writeable
        assert not wv.raw.flags.writeable and not wv.normalized.flags.writeable
        assert np.shares_memory(wv.raw, a)
