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

    @given(N=st.integers(min_value=2, max_value=3000),
           kind=st.sampled_from(["bump", "uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, N, kind):
        w = exponential_bump() if kind == "bump" else uniform_weight()
        wv = make_weight_vector(N, w)
        assert abs(wv.normalized.sum() - 1.0) <= 1e-12
        assert wv.alpha > 0.0
        assert len(wv) == N

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
