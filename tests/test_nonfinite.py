"""Every least-squares fitter rejects NaN and infinity with DomainError.

The data run through the weighted solve (DMD, EDMD and STLSQ share
linalg.pinv_lstsq; mpEDMD forms its own Gram matrices), on short data and on
data long enough for the blocked QR reduction, with the bad value anywhere,
including a zero-weight end sample and next to an all-zero column.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperdyn import (
    DictionaryMatrices,
    DomainError,
    WeightVector,
    dmd,
    edmd,
    eval_bump,
    make_weight_vector,
    mpedmd,
    stlsq,
)
from taperdyn.linalg import _TSQR_ROWS

FITTERS = ("dmd", "edmd", "mpedmd", "stlsq")


def _fit(fitter, first, second, weights):
    if fitter == "dmd":
        return dmd(first, second, weights)
    if fitter == "stlsq":
        return stlsq(first, second, eta=0.1, weights=weights)
    mats = DictionaryMatrices(first.astype(complex), second.astype(complex))
    return (edmd if fitter == "edmd" else mpedmd)(mats, weights)


@pytest.mark.parametrize("blocked", [False, True])
@given(fitter=st.sampled_from(FITTERS),
       n=st.integers(3, 200),
       L=st.integers(2, 4),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       in_second=st.booleans(),
       row=st.floats(0.0, 1.0),
       col=st.integers(0, 3),
       end_row=st.booleans(),
       zero_column=st.booleans(),
       weighted=st.booleans(),
       seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_non_finite_data_raise_domain_error(blocked, fitter, n, L, bad, in_second, row, col,
                                            end_row, zero_column, weighted, seed):
    N = n + _TSQR_ROWS if blocked else n
    g = np.random.default_rng(seed)
    first = g.standard_normal((N, L))
    second = g.standard_normal((N, L))
    if zero_column:
        first[:, L - 1] = 0.0
    # the bump taper gives sample 0 zero weight, so inf * 0 happens there
    i = 0 if end_row else min(int(row * N), N - 1)
    (second if in_second else first)[i, col % L] = bad
    weights = make_weight_vector(N, eval_bump) if weighted else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            _fit(fitter, first, second, weights)


@pytest.mark.parametrize("fitter", FITTERS)
def test_finite_data_fit_without_warnings(fitter):
    g = np.random.default_rng(5)
    N = _TSQR_ROWS + 7
    first = g.standard_normal((N, 3))
    second = first @ g.standard_normal((3, 3)) / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fit(fitter, first, second, make_weight_vector(N, eval_bump))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("everywhere", [False, True])
def test_bad_raw_weights_are_named(bad, everywhere):
    # refused when the vector is built, before any fit can read it
    weights = np.full(10, bad) if everywhere else np.ones(10)
    weights[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="weights must be finite and non-negative"):
            WeightVector(weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_target_data_raise_domain_error(bad):
    targets = np.ones(5)
    targets[2] = bad
    with pytest.raises(DomainError, match="NaN or infinity"):
        stlsq(np.eye(5, 3), targets, eta=0.1)
