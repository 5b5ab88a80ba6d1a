"""Properties shared across estimator families: a uniform taper reproduces the
plain estimate, no fitter changes its caller's arrays or makes them
read-only, and every count argument is checked the same way."""
import warnings

import numpy as np
import pytest

from taperdyn import (
    ConfigError,
    DictionaryMatrices,
    DomainError,
    RngStream,
    ShapeError,
    SizeError,
    TaperdynError,
    Trajectory,
    WeightVector,
    autocorrelations,
    birkhoff_average,
    build_dictionary_matrices,
    convergence_sweep,
    delay_embed,
    density,
    diffusion_basis,
    dmd,
    dmd_error_sweep,
    driven_logistic,
    edmd,
    eval_bump,
    forecast,
    fourier_dictionary,
    harmonic_oscillator_exact,
    harmonic_series,
    make_weight_vector,
    mpedmd,
    ou_sample,
    peak_report,
    pinv_lstsq,
    quasiperiodic_field,
    random_projection,
    shift_matrix,
    sindy_error_sweep,
    standard_map,
    stlsq,
    uniform_taper,
)
from taperdyn.systems import standard_map_batch


class TestUniformTaperIsPlain:
    @pytest.mark.parametrize("N, M", [(50, 10), (2000, 40)])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_autocorrelations(self, N, M, is_complex):
        g = np.random.default_rng(N)
        series = g.standard_normal(N) + (1j * g.standard_normal(N) if is_complex else 0.0)
        plain = autocorrelations(series, M, weighted=False).values
        uniform = autocorrelations(series, M, uniform_taper, weighted=True).values
        np.testing.assert_allclose(uniform, plain, rtol=0,
                                   atol=1e-12 * np.abs(plain).max())

    @pytest.mark.parametrize("N", [37, 5000])
    def test_mpedmd_is_bit_equal(self, N):
        # make_weight_vector's uniform weights are 1.0 / N exactly, as are
        # the plain fit's
        g = np.random.default_rng(N)
        angles = (0.5 + np.sqrt(2.0) * np.arange(N + 1)) % (2 * np.pi)
        noisy = angles[:, None] + 1e-3 * g.standard_normal((N + 1, 1))
        mats = build_dictionary_matrices(noisy, fourier_dictionary(2, dim=1))
        plain = mpedmd(mats)
        uniform = mpedmd(mats, make_weight_vector(N, uniform_taper))
        for name in ("matrix", "eigenvalues", "eigenvectors", "gram"):
            np.testing.assert_array_equal(getattr(uniform, name), getattr(plain, name))


def _bump(n):
    return make_weight_vector(n, eval_bump)


def _fit_and_inputs(name, weighted):
    """(call, arrays the caller holds) for one fitter on small random data."""
    g = np.random.default_rng(7)
    w = _bump(300) if weighted else None
    if name == "dmd":
        X, Y = g.standard_normal((300, 3)), g.standard_normal((300, 3))
        return lambda: dmd(X, Y, w), [X, Y]
    if name in ("edmd", "mpedmd"):
        Psi = g.standard_normal((300, 3)) + 1j * g.standard_normal((300, 3))
        Phi = g.standard_normal((300, 3)) + 1j * g.standard_normal((300, 3))
        fit = edmd if name == "edmd" else mpedmd
        return lambda: fit(DictionaryMatrices(Psi, Phi), w), [Psi, Phi]
    if name == "stlsq":
        Psi, T = g.standard_normal((300, 4)), g.standard_normal((300, 2))
        return lambda: stlsq(Psi, T, eta=0.5, weights=w), [Psi, T]
    if name == "birkhoff_average":
        series = g.standard_normal((300, 2))
        return lambda: birkhoff_average(series, w), [series]
    if name == "pinv_lstsq":
        A = g.standard_normal((300, 3)) + 1j * g.standard_normal((300, 3))
        B = g.standard_normal((300, 2))
        return lambda: pinv_lstsq(A, B, w), [A, B]
    if name == "autocorrelations":
        series = g.standard_normal(300) + 1j * g.standard_normal(300)
        return lambda: autocorrelations(series, 20, weighted=weighted), [series]
    if name == "convergence_sweep":
        orbit = g.standard_normal((300, 2))
        return (lambda: convergence_sweep(orbit, lambda s: s[:, 0], [10, 100], 300),
                [orbit])
    if name == "dmd_error_sweep":
        states = g.standard_normal((301, 3))
        return lambda: dmd_error_sweep(Trajectory(states), [10, 100], 300), [states]
    if name == "delay_embed":
        series = g.standard_normal(300)
        return lambda: delay_embed(series, 4), [series]
    if name == "diffusion_basis":
        pts = g.standard_normal((200, 1))
        return lambda: diffusion_basis(pts, M=4), [pts]
    basis = diffusion_basis(g.standard_normal((200, 1)), M=4, bandwidth=1.0)
    if name == "forecast":
        shift = shift_matrix(basis)
        x_init, target = g.standard_normal(1), g.standard_normal(200)
        return (lambda: forecast(basis, shift, x_init, 3, target),
                [basis.phi, shift.matrix, x_init, target])
    raw = np.linspace(1.0, 2.0, 199)
    weights = WeightVector(raw) if weighted else None
    return lambda: shift_matrix(basis, weights), [basis.phi, raw]


@pytest.mark.parametrize("name, weighted", [
    (name, weighted)
    for name in ("dmd", "edmd", "mpedmd", "stlsq", "birkhoff_average", "shift_matrix",
                 "pinv_lstsq", "autocorrelations")
    for weighted in (False, True)] + [
    (name, False) for name in ("diffusion_basis", "convergence_sweep", "dmd_error_sweep",
                               "delay_embed", "forecast")])
def test_inputs_neither_changed_nor_frozen(name, weighted):
    call, arrays = _fit_and_inputs(name, weighted)
    before = [a.copy() for a in arrays]
    call()
    for array, copy in zip(arrays, before):
        np.testing.assert_array_equal(array, copy)
        assert array.flags.writeable


_G = np.random.default_rng(11)
_SERIES = np.exp(1j * (0.3 + 2.0 * np.arange(200)))
_PSI, _TARGETS = _G.standard_normal((100, 4)), _G.standard_normal((100, 2))
_MATS = build_dictionary_matrices(_G.standard_normal((31, 2)), fourier_dictionary(1, dim=2))
_ORBIT = driven_logistic(0.01, 0.25, 0.0, 60)
_FIELD = quasiperiodic_field(3, 61, seed=5)


def _ou(N, substeps):
    return ou_sample(1.0, 1.0, 0.2, 0.1, N, substeps=substeps, rng=RngStream(2, "count"))


# every count argument of the public API that no other test table covers:
# (call of the count, the error its bad values raise, its minimum, a valid value)
COUNTS = {
    "driven_logistic-N": (lambda v: driven_logistic(0.01, 0.25, 0.0, v).states,
                          SizeError, 2, 40),
    "standard_map-N": (lambda v: standard_map(0.25, 0.5, 1.0, v).states, SizeError, 2, 40),
    "standard_map_batch-N": (lambda v: standard_map_batch(0.25, [0.5, 1.0], [1.0, 2.0], v),
                             SizeError, 2, 40),
    "harmonic_series-N": (lambda v: harmonic_series(2.0, 0.7, 0.01, v).second_derivative,
                          SizeError, 3, 40),
    "ou_sample-N": (lambda v: _ou(v, 3).states, SizeError, 2, 40),
    "ou_sample-substeps": (lambda v: _ou(40, v).states, ConfigError, 1, 3),
    "quasiperiodic_field-D": (lambda v: quasiperiodic_field(v, 40, seed=5).states,
                              ConfigError, 1, 3),
    "quasiperiodic_field-N": (lambda v: quasiperiodic_field(3, v, seed=5).states,
                              SizeError, 2, 40),
    "make_weight_vector-N": (lambda v: make_weight_vector(v, eval_bump).normalized,
                             SizeError, 2, 40),
    "autocorrelations-M": (lambda v: autocorrelations(_SERIES, v), DomainError, 0, 8),
    "peak_report-grid_size": (lambda v: peak_report(density(autocorrelations(_SERIES, 8)), v),
                              SizeError, 16, 64),
    "stlsq-max_iter": (lambda v: stlsq(_PSI, _TARGETS, 0.3, max_iter=v), ConfigError, 1, 2),
    "harmonic_oscillator_exact-L": (harmonic_oscillator_exact, ConfigError, 2, 6),
    "random_projection-D": (lambda v: random_projection(v, 2, seed=3).U, ShapeError, 1, 5),
    "random_projection-r": (lambda v: random_projection(5, v, seed=3).U, ShapeError, 1, 2),
    "prefix-N": (lambda v: edmd(_MATS.prefix(v)).matrix, SizeError, 1, 20),
    "convergence_sweep-benchmark_N": (
        lambda v: convergence_sweep(_ORBIT, lambda s: s[:, 0], [10, 20], v), SizeError, 2, 40),
    "dmd_error_sweep-benchmark_N": (lambda v: dmd_error_sweep(_FIELD, [10, 20], v),
                                    SizeError, 2, 40),
}


def _bits(value):
    """Every array's dtype, shape and bytes and every scalar's type and repr,
    through dataclasses, tuples and lists."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__, [_bits(getattr(value, f)) for f in value.__dataclass_fields__]
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("case", ["float", "bool", "string", "below-minimum"])
@pytest.mark.parametrize("call, error, minimum, valid", COUNTS.values(), ids=COUNTS)
def test_bad_count_raises_the_sites_error(call, error, minimum, valid, case):
    bad = {"float": 2.5, "bool": True, "string": "3", "below-minimum": minimum - 1}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(TaperdynError) as info:
            call(bad)
    assert info.type is error
    assert "must be an integer" in str(info.value)


@pytest.mark.parametrize("call, error, minimum, valid", COUNTS.values(), ids=COUNTS)
def test_numpy_integer_count_is_bit_identical(call, error, minimum, valid):
    expected = _bits(call(valid))
    for kind in (np.int64, np.int32, np.uint16):
        assert _bits(call(kind(valid))) == expected


@pytest.mark.parametrize("windows, message", [
    ([], "a sweep needs at least one window length"),
    ([10.7], "window N must be an integer >= "),  # the SINDy sweep's minimum is 3
    ([20, 41], "window N=41 exceeds benchmark_N=40"),
], ids=["none", "float", "above"])
def test_sweeps_refuse_windows_alike(windows, message):
    sweeps = [lambda: convergence_sweep(_ORBIT, lambda s: s[:, 0], windows, 40),
              lambda: dmd_error_sweep(_FIELD, windows, 40)]
    if max(windows, default=0) <= 40:  # the SINDy sweep has no benchmark window
        sweeps.append(lambda: sindy_error_sweep(windows, [1e-2]))
    for sweep in sweeps:
        with pytest.raises(SizeError, match=message):
            sweep()
