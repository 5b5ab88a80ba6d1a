"""Properties shared across estimator families: a uniform taper reproduces the
plain estimate, and no fitter changes its caller's arrays or makes them
read-only."""
import numpy as np
import pytest

from taperdyn import (
    DictionaryMatrices,
    Trajectory,
    WeightVector,
    autocorrelations,
    birkhoff_average,
    build_dictionary_matrices,
    convergence_sweep,
    delay_embed,
    diffusion_basis,
    dmd,
    dmd_error_sweep,
    edmd,
    eval_bump,
    forecast,
    fourier_dictionary,
    make_weight_vector,
    mpedmd,
    pinv_lstsq,
    shift_matrix,
    stlsq,
    uniform_taper,
)


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
