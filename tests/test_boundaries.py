"""Boundary table: every real parameter of the public API, the scale of the
data that autocorrelations and diffusion_basis square, and every float option
of the CLI, at the edges of the float range.  Each case either raises the
parameter's documented TaperdynError class (through the CLI, its exit code,
with no output directory) or returns a finite result.  Any warning fails the
case."""
import math
import warnings

import numpy as np
import pytest

from taperdyn import (
    ConfigError,
    DomainError,
    RngStream,
    TaperdynError,
    Trajectory,
    autocorrelations,
    density,
    diffusion_basis,
    driven_logistic,
    harmonic_series,
    ou_sample,
    peak_report,
    standard_map,
    stlsq,
)
from taperdyn import cli
from taperdyn.errors import as_length, as_real
from taperdyn.systems import second_difference
from taperdyn.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION

from conftest import synth_monthly_csv

EDGES = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-320, 1e308]
# library calls only, since the CLI parses text; each must be refused by name
NOT_REALS = [True, "1.5"]

_n = np.arange(200)
_SERIES = 1.0 + 0.5 * np.cos(2.0 * _n)  # no zeros, so a scale of inf stays inf
_POINTS = RngStream(3, "boundaries").generator().standard_normal((200, 2))
_PSI = np.column_stack([np.ones(40), np.linspace(-1.0, 1.0, 40)])
_TARGETS = 0.5 + 2.0 * _PSI[:, 1]
_DENSITY = density(autocorrelations(np.exp(1j * 2.0 * _n), 8))


def _ou(theta_rate=1.0, diffusion=1.0, x0=0.0, dt=0.1):
    return ou_sample(theta_rate, diffusion, x0, dt, 50, rng=RngStream(2, "boundaries"))


def _harmonic(amplitude=2.0, phase=0.7, dt=0.01, noise_sigma=1e-3):
    return harmonic_series(amplitude, phase, dt, 50, noise_sigma, RngStream(4, "boundaries"))


def _scaled(data, scale):
    with np.errstate(over="ignore"):  # an overflowing scale makes an infinite input
        return scale * data


# "function-parameter": (call, documented error classes, extra values beyond EDGES)
SCALARS = {
    "Trajectory-dt": (lambda v: Trajectory(np.zeros((3, 1)), dt=v), ConfigError, []),
    "driven_logistic-eps": (lambda v: driven_logistic(v, 0.25, 0.0, 50), ConfigError, []),
    "driven_logistic-x0": (lambda v: driven_logistic(0.01, v, 0.0, 50), ConfigError, []),
    "driven_logistic-theta0": (lambda v: driven_logistic(0.01, 0.25, v, 50), ConfigError, []),
    "standard_map-lambda": (lambda v: standard_map(v, 1.0, 0.5, 50), ConfigError, []),
    "harmonic_series-amplitude": (lambda v: _harmonic(amplitude=v),
                                  (ConfigError, DomainError), []),
    "harmonic_series-phase": (lambda v: _harmonic(phase=v), ConfigError, []),
    "harmonic_series-dt": (lambda v: _harmonic(dt=v), ConfigError, []),
    "harmonic_series-noise_sigma": (lambda v: _harmonic(noise_sigma=v),
                                    (ConfigError, DomainError), []),
    "second_difference-dt": (lambda v: second_difference(np.arange(6.0), v), ConfigError,
                             [1e-200, 1e-160, 1e200]),
    "ou_sample-theta_rate": (lambda v: _ou(theta_rate=v), ConfigError, []),
    "ou_sample-diffusion": (lambda v: _ou(diffusion=v), ConfigError, []),
    "ou_sample-x0": (lambda v: _ou(x0=v), ConfigError, []),
    "ou_sample-dt": (lambda v: _ou(dt=v), ConfigError, []),
    "stlsq-eta": (lambda v: stlsq(_PSI, _TARGETS, v), ConfigError, []),
    "peak_report-min_prominence": (lambda v: peak_report(_DENSITY, 64, v), DomainError, []),
    "diffusion_basis-bandwidth": (lambda v: diffusion_basis(_POINTS, 4, bandwidth=v),
                                  ConfigError, [1e-154]),
}

# the scale of the data, not a parameter: no bool or string values
SCALES = {
    "autocorrelations-series": (lambda v: autocorrelations(_scaled(_SERIES, v), 5),
                                DomainError, [1e200]),
    "autocorrelations-series-plain": (
        lambda v: autocorrelations(_scaled(_SERIES, v), 5, weighted=False), DomainError, [1e200]),
    # a scale of 0 or 1e-320 leaves every distance zero: the auto bandwidth's ConfigError
    "diffusion_basis-points": (lambda v: diffusion_basis(_scaled(_POINTS, v), 4),
                               (DomainError, ConfigError), [1e200]),
}


def _cases(table, not_reals):
    for name, (call, error, extra) in table.items():
        for value in EDGES + extra + not_reals:
            named = name.split("-")[1] if value in not_reals else None
            yield pytest.param(call, error, value, named, id=f"{name}-{value!r}")


def _finite(value) -> bool:
    """True when every number in value is finite, through arrays, dataclasses,
    tuples and lists."""
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return all(_finite(getattr(value, f)) for f in value.__dataclass_fields__)
    if isinstance(value, (np.ndarray, float, complex, np.number)):
        return bool(np.isfinite(value).all())
    return True


@pytest.mark.parametrize("call, error, value, named",
                         [*_cases(SCALARS, NOT_REALS), *_cases(SCALES, [])])
def test_library_edge_raises_its_error_or_is_finite(call, error, value, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except TaperdynError as exc:
            assert isinstance(exc, error), f"{type(exc).__name__}: {exc}"
            assert named is None or named in str(exc), str(exc)
            return
    assert named is None, f"{value!r} was accepted"
    assert _finite(result)


# the documented exit codes of the float options; any other float option
# must exit 0 or with ConfigError's code
CLI_EXITS = {
    # lam = 0 is the integrable limit, whose Fourier Gram matrix is singular
    ("mpedmd", "lam"): {EXIT_CONFIG, EXIT_NUMERICAL},
    ("sindy", "amplitude"): {EXIT_CONFIG, EXIT_VALIDATION},  # DomainError: the stencil overflows
    ("sindy", "noise_sigma"): {EXIT_CONFIG, EXIT_VALIDATION},
    ("specmeas", "prominence"): {EXIT_VALIDATION},
}
CLI_BASE = {
    "average": ["--N", "200"],
    "edmd": ["--N", "200"],
    "mpedmd": ["--N", "200"],
    "sindy": ["--N", "200"],
    "specmeas": ["--input", "{dir}/series.csv", "--M", "10", "--grid", "64"],
    "forecast": ["--input", "{dir}/index.csv", "--valid-end", "2004-12", "--M", "6",
                 "--k-max", "3", "--series-lead", "1"],
}

# every option whose default is a float, so a new one is covered here at once
FLOAT_OPTIONS = [(sub, spec.name) for sub, specs in cli.OPTIONS.items()
                 for spec in specs if isinstance(spec.default, float)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "series.csv").write_text("".join(f"{x:.17g}\n" for x in _SERIES))
    synth_monthly_csv(folder / "index.csv", n_years=86)
    return folder


@pytest.mark.parametrize("sub, name, value", [
    pytest.param(sub, name, value, id=f"{sub}-{name}-{value}")
    for sub, name in FLOAT_OPTIONS
    for value in ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308"]])
def test_cli_edge_exits_with_its_code_or_writes_finite_csvs(
        sub, name, value, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [sub, *(a.format(dir=inputs) for a in CLI_BASE[sub]),
            f"--{name.replace('_', '-')}={value}", "--outdir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(argv)
    err = capsys.readouterr().err
    if code != EXIT_OK:
        assert code in CLI_EXITS.get((sub, name), {EXIT_CONFIG}), err
        assert not out.exists()
        return
    for path in out.glob("*.csv"):
        header, *rows = path.read_text().splitlines()
        for column, cells in zip(header.split(","), zip(*(row.split(",") for row in rows))):
            # a forecast's truth past the validation range is NaN by design (forecast.skill)
            assert column == "truth" or np.isfinite([float(c) for c in cells]).all(), \
                (path.name, column)


# the table accepts a finite result too; these must be refused
@pytest.mark.parametrize("bandwidth", [1e-200, 1e-320, 1e-160, 1e300, True])
def test_bandwidth_without_a_finite_square_is_refused(bandwidth, inputs, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="bandwidth must be finite and > 0"):
            diffusion_basis(_POINTS, 4, bandwidth=bandwidth)
        if bandwidth is True:
            return
        out = tmp_path / "out"
        argv = ["forecast", *(a.format(dir=inputs) for a in CLI_BASE["forecast"]),
                f"--bandwidth={bandwidth!r}", "--outdir", str(out)]
        assert cli.run(argv) == EXIT_CONFIG
    assert "kind=ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_real_check_takes_numpy_reals_and_refuses_the_rest():
    for value in (0.25, 1, np.float64(0.25), np.float32(0.25), np.int64(1)):
        checked = as_real(value, "x", ConfigError)
        assert type(checked) is float and checked == value
    for value in (True, np.bool_(False), "0.25", 1 + 0j, None, 10**400, math.nan):
        with pytest.raises(ConfigError, match=r"x must be finite, got "):
            as_real(value, "x", ConfigError)
    assert as_real(0.0, "x", ConfigError, 0.0) == 0.0
    with pytest.raises(ConfigError, match="x must be finite and > 0, got 0.0"):
        as_real(0.0, "x", ConfigError, 0.0, strict=True)
    # the extremes of a length scale: h^2 and 1/h^2 both finite and nonzero
    assert as_length(1e-154, "h", ConfigError) == 1e-154
    assert as_length(1e154, "h", ConfigError) == 1e154
    for value in (1e-155, 1e155):
        with pytest.raises(ConfigError, match="h must be finite and > 0 with a finite, nonzero"):
            as_length(value, "h", ConfigError)


def test_numpy_real_arguments_are_bit_identical():
    calls = [lambda c: ou_sample(c(0.5), c(0.7), c(0.2), c(0.1), 40,
                                 rng=RngStream(6, "boundaries")).states,
             lambda c: driven_logistic(c(0.1), c(0.25), c(0.3), 40).states,
             lambda c: _harmonic(c(2.0), c(0.7), c(0.01), c(1e-3)).second_derivative,
             lambda c: stlsq(_PSI, _TARGETS, c(0.3)).coefficients,
             lambda c: diffusion_basis(_POINTS, 4, bandwidth=c(0.8)).phi]
    for call in calls:
        np.testing.assert_array_equal(call(np.float64), call(float), strict=True)
