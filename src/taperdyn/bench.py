"""Desk-scale benchmark suite comparing taper-weighted against plain
estimation across every method module.

Each criterion is a self-contained seeded experiment returning a
BenchResult; the CLI `bench` subcommand and the acceptance test suite both
run these.  Runtime budgets are part of each criterion.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, sindy, specmeas
from .averages import convergence_sweep
from .dmd import dmd as dmd_fit
from .dmd import dmd_error_sweep, project, random_projection
from .edmd import (
    MpedmdResult,
    build_dictionary_matrices,
    fourier_dictionary,
    identity_dictionary,
    monomial_dictionary,
)
from .edmd import edmd as edmd_fit
from .edmd import mpedmd as mpedmd_fit
from .forecast import ForecastResult, diffusion_basis, nino34_compare, shift_matrix
from .forecast import forecast as forecast_point
from .systems import (
    RngStream,
    driven_logistic,
    harmonic_series,
    ou_sample,
    quasiperiodic_field,
    standard_map_batch,
)
from .weights import eval_bump, make_weight_vector

__all__ = ["BenchResult", "CRITERIA", "run_criterion", "run_suite", "nino34_data_path"]


@dataclass
class BenchResult:
    """One criterion's outcome.  seconds is wall time, the quantity its budget
    gates; cpu_seconds is this process's CPU time over the same span (every
    thread's, none of a subprocess's), which shows whether a slow run was
    starved of CPU or did more work."""

    name: str
    passed: bool
    skipped: bool
    seconds: float
    budget: float
    details: str
    cpu_seconds: float

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")

    def line(self) -> str:
        return (f"{self.status} {self.name} ({self.seconds:.1f}s, "
                f"cpu {self.cpu_seconds:.1f}s, budget {self.budget:g}s): {self.details}")


def _clock() -> tuple[float, float]:
    """Wall and CPU time at a criterion's start, for _result."""
    return time.perf_counter(), time.process_time()


def _result(name, budget, t0, ok, details, skipped=False):
    seconds = time.perf_counter() - t0[0]
    passed = bool(ok) and seconds <= budget and not skipped
    return BenchResult(name=name, passed=passed, skipped=skipped, seconds=seconds,
                       budget=budget, details=details,
                       cpu_seconds=time.process_time() - t0[1])


def _logistic_errors(eps: float, N_values, benchmark_N: int = 1_000_000):
    orbit = driven_logistic(eps, 0.25, 0.0, benchmark_N)
    rows = convergence_sweep(orbit, lambda s: s[:, 0], N_values, benchmark_N)
    return {row.N: (row.err_unweighted, row.err_weighted) for row in rows}


def criterion_1() -> BenchResult:
    """Periodic regime: tapered average hits machine precision, plain is O(1/N)."""
    t0 = _clock()
    errs = _logistic_errors(0.0, [100_000])
    eu, ew = errs[100_000]
    ok = ew < 1e-12 and 1e-8 <= eu <= 1e-2
    return _result("1 weighted-average-periodic", 5.0, t0, ok,
                   f"weighted {ew:.2e} (<1e-12), unweighted {eu:.2e} (in [1e-8,1e-2])")


def criterion_2() -> BenchResult:
    """Quasiperiodic regime: tapered average wins by >= 1e4."""
    t0 = _clock()
    errs = _logistic_errors(0.01, [100_000])
    eu, ew = errs[100_000]
    ok = ew < 1e-10 and eu >= 1e4 * max(ew, 1e-300)
    return _result("2 weighted-average-quasiperiodic", 5.0, t0, ok,
                   f"weighted {ew:.2e} (<1e-10), unweighted {eu:.2e} (>=1e4x)")


def criterion_3() -> BenchResult:
    """Chaotic regime: both averages converge at nearly the same rate."""
    t0 = _clock()
    errs = _logistic_errors(0.1, [1_000, 10_000, 100_000])
    ratios = {N: max(eu / ew, ew / eu) for N, (eu, ew) in errs.items()}
    ok = all(r <= 10.0 for r in ratios.values())
    det = ", ".join(f"N={N}: x{r:.2f}" for N, r in sorted(ratios.items()))
    return _result("3 weighted-average-chaotic-parity", 5.0, t0, ok,
                   det + " (all within x10)")


def criterion_4() -> BenchResult:
    """Exact linear data: weighting cannot change the recovered generator."""
    t0 = _clock()
    gen = RngStream(11, "bench/dmd-exact").generator()
    angle = 0.7
    block = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                      [math.sin(angle), math.cos(angle), 0.0],
                      [0.0, 0.0, 0.95]])
    S = gen.standard_normal((3, 3)) + 3.0 * np.eye(3)
    M = S @ block @ np.linalg.inv(S)
    worst = 0.0
    for N in (10, 50):
        states = np.empty((N + 1, 3))
        states[0] = gen.standard_normal(3)
        for n in range(N):
            states[n + 1] = M @ states[n]
        for weights in (None, make_weight_vector(N, eval_bump)):
            fit = dmd_fit(states[:-1], states[1:], weights)
            err = np.linalg.norm(fit.matrix - M) / np.linalg.norm(M)
            worst = max(worst, float(err))
    ok = worst < 1e-9
    return _result("4 dmd-exact-recovery", 1.0, t0, ok,
                   f"worst relative error {worst:.2e} (<1e-9)")


def criterion_5() -> BenchResult:
    """Projected quasiperiodic field: tapered propagator error drops >= 100x."""
    t0 = _clock()
    traj = quasiperiodic_field(D=20, N=1001, seed=123)
    basis = random_projection(20, 11, seed=7)
    proj = project(traj, basis)
    rows = dmd_error_sweep(proj, list(range(10, 501, 10)), 1000)
    last = rows[-1]
    ok = (last.N == 500
          and last.relerr_matrix_w * 100.0 <= last.relerr_matrix_unw)
    return _result("5 wtdmd-projected-sweep", 30.0, t0, ok,
                   f"N=500: unweighted {last.relerr_matrix_unw:.2e}, "
                   f"weighted {last.relerr_matrix_w:.2e} "
                   f"(x{last.relerr_matrix_unw / max(last.relerr_matrix_w, 1e-300):.0f})")


def _standard_map_edmd_errors(lambda_mode, n_ic: int, N_small: int,
                              N_bench: int, seed: int):
    """Mean relative K-matrix errors over a batch of torus initial conditions."""
    stream = RngStream(seed, "bench/edmd")
    gen = stream.generator()
    p0 = gen.uniform(0.0, 2.0 * math.pi, n_ic)
    th0 = gen.uniform(0.0, 2.0 * math.pi, n_ic)
    orbits = standard_map_batch(lambda_mode, p0, th0, N_bench + 1,
                                rng=stream.split("kicks"))
    fdict = fourier_dictionary(1, dim=2)
    w_small = make_weight_vector(N_small, eval_bump)
    w_bench = make_weight_vector(N_bench, eval_bump)
    errs_u, errs_w = [], []
    for i in range(n_ic):
        mats = build_dictionary_matrices(orbits[:, i, :], fdict)
        K_bench = edmd_fit(mats, w_bench).matrix
        small = mats.prefix(N_small)
        K_u = edmd_fit(small, None).matrix
        K_w = edmd_fit(small, w_small).matrix
        scale = np.linalg.norm(K_bench)
        errs_u.append(np.linalg.norm(K_u - K_bench) / scale)
        errs_w.append(np.linalg.norm(K_w - K_bench) / scale)
    return float(np.mean(errs_u)), float(np.mean(errs_w))


def criterion_6() -> BenchResult:
    """Quasiperiodic standard map: tapered Koopman fit >= 10x more accurate."""
    t0 = _clock()
    eu, ew = _standard_map_edmd_errors(0.25, n_ic=20, N_small=10_000,
                                       N_bench=1_000_000, seed=42)
    ok = ew * 10.0 <= eu
    return _result("6 wtedmd-quasiperiodic", 60.0, t0, ok,
                   f"mean unweighted {eu:.2e}, mean weighted {ew:.2e} "
                   f"(x{eu / max(ew, 1e-300):.1f}, need >=10)")


def criterion_7() -> BenchResult:
    """Chaotic and stochastic regimes: both fits converge at the same rate."""
    t0 = _clock()
    eu_c, ew_c = _standard_map_edmd_errors(5.0, n_ic=8, N_small=100_000,
                                           N_bench=500_000, seed=43)
    eu_s, ew_s = _standard_map_edmd_errors("uniform_resample", n_ic=8,
                                           N_small=100_000, N_bench=500_000,
                                           seed=44)
    r_c = max(eu_c / ew_c, ew_c / eu_c)
    r_s = max(eu_s / ew_s, ew_s / eu_s)
    ok = r_c <= 3.0 and r_s <= 3.0
    return _result("7 wtedmd-chaotic-stochastic-parity", 60.0, t0, ok,
                   f"lambda=5: x{r_c:.2f}; resampled: x{r_s:.2f} (both within x3)")


def criterion_8() -> BenchResult:
    """Harmonic surrogate: sparse recovery of x'' = -x, with and without noise."""
    t0 = _clock()
    amplitude, k = 2.0, 0.01

    def fit_errors(N, sigma, rng):
        rows = sindy.sindy_error_sweep([N], [1e-2], amplitude=amplitude, dt=k,
                                       noise_sigma=sigma, rng=rng)
        return {row.method: row.coeff_error for row in rows}

    clean = fit_errors(10_000, 0.0, None)
    ok_clean = clean["wtSINDy"] < 1e-3 and clean["SINDy"] < 1e-3
    # noise level set so the finite-difference derivative has amplitude SNR 10:
    # FD noise std = sqrt(6) sigma / k^2 against signal std A / sqrt(2)
    sigma = amplitude * k**2 / (10.0 * math.sqrt(12.0))
    noisy = fit_errors(5_000, sigma, RngStream(17, "bench/sindy"))
    ok_order = (noisy["wtSINDy"] <= noisy["SINDy"]
                and noisy["LS"] >= 5.0 * noisy["SINDy"]
                and noisy["LS"] >= 5.0 * noisy["wtSINDy"])
    ok = ok_clean and ok_order
    return _result(
        "8 wtsindy-harmonic-recovery", 10.0, t0, ok,
        f"noiseless wtSINDy {clean['wtSINDy']:.2e} (<1e-3); noisy: "
        f"LS {noisy['LS']:.2e}, SINDy {noisy['SINDy']:.2e}, "
        f"wtSINDy {noisy['wtSINDy']:.2e}")


def criterion_9() -> BenchResult:
    """Rotation spectral measure: exact lag coefficients and a Dirac peak."""
    t0 = _clock()
    alpha = (math.sqrt(2.0) * 2.0 * math.pi) % (2.0 * math.pi)
    N, M = 100_000, 100
    theta = (np.arange(N) * alpha) % (2.0 * math.pi)
    series = np.exp(1j * theta)
    acs = specmeas.autocorrelations(series, M, weighted=True)
    ns = np.arange(-M, M + 1)
    exact = np.exp(-1j * ns * alpha) / (2.0 * math.pi)
    worst = float(np.max(np.abs(acs.values - exact)))
    dens = specmeas.density(acs)
    grid = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    vals = dens.eval_grid(grid)
    step = grid[1] - grid[0]
    target = alpha if alpha < math.pi else alpha - 2.0 * math.pi
    argmax_err = abs(float(grid[np.argmax(vals)]) - target)
    integral = float(np.sum(vals) * step)
    int_err = abs(integral - dens.analytic_integral)
    ok = worst <= 1e-8 and argmax_err <= step * 1.0001 and int_err <= 1e-6
    return _result("9 spectral-measure-rotation", 10.0, t0, ok,
                   f"max lag error {worst:.2e} (<=1e-8), argmax off by "
                   f"{argmax_err / step:.2f} steps (<=1), integral error {int_err:.2e}")


def criterion_10() -> BenchResult:
    """Measure-preserving fit: rotation eigenvalues and exact unitarity."""
    t0 = _clock()
    alpha = (math.sqrt(2.0) * 2.0 * math.pi) % (2.0 * math.pi)
    N = 10_000
    theta = (0.3 + np.arange(N + 1) * alpha) % (2.0 * math.pi)
    fdict = fourier_dictionary(1, dim=1)
    mats = build_dictionary_matrices(theta[:, None], fdict)
    res = mpedmd_fit(mats, make_weight_vector(N, eval_bump))
    expected = np.array([np.exp(-1j * alpha), 1.0, np.exp(1j * alpha)])
    got = res.eigenvalues[np.argsort(np.angle(res.eigenvalues))]
    expected = expected[np.argsort(np.angle(expected))]
    eig_err = float(np.max(np.abs(got - expected)))
    resids = [_unitarity_residual(res)]
    # a second, aperiodic dataset: damped-rotation states with identity dictionary
    gen = RngStream(5, "bench/mpedmd").generator()
    states = gen.standard_normal((400, 3)) @ np.diag([1.0, 0.6, 0.3])
    mats2 = build_dictionary_matrices(states, identity_dictionary(3))
    res2 = mpedmd_fit(mats2, make_weight_vector(399, eval_bump))
    resids.append(_unitarity_residual(res2))
    circle_dev = float(np.max(np.abs(np.abs(res.eigenvalues) - 1.0)))
    ok = eig_err <= 1e-6 and max(resids) < 1e-9 and circle_dev <= 1e-10
    return _result("10 mpedmd-structure", 10.0, t0, ok,
                   f"eigenvalue error {eig_err:.2e} (<=1e-6), unitarity residual "
                   f"{max(resids):.2e} (<1e-9), unit-circle deviation {circle_dev:.2e}")


def _unitarity_residual(res: MpedmdResult) -> float:
    K, G = res.matrix, res.gram
    return float(np.linalg.norm(K.conj().T @ G @ K - G) / np.linalg.norm(G))


def criterion_11() -> BenchResult:
    """Conditional-mean forecasts of the OU process track x0 exp(-k tau)."""
    t0 = _clock()
    theta_rate, diffusion, tau = 1.0, math.sqrt(2.0), 0.1
    n_train, n_starts, k_max = 20_000, 120, 20
    traj = ou_sample(theta_rate, diffusion, x0=0.0, dt=tau,
                     N=n_train + n_starts + 1, substeps=25,
                     rng=RngStream(2024, "bench/ou"))
    path = traj.states[:, 0]
    train = path[:n_train]
    basis = diffusion_basis(train[:, None], M=10,
                               rng=RngStream(2024, "bench/ou-bw").generator())
    shift = shift_matrix(basis, None)
    x0s = path[n_train:n_train + n_starts]
    preds, _ = forecast_point(basis, shift, x0s[:, None], k_max, train)
    worst = 0.0
    for k in range(1, k_max + 1):
        truth = x0s * math.exp(-theta_rate * k * tau)
        rel = np.linalg.norm(preds[:, k] - truth) / np.linalg.norm(truth)
        worst = max(worst, float(rel))
    ok = worst <= 0.10
    return _result("11 diffusion-forecast-ou", 120.0, t0, ok,
                   f"worst per-lead relative error over k*tau<=2: {worst:.3f} (<=0.10), "
                   f"{n_starts} validation starts")


def nino34_data_path() -> Path | None:
    """Location of the optional monthly index CSV, if the user supplied one."""
    env = os.environ.get("TAPERDYN_NINO34")
    candidates = [Path(env)] if env else []
    candidates.append(Path("data") / "nino34.csv")
    for p in candidates:
        if p.exists():
            return p
    return None


def criterion_12(csv_path=None) -> BenchResult:
    """Directional checks of the monthly-index forecast rerun (needs user data)."""
    t0 = _clock()
    path = Path(csv_path) if csv_path else nino34_data_path()
    if path is None or not path.exists():
        return _result(
            "12 nino34-forecast", 60.0, t0, False,
            "skipped: no index CSV found (set TAPERDYN_NINO34 or place "
            "data/nino34.csv; header year,month,value)", skipped=True)
    res_u, res_w, _ = nino34_compare(path, k_max=16)
    clim = res_u.climatology
    reach_u = _first_lead_at_climatology(res_u, clim)
    reach_w = _first_lead_at_climatology(res_w, clim)
    c16_u = res_u.correlation[15]
    c16_w = res_w.correlation[15]
    ok = (reach_u is not None and reach_u <= 7
          and reach_w is not None and reach_w <= 7
          and np.isfinite(c16_u) and np.isfinite(c16_w) and c16_w >= c16_u)
    return _result("12 nino34-forecast", 60.0, t0, ok,
                   f"RMSE reaches climatology at lead {reach_u} (unw) / {reach_w} (wt) "
                   f"(<=7); lead-16 correlation {c16_w:.3f} (wt) >= {c16_u:.3f} (unw)")


def _first_lead_at_climatology(res: ForecastResult, clim: float):
    for lead, rmse in zip(res.leads, res.rmse):
        if np.isfinite(rmse) and rmse >= clim:
            return int(lead)
    return None


def _cli_env() -> dict:
    """The environment for a ``python -m taperdyn.cli`` child: this package's
    parent directory leads PYTHONPATH, so the child imports the same taperdyn
    whether or not it is installed."""
    env = dict(os.environ)
    parent = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (parent, env.get("PYTHONPATH")) if p)
    return env


def criterion_13() -> BenchResult:
    """Property spot-checks and byte-identical rerun of a CLI pipeline."""
    t0 = _clock()
    checks: list[tuple[str, bool]] = []

    for N in (2, 3, 17, 1000):
        wv = make_weight_vector(N, eval_bump)
        checks.append((f"normalization N={N}",
                       abs(wv.normalized.sum() - 1.0) <= 1e-12))
        if N >= 3:
            inner = wv.normalized[1:]
            checks.append((f"palindrome N={N}",
                           bool(np.allclose(inner, inner[::-1], rtol=0, atol=1e-15))))

    gen = RngStream(99, "bench/pinv").generator()
    ok_pinv = True
    for _ in range(10):
        m, n = gen.integers(2, 7), gen.integers(2, 7)
        A = gen.standard_normal((int(n), int(m)))
        B = gen.standard_normal((int(n), 3))
        K = linalg.pinv_lstsq(A, B).matrix
        if m <= n:  # full column rank almost surely: normal equations apply
            K_ref = np.linalg.solve(A.T @ A, A.T @ B)
            ok_pinv &= bool(np.allclose(K, K_ref, rtol=1e-8, atol=1e-10))
    checks.append(("pinv normal-equations oracle", ok_pinv))

    data = harmonic_series(2.0, 0.7, 0.01, 400, noise_sigma=1e-5,
                           rng=RngStream(4, "bench/stlsq"))
    Psi = monomial_dictionary(5, dim=1)(
        data.interior_positions[:, None]).real
    model = sindy.stlsq(Psi, data.second_derivative, eta=1e-2,
                        weights=make_weight_vector(400, eval_bump))
    refit = sindy.stlsq(Psi, data.second_derivative, eta=1e-2,
                        weights=make_weight_vector(400, eval_bump))
    checks.append(("stlsq deterministic fixed point",
                   bool(np.array_equal(model.active_mask, refit.active_mask)
                        and np.allclose(model.coefficients, refit.coefficients,
                                        rtol=0, atol=0))))
    scaled = sindy.stlsq(Psi, 10.0 * data.second_derivative, eta=1e-1,
                         weights=make_weight_vector(400, eval_bump))
    checks.append(("stlsq scaling equivariance",
                   bool(np.allclose(scaled.coefficients,
                                    10.0 * model.coefficients,
                                    rtol=1e-10, atol=1e-12))))

    gen2 = RngStream(5, "bench/acf").generator()
    series = np.exp(1j * gen2.uniform(0, 2 * math.pi, 500))
    acs = specmeas.autocorrelations(series, 20)
    herm = all(acs.values[acs.M - n] == np.conj(acs.values[acs.M + n])
               for n in range(acs.M + 1))
    checks.append(("autocorrelation Hermitian symmetry", herm))

    ou = ou_sample(1.0, math.sqrt(2.0), 0.0, 0.1, 2_000, substeps=5,
                   rng=RngStream(6, "bench/basis"))
    basis = diffusion_basis(ou.states, M=6)
    gram = basis.phi.T @ basis.phi / basis.n_train
    checks.append(("basis orthonormality residual < 1e-6",
                   float(np.max(np.abs(gram - np.eye(6)))) < 1e-6))

    import subprocess
    import sys
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for sub in ("a", "b"):
            outdir = Path(tmp) / sub
            cmd = [sys.executable, "-m", "taperdyn.cli", "average", "--eps", "0.01",
                   "--N", "2000", "--sweep", "--sweep-n", "100,400,1600",
                   "--seed", "9", "--outdir", str(outdir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=_cli_env())
            if proc.returncode != 0:
                checks.append((f"cli run {sub} exit 0", False))
                outs.append(b"")
                continue
            outs.append((outdir / "average_sweep.csv").read_bytes())
        checks.append(("pipeline reruns byte-identical",
                       len(outs) == 2 and outs[0] == outs[1] and outs[0] != b""))

    failed = [name for name, good in checks if not good]
    ok = not failed
    det = f"{len(checks)} properties" + ("" if ok else f"; failed: {failed}")
    return _result("13 property-suite", 30.0, t0, ok, det)


CRITERIA = {
    "1": criterion_1, "2": criterion_2, "3": criterion_3, "4": criterion_4,
    "5": criterion_5, "6": criterion_6, "7": criterion_7, "8": criterion_8,
    "9": criterion_9, "10": criterion_10, "11": criterion_11,
    "12": criterion_12, "13": criterion_13,
}


def run_criterion(key: str) -> BenchResult:
    return CRITERIA[key]()


def run_suite(keys=None, echo=print, nino34_csv=None) -> list[BenchResult]:
    """Run the selected (default: all) criteria, printing one line each;
    nino34_csv is criterion 12's index CSV (None: nino34_data_path()).

    Raises:
        IngestError: nino34_csv names a file that does not exist; checked
            before any criterion runs.
    """
    from .errors import IngestError

    if nino34_csv is not None and not Path(nino34_csv).exists():
        raise IngestError(f"file not found: {nino34_csv}")
    results = []
    for key in keys or sorted(CRITERIA, key=int):
        res = criterion_12(nino34_csv) if key == "12" else run_criterion(key)
        results.append(res)
        if echo:
            echo(res.line())
    return results
