"""The benchmark's workloads.

Each workload has three phases.  ``prepare`` draws every input from the
workload seed (initial conditions, random streams, files).  ``execute`` is
the timed phase: it hands those inputs to taperdyn's public functions and to
``taperdyn.cli.run``, and keeps what they return.  ``check`` is untimed and
scores the outputs against each gate's stated tolerance.

Why these three workloads:

* ``koopman-long`` stresses the standard-map generator and tall N x 9 complex
  least squares (EDMD, mpEDMD on long windows); it bypasses the CLI, I/O
  and the diffusion-forecast kernel.
* ``diffusion-ou`` stresses the dense kernel, Sinkhorn balancing and the
  ``eigsh`` branch of ``forecast.diffusion_basis`` (n > 4096); it barely
  touches ``linalg``, the standard map or the dictionaries.
* ``sweeps-cli`` runs many short windows: per-call overhead, many tiny
  solves, per-lag tapers and the CLI with its CSV output.  It bypasses the
  tall-solve and large-kernel paths that the other two stress.
"""
from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

SIZES = ("full", "smoke")
TWO_PI = 2.0 * math.pi
ROTATION = (math.sqrt(2.0) * TWO_PI) % TWO_PI


def api(module: str):
    """A taperdyn submodule, looked up at call time so the traced run's
    wrappers are the functions called."""
    return importlib.import_module(f"taperdyn.{module}")


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str
    failed_ops: int  # operations counted as failed when the gate misses


class Ops:
    """Count of operations attempted: one public fit, forecast, sweep or CLI call."""

    def __init__(self):
        self.attempted = 0

    def add(self, n: int = 1) -> None:
        self.attempted += n


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if isinstance(a, bytes):
            h.update(a)
        else:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _relerr(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# koopman-long

KOOPMAN_SIZES = {
    "full": {"steps": 100_000, "window": 10_000, "quasi": 4, "resampled": 2},
    "smoke": {"steps": 20_000, "window": 2_000, "quasi": 2, "resampled": 2},
}


# Quasiperiodic orbits start at theta = pi with p drawn from ISLAND_P: they
# librate inside the main resonance island of the lambda = 0.25 map.  Over
# p0 in [0.40, 0.90] at theta0 = pi, the tapered fit lost its gain (plain /
# tapered error below 1e3) only near the secondary resonances at p0 = 0.39,
# 0.60, 0.715, 0.79, 0.84 and 0.87 and at the separatrix (p0 = 1); ISLAND_P
# lies between them.  These wide librations also keep the 3x3 Fourier Gram
# matrix well conditioned (min/max eigenvalue ratio >= 5e-10).  Drawn
# uniformly on the torus, about 5% of orbits fall below mpEDMD's 1e-12 limit,
# and mpEDMD then raises ConditioningError, as documented.
ISLAND_P = (0.42, 0.58)


def island_ic(rng, n: int) -> np.ndarray:
    return np.array([rng.uniform(*ISLAND_P, n), np.full(n, math.pi)])


def koopman_prepare(seed: int, size: str, workdir: Path) -> dict:
    cfg = KOOPMAN_SIZES[size]
    rng = np.random.default_rng([seed, 1])
    systems = api("systems")
    return {
        **cfg,
        "quasi_ic": island_ic(rng, cfg["quasi"]),
        "resampled_ic": rng.uniform(0.0, TWO_PI, (2, cfg["resampled"])),
        "kicks": systems.RngStream(seed, "perfbench/koopman-kicks"),
    }


def koopman_execute(inp: dict, ops: Ops) -> dict:
    systems, edmd, weights = api("systems"), api("edmd"), api("weights")
    steps, window = inp["steps"], inp["window"]
    fdict = edmd.fourier_dictionary(1, dim=2)
    bump = weights.exponential_bump()
    w_long = weights.make_weight_vector(steps, bump)
    w_window = weights.make_weight_vector(window, bump)
    out = {}
    for label, mode in (("quasi", 0.25), ("resampled", "uniform_resample")):
        p0, th0 = inp[f"{label}_ic"]
        orbits = systems.standard_map_batch(mode, p0, th0, steps + 1, rng=inp["kicks"])
        fits = []
        for i in range(orbits.shape[1]):
            mats = edmd.build_dictionary_matrices(orbits[:, i, :], fdict)
            reference = edmd.edmd(mats, w_long).matrix
            window_mats = mats.prefix(window)
            plain = edmd.edmd(window_mats, None).matrix
            tapered = edmd.edmd(window_mats, w_window).matrix
            mp = edmd.mpedmd(mats, w_long)
            ops.add(4)
            fits.append((reference, plain, tapered, mp.matrix, mp.eigenvalues))
        out[label] = fits
    return out


def _koopman_errors(fits):
    plain = np.mean([_relerr(f[1], f[0]) for f in fits])
    tapered = np.mean([_relerr(f[2], f[0]) for f in fits])
    return float(plain), float(tapered)


def koopman_check(inp: dict, out: dict) -> tuple[list[Gate], dict]:
    gates = []
    eu, ew = _koopman_errors(out["quasi"])
    gain = eu / max(ew, 1e-300)
    gates.append(Gate("tapered-gain", gain >= 10.0,
                      f"quasiperiodic mean plain {eu:.2e}, tapered {ew:.2e}: x{gain:.3g} (>= 10)",
                      3 * len(out["quasi"])))
    eu, ew = _koopman_errors(out["resampled"])
    parity = max(eu / ew, ew / eu)
    gates.append(Gate("resampled-parity", parity <= 3.0,
                      f"resampled mean plain {eu:.2e}, tapered {ew:.2e}: x{parity:.2f} (<= 3)",
                      3 * len(out["resampled"])))
    fits = out["quasi"] + out["resampled"]
    circle = max(float(np.max(np.abs(np.abs(f[4]) - 1.0))) for f in fits)
    gates.append(Gate("mpedmd-unit-circle", circle <= 1e-10,
                      f"max | |lambda| - 1 | = {circle:.2e} (<= 1e-10)", len(fits)))
    return gates, {}


def koopman_digest(inp: dict, out: dict) -> str:
    return digest(*(a for label in ("quasi", "resampled") for f in out[label] for a in f))


# ---------------------------------------------------------------------------
# diffusion-ou

OU_SIZES = {
    "full": {"n_train": 8_000, "M": 10, "starts": 120, "leads": 20},
    "smoke": {"n_train": 4_500, "M": 10, "starts": 40, "leads": 20},
}
OU_RATE, OU_DIFFUSION, OU_TAU, OU_SUBSTEPS = 1.0, math.sqrt(2.0), 0.1, 25


def ou_prepare(seed: int, size: str, workdir: Path) -> dict:
    cfg = OU_SIZES[size]
    systems = api("systems")
    rng = np.random.default_rng([seed, 2])
    # starts drawn from the stationary law N(0, diffusion^2 / (2 rate)) = N(0, 1)
    return {
        **cfg,
        "path_stream": systems.RngStream(seed, "perfbench/ou"),
        "bandwidth_rng": np.random.default_rng([seed, 3]),
        "starts_x0": rng.standard_normal(cfg["starts"]),
    }


def ou_execute(inp: dict, ops: Ops) -> dict:
    systems, forecast, weights = api("systems"), api("forecast"), api("weights")
    traj = systems.ou_sample(OU_RATE, OU_DIFFUSION, 0.0, OU_TAU, inp["n_train"],
                             substeps=OU_SUBSTEPS, rng=inp["path_stream"])
    train = traj.states[:, 0]
    basis = forecast.diffusion_basis(train[:, None], M=inp["M"], rng=inp["bandwidth_rng"])
    ops.add()
    out = {"basis": basis}
    for label, w in (("plain", None), ("tapered", weights.exponential_bump())):
        shift = forecast.shift_matrix(basis, w)
        ops.add()
        preds = np.empty((inp["starts"], inp["leads"] + 1))
        for i, x0 in enumerate(inp["starts_x0"]):
            preds[i], _ = forecast.forecast(basis, shift, np.array([x0]), inp["leads"], train)
        ops.add(inp["starts"])
        out[label] = (shift.matrix, preds)
    return out


def forecast_relerrs(x0s, preds) -> np.ndarray:
    """Relative error at each lead 1..k of forecasts against x0 exp(-k tau)."""
    leads = np.arange(1, preds.shape[1])
    truth = x0s[:, None] * np.exp(-OU_RATE * OU_TAU * leads)[None, :]
    return np.linalg.norm(preds[:, 1:] - truth, axis=0) / np.linalg.norm(truth, axis=0)


def ou_check(inp: dict, out: dict) -> tuple[list[Gate], dict]:
    basis = out["basis"]
    gram = basis.phi.T @ basis.phi / basis.n_train
    orth = float(np.max(np.abs(gram - np.eye(basis.M))))
    rel = forecast_relerrs(inp["starts_x0"], out["plain"][1])
    # The error grows with the lead: the training mean and decay rate carry
    # sampling errors of order 1/sqrt(n_train tau).  Over seeds 0-15 the worst
    # lead (k tau = 2) read 0.03-0.69, so it is reported, not gated; lead 1
    # read <= 0.023 and lead 10 (k tau = 1) <= 0.20.
    lead1, lead10 = rel[0], rel[9]
    gates = [
        Gate("basis-orthonormality", orth <= 1e-6, f"max |G - I| = {orth:.2e} (<= 1e-6)", 1),
        Gate("forecast", lead1 <= 0.10 and lead10 <= 0.5,
             f"relative error lead 1 {lead1:.4f} (<= 0.10), lead 10 {lead10:.4f} (<= 0.5), "
             f"worst lead {rel.max():.4f}", inp["starts"] + 1),
    ]
    tapered = forecast_relerrs(inp["starts_x0"], out["tapered"][1])
    return gates, {"forecast_relerr": float(rel.max()),
                   "forecast_relerr_tapered": float(tapered.max())}


def ou_digest(inp: dict, out: dict) -> str:
    b = out["basis"]
    return digest(b.phi, b.kernel_eigenvalues, b.scaling, *out["plain"], *out["tapered"])


# ---------------------------------------------------------------------------
# sweeps-cli

SWEEPS_SIZES = {
    "full": {"replicas": 2, "orbit": 200_000,
             "avg_windows": tuple(int(v) for v in np.geomspace(1_000, 100_000, 12)),
             "dmd_windows": tuple(range(10, 501, 10)), "dmd_bench": 1_000,
             "sindy_clean": 10_000, "sindy_noisy": 5_000,
             "acf_samples": 100_000, "acf_lags": 100, "rotation_fit": 10_000,
             "embed_samples": 2_000, "embed_lags": 3, "cli_series": 20_000, "cli_default": True},
    "smoke": {"replicas": 1, "orbit": 20_000, "avg_windows": (1_000, 3_000, 10_000),
              "dmd_windows": tuple(range(10, 501, 10)), "dmd_bench": 1_000,
              "sindy_clean": 2_000, "sindy_noisy": 2_000,
              "acf_samples": 10_000, "acf_lags": 50, "rotation_fit": 2_000,
              "embed_samples": 500, "embed_lags": 3, "cli_series": 2_000, "cli_default": False},
}
REGIMES = (("periodic", 0.0), ("quasiperiodic", 0.01), ("chaotic", 0.1))
SINDY_AMPLITUDE, SINDY_DT = 2.0, 0.01
SINDY_NOISE = SINDY_AMPLITUDE * SINDY_DT**2 / (10.0 * math.sqrt(12.0))  # amplitude SNR 10
SMOKE_CLI_ARGS = {"average": ["--N", "10000"], "dmd": ["--N", "300", "--sweep-n", "50,100,150"],
                  "edmd": ["--N", "2000"], "mpedmd": ["--N", "2000"], "sindy": ["--N", "2000"],
                  "specmeas": ["--M", "50", "--grid", "1024"]}


def _rotation(phase: float, n: int) -> np.ndarray:
    return (phase + np.arange(n) * ROTATION) % TWO_PI


def _write_series_csv(path: Path, values: np.ndarray) -> None:
    lines = ["re,im"] + [f"{v.real:.17g},{v.imag:.17g}" for v in values]
    path.write_text("\n".join(lines) + "\n")


def _sweeps_replica(cfg: dict, rng, seed: int, r: int) -> dict:
    systems = api("systems")
    field_seed, projection_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    phase = float(rng.uniform(0.0, TWO_PI))
    return {
        "logistic_ic": list(zip(rng.uniform(0.2, 0.3, len(REGIMES)),
                                rng.uniform(0.0, 1.0, len(REGIMES)))),
        "field_seed": field_seed,
        "projection_seed": projection_seed,
        "sindy_phase": float(rng.uniform(0.0, TWO_PI)),
        "sindy_noise": systems.RngStream(seed, f"perfbench/sindy/{r}"),
        "series": np.exp(1j * _rotation(phase, cfg["acf_samples"])),
        "rotation": _rotation(phase, cfg["rotation_fit"] + 1)[:, None],
    }


def sweeps_prepare(seed: int, size: str, workdir: Path) -> dict:
    cfg = SWEEPS_SIZES[size]
    rng = np.random.default_rng([seed, 4])
    replicas = [_sweeps_replica(cfg, rng, seed, r) for r in range(cfg["replicas"])]
    series_path = workdir / "rotation_series.csv"
    _write_series_csv(series_path, np.exp(1j * _rotation(float(rng.uniform(0.0, TWO_PI)),
                                                          cfg["cli_series"])))
    ic = island_ic(rng, 2)
    cli_args = {
        "average": ["--x0", repr(float(rng.uniform(0.2, 0.3))),
                    "--theta0", repr(float(rng.uniform(0.0, 1.0)))],
        "dmd": [],
        "edmd": ["--p0", repr(float(ic[0, 0])), "--theta0", repr(float(ic[1, 0]))],
        "mpedmd": ["--p0", repr(float(ic[0, 1])), "--theta0", repr(float(ic[1, 1]))],
        "sindy": ["--phase", repr(float(rng.uniform(0.0, TWO_PI)))],
        "specmeas": ["--input", str(series_path), "--format", "complex_csv"],
    }
    cli_seed = str(int(rng.integers(0, 2**31)))
    cli_runs = [[sub, *extra, *([] if cfg["cli_default"] else SMOKE_CLI_ARGS[sub]),
                 "--seed", cli_seed] for sub, extra in cli_args.items()]
    return {**cfg, "replicas": replicas, "cli_runs": cli_runs, "workdir": workdir,
            "embed_stream": api("systems").RngStream(seed, "perfbench/embed")}


def _sweeps_replica_execute(cfg: dict, rep: dict, ops: Ops) -> dict:
    systems, weights, averages = api("systems"), api("weights"), api("averages")
    dmd, edmd, sindy = api("dmd"), api("edmd"), api("sindy")
    specmeas = api("specmeas")
    bump = weights.exponential_bump()
    out = {}
    for (label, eps), (x0, theta0) in zip(REGIMES, rep["logistic_ic"]):
        orbit = systems.driven_logistic(eps, x0, theta0, cfg["orbit"])
        out[f"average-{label}"] = averages.convergence_sweep(
            orbit, lambda s: s[:, 0], cfg["avg_windows"], cfg["orbit"], bump)
        ops.add()

    field = systems.quasiperiodic_field(D=20, N=cfg["dmd_bench"] + 1, seed=rep["field_seed"])
    projected = dmd.project(field, dmd.random_projection(20, 11, seed=rep["projection_seed"]))
    out["dmd-sweep"] = dmd.dmd_error_sweep(projected, cfg["dmd_windows"], cfg["dmd_bench"])
    ops.add()

    for label, n, noise in (("clean", cfg["sindy_clean"], 0.0),
                            ("noisy", cfg["sindy_noisy"], SINDY_NOISE)):
        out[f"sindy-{label}"] = sindy.sindy_error_sweep(
            [n], [1e-2], amplitude=SINDY_AMPLITUDE, phase=rep["sindy_phase"], dt=SINDY_DT,
            noise_sigma=noise, rng=rep["sindy_noise"] if noise else None)
        ops.add()

    acs = specmeas.autocorrelations(rep["series"], cfg["acf_lags"], weighted=True)
    dens = specmeas.density(acs)
    out["specmeas"] = (acs, dens, specmeas.peak_report(dens))
    ops.add(2)

    mats = edmd.build_dictionary_matrices(rep["rotation"], edmd.fourier_dictionary(1, dim=1))
    out["mpedmd"] = edmd.mpedmd(mats, weights.make_weight_vector(cfg["rotation_fit"], bump))
    ops.add()
    return out


def sweeps_execute(inp: dict, ops: Ops) -> dict:
    systems, forecast, cli = api("systems"), api("forecast"), api("cli")
    out = {"replicas": [_sweeps_replica_execute(inp, rep, ops) for rep in inp["replicas"]]}

    ou = systems.ou_sample(OU_RATE, OU_DIFFUSION, 0.0, OU_TAU,
                           inp["embed_samples"] + inp["embed_lags"] - 1,
                           substeps=OU_SUBSTEPS, rng=inp["embed_stream"])
    embedding = forecast.delay_embed(ou.states[:, 0], inp["embed_lags"])
    out["embedded-basis"] = forecast.diffusion_basis(embedding, M=6)
    ops.add()

    codes = {}
    for argv in inp["cli_runs"]:
        for rerun in ("a", "b"):
            outdir = inp["workdir"] / f"cli-{argv[0]}-{rerun}"
            codes[(argv[0], rerun)] = cli.run([*argv, "--outdir", str(outdir)])
            ops.add()
    out["cli"] = codes
    return out


def _cli_csvs(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def _sweeps_replica_check(cfg: dict, out: dict) -> list[Gate]:
    gates = []
    rows = {label: {r.N: r for r in out[f"average-{label}"]} for label, _ in REGIMES}
    windows = cfg["avg_windows"]
    last = max(windows)
    r = rows["periodic"][last]
    gates.append(Gate("average-periodic",
                      r.err_weighted < 1e-12 and 1e-8 <= r.err_unweighted <= 1e-2,
                      f"N={last}: tapered {r.err_weighted:.2e} (< 1e-12), "
                      f"plain {r.err_unweighted:.2e} (in [1e-8, 1e-2])", 1))
    r = rows["quasiperiodic"][last]
    gates.append(Gate("average-quasiperiodic",
                      r.err_weighted < 1e-10 and r.err_unweighted >= 1e4 * r.err_weighted,
                      f"N={last}: tapered {r.err_weighted:.2e} (< 1e-10), "
                      f"plain {r.err_unweighted:.2e} (>= 1e4 x tapered)", 1))
    # Both errors are random at each window, so one window's ratio has a heavy
    # tail; the geometric mean over the windows is the parity measure.
    log_ratio = np.mean([math.log(r.err_unweighted / r.err_weighted)
                         for r in rows["chaotic"].values()])
    parity = math.exp(abs(log_ratio))
    gates.append(Gate("average-chaotic-parity", parity <= 10.0,
                      f"geometric-mean plain/tapered error ratio over {len(windows)} windows "
                      f"x{parity:.2f} (<= 10)", 1))

    r = out["dmd-sweep"][-1]
    gates.append(Gate("dmd-projected-gain", r.relerr_matrix_w * 100.0 <= r.relerr_matrix_unw,
                      f"N={r.N}: plain {r.relerr_matrix_unw:.2e}, tapered {r.relerr_matrix_w:.2e} "
                      f"(x{r.relerr_matrix_unw / max(r.relerr_matrix_w, 1e-300):.0f}, >= 100)", 1))

    clean = {row.method: row.coeff_error for row in out["sindy-clean"]}
    gates.append(Gate("sindy-clean", clean["SINDy"] < 1e-3 and clean["wtSINDy"] < 1e-3,
                      f"SINDy {clean['SINDy']:.2e}, wtSINDy {clean['wtSINDy']:.2e} (< 1e-3)", 1))
    noisy = {row.method: row.coeff_error for row in out["sindy-noisy"]}
    gates.append(Gate("sindy-noisy", noisy["SINDy"] < 1e-4 and noisy["wtSINDy"] < 1e-4,
                      f"SNR 10: SINDy {noisy['SINDy']:.2e}, wtSINDy {noisy['wtSINDy']:.2e} "
                      f"(< 1e-4), LS {noisy['LS']:.2e}", 1))

    acs, dens, peaks = out["specmeas"]
    lags = np.arange(-acs.M, acs.M + 1)
    lag_err = float(np.max(np.abs(acs.values - np.exp(-1j * lags * ROTATION) / TWO_PI)))
    grid = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    step = grid[1] - grid[0]
    vals = dens.eval_grid(grid)
    target = ROTATION if ROTATION < math.pi else ROTATION - TWO_PI
    argmax_off = abs(float(grid[np.argmax(vals)]) - target) / step
    int_err = abs(float(np.sum(vals) * step) - dens.analytic_integral)
    gates.append(Gate("spectral-measure",
                      lag_err <= 1e-8 and argmax_off <= 1.0001 and int_err <= 1e-6
                      and any(abs(theta - target) <= step * 1.0001 for theta, _ in peaks),
                      f"lag error {lag_err:.2e} (<= 1e-8), argmax off {argmax_off:.2f} steps "
                      f"(<= 1), integral error {int_err:.2e} (<= 1e-6)", 2))

    mp = out["mpedmd"]
    expected = np.exp(1j * np.array([-ROTATION, 0.0, ROTATION]))
    got = mp.eigenvalues[np.argsort(np.angle(mp.eigenvalues))]
    eig_err = float(np.max(np.abs(got - expected[np.argsort(np.angle(expected))])))
    unitarity = _relerr(mp.matrix.conj().T @ mp.gram @ mp.matrix, mp.gram)
    circle = float(np.max(np.abs(np.abs(mp.eigenvalues) - 1.0)))
    gates.append(Gate("mpedmd-rotation",
                      eig_err <= 1e-6 and unitarity < 1e-9 and circle <= 1e-10,
                      f"eigenvalue error {eig_err:.2e} (<= 1e-6), unitarity {unitarity:.2e} "
                      f"(< 1e-9), unit-circle deviation {circle:.2e} (<= 1e-10)", 1))
    return gates


def sweeps_check(inp: dict, out: dict) -> tuple[list[Gate], dict]:
    gates = []
    for r, rep_out in enumerate(out["replicas"]):
        gates += [Gate(f"{g.name}[{r}]", g.ok, g.detail, g.failed_ops)
                  for g in _sweeps_replica_check(inp, rep_out)]
    basis = out["embedded-basis"]
    gram = basis.phi.T @ basis.phi / basis.n_train
    orth = float(np.max(np.abs(gram - np.eye(basis.M))))
    gates.append(Gate("embedded-basis-orthonormality", orth <= 1e-6,
                      f"p={basis.points.shape[1]}, max |G - I| = {orth:.2e} (<= 1e-6)", 1))
    for argv in inp["cli_runs"]:
        sub = argv[0]
        nonzero = sum(out["cli"][(sub, rerun)] != 0 for rerun in ("a", "b"))
        a = _cli_csvs(inp["workdir"] / f"cli-{sub}-a")
        b = _cli_csvs(inp["workdir"] / f"cli-{sub}-b")
        identical = bool(a) and a == b
        gates.append(Gate(f"cli-{sub}", nonzero == 0 and identical,
                          f"nonzero exits {nonzero}, {len(a)} CSVs, reruns "
                          f"{'byte-identical' if identical else 'DIFFER'}",
                          nonzero if nonzero else int(not identical)))
    return gates, {}


def _rows(rows) -> np.ndarray:
    return np.array([[v for v in astuple(r) if not isinstance(v, str)] for r in rows])


def sweeps_digest(inp: dict, out: dict) -> str:
    parts = []
    for rep in out["replicas"]:
        acs, dens, peaks = rep["specmeas"]
        parts += [_rows(rep[key]) for key in sorted(rep)
                  if key.startswith(("average-", "sindy-", "dmd-"))]
        parts += [acs.values, dens.coefficients, np.array(peaks),
                  rep["mpedmd"].matrix, rep["mpedmd"].eigenvalues]
    basis = out["embedded-basis"]
    parts += [basis.phi, basis.kernel_eigenvalues]
    parts += [data for argv in inp["cli_runs"]
              for data in _cli_csvs(inp["workdir"] / f"cli-{argv[0]}-a").values()]
    return digest(*parts)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    execute: object
    check: object
    digest: object


WORKLOADS = {w.name: w for w in (
    Workload("koopman-long", koopman_prepare, koopman_execute, koopman_check, koopman_digest),
    Workload("diffusion-ou", ou_prepare, ou_execute, ou_check, ou_digest),
    Workload("sweeps-cli", sweeps_prepare, sweeps_execute, sweeps_check, sweeps_digest),
)}
