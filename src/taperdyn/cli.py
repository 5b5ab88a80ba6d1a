"""Command-line entry point.

Subcommands: average, dmd, edmd, mpedmd, sindy, specmeas, forecast, bench.
Every taper comes from --weight (bump or uniform; specmeas tapers each lag
average with it, so uniform gives plain means), and bench runs the one
paper-desk suite, optionally a subset (--only).
Options resolve with precedence flags > config file > defaults; every run
computes all results first, then writes CSV outputs atomically and finishes
with a manifest (config hash, version, timestamps, per-output checksums).

Exit codes: 0 success, 2 usage, 3 configuration, 4 missing/unreadable data,
5 validation (domain/size/shape/degenerate weights, or an allocation that
does not fit in memory), 6 numerical failure, 1 unexpected error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, bench
from . import sindy as sindy_mod
from . import specmeas as specmeas_mod
from .averages import birkhoff_average, convergence_sweep
from .dmd import dmd as dmd_fit
from .dmd import dmd_error_sweep, project, random_projection
from .edmd import (
    build_dictionary_matrices,
    fourier_dictionary,
    identity_dictionary,
    monomial_dictionary,
)
from .edmd import edmd as edmd_fit
from .edmd import mpedmd as mpedmd_fit
from .forecast import nino34_compare
from .dataio import ingest_series, matrix_csv, write_csv_atomic, write_lines_atomic
from .errors import (
    ConditioningError,
    ConfigError,
    DomainError,
    IngestError,
    NumericalError,
    ShapeError,
    SizeError,
)
from .systems import (
    RngStream,
    driven_logistic,
    harmonic_series,
    quasiperiodic_field,
    second_difference,
    standard_map,
)
from .weights import eval_bump, make_weight_vector, uniform_taper

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_VALIDATION = 5
EXIT_NUMERICAL = 6

_EXIT_BY_ERROR = (
    (ConfigError, EXIT_CONFIG),
    ((IngestError, FileNotFoundError), EXIT_DATA),
    ((DomainError, SizeError, ShapeError, MemoryError), EXIT_VALIDATION),
    ((ConditioningError, NumericalError, np.linalg.LinAlgError), EXIT_NUMERICAL),
)


@dataclass(frozen=True)
class Option:
    name: str
    type: Callable
    default: object
    help: str


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_kick(text: str):
    return text if text == "resample" else float(text)


_COMMON = [
    Option("seed", int, 0, "global 64-bit seed; labeled per-component streams derive from it"),
    Option("outdir", str, "taperdyn-out", "output directory"),
    Option("weight", str, "bump", "taper kind: bump or uniform"),
]

OPTIONS: dict[str, list[Option]] = {
    "average": _COMMON + [
        Option("system", str, "driven-logistic", "data source (driven-logistic)"),
        Option("eps", float, 0.0, "forcing strength (>= 0)"),
        Option("x0", float, 0.25, "initial x"),
        Option("theta0", float, 0.0, "initial phase"),
        Option("N", int, 100_000, "orbit length / benchmark window"),
        Option("sweep", _parse_bool, False, "emit an error table over sweep windows"),
        Option("sweep_n", _parse_int_list, (), "comma list of window lengths"),
    ],
    "dmd": _COMMON + [
        Option("input", str, "", "trajectory CSV; empty = built-in quasiperiodic field"),
        Option("D", int, 20, "field dimension of the built-in source"),
        Option("N", int, 1000, "benchmark window (trajectory length is N + 1)"),
        Option("project_r", int, 11, "random orthonormal projection rank (0 = none)"),
        Option("project_seed", int, 7, "seed of the projection basis"),
        Option("sweep", _parse_bool, True, "emit the window error sweep"),
        Option("sweep_n", _parse_int_list, (), "comma list of window lengths"),
    ],
    "edmd": _COMMON + [
        Option("input", str, "", "trajectory CSV; empty = built-in standard map"),
        Option("lam", _parse_kick, 0.25, "kick strength, or 'resample' for uniform [0,5]"),
        Option("p0", float, 1.0, "initial momentum"),
        Option("theta0", float, 0.5, "initial angle"),
        Option("N", int, 10_000, "number of transitions"),
        Option("dict", str, "fourier", "dictionary: fourier or monomials or identity"),
        Option("kmax", int, 1, "fourier max index per coordinate"),
        Option("degree", int, 3, "monomial total degree"),
    ],
    "mpedmd": _COMMON + [
        Option("input", str, "", "trajectory CSV; empty = built-in standard map"),
        Option("lam", _parse_kick, 0.25, "kick strength, or 'resample'"),
        Option("p0", float, 1.0, "initial momentum"),
        Option("theta0", float, 0.5, "initial angle"),
        Option("N", int, 10_000, "number of transitions"),
        Option("dict", str, "fourier", "dictionary: fourier or identity"),
        Option("kmax", int, 1, "fourier max index per coordinate"),
    ],
    "sindy": _COMMON + [
        Option("mode", str, "continuous", "continuous or discrete"),
        Option("input", str, "", "scalar CSV of positions (continuous) or "
                                 "trajectory CSV (discrete); empty = harmonic surrogate"),
        Option("amplitude", float, 2.0, "surrogate amplitude"),
        Option("phase", float, 0.7, "surrogate phase"),
        Option("dt", float, 0.01, "sampling step"),
        Option("N", int, 10_000, "number of samples"),
        Option("noise_sigma", float, 0.0, "position noise level"),
        Option("eta", float, 1e-2, "pruning threshold"),
        Option("degree", int, 5, "monomial dictionary degree"),
    ],
    "specmeas": _COMMON + [
        Option("input", str, "", "scalar or complex series CSV (required)"),
        Option("format", str, "scalar_csv", "scalar_csv or complex_csv"),
        Option("M", int, 100, "number of lags"),
        Option("filter", str, "cosine", "reconstruction filter: cosine or bump"),
        Option("grid", int, 4096, "density grid size"),
        Option("prominence", float, 0.0, "peak prominence threshold"),
    ],
    "forecast": _COMMON + [
        Option("input", str, "", "monthly index CSV with header year,month,value"),
        Option("train_start", str, "1920-01", "first training month"),
        Option("train_end", str, "1999-12", "last training month"),
        Option("valid_start", str, "2000-01", "first validation month"),
        Option("valid_end", str, "2013-12", "last validation month"),
        Option("lags", int, 6, "delay-embedding length"),
        Option("M", int, 14, "number of basis functions"),
        Option("k_max", int, 16, "maximum lead (months)"),
        Option("series_lead", int, 16, "lead of the emitted forecast series"),
        Option("bandwidth", float, 0.0, "kernel bandwidth (0 = auto)"),
    ],
    "bench": [
        Option("outdir", str, "taperdyn-out", "output directory"),
        Option("only", str, "", "comma list of criterion numbers to run"),
        Option("nino34", str, "", "monthly index CSV for criterion 12"),
    ],
}


def _read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, val = text.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    """Each option's text from its flag, else the config file, else (outdir
    only) TAPERDYN_OUTDIR, parsed here and only here; else its default."""
    specs = OPTIONS[subcommand]
    file_values = _read_config_file(args.config) if args.config else {}
    known = {spec.name for spec in specs}
    for key in file_values:
        if key not in known:
            raise ConfigError(f"config key {key!r} is not an option of {subcommand!r}")
    env_values = {"outdir": os.environ.get("TAPERDYN_OUTDIR")}
    resolved = {}
    for spec in specs:
        text = getattr(args, spec.name, None)
        if text is None:
            text = file_values.get(spec.name, env_values.get(spec.name))
        if text is None:
            resolved[spec.name] = spec.default
            continue
        try:
            resolved[spec.name] = spec.type(text)
        except ValueError as exc:
            raise ConfigError(f"option {spec.name}: cannot parse {text!r}") from exc
    return resolved


def _config_text(subcommand: str, cfg: dict) -> str:
    lines = [f"subcommand = {subcommand}"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


_TAPERS = {"bump": eval_bump, "uniform": uniform_taper}
_FILTERS = {"cosine": specmeas_mod.cosine_filter, "bump": specmeas_mod.smoothstep_filter}


def _weight_fn(cfg):
    if cfg["weight"] not in _TAPERS:
        raise ConfigError(f"unknown weight kind {cfg['weight']!r} (use bump or uniform)")
    return _TAPERS[cfg["weight"]]


# ---------------------------------------------------------------------------
# subcommand runners: each returns {filename: (header, rows) or [lines]}


def _run_average(cfg) -> dict:
    if cfg["system"] != "driven-logistic":
        raise ConfigError(f"unknown system {cfg['system']!r}")
    if cfg["eps"] < 0:
        raise ConfigError(f"eps must be >= 0, got {cfg['eps']}")
    if cfg["N"] < 2:
        raise ConfigError(f"N must be >= 2, got {cfg['N']}")
    orbit = driven_logistic(cfg["eps"], cfg["x0"], cfg["theta0"], cfg["N"])
    w = _weight_fn(cfg)
    outputs = {}
    if cfg["sweep"]:
        if not cfg["sweep_n"] and cfg["N"] < 100:
            raise ConfigError(
                f"N={cfg['N']} is too short for the default windows 10..N/10; "
                "pass --sweep-n")
        sweep_n = cfg["sweep_n"] or tuple(
            int(v) for v in np.unique(np.geomspace(10, cfg["N"] // 10, 12, dtype=int)))
        rows = convergence_sweep(orbit, lambda s: s[:, 0], sweep_n, cfg["N"], w)
        outputs["average_sweep.csv"] = (
            "N,err_unweighted,err_weighted",
            [(r.N, r.err_unweighted, r.err_weighted) for r in rows])
    series = orbit.states[:, 0]
    unw = birkhoff_average(series)
    wt = birkhoff_average(series, make_weight_vector(cfg["N"], w))
    outputs["average.csv"] = ("N,unweighted,weighted", [(cfg["N"], unw, wt)])
    return outputs


def _dmd_source(cfg):
    if cfg["input"]:
        return ingest_series(cfg["input"], "trajectory_csv")
    return quasiperiodic_field(cfg["D"], cfg["N"] + 1, seed=cfg["seed"])


def _run_dmd(cfg) -> dict:
    traj = _dmd_source(cfg)
    if cfg["project_r"]:
        basis = random_projection(traj.dim, cfg["project_r"],
                               seed=cfg["project_seed"])
        traj = project(traj, basis)
    w = _weight_fn(cfg)
    outputs = {}
    n_pairs = len(traj) - 1
    if cfg["sweep"]:
        sweep_n = cfg["sweep_n"] or tuple(range(10, min(501, n_pairs), 10))
        rows = dmd_error_sweep(traj, sweep_n, n_pairs, w)
        outputs["dmd_sweep.csv"] = (
            "N,relerr_matrix_unw,relerr_matrix_w,relerr_eigs_unw,relerr_eigs_w",
            [(r.N, r.relerr_matrix_unw, r.relerr_matrix_w,
              r.relerr_eigs_unw, r.relerr_eigs_w) for r in rows])
    fit = dmd_fit(traj.states[:-1], traj.states[1:], make_weight_vector(n_pairs, w))
    outputs["dmd_eigs.csv"] = ("re,im", [(v.real, v.imag) for v in fit.eigenvalues])
    outputs["dmd_matrix.csv"] = matrix_csv(fit.matrix)
    return outputs


def _edmd_matrices(cfg, kinds: tuple[str, ...]):
    if cfg["dict"] not in kinds:
        raise ConfigError(f"unknown dictionary {cfg['dict']!r} (use {' or '.join(kinds)})")
    if cfg["input"]:
        traj = ingest_series(cfg["input"], "trajectory_csv")
    else:
        lam = "uniform_resample" if cfg["lam"] == "resample" else cfg["lam"]
        traj = standard_map(lam, cfg["p0"], cfg["theta0"], cfg["N"] + 1,
                            rng=RngStream(cfg["seed"], "cli/standard-map"))
    dim = traj.dim
    if cfg["dict"] == "fourier":
        dictionary = fourier_dictionary(cfg["kmax"], dim=dim)
    elif cfg["dict"] == "monomials":
        dictionary = monomial_dictionary(cfg["degree"], dim=dim)
    else:
        dictionary = identity_dictionary(dim)
    return build_dictionary_matrices(traj, dictionary)


def _run_edmd(cfg) -> dict:
    mats = _edmd_matrices(cfg, ("fourier", "monomials", "identity"))
    K = edmd_fit(mats, make_weight_vector(mats.n_pairs, _weight_fn(cfg)))
    outputs = {"edmd_matrix.csv": matrix_csv(K.matrix)}
    if K.matrix.shape[0] == K.matrix.shape[1]:
        from .linalg import eig
        values, _ = eig(K.matrix)
        outputs["edmd_eigs.csv"] = ("re,im", [(v.real, v.imag) for v in values])
    return outputs


def _run_mpedmd(cfg) -> dict:
    mats = _edmd_matrices(cfg, ("fourier", "identity"))
    res = mpedmd_fit(mats, make_weight_vector(mats.n_pairs, _weight_fn(cfg)))
    return {
        "mpedmd_matrix.csv": matrix_csv(res.matrix),
        "mpedmd_eigs.csv": ("re,im",
                            [(v.real, v.imag) for v in res.eigenvalues]),
    }


def _run_sindy(cfg) -> dict:
    w = _weight_fn(cfg)
    if cfg["mode"] not in ("continuous", "discrete"):
        raise ConfigError(f"unknown mode {cfg['mode']!r} (use continuous or discrete)")
    if cfg["mode"] == "discrete":
        if not cfg["input"]:
            raise ConfigError("discrete mode requires --input trajectory CSV")
        traj = ingest_series(cfg["input"], "trajectory_csv")
        dictionary = monomial_dictionary(cfg["degree"], dim=traj.dim)
        Psi = dictionary(traj.states[:-1]).real
        targets = traj.states[1:]
    else:
        if cfg["input"]:
            positions = ingest_series(cfg["input"], "scalar_csv")
            if positions.shape[0] < 5:
                raise SizeError("need at least 5 position samples")
            targets = second_difference(positions, cfg["dt"])
            interior = positions[1:-1]
        else:
            data = harmonic_series(
                cfg["amplitude"], cfg["phase"], cfg["dt"], cfg["N"],
                noise_sigma=cfg["noise_sigma"],
                rng=RngStream(cfg["seed"], "cli/sindy") if cfg["noise_sigma"] > 0 else None)
            interior, targets = data.interior_positions, data.second_derivative
        dictionary = monomial_dictionary(cfg["degree"], dim=1)
        Psi = dictionary(interior[:, None]).real
    model = sindy_mod.stlsq(Psi, targets, eta=cfg["eta"],
                            weights=make_weight_vector(Psi.shape[0], w))
    diag = [json.dumps({
        "row": j,
        "iterations": model.iterations,
        "converged": model.converged,
        "active": int(model.active_mask[j].sum()),
        "zeroed": j in model.zeroed_rows,
    }) for j in range(model.coefficients.shape[0])]
    return {"sindy_xi.csv": matrix_csv(model.coefficients),
            "sindy_diagnostics.jsonl": diag}


def _run_specmeas(cfg) -> dict:
    if not cfg["input"]:
        raise ConfigError("specmeas requires --input (scalar or complex series CSV)")
    if cfg["format"] not in ("scalar_csv", "complex_csv"):
        raise ConfigError(f"specmeas reads scalar_csv or complex_csv, not {cfg['format']!r}")
    series = ingest_series(cfg["input"], cfg["format"])
    acs = specmeas_mod.autocorrelations(series, cfg["M"], _weight_fn(cfg))
    if cfg["filter"] not in _FILTERS:
        raise ConfigError(f"unknown filter {cfg['filter']!r}")
    dens = specmeas_mod.density(acs, _FILTERS[cfg["filter"]])
    # peak_report checks the grid size, so it runs before the grid is built
    peaks = specmeas_mod.peak_report(dens, cfg["grid"], cfg["prominence"])
    grid = np.linspace(-np.pi, np.pi, cfg["grid"], endpoint=False)
    vals = dens.eval_grid(grid)
    return {
        "autocorr.csv": ("n,re,im",
                         [(n, acs.values[acs.M + n].real, acs.values[acs.M + n].imag)
                          for n in range(-acs.M, acs.M + 1)]),
        "density.csv": ("theta,xi", list(zip(grid, vals))),
        "peaks.csv": ("theta,height", peaks),
    }


def _run_forecast(cfg) -> dict:
    if not cfg["input"]:
        raise ConfigError("forecast requires --input (monthly index CSV)")
    lead = cfg["series_lead"]
    if not 1 <= lead <= cfg["k_max"]:
        raise ConfigError(f"series_lead must lie in 1..k_max, got {lead}")
    res_u, res_w, details = nino34_compare(
        cfg["input"],
        train_range=(cfg["train_start"], cfg["train_end"]),
        valid_range=(cfg["valid_start"], cfg["valid_end"]),
        lags=cfg["lags"], M=cfg["M"], k_max=cfg["k_max"],
        bandwidth=cfg["bandwidth"] or None, w=_weight_fn(cfg))
    skill_rows = [
        (int(k), res_u.rmse[i], res_w.rmse[i],
         res_u.correlation[i], res_w.correlation[i], res_u.climatology)
        for i, k in enumerate(res_u.leads)]
    series_rows = []
    for i, (year, month) in enumerate(details["start_months"]):
        series_rows.append((
            year, month,
            details["predictions_unweighted"][i, lead - 1],
            details["predictions_weighted"][i, lead - 1],
            details["truth"][i, lead - 1]))
    return {
        "forecast_skill.csv": (
            "lead,rmse_unw,rmse_w,corr_unw,corr_w,climatology", skill_rows),
        f"forecast_series_lead{lead}.csv": (
            "start_year,start_month,forecast_unw,forecast_w,truth", series_rows),
    }


def _run_bench(cfg) -> dict:
    keys = [k.strip() for k in cfg["only"].split(",") if k.strip()] or None
    results = bench.run_suite(keys, nino34_csv=cfg["nino34"] or None)
    rows = [(r.name, r.status, f"{r.seconds:.2f}", f"{r.budget:g}", r.details,
             f"{r.cpu_seconds:.2f}") for r in results]
    failed = [r for r in results if not r.passed and not r.skipped]
    if failed:
        raise NumericalError(
            f"{len(failed)} benchmark criteria failed: "
            + "; ".join(r.name for r in failed))
    return {"bench_results.csv": ("criterion,status,seconds,budget,details,cpu_seconds", rows)}


_RUNNERS = {
    "average": _run_average,
    "dmd": _run_dmd,
    "edmd": _run_edmd,
    "mpedmd": _run_mpedmd,
    "sindy": _run_sindy,
    "specmeas": _run_specmeas,
    "forecast": _run_forecast,
    "bench": _run_bench,
}


def _write_outputs(outdir: Path, outputs: dict, config_text: str) -> None:
    """Write each output, a CSV (header, rows) tuple or a list of text lines,
    then manifest.json with every file's SHA-256."""
    checksums = {}
    for name, content in outputs.items():
        path = outdir / name
        if isinstance(content, tuple):
            write_csv_atomic(path, *content)
        else:
            write_lines_atomic(path, content)
        checksums[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = {
        "tool": "taperdyn",
        "version": __version__,
        "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "created_unix": time.time(),
        "outputs": checksums,
    }
    write_lines_atomic(outdir / "manifest.json",
                       [json.dumps(manifest, indent=2, sort_keys=True)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taperdyn",
        description="Taper-weighted averaging and weighted data-driven methods")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, specs in OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--dump-config", default=None,
                       help="write the resolved configuration to this path")
        for spec in specs:
            flag = "--" + spec.name.replace("_", "-")
            if spec.type is _parse_bool:
                p.add_argument(flag, nargs="?", const="true", default=None,
                               help=spec.help)
            else:
                p.add_argument(flag, default=None, help=spec.help)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_options(args.subcommand, args)
        text = _config_text(args.subcommand, cfg)
        if args.dump_config:
            write_lines_atomic(args.dump_config, text.splitlines())
        outputs = _RUNNERS[args.subcommand](cfg)
        outdir = Path(cfg.get("outdir", "taperdyn-out"))
        _write_outputs(outdir, outputs, text)
        return EXIT_OK
    except Exception as exc:  # single-line machine-parsable diagnostics
        code = next((code for kinds, code in _EXIT_BY_ERROR if isinstance(exc, kinds)), 1)
        message = str(exc)
        if isinstance(exc, MemoryError):  # numpy's message can be empty
            message = f"{args.subcommand} ran out of memory" + (f": {message}" if message else "")
        message = message.replace("\n", " ")
        print(f'taperdyn-error code={code} kind={type(exc).__name__} '
              f'message="{message}"', file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
