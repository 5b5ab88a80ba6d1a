"""taperdyn benchmark: end-to-end figures per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload koopman-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run starts PROCESSES fresh worker processes (worker.py), one at a time,
with BLAS at its default thread count.  Each sets up once and repeats the
workload until its share of --seconds is used (at least two iterations).
The first iteration of each process is the warm-up: it is checked like the
others but kept out of wall_s and printed on its own.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The traced run alternates untraced and
traced processes, checks that their outputs are bit-identical, and reports
the difference of their median wall times as trace.overhead_s.

The exit code is 0 only when every gate of every iteration held.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("koopman-long", "diffusion-ou", "sweeps-cli")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # kept back for confirming later claims
PROCESSES = 3  # per untraced run; the traced run uses two untraced and two traced
SETUP_GUESS_S = 2.0  # process start-up before the first one is measured
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# (name, unit, how it is obtained).  "computed" figures come from array
# sizes and must repeat exactly; "measured" figures come from spans, results
# or files.
PER_LAYER = [
    ("systems.standard_map_batch.self_s", "s", "measured"),
    ("systems.standard_map.self_s", "s", "measured"),
    ("systems.driven_logistic.self_s", "s", "measured"),
    ("systems.ou_sample.self_s", "s", "measured"),
    ("systems.steps", "count", "computed"),
    ("weights.make_weight_vector.calls", "count", "measured"),
    ("weights.make_weight_vector.self_s", "s", "measured"),
    ("weights.samples", "count", "computed"),
    ("edmd.build_dictionary_matrices.self_s", "s", "measured"),
    ("edmd.dictionary.rows", "count", "computed"),
    ("edmd.dictionary.bytes", "bytes", "computed"),
    ("edmd.build_dictionary_matrices.peak_alloc_mb", "MB", "measured"),
    ("edmd.edmd.calls", "count", "measured"),
    ("edmd.edmd.self_s", "s", "measured"),
    ("edmd.edmd.peak_alloc_mb", "MB", "measured"),
    ("edmd.mpedmd.calls", "count", "measured"),
    ("edmd.mpedmd.self_s", "s", "measured"),
    ("linalg.pinv_lstsq.calls", "count", "measured"),
    ("linalg.pinv_lstsq.self_s", "s", "measured"),
    ("linalg.pinv_lstsq.rows", "count", "computed"),
    ("linalg.pinv_lstsq.rank_deficient", "count", "measured"),
    ("linalg.eig.calls", "count", "measured"),
    ("linalg.eig.self_s", "s", "measured"),
    ("linalg.sym_sqrt_inv.calls", "count", "measured"),
    ("linalg.sym_sqrt_inv.self_s", "s", "measured"),
    ("dmd.dmd.calls", "count", "measured"),
    ("dmd.dmd.self_s", "s", "measured"),
    ("dmd.dmd_error_sweep.self_s", "s", "measured"),
    ("sindy.stlsq.calls", "count", "measured"),
    ("sindy.stlsq.self_s", "s", "measured"),
    ("sindy.stlsq.iterations", "count", "measured"),
    ("specmeas.autocorrelations.self_s", "s", "measured"),
    ("specmeas.lags", "count", "computed"),
    ("specmeas.density.self_s", "s", "measured"),
    ("averages.convergence_sweep.self_s", "s", "measured"),
    ("averages.birkhoff_average.calls", "count", "measured"),
    ("forecast.diffusion_basis.calls", "count", "measured"),
    ("forecast.diffusion_basis.self_s", "s", "measured"),
    ("forecast.diffusion_basis.peak_alloc_mb", "MB", "measured"),
    ("forecast.kernel_bytes", "bytes", "computed"),
    ("forecast.shift_matrix.self_s", "s", "measured"),
    ("forecast.forecast.calls", "count", "measured"),
    ("forecast.forecast.self_s", "s", "measured"),
    ("forecast.out_of_support", "count", "measured"),
    ("cli.run.calls", "count", "measured"),
    ("cli.run.self_s", "s", "measured"),
    ("cli.run.nonzero_exit", "count", "measured"),
    ("dataio.files_written", "count", "measured"),
    ("dataio.bytes_written", "bytes", "measured"),
    ("dataio.bytes_read", "bytes", "measured"),
    ("trace.overhead_s", "s", "measured"),
    ("trace.coverage", "fraction", "measured"),
]
MIN_COVERAGE = 0.90


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed gate)."""


def machine_env(seed: int) -> dict:
    def proc_field(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    mem_kb = proc_field("/proc/meminfo", "MemTotal").split()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "ram_gb": round(int(mem_kb) / 1024**2, 2) if mem_kb.isdigit() else None,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def spawn(workload: str, seed: int, size: str, trace: int, seconds: float,
          timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace), "--seconds", f"{max(seconds, 0.0):.3f}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, size: str, traced: bool) -> list[dict]:
    """Fresh worker processes that share `seconds` between them.

    The traced run alternates untraced and traced processes.
    """
    start = time.perf_counter()
    modes = (0, 1, 0, 1) if traced else (0,) * PROCESSES
    overhead = []  # per process: wall time outside its iteration loop
    processes = []
    for i, mode in enumerate(modes):
        elapsed = time.perf_counter() - start
        setup = statistics.median(overhead) if overhead else SETUP_GUESS_S
        budget = (seconds - elapsed) / (len(modes) - i) - setup
        t = time.perf_counter()
        processes.append(spawn(workload, seed, size, mode, budget, HARD_LIMIT_S - elapsed))
        overhead.append(time.perf_counter() - t - processes[-1]["loop_s"])
    return processes


def high_percentile(samples: list[float]):
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(0, math.ceil(pct / 100.0 * n) - 1)
    return pct, sorted(samples)[rank]


def summarize(workload: str, processes: list[dict], traced: bool) -> dict:
    plain = [p for p in processes if p["trace"] == 0]
    iterations = [it for p in processes for it in p["iterations"]]
    first = iterations[0]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [f"iteration raised {it['error']}" for it in iterations if "error" in it]
    digests = {it["digest"] for it in iterations}
    if len(digests) != 1:
        problems.append(f"outputs differ between iterations ({len(digests)} digests"
                        f"{', traced vs untraced' if traced else ''})")
    env = processes[0]["env"]
    nproc = len(os.sched_getaffinity(0))
    if env["blas_threads"] is not None and env["blas_threads"] > nproc:
        problems.append(f"BLAS uses {env['blas_threads']} threads on {nproc} CPUs")
    walls = [it["wall_s"] for p in plain for it in p["iterations"][1:]]
    summary = {
        "workload": workload,
        "processes": len(processes),
        "wall_s_samples": walls,
        "attempted": attempted,
        "failed": failed,
        "gates": first["gates"],
        "failed_gates": sorted({g["name"] for it in iterations for g in it["gates"]
                                if not g["ok"]}),
        "values": first["values"],
        "env": env,
        "metrics": {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
        },
        "warmup_s": statistics.median(p["iterations"][0]["wall_s"] for p in plain),
    }
    if traced:
        traced_iterations = [it for p in processes if p["trace"] == 1
                             for it in p["iterations"][1:]]
        layers, layer_problems = per_layer(traced_iterations, statistics.median(walls))
        summary["metrics"] = layers
        problems += layer_problems
    summary["problems"] = problems
    summary["correct"] = failed == 0 and not problems
    return summary


def per_layer(runs: list[dict], untraced_wall: float) -> tuple[dict, list[str]]:
    reports = [r["trace_report"] for r in runs]
    traced_wall = statistics.median(r["wall_s"] for r in runs)
    problems, out = [], {}
    for name, unit, kind in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = traced_wall - untraced_wall
            continue
        if name == "trace.coverage":
            values = [rep["top_level_s"] / r["wall_s"] for rep, r in zip(reports, runs)]
            out[name] = statistics.median(values)
            if out[name] < MIN_COVERAGE:
                problems.append(f"spans cover {out[name]:.1%} of traced wall time "
                                f"(< {MIN_COVERAGE:.0%})")
            continue
        span, _, field = name.rpartition(".")
        if field in ("self_s", "peak_alloc_mb"):
            out[name] = statistics.median(rep[field].get(span, 0.0) for rep in reports)
            continue
        if field == "calls":
            values = [rep["calls"].get(span, 0) for rep in reports]
        else:
            values = [rep["counts"].get(name, 0) for rep in reports]
        if len(set(values)) != 1:
            problems.append(f"{name} does not repeat across traced iterations: {values}")
        out[name] = values[0]
    return out, problems


def print_summary(summary: dict, traced: bool) -> None:
    m = summary["metrics"]
    print(f"workload {summary['workload']}: {summary['processes']} processes, "
          f"{len(summary['wall_s_samples'])} timed iterations after warm-up")
    if traced:
        for name, unit, kind in PER_LAYER:
            print(f"  {name:48s} {m[name]:>14.6g} {unit:8s} ({kind})")
    else:
        walls = summary["wall_s_samples"]
        high = high_percentile(walls)
        high_text = (f"p{high[0]} {high[1]:.4f} s" if high
                     else "highest percentile n/a (needs >= 11 samples)")
        print(f"  wall_s       {m['wall_s']:.4f} s  (median; {high_text}; samples {len(walls)})")
        print(f"  warm-up      {summary['warmup_s']:.4f} s  (median first iteration of a process, "
              f"not in wall_s)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
        print(f"  setup_s      {m['setup_s']:.4f} s")
    rate = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  fail_rate    {rate:.4g} fraction ({summary['failed']} of "
          f"{summary['attempted']} operations)")
    if "forecast_relerr" in summary["values"]:
        v = summary["values"]
        print(f"  forecast_relerr {v['forecast_relerr']:.4f} ratio (worst lead, plain shift "
              f"matrix; tapered {v['forecast_relerr_tapered']:.4g})")
    for gate in summary["gates"]:
        status = "FAIL" if gate["name"] in summary["failed_gates"] else "ok"
        print(f"  gate {status:4s} {gate['name']}: {gate['detail']}")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    print("  env " + json.dumps({**summary["env"], **summary["machine"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--record", default=None,
                        help="also write every summary, with samples and env, to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "taperdyn" / "__init__.py").is_file():
        print(f"no taperdyn sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    machine = machine_env(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            results = collect(name, args.seed, args.seconds, args.size, bool(args.trace))
            summary = summarize(name, results, bool(args.trace))
            summary["machine"] = machine
            print_summary(summary, bool(args.trace))
            summaries.append(summary)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.record:
        Path(args.record).write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    correct = all(s["correct"] for s in summaries)
    units = END_TO_END if not args.trace else {n: u for n, u, _ in PER_LAYER}
    for s in summaries:
        print(json.dumps({
            "correct": s["correct"],
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in s["metrics"].items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
