"""Workload iterations in one fresh process; prints one JSON line.

Run by ``run.py``; by hand:

    python3 perfbench/worker.py --workload sweeps-cli --seed 1 --size smoke --seconds 5

setup_s is the time from the top of this file to the end of importing
taperdyn (with numpy, scipy and taperdyn.cli) and one warm-up BLAS call.
Each iteration draws its inputs afresh from the seed, and its wall_s covers
only the workload's ``execute`` phase; input generation and gate checks are
outside it.  peak_rss_mb is this process's ru_maxrss read right after the
first ``execute``, before any check allocates.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import taperdyn  # noqa: E402
import taperdyn.cli  # noqa: E402,F401

_warm = np.ones((256, 256))
_warm = _warm @ _warm
SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

from workloads import SIZES, WORKLOADS, Ops  # noqa: E402

# The first iteration is the warm-up (lazy imports, first-touch allocation);
# run.py keeps it out of wall_s and reports it on its own.
MIN_ITERATIONS = 2

# numpy and scipy wheels ship OpenBLAS under one of these symbol names
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}


def iteration(workload, args, workdir: Path) -> dict:
    """Prepare, run (timed) and check one iteration of the workload."""
    workdir.mkdir(parents=True)
    inputs = workload.prepare(args.seed, args.size, workdir)
    ops = Ops()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = {}
    start = time.perf_counter()
    try:
        outputs = workload.execute(inputs, ops)
    except Exception as exc:  # an operation raised: report it as a failed operation
        ops.add()
        outputs = None
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - start
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace_report"] = tracer.report()
    result["attempted"] = ops.attempted
    if outputs is None:
        result.update(gates=[], values={}, failed=1, digest=None)
    else:
        gates, values = workload.check(inputs, outputs)
        result["gates"] = [dict(vars(g), ok=bool(g.ok)) for g in gates]
        result["values"] = values
        result["failed"] = sum(g.failed_ops for g in gates if not g.ok)
        result["digest"] = workload.digest(inputs, outputs)
    shutil.rmtree(workdir)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat iterations until the next would end after this; "
                             f"at least {MIN_ITERATIONS} run")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(taperdyn.__file__).resolve().parents:
        print(f"taperdyn imported from {taperdyn.__file__}, not from {src}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{os.getpid()}"
    start = time.perf_counter()
    iterations, durations = [], []
    try:
        while len(durations) < MIN_ITERATIONS or (
                time.perf_counter() - start + statistics.median(durations) <= args.seconds):
            t = time.perf_counter()
            iterations.append(iteration(workload, args, workdir / str(len(iterations))))
            durations.append(time.perf_counter() - t)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "trace": args.trace, "setup_s": SETUP_S,
                      # the high-water mark after the first timed phase, before any check
                      "peak_rss_mb": iterations[0]["rss_mb"],
                      "loop_s": time.perf_counter() - start,
                      "env": blas_env(), "iterations": iterations}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
