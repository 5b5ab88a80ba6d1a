"""Spans around calls into taperdyn's public functions, for the traced run.

The tracer replaces each public function of the traced modules by a wrapper
that opens a span, in every taperdyn module namespace that holds the same
function object.  Calls the benchmark makes (``systems.ou_sample(...)``) and
calls one module makes into another (``edmd`` reaching ``linalg.pinv_lstsq``,
``cli`` reaching ``dmd_fit``) therefore both land in a span.  Nothing inside
``src/`` changes, and the untraced run never imports this module.

A span's self time is its duration minus the durations of its direct child
spans.  Peak allocation comes from ``tracemalloc``, which runs only inside
the spans named in MEMORY_SPANS: it traces every Python object, and left on
everywhere it would slow the pure-Python generator loops several times over.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

TRACED_MODULES = ("systems", "weights", "linalg", "averages", "dmd", "edmd",
                  "sindy", "specmeas", "forecast", "dataio")
# public functions that their module's __all__ does not list
EXTRA = (("systems", "standard_map_batch"), ("cli", "run"))
MEMORY_SPANS = {"edmd.build_dictionary_matrices", "edmd.edmd", "forecast.diffusion_basis"}

# Called per cell or passed as a profile callback: their time stays in the
# caller's span, so that for example make_weight_vector's self time keeps the
# exp() of the bump.
UNTRACED = {"dataio.fmt", "weights.eval_bump", "specmeas.cosine_filter"}

MB = 1024.0 * 1024.0


def _array_bytes(*arrays) -> int:
    """Bytes of the distinct buffers behind the given arrays (views share one)."""
    owners = {}
    for a in arrays:
        base = a
        while getattr(base, "base", None) is not None:
            base = base.base
        owners[id(base)] = getattr(base, "nbytes", a.nbytes)
    return sum(owners.values())


def _standard_map_batch_counts(args, kwargs, result):
    return {"systems.steps": result.shape[0] * result.shape[1]}


def _trajectory_counts(args, kwargs, result):
    return {"systems.steps": result.states.shape[0]}


def _harmonic_counts(args, kwargs, result):
    return {"systems.steps": result.positions.shape[0]}


def _weight_counts(args, kwargs, result):
    return {"weights.samples": len(result)}


def _dictionary_counts(args, kwargs, result):
    return {"edmd.dictionary.rows": result.Psi.shape[0],
            "edmd.dictionary.bytes": _array_bytes(result.Psi, result.Phi)}


def _pinv_counts(args, kwargs, result):
    A = args[0]
    fit = kwargs.get("fit", args[3] if len(args) > 3 else "left")
    rows = A.shape[1] if fit == "left" else A.shape[0]
    return {"linalg.pinv_lstsq.rows": rows,
            "linalg.pinv_lstsq.rank_deficient": int(result.effective_rank < min(A.shape))}


def _stlsq_counts(args, kwargs, result):
    return {"sindy.stlsq.iterations": result.iterations}


def _lag_counts(args, kwargs, result):
    return {"specmeas.lags": result.M + 1}


def _basis_counts(args, kwargs, result):
    return {"forecast.kernel_bytes": result.n_train * result.n_train * 8}


def _forecast_counts(args, kwargs, result):
    return {"forecast.out_of_support": int(not result[1])}


def _cli_counts(args, kwargs, result):
    return {"cli.run.nonzero_exit": int(result != 0)}


def _write_counts(args, kwargs, result):
    return {"dataio.files_written": 1,
            "dataio.bytes_written": os.path.getsize(args[0])}


def _read_counts(args, kwargs, result):
    return {"dataio.bytes_read": os.path.getsize(args[0])}


# Counters recorded at a span's exit, from the call's arguments and result.
COUNTERS = {
    "systems.standard_map_batch": _standard_map_batch_counts,
    "systems.standard_map": _trajectory_counts,
    "systems.driven_logistic": _trajectory_counts,
    "systems.ou_sample": _trajectory_counts,
    "systems.quasiperiodic_field": _trajectory_counts,
    "systems.harmonic_series": _harmonic_counts,
    "weights.make_weight_vector": _weight_counts,
    "edmd.build_dictionary_matrices": _dictionary_counts,
    "linalg.pinv_lstsq": _pinv_counts,
    "sindy.stlsq": _stlsq_counts,
    "specmeas.autocorrelations": _lag_counts,
    "forecast.diffusion_basis": _basis_counts,
    "forecast.forecast": _forecast_counts,
    "cli.run": _cli_counts,
    "dataio.write_csv_atomic": _write_counts,
    "dataio.ingest_series": _read_counts,
}


class _Frame:
    __slots__ = ("name", "start", "child_s", "owns_tracemalloc")

    def __init__(self, name, owns_tracemalloc):
        self.name = name
        self.owns_tracemalloc = owns_tracemalloc
        self.start = time.perf_counter()
        self.child_s = 0.0


class Tracer:
    """Collects per-span call counts, self time, peak allocation and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.peak_alloc = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name):
        owns = name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if owns:
            tracemalloc.start()
        self._stack.append(_Frame(name, owns))

    def _exit(self):
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        name = frame.name
        if frame.owns_tracemalloc:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_alloc[name] = max(self.peak_alloc[name], peak)
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        else:
            self.top_level_s += duration

    def wrap(self, name, func):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def install(self):
        """Wrap every public function of the traced modules, and EXTRA."""
        targets = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"taperdyn.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType) and name not in UNTRACED:
                    targets[id(obj)] = (name, obj)
        for short, attr in EXTRA:
            func = getattr(importlib.import_module(f"taperdyn.{short}"), attr)
            targets[id(func)] = (f"{short}.{attr}", func)
        wrappers = {key: self.wrap(name, func) for key, (name, func) in targets.items()}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "taperdyn" or n.startswith("taperdyn.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "peak_alloc_mb": {k: v / MB for k, v in self.peak_alloc.items()},
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }
