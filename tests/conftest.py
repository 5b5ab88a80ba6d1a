import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from taperdyn import RngStream


@pytest.fixture
def gen():
    return RngStream(1234, "tests").generator()


@pytest.fixture
def stream():
    return RngStream(1234, "tests")


def synth_monthly_csv(path, n_years=96, seed=0):
    """AR(1) monthly anomaly series starting 1920-01, as year,month,value rows."""
    gen = RngStream(seed, "nino-synth").generator()
    n = n_years * 12
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = 0.9 * x[i - 1] + 0.3 * gen.standard_normal()
    lines = ["year,month,value"]
    for i in range(n):
        year, month = 1920 + i // 12, i % 12 + 1
        lines.append(f"{year},{month},{x[i]:.6f}")
    path.write_text("\n".join(lines) + "\n")
    return x


@contextmanager
def traced_memory():
    """Trace the allocations of the with-block.  On exit the yielded record
    holds `peak`, the most bytes traced at once, and `current`, the bytes
    still held by what the block kept."""
    record = SimpleNamespace()
    tracemalloc.start()
    try:
        yield record
        record.current, record.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
