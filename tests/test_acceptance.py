"""Acceptance suite: one test per benchmark criterion, each printing a
single PASS/FAIL line with the measured quantities.

Criterion 12 needs a user-supplied monthly index CSV (TAPERDYN_NINO34 or
data/nino34.csv) and is skipped with a message when absent.  Everything
else runs on built-in generators.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete, or via `taperdyn bench`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from taperdyn import bench

pytestmark = pytest.mark.acceptance


def _check(key):
    result = bench.run_criterion(key)
    print(result.line(), flush=True)
    if result.skipped:
        pytest.skip(result.details)
    assert result.passed, result.line()
    return result


def test_criterion_01_weighted_average_periodic():
    _check("1")


def test_criterion_02_weighted_average_quasiperiodic():
    _check("2")


def test_criterion_03_weighted_average_chaotic_parity():
    _check("3")


def test_criterion_04_dmd_exact_recovery():
    _check("4")


def test_criterion_05_wtdmd_projected_sweep():
    _check("5")


@pytest.mark.slow
def test_criterion_06_wtedmd_quasiperiodic():
    _check("6")


@pytest.mark.slow
def test_criterion_07_wtedmd_chaotic_stochastic_parity():
    _check("7")


def test_criterion_08_wtsindy_harmonic_recovery():
    _check("8")


def test_criterion_09_spectral_measure_rotation():
    _check("9")


def test_criterion_10_mpedmd_structure():
    _check("10")


def test_criterion_11_diffusion_forecast_ou():
    _check("11")


def test_criterion_12_nino34_forecast():
    _check("12")


def test_criterion_13_property_suite():
    _check("13")


def test_criterion_13_with_package_only_on_sys_path(tmp_path):
    # taperdyn reached through sys.path alone (no PYTHONPATH, no install, cwd
    # elsewhere): the criterion's `python -m taperdyn.cli` children must
    # still import it
    src = Path(bench.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from taperdyn.bench import run_criterion; "
            "r = run_criterion('13'); print(r.line()); sys.exit(0 if r.passed else 1)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code, str(src)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
