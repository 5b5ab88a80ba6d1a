"""Smoke tests of the benchmark itself, at the smoke size of each workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_lists_what_the_benchmark_runs():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer"] if trace == "1" else CONTRACT["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_rate" in proc.stdout
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= run.MIN_COVERAGE


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweeps-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 10) is None
    pct, value = run.high_percentile([float(i) for i in range(20)])
    assert pct == 50 and value == 9.0
