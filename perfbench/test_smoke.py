"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root (it is not part of the package test suite):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_reports_every_listed_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace:
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
        assert result["metrics"]["fv.gmres_iters"]["value"] > 0


def test_configs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
        assert workloads.make_config(name, 7) != workloads.make_config(name, 8)
    model = workloads.make_config("keulegan-both", 11)["model"]
    assert 0.4 <= model["tilt"] <= 0.5 and 0.04 <= model["pump_rate"] <= 0.06


def test_library_check_flags_negative_values(tmp_path):
    raw = workloads.make_config("generic-large", 3, tiny=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    config, spec = workloads.setup("generic-large", path)
    result = workloads.run_workload("generic-large", config, spec, tmp_path)
    assert workloads.check_outputs("generic-large", raw, config, spec, result, tmp_path) == []
    result.minmax[1, -1, 1] = -1e-6
    assert "positivity floor" in workloads.check_outputs(
        "generic-large", raw, config, spec, result, tmp_path)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli-generic", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
