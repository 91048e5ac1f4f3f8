"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs once untraced and once traced with ``--size smoke``
(n = 6 sweeps, the 101 qualifying 7-term witnesses plus six short seeded
ones), and every metric BENCHMARK.json names must appear with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == named
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_layer_self_times_cover_the_traced_sweep():
    result = json.loads(run_bench(ROOT, "sweep_k311", 1).stdout.strip().splitlines()[-1])
    assert 0.95 < result["metrics"]["trace.coverage_ratio"]["value"] <= 1.0
    assert result["metrics"]["sequences.enumerate.count"]["value"] == 102


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
