"""Record a baseline: every workload on ten seeds, plus one traced run.

    python3 perfbench/baseline/record.py perfbench/baseline/BENCH_seed.json

Run from the repository root.  For each workload and end-to-end metric
it stores the ten values, their median and the spread (the distance
between the first and third quartiles over the median, from
statistics.quantiles(values, n=4)).  It also stores the machine, the
commit, and in-process compute_sigma(kp11:3, n) times at n = 9, 10, 11,
which are comparable to the ad-hoc figures in ROADMAP.md.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)

SIGMA_TIMER = """
import sys, time
from potseq.potential import make_kp11
from potseq.thresholds import compute_sigma
t = time.perf_counter()
compute_sigma(make_kp11(3), int(sys.argv[1]))
print(time.perf_counter() - t)
"""


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    target = Path(sys.argv[1])
    record = {"commit": commit(), "machine": machine(),
              "run_seconds": BENCH["run_seconds"], "workloads": {}}
    for w in BENCH["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, 0) for seed in SEEDS]
        metrics = {}
        for m in BENCH["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                  "spread": (q3 - q1) / statistics.median(values),
                                  "bound": m["bound"], "values": values}
        traced = bench(name, 1, 1)
        record["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "end_to_end": metrics,
            "detail_seed1": runs[0]["detail"],
            "per_layer_seed1": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_detail_seed1": traced["detail"],
        }
        print(name, {k: round(v["spread"], 4) for k, v in metrics.items()}, flush=True)
    env = {k: v for k, v in os.environ.items() if k != "POTSEQ_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    record["in_process_compute_sigma_s"] = {
        n: float(subprocess.run([sys.executable, "-c", SIGMA_TIMER, str(n)], env=env,
                                capture_output=True, text=True, check=True).stdout)
        for n in (9, 10, 11)
    }
    record["roadmap_compute_sigma_s"] = {"9": 0.52, "10": 1.84, "11": 8.2}
    target.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
