"""potseq benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Each timed run is a fresh interpreter (a child process), so no cache in
the package carries over from one timed run to the next.  The run repeats
its timed job while the next repetition still fits in ``--seconds`` (at
least once) and reports medians.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` times one untraced and one traced repetition and
prints the per-layer metrics.  The last stdout line is the result object;
the line before it holds details (repetitions, sample counts, the tail
percentile, failures by class).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PY = sys.executable or "python3"
CHILD_TIMEOUT_S = 150
SETUP_REPS = 5

# Pinned outputs at the seed commit.  Stdout must stay byte-identical, so
# the digest covers every exception line; sigma and the exception count
# are also checked on their own to make a mismatch readable.
# sequences: graphical n-term sequences over all sums, the sweep's work.
SWEEPS = {
    "kp11": {
        "full": {"n": 11, "sigma": 42, "exceptions": 947, "sequences": 59348,
                 "sha256": "2317b31299822b21579db4ac12450cd6ad7c200175d3cbf136a463599d7e38b4"},
        "smoke": {"n": 6, "sigma": 26, "exceptions": 67, "sequences": 102,
                  "sha256": "176b171042876c4859b00b4c809a0db1be3354ca303eebb998eefd80c9520a4f"},
    },
    "k33": {
        "full": {"n": 9, "sigma": 44, "exceptions": 1199, "sequences": 4361,
                 "sha256": "45fd1374322b3e89d9482dd45756c8c1a343614448dcadee62374fc92897fad2"},
        "smoke": {"n": 6, "sigma": 26, "exceptions": 92, "sequences": 102,
                  "sha256": "61f2ef02606844d043a50c91e5e388696e76448ce43804dd6ea382cb0d950096"},
    },
}
WITNESS = {
    "full": {"short_n": 10, "short_count": 11750, "ladders": inputs.LONG_LADDERS},
    "smoke": {"short_n": 7, "short_count": 101, "ladders": inputs.SMOKE_LADDERS},
}

UNITS = {"setup_s": "s", "wall_s": "s", "seq_per_s": "1/s", "cpu_s": "s",
         "peak_rss_mb": "MB", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}


class Run:
    """State of one benchmark run: its scratch directory, the child
    environment, and the tallies that end up in the result line."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = size
        self.work = RUNS / f"{workload}-{os.getpid()}"
        self.spans_dir = RUNS / "spans"
        self.env = {k: v for k, v in os.environ.items() if k != "POTSEQ_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.detail: dict = {"workload": workload, "seed": seed, "size": size}

    # -------------------------------------------------------------- helpers

    def path(self, name: str) -> Path:
        return self.work / name

    def spawn(self, argv: list[str], stdout: Path | None = None) -> dict:
        """Run a child to completion; wall time from just before the spawn
        to its reaping, CPU and peak RSS of it and its reaped children."""
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(self.path("stderr.txt"), "ab")
        try:
            spawned = time.monotonic()
            env = dict(self.env, PERFBENCH_SPAWNED=repr(spawned))
            proc = subprocess.Popen([PY, *argv], cwd=ROOT, env=env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout:
                out.close()
            err.close()
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024}

    def fail(self, problem: str) -> None:
        """Record a failed operation whose output is wrong or unchecked;
        that makes the run incorrect."""
        self.failed += 1
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(problem)

    def setup(self, build) -> float:
        """Median over SETUP_REPS of: a fresh interpreter importing
        potseq.cli, plus ``build()`` making this workload's inputs."""
        times = []
        for _ in range(SETUP_REPS):
            started = time.monotonic()
            probe = self.spawn(["-c", "import potseq.cli"])
            if probe["code"] != 0:
                raise SystemExit(f"cannot import potseq.cli from {SRC}")
            build()
            times.append(time.monotonic() - started)
        self.detail["setup_reps"] = len(times)
        return statistics.median(times)

    def repeat(self, one) -> list:
        """Call one() while another call still fits in the time budget."""
        reps = []
        started = time.monotonic()
        while True:
            reps.append(one())
            elapsed = time.monotonic() - started
            self.detail.setdefault("rep_wall_s", []).append(reps[-1]["wall_s"])
            if elapsed + elapsed / len(reps) > self.seconds:
                return reps


# ------------------------------------------------------------------ sweeps


def sweep_argv(run: Run, pin: dict, target: str, jobs: int, cache: Path | None) -> list[str]:
    argv = []
    if cache is not None:
        argv += ["--cache-dir", str(cache)]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    argv += ["sigma", "compute"]
    if target == "kp11":
        argv += ["--target", "kp11:3"]
    else:
        argv += ["--target-file", str(run.path("k33.txt"))]
    return argv + ["--n", str(pin["n"])]


def check_sweep(run: Run, pin: dict, stdout: bytes, code: int, label: str) -> None:
    run.attempted += 1
    text = stdout.decode(errors="replace")
    fields = dict(line.split(": ", 1) for line in text.splitlines()[:5] if ": " in line)
    if code != 0:
        run.fail(f"{label}: exit code {code}")
    elif fields.get("sigma") != str(pin["sigma"]):
        run.fail(f"{label}: sigma {fields.get('sigma')} != {pin['sigma']}")
    elif fields.get("exceptions") != str(pin["exceptions"]):
        run.fail(f"{label}: {fields.get('exceptions')} exceptions != {pin['exceptions']}")
    elif hashlib.sha256(stdout).hexdigest() != pin["sha256"]:
        run.fail(f"{label}: stdout differs from the pinned serial output")


def cache_bytes(cache: Path | None) -> int:
    if cache is None or not cache.exists():
        return 0
    return sum(p.stat().st_size for p in cache.iterdir())


def run_sweep(run: Run, target: str, jobs: int, cached: bool) -> dict:
    pin = SWEEPS[target][run.size]
    uses_cache = target == "kp11"
    counter = iter(range(1, 1_000_000))

    def fresh_cache() -> Path | None:
        if not uses_cache:
            return None
        path = run.path(f"cache{next(counter)}")
        if cached:
            shutil.copytree(run.path("warm"), path)
        else:
            path.mkdir()
        return path

    def build() -> None:
        if target == "k33":
            run.path("k33.txt").write_text(inputs.K33_TEXT)
        if cached:
            # Each timed run reads its own copy; set-up pays for one copy.
            shutil.rmtree(fresh_cache())

    if cached:
        # The cache the timed runs read is written by a cold serial sweep
        # of this same checkout; its stdout is the reference for them.
        cold = run.spawn(["-c", "from potseq.cli import main; main()",
                          *sweep_argv(run, pin, target, 1, run.path("warm"))],
                         stdout=run.path("cold.txt"))
        check_sweep(run, pin, run.path("cold.txt").read_bytes(), cold["code"], "cold sweep")
        run.detail["cold_sweep_wall_s"] = cold["wall_s"]
    setup_s = run.setup(build)

    def untraced() -> dict:
        cache = fresh_cache()
        out = run.path("stdout.txt")
        res = run.spawn(["-c", "from potseq.cli import main; main()",
                         *sweep_argv(run, pin, target, jobs, cache)], stdout=out)
        stdout = out.read_bytes()
        check_sweep(run, pin, stdout, res["code"], "sweep")
        if cached and stdout != run.path("cold.txt").read_bytes():
            run.fail("cached sweep: stdout differs from the cold sweep's")
        return res

    def traced(jobs: int, label: str) -> dict:
        cache = fresh_cache()
        out = run.path("stdout.txt")
        spans = run.spans_dir / f"{run.workload}{label}.spans"
        res_path = run.path("child.json")
        res = run.spawn(["perfbench/child.py", "cli", str(res_path), str(spans),
                         "--", *sweep_argv(run, pin, target, jobs, cache)], stdout=out)
        stdout = out.read_bytes()
        check_sweep(run, pin, stdout, res["code"], f"traced sweep{label}")
        child = json.loads(res_path.read_text()) if res["code"] == 0 else {}
        child.update(stdout_bytes=len(stdout), cache_bytes=cache_bytes(cache))
        return child

    if not run.trace:
        reps = run.repeat(untraced)
        walls = [r["wall_s"] for r in reps]
        wall = statistics.median(walls)
        return end_to_end(run, setup_s, walls, wall, pin["sequences"] / wall,
                          statistics.median(r["cpu_s"] for r in reps),
                          max(r["rss_mb"] for r in reps))

    plain = untraced()
    child = traced(jobs, "")
    layers = per_layer(child, plain["wall_s"])
    if jobs > 1:
        # Workers are not traced, so the decide time the pool spreads over
        # its workers comes from a traced serial sweep of the same problem.
        serial = traced(1, "-serial")
        decide_s = serial.get("layers", {}).get("potential.decide", {}).get("total_s", 0.0)
        layers["thresholds.pool.efficiency"] = decide_s / (jobs * plain["wall_s"])
        run.detail["pool_efficiency_bases"] = {
            "serial_decide_s": decide_s, "jobs": jobs, "jobs_wall_s": plain["wall_s"]}
    return layers


# ----------------------------------------------------------------- witness


def run_witness_workload(run: Run) -> dict:
    spec = WITNESS[run.size]
    data_path = run.path("witness_inputs.json")

    def build() -> None:
        short = inputs.qualifying_sequences(spec["short_n"])
        if len(short) != spec["short_count"]:
            raise SystemExit(f"expected {spec['short_count']} short inputs, built {len(short)}")
        long = inputs.long_sequences(run.seed, spec["ladders"])
        data_path.write_text(json.dumps({"short": short, "long": long}))

    setup_s = run.setup(build)

    def one(traced: bool) -> dict:
        res_path = run.path("child.json")
        spans = str(run.spans_dir / f"{run.workload}.spans") if traced else "-"
        res = run.spawn(["perfbench/child.py", "witness", str(res_path), spans,
                         str(data_path)])
        if res["code"] != 0:
            raise SystemExit(f"witness child exited with {res['code']}")
        child = json.loads(res_path.read_text())
        child["rss_mb"] = res["rss_mb"]
        run.attempted += child["attempted"]
        run.failed += sum(child["errors"].values())
        for _ in range(child["wrong"]):
            run.fail("witness failed the independent check or its trace replay")
        run.detail.update(failures_by_class=child["errors"],
                          failures_by_family=child["family_failures"],
                          inputs_per_family=child["families"])
        return child

    if not run.trace:
        reps = run.repeat(lambda: one(False))
        walls = [r["wall_s"] for r in reps]
        wall = statistics.median(walls)
        certified = statistics.median(r["certified"] for r in reps)
        latencies = [x for r in reps for x in r["latencies_s"]]
        return end_to_end(run, setup_s, latencies, wall, certified / wall,
                          statistics.median(r["cpu_s"] for r in reps),
                          max(r["rss_mb"] for r in reps))

    plain = one(False)
    child = one(True)
    return per_layer(child, plain["wall_s"])


# ----------------------------------------------------------------- metrics


def end_to_end(run: Run, setup_s: float, samples: list[float], wall: float,
               rate: float, cpu: float, rss: float) -> dict:
    """The end-to-end metrics.  ``samples`` are per-operation latencies in
    seconds: one per call for the witness workload, one per sweep else."""
    ordered = sorted(samples)
    count = len(ordered)
    if count > 10:
        tail, pct = ordered[count - 11], 100.0 * (count - 10) / count
    else:
        tail, pct = ordered[-1], 100.0
    run.detail.update(latency_samples=count, latency_tail_percentile=pct,
                      fail_ratio=run.failed / max(run.attempted, 1))
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "seq_per_s": rate,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "latency_p50_ms": 1000 * statistics.median(ordered),
        "latency_tail_ms": 1000 * tail,
    }


PER_LAYER_SPANS = {
    "sequences.format": ("calls", "self_s"),
    "sequences.is_graphical": ("calls", "self_s"),
    "graphs.realize": ("calls", "self_s"),
    "graphs.edit": ("calls", "self_s"),
    "potential.contains": ("calls", "self_s"),
    "potential.decide": ("calls", "self_s"),
    "potential.forced": ("calls", "self_s"),
    "potential.certificate": ("self_s",),
    "thresholds.store.get": ("calls", "self_s"),
    "thresholds.store.put": ("calls", "self_s"),
    "thresholds.sweep": ("self_s",),
    "witness.find": ("self_s",),
    "witness.reattach": ("self_s",),
    "witness.interchange": ("self_s",),
    "cli.dispatch": ("self_s",),
}
RATIOS = {
    "potential.contains.hit_ratio": "potential.contains",
    "potential.decide.positive_ratio": "potential.decide",
    "potential.forced.success_ratio": "potential.forced",
    "thresholds.store.get.hit_ratio": "thresholds.store.get",
}


def per_layer(child: dict, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced child; every name is present,
    zero where the workload does not reach the layer."""
    rows = child.get("layers", {})
    counts = child.get("counts", {})
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "outcomes": 0}
    out: dict[str, float] = {}
    for name, fields in PER_LAYER_SPANS.items():
        for f in fields:
            out[f"{name}.{f}"] = rows.get(name, zero)[f]
    for metric, name in RATIOS.items():
        row = rows.get(name, zero)
        out[metric] = row["outcomes"] / row["calls"] if row["calls"] else 0.0
    out["sequences.enumerate.count"] = counts.get("sequences.enumerate", 0)
    out["sequences.enumerate.self_s"] = rows.get("sequences.enumerate", zero)["self_s"]
    out["thresholds.store.load_s"] = rows.get("thresholds.store.load", zero)["self_s"]
    out["thresholds.pool.tasks"] = counts.get("thresholds.pool.tasks", 0)
    out["thresholds.pool.wait_s"] = rows.get("thresholds.pool", zero)["self_s"]
    out["thresholds.pool.efficiency"] = 0.0
    out["thresholds.store.bytes"] = child.get("cache_bytes", 0)
    out["cli.import_s"] = child.get("import_s", 0.0)
    out["cli.stdout_bytes"] = child.get("stdout_bytes", 0)
    steps = child.get("steps", {})
    for key in ("base", "split", "seeded", "early", "interchange1", "interchange2", "fallback"):
        out[f"witness.steps.{key}"] = steps.get(key, 0)
    out["witness.depth.max"] = child.get("depth_max", 0)
    traced_wall = child.get("wall_s", 0.0)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    # Self times of every span (plus the start-up before them, when the
    # wall time includes it) over the traced wall time: 1.0 when the
    # layers account for the whole run.
    covered = sum(row["self_s"] for row in rows.values())
    if child.get("wall_has_import"):
        covered += out["cli.import_s"]
    out["trace.coverage_ratio"] = covered / traced_wall if traced_wall else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".efficiency")):
        return "ratio"
    if name.endswith(".bytes") or name.endswith("_bytes"):
        return "bytes"
    return "count"


# -------------------------------------------------------------------- main

WORKLOADS = {
    "sweep_k311": lambda run: run_sweep(run, "kp11", jobs=1, cached=False),
    "sweep_k311_jobs2": lambda run: run_sweep(run, "kp11", jobs=2, cached=False),
    "sweep_k311_cached": lambda run: run_sweep(run, "kp11", jobs=1, cached=True),
    "sweep_k33_file": lambda run: run_sweep(run, "k33", jobs=1, cached=False),
    "witness_k311": run_witness_workload,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: n = 6 sweeps and a few witnesses, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "potseq" / "cli.py").is_file():
        print(f"no potseq sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    run.spans_dir.mkdir(exist_ok=True)
    try:
        run.spawn(["-c", "import potseq.cli"])  # writes the byte-code caches
        values = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.problems:
        run.detail["problems"] = run.problems
    if run.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    print(json.dumps({"detail": run.detail}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
