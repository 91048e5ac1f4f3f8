"""One timed run in a fresh interpreter, started by run.py.

    child.py cli RESULT SPANS -- ARGV...
        the potseq CLI with every layer traced; stdout is the CLI's own.
    child.py witness RESULT SPANS INPUTS
        find_k311_realization once per input, each call timed and then its
        result re-checked; SPANS is "-" for an untraced run.

The environment variable PERFBENCH_SPAWNED holds the parent's
time.monotonic() just before it started this process, so ``import_s``
covers interpreter start-up plus the import of potseq.cli, as a user of
the CLI pays it.  RESULT receives a JSON object.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from collections import Counter

import inputs
import tracer as tracing


def _import_cli(spawned: float) -> float:
    import potseq.cli  # noqa: F401

    return time.monotonic() - spawned


def _start_tracer(spans: str) -> tracing.Tracer | None:
    if spans == "-":
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _finish(tracer: tracing.Tracer | None, spans: str, out: dict) -> None:
    if tracer is not None:
        tracer.stop()
        out["layers"] = tracer.summary()
        out["counts"] = tracer.counts
        tracer.write(spans)


def run_cli(spawned: float, spans: str, argv: list[str]) -> dict:
    import_s = _import_cli(spawned)
    import potseq.cli

    tracer = _start_tracer(spans)
    sys.argv = ["potseq", *argv]
    try:
        potseq.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    # wall_s runs from the spawn, so the spans plus import_s should cover it.
    out = {"code": code, "import_s": import_s, "wall_s": time.monotonic() - spawned,
           "wall_has_import": True}
    _finish(tracer, spans, out)
    return out


STEP_KEYS = {
    "BaseCaseStep": "base",
    "AttachStep": "split",
    "SeededCliqueStep": "seeded",
    "EarlyContainmentStep": "early",
    "FallbackStep": "fallback",
}


def run_witness(spawned: float, spans: str, inputs_path: str) -> dict:
    import_s = _import_cli(spawned)
    from potseq import witness
    from potseq.sequences import DegreeSequence

    with open(inputs_path) as fh:
        data = json.load(fh)
    # The long inputs are spread evenly among the short ones, so that both
    # kinds are sampled across the whole run rather than in one stretch of
    # the host's changing speed.
    items = [("short", t) for t in data["short"]]
    gap = len(items) // (len(data["long"]) + 1)
    for j in reversed(range(len(data["long"]))):
        d = data["long"][j]
        items.insert((j + 1) * gap, (d["family"], d["terms"]))
    seqs = [DegreeSequence(tuple(terms)) for _, terms in items]
    # The inputs live for the whole run; keep them out of the collector's
    # full passes, which would otherwise take longer than they do for a
    # caller holding one sequence.
    gc.collect()
    gc.freeze()

    tracer = _start_tracer(spans)
    latencies = [0.0] * len(seqs)
    errors: Counter[str] = Counter()
    family_failures: Counter[str] = Counter()
    steps: Counter[str] = Counter()
    wrong = 0
    depth = 0
    clock = time.perf_counter
    cpu = 0.0
    for i, ((family, terms), seq) in enumerate(zip(items, seqs)):
        cpu0 = time.process_time()
        t = clock()
        try:
            res = witness.find_k311_realization(seq)
        except Exception as exc:  # every failure is tallied by class
            res = exc
        latencies[i] = clock() - t
        cpu += time.process_time() - cpu0
        # The check runs between the timed calls, untraced.
        if tracer is not None:
            tracer.on = False
        if isinstance(res, Exception):
            errors[type(res).__name__] += 1
            family_failures[family] += 1
        else:
            g = res.graph
            bad = inputs.witness_problems(terms, g.n, g.edges, res.embedding)
            if bad or witness.replay_trace(res.trace) != g:
                wrong += 1
                family_failures[family] += 1
            for step in res.trace:
                kind = type(step).__name__
                steps[f"interchange{step.case}" if kind == "InterchangeStep" else STEP_KEYS[kind]] += 1
            depth = max(depth, 1 + sum(type(s).__name__ == "AttachStep" for s in res.trace))
        if tracer is not None:
            tracer.on = True
    wall = sum(latencies)

    out = {
        "import_s": import_s,
        "wall_s": wall,
        "wall_has_import": False,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "attempted": len(seqs),
        "certified": len(seqs) - sum(errors.values()) - wrong,
        "wrong": wrong,
        "errors": dict(errors),
        "families": dict(Counter(family for family, _ in items)),
        "family_failures": dict(family_failures),
        "steps": dict(steps),
        "depth_max": depth,
    }
    _finish(tracer, spans, out)
    return out


def main() -> None:
    mode, result, spans = sys.argv[1:4]
    rest = sys.argv[4:]
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    if mode == "cli":
        out = run_cli(spawned, spans, rest[1:] if rest[:1] == ["--"] else rest)
    else:
        out = run_witness(spawned, spans, rest[0])
    with open(result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
