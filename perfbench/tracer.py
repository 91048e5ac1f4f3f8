"""Spans around the public calls into each potseq layer.

The wrappers live here, outside the package: ``install`` replaces each
traced function at every module that imported it (``potseq.thresholds.
is_potentially``, ``potseq.witness.realize``, ...), and the traced
methods on their classes.  Spans are kept in flat arrays in memory and
written out once, after the traced work has finished.

A span's self time is its duration minus the durations of its direct
children; the code under test is single-threaded, so children never
overlap.  Pool workers are not traced: a forked worker turns its copy of
the tracer off, so worker-side layers read zero on ``--jobs 2`` runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.on = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.outcomes: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        os.register_at_fork(after_in_child=self.stop)

    def stop(self) -> None:
        self.on = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, outcome=None):
        """A function that records one span per call of fn.  ``outcome``
        (result -> bool) counts the useful results of the layer."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.outcomes[name] = self.outcomes.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Like wrap, but one span per next() of the returned iterator;
        ``counts[name]`` is the number of items produced."""
        step = self.wrap(next, name)
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, outcomes."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        for name, row in out.items():
            row["outcomes"] = self.outcomes.get(name, 0)
            row["count"] = self.counts.get(name, 0)
        return out

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _is_some(result) -> bool:
    return result is not None


def install(tracer: Tracer) -> None:
    """Wrap every traced layer at every potseq module that refers to it.
    The package must already be imported (``import potseq.cli`` pulls in
    every module)."""
    import potseq.cli
    from potseq import graphs, potential, sequences, thresholds, witness

    functions = [
        (sequences.format_sequence, "sequences.format", None),
        (sequences.is_graphical, "sequences.is_graphical", None),
        (graphs.realize, "graphs.realize", None),
        (graphs.degree_sequence, "graphs.edit", None),
        (potential.contains_subgraph, "potential.contains", _is_some),
        (potential.is_potentially, "potential.decide", lambda v: v.answer),
        (potential.realize_with_forced_edges, "potential.forced", _is_some),
        (potential.certificate_errors, "potential.certificate", None),
        (thresholds.compute_sigma, "thresholds.sweep", None),
        (witness.find_k311_realization, "witness.find", None),
        (witness.reattach, "witness.reattach", None),
        (witness.interchange, "witness.interchange", None),
        (potseq.cli.dispatch, "cli.dispatch", None),
    ]
    replacements = {id(fn): tracer.wrap(fn, name, outcome) for fn, name, outcome in functions}
    enum = sequences.enumerate_graphical
    replacements[id(enum)] = tracer.wrap_generator(enum, "sequences.enumerate")
    for modname, module in list(sys.modules.items()):
        if modname != "potseq" and not modname.startswith("potseq."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in replacements:
                setattr(module, attr, replacements[id(value)])

    methods = [
        (graphs.SimpleGraph, "remove_vertex", "graphs.edit", None),
        (graphs.SimpleGraph, "add_vertex", "graphs.edit", None),
        (thresholds.VerdictStore, "__init__", "thresholds.store.load", None),
        (thresholds.VerdictStore, "get", "thresholds.store.get", _is_some),
        (thresholds.VerdictStore, "put", "thresholds.store.put", None),
    ]
    for cls, attr, name, outcome in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, outcome))

    class TracedPool(ProcessPoolExecutor):
        """The sweep's pool; the parent's time inside it is pool wait."""

        def map(self, fn, *iterables, **kwargs):
            items = list(zip(*iterables))
            tasks = tracer.counts.get("thresholds.pool.tasks", 0)
            tracer.counts["thresholds.pool.tasks"] = tasks + len(items)
            submit = tracer.wrap(super().map, "thresholds.pool")
            results = submit(fn, *zip(*items), **kwargs)
            return tracer.wrap_generator(lambda: results, "thresholds.pool")()

        def shutdown(self, *args, **kwargs):
            return tracer.wrap(super().shutdown, "thresholds.pool")(*args, **kwargs)

    thresholds.ProcessPoolExecutor = TracedPool
