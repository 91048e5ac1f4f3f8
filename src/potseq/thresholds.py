"""Exact potential-threshold computation by exhaustive sweep.

sigma(target, n) is the least even value l such that every graphical
n-term sequence with degree sum >= l is potentially target-graphic.
The sweep walks every even sum from n(n-1) down to 0, decides every
graphical sequence, and records every failure; the threshold is then
two more than the largest failing sum.  Verdicts for distinct sequences
are independent, so they may be cached on disk between runs, and the
sums may be swept in parallel: one task enumerates and decides one
whole sum, and the parent takes the results back in sum order.  So the
cache is appended once per sum, in the same order, however many
workers run.

The sweep needs answers only, never certificates, so it decides through
``potential_answer``.  When the target is K_{p,1,1} (by its degrees, so a
``--target-file`` copy counts too), every sequence is settled by its
exact closed form: counting, the copy on the largest degrees, a greedy
lay-off of the apexes and one Erdos-Gallai test, with no realization and
no search.  Every other target goes to the general engine.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .errors import CorruptCache, DomainError
from .extremal import sigma_lower_bound
from .potential import TargetPattern, make_kp11, potential_answer
from .sequences import DegreeSequence, enumerate_graphical, format_sequence

__all__ = [
    "SigmaResult",
    "ExactValueReport",
    "VerdictStore",
    "compute_sigma",
    "verify_k311_thresholds",
    "verify_conjectured_sigma",
    "K311_SIGMA_TABLE",
]

# Exact values of sigma(K_{3,1,1}, n) for 5 <= n <= 9; n = 6 sits above
# the 4n - 2 pattern because of the single exceptional sequence 4^6.
K311_SIGMA_TABLE = {5: 18, 6: 26, 7: 26, 8: 30, 9: 34}

# At n = 6 every graphical sequence with sum >= the floor is potentially
# K_{3,1,1}-graphic except 4^6 alone.
K311_N6_EXCEPTION = DegreeSequence((4,) * 6)
K311_N6_EXCEPTION_FLOOR = 22


@dataclass(frozen=True)
class SigmaResult:
    target: TargetPattern
    n: int
    sigma_value: int
    exceptions: tuple[tuple[DegreeSequence, int], ...]
    max_sum_checked: int

    def exceptions_with_sum_at_least(self, floor: int) -> list[DegreeSequence]:
        return [seq for seq, s in self.exceptions if s >= floor]


@dataclass(frozen=True)
class ExactValueReport:
    n: int
    expected: int
    result: SigmaResult
    passed: bool


class VerdictStore:
    """Append-only on-disk cache of potentiality verdicts.

    One file per (target, n); each line is a sequence in text format,
    a space, and a 0/1 verdict.  Loading raises CorruptCache on a line it
    cannot parse or on a second, different verdict for a sequence, so an
    edited cache never changes a result silently; repeated identical
    lines (concurrent appends of the same verdict) are harmless.
    ``put_many`` appends a batch (a sweep's whole sum) with one open;
    ``put`` is a batch of one.  Either has written its lines when it
    returns.
    """

    def __init__(self, root: str | Path, target: TargetPattern, n: int):
        key = target.cache_key.replace(":", "-").replace("/", "-")
        self.path = Path(root) / f"{key}__n{n}.txt"
        self._mem: dict[str, bool] = {}
        if not self.path.exists():
            return
        mem = self._mem
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                text, _, bit = line.partition(" ")
                if bit not in ("0", "1"):
                    raise CorruptCache(f"{self.path}:{lineno}: cannot parse {line!r}")
                verdict = bit == "1"
                if mem.setdefault(text, verdict) != verdict:
                    raise CorruptCache(
                        f"{self.path}:{lineno}: verdict {bit} for {text} "
                        "conflicts with an earlier line"
                    )

    def get(self, text: str) -> bool | None:
        return self._mem.get(text)

    def put(self, text: str, verdict: bool) -> None:
        self.put_many([(text, verdict)])

    def put_many(self, pairs: Iterable[tuple[str, bool]]) -> None:
        """Append every verdict not already stored as given, in order."""
        lines = []
        for text, verdict in pairs:
            if self._mem.get(text) != verdict:
                self._mem[text] = verdict
                lines.append(f"{text} {1 if verdict else 0}\n")
        if not lines:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write("".join(lines))


def _sweep_sum(
    target: TargetPattern, n: int, store: VerdictStore | None, s: int
) -> tuple[int, list[DegreeSequence], list[tuple[str, bool]]]:
    """Enumerate and decide every graphical n-term sequence of sum s.

    Returns (sequences at s, the failing ones, the (text, verdict) pairs
    the store did not hold yet), each in enumeration order.  Only reads
    the store.
    """
    count = 0
    failing: list[DegreeSequence] = []
    new: list[tuple[str, bool]] = []
    for seq in enumerate_graphical(n, s):
        count += 1
        if store is None:
            answer = potential_answer(seq, target)
        else:
            text = format_sequence(seq)
            answer = store.get(text)
            if answer is None:
                answer = potential_answer(seq, target)
                new.append((text, answer))
        if not answer:
            failing.append(seq)
    return count, failing, new


# The pool class, bound on the first sweep with jobs > 1, so a serial run
# never imports multiprocessing.  A caller may bind it first to supply its
# own pool.
ProcessPoolExecutor = None


# A pool worker's copy of the sweep's verdict store, set once per worker
# by the pool's initializer, so no task carries it.
_worker_store: VerdictStore | None = None


def _init_worker(store: VerdictStore | None) -> None:
    global _worker_store
    _worker_store = store


def _worker_sweep_sum(
    target: TargetPattern, n: int, s: int
) -> tuple[int, list[DegreeSequence], list[tuple[str, bool]]]:
    return _sweep_sum(target, n, _worker_store, s)


def compute_sigma(
    target: TargetPattern,
    n: int,
    *,
    jobs: int = 1,
    store: VerdictStore | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> SigmaResult:
    """Sweep every even degree sum from n(n-1) down to 0.

    Returns the threshold plus the full failure profile; every recorded
    exception therefore has sum < sigma_value.  ``progress`` (if given)
    receives (sum, sequences at that sum, failures so far) after each sum.
    ``jobs`` is clamped to the CPU count; with more than one, each pool
    task is one whole sum, and new verdicts reach the store in the
    parent, in sum order.
    """
    global ProcessPoolExecutor
    if n < target.graph.n:
        raise DomainError(
            f"n={n} is smaller than the target's {target.graph.n} vertices"
        )
    max_sum = n * (n - 1)
    sums = range(max_sum, -1, -2)
    failing: list[tuple[DegreeSequence, int]] = []
    jobs = min(jobs, os.cpu_count() or 1)
    executor = None
    if jobs > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(store,)
        )
    try:
        if executor is None:
            results = map(partial(_sweep_sum, target, n, store), sums)
        else:
            results = executor.map(partial(_worker_sweep_sum, target, n), sums)
        for s, (count, fails, new) in zip(sums, results):
            if store:
                store.put_many(new)
            failing.extend((seq, s) for seq in fails)
            if progress:
                progress(s, count, len(failing))
    finally:
        if executor is not None:
            # Every sum was submitted up front; an error stops the sums
            # not yet started rather than waiting for them.
            executor.shutdown(cancel_futures=True)
    sigma_value = failing[0][1] + 2 if failing else 0
    return SigmaResult(target, n, sigma_value, tuple(failing), max_sum)


def verify_k311_thresholds(
    n: int,
    *,
    jobs: int = 1,
    store: VerdictStore | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> ExactValueReport:
    """Check the exact sigma(K_{3,1,1}, n) table entry by full sweep.

    For n = 6 the report only passes when the sweep also shows 4^6 as the
    single failure among sums >= 22.
    """
    if n not in K311_SIGMA_TABLE:
        raise DomainError(f"exact values are tabulated for n in 5..9, not {n}")
    result = compute_sigma(make_kp11(3), n, jobs=jobs, store=store, progress=progress)
    expected = K311_SIGMA_TABLE[n]
    passed = result.sigma_value == expected
    if n == 6:
        high = result.exceptions_with_sum_at_least(K311_N6_EXCEPTION_FLOOR)
        passed = passed and high == [K311_N6_EXCEPTION]
    return ExactValueReport(n, expected, result, passed)


def verify_conjectured_sigma(
    p: int,
    n: int,
    *,
    max_n: int = 9,
    jobs: int = 1,
    store: VerdictStore | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> bool:
    """Does the computed sigma(K_{p,1,1}, n) equal sigma_lower_bound(p, n)?

    Restricted to p >= 1 and n >= 2p + 4, where equality is expected;
    ``max_n`` guards against accidentally huge sweeps and can be raised
    explicitly.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    if n < 2 * p + 4:
        raise DomainError(f"n must be >= 2p + 4 = {2 * p + 4}")
    if n > max_n:
        raise DomainError(
            f"n={n} exceeds max_n={max_n}; pass a larger max_n to run anyway"
        )
    result = compute_sigma(make_kp11(p), n, jobs=jobs, store=store, progress=progress)
    return result.sigma_value == sigma_lower_bound(p, n)
