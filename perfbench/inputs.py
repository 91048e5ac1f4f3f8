"""Workload inputs and output checks that share no code with potseq.

Everything here is stdlib-only and independent of the package under
test: the degree-sequence generators use their own Erdos-Gallai test,
and the witness checker re-derives degrees and containment from the raw
edge set instead of calling ``certificate_errors``.
"""

from __future__ import annotations

import random

# K_{3,3} in the graph text format: parts {0, 1, 2} and {3, 4, 5}.
K33_TEXT = "6 9\n" + "".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6))

# The five K_{3,1,1} edges on target vertices 0..4 (0 and 1 are the apexes).
K311_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))

# Lengths of the seeded long witness inputs, per family.  The ladders are
# fixed so that the cost of a batch does not depend on the seed; the seed
# only draws the degrees.  K_5 chains from n ~ 505 up raise RecursionError
# at the seed commit and are kept on purpose.  Eight chains at n = 350
# sit just below the four slowest inputs, so the latency tail (the 11th
# slowest call) is an order statistic of eight like calls of about half
# a second, not one short call caught in a burst of host contention.
# Random 1..8 sequences cost O(n^3) in the seeded completion (about 3 s
# at n = 400), so that family stops at 250 to keep one run near ten
# seconds.
LONG_LADDERS = {
    "k5_chain": (100, 200, *[350] * 8, 400, 550, 600),
    "random_1_8": (100, 150, 250),
    "random_3_6": (100, 200, 300, 400, 500, 600),
}
SMOKE_LADDERS = {
    "k5_chain": (20, 30),
    "random_1_8": (20, 30),
    "random_3_6": (20, 30),
}


def graphical(terms: list[int] | tuple[int, ...]) -> bool:
    """Erdos-Gallai on a non-increasing sequence, every k checked."""
    n = len(terms)
    if sum(terms) % 2 or (terms and (terms[0] >= n or terms[-1] < 0)):
        return False
    left = 0
    for k in range(1, n + 1):
        left += terms[k - 1]
        right = k * (k - 1) + sum(min(d, k) for d in terms[k:])
        if left > right:
            return False
    return True


def _partitions(total: int, length: int, cap: int):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * length < total:
            break
        for rest in _partitions(total - first, length - 1, first):
            yield (first, *rest)


def graphical_sequences(n: int, min_sum: int = 0) -> list[tuple[int, ...]]:
    """Every graphical n-term sequence with even sum >= min_sum."""
    out = []
    for s in range(max(0, min_sum + min_sum % 2), n * (n - 1) + 1, 2):
        out.extend(p for p in _partitions(s, n, n - 1) if graphical(p))
    return out


def qualifying_sequences(n: int) -> list[tuple[int, ...]]:
    """Every input find_k311_realization accepts at length n."""
    return [t for t in graphical_sequences(n, 4 * n - 2) if t != (4,) * 6]


def _k5_chain(rng: random.Random, n: int) -> tuple[int, ...]:
    """K_5 plus n - 5 vertices of degree 2, each joined to two hubs; the
    seed splits the 2(n - 5) hub-side endpoints among the five hubs.
    Degree sum 4n, and every split-off step removes a degree-2 vertex."""
    m = n - 5
    while True:
        cuts = sorted(rng.randint(0, 2 * m) for _ in range(4))
        extra = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * m])]
        if max(extra) <= m:
            return tuple(sorted((4 + x for x in extra), reverse=True)) + (2,) * m


def _uniform(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """Degrees drawn uniformly from lo..hi, redrawn until qualifying."""
    while True:
        terms = [rng.randint(lo, hi) for _ in range(n)]
        if sum(terms) % 2:
            terms[0] += 1 if terms[0] < hi else -1
        terms.sort(reverse=True)
        if sum(terms) >= 4 * n - 2 and graphical(terms):
            return tuple(terms)


def long_sequences(seed: int, ladders: dict[str, tuple[int, ...]]) -> list[dict]:
    """The seeded batch of long witness inputs, one family after another."""
    rng = random.Random(seed)
    make = {
        "k5_chain": _k5_chain,
        "random_1_8": lambda r, n: _uniform(r, n, 1, 8),
        "random_3_6": lambda r, n: _uniform(r, n, 3, 6),
    }
    return [
        {"family": fam, "n": n, "terms": list(make[fam](rng, n))}
        for fam, lengths in ladders.items()
        for n in lengths
    ]


def witness_problems(terms, n: int, edges, embedding: dict[int, int]) -> list[str]:
    """Why (edges, embedding) is not a realization of terms containing
    K_{3,1,1}; empty when it is one."""
    problems = []
    seen = set()
    degs = [0] * n
    for u, v in edges:
        if not (0 <= u < v < n) or (u, v) in seen:
            problems.append(f"bad or repeated edge ({u}, {v})")
            continue
        seen.add((u, v))
        degs[u] += 1
        degs[v] += 1
    if sorted(degs, reverse=True) != list(terms):
        problems.append("degrees differ from the input sequence")
    images = [embedding.get(h) for h in range(5)]
    if None in images or len(set(images)) != 5 or len(embedding) != 5:
        problems.append("embedding is not an injection of the five target vertices")
        return problems
    for a, b in K311_EDGES:
        u, v = sorted((images[a], images[b]))
        if (u, v) not in seen:
            problems.append(f"target edge ({a}, {b}) is missing")
    return problems
