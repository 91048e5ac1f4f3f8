"""Labeled simple graphs: adjacency, realization, text format, canonical form.

The text format is one header line ``n m`` followed by m lines ``u v``
with 0-based endpoints, u < v, sorted lexicographically.

``realize`` and the witness's split-off chain share one bucketed
Havel-Hakimi primitive, ``_havel_hakimi``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, permutations, product
from operator import neg

from .errors import DomainError, NotGraphical
from .sequences import DegreeSequence, is_graphical

Edge = tuple[int, int]

__all__ = [
    "SimpleGraph",
    "degree_sequence",
    "realize",
    "graph_to_text",
    "graph_from_text",
    "graph_from_masks",
    "canonical_form",
]


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise DomainError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices ``0..n-1`` with a frozen edge set."""

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError("vertex count must be non-negative")
        norm = set()
        for u, v in self.edges:
            u, v = _norm_edge(u, v)
            if not 0 <= u < v < self.n:
                raise DomainError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
            norm.add((u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def complete(cls, k: int) -> SimpleGraph:
        return cls(k, frozenset(combinations(range(k), 2)))

    @classmethod
    def cycle(cls, k: int) -> SimpleGraph:
        if k < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        return cls(k, frozenset(_norm_edge(i, (i + 1) % k) for i in range(k)))

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return {u + w - v for u, w in self.edges if v in (u, w)}

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def remove_vertex(self, v: int) -> SimpleGraph:
        """Drop vertex v; vertices above v shift down by one."""
        self._check_vertex(v)
        edges = {
            (a - (a > v), b - (b > v))
            for a, b in self.edges
            if v not in (a, b)
        }
        return SimpleGraph(self.n - 1, frozenset(edges))

    def add_vertex(self, neighbors: Iterable[int]) -> SimpleGraph:
        """Append vertex n joined to the given distinct existing vertices."""
        new = self.n
        extra = set()
        for u in neighbors:
            self._check_vertex(u)
            if (u, new) in extra:
                raise DomainError(f"duplicate attachment to vertex {u}")
            extra.add((u, new))
        return SimpleGraph(self.n + 1, self.edges | extra)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} outside range 0..{self.n - 1}")


def degree_sequence(g: SimpleGraph) -> DegreeSequence:
    """The graph's degree multiset as a canonical sequence."""
    return DegreeSequence(tuple(g.degrees()))


def realize(seq: DegreeSequence) -> SimpleGraph:
    """Havel-Hakimi realization: vertex i gets the i-th largest degree.

    The edges are those of ``_havel_hakimi``'s lay-offs, so the output is
    reproducible.
    """
    if not is_graphical(seq):
        raise NotGraphical(f"{seq} is not graphical")
    pairs = ((u, v) for u, joined in _havel_hakimi(seq.terms) for v in joined)
    return SimpleGraph(len(seq), frozenset(pairs))


def _havel_hakimi(terms: tuple[int, ...]) -> Iterator[tuple[int, list[int]]]:
    """The Havel-Hakimi lay-offs of a graphical non-increasing sequence.

    Each lay-off takes the slot with the highest residual (the lowest slot
    on ties) and joins it to as many of the next-highest residuals (again
    lowest slots first); it yields that slot and the slots it joined.
    Positive residuals live in per-value buckets of slots, so a lay-off
    visits only the values present.  A bucket starts as a contiguous
    range and stays an ascending list, read from a head offset, while the
    slots moved into it land above its last one, so a lay-off slices its
    lowest slots and appends the moved ones.  The first move that would
    interleave turns the bucket into a min-heap, which costs O(log n) per
    slot from then on.  A caller may stop early: the lay-offs that
    saturate the last slot give its neighbours in ``realize``.
    """
    # buckets[d] = [head, slots]: the live slots are slots[head:] while
    # head >= 0, and the whole heap slots once head is -1.
    buckets: dict[int, list] = {}
    start = 0
    while start < len(terms) and terms[start]:
        end = bisect_right(terms, -terms[start], start, key=neg)
        buckets[terms[start]] = [0, list(range(start, end))]
        start = end
    while buckets:
        values = sorted(buckets, reverse=True)
        need, moves = values[0] + 1, []
        for d in values:
            entry = buckets[d]
            head, slots = entry
            if head >= 0:
                take = slots[head:head + need]
                entry[0] = head = head + len(take)
                spent = head == len(slots)
            elif len(slots) > need:
                take = [heappop(slots) for _ in range(need)]
                spent = False
            else:
                take, spent = sorted(slots), True
            if spent:
                del buckets[d]
            moves.append((d, take))
            need -= len(take)
            if not need:
                break
        u = moves[0][1].pop(0)
        joined: list[int] = []
        for d, take in moves:
            joined += take
            if d == 1 or not take:
                continue
            below = buckets.get(d - 1)
            if below is None:
                buckets[d - 1] = [0, take]
                continue
            head, slots = below
            if head >= 0:
                if slots[-1] < take[0]:
                    slots += take
                    continue
                del slots[:head]
                below[0] = -1
            for v in take:
                heappush(slots, v)
        yield u, joined


def graph_to_text(g: SimpleGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> SimpleGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty graph text")
    try:
        n, m = (int(x) for x in lines[0].split())
    except ValueError:
        raise DomainError(f"bad graph header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise DomainError(f"header says {m} edges, found {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        try:
            u, v = (int(x) for x in ln.split())
        except ValueError:
            raise DomainError(f"bad edge line {ln!r}") from None
        edges.add(_norm_edge(u, v))
    if len(edges) != m:
        raise DomainError("duplicate edges in graph text")
    return SimpleGraph(n, frozenset(edges))


def graph_from_masks(n: int, adjacency: list[int]) -> SimpleGraph:
    edges = set()
    for u in range(n):
        m = adjacency[u] >> (u + 1)
        v = u + 1
        while m:
            if m & 1:
                edges.add((u, v))
            m >>= 1
            v += 1
    return SimpleGraph(n, frozenset(edges))


def canonical_form(g: SimpleGraph) -> tuple[tuple[int, ...], int]:
    """Isomorphism key: sorted degrees plus the lexicographically minimal
    adjacency bitmap over degree-class-preserving relabelings."""
    degs = g.degrees()
    base = sorted(range(g.n), key=lambda v: (-degs[v], v))
    groups: list[list[int]] = []
    for v in base:
        if groups and degs[groups[-1][-1]] == degs[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    masks = g.adjacency_masks()
    pairs = list(combinations(range(g.n), 2))
    m = len(pairs)
    best: int | None = None
    for perm_parts in product(*(permutations(grp) for grp in groups)):
        order: list[int] = [v for part in perm_parts for v in part]
        bits = 0
        for k, (p, q) in enumerate(pairs):
            if (masks[order[p]] >> order[q]) & 1:
                bits |= 1 << (m - 1 - k)
        if best is None or bits < best:
            best = bits
    return (tuple(sorted(degs, reverse=True)), best if best is not None else 0)
