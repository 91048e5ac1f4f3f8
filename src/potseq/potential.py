"""Potentially-H-graphic decisions with certificates.

The main engine answers "does some realization of this degree sequence
contain the target as a subgraph?" exactly.  Slot i carries the i-th
largest degree.  Any realization containing the target can be relabeled
so its vertices sit on the slots in degree order, which turns the
question into: does some placement of the target's vertices onto slots
extend to a simple graph meeting every slot degree exactly?  So the
search enumerates placements up to symmetry (automorphisms of the
target composed with permutations of equal-degree slots) and runs an
exact backtracking completion for each:

* placements are maps from target vertices to degree classes, generated
  in lexicographic order; every automorphism image of a map is another
  map of the search, so the first one met in each orbit is its least
  member.  That one is kept and its images still ahead are marked; each
  marked map is skipped and unmarked when the search reaches it, so no
  map is ever canonicalized;
* completion decides the open vertex pairs in slot order, satisfying
  one slot at a time, greedier demands first, and prunes with an
  Erdos-Gallai feasibility test on the residual demands;
* before that search runs, its first branch is walked greedily, with
  no prune: each slot takes the first candidates in (largest residual,
  lowest slot) order.  Each residual along a walk that reaches the end
  is realized by the walk's own later edges, so it passes the prune and
  the search returns the same masks.  A stuck walk is dropped and the
  search runs from the start;
* dead residual states are memoized, so exhausting a negative instance
  stays cheap.

The tests cross-check this engine against two independent, much slower
ones in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import DomainError
from .graphs import (
    Edge,
    SimpleGraph,
    canonical_form,
    degree_sequence,
    graph_from_masks,
    realize,
)
from .sequences import DegreeSequence, format_sequence, is_graphical_multiset

__all__ = [
    "TargetPattern",
    "PotentialVerdict",
    "make_kp11",
    "contains_subgraph",
    "is_potentially",
    "potential_answer",
    "realize_with_forced_edges",
    "certificate_errors",
]


@dataclass(frozen=True)
class TargetPattern:
    """A small subgraph target in reduced form (no isolated vertices)."""

    graph: SimpleGraph
    name: str = ""

    def __post_init__(self) -> None:
        if self.graph.n < 1:
            raise DomainError("target needs at least one vertex")
        degs = self.graph.degrees()
        if any(d == 0 for d in degs):
            raise DomainError("target has isolated vertices; pass it in reduced form")

    @property
    def cache_key(self) -> str:
        if self.name:
            return self.name
        _, bits = canonical_form(self.graph)
        return f"g{self.graph.n}-{bits:x}"


@dataclass(frozen=True)
class PotentialVerdict:
    """Answer plus, when positive, a realization and an embedding into it."""

    answer: bool
    certificate: SimpleGraph | None = None
    embedding: dict[int, int] | None = None


def make_kp11(p: int) -> TargetPattern:
    """Complete tripartite K_{p,1,1}: two adjacent apexes joined to p
    pairwise non-adjacent vertices; degrees ((p+1)^2, 2^p)."""
    if p < 1:
        raise DomainError("p must be >= 1")
    edges = {(0, 1)}
    for i in range(2, p + 2):
        edges.add((0, i))
        edges.add((1, i))
    return TargetPattern(SimpleGraph(p + 2, frozenset(edges)), name=f"kp11:{p}")


def contains_subgraph(g: SimpleGraph, h: TargetPattern) -> dict[int, int] | None:
    """Injective edge-preserving map V(H) -> V(g), or None.

    Backtracking over pattern vertices in decreasing-degree order with
    degree-based candidate pruning.  Containment is not induced: extra
    edges in g are fine.
    """
    H = h.graph
    if H.n > g.n or len(H.edges) > len(g.edges):
        return None
    gm = g.adjacency_masks()
    hm = H.adjacency_masks()
    gdeg = [m.bit_count() for m in gm]
    hdeg = [m.bit_count() for m in hm]
    order = sorted(range(H.n), key=lambda v: -hdeg[v])
    rank = {v: i for i, v in enumerate(order)}
    full = (1 << g.n) - 1
    images = [-1] * H.n

    def extend(i: int, used: int) -> bool:
        if i == H.n:
            return True
        hv = order[i]
        cand = full & ~used
        m = hm[hv]
        while m:
            hn = (m & -m).bit_length() - 1
            m &= m - 1
            if rank[hn] < i:
                cand &= gm[images[hn]]
        while cand:
            gv = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if gdeg[gv] >= hdeg[hv]:
                images[hv] = gv
                if extend(i + 1, used | (1 << gv)):
                    return True
        images[hv] = -1
        return False

    if extend(0, 0):
        return {v: images[v] for v in range(H.n)}
    return None


@lru_cache(maxsize=None)
def _automorphisms(pattern: TargetPattern) -> tuple[tuple[int, ...], ...]:
    H = pattern.graph
    degs = H.degrees()
    auts = []
    for perm in permutations(range(H.n)):
        if any(degs[perm[v]] != degs[v] for v in range(H.n)):
            continue
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in H.edges
            for u, v in H.edges
        ):
            auts.append(perm)
    return tuple(auts)


@lru_cache(maxsize=65536)
def _placements(terms: tuple[int, ...], pattern: TargetPattern) -> tuple[tuple[int, ...], ...]:
    """Inequivalent slot assignments for the pattern's vertices.

    Each result maps pattern vertex h to slots[h]; one representative
    per orbit of Aut(pattern) composed with permutations of equal-degree
    slots.  Slots whose degree is below the pattern degree are never
    offered, so an empty result proves non-potentiality by itself.

    The search assigns each vertex a degree class, trying classes in
    ascending index, so class assignments ``a`` arrive in lexicographic
    order.  Each image ``a o alpha`` (alpha in Aut(pattern)) is also a
    valid assignment, so the first member reached of every orbit is its
    lexicographically least one.  That member is emitted and its images
    still ahead (``img > a``) go into ``seen``; a later assignment found
    in ``seen`` is removed from it and skipped.  So ``seen`` only holds
    orbit members not yet reached, and it is empty when the search ends.
    Assignments are compared and stored as their base-``len(classes)``
    numerals, whose order is the lexicographic order of the assignments.
    """
    H = pattern.graph
    k = H.n
    hdeg = H.degrees()
    classes: list[tuple[int, list[int]]] = []
    for slot, d in enumerate(terms):
        if classes and classes[-1][0] == d:
            classes[-1][1].append(slot)
        else:
            classes.append((d, [slot]))
    auts = _automorphisms(pattern)
    base = len(classes)
    caps = [len(slots) for _, slots in classes]
    assign = [0] * k
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []

    def rec(h: int, code: int) -> None:
        if h == k:
            if code in seen:
                seen.remove(code)
                return
            for alpha in auts:
                img = 0
                for v in alpha:
                    img = img * base + assign[v]
                if img > code:
                    seen.add(img)
            taken = [0] * len(classes)
            slots = [0] * k
            for v in range(k):
                c = assign[v]
                slots[v] = classes[c][1][taken[c]]
                taken[c] += 1
            out.append(tuple(slots))
            return
        for c, (d, _slots) in enumerate(classes):
            if caps[c] and d >= hdeg[h]:
                caps[c] -= 1
                assign[h] = c
                rec(h + 1, code * base + c)
                caps[c] += 1

    rec(0, 0)
    return tuple(out)


def _complete_masks(terms: tuple[int, ...], forced: list[int]) -> list[int] | None:
    """Exact search for adjacency masks meeting every slot degree and
    containing every forced edge; None when no such graph exists.

    The search's first branch is walked greedily before the search runs;
    see the module docstring for why that returns the search's own answer.
    """
    n = len(terms)
    start = [terms[i] - forced[i].bit_count() for i in range(n)]
    if min(start) < 0 or sum(start) % 2:
        return None
    adj, r = list(forced), list(start)
    u = 0
    while True:
        while u < n and r[u] == 0:
            u += 1
        if u == n:
            return adj
        need = r[u]
        cands = [v for v in range(u + 1, n) if r[v] > 0 and not (adj[u] >> v) & 1]
        if len(cands) < need:
            break
        cands.sort(key=r.__getitem__, reverse=True)
        for v in cands[:need]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            r[v] -= 1
        r[u] = 0
    adj, r = list(forced), start
    dead: set[tuple[int, ...]] = set()

    def rec(u: int) -> bool:
        while u < n and r[u] == 0:
            u += 1
        if u == n:
            return True
        key = (u, *r[u:])
        if key in dead:
            return False
        need = r[u]
        cands = [v for v in range(u + 1, n) if r[v] > 0 and not (adj[u] >> v) & 1]
        if len(cands) >= need:
            cands.sort(key=r.__getitem__, reverse=True)
            bit_u = 1 << u
            for combo in combinations(cands, need):
                r[u] = 0
                for v in combo:
                    adj[u] |= 1 << v
                    adj[v] |= bit_u
                    r[v] -= 1
                if is_graphical_multiset(r[u + 1 :]) and rec(u + 1):
                    return True
                for v in combo:
                    adj[u] ^= 1 << v
                    adj[v] ^= bit_u
                    r[v] += 1
                r[u] = need
        dead.add(key)
        return False

    return adj if rec(0) else None


def realize_with_forced_edges(seq: DegreeSequence, forced: Iterable[Edge]) -> SimpleGraph | None:
    """A realization (slot i has the i-th sequence degree) containing every
    forced edge, or None when no such realization exists."""
    n = len(seq)
    masks = [0] * n
    for u, v in forced:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"bad forced edge ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    result = _complete_masks(seq.terms, masks)
    if result is None:
        return None
    return graph_from_masks(n, result)


def is_potentially(seq: DegreeSequence, h: TargetPattern) -> PotentialVerdict:
    """Exact decision, with a certificate realization on success."""
    g = realize(seq)
    if h.graph.n > len(seq):
        return PotentialVerdict(False)
    emb = contains_subgraph(g, h)
    if emb is not None:
        return PotentialVerdict(True, g, emb)
    hedges = sorted(h.graph.edges)
    for slots in _placements(seq.terms, h):
        cert = realize_with_forced_edges(seq, [(slots[u], slots[v]) for u, v in hedges])
        if cert is not None:
            return PotentialVerdict(True, cert, {v: slots[v] for v in range(h.graph.n)})
    return PotentialVerdict(False)


@lru_cache(maxsize=None)
def kp11_order(h: TargetPattern) -> int | None:
    """p when the target is K_{p,1,1}, else None.

    Sorted degrees ((p+1)^2, 2^p) on p + 2 vertices force K_{p,1,1}: both
    degree-(p+1) vertices see every other vertex, which uses up the degree
    of the other p.  So any labeling of K_{p,1,1} qualifies.
    """
    p = h.graph.n - 2
    degs = sorted(h.graph.degrees(), reverse=True)
    return p if p >= 1 and degs == [p + 1] * 2 + [2] * p else None


def potential_answer(seq: DegreeSequence, h: TargetPattern) -> bool:
    """``is_potentially(seq, h).answer`` for a graphical seq, without a
    certificate.  The target's shape is read once per target and cached.

    For K_{p,1,1}, counting rejects a sequence with fewer than two terms
    >= p+1 or fewer than p+2 terms >= 2.  Then the one placement Yin's
    theorem on split graphs names (apexes on the two largest slots,
    commons on the next p) is completed; a completion proves the answer
    true.  When it fails, and for every other target, the general engine
    decides.
    """
    p = kp11_order(h)
    if p is not None:
        terms = seq.terms
        n = len(terms)
        if n < p + 2 or terms[1] < p + 1 or terms[p + 1] < 2:
            return False
        top = (1 << (p + 2)) - 1
        forced = [top ^ 1, top ^ 2] + [3] * p + [0] * (n - p - 2)
        if _complete_masks(terms, forced) is not None:
            return True
    return is_potentially(seq, h).answer


def certificate_errors(
    seq: DegreeSequence,
    target: TargetPattern,
    graph: SimpleGraph,
    embedding: dict[int, int],
) -> list[str]:
    """Why (graph, embedding) fails to certify that seq is potentially
    target-graphic; empty when the certificate is valid."""
    problems: list[str] = []
    if degree_sequence(graph) != seq:
        problems.append(
            f"certificate degrees {format_sequence(degree_sequence(graph))} "
            f"do not match {format_sequence(seq)}"
        )
    H = target.graph
    if sorted(embedding) != list(range(H.n)):
        problems.append("embedding does not cover the target's vertices")
        return problems
    images = list(embedding.values())
    if len(set(images)) != len(images):
        problems.append("embedding is not injective")
        return problems
    if any(not 0 <= v < graph.n for v in images):
        problems.append("embedding image outside the graph")
        return problems
    for u, v in sorted(H.edges):
        if not graph.has_edge(embedding[u], embedding[v]):
            problems.append(
                f"target edge ({u}, {v}) maps to missing edge "
                f"({embedding[u]}, {embedding[v]})"
            )
    return problems
