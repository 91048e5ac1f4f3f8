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

K_{p,1,1} targets have an exact closed form, ``_kp11_answer``, proved
in ``potential_answer``'s docstring.  The sweep decides through it alone,
and ``is_potentially`` uses it in place of the placement search.

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
    """Exact decision, with a certificate realization on success.

    For K_{p,1,1} laid out as ``make_kp11`` lays it out (apexes 0 and 1),
    ``_kp11_answer`` rejects, and a copy the Havel-Hakimi realization
    misses is completed on the top placement (vertex v on slot v) alone.
    By lemma A in ``potential_answer`` that placement completes whenever
    any does, and it is the first one ``_placements`` emits, so the
    certificate is the one the general search returns.
    """
    g = realize(seq)
    p = kp11_order(h)
    top = p is not None and h.graph.degree(0) == h.graph.degree(1) == p + 1
    if h.graph.n > len(seq) or top and not _kp11_answer(seq.terms, p):
        return PotentialVerdict(False)
    emb = contains_subgraph(g, h)
    if emb is not None:
        return PotentialVerdict(True, g, emb)
    hedges = sorted(h.graph.edges)
    for slots in [tuple(range(h.graph.n))] if top else _placements(seq.terms, h):
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


def _kp11_answer(terms: tuple[int, ...], p: int) -> bool:
    """Whether the non-increasing ``terms`` are potentially
    K_{p,1,1}-graphic; the proof is in ``potential_answer``."""
    if len(terms) < p + 2 or terms[1] < p + 1 or terms[p + 1] < 2:
        return False
    rest = list(terms[p + 2 :])
    for need in (terms[0] - p - 1, terms[1] - p - 1):
        rest.sort(reverse=True)
        if need and (need > len(rest) or rest[need - 1] == 0):
            return False
        rest[:need] = [r - 1 for r in rest[:need]]
    return is_graphical_multiset([d - 2 for d in terms[2 : p + 2]] + rest)


def potential_answer(seq: DegreeSequence, h: TargetPattern) -> bool:
    """``is_potentially(seq, h).answer`` for a graphical seq, without a
    certificate.  The target's shape is read once per target and cached.

    Every other target goes to the general engine.  K_{p,1,1} is decided
    by ``_kp11_answer`` alone, in O(n log n), on the sorted degrees d:

    1. counting: n >= p+2, d_1 >= p+1 and d_{p+1} >= 2 (0-based);
    2. K_{p,1,1} on slots 0..p+1: apexes 0 and 1, commons 2..p+1;
    3. the remaining demand d - (p+1) of apex 0, then of apex 1 on the
       updated residuals, goes to the largest residuals among slots
       p+2..n-1; too few positive ones reject;
    4. Erdos-Gallai on the commons' d - 2 plus what is left outside.

    A graph built that way is a realization holding the copy, so a true
    answer is sound.  A false one is exact by two exchange arguments
    (Yin's placement for split graphs, Discrete Math. 311 (2011)
    2485-2489, and the Kleitman-Wang lay-off, Discrete Math. 6 (1973)
    79-88).  Let G be a realization holding a copy; d is degree in G.

    Lemma A (placement).  Let u be a vertex of the copy, and v either a
    vertex outside it with d(v) >= d(u), or a common with d(v) >= d(u)
    when u is an apex.  Then v can take u's role.  Let W be u's copy
    neighbours other than v that are not adjacent to v.  As d(v) >= d(u),
    |N(v) - N[u]| >= |N(u) - N[v]| >= |W|, so pair each w in W with a
    distinct z in N(v) - N[u] and switch {uw, vz} -> {vw, uz}.  vz is
    never a copy edge: either v is outside the copy, or u is an apex, so
    z, not adjacent to u, lies outside it.  Swapping a larger outside
    vertex into the copy raises the copy's degree sum, and swapping a
    larger common onto an apex raises the apexes' sum, so some copy sits
    on the p+2 largest degrees with the apexes on the two largest; as
    equal-degree slots are interchangeable, it sits on step 2's slots.

    Lemma B (lay-off).  Fix the copy on slots 0..p+1, and let r be degree
    once the apexes already fixed are removed.  Let apex a be adjacent to
    x but not to y, with x, y in slots p+2..n-1 and r(y) >= r(x).  As a
    lies in N(x) - N(y), some z lies in N(y) - N[x], and z != a.  The
    switch {ax, yz} -> {ay, xz} keeps every copy edge, as x and y lie
    outside the copy.  Repeating it gives apex 0 the largest residuals in
    G; then apex 1 the same in G - apex 0.  What is left on slots 2..n-1
    can be any simple graph with the residual degrees, so Erdos-Gallai
    decides it.
    """
    p = kp11_order(h)
    if p is not None:
        return _kp11_answer(seq.terms, p)
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
