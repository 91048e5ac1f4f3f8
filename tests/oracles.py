"""Slow, independent decision engines that the tests cross-check the
library against.

``realize_by_sorting`` is the sort-based Havel-Hakimi realization the
library used before its bucketed lay-offs; it re-sorts every residual at
each step and finds non-graphical input by running out of partners.

Exhaustive enumeration of all labeled graphs (containment re-derived by
raw injection scans), and breadth-first exploration of the realization
space under 2-switches.  Both are exponential and meant for n <= 7.
Containment in larger graphs is re-derived by networkx's subgraph
monomorphism search, when networkx is installed.
"""

from collections import deque
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from potseq.errors import NotGraphical
from potseq.graphs import Edge, SimpleGraph, canonical_form, realize
from potseq.potential import TargetPattern, contains_subgraph
from potseq.sequences import DegreeSequence, is_graphical


def realize_by_sorting(seq: DegreeSequence) -> SimpleGraph:
    """Havel-Hakimi with the same tie-breaks as ``realize``: lay off the
    highest residual (lowest vertex on ties) onto the next-highest ones
    (lowest vertices first), sorting all residuals at every step."""
    n = len(seq)
    residual = list(seq.terms)
    edges: set[Edge] = set()
    while True:
        u = min(range(n), key=lambda v: (-residual[v], v))
        if residual[u] == 0:
            break
        need = residual[u]
        residual[u] = 0
        others = sorted(
            (v for v in range(n) if v != u and residual[v] > 0),
            key=lambda v: (-residual[v], v),
        )
        if len(others) < need:
            raise NotGraphical(f"{seq} is not graphical")
        for v in others[:need]:
            residual[v] -= 1
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph(n, frozenset(edges))


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    """Decode a graph from a bitmask over the C(n,2) vertex pairs in lex order."""
    edges = set()
    for i, pair in enumerate(combinations(range(n), 2)):
        if (mask >> i) & 1:
            edges.add(pair)
    return SimpleGraph(n, frozenset(edges))


def without_edges(g: SimpleGraph, drop: Iterable[Edge]) -> SimpleGraph:
    return SimpleGraph(g.n, g.edges - {(min(u, v), max(u, v)) for u, v in drop})


@lru_cache(maxsize=8)
def _masks_by_degrees(n: int) -> dict[tuple[int, ...], list[int]]:
    pairs = list(combinations(range(n), 2))
    out: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            u, v = pairs[i]
            deg[u] += 1
            deg[v] += 1
        out.setdefault(tuple(sorted(deg, reverse=True)), []).append(mask)
    return out


def _contains_by_injections(g: SimpleGraph, h: TargetPattern) -> bool:
    """Containment by scanning raw injections; deliberately shares no code
    with contains_subgraph."""
    H = h.graph
    if H.n > g.n:
        return False
    hedges = sorted(H.edges)
    gedges = g.edges
    for images in permutations(range(g.n), H.n):
        if all(
            ((images[u], images[v]) if images[u] < images[v] else (images[v], images[u]))
            in gedges
            for u, v in hedges
        ):
            return True
    return False


def contains_by_monomorphism(g: SimpleGraph, h: TargetPattern) -> bool:
    """Containment by networkx's VF2 subgraph monomorphism search, which
    shares no code with this library; skips the calling test without
    networkx."""
    nx = pytest.importorskip("networkx")
    big = nx.Graph()
    big.add_nodes_from(range(g.n))
    big.add_edges_from(sorted(g.edges))
    matcher = nx.algorithms.isomorphism.GraphMatcher(big, nx.Graph(sorted(h.graph.edges)))
    return matcher.subgraph_is_monomorphic()


def is_potentially_by_enumeration(seq: DegreeSequence, h: TargetPattern) -> bool:
    """Independent oracle: scan every labeled graph with these degrees.

    Exponential in C(n,2); intended for n <= 6.
    """
    if not is_graphical(seq):
        raise NotGraphical(f"{seq} is not graphical")
    n = len(seq)
    for mask in _masks_by_degrees(n).get(seq.terms, []):
        if _contains_by_injections(graph_from_mask(n, mask), h):
            return True
    return False


def two_switch_neighbors(g: SimpleGraph) -> Iterator[SimpleGraph]:
    """Graphs one 2-switch away: swap two vertex-disjoint edges for two
    absent edges on the same four vertices."""
    edges = sorted(g.edges)
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        for x, y, z, w in ((a, c, b, d), (a, d, b, c)):
            e1 = (x, y) if x < y else (y, x)
            e2 = (z, w) if z < w else (w, z)
            if e1 not in g.edges and e2 not in g.edges:
                yield SimpleGraph(g.n, (g.edges - {(a, b), (c, d)}) | {e1, e2})


def realization_classes(seq: DegreeSequence) -> Iterator[SimpleGraph]:
    """Every realization up to degree-preserving relabeling, explored by
    breadth-first search over 2-switches (the switch space is connected)."""
    start = realize(seq)
    seen = {canonical_form(start)}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        yield g
        for nxt in two_switch_neighbors(g):
            key = canonical_form(nxt)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)


def is_potentially_by_switching(seq: DegreeSequence, h: TargetPattern) -> bool:
    """Second independent oracle: check containment across the 2-switch
    exploration of the realization space.  Intended for n <= 7."""
    if not is_graphical(seq):
        raise NotGraphical(f"{seq} is not graphical")
    return any(contains_subgraph(g, h) is not None for g in realization_classes(seq))
