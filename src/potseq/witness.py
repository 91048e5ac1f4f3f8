"""Constructive K_{3,1,1} witnesses for qualifying degree sequences.

Any graphical sequence with n >= 5 terms, degree sum >= 4n - 2, other
than 4^6, has a realization containing K_{3,1,1}.  Short sequences
(n <= 7) are solved by the exact potential engine.  Longer ones follow
the inductive construction:

* minimum degree <= 2: split off a minimum-degree vertex, solve the
  shorter sequence (its sum stays above the threshold), then re-attach
  the vertex to hosts whose degrees match the recorded residuals.  The
  split-off vertex's neighbours are its neighbours in ``realize``, read
  from the Havel-Hakimi lay-offs only until it is saturated; the whole
  chain, down and back up, runs on degree and edge lists, and the
  witness graph is built once at the end;
* minimum degree >= 3: complete a realization with a clique on the four
  highest-degree slots, walk to helper vertices y1, y2, y3 next to the
  clique, and either read off a K_{3,1,1} directly or apply one
  three-edge interchange (two rewiring patterns, depending on how y3
  meets the clique) that creates the apex edge without touching the
  rest of the embedding.

Every step lands in the trace, so the construction replays exactly.
Nothing falls back to the exact engine: ``_clique_then_interchange``
proves each of its steps, and the engine solves only the base cases.  The
gates are the exhaustive and random near-threshold runs in
tests/test_witness.py and acceptance criterion 5, which re-check every
witness and replay every trace.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (
    AttachmentInfeasible,
    BelowThreshold,
    DomainError,
    InvalidInterchange,
    KnownException,
    NotGraphical,
    TooSmall,
)
from .graphs import Edge, SimpleGraph, _havel_hakimi, _norm_edge
from .potential import certificate_errors, is_potentially, make_kp11, realize_with_forced_edges
from .sequences import DegreeSequence, degree_sum, is_graphical
from .thresholds import K311_N6_EXCEPTION

__all__ = [
    "WitnessResult",
    "find_k311_realization",
    "reattach",
    "interchange",
    "replay_trace",
    "BaseCaseStep",
    "SeededCliqueStep",
    "EarlyContainmentStep",
    "InterchangeStep",
    "AttachStep",
]

_K311 = make_kp11(3)


@dataclass(frozen=True)
class BaseCaseStep:
    """Short sequence solved by the exact engine; the graph is recorded."""

    graph: SimpleGraph


@dataclass(frozen=True)
class SeededCliqueStep:
    """Realization completed around a clique on the top four slots."""

    graph: SimpleGraph


@dataclass(frozen=True)
class EarlyContainmentStep:
    """The seeded realization already contains the target; no rewiring."""

    note: str


@dataclass(frozen=True)
class InterchangeStep:
    case: int
    removed: tuple[Edge, Edge, Edge]
    inserted: tuple[Edge, Edge, Edge]


@dataclass(frozen=True)
class AttachStep:
    """A previously removed vertex rejoined to degree-matched hosts."""

    removed_degree: int
    neighbor_residual_degrees: tuple[int, ...]
    attached_to: tuple[int, ...]


@dataclass(frozen=True)
class WitnessResult:
    graph: SimpleGraph
    embedding: dict[int, int]
    trace: tuple[object, ...]


def replay_trace(trace: Iterable[object]) -> SimpleGraph:
    """Re-run a recorded construction; the result must equal the witness graph."""
    g: SimpleGraph | None = None
    for step in trace:
        if isinstance(step, (BaseCaseStep, SeededCliqueStep)):
            g = step.graph
        elif isinstance(step, InterchangeStep):
            if g is None:
                raise DomainError("interchange step before any graph")
            g = interchange(g, step.removed, step.inserted)
        elif isinstance(step, AttachStep):
            if g is None:
                raise DomainError("attach step before any graph")
            g = g.add_vertex(step.attached_to)
        elif isinstance(step, EarlyContainmentStep):
            pass
        else:
            raise DomainError(f"unknown trace step {step!r}")
    if g is None:
        raise DomainError("trace contains no graph")
    return g


def interchange(
    g: SimpleGraph,
    remove: Iterable[Edge],
    insert: Iterable[Edge],
) -> SimpleGraph:
    """Swap present edges for absent ones without changing any degree."""
    rem = [_norm_edge(u, v) for u, v in remove]
    ins = [_norm_edge(u, v) for u, v in insert]
    if len(set(rem)) != len(rem) or len(set(ins)) != len(ins):
        raise InvalidInterchange("duplicate edges in the interchange")
    if set(rem) & set(ins):
        raise InvalidInterchange("an edge appears on both sides of the interchange")
    for e in rem:
        if e not in g.edges:
            raise InvalidInterchange(f"edge {e} to remove is not present")
    for e in ins:
        if e in g.edges:
            raise InvalidInterchange(f"edge {e} to insert is already present")
    lost = Counter(v for e in rem for v in e)
    gained = Counter(v for e in ins for v in e)
    if lost != gained:
        raise InvalidInterchange("interchange does not preserve degrees")
    return SimpleGraph(g.n, (g.edges - set(rem)) | set(ins))


def reattach(
    residual_realization: SimpleGraph,
    original: DegreeSequence,
    removed_degree: int,
    neighbor_residual_degrees: tuple[int, ...],
) -> SimpleGraph:
    """Add back a vertex of the removed degree, attached to distinct hosts
    whose current degrees match the recorded multiset (lowest indices
    first).  Any containment in the residual graph survives untouched."""
    if removed_degree != len(neighbor_residual_degrees):
        raise DomainError("attachment multiset size must equal the removed degree")
    degs = residual_realization.degrees()
    hosts = _attach(degs, original.terms, neighbor_residual_degrees)
    return residual_realization.add_vertex(hosts)


def _attach(degs: list[int], terms: tuple[int, ...], nbr_res: tuple[int, ...]) -> tuple[int, ...]:
    """Append to degs a vertex joined to the lowest-indexed hosts whose
    degrees match the multiset nbr_res, and return the hosts; the new
    degrees must sort to terms."""
    hosts: list[int] = []
    for d, count in Counter(nbr_res).items():
        v = -1
        for _ in range(count):
            try:
                v = degs.index(d, v + 1)
            except ValueError:
                raise AttachmentInfeasible(f"no host of degree {d} remains") from None
            hosts.append(v)
    for v in hosts:
        degs[v] += 1
    degs.append(len(nbr_res))
    if sorted(degs, reverse=True) != list(terms):
        raise AttachmentInfeasible("attachment does not restore the original sequence")
    return tuple(sorted(hosts))


def find_k311_realization(seq: DegreeSequence) -> WitnessResult:
    """A realization of seq containing K_{3,1,1}, with embedding and trace.

    Requires: graphical, n >= 5, degree sum >= 4n - 2, and seq != 4^6.
    """
    if not is_graphical(seq):
        raise NotGraphical(f"{seq} is not graphical")
    n = len(seq)
    if n < 5:
        raise TooSmall("need at least 5 terms to host K_{3,1,1}")
    if degree_sum(seq) < 4 * n - 2:
        raise BelowThreshold(
            f"degree sum {degree_sum(seq)} is below the threshold {4 * n - 2}"
        )
    if seq == K311_N6_EXCEPTION:
        raise KnownException("4^6 has no realization containing K_{3,1,1}")
    result = _solve(seq)
    problems = certificate_errors(seq, _K311, result.graph, result.embedding)
    if problems:
        raise RuntimeError(f"witness failed validation: {problems}")
    return result


def _solve(seq: DegreeSequence) -> WitnessResult:
    # Peel minimum-degree vertices down to a core, recording each level's
    # terms and the peeled vertex's neighbor residual degrees in
    # realize(terms), then re-attach them in reverse order on a degree
    # list and an edge list.
    terms = seq.terms
    peeled: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    while len(terms) > 7 and terms[-1] <= 2:
        nbrs = _last_slot_neighbors(terms)
        peeled.append((terms, tuple(sorted((terms[u] - 1 for u in nbrs), reverse=True))))
        rest = list(terms[:-1])
        for u in nbrs:
            rest[u] -= 1
        terms = tuple(sorted(rest, reverse=True))
    core_seq = DegreeSequence(terms)
    core = _exact(core_seq) if len(terms) <= 7 else _clique_then_interchange(core_seq)
    if not peeled:
        return core
    degs, edges, trace = core.graph.degrees(), list(core.graph.edges), list(core.trace)
    for outer, nbr_res in reversed(peeled):
        hosts = _attach(degs, outer, nbr_res)
        edges.extend((v, len(degs) - 1) for v in hosts)
        trace.append(AttachStep(outer[-1], nbr_res, hosts))
    return WitnessResult(SimpleGraph(len(degs), frozenset(edges)), core.embedding, tuple(trace))


def _last_slot_neighbors(terms: tuple[int, ...]) -> list[int]:
    """The last slot's neighbors in realize(terms): the Havel-Hakimi
    lay-offs run only until that slot is saturated."""
    last, nbrs = len(terms) - 1, []
    lay_offs = _havel_hakimi(terms)
    while len(nbrs) < terms[-1]:
        u, joined = next(lay_offs)
        if u == last:
            nbrs += joined
        elif last in joined:
            nbrs.append(u)
    return nbrs


def _embedding(apexes: tuple[int, int], commons: tuple[int, int, int]) -> dict[int, int]:
    return {0: apexes[0], 1: apexes[1], 2: commons[0], 3: commons[1], 4: commons[2]}


def _clique_then_interchange(seq: DegreeSequence) -> WitnessResult:
    """The paper's construction on a core with n >= 8, minimum degree >= 3
    and degree sum >= 4n - 2 (v1..v4 are slots 0..3).

    * d_2 <= 3 would cap the sum at (n - 1) + 3(n - 1) = 4n - 4, so v1 and
      v2 each have a neighbour outside the clique.
    * Past the early exits, y1 touches no clique slot except v1, and y2
      none except v2; so y1 != y2.
    * y1 has degree >= 3, so y3 (a neighbour other than v1 and y2) exists,
      and lies outside the clique.
    * The three removed edges are present and the three inserted ones
      absent; each touched vertex loses one edge and gains one.
    * The new edge y1v2 completes apexes (v1, v2) over commons (v3, v4, y1).
    """
    forced = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = realize_with_forced_edges(seq, forced)
    if g is None:
        raise RuntimeError(
            f"{seq} has no realization with K_4 on its top four slots, against "
            "sigma(K_4, n) <= 4n - 2 and potential_answer's lemma A (Rao's theorem for cliques)"
        )
    trace: list[object] = [SeededCliqueStep(g)]
    v1, v2, v3, v4 = 0, 1, 2, 3
    clique = {v1, v2, v3, v4}

    y1 = min(u for u in g.neighbors(v1) if u not in clique)
    for vj, rest in ((v2, (v3, v4)), (v3, (v2, v4)), (v4, (v2, v3))):
        if g.has_edge(y1, vj):
            trace.append(
                EarlyContainmentStep(f"helper {y1} is already adjacent to slot {vj}")
            )
            return WitnessResult(g, _embedding((v1, vj), (*rest, y1)), tuple(trace))

    y2 = min(u for u in g.neighbors(v2) if u not in clique)
    for vj, apexes, commons in (
        (v1, (v1, v2), (v3, v4)),
        (v3, (v2, v3), (v1, v4)),
        (v4, (v2, v4), (v1, v3)),
    ):
        if g.has_edge(y2, vj):
            trace.append(
                EarlyContainmentStep(f"helper {y2} is already adjacent to slot {vj}")
            )
            return WitnessResult(g, _embedding(apexes, (*commons, y2)), tuple(trace))

    # Skip y2 so the Case 1 insertions stay distinct.
    y3 = min(u for u in g.neighbors(y1) if u not in (v1, y2))
    if g.has_edge(y3, v3) and g.has_edge(y3, v4):
        trace.append(
            EarlyContainmentStep(f"helper {y3} is adjacent to both low clique slots")
        )
        return WitnessResult(g, _embedding((v3, v4), (v1, v2, y3)), tuple(trace))

    removed = (_norm_edge(y1, y3), _norm_edge(v3, v4), _norm_edge(v2, y2))
    if g.has_edge(y3, v3):
        case = 1
        inserted = (_norm_edge(y1, v2), _norm_edge(y3, v4), _norm_edge(y2, v3))
    else:
        case = 2
        inserted = (_norm_edge(y1, v2), _norm_edge(y3, v3), _norm_edge(y2, v4))
    g2 = interchange(g, removed, inserted)
    trace.append(InterchangeStep(case, removed, inserted))
    return WitnessResult(g2, _embedding((v1, v2), (v3, v4, y1)), tuple(trace))


def _exact(seq: DegreeSequence) -> WitnessResult:
    """A base case: the exact engine's witness for a core of <= 7 vertices."""
    verdict = is_potentially(seq, _K311)
    if not verdict.answer:
        raise RuntimeError(f"{seq} unexpectedly has no realization with K_{{3,1,1}}")
    assert verdict.certificate is not None and verdict.embedding is not None
    g = verdict.certificate
    return WitnessResult(g, verdict.embedding, (BaseCaseStep(g),))
