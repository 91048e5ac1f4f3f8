"""Constructive realizations containing K_{3,1,1}.

Success is always rechecked by a test-local checker, and the traces are
replayed edge by edge so the recorded steps actually reproduce the
delivered graph.
"""

import dataclasses
import hashlib
import random
import sys
from collections import Counter

import pytest
from oracles import contains_by_monomorphism

from potseq import graphs, sequences, witness
from potseq.errors import (
    BelowThreshold,
    InvalidInterchange,
    KnownException,
    NotGraphical,
    TooSmall,
)
from potseq.graphs import SimpleGraph, degree_sequence, realize
from potseq.potential import make_kp11
from potseq.sequences import (
    DegreeSequence,
    degree_sum,
    enumerate_graphical,
    is_graphical,
    parse_sequence,
)
from potseq.witness import (
    AttachStep,
    BaseCaseStep,
    EarlyContainmentStep,
    InterchangeStep,
    SeededCliqueStep,
    find_k311_realization,
    interchange,
    reattach,
    replay_trace,
)


def check_result(seq, result):
    """Degrees, the five embedded vertices and the nine target edges are
    re-derived here; the trace must replay to the graph and consist of
    one core step (the exact engine only below eight vertices, else the
    seeded clique) followed by construction steps."""
    g, emb = result.graph, result.embedding
    assert tuple(sorted(g.degrees(), reverse=True)) == seq.terms
    assert sorted(emb) == [0, 1, 2, 3, 4]
    a, b, *commons = (emb[i] for i in range(5))
    assert len({a, b, *commons}) == 5
    assert g.has_edge(a, b)
    assert all(g.has_edge(a, c) and g.has_edge(b, c) for c in commons)
    assert replay_trace(result.trace) == g
    core, *steps = result.trace
    assert type(core) is (BaseCaseStep if core.graph.n <= 7 else SeededCliqueStep)
    assert all(isinstance(s, (EarlyContainmentStep, InterchangeStep, AttachStep)) for s in steps)


def path_counts(results):
    """How often each construction path ran, from the traces."""
    counts = Counter()
    for result in results:
        for step in result.trace:
            name = type(step).__name__
            counts[f"{name}{step.case}" if isinstance(step, InterchangeStep) else name] += 1
    return counts


def test_small_base_cases():
    for text in ("5^1,4^5,1^1", "4^7", "5^2,3^4", "6^2,4^4,2^1"):
        seq = parse_sequence(text)
        check_result(seq, find_k311_realization(seq))


def test_minimum_degree_splitting_path():
    seq = parse_sequence("6^2,4^4,2^2")
    result = find_k311_realization(seq)
    check_result(seq, result)
    assert any(isinstance(s, AttachStep) for s in result.trace)


def test_seeded_clique_path():
    seq = parse_sequence("4^8")
    result = find_k311_realization(seq)
    check_result(seq, result)
    assert any(isinstance(s, SeededCliqueStep) for s in result.trace)


# Up to n = 10 the interchange runs for 4^8, 4^9 and 4^8,3^2 (case 1) and
# for the four n = 10 inputs below (case 2); 4^8 is the first of case 1.
@pytest.mark.parametrize(
    "text, case",
    [("4^8", 1), ("4^10", 2), ("6^1,4^9", 2), ("5^2,4^8", 2), ("5^1,4^8,3^1", 2)],
)
def test_interchange_path_records_the_swap(text, case):
    seq = parse_sequence(text)
    result = find_k311_realization(seq)
    check_result(seq, result)
    swaps = [s for s in result.trace if isinstance(s, InterchangeStep)]
    assert [s.case for s in swaps] == [case]
    assert len(swaps[0].removed) == len(swaps[0].inserted) == 3
    assert replay_trace(result.trace) == result.graph


def test_long_split_off_chain_runs_without_recursion():
    # 600 pendant paths of degree 2 on five hubs: n = 605 peels 598
    # vertices down to a 7-vertex core.  A frame per peeled vertex would
    # exceed Python's default recursion limit here.
    seq = DegreeSequence((244,) * 5 + (2,) * 600)
    result = find_k311_realization(seq)
    check_result(seq, result)
    attaches = [s for s in result.trace if isinstance(s, AttachStep)]
    assert len(attaches) == 598
    assert replay_trace(result.trace) == result.graph


def test_rejections():
    with pytest.raises(NotGraphical):
        find_k311_realization(DegreeSequence((3, 1, 1)))
    with pytest.raises(TooSmall):
        find_k311_realization(DegreeSequence((3, 3, 3, 3)))
    with pytest.raises(BelowThreshold):
        find_k311_realization(parse_sequence("4^5,2^2"))
    with pytest.raises(KnownException):
        find_k311_realization(parse_sequence("4^6"))


def test_threshold_is_tight_for_the_error():
    # sums exactly at 4n - 2 are accepted
    seq = parse_sequence("4^7,2^1")
    assert degree_sum(seq) == 4 * len(seq) - 2
    check_result(seq, find_k311_realization(seq))


def test_trace_replay_reproduces_the_graph():
    for text in ("4^8", "6^2,4^4,2^2", "4^7,2^1", "5^4,4^4,3^2"):
        seq = parse_sequence(text)
        result = find_k311_realization(seq)
        check_result(seq, result)
        assert replay_trace(result.trace) == result.graph


def test_interchange_validates_and_preserves_degrees():
    g = SimpleGraph.cycle(6)
    h = interchange(g, remove=[(0, 1), (3, 4)], insert=[(0, 3), (1, 4)])
    assert degree_sequence(h) == degree_sequence(g)
    assert h.has_edge(0, 3) and not h.has_edge(0, 1)

    with pytest.raises(InvalidInterchange):
        interchange(g, remove=[(0, 2)], insert=[(0, 1)])  # absent removal
    with pytest.raises(InvalidInterchange):
        interchange(g, remove=[(0, 1)], insert=[(1, 2)])  # insert already present
    with pytest.raises(InvalidInterchange):
        interchange(g, remove=[(0, 1)], insert=[(2, 4)])  # degrees drift
    with pytest.raises(InvalidInterchange):
        interchange(g, remove=[(0, 1), (0, 1)], insert=[(0, 3), (1, 4)])


def test_reattach_restores_the_original_sequence():
    seq = parse_sequence("4^7,2^1")
    g = realize(seq)
    victim = 7
    nbr_res = tuple(
        sorted((g.degree(u) - 1 for u in g.neighbors(victim)), reverse=True)
    )
    residual = g.remove_vertex(victim)
    rebuilt = reattach(residual, seq, g.degree(victim), nbr_res)
    assert degree_sequence(rebuilt) == seq
    assert rebuilt.degree(7) == 2


def test_reattach_degree_zero_appends_an_isolated_vertex():
    g = SimpleGraph.cycle(5)
    rebuilt = reattach(g, parse_sequence("2^5,0^1"), 0, ())
    assert rebuilt.n == 6
    assert rebuilt.edges == g.edges


def test_reattach_full_degree_joins_to_every_vertex():
    g = SimpleGraph.cycle(5)
    rebuilt = reattach(g, parse_sequence("5^1,3^5"), 5, (2, 2, 2, 2, 2))
    assert rebuilt.neighbors(5) == {0, 1, 2, 3, 4}


def test_reattach_rejects_bad_requests():
    from potseq.errors import AttachmentInfeasible, DomainError

    g = SimpleGraph.cycle(5)
    with pytest.raises(DomainError):
        reattach(g, parse_sequence("3^2,2^4"), 2, (2,))
    with pytest.raises(AttachmentInfeasible):
        reattach(g, parse_sequence("3^2,2^4"), 2, (4, 4))


# Per-path step counts over every qualifying n-term sequence.  Each trace
# has one core step, so base + seeded is the number of inputs (2,649 at
# n = 9); 4^8 and 4^9 are the only interchanges.
EXHAUSTIVE_PATHS = {
    5: {"BaseCaseStep": 2},
    6: {"BaseCaseStep": 15},
    7: {"BaseCaseStep": 101},
    8: {"BaseCaseStep": 347, "AttachStep": 347, "SeededCliqueStep": 207,
        "EarlyContainmentStep": 206, "InterchangeStep1": 1},
    9: {"BaseCaseStep": 1102, "AttachStep": 2934, "SeededCliqueStep": 1547,
        "EarlyContainmentStep": 1546, "InterchangeStep1": 1},
}


def test_every_qualifying_sequence_up_to_n9_succeeds():
    for n, expected in EXHAUSTIVE_PATHS.items():
        results = []
        for s in range(n * (n - 1), 4 * n - 3, -2):
            for seq in enumerate_graphical(n, s):
                if seq.terms == (4,) * 6:
                    continue
                result = find_k311_realization(seq)
                check_result(seq, result)
                results.append(result)
        assert path_counts(results) == expected, n


def near_threshold_sequences(rng, count):
    """Graphical sequences with n = 8..40: terms drawn from {3, 4}, then
    random terms bumped until the sum is even and >= 4n - 2.  Minimum
    degree >= 3 sends every one through the seeded clique."""
    out = []
    while len(out) < count:
        n = rng.randint(8, 40)
        terms = [rng.choice((3, 4)) for _ in range(n)]
        while sum(terms) < 4 * n - 2 or sum(terms) % 2:
            terms[rng.randrange(n)] += 1
        seq = DegreeSequence(tuple(sorted(terms, reverse=True)))
        if is_graphical(seq):
            out.append(seq)
    return out


def test_random_near_threshold_sequences_reach_both_interchange_cases():
    k311 = make_kp11(3)
    results = []
    for seq in near_threshold_sequences(random.Random(2004), 5000):
        result = find_k311_realization(seq)
        check_result(seq, result)
        assert contains_by_monomorphism(result.graph, k311)
        results.append(result)
    counts = path_counts(results)
    assert counts["SeededCliqueStep"] == 5000
    assert counts["InterchangeStep1"] > 0 and counts["InterchangeStep2"] > 0


def k5_chain(rng, n):
    """K_5 plus n - 5 degree-2 vertices on five hubs; the seed splits the
    2(n - 5) hub-side endpoints.  Every split-off step peels a 2."""
    m = n - 5
    while True:
        cuts = sorted(rng.randint(0, 2 * m) for _ in range(4))
        extra = [b - a for a, b in zip([0, *cuts], [*cuts, 2 * m])]
        if max(extra) <= m:
            return DegreeSequence(tuple(4 + x for x in extra) + (2,) * m)


def uniform_sequence(rng, n, lo, hi):
    """Terms drawn uniformly from lo..hi, redrawn until qualifying."""
    while True:
        terms = [rng.randint(lo, hi) for _ in range(n)]
        if sum(terms) % 2:
            terms[0] += 1 if terms[0] < hi else -1
        seq = DegreeSequence(tuple(terms))
        if sum(terms) >= 4 * n - 2 and is_graphical(seq):
            return seq


def witness_digest(result):
    """sha256 of the graph's edges, the embedding and every trace step,
    with each recorded graph written as its sorted edge list."""
    def canon(value):
        return (value.n, sorted(value.edges)) if isinstance(value, SimpleGraph) else value

    parts = [canon(result.graph), sorted(result.embedding.items())]
    for step in result.trace:
        fields = [canon(getattr(step, f.name)) for f in dataclasses.fields(step)]
        parts.append((type(step).__name__, fields))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# Long inputs, seed 2004: a 294-step split-off chain, a seeded clique with
# 54 attachments, and a case-2 interchange at n = 200.
LONG_WITNESS_DIGESTS = {
    "k5_chain_300": (lambda rng: k5_chain(rng, 300),
                     "7b34007d758255dd76396a4bdf09f8b4b15dbd89fcc72396b5e38e829ef97aea"),
    "random_1_8_150": (lambda rng: uniform_sequence(rng, 150, 1, 8),
                       "ba3da56c5dbf6c087478c22b353ffc63ead3ae92528ee48c74f0680d599650f9"),
    "random_3_6_200": (lambda rng: uniform_sequence(rng, 200, 3, 6),
                       "7cda770bb2a66b5ba507512c63053372ba33cb5d0de8d200d3c2a6ebde6b90d1"),
}


@pytest.mark.parametrize("name", sorted(LONG_WITNESS_DIGESTS))
def test_long_witness_bytes_are_pinned(name):
    make, expected = LONG_WITNESS_DIGESTS[name]
    seq = make(random.Random(2004))
    result = find_k311_realization(seq)
    check_result(seq, result)
    assert witness_digest(result) == expected


# Hand-built realizations with K_4 on slots 0..3 (v1..v4), each slot
# carrying the i-th largest degree as realize_with_forced_edges promises.
# The walk meets y1 = 5 (next to v1 only), y2 = 6 (next to v2 only) and
# y3 = 4, y1's lowest neighbor besides v1 and y2.  No qualifying input
# up to n = 10, nor the random near-threshold gate, puts y3 next to v4.
CLIQUE = [(a, b) for a in range(4) for b in range(a + 1, 4)]
Y3_NEXT_TO_V3_AND_V4 = CLIQUE + [
    (0, 5), (1, 6), (4, 5), (2, 4), (3, 4), (5, 7), (4, 6), (6, 7), (0, 7),
]
Y3_NEXT_TO_V4_ONLY = CLIQUE + [
    (0, 5), (1, 6), (4, 5), (3, 4), (2, 7), (4, 6), (4, 7), (5, 7), (5, 6),
]


@pytest.mark.parametrize(
    "edges, step, embedding",
    [
        (Y3_NEXT_TO_V3_AND_V4,
         EarlyContainmentStep("helper 4 is adjacent to both low clique slots"),
         {0: 2, 1: 3, 2: 0, 3: 1, 4: 4}),
        (Y3_NEXT_TO_V4_ONLY,
         InterchangeStep(2, ((4, 5), (2, 3), (1, 6)), ((1, 5), (2, 4), (3, 6))),
         {0: 0, 1: 1, 2: 2, 3: 3, 4: 5}),
    ],
)
def test_seeded_clique_branches_where_y3_meets_v4(monkeypatch, edges, step, embedding):
    seeded = SimpleGraph(8, frozenset(edges))
    seq = degree_sequence(seeded)
    assert seeded.degrees() == list(seq.terms)
    assert seq.terms[-1] >= 3 and degree_sum(seq) >= 4 * len(seq) - 2

    def forced_realization(s, forced):
        assert s == seq and sorted(forced) == CLIQUE
        return seeded

    monkeypatch.setattr(witness, "realize_with_forced_edges", forced_realization)
    result = find_k311_realization(seq)
    check_result(seq, result)
    assert result.trace == (SeededCliqueStep(seeded), step)
    assert result.embedding == embedding


def count_work(monkeypatch):
    """Counters on is_graphical and realize, at every potseq module that
    refers to them, and on SimpleGraph construction."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("is_graphical", sequences.is_graphical), ("realize", graphs.realize)):
        wrapper = counted(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname == "potseq" or modname.startswith("potseq."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(
        SimpleGraph, "__post_init__", counted("SimpleGraph", SimpleGraph.__post_init__)
    )
    return counts


def test_split_off_chain_work_does_not_grow_with_its_length(monkeypatch):
    # K_5 chains (hubs 42^5 or 82^5, then 2^(n - 5)) peel n - 7 vertices
    # down to the same 7-vertex core.  Per witness: the input check, the
    # base case's realize with its own check, and two graphs, the base
    # case's and the witness.  None of it may recur per peeled level.
    counts = count_work(monkeypatch)
    for n in (100, 200):
        m = n - 5
        seq = DegreeSequence((4 + 2 * m // 5,) * 5 + (2,) * m)
        counts.clear()
        result = find_k311_realization(seq)
        assert dict(counts) == {"is_graphical": 2, "realize": 1, "SimpleGraph": 2}, n
        check_result(seq, result)
