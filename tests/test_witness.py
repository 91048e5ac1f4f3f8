"""Constructive realizations containing K_{3,1,1}.

Success is always rechecked with certificate_errors, and the traces are
replayed edge by edge so the recorded steps actually reproduce the
delivered graph.
"""

import pytest

from potseq.errors import (
    BelowThreshold,
    InvalidInterchange,
    KnownException,
    NotGraphical,
    TooSmall,
)
from potseq.graphs import SimpleGraph, degree_sequence, realize
from potseq.potential import certificate_errors, make_kp11
from potseq.sequences import DegreeSequence, degree_sum, enumerate_graphical, parse_sequence
from potseq.witness import (
    AttachStep,
    FallbackStep,
    InterchangeStep,
    SeededCliqueStep,
    find_k311_realization,
    interchange,
    reattach,
    replay_trace,
)


def check_result(seq, result):
    assert certificate_errors(seq, make_kp11(3), result.graph, result.embedding) == []
    assert not result.diverged


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


def test_every_qualifying_sequence_up_to_n8_succeeds():
    for n in (5, 6, 7, 8):
        lo = 4 * n - 2
        for s in range(n * (n - 1), lo - 1, -2):
            for seq in enumerate_graphical(n, s):
                if seq.terms == (4,) * 6:
                    continue
                result = find_k311_realization(seq)
                check_result(seq, result)
                assert not any(isinstance(x, FallbackStep) for x in result.trace)
