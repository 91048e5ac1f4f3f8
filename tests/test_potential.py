"""The potentially-H decision engines and their agreement.

The seeded placement search is the production engine.  Two independent
oracles in ``oracles.py`` keep it honest: direct enumeration of labeled
graphs, and a breadth-first walk of the 2-switch graph.  For K_{p,1,1}
specifically there is also a test-local detector (an adjacent pair with
p common neighbors) that shares no code with the library's subgraph
search.
The placement search's orbit marking is checked against the direct
rule (keep a placement when the least of its automorphism images is
new), and the completion search's greedy first branch against the
search without it; both references live here only.  The closed-form
K_{p,1,1} decision, and the certificates ``is_potentially`` builds with
it, are checked against the general placement engine.
"""

from itertools import combinations

import pytest
from oracles import (
    graph_from_mask,
    is_potentially_by_switching,
    realization_classes,
    two_switch_neighbors,
    without_edges,
)

import potseq.potential
from potseq.errors import NotGraphical
from potseq.graphs import SimpleGraph, realize
from potseq.potential import (
    TargetPattern,
    _automorphisms,
    _complete_masks,
    _placements,
    certificate_errors,
    contains_subgraph,
    is_potentially,
    kp11_order,
    make_kp11,
    potential_answer,
    realize_with_forced_edges,
)
from potseq.sequences import (
    DegreeSequence,
    enumerate_graphical,
    is_graphical_multiset,
    parse_sequence,
)


def has_kp11_by_common_neighbors(g, p):
    """Independent detector: some edge uv with p common neighbors."""
    masks = g.adjacency_masks()
    for u, v in g.edges:
        common = masks[u] & masks[v] & ~(1 << u) & ~(1 << v)
        if common.bit_count() >= p:
            return True
    return False


def placements_by_min_key(terms, pattern):
    """Reference orbit dedup: keep a leaf when the least of its images
    under Aut(pattern) has not been kept before."""
    H = pattern.graph
    k = H.n
    hdeg = H.degrees()
    classes = []
    for slot, d in enumerate(terms):
        if classes and classes[-1][0] == d:
            classes[-1][1].append(slot)
        else:
            classes.append((d, [slot]))
    auts = _automorphisms(pattern)
    caps = [len(slots) for _, slots in classes]
    assign = [0] * k
    seen = set()
    out = []

    def rec(h):
        if h == k:
            a = tuple(assign)
            key = min(tuple(a[alpha[v]] for v in range(k)) for alpha in auts)
            if key in seen:
                return
            seen.add(key)
            taken = [0] * len(classes)
            slots = []
            for c in a:
                slots.append(classes[c][1][taken[c]])
                taken[c] += 1
            out.append(tuple(slots))
            return
        for c, (d, _slots) in enumerate(classes):
            if caps[c] and d >= hdeg[h]:
                caps[c] -= 1
                assign[h] = c
                rec(h + 1)
                caps[c] += 1

    rec(0)
    return tuple(out)


def complete_masks_by_search(terms, forced):
    """Reference completion: the exact search alone, with no greedy walk
    ahead of it."""
    n = len(terms)
    adj = list(forced)
    r = [terms[i] - adj[i].bit_count() for i in range(n)]
    if min(r) < 0 or sum(r) % 2:
        return None
    dead = set()

    def rec(u):
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
            cands.sort(key=lambda v: (-r[v], v))
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


def graphical_sequences(lo, hi):
    for n in range(lo, hi + 1):
        for s in range(0, n * (n - 1) + 1, 2):
            yield from enumerate_graphical(n, s)


K33 = TargetPattern(SimpleGraph(6, frozenset((u, v) for u in range(3) for v in range(3, 6))))
C5 = TargetPattern(SimpleGraph.cycle(5))
P4 = TargetPattern(SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)})))
K4_MINUS_E = TargetPattern(SimpleGraph(4, SimpleGraph.complete(4).edges - {(2, 3)}))


def test_automorphism_group_orders():
    assert len(_automorphisms(K33)) == 72
    assert len(_automorphisms(make_kp11(3))) == 12
    assert len(_automorphisms(C5)) == 10


@pytest.mark.parametrize(
    "target",
    [K33, C5, P4, K4_MINUS_E, make_kp11(2), make_kp11(3)],
    ids=["K33", "C5", "P4", "K4-e", "kp11:2", "kp11:3"],
)
def test_placements_match_the_min_key_reference_up_to_7(target):
    for n in range(1, 8):
        for s in range(0, n * (n - 1) + 1, 2):
            for seq in enumerate_graphical(n, s):
                expected = placements_by_min_key(seq.terms, target)
                assert _placements(seq.terms, target) == expected, seq


def test_make_kp11_shapes():
    t = make_kp11(3)
    assert t.graph.n == 5
    assert len(t.graph.edges) == 7
    assert sorted(t.graph.degrees(), reverse=True) == [4, 4, 2, 2, 2]
    assert t.graph.has_edge(0, 1)
    t1 = make_kp11(1)
    assert t1.graph.edges == SimpleGraph.complete(3).edges
    with pytest.raises(ValueError):
        make_kp11(0)


def test_target_pattern_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        TargetPattern(SimpleGraph(3, frozenset({(0, 1)})))


def test_contains_subgraph_agrees_with_common_neighbor_rule_on_5_vertices():
    t = make_kp11(3)
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask)
        found = contains_subgraph(g, t)
        assert (found is not None) == has_kp11_by_common_neighbors(g, 3), mask
        if found is not None:
            assert not certificate_errors(
                DegreeSequence(tuple(g.degrees())), t, g, found
            )


def test_contains_subgraph_respects_all_target_edges():
    # C5 contains no triangle, so no K_{1,1,1}
    assert contains_subgraph(SimpleGraph.cycle(5), make_kp11(1)) is None
    assert contains_subgraph(SimpleGraph.complete(5), make_kp11(3)) is not None


def test_paper_examples_for_k311():
    t = make_kp11(3)
    assert is_potentially(parse_sequence("5^2,3^4"), t).answer
    assert not is_potentially(parse_sequence("4^6"), t).answer
    assert not is_potentially(parse_sequence("6^1,3^6"), t).answer


def test_positive_verdicts_carry_valid_certificates():
    t = make_kp11(3)
    for text in ("5^2,3^4", "4^7", "5^1,4^5,1^1", "4^5,2^2"):
        seq = parse_sequence(text)
        v = is_potentially(seq, t)
        assert v.answer
        assert not certificate_errors(seq, t, v.certificate, v.embedding)


def test_negative_verdicts_carry_nothing():
    v = is_potentially(parse_sequence("4^6"), make_kp11(3))
    assert not v.answer
    assert v.certificate is None and v.embedding is None


def test_non_graphical_input_rejected():
    with pytest.raises(ValueError):
        is_potentially(DegreeSequence((3, 1, 1)), make_kp11(1))


def test_non_graphical_input_shorter_than_the_target_is_rejected():
    with pytest.raises(NotGraphical):
        is_potentially(DegreeSequence((1,)), make_kp11(3))


def test_target_larger_than_n_is_never_potential():
    assert not is_potentially(DegreeSequence((2, 2, 2)), make_kp11(2)).answer


def test_two_high_degree_terms_are_necessary():
    # K_{p,1,1} has two vertices of degree p+1, so any sequence with
    # fewer than two such terms must fail regardless of realization
    for p in (1, 2, 3):
        t = make_kp11(p)
        for n in range(p + 2, 7):
            for s in range(0, n * (n - 1) + 1, 2):
                for seq in enumerate_graphical(n, s):
                    if sum(1 for d in seq if d >= p + 1) < 2:
                        assert not is_potentially(seq, t).answer, (p, seq)


def test_containment_is_monotone_in_p():
    # K_{3,1,1} contains K_{2,1,1} contains K_{1,1,1}
    for text in ("5^2,3^4", "4^7", "4^6", "3^4"):
        seq = parse_sequence(text)
        answers = [is_potentially(seq, make_kp11(p)).answer for p in (3, 2, 1)]
        assert answers == sorted(answers)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_three_engines_agree_on_all_graphical_sequences_up_to_6(p, oracle_verdicts):
    t = make_kp11(p)
    for n in range(t.graph.n, 7):
        for s in range(0, n * (n - 1) + 1, 2):
            for seq in enumerate_graphical(n, s):
                a = is_potentially(seq, t).answer
                b, c = oracle_verdicts(seq, t)
                assert a == b == c, (p, seq)


def test_switching_engine_alone_on_a_7_vertex_sample():
    t = make_kp11(3)
    for text in ("6^1,3^6", "4^7", "5^2,4^2,3^2,2^1", "3^6,2^1"):
        seq = parse_sequence(text)
        assert is_potentially_by_switching(seq, t) == is_potentially(seq, t).answer


def test_two_switch_preserves_degrees_and_reaches_all_classes():
    seq = DegreeSequence((2, 2, 2, 2, 2, 2))
    for g in two_switch_neighbors(realize(seq)):
        assert sorted(g.degrees()) == [2] * 6
    # 2-regular on 6 vertices: the hexagon and the two-triangle graph
    classes = list(realization_classes(seq))
    assert len(classes) == 2


def test_realization_class_counts_on_small_sequences():
    # (1,1): one class; (2,1,1)+(0): path plus isolated vertex
    assert len(list(realization_classes(DegreeSequence((1, 1))))) == 1
    assert len(list(realization_classes(DegreeSequence((2, 1, 1, 0))))) == 1
    assert len(list(realization_classes(DegreeSequence((3, 3, 3, 3))))) == 1


def test_4_regular_on_6_vertices_is_unique_and_k311_free():
    # the one class is the octahedron, whose every edge has exactly
    # two common neighbors; this is why 4^6 is the n=6 exception
    classes = list(realization_classes(DegreeSequence((4,) * 6)))
    assert len(classes) == 1
    g = classes[0]
    masks = g.adjacency_masks()
    assert all((masks[u] & masks[v]).bit_count() == 2 for u, v in g.edges)
    assert contains_subgraph(g, make_kp11(3)) is None


def test_realize_with_forced_edges_completes_or_reports_none():
    seq = DegreeSequence((4,) * 5)
    forced = list(combinations(range(4), 2))
    g = realize_with_forced_edges(seq, forced)
    assert g is not None
    assert sorted(g.degrees()) == [4] * 5
    for u, v in forced:
        assert g.has_edge(u, v)
    # joining the two endpoints of a path leaves its middle slot stranded
    assert realize_with_forced_edges(DegreeSequence((2, 1, 1)), [(1, 2)]) is None
    assert realize_with_forced_edges(DegreeSequence((2, 1, 1)), [(0, 1)]) is not None


def test_certificate_errors_catches_each_defect():
    t = make_kp11(3)
    seq = parse_sequence("5^2,3^4")
    v = is_potentially(seq, t)
    good_graph, good_emb = v.certificate, v.embedding
    assert certificate_errors(seq, t, good_graph, good_emb) == []

    wrong_seq = parse_sequence("4^6")
    assert certificate_errors(wrong_seq, t, good_graph, good_emb)

    not_injective = dict(good_emb)
    not_injective[1] = not_injective[0]
    assert certificate_errors(seq, t, good_graph, not_injective)

    missing = dict(good_emb)
    del missing[4]
    assert certificate_errors(seq, t, good_graph, missing)

    # strip an edge the embedding needs
    u, v2 = good_emb[0], good_emb[1]
    broken = without_edges(good_graph, [(u, v2)])
    assert certificate_errors(seq, t, broken, good_emb)


def test_kp11_order_reads_the_degree_list():
    for p in (1, 2, 3, 4):
        assert kp11_order(make_kp11(p)) == p
    # K_{2,1,1} is K_4 minus an edge; a relabeled K_{3,1,1} still counts
    assert kp11_order(K4_MINUS_E) == 2
    relabeled = SimpleGraph(5, frozenset({(3, 4), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)}))
    assert kp11_order(TargetPattern(relabeled)) == 3
    for other in (K33, C5, P4, TargetPattern(SimpleGraph.complete(4))):
        assert kp11_order(other) is None


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_potential_answer_matches_the_engine_up_to_9(p, monkeypatch):
    t = make_kp11(p)
    seqs = list(graphical_sequences(p + 2, 9))
    # with the shape hidden, is_potentially is the general placement engine
    with monkeypatch.context() as m:
        m.setattr(potseq.potential, "kp11_order", lambda h: None)
        general = [is_potentially(seq, t) for seq in seqs]
    for seq, expected in zip(seqs, general):
        assert is_potentially(seq, t) == expected, seq

    def no_engine(*_args):
        raise AssertionError("potential_answer reached is_potentially")

    monkeypatch.setattr(potseq.potential, "is_potentially", no_engine)
    monkeypatch.setattr(potseq.potential, "_complete_masks", no_engine)
    for seq, expected in zip(seqs, general):
        assert potential_answer(seq, t) == expected.answer, seq


@pytest.mark.parametrize("target", [make_kp11(2), make_kp11(3), K33], ids=["kp11:2", "kp11:3", "K33"])
def test_greedy_first_branch_leaves_completions_unchanged_up_to_8(target):
    hedges = sorted(target.graph.edges)
    for seq in graphical_sequences(1, 8):
        for slots in _placements(seq.terms, target):
            forced = [0] * len(seq)
            for u, v in hedges:
                forced[slots[u]] |= 1 << slots[v]
                forced[slots[v]] |= 1 << slots[u]
            expected = complete_masks_by_search(seq.terms, forced)
            assert _complete_masks(seq.terms, forced) == expected, (seq, slots)
