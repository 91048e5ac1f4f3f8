"""Graph container, Havel-Hakimi realization, text form, canonical form."""

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import graph_from_mask, realize_by_sorting

from potseq.errors import NotGraphical

from potseq.graphs import (
    SimpleGraph,
    canonical_form,
    degree_sequence,
    graph_from_text,
    graph_to_text,
    realize,
)
from potseq.sequences import DegreeSequence, enumerate_graphical, is_graphical


def test_edges_normalize_and_loops_rejected():
    g = SimpleGraph(3, frozenset({(2, 1), (0, 2)}))
    assert g.has_edge(1, 2)
    assert g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(0, 3)}))


def test_complete_and_cycle_builders():
    k4 = SimpleGraph.complete(4)
    assert len(k4.edges) == 6
    assert k4.degrees() == [3, 3, 3, 3]
    c5 = SimpleGraph.cycle(5)
    assert len(c5.edges) == 5
    assert c5.degrees() == [2, 2, 2, 2, 2]
    assert c5.neighbors(0) == {1, 4}


def test_remove_vertex_relabels_downward():
    g = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    h = g.remove_vertex(1)
    assert h.n == 3
    # old vertices 2, 3 are now 1, 2; the 1-2 edge died with vertex 1
    assert h.edges == frozenset({(1, 2), (0, 2)})


def test_add_vertex_appends_with_neighbors():
    g = SimpleGraph(3, frozenset({(0, 1)}))
    h = g.add_vertex([0, 2])
    assert h.n == 4
    assert h.neighbors(3) == {0, 2}
    with pytest.raises(ValueError):
        g.add_vertex([3])
    with pytest.raises(ValueError):
        g.add_vertex([0, 0])


def test_realize_round_trips_every_graphical_sequence_up_to_7():
    for n in range(1, 8):
        for s in range(0, n * (n - 1) + 1, 2):
            for seq in enumerate_graphical(n, s):
                g = realize(seq)
                assert degree_sequence(g) == seq, seq


@given(st.integers(min_value=8, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_realize_round_trips_sampled_graphs_beyond_exhaustive_range(n, data):
    pair_count = n * (n - 1) // 2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << pair_count) - 1))
    pairs = list(combinations(range(n), 2))
    edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
    seq = degree_sequence(SimpleGraph(n, edges))
    assert degree_sequence(realize(seq)) == seq


def realize_outcome(realizer, seq):
    """The realization's edge set, or None when it raises NotGraphical."""
    try:
        return realizer(seq).edges
    except NotGraphical:
        return None


def test_realize_equals_the_sorting_oracle_up_to_9():
    for n in range(1, 10):
        for s in range(0, n * (n - 1) + 1, 2):
            for seq in enumerate_graphical(n, s):
                assert realize(seq).edges == realize_by_sorting(seq).edges, seq


def test_realize_and_the_sorting_oracle_reject_the_same_sequences_up_to_7():
    for n in range(1, 8):
        for terms in combinations_with_replacement(range(n, -1, -1), n):
            seq = DegreeSequence(terms)
            expected = realize_outcome(realize_by_sorting, seq)
            assert realize_outcome(realize, seq) == expected, seq
            assert (expected is not None) == is_graphical(seq), seq


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_realize_equals_the_sorting_oracle_up_to_300(data):
    n = data.draw(st.integers(min_value=1, max_value=300))
    hi = data.draw(st.integers(min_value=0, max_value=n))
    terms = data.draw(st.lists(st.integers(min_value=0, max_value=hi), min_size=n, max_size=n))
    if sum(terms) % 2 and data.draw(st.booleans()):
        terms[terms.index(max(terms))] -= 1
    seq = DegreeSequence(tuple(terms))
    assert realize_outcome(realize, seq) == realize_outcome(realize_by_sorting, seq)


def test_realize_assigns_sorted_degrees_by_slot():
    g = realize(DegreeSequence((3, 2, 2, 2, 1)))
    assert g.degrees() == [3, 2, 2, 2, 1]


def test_realize_rejects_non_graphical():
    with pytest.raises(ValueError):
        realize(DegreeSequence((3, 1, 1)))


def test_graph_text_round_trip():
    g = SimpleGraph(4, frozenset({(0, 1), (2, 3), (1, 2)}))
    text = graph_to_text(g)
    assert text == "4 3\n0 1\n1 2\n2 3\n"
    assert graph_from_text(text) == g
    assert graph_from_text("2 0\n") == SimpleGraph(2, frozenset())


def test_graph_from_text_validates():
    for text in ("", "3", "3 2\n0 1", "1 1\n0 0", "2 2\n0 1\n0 1", "2 1\n0 2"):
        with pytest.raises(ValueError):
            graph_from_text(text)


def test_graph_from_mask_orders_pairs_lexicographically():
    # bit 0 is the pair (0,1), bit 1 is (0,2), bit 2 is (1,2)
    g = graph_from_mask(3, 0b101)
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_canonical_form_is_isomorphism_invariant_within_degree_classes():
    g = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    # swapping the two degree-1 vertices and the two degree-2 vertices
    h = SimpleGraph(4, frozenset({(3, 2), (2, 1), (1, 0)}))
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_nonisomorphic_same_degrees():
    # both 2-regular on 6 vertices: one hexagon vs two triangles
    hexagon = SimpleGraph.cycle(6)
    triangles = SimpleGraph(
        6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
    )
    assert degree_sequence(hexagon) == degree_sequence(triangles)
    assert canonical_form(hexagon) != canonical_form(triangles)


def test_canonical_form_classes_match_brute_force_on_4_vertices():
    # relabeling a graph by any permutation must not change its class
    from itertools import permutations

    for mask in range(1 << 6):
        g = graph_from_mask(4, mask)
        base = canonical_form(g)
        for perm in permutations(range(4)):
            relabeled = SimpleGraph(
                4, frozenset((perm[u], perm[v]) for u, v in g.edges)
            )
            assert canonical_form(relabeled) == base
