"""Lower-bound constructions: the sequence, the witness graph, the bound."""

import pytest

from potseq.extremal import (
    LowerBoundInstance,
    build_lower_bound,
    extremal_sequence,
    sigma_lower_bound,
    verify_not_potential,
)
from potseq.graphs import degree_sequence
from potseq.potential import contains_subgraph, is_potentially, make_kp11
from potseq.sequences import degree_sum, parse_sequence


def test_bound_values():
    assert sigma_lower_bound(3, 7) == 26
    assert sigma_lower_bound(1, 6) == 12
    assert sigma_lower_bound(2, 8) == 22
    assert sigma_lower_bound(4, 8) == 36
    # not tight at n = 6, where the true threshold is 26
    assert sigma_lower_bound(3, 6) == 22
    assert sigma_lower_bound(3, 5) == 18


def test_bound_is_even_and_tracks_the_formula():
    for p in range(1, 7):
        for n in range(p + 2, p + 12):
            b = sigma_lower_bound(p, n)
            assert b % 2 == 0
            assert b == 2 * (((p + 1) * (n - 1) + 2) // 2)


def test_extremal_sequence_forms():
    assert str(extremal_sequence(3, 7)) == "6^1,3^6"
    assert str(extremal_sequence(4, 7)) == "6^1,4^6"
    assert str(extremal_sequence(4, 8)) == "7^1,4^6,3^1"
    assert str(extremal_sequence(1, 6)) == "5^1,1^5"


def test_extremal_sum_is_two_below_the_bound():
    for p in range(1, 7):
        for n in range(p + 2, p + 12):
            seq = extremal_sequence(p, n)
            assert degree_sum(seq) == sigma_lower_bound(p, n) - 2, (p, n)


def test_parameters_out_of_range():
    with pytest.raises(ValueError):
        sigma_lower_bound(0, 5)
    with pytest.raises(ValueError):
        sigma_lower_bound(3, 4)
    with pytest.raises(ValueError):
        build_lower_bound(2, 3)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_witness_graph_realizes_the_sequence(p):
    for n in range(p + 2, p + 9):
        inst = build_lower_bound(p, n)
        assert degree_sequence(inst.witness_graph) == inst.sequence, (p, n)
        assert inst.bound == sigma_lower_bound(p, n)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_witness_graph_avoids_the_target(p):
    t = make_kp11(p)
    for n in range(p + 2, p + 9):
        inst = build_lower_bound(p, n)
        assert contains_subgraph(inst.witness_graph, t) is None, (p, n)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_no_realization_at_all_contains_the_target_small_n(p):
    for n in range(p + 2, min(p + 9, 9)):
        inst = build_lower_bound(p, n)
        assert not is_potentially(inst.sequence, make_kp11(p)).answer, (p, n)


def test_verify_not_potential_true_cases():
    for p, n in ((3, 7), (3, 5), (2, 8), (1, 6), (4, 8), (5, 7), (5, 12), (3, 20)):
        assert verify_not_potential(build_lower_bound(p, n)), (p, n)


def test_verify_not_potential_rejects_a_potential_sequence():
    # (5^2,3^4) reaches the bound's sum profile but is potentially K_{3,1,1}
    fake = LowerBoundInstance(
        p=3,
        n=6,
        bound=sigma_lower_bound(3, 6),
        sequence=parse_sequence("5^2,3^4"),
        witness_graph=build_lower_bound(3, 6).witness_graph,
    )
    assert not verify_not_potential(fake)


def test_verify_not_potential_decides_long_sequences_with_two_apex_slots():
    # two terms reach p + 1 at n = 12, where no degree count settles it
    witness = build_lower_bound(3, 12).witness_graph
    for text, expected in (("4^6,0^6", True), ("5^2,3^4,0^6", False), ("11^12", False)):
        fake = LowerBoundInstance(3, 12, sigma_lower_bound(3, 12), parse_sequence(text), witness)
        assert verify_not_potential(fake) == expected, text


def test_closed_form_decides_the_bound_instance_at_n40():
    inst = build_lower_bound(3, 40)
    assert verify_not_potential(inst)
    assert degree_sum(inst.sequence) == sigma_lower_bound(3, 40) - 2
