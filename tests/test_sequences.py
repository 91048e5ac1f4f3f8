"""Graphicality tests against two independent oracles.

Oracle one enumerates every labeled graph on n vertices and collects the
degree multisets that actually occur.  Oracle two is the textbook
inequality check with no early termination.  Both were used to freeze
the expected values below before the library existed.
"""

import hashlib
import time
from itertools import combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potseq.sequences import (
    MAX_SEQUENCE_TERMS,
    DegreeSequence,
    degree_sum,
    enumerate_graphical,
    format_sequence,
    is_graphical,
    is_graphical_multiset,
    parse_sequence,
)


def all_graphical_multisets(n):
    """Degree multisets of labeled graphs on n vertices, by brute force."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        degs = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                degs[u] += 1
                degs[v] += 1
        seen.add(tuple(sorted(degs, reverse=True)))
    return seen


def erdos_gallai_full(terms):
    """No early break: every k is tested."""
    if sum(terms) % 2:
        return False
    d = sorted(terms, reverse=True)
    n = len(d)
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def all_candidate_tuples(n):
    out = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(min(cap, n - 1), -1, -1):
            prefix.append(d)
            rec(prefix, remaining - 1, d)
            prefix.pop()

    rec([], n, n - 1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_is_graphical_matches_graph_enumeration(n):
    actual_sets = all_graphical_multisets(n)
    for terms in all_candidate_tuples(n):
        expected = terms in actual_sets
        assert is_graphical(DegreeSequence(terms)) == expected, terms


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_early_break_agrees_with_full_inequality_scan(n):
    for terms in all_candidate_tuples(n):
        assert is_graphical(DegreeSequence(terms)) == erdos_gallai_full(terms), terms


@given(
    st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    )
)
@settings(max_examples=400, deadline=None)
def test_linear_scan_agrees_with_full_inequality_scan_up_to_60(terms):
    terms = sorted(terms, reverse=True)
    assert is_graphical(DegreeSequence(tuple(terms))) == erdos_gallai_full(terms), terms


def test_longest_sequences_are_decided_at_once():
    # 50000^100000 is checked at every k up to its Durfee index 50000;
    # 99999^50000,49999^50000 first fails at k = 50000.  A scan of the
    # tail per k would take minutes on either.
    half = MAX_SEQUENCE_TERMS // 2
    cases = [
        (f"{half}^{MAX_SEQUENCE_TERMS}", True),
        (f"{MAX_SEQUENCE_TERMS - 1}^{half},{half - 1}^{half}", False),
    ]
    for text, expected in cases:
        seq = parse_sequence(text)
        started = time.perf_counter()
        assert is_graphical(seq) is expected, text
        assert time.perf_counter() - started < 5.0, text


def test_known_verdicts():
    assert is_graphical(parse_sequence("5^2,3^4"))
    assert is_graphical(parse_sequence("4^6"))
    assert is_graphical(parse_sequence("6^1,3^6"))
    assert not is_graphical(parse_sequence("3,1,1"))
    assert not is_graphical(parse_sequence("3^2,1^1"))
    assert is_graphical(DegreeSequence((0,)))
    assert not is_graphical(DegreeSequence((1,)))


def test_multiset_helper_handles_unsorted_and_empty():
    assert is_graphical_multiset([])
    assert is_graphical_multiset([1, 2, 1])
    assert not is_graphical_multiset([1, 3, 1])
    assert is_graphical_multiset((0, 0))


def test_degree_sequence_canonicalizes_and_validates():
    seq = DegreeSequence((1, 3, 2, 2))
    assert seq.terms == (3, 2, 2, 1)
    assert len(seq) == 4
    assert degree_sum(seq) == 8
    assert degree_sum(DegreeSequence((0,))) == 0
    assert degree_sum(parse_sequence("6^1,3^6")) == 24
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError):
        DegreeSequence((2, -1))


def test_parse_and_format_round_trip():
    assert format_sequence(parse_sequence("3,3,3,1,1,1")) == "3^3,1^3"
    assert format_sequence(parse_sequence("5^1, 4^5, 1^1")) == "5^1,4^5,1^1"
    assert parse_sequence("4^6") == DegreeSequence((4,) * 6)
    assert parse_sequence("2") == DegreeSequence((2,))
    for text in ("", "a", "4^", "^2", "4^^2", "4^0", "-1"):
        with pytest.raises(ValueError):
            parse_sequence(text)


def test_parse_sequence_caps_the_term_count_before_allocating():
    assert len(parse_sequence(f"0^{MAX_SEQUENCE_TERMS}")) == MAX_SEQUENCE_TERMS
    half = MAX_SEQUENCE_TERMS // 2
    for text in ("1^1000000000000", f"0^{MAX_SEQUENCE_TERMS},0", f"2^{half + 1},1^{half}"):
        with pytest.raises(ValueError, match="more than"):
            parse_sequence(text)


def test_format_then_parse_is_identity_on_enumerated_sequences():
    for s in range(0, 21, 2):
        for seq in enumerate_graphical(5, s):
            assert parse_sequence(format_sequence(seq)) == seq


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumerate_graphical_is_exactly_the_graphical_slice(n):
    actual_sets = all_graphical_multisets(n)
    for s in range(0, n * (n - 1) + 1):
        expected = sorted(
            (t for t in actual_sets if sum(t) == s), reverse=True
        )
        got = [seq.terms for seq in enumerate_graphical(n, s)]
        assert got == expected, (n, s)


def test_enumerate_graphical_edge_cases():
    assert [seq.terms for seq in enumerate_graphical(3, 4)] == [(2, 1, 1)]
    assert list(enumerate_graphical(3, 5)) == []
    assert list(enumerate_graphical(3, 8)) == []
    assert [seq.terms for seq in enumerate_graphical(1, 0)] == [(0,)]
    with pytest.raises(ValueError):
        list(enumerate_graphical(0, 0))


def unpruned_partitions(total, length, cap):
    """The partition walk without the prefix bound: every non-increasing
    tuple of the given length, entries in [0, cap], summing to total."""
    if length == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    lo = (total + length - 1) // length
    for first in range(min(cap, total), lo - 1, -1):
        for rest in unpruned_partitions(total - first, length - 1, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(1, 10))
def test_prefix_bound_drops_only_non_graphical_partitions(n):
    for s in range(0, n * (n - 1) + 1, 2):
        expected = [t for t in unpruned_partitions(s, n, n - 1) if erdos_gallai_full(t)]
        assert [seq.terms for seq in enumerate_graphical(n, s)] == expected, (n, s)


def test_enumeration_is_descending_in_lex_order():
    seqs = [seq.terms for seq in enumerate_graphical(6, 14)]
    assert seqs == sorted(seqs, reverse=True)
    assert len(set(seqs)) == len(seqs)


# sha256 over one line "SUM:TERMS" per enumerated sequence, sums ascending,
# each sum's sequences in enumeration order.  Frozen from the recursive
# partition walk that preceded the iterative one.
ENUMERATION_DIGESTS = {
    10: "43ac4d359bb734371aef98f59f2a9eb613d421e133e818e7aad7f01ff91452df",
    11: "08e228910ddc9f977368377b7bbc7035e54d4d572f883ddf9a78cb7ed0606060",
}


@pytest.mark.parametrize("n", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_is_pinned(n):
    digest = hashlib.sha256()
    for s in range(0, n * (n - 1) + 1, 2):
        for seq in enumerate_graphical(n, s):
            digest.update(f"{s}:{','.join(map(str, seq.terms))}\n".encode())
    assert digest.hexdigest() == ENUMERATION_DIGESTS[n]


def format_by_groupby(seq):
    """The run-length formatter as first written, kept as the reference."""
    return ",".join(f"{d}^{len(list(grp))}" for d, grp in groupby(seq.terms))


def test_format_matches_the_groupby_reference():
    seqs = [DegreeSequence((0,)), parse_sequence("3^100000")]
    for n in range(1, 10):
        for s in range(0, n * (n - 1) + 1, 2):
            seqs.extend(enumerate_graphical(n, s))
    for seq in seqs:
        assert format_sequence(seq) == format_by_groupby(seq), seq.terms
    assert format_sequence(seqs[0]) == "0^1"
    assert format_sequence(seqs[1]) == "3^100000"
