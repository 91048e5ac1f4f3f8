"""Anchors from outside the code: values published elsewhere, or fixed by
a hand argument, that the enumeration and the sweeps must reproduce.

Every sigma here uses the sweep's definition: all graphical n-term
sequences, zeros allowed, so an exception at n - 1 with a 0 appended is
an exception at n.  The "zero-free" values keep only sequences whose
last term is positive.
"""

import pytest

from potseq.graphs import SimpleGraph
from potseq.potential import TargetPattern, make_kp11
from potseq.sequences import DegreeSequence, enumerate_graphical
from potseq.thresholds import compute_sigma

# OEIS A004251: graphical partitions with n parts, zeros allowed.
A004251 = (1, 2, 4, 11, 31, 102, 342, 1213, 4361, 16016, 59348)


@pytest.mark.parametrize("n", range(1, len(A004251) + 1))
def test_graphical_sequence_counts_are_oeis_a004251(n):
    per_sum = {s: sum(1 for _ in enumerate_graphical(n, s)) for s in range(0, n * (n - 1) + 1, 2)}
    assert sum(per_sum.values()) == A004251[n - 1]
    # d -> n - 1 - d maps the sequences of sum s onto those of sum n(n-1) - s
    assert all(per_sum[s] == per_sum[n * (n - 1) - s] for s in per_sum)


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_odd_p_at_n_p_plus_3_is_set_by_k_minus_a_perfect_matching(p):
    # (p+1)^(p+3) is K_{p+3} minus a perfect matching: each apex misses
    # its partner, so only p - 1 commons remain.
    result = compute_sigma(make_kp11(p), p + 3)
    assert result.sigma_value == (p + 1) * (p + 3) + 2
    top = result.exceptions_with_sum_at_least(result.sigma_value - 2)
    assert top == [DegreeSequence((p + 1,) * (p + 3))]


@pytest.mark.parametrize("n, sigma, zero_free_top", [(8, 30, 26), (9, 32, 30), (10, 36, 34)])
def test_k4_thresholds_stay_at_most_4n_minus_2(n, sigma, zero_free_top):
    # Erdos-Jacobson-Lehel give sigma(K_4, n) = 4n - 4; at n = 8 the sweep
    # is 2 higher because 4^7 (no 4-set is independent in the complement
    # C_7 or C_3 + C_4) is an exception with a 0 appended.  Zero-free
    # sequences with sum >= 4n - 2 are therefore potentially K_4-graphic,
    # which the witness's seeded clique relies on.
    result = compute_sigma(TargetPattern(SimpleGraph.complete(4)), n)
    assert result.sigma_value == sigma <= 4 * n - 2
    zero_free = [s for seq, s in result.exceptions if seq.terms[-1] > 0]
    assert max(zero_free) == zero_free_top == 4 * n - 6
