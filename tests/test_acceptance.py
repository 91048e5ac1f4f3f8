"""The acceptance gate: one test per advertised guarantee.

Each test prints a [PASS]/[FAIL] line naming the guarantee so a plain
pytest -v run doubles as the checklist.  Validation here is deliberately
redundant with the unit tests and leans on test-local checkers instead
of trusting the library's own verdicts wherever that is possible.
"""

from itertools import combinations

from oracles import graph_from_mask

from potseq.cli import dispatch
from potseq.decomp import decompose_even, decompose_odd
from potseq.extremal import build_lower_bound, sigma_lower_bound
from potseq.potential import (
    contains_subgraph,
    is_potentially,
    make_kp11,
    potential_answer,
)
from potseq.sequences import DegreeSequence, degree_sum, enumerate_graphical
from potseq.thresholds import compute_sigma
from potseq.witness import (
    AttachStep,
    BaseCaseStep,
    EarlyContainmentStep,
    InterchangeStep,
    SeededCliqueStep,
    find_k311_realization,
    replay_trace,
)


def report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def run_cli_sigma(n):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(["sigma", "compute", "--target", "kp11:3", "--n", str(n)])
    assert code == 0
    for line in buf.getvalue().splitlines():
        if line.startswith("sigma: "):
            return int(line.split()[1])
    raise AssertionError("no sigma line in CLI output")


def test_criterion_1_exact_threshold_table():
    expected = {5: 18, 6: 26, 7: 26, 8: 30, 9: 34}
    got = {n: run_cli_sigma(n) for n in expected}
    report(got == expected, f"criterion 1: sigma(K_3,1,1) table {got}")


def test_criterion_2_unique_exception_at_n6():
    result = compute_sigma(make_kp11(3), 6)
    high = [
        seq for seq, s in result.exceptions if s >= 22
    ]
    ok = high == [DegreeSequence((4,) * 6)]
    report(ok, f"criterion 2: sole exception with sum >= 22 at n=6 is 4^6 (got {high})")


def test_criterion_3_lower_bound_instances():
    checked = 0
    for p in range(1, 6):
        for n in range(p + 2, min(p + 7, 10) + 1):
            inst = build_lower_bound(p, n)
            assert degree_sum(inst.sequence) == sigma_lower_bound(p, n) - 2, (p, n)
            degs = sorted(inst.witness_graph.degrees(), reverse=True)
            assert tuple(degs) == inst.sequence.terms, (p, n)
            assert not is_potentially(inst.sequence, make_kp11(p)).answer, (p, n)
            checked += 1
    report(True, f"criterion 3: {checked} extremal instances, none potentially K_p,1,1")


def test_criterion_4_conjectured_equality():
    cases = [(1, 6), (1, 7), (1, 8), (2, 8), (2, 9), (3, 10)]
    for p, n in cases:
        result = compute_sigma(make_kp11(p), n)
        assert result.sigma_value == sigma_lower_bound(p, n), (p, n, result.sigma_value)
    report(True, f"criterion 4: computed sigma equals the bound for {cases}")


def check_witness_independently(seq, result):
    graph, emb = result.graph, result.embedding
    assert tuple(sorted(graph.degrees(), reverse=True)) == seq.terms
    assert sorted(emb) == [0, 1, 2, 3, 4]
    images = [emb[i] for i in range(5)]
    assert len(set(images)) == 5
    a, b = images[0], images[1]
    assert graph.has_edge(a, b)
    for c in images[2:]:
        assert graph.has_edge(a, c) and graph.has_edge(b, c)
    assert replay_trace(result.trace) == graph
    # the exact engine solves only cores below eight vertices; every other
    # step is the construction's own
    core, *steps = result.trace
    assert type(core) is (BaseCaseStep if core.graph.n <= 7 else SeededCliqueStep)
    assert all(isinstance(s, (EarlyContainmentStep, InterchangeStep, AttachStep)) for s in steps)


def test_criterion_5_witness_totality_n7_n8():
    total = seeded = 0
    for n, lo in ((7, 26), (8, 30)):
        for s in range(n * (n - 1), lo - 1, -2):
            for seq in enumerate_graphical(n, s):
                result = find_k311_realization(seq)
                check_witness_independently(seq, result)
                total += 1
                seeded += isinstance(result.trace[0], SeededCliqueStep)
    report(
        (total, seeded) == (655, 207),
        f"criterion 5: {total} witnesses re-validated, {seeded} built on the seeded clique",
    )


def test_criterion_6_decompositions_up_to_12():
    for m in range(1, 13):
        dec = decompose_odd(m)
        check_decomposition(dec, expect_matching=False)
        if m >= 2:
            dec = decompose_even(m)
            check_decomposition(dec, expect_matching=True)
    report(True, "criterion 6: decompositions for all m <= 12 are exact partitions")


def check_decomposition(dec, expect_matching):
    n = dec.n
    union = set()
    total = 0
    for idx, (role, edges) in enumerate(dec.parts):
        total += len(edges)
        union |= edges
        degs = {}
        for u, v in edges:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
        if expect_matching and idx == 0:
            assert role == "one-factor"
            assert len(edges) == n // 2
            assert all(d == 1 for d in degs.values()) and len(degs) == n
        else:
            assert role == "spanning-cycle"
            assert len(edges) == n
            assert all(d == 2 for d in degs.values()) and len(degs) == n
            seen = {0}
            stack = [0]
            adj = {v: set() for v in range(n)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == n
    assert total == len(union) == n * (n - 1) // 2
    assert union == set(combinations(range(n), 2))


def test_criterion_7_engine_agreement_up_to_n6(oracle_verdicts):
    target = make_kp11(3)
    checked = 0
    for n in range(5, 7):
        for s in range(0, n * (n - 1) + 1, 2):
            for seq in enumerate_graphical(n, s):
                a = is_potentially(seq, target).answer
                b, c = oracle_verdicts(seq, target)
                assert a == b == c == potential_answer(seq, target), seq
                checked += 1
    report(True, f"criterion 7: four deciders agree on all {checked} sequences, n <= 6")


def test_criterion_8_dense_5_vertex_graphs_contain_k311():
    target = make_kp11(3)
    dense = 0
    for mask in range(1 << 10):
        g = graph_from_mask(5, mask)
        if len(g.edges) < 9:
            continue
        dense += 1
        masks = g.adjacency_masks()
        witness_pair = any(
            (masks[u] & masks[v]).bit_count() >= 3 for u, v in g.edges
        )
        assert witness_pair, mask
        assert contains_subgraph(g, target) is not None, mask
    report(dense == 11, f"criterion 8: all {dense} graphs with >= 9 of 10 edges contain K_3,1,1")
