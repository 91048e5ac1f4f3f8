"""Lower-bound instances: sequences whose realizations all avoid K_{p,1,1}.

For n >= p+2 the sequence ((n-1)^1, p^(n-1)), or ((n-1)^1, p^(n-2),
(p-1)^1) when (p+1)(n-1) is odd, has degree sum sigma_lower_bound - 2
and only one term of size >= p+1, so no realization can host the two
adjacent apexes of K_{p,1,1}.  The witness realization is built
explicitly: spread p-regular (or near-p-regular) structure over n-1
vertices using spanning-cycle/one-factor decompositions of K_{n-1},
then join one dominating vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomp import ONE_FACTOR, SPANNING_CYCLE, cycle_vertex_order, decompose_even, decompose_odd, join
from .errors import DomainError
from .graphs import Edge, SimpleGraph, _norm_edge, degree_sequence, realize
from .potential import make_kp11, potential_answer
from .sequences import DegreeSequence

__all__ = [
    "LowerBoundInstance",
    "sigma_lower_bound",
    "extremal_sequence",
    "build_lower_bound",
    "verify_not_potential",
]


@dataclass(frozen=True)
class LowerBoundInstance:
    p: int
    n: int
    bound: int
    sequence: DegreeSequence
    witness_graph: SimpleGraph


def _check_params(p: int, n: int) -> None:
    if p < 1:
        raise DomainError("p must be >= 1")
    if n < p + 2:
        raise DomainError(f"n must be >= p + 2 (got p={p}, n={n})")


def sigma_lower_bound(p: int, n: int) -> int:
    """2 * floor(((p+1)(n-1) + 2) / 2): the even degree-sum value below
    which a non-potentially-K_{p,1,1} sequence exists (see build_lower_bound)."""
    _check_params(p, n)
    return 2 * (((p + 1) * (n - 1) + 2) // 2)


def extremal_sequence(p: int, n: int) -> DegreeSequence:
    """The extremal sequence: sum is sigma_lower_bound(p, n) - 2 and only
    the first term reaches p + 1."""
    _check_params(p, n)
    if (p + 1) * (n - 1) % 2 == 0:
        return DegreeSequence((n - 1,) + (p,) * (n - 1))
    return DegreeSequence((n - 1,) + (p,) * (n - 2) + (p - 1,))


def _budget(needed: int, available: int, p: int, n: int) -> None:
    if needed > available:
        raise DomainError(
            f"construction for p={p}, n={n} needs {needed} spanning cycles "
            f"but the decomposition only provides {available}"
        )


def _construct_witness(p: int, n: int) -> SimpleGraph:
    base = n - 1
    if base % 2 == 0:
        dec = decompose_even(base // 2)
        matching = next(edges for role, edges in dec.parts if role == ONE_FACTOR)
        cycles = [edges for role, edges in dec.parts if role == SPANNING_CYCLE]
        if p % 2 == 1:
            need = (p - 1) // 2
            _budget(need, len(cycles), p, n)
            core_edges: frozenset[Edge] = frozenset().union(*cycles[:need])
        else:
            need = (p - 2) // 2
            _budget(need, len(cycles), p, n)
            core_edges = matching.union(*cycles[:need])
        core = SimpleGraph(base, core_edges)
    else:
        dec = decompose_odd((base - 1) // 2)
        cycles = [edges for _, edges in dec.parts]
        if p % 2 == 1:
            need = (p - 1) // 2
            _budget(need, len(cycles), p, n)
            core = SimpleGraph(base, frozenset().union(*cycles[:need]))
        else:
            need = p // 2
            _budget(need, len(cycles), p, n)
            edges = set().union(*cycles[:need])
            order = cycle_vertex_order(cycles[0])
            half = len(order) // 2
            drop = {_norm_edge(order[2 * i], order[2 * i + 1]) for i in range(half)}
            drop.add(_norm_edge(order[-1], order[0]))
            if not drop <= edges:
                raise RuntimeError("edges marked for removal are not all present")
            core = SimpleGraph(base, frozenset(edges - drop))
    return join(core, SimpleGraph(1))


def build_lower_bound(p: int, n: int) -> LowerBoundInstance:
    """Extremal sequence plus a realization of it.

    p <= 2 realizes the sequence directly; p >= 3 assembles the witness
    from complete-graph decompositions (one dropped near-matching when
    both p and n are even).
    """
    _check_params(p, n)
    seq = extremal_sequence(p, n)
    graph = realize(seq) if p <= 2 else _construct_witness(p, n)
    got = degree_sequence(graph)
    if got != seq:
        raise RuntimeError(f"witness degrees {got} do not match {seq}")
    return LowerBoundInstance(p, n, sigma_lower_bound(p, n), seq, graph)


def verify_not_potential(inst: LowerBoundInstance) -> bool:
    """True iff the instance's sequence is not potentially K_{p,1,1}-graphic.

    ``potential_answer`` decides K_{p,1,1} exactly for every n by its
    closed form, whose proof is in its docstring.
    """
    return not potential_answer(inst.sequence, make_kp11(inst.p))
