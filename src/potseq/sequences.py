"""Degree-sequence fundamentals: parsing, graphicality, enumeration.

Sequences are canonicalized to non-increasing order at construction and
compared as multisets.  The text format is comma-separated ``BASE^EXP``
items (bare ``BASE`` is accepted on input); output always uses exponent
form with descending bases, e.g. ``5^1,4^5,1^1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby

from .errors import DomainError

__all__ = [
    "DegreeSequence",
    "degree_sum",
    "is_graphical",
    "is_graphical_multiset",
    "enumerate_graphical",
    "parse_sequence",
    "format_sequence",
]


# Longest sequence parse_sequence accepts; checked before the terms are
# allocated, so a huge exponent fails at once instead of exhausting memory.
MAX_SEQUENCE_TERMS = 100_000


@dataclass(frozen=True)
class DegreeSequence:
    """A non-increasing sequence of non-negative vertex degrees."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        terms = tuple(sorted((int(t) for t in self.terms), reverse=True))
        if not terms:
            raise DomainError("a degree sequence needs at least one term")
        if terms[-1] < 0:
            raise DomainError("degrees must be non-negative")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _canonical(cls, terms: tuple[int, ...]) -> DegreeSequence:
        """Wrap a non-empty, non-increasing tuple of non-negative ints
        without re-checking or re-sorting it."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "terms", terms)
        return seq

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __str__(self) -> str:
        return format_sequence(self)


def degree_sum(seq: DegreeSequence) -> int:
    """Sum of the degrees (twice the edge count of any realization)."""
    return sum(seq.terms)


def _erdos_gallai(terms: tuple[int, ...] | list[int]) -> bool:
    """Erdos-Gallai test on a non-increasing list of non-negative ints.

    Conditions are only checked up to the Durfee index (the largest k
    with d_k >= k); the remaining ones are implied.  ``terms[:above]``
    are the terms above k, summing to ``head``; ``above`` only falls.
    """
    total = sum(terms)
    if total % 2:
        return False
    n = len(terms)
    if terms[0] >= n:
        return False
    prefix = 0
    above, head = n, total
    for k in range(1, n + 1):
        d = terms[k - 1]
        if d < k:
            break
        prefix += d
        while above and terms[above - 1] <= k:
            above -= 1
            head -= terms[above]
        if above > k:  # k(k - 1) + k(above - k) + sum(terms[above:])
            bound = k * (above - 1) + total - head
        else:
            bound = k * (k - 1) + total - prefix
        if prefix > bound:
            return False
    return True


def is_graphical(seq: DegreeSequence) -> bool:
    """Whether some simple graph has exactly these degrees."""
    return _erdos_gallai(seq.terms)


def is_graphical_multiset(values: Iterable[int]) -> bool:
    """Erdos-Gallai on an unordered collection; empty means the empty graph."""
    terms = sorted(values, reverse=True)
    if not terms:
        return True
    if terms[-1] < 0:
        return False
    return _erdos_gallai(terms)


def _bounded_partitions(
    total: int, length: int, cap: int, k: int = 0, prefix: int = 0
) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of the given length, entries in [0, cap],
    summing to total, that pass the Erdos-Gallai prefix bound.

    ``k`` terms summing to ``prefix`` come before the tuple.  A candidate
    ``first`` at position k+1 leaves T = total - first for the L = length - 1
    terms after it, and is kept only when

        prefix + first <= (k+1)k + min(T, L(k+1)).

    That is Erdos-Gallai's inequality at k+1 with each tail term
    min(d_i, k+1) bounded by min(T, L(k+1)), so every graphical sequence
    passes it; the caller still applies the full test to each tuple.  The
    left side grows with ``first`` and the right side shrinks, so the kept
    candidates are the ones up to a ceiling, and the order stays
    descending-lexicographic.
    """
    if length == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    lo = (total + length - 1) // length
    tail = length - 1
    room = (k + 1) * k - prefix
    hi = min(cap, total, room + tail * (k + 1), (room + total) // 2)
    for first in range(hi, lo - 1, -1):
        for rest in _bounded_partitions(total - first, tail, first, k + 1, prefix + first):
            yield (first,) + rest


def enumerate_graphical(n: int, s: int) -> Iterator[DegreeSequence]:
    """All graphical length-``n`` sequences with degree sum ``s``.

    Yields in descending lexicographic order; empty when ``s`` is odd or
    outside [0, n(n-1)].
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if s < 0 or s % 2 or s > n * (n - 1):
        return
    for parts in _bounded_partitions(s, n, n - 1):
        if _erdos_gallai(parts):
            yield DegreeSequence._canonical(parts)


def parse_sequence(text: str) -> DegreeSequence:
    """Parse comma-separated ``BASE^EXP`` items; bare ``BASE`` means exponent 1.

    Raises DomainError when the items add up to more than
    MAX_SEQUENCE_TERMS terms.
    """
    terms: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise DomainError(f"empty item in sequence text {text!r}")
        base, sep, exp = item.partition("^")
        try:
            b = int(base)
            e = int(exp) if sep else 1
        except ValueError:
            raise DomainError(f"bad sequence item {item!r}") from None
        if e < 1:
            raise DomainError(f"exponent must be positive in {item!r}")
        if len(terms) + e > MAX_SEQUENCE_TERMS:
            raise DomainError(f"sequence has more than {MAX_SEQUENCE_TERMS} terms")
        terms.extend([b] * e)
    return DegreeSequence(tuple(terms))


def format_sequence(seq: DegreeSequence) -> str:
    """Exponent form with descending bases, e.g. ``5^1,4^5,1^1``."""
    return ",".join(f"{d}^{len(list(grp))}" for d, grp in groupby(seq.terms))
