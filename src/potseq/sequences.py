"""Degree-sequence fundamentals: parsing, graphicality, enumeration.

Sequences are canonicalized to non-increasing order at construction and
compared as multisets.  The text format is comma-separated ``BASE^EXP``
items (bare ``BASE`` is accepted on input); output always uses exponent
form with descending bases, e.g. ``5^1,4^5,1^1``.

``is_graphical`` is one Erdos-Gallai scan.  ``enumerate_graphical`` is
one iterative walk over non-increasing sequences that tests each
Erdos-Gallai inequality it needs as soon as the terms it reads are fixed,
so it reaches only graphical sequences and tests none of them again.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

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


def enumerate_graphical(n: int, s: int) -> Iterator[DegreeSequence]:
    """All graphical length-``n`` sequences with degree sum ``s``.

    Yields in descending lexicographic order; empty when ``s`` is odd or
    outside [0, n(n-1)].

    One iterative walk fills the list ``d`` left to right, trying the
    values at each position from a ceiling down to a floor, with
    ``pre[j] = d[0] + ... + d[j-1]``.  Indices are 0-based, so
    Erdos-Gallai at k reads ``pre[k] <= k(k-1) + sum(min(d[i], k) for i >= k)``.

    - Floor: with R left for the L positions from j on, d[j] >= ceil(R/L).
    - Ceiling: d[j] <= d[j-1] (n - 1 at j = 0), d[j] <= R, and, with
      room = (j+1)j - pre[j], the prefix bound
      ``pre[j] + d[j] <= (j+1)j + min(R - d[j], (L-1)(j+1))``, that is,
      Erdos-Gallai at j + 1 with every later term bounded by j + 1.
    - When d[j] = v follows u = d[j-1], every k in [max(v, 1), min(u-1, j)]
      has terms j.. at most k and terms k..j-1 above k, so Erdos-Gallai at
      k is ``pre[k] <= k(j-1) + (s - pre[j])``, fully known.  The test does
      not depend on v, so the walk scans k down from min(u-1, j) and
      raises the floor above the first k that fails.  The last position is
      forced (d[n-1] = R) and gets the same test.

    These tests are Erdos-Gallai at exactly the k with d[k-1] >= k + 1
    whose terms are not all above k.  If all n terms are above k, the
    inequality reads pre[k] <= k(n-1), which d[0] <= n - 1 gives.  Every
    other k is implied, by induction from k = 0, where it is trivial:

    - If d[k-1] < k, the left side grows by d[k-1] from k - 1 to k, and
      the right side by 2(k-1) - d[k-1] >= d[k-1], since every term from
      k - 1 on is below k.
    - If d[k-1] = k, the inequality at k is 2 pre[k] <= k(k-1) + s, as
      every term from k on is at most k.  The one at k - 1 gives
      pre[k] - k <= (k-1)(k-2) + (k-1) + (s - pre[k]), that is,
      2 pre[k] <= k(k-1) + 1 + s, and both sides of the wanted inequality
      are even.

    So every sequence the walk reaches is graphical and needs no test of
    its own, and only non-graphical prefixes are cut (generation in the
    spirit of Ruskey, Cohen, Eades and Scott, "Alley CATs in search of
    good homes", 1994; the few indices after Tripathi and Vijay, Discrete
    Math. 265 (2003) 417-420).  The walk keeps its state in three lists
    of length n, not in nested calls, so a long sequence cannot exhaust
    the interpreter's stack.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if s < 0 or s % 2 or s > n * (n - 1):
        return
    wrap = DegreeSequence._canonical
    if n == 1:
        yield wrap((0,))
        return
    last = n - 1
    # d[j] steps down from one above its ceiling to floor[j], and
    # pre[j] = d[0] + ... + d[j-1]; j is the position being stepped.
    d = [0] * n
    floor = [0] * n
    pre = [0] * n
    d[0] = min(last, s // 2) + 1
    floor[0] = -(-s // n)
    j = 0
    while j >= 0:
        u = d[j] - 1
        if u < floor[j]:
            j -= 1
            continue
        d[j] = u
        j += 1
        done = pre[j - 1] + u
        rest = s - done
        if j == last:
            k = u - 1
            while k >= rest and k:
                if pre[k] > k * (j - 1) + rest:
                    break
                k -= 1
            else:
                d[last] = rest
                yield wrap(tuple(d))
            j -= 1
            continue
        pre[j] = done
        lo = -(-rest // (n - j))
        room = (j + 1) * j - done
        hi = min(u, rest, room + (last - j) * (j + 1), (room + rest) // 2)
        k = u - 1 if u <= j else j
        while k >= lo and k:
            if pre[k] > k * (j - 1) + rest:
                lo = k + 1
                break
            k -= 1
        if lo > hi:
            j -= 1
            continue
        d[j] = hi + 1
        floor[j] = lo


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
    terms = seq.terms
    parts = []
    run = terms[0]
    count = 0
    for d in terms:
        if d == run:
            count += 1
        else:
            parts.append(f"{run}^{count}")
            run = d
            count = 1
    parts.append(f"{run}^{count}")
    return ",".join(parts)
