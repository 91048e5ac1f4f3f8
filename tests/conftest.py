"""Fixtures shared across test modules."""

import pytest

from oracles import is_potentially_by_enumeration, is_potentially_by_switching


@pytest.fixture(scope="session")
def oracle_verdicts():
    """(enumeration verdict, switching verdict) for a sequence and a target.

    The two slow oracles run once per (target, terms) in a session, so
    tests that cross-check the same sequences share the work.
    """
    cache = {}

    def verdicts(seq, target):
        key = (target, seq.terms)
        if key not in cache:
            cache[key] = (
                is_potentially_by_enumeration(seq, target),
                is_potentially_by_switching(seq, target),
            )
        return cache[key]

    return verdicts
