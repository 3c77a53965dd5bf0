"""Directive-wise equality of normalized policies.

Each normalized policy has a hashable canonical key (NormalizedPolicy.key)
that is equal exactly when compare() finds no differing directive. A page
can deliver several policies, and its policies compare as a multiset of
keys: its set key is their sorted tuple. Set equality is equality of set
keys, and the evidence of a difference is worked out from the two set
keys alone, by Counter arithmetic on their leftovers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .normalize import NormalizedPolicy


@dataclass(frozen=True)
class DirectiveDelta:
    only_in_a: frozenset[str]
    only_in_b: frozenset[str]


@dataclass(frozen=True)
class ComparisonResult:
    equal: bool
    differing_directives: frozenset[str]
    detail: dict[str, DirectiveDelta]


def compare(a: NormalizedPolicy, b: NormalizedPolicy) -> ComparisonResult:
    """Report which directives differ between two normalized policies.

    Every directive present in either policy is examined; a directive
    differs when its canonical source sets are unequal, and present-vs-absent
    counts as a difference (an empty delta marks pure presence mismatches).
    """
    differing: set[str] = set()
    detail: dict[str, DirectiveDelta] = {}
    for name in sorted(set(a.directives) | set(b.directives)):
        in_a = name in a.directives
        in_b = name in b.directives
        set_a = a.directives.get(name, frozenset())
        set_b = b.directives.get(name, frozenset())
        if in_a != in_b or set_a != set_b:
            differing.add(name)
            detail[name] = DirectiveDelta(
                only_in_a=frozenset(set_a - set_b), only_in_b=frozenset(set_b - set_a)
            )
    return ComparisonResult(
        equal=not differing, differing_directives=frozenset(differing), detail=detail
    )


def difference_evidence(a: tuple, b: tuple) -> frozenset[str]:
    """Directives that explain why two policy sets, given by their set
    keys, are not multiset-equal.

    This is the union of compare()'s differing directives over every
    pairing of a's unmatched policies with b's. A directive is in it
    exactly when the leftovers of both sides do not all hold one value for
    it, absence counting as a value. When one side has no leftover, the
    difference is pure multiplicity: the surplus deliveries themselves are
    the discrepancy, so everything they restrict is named.
    """
    left, right = Counter(a) - Counter(b), Counter(b) - Counter(a)
    leftovers = [dict(key) for key in (*left, *right)]
    names = {name for directives in leftovers for name in directives}
    if not left or not right:
        return frozenset(names)
    return frozenset(
        name for name in names
        if len({directives.get(name) for directives in leftovers}) > 1
    )
