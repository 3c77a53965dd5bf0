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

    A directive differs by the rule of difference_evidence, applied to the
    two policies as one-policy sets: its canonical source sets are unequal,
    absence counting as a value (an empty delta marks a pure presence
    mismatch).
    """
    differing = difference_evidence((a.key,), (b.key,))
    detail = {}
    for name in sorted(differing):
        set_a = a.directives.get(name, frozenset())
        set_b = b.directives.get(name, frozenset())
        detail[name] = DirectiveDelta(only_in_a=set_a - set_b, only_in_b=set_b - set_a)
    return ComparisonResult(equal=not differing, differing_directives=differing, detail=detail)


def difference_evidence(a: tuple, b: tuple) -> frozenset[str]:
    """Directives that explain why two policy sets, given by their set
    keys, are not multiset-equal.

    A directive is in it exactly when the leftovers of both sides do not
    all hold one value for it, absence counting as a value: the union,
    over every pairing of a's unmatched policies with b's, of the
    directives whose source sets differ. When one side has no leftover, the
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
