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
from functools import lru_cache

from .corpus import PageRecord
from .normalize import NormalizedPolicy, normalize
from .origins import Origin
from .policy import parse_policy


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


# NormalizedPolicy.key of one enforced policy text on one page origin.
# The cache key must hold every input normalize() reads: today the text
# and the origin, since only enforced policies get here and delivery is
# not read. A rule that read delivery (say, ignoring a meta-delivered
# sandbox) would have to add it. Corpora are site-ordered, so a small LRU
# catches the repeats. A miss normalizes the text token by token through
# normalize's own token cache and parses no policy, so the records' own
# policies stay unparsed.
@lru_cache(maxsize=64)
def _policy_key(raw: str, origin: Origin) -> tuple:
    return normalize(parse_policy(raw), origin).key


def _enforced_key(record: PageRecord) -> tuple:
    """Policy-set key of a record's enforced policies: the sorted
    NormalizedPolicy.key of each, normalized against the record's origin;
    () when it has none.

    Report-only policies are excluded: they record violations but restrict
    nothing, so they cannot be violated.
    """
    if record.origin is None:
        return ()
    return tuple(sorted(_policy_key(p.raw, record.origin) for p in record.enforced_policies()))
