"""Directive-wise equality of normalized policies.

Each normalized policy has a hashable canonical key (NormalizedPolicy.key)
that is equal exactly when compare() finds no differing directive. A page
can deliver several policies, and its policies compare as a multiset of
keys: its set key is their sorted tuple. Set equality is equality of set
keys, and the evidence of a difference is worked out from the two set
keys alone: from the policies each side has left over once equal keys
are matched, and the (directive, sources) items those leftovers share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .corpus import PageRecord
from .normalize import NormalizedPolicy, _key
from .origins import Origin


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
    balance = Counter(a)
    balance.subtract(b)
    left = [key for key, count in balance.items() if count > 0]
    right = [key for key, count in balance.items() if count < 0]
    leftovers = left + right
    names = {name for key in leftovers for name, _ in key}
    if not left or not right:
        return frozenset(names)
    # A key names each directive once, so the leftovers all hold one value
    # for a directive exactly when its (directive, sources) item is in each.
    shared = set(leftovers[0]).intersection(*leftovers[1:])
    return frozenset(names.difference(name for name, _ in shared))


# NormalizedPolicy.key of one enforced policy text on one page origin.
# The cache key must hold every input normalize() reads: today the text
# and the origin, since only enforced policies get here and delivery is
# not read. A rule that read delivery (say, ignoring a meta-delivered
# sandbox) would have to add it. Corpora are site-ordered, so a small LRU
# catches the repeats. A miss builds the key in normalize's one pass over
# the text, through its token cache, and parses no policy, so the
# records' own policies stay unparsed.
@lru_cache(maxsize=64)
def _policy_key(raw: str, origin: Origin) -> tuple:
    return _key(raw, origin)


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
