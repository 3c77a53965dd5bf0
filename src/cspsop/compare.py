"""Directive-wise equality of normalized policies.

Each normalized policy has a hashable canonical key (NormalizedPolicy.key)
that is equal exactly when compare() finds no differing directive. A page
can deliver several policies, and its policies compare as a multiset of
keys, so set equality and unmatched leftovers are Counter arithmetic.
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


def policy_set_key(policies: list[NormalizedPolicy]) -> tuple:
    """Hashable form of a policy multiset, () for no policy.

    Two lists get equal keys exactly when policy_sets_equal holds for them.
    """
    return tuple(sorted(p.key for p in policies))


def policy_sets_equal(a: list[NormalizedPolicy], b: list[NormalizedPolicy]) -> bool:
    """Multiset equality of two policy lists under compare-equality.

    Pages can ship several policies (multiple headers plus meta tags);
    delivery order does not matter but multiplicity does.
    """
    return Counter(p.key for p in a) == Counter(p.key for p in b)


def _surplus(a: list[NormalizedPolicy], b: list[NormalizedPolicy]) -> list[NormalizedPolicy]:
    by_key = {p.key: p for p in a}
    surplus = Counter(p.key for p in a) - Counter(p.key for p in b)
    return [by_key[key] for key in surplus.elements()]


def unmatched_policies(
    a: list[NormalizedPolicy], b: list[NormalizedPolicy]
) -> tuple[list[NormalizedPolicy], list[NormalizedPolicy]]:
    """Policies on each side without a compare-equal partner on the other.

    Used to explain why two policy sets differ: every cross pairing of the
    two leftover lists is guaranteed unequal.
    """
    return _surplus(a, b), _surplus(b, a)


def difference_evidence(
    a: list[NormalizedPolicy], b: list[NormalizedPolicy]
) -> frozenset[str]:
    """Directives that explain why two policy lists are not multiset-equal.

    This is the union of compare()'s differing directives over every
    pairing of a's unmatched policies with b's. A directive is in it
    exactly when the leftovers of both sides do not all hold one value for
    it, absence counting as a value. When one side has no leftover, the
    difference is pure multiplicity: the surplus deliveries themselves are
    the discrepancy, so everything they restrict is named.
    """
    left, right = unmatched_policies(a, b)
    names = {name for policy in left + right for name in policy.directives}
    if not left or not right:
        return frozenset(names)
    return frozenset(
        name for name in names
        if len({policy.directives.get(name) for policy in left + right}) > 1
    )
