import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from cspsop.compare import (
    compare,
    difference_evidence,
)
from cspsop.normalize import normalize
from cspsop.origins import Origin
from cspsop.policy import parse_policy
from grammar import policy_text
from helpers import oracle_evidence
from oracles import _multiset_equal, oracle_compare, oracle_difference_evidence, oracle_normalize

MAIN = Origin("http", "main.com", 80)


def norm(text: str, origin: Origin = MAIN):
    return normalize(parse_policy(text), origin)


class TestCompare:
    def test_reflexive(self):
        n = norm("default-src 'self'; script-src a.com")
        result = compare(n, n)
        assert result.equal
        assert result.differing_directives == frozenset()
        assert result.detail == {}

    def test_running_example_policies_differ(self):
        liberal = norm("default-src 'self'; script-src third.com; child-src https:")
        strict = norm("default-src 'none'; script-src 'self'; child-src 'self'")
        result = compare(liberal, strict)
        assert not result.equal
        assert {"script-src", "child-src"} <= result.differing_directives
        # cross-check with the naive oracle diff
        expected = oracle_compare(
            oracle_normalize("default-src 'self'; script-src third.com; child-src https:", "http", "main.com", 80),
            oracle_normalize("default-src 'none'; script-src 'self'; child-src 'self'", "http", "main.com", 80),
        )
        assert result.differing_directives == frozenset(expected)

    def test_source_order_irrelevant(self):
        a = norm("script-src a.com b.com")
        b = norm("script-src b.com a.com")
        assert compare(a, b).equal

    def test_presence_counts_as_difference(self):
        a = norm("default-src 'self'; frame-ancestors 'self'")
        b = norm("default-src 'self'")
        result = compare(a, b)
        assert result.differing_directives == frozenset({"frame-ancestors"})
        delta = result.detail["frame-ancestors"]
        assert delta.only_in_a == frozenset({"http://main.com"})
        assert delta.only_in_b == frozenset()

    def test_pure_presence_mismatch_has_empty_deltas(self):
        a = norm("default-src 'self'; frame-ancestors 'none'")
        b = norm("default-src 'self'")
        result = compare(a, b)
        assert result.differing_directives == frozenset({"frame-ancestors"})
        delta = result.detail["frame-ancestors"]
        assert delta.only_in_a == delta.only_in_b == frozenset()

    def test_detail_for_shared_directive(self):
        a = norm("script-src a.com shared.net")
        b = norm("script-src b.com shared.net")
        delta = compare(a, b).detail["script-src"]
        assert delta.only_in_a == frozenset({"http://a.com", "https://a.com"})
        assert delta.only_in_b == frozenset({"http://b.com", "https://b.com"})

    def test_equal_absent_directives_equal(self):
        a = norm("img-src 'self'")
        b = norm("img-src 'self'")
        assert compare(a, b).equal


def set_key(policies):
    return tuple(sorted(p.key for p in policies))


class TestPolicySetsEqual:
    def test_both_empty(self):
        assert set_key([]) == set_key([])

    def test_multiplicity_matters(self):
        p = norm("script-src a.com")
        assert set_key([p]) != set_key([p, p])

    def test_permutation_equal(self):
        p = norm("script-src a.com")
        q = norm("img-src b.net")
        assert not compare(p, q).equal
        assert set_key([p, q]) == set_key([q, p])

    def test_unmatched_leftovers(self):
        # [p, p] against [p, q] leaves p against q: the evidence is what
        # tells those two apart, and the matched p adds nothing.
        p = norm("script-src a.com")
        q = norm("img-src b.net")
        evidence = difference_evidence(tuple(sorted([p.key, p.key])), tuple(sorted([p.key, q.key])))
        assert evidence == compare(p, q).differing_directives == {"script-src", "img-src"}


# Exhaustive alphabet: policies over 2 directives, each absent or carrying
# any subset of 3 sources. Brute-force set comparison is the oracle.
_ALPHABET_DIRECTIVES = ("script-src", "img-src")
_ALPHABET_SOURCES = ("http://a.com", "http://b.com", "'unsafe-inline'")


def _tiny_policies():
    source_subsets = []
    for mask in range(8):
        source_subsets.append(
            frozenset(s for i, s in enumerate(_ALPHABET_SOURCES) if mask & (1 << i))
        )
    policies = []
    for first in [None, *source_subsets]:
        for second in [None, *source_subsets]:
            directives = {}
            if first is not None:
                directives["script-src"] = first
            if second is not None:
                directives["img-src"] = second
            policies.append(directives)
    return policies


def _as_normalized(directives):
    from cspsop.normalize import NormalizedPolicy

    return NormalizedPolicy(directives={k: frozenset(v) for k, v in directives.items()})


def test_exhaustive_tiny_alphabet_matches_bruteforce():
    policies = _tiny_policies()
    assert len(policies) == 81
    for da, db in product(policies, repeat=2):
        a, b = _as_normalized(da), _as_normalized(db)
        result = compare(a, b)
        expected = oracle_compare(
            {k: set(v) for k, v in da.items()}, {k: set(v) for k, v in db.items()}
        )
        assert result.differing_directives == frozenset(expected)
        assert result.equal == (not expected)
        assert (a.key == b.key) == result.equal


@given(st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=300)
def test_symmetry_on_fuzzed_pairs(seed_a, seed_b):
    a = norm(policy_text(random.Random(seed_a)))
    b = norm(policy_text(random.Random(seed_b)))
    assert compare(a, b).differing_directives == compare(b, a).differing_directives
    assert (a.key == b.key) == compare(a, b).equal


@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_reflexivity_on_fuzzed_policies(seed):
    text = policy_text(random.Random(seed))
    a, b = norm(text), norm(text)
    assert compare(a, a).equal
    assert (a.key == b.key) == compare(a, b).equal


def _as_oracle(policy):
    return {k: set(v) for k, v in policy.directives.items()}


@st.composite
def _index_list_pair(draw):
    """Two lists of 0-3 indices into a pool of three policies, the second
    often a permutation of the first, so that duplicates and equal
    multisets in another order are common."""
    first = draw(st.lists(st.integers(0, 2), max_size=3))
    second = draw(st.permutations(first) | st.lists(st.integers(0, 2), max_size=3))
    return first, second


@given(st.lists(st.integers(0, 2**32), min_size=3, max_size=3), _index_list_pair())
@settings(max_examples=300)
def test_policy_sets_match_oracle_on_fuzzed_lists(seeds, picks):
    picks_a, picks_b = picks
    pool = [norm(policy_text(random.Random(seed))) for seed in seeds]
    a = [pool[i] for i in picks_a]
    b = [pool[i] for i in picks_b]
    oracle_a, oracle_b = [_as_oracle(p) for p in a], [_as_oracle(p) for p in b]
    expected_equal = _multiset_equal(oracle_a, oracle_b)
    key_a, key_b = tuple(sorted(p.key for p in a)), tuple(sorted(p.key for p in b))
    assert (key_a == key_b) == expected_equal
    assert difference_evidence(key_a, key_b) == frozenset(oracle_evidence(oracle_a, oracle_b))


# Set keys over a few directives and values, so that leftovers often share
# a directive's value, hold a repeated policy, or lack a directive.
_EVIDENCE_KEYS = st.dictionaries(
    st.sampled_from(["default-src", "img-src", "script-src", "sandbox"]),
    st.sampled_from([(), ("*",), ("http://a.com", "https://a.com"), ("allow-scripts",)]),
    max_size=3,
).map(lambda directives: tuple(sorted(directives.items())))


@st.composite
def _set_key_pair(draw):
    """Two set keys of 0-3 policies each, drawn from one pool of 1-4 keys."""
    pool = draw(st.lists(_EVIDENCE_KEYS, min_size=1, max_size=4))
    a, b = (tuple(sorted(draw(st.lists(st.sampled_from(pool), max_size=3)))) for _ in range(2))
    return a, b


@given(_set_key_pair())
@settings(max_examples=500)
def test_difference_evidence_matches_its_oracle(keys):
    a, b = keys
    assert difference_evidence(a, b) == oracle_difference_evidence(a, b)
