import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cspsop.compare import _policy_key
from cspsop.detector import (
    CATEGORY_DIFFERENT,
    CATEGORY_NO_CSP,
    CATEGORY_NO_VIOLATION,
    CATEGORY_ONLY_IFRAME,
    CATEGORY_ONLY_PARENT,
    DOMAIN_FREEZE_SNIPPET,
    RELATION_RELAXABLE,
    RELATION_SAME_ORIGIN,
    RELATION_UNRELATED,
    PairClassification,
    _enforced_key,
    classify_pair,
    potential_violations,
    recommend,
)
from cspsop.normalize import normalize
from cspsop.origins import origin_of
from cspsop.policy import parse_policy
from grammar import origin_triple, policy_text
from helpers import make_corpus, make_page, record_to_oracle_page
from oracles import oracle_potential

STRICT_CSP = "default-src 'none'; script-src 'self'; child-src 'self'"

A_HTML = "http://main.com/A.html"
B_HTML = "http://main.com/B.html"
SUB_B = "http://sub.main.com/B.html"


class TestClassifyPair:
    def test_only_parent_has_csp(self):
        parent = make_page(A_HTML, STRICT_CSP, iframes=[B_HTML])
        iframe = make_page(B_HTML, depth="iframe-of-home")
        result = classify_pair(parent, iframe)
        assert result.relation == RELATION_SAME_ORIGIN
        assert result.category == CATEGORY_ONLY_PARENT

    def test_only_iframe_has_csp(self):
        parent = make_page(A_HTML, iframes=[B_HTML])
        iframe = make_page(B_HTML, STRICT_CSP, depth="iframe-of-home")
        result = classify_pair(parent, iframe)
        assert result.category == CATEGORY_ONLY_IFRAME

    def test_no_csp_anywhere(self):
        result = classify_pair(make_page(A_HTML), make_page(B_HTML))
        assert result == PairClassification(RELATION_SAME_ORIGIN, CATEGORY_NO_CSP)

    def test_relaxable_different_csp(self):
        parent = make_page(A_HTML, STRICT_CSP)
        iframe = make_page(SUB_B, "default-src 'self'")
        result = classify_pair(parent, iframe)
        assert result.relation == RELATION_RELAXABLE
        assert result.category == CATEGORY_DIFFERENT
        # default-src 'self' resolves to different origins on the two pages
        # and the strict policy empties what the liberal one fills.
        assert "default-src" in result.evidence
        assert "script-src" in result.evidence
        assert result.evidence  # invariant: different-csp carries evidence

    def test_equal_policies_no_violation(self):
        parent = make_page(A_HTML, "script-src a.cdn.net", iframes=[B_HTML])
        iframe = make_page(B_HTML, "script-src a.cdn.net")
        result = classify_pair(parent, iframe)
        assert result.category == CATEGORY_NO_VIOLATION
        assert not result.is_violation()

    def test_equal_after_normalization(self):
        # textual variants with identical canonical form
        parent = make_page(A_HTML, "script-src b.com a.com; default-src 'self'")
        iframe = make_page(B_HTML, "default-src 'self'; script-src a.com b.com")
        assert classify_pair(parent, iframe).category == CATEGORY_NO_VIOLATION

    def test_unrelated_origins(self):
        parent = make_page(A_HTML, STRICT_CSP)
        iframe = make_page("http://other.org/x.html")
        result = classify_pair(parent, iframe)
        assert result.relation == RELATION_UNRELATED
        assert not result.is_violation()

    def test_port_mismatch_unrelated(self):
        parent = make_page(A_HTML, STRICT_CSP)
        iframe = make_page("http://sub.main.com:8080/x.html")
        assert classify_pair(parent, iframe).relation == RELATION_UNRELATED

    def test_report_only_counts_as_absent(self):
        parent = make_page(A_HTML, report_only=("default-src 'self'",))
        iframe = make_page(B_HTML, STRICT_CSP)
        assert classify_pair(parent, iframe).category == CATEGORY_ONLY_IFRAME

    def test_multiplicity_difference_has_evidence(self):
        parent = make_page(A_HTML, "script-src a.com")
        iframe = make_page(B_HTML, "script-src a.com", "script-src a.com")
        result = classify_pair(parent, iframe)
        assert result.category == CATEGORY_DIFFERENT
        assert result.evidence  # surplus policy's directives

    def test_failed_fetch_counts_as_no_policies(self):
        parent = make_page(A_HTML, STRICT_CSP)
        iframe = make_page(B_HTML, fetch_status="network-error")
        iframe.origin = parent.origin  # failed but same origin known from URL
        result = classify_pair(parent, iframe)
        assert result.category == CATEGORY_ONLY_PARENT

    def test_records_without_origin_are_unrelated_and_keyless(self):
        # Two None origins are not one origin, and a policy without an
        # origin to resolve 'self' against gives no key.
        parent = make_page(A_HTML, STRICT_CSP)
        iframe = make_page(B_HTML, "script-src a.com")
        parent.origin = iframe.origin = None
        result = classify_pair(parent, iframe)
        assert result == PairClassification(RELATION_UNRELATED, CATEGORY_NO_CSP)


class TestNormalizedEnforced:
    def test_memo_keeps_origins_apart(self):
        text = "default-src 'self'; script-src cdn.net"
        origins = ("http://a.com", "https://a.com", "http://a.com:8080")
        keys = [_enforced_key(make_page(f"{o}/p", text)) for o in origins]
        assert len(set(keys)) == len(origins)
        for origin, key in zip(origins, keys):
            assert key == (normalize(parse_policy(text), origin_of(origin)).key,)

    def test_memo_matches_fresh_normalization(self):
        corpus = make_corpus(seed=5, sites=4, pages_per_site=60)
        random.Random(2).shuffle(corpus)
        inputs = {(p.raw, r.origin) for r in corpus for p in r.enforced_policies()}
        assert len(inputs) > _policy_key.cache_info().maxsize  # eviction runs
        for record in corpus:
            fresh = [normalize(p, record.origin).key for p in record.enforced_policies()]
            assert _enforced_key(record) == tuple(sorted(fresh))


def _random_record(rng: random.Random):
    scheme, host, port = origin_triple(rng)
    url = f"{scheme}://{host}" + ("" if port in (80, 443) else f":{port}") + "/p.html"
    enforce = tuple(policy_text(rng) for _ in range(rng.randint(0, 2)))
    report = tuple(policy_text(rng) for _ in range(rng.randint(0, 1)))
    return make_page(url, *[t for t in enforce if t], report_only=tuple(t for t in report if t))


@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_classification_total_and_exclusive(seed):
    rng = random.Random(seed)
    parent, iframe = _random_record(rng), _random_record(rng)
    result = classify_pair(parent, iframe)
    assert result.relation in (RELATION_SAME_ORIGIN, RELATION_RELAXABLE, RELATION_UNRELATED)
    assert result.category in (
        CATEGORY_ONLY_PARENT,
        CATEGORY_ONLY_IFRAME,
        CATEGORY_DIFFERENT,
        CATEGORY_NO_VIOLATION,
        CATEGORY_NO_CSP,
    )
    assert (result.category == CATEGORY_DIFFERENT) == bool(result.evidence)


@given(st.integers(0, 2**32))
@settings(max_examples=150)
def test_report_only_equivalent_to_absence(seed):
    rng = random.Random(seed)
    parent, iframe = _random_record(rng), _random_record(rng)
    demoted = make_page(
        parent.url,
        report_only=tuple(
            p.raw for p in parent.policies
        ),  # every policy demoted to report-only
    )
    demoted.iframes_same_site = parent.iframes_same_site
    stripped = make_page(parent.url)
    assert classify_pair(demoted, iframe) == classify_pair(stripped, iframe)


class TestRecommend:
    def test_same_origin_different_csp(self):
        kinds = [m.kind for m in recommend(PairClassification(RELATION_SAME_ORIGIN, CATEGORY_DIFFERENT, frozenset({"script-src"})))]
        assert kinds == ["origin-wide-csp", "sandbox-directive"]

    def test_relaxable_includes_domain_freeze(self):
        mitigations = recommend(PairClassification(RELATION_RELAXABLE, CATEGORY_ONLY_PARENT))
        kinds = [m.kind for m in mitigations]
        assert kinds == ["origin-wide-csp", "document-domain-freeze", "sandbox-directive"]
        freeze = mitigations[1]
        assert freeze.snippet == DOMAIN_FREEZE_SNIPPET
        assert 'Object.defineProperty(document, "domain"' in freeze.snippet

    def test_unrelated_no_mitigations(self):
        assert recommend(PairClassification(RELATION_UNRELATED, CATEGORY_NO_CSP)) == []

    def test_no_violation_no_mitigations(self):
        assert recommend(PairClassification(RELATION_SAME_ORIGIN, CATEGORY_NO_VIOLATION)) == []


class TestPotentialViolations:
    def test_single_csp_page_unflagged(self):
        report = potential_violations([make_page(A_HTML, STRICT_CSP)])
        assert report.pages_with_csp == 1
        assert report.flagged_pages_total == 0
        assert report.verdicts == []

    def test_same_origin_peer_without_csp(self):
        corpus = [
            make_page(A_HTML, STRICT_CSP),
            make_page(B_HTML),
        ]
        report = potential_violations(corpus)
        assert report.same_origin.pages_peer_no_csp == 1
        assert report.same_origin.pages_peer_diff_csp == 0
        assert report.flagged_pages_total == 1
        assert report.verdicts[0].url == A_HTML
        assert report.verdicts[0].same_origin == "peer-without-csp"

    def test_relaxed_peer_with_different_csp(self):
        corpus = [
            make_page(A_HTML, STRICT_CSP),
            make_page(SUB_B, "default-src 'self'"),
        ]
        report = potential_violations(corpus)
        assert report.same_origin.pages_total == 0
        assert report.relaxed.pages_peer_diff_csp == 2  # both sides see a differing peer
        assert report.flagged_pages_total == 2

    def test_no_csp_page_never_flagged(self):
        corpus = [make_page(A_HTML), make_page(B_HTML)]
        report = potential_violations(corpus)
        assert report.pages_with_csp == 0
        assert report.flagged_pages_total == 0

    def test_matches_bruteforce_on_synthetic_corpus(self):
        corpus = make_corpus(seed=21, sites=2, pages_per_site=12)
        report = potential_violations(corpus)
        expected = oracle_potential([record_to_oracle_page(r) for r in corpus])
        assert report.same_origin.pages_peer_no_csp == len(expected["so_no"])
        assert report.same_origin.pages_peer_diff_csp == len(expected["so_diff"])
        assert report.relaxed.pages_peer_no_csp == len(expected["rx_no"])
        assert report.relaxed.pages_peer_diff_csp == len(expected["rx_diff"])
        flagged = set().union(*expected.values())
        assert report.flagged_pages_total == len(flagged)
