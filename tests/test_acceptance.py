"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints an ACCEPTANCE PASS/FAIL line (visible with pytest -s/-v)
so the gate can be read off the run output directly.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import product

import pytest

from cspsop.compare import compare
from cspsop.corpus import CorpusFormatError, read_corpus, write_corpus
from cspsop.crawler import CrawlConfig, build_record, crawl_site, fetch, scan_document
from cspsop.detector import (
    RELATION_SAME_ORIGIN,
    _relation,
    classify_pair,
    potential_violations,
    recommend,
)
from cspsop.fixtures import default_cases, generate_fixture, generate_suite, policy_allows
from cspsop.normalize import normalize
from cspsop.origins import NoRegistrableDomainError, Origin, site_of
from cspsop.policy import parse_policy
from cspsop.report import adoption_stats, build_pairs, directive_diff_histogram, violation_table
from grammar import origin_triple, policy_text
from helpers import make_corpus, make_page, record_to_oracle_page
from oracles import (
    PSL_CASES,
    oracle_adoption,
    oracle_compare,
    oracle_directive_diff,
    oracle_normalize,
    oracle_potential,
    oracle_violation_cells,
)

STRICT_CSP = "default-src 'none'; script-src 'self'; child-src 'self'"


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")
            return result

        return inner

    return wrap


@criterion("running-example fidelity (< 5 s)")
def test_running_example_fidelity(fixture_site):
    started = time.monotonic()
    fixture_site.add(
        "/A.html",
        '<html><script src="secret.js"></script><iframe src="B.html"></iframe></html>',
        host="main.com",
        headers=[("Content-Security-Policy", STRICT_CSP)],
    )
    fixture_site.add("/B.html", "<html>no policy here</html>", host="main.com")
    fixture_site.add("/B.html", "<html>subdomain iframe</html>", host="sub.main.com")
    config = CrawlConfig(
        politeness_delay=0.0,
        respect_robots=False,
        timeout=5.0,
        resolve_overrides=fixture_site.resolve_overrides("main.com", "sub.main.com"),
    )

    parent = build_record(fetch("http://main.com/A.html", config), "home")
    assert parent.fetch_status == "ok"
    assert len(parent.enforced_policies()) == 1
    assert parent.iframes_same_site == ["http://main.com/B.html"]

    iframe = build_record(fetch("http://main.com/B.html", config), "iframe-of-home")
    same_origin_case = classify_pair(parent, iframe)
    assert same_origin_case.relation == "same-origin"
    assert same_origin_case.category == "only-parent-csp"
    kinds = [m.kind for m in recommend(same_origin_case)]
    assert "origin-wide-csp" in kinds
    assert "document-domain-freeze" not in kinds

    sub_iframe = build_record(fetch("http://sub.main.com/B.html", config), "iframe-of-home")
    relaxed_case = classify_pair(parent, sub_iframe)
    assert relaxed_case.relation == "relaxable"
    assert relaxed_case.category == "only-parent-csp"
    kinds = [m.kind for m in recommend(relaxed_case)]
    assert "origin-wide-csp" in kinds
    assert "document-domain-freeze" in kinds

    assert time.monotonic() - started < 5.0


@criterion("normalization oracle equivalence (1000 fuzzed policies, 0 mismatches)")
def test_normalization_oracle_equivalence():
    rng = random.Random(20260810)
    mismatches = 0
    for index in range(1000):
        text = policy_text(rng)
        scheme, host, port = origin_triple(rng)
        result = normalize(parse_policy(text), Origin(scheme, host, port))
        expected = oracle_normalize(text, scheme, host, port)
        if {k: set(v) for k, v in result.directives.items()} != expected:
            mismatches += 1
    assert mismatches == 0


@criterion("comparison equals brute force (exhaustive alphabet + 10000 fuzzed pairs)")
def test_comparison_bruteforce_equivalence():
    # Exhaustive: 2 directives x (absent | subset of 3 sources) = 81 policies.
    from cspsop.normalize import NormalizedPolicy

    sources = ("http://a.com", "http://b.com", "'unsafe-inline'")
    subsets = [frozenset(s for i, s in enumerate(sources) if mask & (1 << i)) for mask in range(8)]
    policies = []
    for first in [None, *subsets]:
        for second in [None, *subsets]:
            directives = {}
            if first is not None:
                directives["script-src"] = first
            if second is not None:
                directives["img-src"] = second
            policies.append(directives)
    assert len(policies) == 81
    for da, db in product(policies, repeat=2):
        na = NormalizedPolicy(directives=dict(da))
        nb = NormalizedPolicy(directives=dict(db))
        result = compare(na, nb)
        expected = oracle_compare(
            {k: set(v) for k, v in da.items()}, {k: set(v) for k, v in db.items()}
        )
        assert result.differing_directives == frozenset(expected)
        assert result.equal == (not expected)

    # Symmetry and reflexivity over 10,000 seeded pairs.
    rng = random.Random(424242)
    for _ in range(10_000):
        a = normalize(parse_policy(policy_text(rng)), Origin(*origin_triple(rng)))
        b = normalize(parse_policy(policy_text(rng)), Origin(*origin_triple(rng)))
        assert compare(a, a).equal
        assert compare(a, b).differing_directives == compare(b, a).differing_directives


@criterion("origin model properties (10000 pairs) and 50-case suffix table")
def test_origin_model_properties():
    rng = random.Random(77)
    for _ in range(10_000):
        a, b, c = (Origin(*origin_triple(rng)) for _ in range(3))
        pa, pb, pc = (make_page(f"{origin}/") for origin in (a, b, c))
        assert _relation(pa, pa) == RELATION_SAME_ORIGIN
        assert _relation(pa, pb) == _relation(pb, pa)
        assert (_relation(pa, pb) == RELATION_SAME_ORIGIN) == (a == b)
        if _relation(pa, pb) == _relation(pb, pc) == RELATION_SAME_ORIGIN:
            assert _relation(pa, pc) == RELATION_SAME_ORIGIN

    assert len(PSL_CASES) >= 50
    for host, expected in PSL_CASES:
        if expected is None:
            with pytest.raises(NoRegistrableDomainError):
                site_of(host)
        else:
            assert str(site_of(host)) == expected, host


@criterion("table reproduction on 200-page synthetic corpus (exact, < 10 s)")
def test_table_reproduction_synthetic_corpus():
    started = time.monotonic()
    corpus = make_corpus(seed=20260810, sites=4, pages_per_site=50)
    assert len(corpus) == 200
    pages = [record_to_oracle_page(r) for r in corpus]

    table = violation_table(corpus)
    expected_cells = oracle_violation_cells(pages)
    for category, row in table.cells.items():
        for relation, count in row.items():
            assert count == expected_cells.get(category, {}).get(relation, 0), (category, relation)

    potential = potential_violations(corpus)
    flagged = oracle_potential(pages)
    assert potential.same_origin.pages_peer_no_csp == len(flagged["so_no"])
    assert potential.same_origin.pages_peer_diff_csp == len(flagged["so_diff"])
    assert potential.relaxed.pages_peer_no_csp == len(flagged["rx_no"])
    assert potential.relaxed.pages_peer_diff_csp == len(flagged["rx_diff"])
    assert potential.flagged_pages_total == len(set().union(*flagged.values()))

    adoption = adoption_stats(corpus)
    expected_adoption = oracle_adoption(pages)
    assert adoption.sites_crawled == expected_adoption["sites"]
    assert adoption.pages_visited == expected_adoption["pages"]
    assert adoption.pages_with_same_site_iframes == expected_adoption["pages_ss_iframes"]
    assert adoption.pages_with_same_origin_iframes == expected_adoption["pages_so_iframes"]
    assert adoption.pages_with_so_iframe_and_csp == expected_adoption["pages_so_iframe_csp"]
    assert adoption.pages_with_csp.count == expected_adoption["pages_csp"]
    assert adoption.sites_with_csp_on_home.count == expected_adoption["sites_home_csp"]
    assert adoption.sites_with_csp_some_pages.count == expected_adoption["sites_some_csp"]

    histogram = directive_diff_histogram([p.classification for p in build_pairs(corpus)])
    expected_hist = oracle_directive_diff(pages)
    assert histogram.pairs_total == expected_hist.pop("__pairs__")
    assert {k: v.count for k, v in histogram.fractions.items()} == expected_hist

    assert time.monotonic() - started < 10.0


def _build_eight_page_site(fixture_site):
    fixture_site.add(
        "/",
        """<html>
        <a href="/l1.html">one</a>
        <a href="/l2.html">two</a>
        <a href="/redirect.html">hop</a>
        <a href="/offsite.html">away</a>
        <a href="http://sub.main.com/l3.html">sub</a>
        <a href="http://other.net/elsewhere.html">cross-site</a>
        <iframe src="/f1.html"></iframe>
        <iframe srcdoc="&lt;p&gt;inline&lt;/p&gt;"></iframe>
        <iframe src="http://other.net/frame.html"></iframe>
        </html>""",
        host="main.com",
        headers=[("Content-Security-Policy", "default-src 'self'")],
    )
    fixture_site.add("/l1.html", '<iframe src="/f2.html"></iframe>', host="main.com")
    fixture_site.add(
        "/l2.html",
        '<meta http-equiv="Content-Security-Policy" content="img-src \'none\'">',
        host="main.com",
    )
    fixture_site.add("/redirect.html", status=302, headers=[("Location", "/l2.html")], host="main.com")
    fixture_site.add("/offsite.html", status=301, headers=[("Location", "http://other.net/")], host="main.com")
    fixture_site.add("/l3.html", "<p>sub page</p>", host="sub.main.com")
    fixture_site.add("/f1.html", "<p>frame one</p>", host="main.com")
    fixture_site.add("/f2.html", "<p>frame two</p>", host="main.com")
    fixture_site.add("/", "<p>another site</p>", host="other.net")
    return CrawlConfig(
        politeness_delay=0.0,
        respect_robots=False,
        timeout=5.0,
        resolve_overrides=fixture_site.resolve_overrides("main.com", "sub.main.com", "other.net"),
    )


@criterion("crawler correctness on 8-page fixture site, byte-identical corpus")
def test_crawler_correctness(fixture_site, tmp_path):
    config = _build_eight_page_site(fixture_site)
    records = crawl_site("http://main.com/", config)

    expected = {
        ("http://main.com/", "home", "ok", "main.com", "http://main.com/"),
        ("http://main.com/l1.html", "linked", "ok", "main.com", "http://main.com/l1.html"),
        ("http://main.com/l2.html", "linked", "ok", "main.com", "http://main.com/l2.html"),
        ("http://main.com/redirect.html", "linked", "ok", "main.com", "http://main.com/l2.html"),
        ("http://main.com/offsite.html", "linked", "ok", "other.net", "http://other.net/"),
        ("http://sub.main.com/l3.html", "linked", "ok", "main.com", "http://sub.main.com/l3.html"),
        ("http://main.com/f1.html", "iframe-of-home", "ok", "main.com", "http://main.com/f1.html"),
        ("http://main.com/f2.html", "iframe-of-linked", "ok", "main.com", "http://main.com/f2.html"),
    }
    assert {
        (r.url, r.depth, r.fetch_status, r.site, r.final_url) for r in records
    } == expected
    assert len(records) == 8

    urls = [r.url for r in records]
    assert len(urls) == len(set(urls))  # dedup

    home = next(r for r in records if r.depth == "home")
    assert home.links_same_site == [
        "http://main.com/l1.html",
        "http://main.com/l2.html",
        "http://main.com/redirect.html",
        "http://main.com/offsite.html",
        "http://sub.main.com/l3.html",
    ]
    assert home.iframes_same_site == ["http://main.com/f1.html"]
    assert home.srcdoc_iframes == 1

    l2 = next(r for r in records if r.url == "http://main.com/l2.html")
    assert [p.delivery for p in l2.policies] == ["meta-element"]

    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    write_corpus(records, first, created="2026-08-10T00:00:00+00:00")
    rerun = crawl_site("http://main.com/", config)
    write_corpus(rerun, second, created="2026-08-10T00:00:00+00:00")
    assert first.read_bytes() == second.read_bytes()


@criterion("corpus round-trip on 10000 records, corrupted line cites its number")
def test_corpus_roundtrip_10k(tmp_path):
    rng = random.Random(5150)
    policies = [
        (),
        ("default-src 'self'",),
        ("script-src 'self' cdn.example.net; report-uri /collect",),
    ]
    records = []
    for i in range(10_000):
        host = f"bulk{i % 97}.com"
        records.append(
            make_page(
                f"http://{host}/p{i}.html",
                *rng.choice(policies),
                iframes=[f"http://{host}/p{rng.randrange(10_000)}.html"],
                depth=rng.choice(["home", "linked"]),
            )
        )
    path = tmp_path / "bulk.jsonl"
    assert write_corpus(records, path) == 10_000
    loaded = read_corpus(path)
    assert loaded == records

    lines = path.read_text().splitlines()
    lines[4321] = '{"definitely": "not a record"}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        read_corpus(path)
    assert excinfo.value.line == 4322  # header occupies line 1


@criterion("conformance fixtures: parseable, probed, full matrix, self-checked")
def test_conformance_fixtures(tmp_path):
    manifest = generate_suite(tmp_path)
    cases = manifest["cases"]
    assert len(cases) == 8
    assert {frozenset(c["sandbox_flags"]) for c in cases} == {
        frozenset(),
        frozenset({"allow-scripts"}),
        frozenset({"allow-same-origin"}),
        frozenset({"allow-scripts", "allow-same-origin"}),
    }
    assert {c["probe"] for c in cases} == {"script", "image"}

    for case_meta, case in zip(sorted(cases, key=lambda c: c["case"]),
                               sorted(default_cases(), key=lambda c: c.case_id)):
        html = (tmp_path / case_meta["path"]).read_text()
        scan = scan_document(html)
        assert scan.srcdoc_count == 1
        assert case.probe.url in html
        # engines and verdicts declared for every case
        assert set(case_meta["expected"]) == {"webkit-blink", "gecko"}
        # generation-time self-check: the probe violates the page CSP at top level
        assert not policy_allows(
            case.page_csp, manifest["page_origin"], case.probe.directive, case.probe.url
        )

    # and the self-check actually rejects a permissive page policy
    permissive = default_cases(page_csp="default-src *")[0]
    with pytest.raises(ValueError):
        generate_fixture(permissive, tmp_path / "rejected")
