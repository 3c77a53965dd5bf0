import importlib
from collections import Counter
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from cspsop import detector
from cspsop import policy as policy_module
from cspsop.corpus import read_corpus, write_corpus
from cspsop.detector import (
    CATEGORY_DIFFERENT,
    CATEGORY_NO_CSP,
    CATEGORY_NO_VIOLATION,
    CATEGORY_ONLY_IFRAME,
    CATEGORY_ONLY_PARENT,
    RELATION_RELAXABLE,
    RELATION_SAME_ORIGIN,
    PairClassification,
    analyzable_pages,
    potential_violations,
)
from cspsop.policy import ENFORCE, REPORT_ONLY, parse_policy
from cspsop.report import (
    FORMAT_CSV,
    FORMAT_JSON,
    FORMAT_TEXT,
    AdoptionReport,
    adoption_stats,
    build_pairs,
    csp_per_site_distribution,
    directive_diff_histogram,
    page_set_diffs,
    render,
    violation_table,
)
from helpers import (
    make_adoption_corpus,
    make_corpus,
    make_page,
    make_shuffled_corpus,
    make_violation_corpus,
    oracle_evidence,
    record_to_oracle_page,
)
from oracles import (
    _multiset_equal,
    _relation,
    oracle_adoption,
    oracle_directive_diff,
    oracle_potential,
    oracle_violation_cells,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestAdoptionStats:
    def test_empty_corpus(self):
        report = adoption_stats([])
        assert report.sites_crawled == 0
        assert report.pages_visited == 0
        assert report.pages_with_csp.count == 0
        assert report.pages_with_csp.percent == 0.0

    def test_hand_counted_corpus(self):
        report = adoption_stats(make_adoption_corpus())
        assert report.sites_crawled == 3
        assert report.pages_visited == 10
        assert report.pages_with_same_site_iframes == 3
        assert report.pages_with_same_origin_iframes == 2
        assert report.pages_with_so_iframe_and_csp == 2
        assert report.pages_with_csp.count == 4
        assert report.sites_with_csp_on_home.count == 1
        assert report.sites_with_csp_some_pages.count == 2

    def test_percentage_uses_pages_denominator(self):
        report = adoption_stats(make_adoption_corpus())
        assert report.pages_with_csp.denominator == report.pages_visited == 10
        assert report.pages_with_csp.percent == 40.0

    def test_failed_same_origin_iframe_counts_by_url(self):
        # The iframe record failed: its URL still gives both parents a
        # same-origin iframe, but it brings no CSP, not even the one on its
        # failed record. The oracle sees only the fetched pages.
        dead = "http://a.com/dead.html"
        corpus = [
            make_page("http://a.com/", "img-src 'self'", iframes=[dead]),
            make_page("http://a.com/p", iframes=[dead], depth="linked"),
            make_page(dead, "script-src 'none'", depth="iframe-of-home", fetch_status="network-error"),
        ]
        report = adoption_stats(corpus)
        expected = oracle_adoption([record_to_oracle_page(r) for r in analyzable_pages(corpus)])
        assert report.pages_with_same_origin_iframes == expected["pages_so_iframes"] == 2
        assert report.pages_with_so_iframe_and_csp == expected["pages_so_iframe_csp"] == 1

    def test_failed_fetches_not_counted_as_pages(self):
        report = adoption_stats(make_adoption_corpus())
        # the corpus holds 11 records, one of which failed
        assert report.pages_visited == 10


class TestCspPerSiteDistribution:
    def test_empty(self):
        histogram = csp_per_site_distribution([])
        assert histogram.sites_total == 0
        assert all(count == 0 for count in histogram.buckets.values())

    def test_one_in_ten_pages(self):
        pages = [make_page(f"http://one.com/p{i}", *(["img-src 'self'"] if i == 0 else []), depth="linked")
                 for i in range(10)]
        histogram = csp_per_site_distribution(pages)
        # 10% share lands in the [10, 20) bucket
        assert histogram.buckets["10-20"] == 1
        assert histogram.sites_total == 1

    def test_full_coverage_site(self):
        pages = [make_page(f"http://full.com/p{i}", "img-src 'self'", depth="linked") for i in range(4)]
        histogram = csp_per_site_distribution(pages)
        assert histogram.buckets["90-100"] == 1

    def test_site_without_csp_excluded(self):
        pages = [make_page("http://none.com/")]
        histogram = csp_per_site_distribution(pages)
        assert histogram.sites_total == 0


class TestViolationTable:
    def test_single_only_parent_pair(self):
        corpus = [
            make_page("http://v.com/p", "img-src 'self'", iframes=["http://v.com/i"]),
            make_page("http://v.com/i"),
        ]
        table = violation_table(corpus)
        assert table.cells[CATEGORY_ONLY_PARENT][RELATION_SAME_ORIGIN] == 1
        assert table.violations_total[RELATION_SAME_ORIGIN].count == 1
        assert table.violations_total[RELATION_SAME_ORIGIN].denominator == 1

    def test_planted_categories(self):
        table = violation_table(make_violation_corpus())
        for category in (
            CATEGORY_ONLY_PARENT,
            CATEGORY_ONLY_IFRAME,
            CATEGORY_DIFFERENT,
            CATEGORY_NO_VIOLATION,
            CATEGORY_NO_CSP,
        ):
            assert table.cells[category][RELATION_SAME_ORIGIN] == 1, category
        assert table.cells[CATEGORY_ONLY_PARENT][RELATION_RELAXABLE] == 1
        assert table.couples_excluded_unrelated == 1
        # rate denominator: couples with CSP somewhere (3 violations + 1 equal)
        assert table.violations_total[RELATION_SAME_ORIGIN].count == 3
        assert table.violations_total[RELATION_SAME_ORIGIN].denominator == 4
        assert table.violations_total[RELATION_SAME_ORIGIN].percent == 75.0
        assert table.violations_total[RELATION_RELAXABLE].count == 1
        assert table.violations_total[RELATION_RELAXABLE].denominator == 1

    def test_matches_bruteforce(self):
        corpus = make_corpus(seed=11, sites=3, pages_per_site=25)
        table = violation_table(corpus)
        expected = oracle_violation_cells([record_to_oracle_page(r) for r in corpus])
        for category, by_relation in expected.items():
            for relation, count in by_relation.items():
                assert table.cells[category][relation] == count, (category, relation)
        total_expected = sum(sum(r.values()) for r in expected.values())
        total_actual = sum(sum(r.values()) for r in table.cells.values())
        assert total_actual == total_expected


class TestDirectiveDiffHistogram:
    def test_no_differing_pairs(self):
        histogram = directive_diff_histogram([])
        assert histogram.pairs_total == 0
        assert histogram.fractions == {}

    def test_single_directive_difference(self):
        classifications = [
            PairClassification(RELATION_SAME_ORIGIN, CATEGORY_DIFFERENT, frozenset({"script-src"}))
        ]
        histogram = directive_diff_histogram(classifications)
        assert histogram.fractions["script-src"].percent == 100.0
        assert "img-src" not in histogram.fractions

    def test_matches_bruteforce(self):
        corpus = make_corpus(seed=13, sites=2, pages_per_site=15)
        classifications = [p.classification for p in build_pairs(corpus)]
        histogram = directive_diff_histogram(classifications)
        expected = oracle_directive_diff([record_to_oracle_page(r) for r in corpus])
        pairs = expected.pop("__pairs__")
        assert histogram.pairs_total == pairs
        assert {k: v.count for k, v in histogram.fractions.items()} == expected

    def test_page_set_diffs_feed_histogram(self):
        corpus = [
            make_page("http://p.com/a", "script-src 'self'"),
            make_page("http://p.com/b", "script-src 'self' cdn.net"),
            make_page("http://sub.p.com/c", "script-src 'self' cdn.net"),
        ]
        same_origin = page_set_diffs(corpus, RELATION_SAME_ORIGIN)
        assert len(same_origin) == 1  # a vs b
        # c differs from a outright and from b because 'self' resolves to
        # different origins on the two hosts
        relaxed = page_set_diffs(corpus, RELATION_RELAXABLE)
        assert len(relaxed) == 2
        histogram = directive_diff_histogram(same_origin)
        assert histogram.fractions["script-src"].percent == 100.0

    @pytest.mark.parametrize(
        "urls, site, relation",
        [
            (("http://a.n.com/", "http://b.n.com/"), "", RELATION_RELAXABLE),
            (("http://a.n.com/x", "http://a.n.com/y"), None, RELATION_SAME_ORIGIN),
        ],
        ids=["relaxed-on-empty-site", "same-origin-without-site"],
    )
    def test_page_set_diffs_agree_with_potential_on_falsy_sites(self, urls, site, relation):
        # "" is a site like any other; a record without one still has
        # same-origin peers, only no relaxed ones.
        corpus = [
            replace(make_page(url, csp), site=site)
            for url, csp in zip(urls, ("script-src 'self'", "img-src 'none'"))
        ]
        granularity = "relaxed" if relation == RELATION_RELAXABLE else "same_origin"
        flagged = getattr(potential_violations(corpus), granularity).pages_peer_diff_csp
        assert flagged == 2
        assert len(page_set_diffs(corpus, relation)) == 1

    def test_page_set_diffs_without_site_has_no_relaxed_couples(self):
        corpus = [
            replace(make_page(url, csp), site=None)
            for url, csp in [("http://a.n.com/x", "script-src 'self'"),
                             ("http://a.n.com/y", "img-src 'none'"),
                             ("http://b.n.com/", "script-src 'self'")]
        ]
        assert page_set_diffs(corpus, RELATION_RELAXABLE) == []
        assert len(page_set_diffs(corpus, RELATION_SAME_ORIGIN)) == 1

    @pytest.mark.parametrize("seed", [5, 13, 29])
    @pytest.mark.parametrize("relation", [RELATION_SAME_ORIGIN, RELATION_RELAXABLE])
    def test_page_set_diffs_match_bruteforce(self, seed, relation):
        corpus = make_corpus(seed=seed, sites=3, pages_per_site=40)
        pages = [record_to_oracle_page(r) for r in corpus if r.site]
        expected = Counter(
            (relation, frozenset(oracle_evidence(p["policies"], q["policies"])))
            for p, q in combinations(pages, 2)
            if _relation(p, q) == relation
            and p["policies"] and q["policies"]
            and not _multiset_equal(p["policies"], q["policies"])
        )
        actual = Counter((c.relation, c.evidence) for c in page_set_diffs(corpus, relation))
        assert expected
        assert actual == expected


class TestPotentialReportRendering:
    def test_row_shape(self):
        report = potential_violations(make_violation_corpus())
        rows = render(report, FORMAT_CSV).decode().splitlines()
        assert rows[0].startswith("statistic,")
        assert len(rows) == 8  # header + 3 rows per granularity + total


class TestLazyParsing:
    """Policies are parsed only where a table reads their directives."""

    def test_counting_tables_parse_nothing(self, tmp_path, monkeypatch):
        corpus = make_corpus(seed=3, sites=4, pages_per_site=60)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)

        def no_parse(raw):
            raise AssertionError(f"parsed {raw!r}")

        monkeypatch.setattr(policy_module, "_parse", no_parse)
        loaded = read_corpus(path)
        assert adoption_stats(loaded) == adoption_stats(corpus)
        assert csp_per_site_distribution(loaded) == csp_per_site_distribution(corpus)

    def test_report_only_policies_never_parsed(self, monkeypatch):
        corpus = make_corpus(seed=3, sites=4, pages_per_site=60)
        marker = "; report-uri /report-only"
        for record in corpus:
            record.policies = [
                p if p.disposition == ENFORCE else parse_policy(p.raw + marker, REPORT_ONLY)
                for p in record.policies
            ]
        assert any(marker in p.raw for r in corpus for p in r.policies)
        compare_module = importlib.import_module("cspsop.compare")
        real_normalize = compare_module.normalize
        normalized = []

        def recording_normalize(policy, origin):
            normalized.append(policy.raw)
            return real_normalize(policy, origin)

        def no_parse(raw):
            raise AssertionError(f"parsed {raw!r}")

        monkeypatch.setattr(compare_module, "normalize", recording_normalize)
        monkeypatch.setattr(policy_module, "_parse", no_parse)
        detector._policy_key.cache_clear()  # no keys memoized by earlier tests
        potential_violations(corpus)
        build_pairs(corpus)
        enforced = {p.raw for r in analyzable_pages(corpus) for p in r.enforced_policies()}
        assert enforced
        assert set(normalized) == enforced
        assert not [raw for raw in normalized if marker in raw]

    def test_analysis_leaves_read_policies_unparsed(self, tmp_path, monkeypatch):
        corpus = make_corpus(seed=3, sites=4, pages_per_site=60)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        expected = (potential_violations(corpus), build_pairs(corpus))

        def no_parse(raw):
            raise AssertionError(f"parsed {raw!r}")

        monkeypatch.setattr(policy_module, "_parse", no_parse)
        detector._policy_key.cache_clear()  # no keys memoized from the in-memory run
        loaded = read_corpus(path)
        assert (potential_violations(loaded), build_pairs(loaded)) == expected


class TestRender:
    def test_empty_adoption_all_formats(self):
        report = AdoptionReport()
        assert render(report, FORMAT_JSON)
        assert render(report, FORMAT_TEXT)
        assert render(report, FORMAT_CSV)

    def test_csv_row_count(self):
        report = adoption_stats(make_adoption_corpus())
        rows = render(report, FORMAT_CSV).decode().splitlines()
        assert len(rows) == len(report.rows())  # data rows + header

    def test_json_round_trips(self):
        import json

        report = adoption_stats(make_adoption_corpus())
        payload = json.loads(render(report, FORMAT_JSON))
        assert payload == report.to_dict()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(AdoptionReport(), "yaml")

    @pytest.mark.parametrize("fmt,suffix", [(FORMAT_TEXT, "txt"), (FORMAT_JSON, "json"), (FORMAT_CSV, "csv")])
    def test_adoption_golden(self, fmt, suffix):
        report = adoption_stats(make_adoption_corpus())
        golden = (GOLDEN_DIR / f"adoption.{suffix}").read_bytes()
        assert render(report, fmt) == golden

    def test_violation_table_golden(self):
        table = violation_table(make_violation_corpus())
        golden = (GOLDEN_DIR / "violations.txt").read_bytes()
        assert render(table, FORMAT_TEXT) == golden

    @pytest.mark.parametrize("fmt,suffix", [(FORMAT_TEXT, "txt"), (FORMAT_JSON, "json")])
    def test_potential_golden(self, fmt, suffix):
        golden = (GOLDEN_DIR / f"potential.{suffix}").read_bytes()
        assert render(potential_violations(make_shuffled_corpus()), fmt) == golden

    @pytest.mark.parametrize(
        "table,fmt,suffix",
        [
            ("directive-diff", FORMAT_TEXT, "txt"),
            ("directive-diff", FORMAT_JSON, "json"),
            ("csp-per-site", FORMAT_TEXT, "txt"),
            ("violations", FORMAT_JSON, "json"),
        ],
    )
    def test_shuffled_corpus_golden(self, table, fmt, suffix):
        # violations.json is this corpus's table; violations.txt above is
        # make_violation_corpus's.
        golden = (GOLDEN_DIR / f"{table}.{suffix}").read_bytes()
        assert render(_SHUFFLED_TABLES[table](make_shuffled_corpus()), fmt) == golden


_SHUFFLED_TABLES = {
    "directive-diff": lambda corpus: directive_diff_histogram(
        [p.classification for p in build_pairs(corpus)]
    ),
    "csp-per-site": csp_per_site_distribution,
    "violations": violation_table,
}


def test_full_recount_on_mid_corpus():
    corpus = make_corpus(seed=17, sites=3, pages_per_site=20)
    pages = [record_to_oracle_page(r) for r in corpus]

    report = adoption_stats(corpus)
    expected = oracle_adoption(pages)
    assert report.sites_crawled == expected["sites"]
    assert report.pages_visited == expected["pages"]
    assert report.pages_with_same_site_iframes == expected["pages_ss_iframes"]
    assert report.pages_with_same_origin_iframes == expected["pages_so_iframes"]
    assert report.pages_with_so_iframe_and_csp == expected["pages_so_iframe_csp"]
    assert report.pages_with_csp.count == expected["pages_csp"]
    assert report.sites_with_csp_on_home.count == expected["sites_home_csp"]
    assert report.sites_with_csp_some_pages.count == expected["sites_some_csp"]

    flagged = oracle_potential(pages)
    potential = potential_violations(corpus)
    assert potential.same_origin.pages_peer_no_csp == len(flagged["so_no"])
    assert potential.same_origin.pages_peer_diff_csp == len(flagged["so_diff"])
    assert potential.relaxed.pages_peer_no_csp == len(flagged["rx_no"])
    assert potential.relaxed.pages_peer_diff_csp == len(flagged["rx_diff"])
