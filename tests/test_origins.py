import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cspsop import cli, origins
from cspsop.corpus import write_corpus
from cspsop.crawler import CrawlConfig, PageRecord, crawl_site
from cspsop.detector import (
    RELATION_RELAXABLE,
    RELATION_SAME_ORIGIN,
    RELATION_UNRELATED,
    _relation,
    classify_pair,
)
from cspsop.origins import (
    NAIVE_SUFFIXES,
    NoRegistrableDomainError,
    Origin,
    PublicSuffixList,
    UnsupportedUrlError,
    default_psl,
    origin_of,
    site_of,
)
from grammar import origin_triple
from helpers import make_page
from oracles import PSL_CASES


class TestOriginOf:
    def test_explicit_port(self):
        assert origin_of("http://main.com:81/dir/p.html") == Origin("http", "main.com", 81)

    def test_default_ports(self):
        assert origin_of("https://main.com/") == Origin("https", "main.com", 443)
        assert origin_of("http://main.com") == Origin("http", "main.com", 80)

    def test_case_folding(self):
        assert origin_of("HTTP://Main.COM/x") == Origin("http", "main.com", 80)

    @pytest.mark.parametrize(
        "url",
        ["/relative/path", "ftp://files.example.com/x", "mailto:x@y.com", "http://", "about:blank"],
    )
    def test_unsupported(self, url):
        with pytest.raises(UnsupportedUrlError):
            origin_of(url)

    def test_bad_port(self):
        with pytest.raises(UnsupportedUrlError):
            origin_of("http://main.com:notaport/")

    def test_serialization_drops_default_port(self):
        assert str(Origin("http", "main.com", 80)) == "http://main.com"
        assert str(Origin("https", "main.com", 443)) == "https://main.com"
        assert str(Origin("http", "main.com", 8080)) == "http://main.com:8080"

    @pytest.mark.parametrize("url, serialized", [
        ("http://[::1]:8080/x", "http://[::1]:8080"),
        ("https://[2001:DB8::1]/", "https://[2001:db8::1]"),
    ])
    def test_serialization_brackets_ipv6_hosts(self, url, serialized):
        origin = origin_of(url)
        assert origin.ascii_serialization() == serialized
        assert origin_of(serialized) == origin

    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            Origin("http", "main.com", 0)


class TestSiteOf:
    def test_subdomain(self):
        assert site_of("sub.main.com") == "main.com"

    def test_already_registrable(self):
        assert site_of("main.com") == "main.com"

    def test_multi_label_suffix(self):
        assert site_of("a.b.example.co.uk") == "example.co.uk"

    def test_public_suffix_raises(self):
        with pytest.raises(NoRegistrableDomainError):
            site_of("co.uk")

    def test_ip_literal_passthrough(self):
        assert site_of("127.0.0.1") == "127.0.0.1"
        assert site_of("::1") == "::1"

    def test_naive_mode_last_two_labels(self):
        assert site_of("a.b.example.co.uk", NAIVE_SUFFIXES) == "co.uk"
        assert site_of("sub.main.com", NAIVE_SUFFIXES) == "main.com"
        assert site_of("localhost", NAIVE_SUFFIXES) == "localhost"

    @pytest.mark.parametrize("host,expected", PSL_CASES)
    def test_psl_table(self, host, expected):
        if expected is None:
            with pytest.raises(NoRegistrableDomainError):
                site_of(host)
        else:
            assert site_of(host) == expected

    def test_idempotent_on_table(self):
        for host, expected in PSL_CASES:
            if expected is None:
                continue
            assert site_of(expected) == expected

    def test_custom_table_file(self, tmp_path):
        table = tmp_path / "suffixes.dat"
        table.write_text("// comment\ncom\nspecial.io\n")
        psl = PublicSuffixList.load(table)
        assert psl.registrable_domain("x.special.io") == "x.special.io"
        assert psl.registrable_domain("a.x.special.io") == "x.special.io"

    def test_bundled_table_loads(self):
        assert default_psl().rule_count > 50


def _page(origin: Origin) -> PageRecord:
    return make_page(f"{origin}/")


def _relation_of(a: str, b: str) -> str:
    return classify_pair(make_page(a), make_page(b)).relation


class TestSameOrigin:
    def test_equal_triples(self):
        assert _relation_of("http://main.com/a", "http://main.com/b") == RELATION_SAME_ORIGIN

    def test_scheme_differs(self):
        assert _relation_of("http://main.com/", "https://main.com/") == RELATION_UNRELATED

    def test_subdomain_differs(self):
        assert _relation_of("http://main.com/", "http://sub.main.com/") == RELATION_RELAXABLE


class TestRelaxableTo:
    """Couples of distinct origins that can and cannot relax to a shared
    site: the records' (site, scheme, port) must be equal."""

    def test_parent_and_subdomain(self):
        assert _relation_of("http://main.com/", "http://sub.main.com/") == RELATION_RELAXABLE
        assert _relation_of("http://sub.main.com/", "http://main.com/") == RELATION_RELAXABLE

    def test_same_origin_not_relaxable(self):
        assert _relation_of("http://main.com/", "http://main.com/") == RELATION_SAME_ORIGIN

    def test_two_subdomains(self):
        assert _relation_of("http://a.main.com/", "http://b.main.com/") == RELATION_RELAXABLE

    def test_scheme_mismatch(self):
        assert _relation_of("http://main.com/", "https://sub.main.com:80/") == RELATION_UNRELATED

    def test_port_mismatch(self):
        assert _relation_of("http://main.com/", "http://sub.main.com:8080/") == RELATION_UNRELATED

    def test_different_sites(self):
        assert _relation_of("http://main.com/", "http://other.org/") == RELATION_UNRELATED

    def test_public_suffix_host_never_relaxes(self):
        # A public-suffix host is recorded as its own site.
        assert make_page("http://co.uk/").site == "co.uk"
        assert _relation_of("http://co.uk/", "http://example.co.uk/") == RELATION_UNRELATED

    def test_no_recorded_site_never_relaxes(self):
        a = replace(make_page("http://a.main.com/"), site=None)
        b = replace(make_page("http://b.main.com/"), site=None)
        assert classify_pair(a, b).relation == RELATION_UNRELATED
        assert classify_pair(a, a).relation == RELATION_SAME_ORIGIN

    def test_recorded_site_decides(self):
        # The sites a last-two-labels crawl records put a.co.uk and b.co.uk
        # on one site; the bundled suffix table keeps them apart.
        a, b = make_page("http://a.co.uk/"), make_page("http://b.co.uk/")
        assert classify_pair(a, b).relation == RELATION_UNRELATED
        a, b = (replace(r, site=site_of(r.origin.host, NAIVE_SUFFIXES)) for r in (a, b))
        assert a.site == b.site == "co.uk"
        assert classify_pair(a, b).relation == RELATION_RELAXABLE


_origin_strategy = st.builds(
    Origin,
    scheme=st.sampled_from(["http", "https"]),
    host=st.sampled_from(["main.com", "sub.main.com", "a.main.com", "other.org", "example.co.uk"]),
    port=st.sampled_from([80, 443, 8080]),
)


@given(_origin_strategy, _origin_strategy, _origin_strategy)
def test_same_origin_equivalence_properties(a, b, c):
    pa, pb, pc = _page(a), _page(b), _page(c)
    assert _relation(pa, pa) == RELATION_SAME_ORIGIN
    assert (_relation(pa, pb) == RELATION_SAME_ORIGIN) == (a == b)
    if _relation(pa, pb) == _relation(pb, pc) == RELATION_SAME_ORIGIN:
        assert _relation(pa, pc) == RELATION_SAME_ORIGIN


@given(_origin_strategy, _origin_strategy)
def test_relaxable_symmetric_and_disjoint(a, b):
    pa, pb = _page(a), _page(b)
    assert _relation(pa, pb) == _relation(pb, pa)
    if a == b:
        assert _relation(pa, pb) == RELATION_SAME_ORIGIN


def test_seeded_pair_properties_bulk():
    rng = random.Random(0xC0FFEE)
    for _ in range(2000):
        a = Origin(*origin_triple(rng))
        b = Origin(*origin_triple(rng))
        pa, pb = _page(a), _page(b)
        assert _relation(pa, pb) == _relation(pb, pa)
        assert (_relation(pa, pb) == RELATION_SAME_ORIGIN) == (a == b)


class TestSiteCache:
    """origins._site is the one cache of site_of answers, keyed by (host,
    suffix table). The crawler asks it; the analysis reads recorded sites."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        origins._site.cache_clear()
        yield
        origins._site.cache_clear()

    @pytest.fixture
    def site_of_calls(self, monkeypatch):
        calls = []

        def counted(host, psl=None):
            calls.append((host, psl))
            return site_of(host, psl)

        monkeypatch.setattr(origins, "site_of", counted)
        return calls

    @pytest.mark.parametrize("tables", [(None, NAIVE_SUFFIXES), (NAIVE_SUFFIXES, None)])
    def test_keyed_by_suffix_table(self, tables):
        expected = {None: "b.co.uk", NAIVE_SUFFIXES: "co.uk"}
        for _ in range(2):  # the second round reads the cache
            for psl in tables:
                assert origins._site("a.b.co.uk", psl) == expected[psl]

    def test_one_site_of_call_per_host(self, fixture_site, site_of_calls):
        fixture_site.add("/", '<a href="/one.html">one</a><a href="http://main.com/two.html">two</a>'
                         '<a href="http://elsewhere.net/out">out</a>', host="main.com")
        fixture_site.add("/one.html", '<a href="/">home</a><a href="/two.html">two</a>',
                         host="main.com")
        fixture_site.add("/two.html", '<a href="/">home</a><a href="/one.html">one</a>',
                         host="main.com")
        config = CrawlConfig(politeness_delay=0.0, respect_robots=False, timeout=5.0,
                             resolve_overrides=fixture_site.resolve_overrides("main.com"))
        assert len(crawl_site("http://main.com/", config)) == 3
        assert Counter(site_of_calls) == {("main.com", None): 1, ("elsewhere.net", None): 1}

    def test_analysis_makes_no_site_of_call(self, site_of_calls, tmp_path, capsys):
        corpus = []
        for i in range(20):  # 40 relaxable couples between two hosts of main.com
            corpus.append(make_page(f"http://a.main.com/{i}", "default-src 'self'",
                                    iframes=[f"http://b.main.com/{i}"]))
            corpus.append(make_page(f"http://b.main.com/{i}", iframes=[f"http://a.main.com/{i}"]))
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        site_of_calls.clear()
        for table in cli._TABLES:
            assert cli.main(["analyze", "--corpus", str(path), "--table", table,
                             "--format", "json"]) == 0
            out = json.loads(capsys.readouterr().out)
            if table == "violations":
                assert out["cells"]["only-parent-csp"]["relaxable"] == 20
        assert site_of_calls == []
