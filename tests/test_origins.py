import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cspsop import origins
from cspsop.crawler import CrawlConfig, crawl_site
from cspsop.origins import (
    NAIVE_SUFFIXES,
    NoRegistrableDomainError,
    Origin,
    PublicSuffixList,
    UnsupportedUrlError,
    default_psl,
    origin_of,
    relaxable_to,
    same_origin,
    site_of,
)
from cspsop.report import violation_table
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


class TestSameOrigin:
    def test_equal_triples(self):
        assert same_origin(Origin("http", "main.com", 80), Origin("http", "main.com", 80))

    def test_scheme_differs(self):
        assert not same_origin(Origin("http", "main.com", 80), Origin("https", "main.com", 443))

    def test_subdomain_differs(self):
        assert not same_origin(Origin("http", "main.com", 80), Origin("http", "sub.main.com", 80))


class TestRelaxableTo:
    def test_parent_and_subdomain(self):
        a = Origin("http", "main.com", 80)
        b = Origin("http", "sub.main.com", 80)
        assert relaxable_to(a, b) == "main.com"
        assert relaxable_to(b, a) == "main.com"

    def test_same_origin_not_relaxable(self):
        a = Origin("http", "main.com", 80)
        assert relaxable_to(a, a) is None

    def test_two_subdomains(self):
        a = Origin("http", "a.main.com", 80)
        b = Origin("http", "b.main.com", 80)
        assert relaxable_to(a, b) == "main.com"

    def test_scheme_mismatch(self):
        a = Origin("http", "main.com", 80)
        b = Origin("https", "sub.main.com", 80)
        assert relaxable_to(a, b) is None

    def test_port_mismatch(self):
        a = Origin("http", "main.com", 80)
        b = Origin("http", "sub.main.com", 8080)
        assert relaxable_to(a, b) is None

    def test_different_sites(self):
        a = Origin("http", "main.com", 80)
        b = Origin("http", "other.org", 80)
        assert relaxable_to(a, b) is None

    def test_public_suffix_host_never_relaxes(self):
        a = Origin("http", "co.uk", 80)
        b = Origin("http", "example.co.uk", 80)
        assert relaxable_to(a, b) is None


_origin_strategy = st.builds(
    Origin,
    scheme=st.sampled_from(["http", "https"]),
    host=st.sampled_from(["main.com", "sub.main.com", "a.main.com", "other.org", "example.co.uk"]),
    port=st.sampled_from([80, 443, 8080]),
)


@given(_origin_strategy, _origin_strategy, _origin_strategy)
def test_same_origin_equivalence_properties(a, b, c):
    assert same_origin(a, a)
    assert same_origin(a, b) == same_origin(b, a)
    if same_origin(a, b) and same_origin(b, c):
        assert same_origin(a, c)


@given(_origin_strategy, _origin_strategy)
def test_relaxable_symmetric_and_disjoint(a, b):
    assert relaxable_to(a, b) == relaxable_to(b, a)
    if same_origin(a, b):
        assert relaxable_to(a, b) is None


def test_seeded_pair_properties_bulk():
    rng = random.Random(0xC0FFEE)
    for _ in range(2000):
        a = Origin(*origin_triple(rng))
        b = Origin(*origin_triple(rng))
        assert relaxable_to(a, b) == relaxable_to(b, a)
        assert not (same_origin(a, b) and relaxable_to(a, b) is not None)


class TestSiteCache:
    """origins._site is the one cache of site_of answers, keyed by (host,
    suffix table), for the crawler and for relaxable_to."""

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

    def test_one_site_of_call_per_couple_host(self, site_of_calls):
        corpus = []
        for i in range(20):  # 40 relaxable couples between two hosts of main.com
            corpus.append(make_page(f"http://a.main.com/{i}", iframes=[f"http://b.main.com/{i}"]))
            corpus.append(make_page(f"http://b.main.com/{i}", iframes=[f"http://a.main.com/{i}"]))
        for psl in (None, NAIVE_SUFFIXES):
            assert violation_table(corpus, psl).cells["no-csp-anywhere"]["relaxable"] == 40
        assert Counter(site_of_calls) == {
            (host, psl): 1 for host in ("a.main.com", "b.main.com") for psl in (None, NAIVE_SUFFIXES)
        }
