import multiprocessing
import os
import signal
import socket
import ssl
import string
import threading
import time
import urllib.robotparser
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import conftest
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_same_site_urls

from cspsop import crawler
from cspsop.crawler import (
    DEPTH_HOME,
    DEPTH_IFRAME_HOME,
    DEPTH_IFRAME_LINKED,
    DEPTH_LINKED,
    STATUS_HTTP_ERROR,
    STATUS_NETWORK_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CrawlConfig,
    FetchResult,
    PageRecord,
    build_record,
    crawl_site,
    crawl_sites,
    fetch,
)
from cspsop.origins import NAIVE_SUFFIXES


def quick_config(**overrides) -> CrawlConfig:
    defaults = dict(politeness_delay=0.0, respect_robots=False, timeout=5.0)
    defaults.update(overrides)
    return CrawlConfig(**defaults)


def served(body: str, url: str) -> PageRecord:
    """The record of a main.com page at url that served body."""
    return build_record(FetchResult(url, url, STATUS_OK, 200, [], body.encode()), DEPTH_HOME)


class TestExtractLinks:
    def test_same_site_filter(self):
        body = """
        <a href="http://main.com/a">in</a>
        <a href="http://sub.main.com/b">in</a>
        <a href="http://other.com/c">out</a>
        """
        assert served(body, "http://main.com/").links_same_site == [
            "http://main.com/a",
            "http://sub.main.com/b",
        ]

    def test_no_anchors(self):
        assert served("<p>nothing here</p>", "http://main.com/").links_same_site == []

    def test_relative_resolution(self):
        # URL-resolution oracle: urljoin("http://main.com/d/e", "../x") == "http://main.com/x"
        body = '<a href="../x">up</a>'
        assert served(body, "http://main.com/d/e").links_same_site == ["http://main.com/x"]

    def test_fragment_stripped_and_deduplicated(self):
        body = '<a href="/p#top">1</a><a href="/p#bottom">2</a><a href="/p">3</a>'
        assert served(body, "http://main.com/").links_same_site == ["http://main.com/p"]

    def test_non_http_schemes_ignored(self):
        body = '<a href="mailto:x@main.com">m</a><a href="javascript:void(0)">j</a>'
        assert served(body, "http://main.com/").links_same_site == []

    def test_port_zero_link_dropped(self):
        body = '<a href="http://main.com:0/">zero</a><a href="/ok">ok</a>'
        assert served(body, "http://main.com/").links_same_site == ["http://main.com/ok"]

    def test_broken_markup_tolerated(self):
        body = '<a href="/ok"><div><<<<a href="http://main.com/also>unclosed'
        assert "http://main.com/ok" in served(body, "http://main.com/").links_same_site

    @pytest.mark.parametrize("body", ["<p><![ x <a href=/y> <a href=/z>", "<![foo[ ]]><a href=/z>"])
    def test_unknown_marked_section_is_a_bogus_comment(self, body):
        # html.parser raises AssertionError on both; each runs to the next ">".
        assert served(body, "http://main.com/").links_same_site == ["http://main.com/z"]


# Pieces of hrefs whose resolution or host parsing has edge cases.
HREF_PIECES = [
    "http://", "https://", "HTTP://", "//", "mailto:", "javascript:", "http:", "main.com",
    "sub.main.com", "other.net", "[::1]", "[", "]", "127.0.0.1", "user:pw@", "@", ":0", ":80",
    ":8080", ":", "/", "\\", "?q=1", "#frag", "#", ".", "..", " ", "\t", "\n", "%5B", "x",
    "é",
]
BASES = ["http://main.com/d/e", "https://sub.main.com:8443/", "http://[::1]:8080/a?b#c",
         "http://localhost/"]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(HREF_PIECES), max_size=8).map("".join), max_size=12),
    st.sampled_from(BASES),
    st.sampled_from([None, NAIVE_SUFFIXES]),
)
def test_same_site_urls_match_oracle(hrefs, base, psl):
    site = crawler._site(crawler.origin_of(base).host, psl)
    assert crawler._same_site_urls(hrefs, base, site, psl) == oracle_same_site_urls(
        hrefs, base, site, psl
    )


class TestExtractIframes:
    def test_relative_src(self):
        body = '<iframe src="B.html"></iframe>'
        record = served(body, "http://main.com/A.html")
        assert record.iframes_same_site == ["http://main.com/B.html"]
        assert record.srcdoc_iframes == 0

    def test_cross_site_excluded(self):
        body = '<iframe src="http://other.com/x.html"></iframe>'
        assert served(body, "http://main.com/A.html").iframes_same_site == []

    def test_srcdoc_counted_not_listed(self):
        body = '<iframe srcdoc="&lt;p&gt;inline&lt;/p&gt;"></iframe>'
        record = served(body, "http://main.com/A.html")
        assert record.iframes_same_site == []
        assert record.srcdoc_iframes == 1


class TestBodyCharset:
    def test_declared_charset_decodes_meta_policy(self, fixture_site):
        page = '<meta http-equiv="Content-Security-Policy" content="img-src café.test">'
        fixture_site.add("/", page.encode("iso-8859-1"), host="main.com",
                         content_type="text/html; charset=iso-8859-1")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        record = crawl_site("http://main.com/", config)[0]
        assert [p.raw for p in record.policies] == ["img-src café.test"]

    @pytest.mark.parametrize("charset", ["us-ascii", "iso-8859-1"])
    def test_windows_1252_labels_decode_as_windows_1252(self, charset):
        # The Encoding Standard maps both labels to windows-1252, where 0x80 is €.
        body = b'<meta http-equiv="Content-Security-Policy" content="img-src \x80.test">'
        result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                             [("Content-Type", f"text/html; charset={charset}")], body)
        record = build_record(result, DEPTH_HOME)
        assert [p.raw for p in record.policies] == ["img-src €.test"]

    @pytest.mark.parametrize("content_type", [
        "text/html", "text/html; charset=", "text/html; charset=no-such-charset",
        "text/html; charset=undefined", "text/html; charset=base64",
    ])
    def test_missing_or_unusable_charset_falls_back_to_utf8(self, content_type):
        body = '<meta http-equiv="Content-Security-Policy" content="img-src café.test">'
        result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                             [("Content-Type", content_type)], body.encode())
        record = build_record(result, DEPTH_HOME)
        assert [p.raw for p in record.policies] == ["img-src café.test"]


    @pytest.mark.parametrize("charset", ["punycode", "utf-32", "unicode_escape", "no-such-charset"])
    def test_codec_no_browser_knows_reads_as_utf8(self, charset):
        # utf-32 and punycode lose the whole page; unicode_escape would
        # turn the literal \ud800 in the href into a lone surrogate.
        body = (b'<meta http-equiv="Content-Security-Policy" content="img-src a.test">'
                b'<a href="/x\\ud800">x</a><iframe src="/frame.html"></iframe>')
        result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                             [("Content-Type", f"text/html; charset={charset}")], body)
        record = build_record(result, DEPTH_HOME)
        assert [p.raw for p in record.policies] == ["img-src a.test"]
        assert record.links_same_site == ["http://main.com/x\\ud800"]
        assert record.iframes_same_site == ["http://main.com/frame.html"]

    @pytest.mark.parametrize("charset, host", [
        ("koi8-r", "д"), ("windows-1251", "д"), ("iso-8859-9", "ğ"), ("shift_jis", "中"),
        ("gbk", "中"), ("big5", "中"), ("euc-kr", "한"), ("utf-16le", "中"), ("utf-16", "中"),
    ])
    def test_encoding_standard_charsets_decode_with_their_codec(self, charset, host):
        body = f'<meta http-equiv="Content-Security-Policy" content="img-src {host}.test">'
        result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                             [("Content-Type", f"text/html; charset={charset}")],
                             body.encode(charset))
        record = build_record(result, DEPTH_HOME)
        assert [p.raw for p in record.policies] == [f"img-src {host}.test"]

    @pytest.mark.parametrize("content_type", [
        "text/html; charset=\x00", "text/html; charset=utf-8\x00", "text/html; charset*=\x00''x",
    ])
    def test_nul_in_charset_falls_back_to_utf8(self, content_type):
        # bytes.decode, and for an RFC 2231 charset*= get_content_charset
        # too, raise "embedded null character", a ValueError.
        body = '<meta http-equiv="Content-Security-Policy" content="img-src café.test">'
        result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                             [("Content-Type", content_type)], body.encode())
        record = build_record(result, DEPTH_HOME)
        assert [p.raw for p in record.policies] == ["img-src café.test"]


CONTENT_TYPE_PIECES = [
    "text/html", ";", " ", "charset", "*", "0", "=", "'", "''", '"', "\x00", "\n", "\\", "%",
    "%00", "%ff", "utf-8", "utf-16", "latin1", "base64", "undefined", "x", "é", "\udc80",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CONTENT_TYPE_PIECES), max_size=10).map("".join) | st.text())
@example("text/html; charset=\x00")
@example("text/html; charset*=\x00''x")
def test_build_record_never_raises_on_hostile_content_type(content_type):
    body = b'<meta http-equiv="Content-Security-Policy" content="img-src a.test"><a href="/x">x</a>'
    result = FetchResult("http://main.com/", "http://main.com/", STATUS_OK, 200,
                         [("Content-Type", content_type)], body)
    assert build_record(result, DEPTH_HOME).fetch_status == STATUS_OK


def _refuse(*args, **kwargs):
    raise ConnectionRefusedError("no connection in this test")


@settings(max_examples=200, deadline=None)
@given(st.builds(
    str.__add__, st.sampled_from(["http://", "https://"]),
    st.text(":/[]#?@%. \x00" + string.ascii_letters + string.digits, max_size=20),
))
@example("http://[::1#x")
def test_fetch_never_raises_on_hostile_url(url):
    # http.client binds socket.create_connection to each connection it
    # builds, and a resolve override calls it too: with it refused, no
    # request makes a DNS lookup or opens a socket.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(socket, "create_connection", _refuse)
        result = fetch(url, quick_config())
    assert result.url == url
    assert result.status in (STATUS_NETWORK_ERROR, STATUS_TIMEOUT)


class TestFetch:
    def test_ok_with_csp_header(self, fixture_site):
        fixture_site.add("/", "<html></html>", headers=[("Content-Security-Policy", "default-src 'self'")])
        result = fetch(fixture_site.url("/"), quick_config())
        assert result.status == STATUS_OK
        assert result.http_status == 200
        assert ("Content-Security-Policy", "default-src 'self'") in result.headers

    def test_duplicate_headers_preserved(self, fixture_site):
        fixture_site.add(
            "/",
            headers=[
                ("Content-Security-Policy", "script-src a.com"),
                ("Content-Security-Policy", "script-src b.com"),
            ],
        )
        result = fetch(fixture_site.url("/"), quick_config())
        values = [v for k, v in result.headers if k.lower() == "content-security-policy"]
        assert values == ["script-src a.com", "script-src b.com"]

    def test_redirect_final_url(self, fixture_site):
        fixture_site.add("/r", status=302, headers=[("Location", "/target")])
        fixture_site.add("/target", "arrived")
        result = fetch(fixture_site.url("/r"), quick_config())
        assert result.status == STATUS_OK
        assert result.final_url == fixture_site.url("/target")
        assert result.url == fixture_site.url("/r")

    def test_redirect_bound(self, fixture_site):
        for i in range(8):
            fixture_site.add(f"/hop{i}", status=302, headers=[("Location", f"/hop{i + 1}")])
        result = fetch(fixture_site.url("/hop0"), quick_config())
        assert result.status == STATUS_HTTP_ERROR
        assert result.http_status == 302
        assert result.final_url == fixture_site.url(f"/hop{crawler.MAX_REDIRECTS}")

    def test_unresolvable_host(self):
        result = fetch("http://no-such-host.invalid/", quick_config(timeout=2.0))
        assert result.status == STATUS_NETWORK_ERROR

    def test_invalid_host(self):
        # http.client refuses a host with a space before any connection.
        result = fetch("http://a b.main.com/", quick_config())
        assert (result.status, result.final_url) == (STATUS_NETWORK_ERROR, "http://a b.main.com/")

    def test_timeout(self, fixture_site):
        fixture_site.add("/slow", "late", delay=1.0)
        result = fetch(fixture_site.url("/slow"), quick_config(timeout=0.2))
        assert result.status == STATUS_TIMEOUT

    def test_handler_threads_end_with_the_fixture(self):
        site = conftest.FixtureSite()
        server = conftest._FixtureServer(("127.0.0.1", 0), conftest._make_handler(site))
        serving = conftest._serve(site, server)
        next(serving)
        site.add("/slow", "late", delay=5.0)
        before = set(threading.enumerate())
        assert fetch(site.url("/slow"), quick_config(timeout=0.2)).status == STATUS_TIMEOUT
        handlers = set(threading.enumerate()) - before
        assert handlers  # the handler still waits out its delay
        serving.close()  # the fixture's teardown
        assert [t for t in handlers if t.is_alive()] == []

    def test_unparseable_redirect_location(self, fixture_site):
        # urljoin raises ValueError ("Invalid IPv6 URL") on this Location.
        fixture_site.add("/r", status=302, headers=[("Location", "http://[::1")])
        result = fetch(fixture_site.url("/r"), quick_config())
        assert (result.status, result.final_url) == (STATUS_NETWORK_ERROR, fixture_site.url("/r"))

    def test_body_cap(self, fixture_site, monkeypatch):
        fixture_site.add("/big", "x" * 100_000)
        monkeypatch.setattr(crawler, "BODY_CAP", 1000)
        result = fetch(fixture_site.url("/big"), quick_config())
        assert len(result.body) == 1000

    def test_http_error_status(self, fixture_site):
        fixture_site.add("/gone", "nope", status=404)
        result = fetch(fixture_site.url("/gone"), quick_config())
        assert result.status == STATUS_HTTP_ERROR
        assert result.http_status == 404

    def test_resolve_override_routes_named_host(self, fixture_site):
        fixture_site.add("/", "named host page", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        result = fetch("http://main.com/", config)
        assert result.status == STATUS_OK
        assert b"named host page" in result.body


def _build_main_site(fixture_site):
    """main.com with two linked pages and one iframe each on home/linked."""
    fixture_site.add(
        "/",
        """<html>
        <a href="/one.html">one</a>
        <a href="http://main.com/two.html">two</a>
        <a href="http://elsewhere.net/out">out</a>
        <iframe src="/frame-home.html"></iframe>
        </html>""",
        host="main.com",
    )
    fixture_site.add("/one.html", '<iframe src="/frame-linked.html"></iframe>', host="main.com")
    fixture_site.add("/two.html", "<p>leaf</p>", host="main.com")
    fixture_site.add("/frame-home.html", "<p>frame</p>", host="main.com")
    fixture_site.add("/frame-linked.html", "<p>frame</p>", host="main.com")
    return quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com", "sub.main.com"))


def _build_visit_order_site(fixture_site):
    """main.com where a link repeats, a home iframe is also a link, a linked
    page redirects off-site, robots deny one link, and linked pages have
    iframes, one shared between them."""
    fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /private\n", host="main.com",
                     content_type="text/plain")
    fixture_site.add(
        "/",
        """<a href="/a.html">a</a>
        <a href="/moved.html">m</a>
        <a href="/private/p.html">p</a>
        <a href="/b.html">b</a>
        <a href="/a.html">a again</a>
        <iframe src="/b.html"></iframe>
        <iframe src="/fh.html"></iframe>""",
        host="main.com",
    )
    fixture_site.add("/a.html", '<a href="/deep.html">d</a><iframe src="/fa.html"></iframe>'
                     '<iframe src="/b.html"></iframe>', host="main.com")
    fixture_site.add("/moved.html", status=302, headers=[("Location", "http://elsewhere.net/")],
                     host="main.com")
    fixture_site.add("/", '<a href="/x.html">x</a><iframe src="/y.html"></iframe>',
                     host="elsewhere.net")
    fixture_site.add("/b.html", '<iframe src="/fa.html"></iframe><iframe src="/fb.html"></iframe>',
                     host="main.com")
    for path in ("/private/p.html", "/deep.html", "/fh.html", "/fa.html", "/fb.html"):
        fixture_site.add(path, '<iframe src="/never.html"></iframe>', host="main.com")
    return quick_config(
        respect_robots=True,
        resolve_overrides=fixture_site.resolve_overrides("main.com", "elsewhere.net"),
    )


class TestCrawlSite:
    def test_visit_order(self, fixture_site):
        # The seed, its links, its iframes, then each linked page's iframes
        # in link order; every URL once, robots-denied and off-site ones
        # never followed.
        records = crawl_site("http://main.com/", _build_visit_order_site(fixture_site))
        assert [(r.url, r.depth) for r in records] == [
            ("http://main.com/", DEPTH_HOME),
            ("http://main.com/a.html", DEPTH_LINKED),
            ("http://main.com/moved.html", DEPTH_LINKED),
            ("http://main.com/b.html", DEPTH_LINKED),
            ("http://main.com/fh.html", DEPTH_IFRAME_HOME),
            ("http://main.com/fa.html", DEPTH_IFRAME_LINKED),
            ("http://main.com/fb.html", DEPTH_IFRAME_LINKED),
        ]
        assert records[2].final_url == "http://elsewhere.net/"
        assert fixture_site.requests == [
            ("main.com", "/robots.txt"),
            ("main.com", "/"),
            ("main.com", "/a.html"),
            ("main.com", "/moved.html"),
            ("elsewhere.net", "/"),
            ("main.com", "/b.html"),
            ("main.com", "/fh.html"),
            ("main.com", "/fa.html"),
            ("main.com", "/fb.html"),
        ]

    def test_visit_order_page_cap_cuts_the_links(self, fixture_site):
        config = _build_visit_order_site(fixture_site)
        config.max_pages_per_site = 3
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.depth) for r in records] == [
            ("http://main.com/", DEPTH_HOME),
            ("http://main.com/a.html", DEPTH_LINKED),
            ("http://main.com/moved.html", DEPTH_LINKED),
        ]

    def test_three_stage_crawl(self, fixture_site):
        config = _build_main_site(fixture_site)
        records = crawl_site("http://main.com/", config)
        by_url = {r.url: r for r in records}
        assert len(records) == 5
        assert by_url["http://main.com/"].depth == DEPTH_HOME
        assert by_url["http://main.com/one.html"].depth == DEPTH_LINKED
        assert by_url["http://main.com/two.html"].depth == DEPTH_LINKED
        assert by_url["http://main.com/frame-home.html"].depth == DEPTH_IFRAME_HOME
        assert by_url["http://main.com/frame-linked.html"].depth == DEPTH_IFRAME_LINKED
        assert all(r.site == "main.com" for r in records)
        assert all(r.fetch_status == STATUS_OK for r in records)

    def test_home_without_references(self, fixture_site):
        fixture_site.add("/", "<p>lonely</p>", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        records = crawl_site("http://main.com/", config)
        assert len(records) == 1
        assert records[0].depth == DEPTH_HOME

    def test_link_cap(self, fixture_site, monkeypatch):
        links = "".join(f'<a href="/p{i}.html">l</a>' for i in range(10))
        fixture_site.add("/", links, host="main.com")
        for i in range(10):
            fixture_site.add(f"/p{i}.html", '<iframe src="/deep.html"></iframe>', host="main.com")
        fixture_site.add("/deep.html", "frame target", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        monkeypatch.setattr(crawler, "MAX_LINKS_PER_PAGE", 1)
        records = crawl_site("http://main.com/", config)
        depths = sorted(r.depth for r in records)
        assert depths == [DEPTH_HOME, DEPTH_IFRAME_LINKED, DEPTH_LINKED]
        assert {r.url for r in records} == {
            "http://main.com/",
            "http://main.com/p0.html",
            "http://main.com/deep.html",
        }

    def test_iframe_cap(self, fixture_site, monkeypatch):
        # Two iframes on the home page and on its linked page; the first of each is queued.
        frames = '<iframe src="/f{0}1.html"></iframe><iframe src="/f{0}2.html"></iframe>'
        fixture_site.add("/", '<a href="/a.html">a</a>' + frames.format("h"), host="main.com")
        fixture_site.add("/a.html", frames.format("a"), host="main.com")
        for name in ("fh1", "fh2", "fa1", "fa2"):
            fixture_site.add(f"/{name}.html", "frame", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        monkeypatch.setattr(crawler, "MAX_IFRAMES_PER_PAGE", 1)
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.depth) for r in records] == [
            ("http://main.com/", DEPTH_HOME),
            ("http://main.com/a.html", DEPTH_LINKED),
            ("http://main.com/fh1.html", DEPTH_IFRAME_HOME),
            ("http://main.com/fa1.html", DEPTH_IFRAME_LINKED),
        ]

    def test_no_url_fetched_twice(self, fixture_site):
        fixture_site.add(
            "/",
            '<a href="/a.html">1</a><a href="/a.html#frag">2</a><iframe src="/a.html"></iframe>',
            host="main.com",
        )
        fixture_site.add("/a.html", "<p>a</p>", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        records = crawl_site("http://main.com/", config)
        assert len(records) == 2
        urls = [r.url for r in records]
        assert len(urls) == len(set(urls))
        assert len(fixture_site.requests) == 2

    def test_page_cap(self, fixture_site):
        links = "".join(f'<a href="/p{i}.html">l</a>' for i in range(10))
        fixture_site.add("/", links, host="main.com")
        for i in range(10):
            fixture_site.add(f"/p{i}.html", "leaf", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        config.max_pages_per_site = 3
        records = crawl_site("http://main.com/", config)
        assert len(records) == 3

    def test_meta_csp_collected(self, fixture_site):
        fixture_site.add(
            "/",
            '<meta http-equiv="Content-Security-Policy" content="img-src \'none\'">',
            host="main.com",
            headers=[("Content-Security-Policy", "script-src 'self'")],
        )
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        record = crawl_site("http://main.com/", config)[0]
        assert len(record.policies) == 2
        assert record.policies[0].delivery == "http-header"
        assert record.policies[1].delivery == "meta-element"

    def test_cross_site_redirect_is_leaf(self, fixture_site):
        fixture_site.add(
            "/",
            '<a href="/moved.html">m</a>',
            host="main.com",
        )
        fixture_site.add(
            "/moved.html", status=301, headers=[("Location", "http://elsewhere.net/")], host="main.com"
        )
        fixture_site.add("/", '<a href="http://elsewhere.net/x">x</a>', host="elsewhere.net")
        config = quick_config(
            resolve_overrides=fixture_site.resolve_overrides("main.com", "elsewhere.net")
        )
        records = crawl_site("http://main.com/", config)
        by_url = {r.url: r for r in records}
        moved = by_url["http://main.com/moved.html"]
        assert moved.final_url == "http://elsewhere.net/"
        assert moved.site == "elsewhere.net"
        # the off-site page's own links were not followed
        assert "http://elsewhere.net/x" not in by_url

    def test_public_suffix_host_follows_its_links(self, fixture_site):
        # localhost is itself a public suffix: its pages are their own site.
        fixture_site.add("/", '<a href="/a.html">a</a><iframe src="/f.html"></iframe>',
                         host="localhost")
        fixture_site.add("/a.html", "<p>a</p>", host="localhost")
        fixture_site.add("/f.html", "<p>f</p>", host="localhost")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("localhost"))
        records = crawl_site("http://localhost/", config)
        assert [(r.url, r.depth, r.site) for r in records] == [
            ("http://localhost/", DEPTH_HOME, "localhost"),
            ("http://localhost/a.html", DEPTH_LINKED, "localhost"),
            ("http://localhost/f.html", DEPTH_IFRAME_HOME, "localhost"),
        ]

    def test_non_ascii_path_is_percent_encoded(self, fixture_site):
        fixture_site.add("/", '<a href="/café">c</a>', host="main.com")
        fixture_site.add("/caf%C3%A9", "<p>café</p>", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK), ("http://main.com/café", STATUS_OK),
        ]
        assert ("main.com", "/caf%C3%A9") in fixture_site.requests

    def test_non_ascii_link_keeps_other_seeds(self, fixture_site):
        fixture_site.add("/", '<a href="/café">c</a>', host="main.com")
        fixture_site.add("/caf%C3%A9", "<p>café</p>", host="main.com")
        fixture_site.add("/", '<a href="/b.html">b</a>', host="other.net")
        fixture_site.add("/b.html", "<p>b</p>", host="other.net")
        config = quick_config(
            resolve_overrides=fixture_site.resolve_overrides("main.com", "other.net"),
            parallel_sites=2,
        )
        records = crawl_sites(["http://main.com/", "http://other.net/"], config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK), ("http://main.com/café", STATUS_OK),
            ("http://other.net/", STATUS_OK), ("http://other.net/b.html", STATUS_OK),
        ]

    def test_non_latin1_host_keeps_other_seeds(self, fixture_site):
        # http.client cannot send this Host header; the page becomes a failed
        # record instead of aborting the whole crawl.
        fixture_site.add("/", '<a href="http://пример.main.com/">p</a>', host="main.com")
        fixture_site.add("/", '<a href="/b.html">b</a>', host="other.net")
        fixture_site.add("/b.html", "<p>b</p>", host="other.net")
        config = quick_config(
            resolve_overrides=fixture_site.resolve_overrides(
                "main.com", "other.net", "пример.main.com"
            ),
            parallel_sites=2,
        )
        records = crawl_sites(["http://main.com/", "http://other.net/"], config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK), ("http://пример.main.com/", STATUS_NETWORK_ERROR),
            ("http://other.net/", STATUS_OK), ("http://other.net/b.html", STATUS_OK),
        ]

    def test_invalid_host_link_is_a_failed_record(self, fixture_site):
        fixture_site.add("/", '<a href="http://a b.main.com/x">x</a><a href="/b.html">b</a>',
                         host="main.com")
        fixture_site.add("/b.html", "<p>b</p>", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK),
            ("http://a b.main.com/x", STATUS_NETWORK_ERROR),
            ("http://main.com/b.html", STATUS_OK),
        ]

    def test_unparseable_redirect_is_a_failed_record(self, fixture_site):
        fixture_site.add("/", '<a href="/r.html">r</a><a href="/b.html">b</a>', host="main.com")
        fixture_site.add("/r.html", status=302, headers=[("Location", "http://[::1")],
                         host="main.com")
        fixture_site.add("/b.html", "<p>b</p>", host="main.com")
        config = quick_config(resolve_overrides=fixture_site.resolve_overrides("main.com"))
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK),
            ("http://main.com/r.html", STATUS_NETWORK_ERROR),
            ("http://main.com/b.html", STATUS_OK),
        ]

    def test_failed_seed_single_record(self):
        config = quick_config(timeout=2.0)
        records = crawl_site("http://no-such-host.invalid/", config)
        assert len(records) == 1
        assert records[0].fetch_status == STATUS_NETWORK_ERROR
        assert records[0].depth == DEPTH_HOME

    @staticmethod
    def failed_seed_fields(seed: str, origin: dict | None, site: str | None) -> dict:
        return {
            "url": seed, "final_url": seed, "depth": DEPTH_HOME,
            "fetch_status": STATUS_NETWORK_ERROR, "http_status": None,
            "origin": origin, "site": site, "policies": [],
            "links_same_site": [], "iframes_same_site": [], "srcdoc_iframes": 0,
        }

    @pytest.mark.parametrize("naive_sites", [False, True])
    def test_unsupported_seed_record(self, naive_sites):
        seed = "ftp://www.shop.co.uk/"
        records = crawl_site(seed, quick_config(naive_sites=naive_sites))
        assert [asdict(r) for r in records] == [self.failed_seed_fields(seed, None, None)]

    def test_unparseable_seed_record(self):
        # urldefrag raises "Invalid IPv6 URL" on it; the seed keeps its text.
        seed = "http://[::1#x"
        records = crawl_site(seed, quick_config())
        assert [asdict(r) for r in records] == [self.failed_seed_fields(seed, None, None)]

    @pytest.mark.parametrize("naive_sites, site", [(False, "shop.co.uk"), (True, "co.uk")])
    def test_robots_forbidden_seed_record(self, fixture_site, naive_sites, site):
        host = "www.shop.co.uk"
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /\n", host=host,
                         content_type="text/plain")
        config = quick_config(respect_robots=True, naive_sites=naive_sites,
                              resolve_overrides=fixture_site.resolve_overrides(host))
        seed = f"http://{host}/"
        records = crawl_site(seed, config)
        origin = {"scheme": "http", "host": host, "port": 80}
        assert [asdict(r) for r in records] == [self.failed_seed_fields(seed, origin, site)]
        assert fixture_site.requests == [(host, "/robots.txt")]

    def test_robots_respected(self, fixture_site):
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /private\n", host="main.com",
                         content_type="text/plain")
        fixture_site.add("/", '<a href="/private.html">p</a><a href="/open.html">o</a>', host="main.com")
        fixture_site.add("/private.html", "secret", host="main.com")
        fixture_site.add("/open.html", "open", host="main.com")
        config = quick_config(
            respect_robots=True, resolve_overrides=fixture_site.resolve_overrides("main.com")
        )
        records = crawl_site("http://main.com/", config)
        urls = {r.url for r in records}
        assert "http://main.com/open.html" in urls
        assert "http://main.com/private.html" not in urls

    def test_robots_unparseable_url_allowed(self, fixture_site):
        # can_fetch unquotes the URL and re-parses it: %5B becomes a "[" in
        # the host, which urllib.parse rejects with a ValueError.
        odd_host = "x%5b.main.com"
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /private\n", host="main.com",
                         content_type="text/plain")
        fixture_site.add(
            "/", '<a href="http://x%5B.main.com/odd.html">x</a><a href="/private.html">p</a>',
            host="main.com",
        )
        fixture_site.add("/odd.html", "odd", host=odd_host)
        config = quick_config(
            respect_robots=True,
            resolve_overrides=fixture_site.resolve_overrides("main.com", odd_host),
        )
        records = crawl_site("http://main.com/", config)
        by_url = {r.url: r for r in records}
        assert by_url["http://x%5B.main.com/odd.html"].fetch_status == STATUS_OK
        assert "http://main.com/private.html" not in by_url

    @pytest.mark.parametrize("bad_rule", ["Disallow: http://[::1", "Crawl-delay: ²"])
    def test_robots_unparseable_rule_is_ignored(self, fixture_site, bad_rule):
        # RobotFileParser.parse raises ValueError on the first rule:
        # "Invalid IPv6 URL", or int() of a digit that str.isdigit accepts.
        robots = f"User-agent: *\n{bad_rule}\nDisallow: /private\n"
        fixture_site.add("/robots.txt", robots, host="main.com", content_type="text/plain")
        fixture_site.add("/", '<a href="/private.html">p</a><a href="/open.html">o</a>',
                         host="main.com")
        fixture_site.add("/private.html", "secret", host="main.com")
        fixture_site.add("/open.html", "open", host="main.com")
        fixture_site.add("/", "<p>other</p>", host="other.net")
        config = quick_config(
            respect_robots=True,
            resolve_overrides=fixture_site.resolve_overrides("main.com", "other.net"),
        )
        records = crawl_sites(["http://main.com/", "http://other.net/"], config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK),
            ("http://main.com/open.html", STATUS_OK),
            ("http://other.net/", STATUS_OK),
        ]

    def test_robots_unexpected_error_surfaces(self, fixture_site, monkeypatch):
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /private\n", host="main.com",
                         content_type="text/plain")
        fixture_site.add("/", "home", host="main.com")

        def broken(self, useragent, url):
            raise RuntimeError("bug in the robots check")

        monkeypatch.setattr(urllib.robotparser.RobotFileParser, "can_fetch", broken)
        config = quick_config(
            respect_robots=True, resolve_overrides=fixture_site.resolve_overrides("main.com")
        )
        with pytest.raises(RuntimeError):
            crawl_site("http://main.com/", config)

    def test_deterministic_at_parallelism_one(self, fixture_site):
        config = _build_main_site(fixture_site)
        first = crawl_site("http://main.com/", config)
        second = crawl_site("http://main.com/", config)
        assert [(r.url, r.depth, r.fetch_status) for r in first] == [
            (r.url, r.depth, r.fetch_status) for r in second
        ]

    def test_politeness_spacing(self, fixture_site, monkeypatch):
        config = _build_main_site(fixture_site)
        config.politeness_delay = 0.05
        starts = []

        def timed_fetch(url, config):
            starts.append(time.monotonic())
            return fetch(url, config)

        monkeypatch.setattr(crawler, "fetch", timed_fetch)
        records = crawl_site("http://main.com/", config)
        assert len(starts) == len(records) == 5
        assert all(later - earlier >= 0.05 for earlier, later in zip(starts, starts[1:]))

    def test_unknown_marked_section_keeps_the_crawl(self, fixture_site):
        fixture_site.add("/", '<a href="/a.html">a</a><![foo[ x ]]><a href="/b.html">b</a>',
                         host="main.com")
        fixture_site.add("/a.html", "<p><![ x <p>a</p>", host="main.com")
        fixture_site.add("/b.html", "<p>b</p>", host="main.com")
        fixture_site.add("/", "<p>other</p>", host="other.net")
        config = quick_config(
            resolve_overrides=fixture_site.resolve_overrides("main.com", "other.net")
        )
        records = crawl_sites(["http://main.com/", "http://other.net/"], config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK),
            ("http://main.com/a.html", STATUS_OK),
            ("http://main.com/b.html", STATUS_OK),
            ("http://other.net/", STATUS_OK),
        ]


def _build_three_sites(fixture_site) -> tuple[list[str], CrawlConfig]:
    """main.com as in _build_main_site, plus other.net with a policy and a
    link, and a third.org home page."""
    config = _build_main_site(fixture_site)
    fixture_site.add("/", '<a href="/b.html">b</a>', host="other.net",
                     headers=[("Content-Security-Policy", "img-src 'self'")])
    fixture_site.add("/b.html", "<p>b</p>", host="other.net")
    fixture_site.add("/", "<p>third</p>", host="third.org")
    config.resolve_overrides.update(fixture_site.resolve_overrides("other.net", "third.org"))
    return ["http://main.com/", "http://other.net/", "http://third.org/"], config


@contextmanager
def _deadline(seconds: int):
    """Raises TimeoutError in the main thread if the block runs longer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCrawlSites:
    """crawl_sites runs each seed's crawl_site in a forked worker process."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []  # after every return or raise

    @pytest.mark.parametrize("parallel", [1, 2, 3])
    def test_same_records_as_one_site_at_a_time(self, fixture_site, parallel):
        seeds, config = _build_three_sites(fixture_site)
        config.parallel_sites = parallel
        expected = [record for seed in seeds for record in crawl_site(seed, config)]
        assert len(expected) == 8
        with _deadline(60):
            records = crawl_sites(seeds, config)
        assert [asdict(r) for r in records] == [asdict(r) for r in expected]

    def test_no_seeds(self):
        assert crawl_sites([], quick_config()) == []

    def test_unparseable_seed(self):
        with _deadline(60):
            records = crawl_sites(["http://[::1#x"], quick_config())
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://[::1#x", STATUS_NETWORK_ERROR)
        ]

    def test_worker_exception_surfaces(self, fixture_site, monkeypatch):
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: /private\n",
                         content_type="text/plain")
        fixture_site.add("/", "home")

        def broken(self, useragent, url):
            raise RuntimeError("bug in the robots check")

        monkeypatch.setattr(urllib.robotparser.RobotFileParser, "can_fetch", broken)
        config = quick_config(
            respect_robots=True, parallel_sites=2,
            resolve_overrides=fixture_site.resolve_overrides("main.com", "other.net"),
        )
        with _deadline(60), pytest.raises(RuntimeError, match="bug in the robots check"):
            crawl_sites(["http://main.com/", "http://other.net/"], config)

    def test_dead_worker_breaks_the_pool(self, monkeypatch):
        def die(seed, config):
            os._exit(1)

        monkeypatch.setattr(crawler, "crawl_site", die)
        config = quick_config(parallel_sites=2)
        with _deadline(60), pytest.raises(BrokenProcessPool):
            crawl_sites(["http://main.com/", "http://other.net/", "http://third.org/"], config)

    def test_ctrl_c_ends_a_worker_at_once(self, monkeypatch):
        def interrupted(seed, config):
            try:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(30)
            except KeyboardInterrupt:  # the worker would go on to its next seed
                return []

        monkeypatch.setattr(crawler, "crawl_site", interrupted)
        config = quick_config(parallel_sites=2)
        with _deadline(20), pytest.raises(BrokenProcessPool):
            crawl_sites(["http://main.com/", "http://other.net/", "http://third.org/"], config)


TLS_DIR = Path(__file__).parent / "tls"


@pytest.fixture
def tls_site(monkeypatch):
    r"""The fixture server behind TLS, serving the main.com certificate in
    tests/tls, which the test CA there signed; the client trusts that CA.

    Both were made once with the OpenSSL CLI (3.4 or later, for
    -not_before), after which ca.key was deleted:

        openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \
            -keyout ca.key -out ca.pem \
            -not_before 20000101000000Z -not_after 21000101000000Z \
            -subj "/CN=cspsop test CA" \
            -addext "basicConstraints=critical,CA:TRUE" \
            -addext "keyUsage=critical,keyCertSign,cRLSign"
        openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \
            -keyout main.com.key -out main.com.pem -CA ca.pem -CAkey ca.key \
            -not_before 20000101000000Z -not_after 21000101000000Z \
            -subj "/CN=main.com" -addext "subjectAltName=DNS:main.com" \
            -addext "basicConstraints=critical,CA:FALSE" \
            -addext "keyUsage=critical,digitalSignature" \
            -addext "extendedKeyUsage=serverAuth"
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_DIR / "main.com.pem", TLS_DIR / "main.com.key")
    site = conftest.FixtureSite()
    server = conftest._FixtureServer(("127.0.0.1", 0), conftest._make_handler(site))
    server.socket = context.wrap_socket(server.socket, server_side=True)
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_DIR / "ca.pem"))
    yield from conftest._serve(site, server)


class TestCrawlConfig:
    @pytest.mark.parametrize("user_agent", ["a\nb", "a\r\n b", "a\tb", "a\x00b", "a\x7fb",
                                            "a\x85b", "café中"])
    def test_user_agent_outside_printable_latin1_is_rejected(self, user_agent):
        # http.client raises ValueError on a line break and cannot encode 中.
        with pytest.raises(ValueError, match="user_agent"):
            quick_config(user_agent=user_agent)

    def test_latin1_user_agent_is_sent(self, fixture_site):
        fixture_site.add("/", "")
        assert fetch(fixture_site.url("/"), quick_config(user_agent="café/1.0")).status == STATUS_OK
        assert fixture_site.user_agents == ["café/1.0"]

    @pytest.mark.parametrize("value", [float("inf"), 1e300, crawler.MAX_WAIT + 0.5])
    @pytest.mark.parametrize("name", ["timeout", "politeness_delay"])
    def test_wait_beyond_one_day_is_rejected(self, name, value):
        # fetch would raise OverflowError on such a timeout, time.sleep on
        # such a delay.
        with pytest.raises(ValueError, match=name):
            quick_config(**{name: value})

    def test_one_day_wait_is_accepted(self):
        quick_config(timeout=crawler.MAX_WAIT, politeness_delay=crawler.MAX_WAIT)


class TestResolveOverrides:
    @pytest.mark.parametrize("target,expected", [
        ("127.0.0.1:8080", ("127.0.0.1", 8080)),
        ("127.0.0.1", ("127.0.0.1", 80)),
        ("backend.test:1", ("backend.test", 1)),
        ("[::1]:65535", ("::1", 65535)),
        ("[::1]", ("::1", 80)),
    ])
    def test_connection_target(self, target, expected, monkeypatch):
        dialled = []

        def refused(address, *args):
            dialled.append(address)
            raise ConnectionRefusedError

        monkeypatch.setattr(crawler.socket, "create_connection", refused)
        config = quick_config(resolve_overrides={"main.com": target})
        assert fetch("http://main.com/", config).status == STATUS_NETWORK_ERROR
        assert dialled == [expected]

    @pytest.mark.parametrize("target", [
        "127.0.0.1:xyz", "127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1:", "127.0.0.1:+80",
        "127.0.0.1:８０", "::1", "::1:9", "[::1", "[::1]9", "[::1]:", "[main.com]:9", "[]:9",
        ":80", "a b:80", "a/b:80",
    ])
    def test_bad_target_is_rejected(self, target):
        with pytest.raises(ValueError):
            quick_config(resolve_overrides={"main.com": target})

    def test_ipv6_loopback(self, fixture_site_v6):
        fixture_site_v6.add("/", '<a href="/a.html">a</a>', host="main.com")
        fixture_site_v6.add("/a.html", "<p>a</p>", host="main.com")
        config = quick_config(resolve_overrides={"main.com": f"[::1]:{fixture_site_v6.port}"})
        records = crawl_site("http://main.com/", config)
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://main.com/", STATUS_OK), ("http://main.com/a.html", STATUS_OK),
        ]

    def test_https_sends_and_checks_the_origin_host(self, tls_site):
        tls_site.add("/", "secure page")
        config = quick_config(resolve_overrides=tls_site.resolve_overrides("main.com", "other.net"))
        result = fetch(f"https://main.com:{tls_site.port}/", config)
        assert (result.status, result.body) == (STATUS_OK, b"secure page")
        # The certificate is still checked: it does not name other.net.
        result = fetch(f"https://other.net:{tls_site.port}/", config)
        assert result.status == STATUS_NETWORK_ERROR

    def test_ipv6_literal_host_header_is_bracketed(self, fixture_site_v6):
        fixture_site_v6.add("/", "v6")
        result = fetch(f"http://[::1]:{fixture_site_v6.port}/", quick_config())
        assert result.status == STATUS_OK
        assert fixture_site_v6.host_headers == [f"[::1]:{fixture_site_v6.port}"]

    def test_ipv6_literal_crawl_reads_robots(self, fixture_site_v6):
        # Registered for any host: the server reads a Host header's name up
        # to its first ":".
        fixture_site_v6.add("/robots.txt", "User-agent: *\nDisallow: /private\n",
                            content_type="text/plain")
        fixture_site_v6.add("/", '<a href="/private.html">p</a><a href="/open.html">o</a>')
        fixture_site_v6.add("/private.html", "secret")
        fixture_site_v6.add("/open.html", "open")
        seed = f"http://[::1]:{fixture_site_v6.port}/"
        records = crawl_site(seed, quick_config(respect_robots=True))
        assert [(r.url, r.fetch_status) for r in records] == [
            (seed, STATUS_OK), (seed + "open.html", STATUS_OK),
        ]
        assert [path for _, path in fixture_site_v6.requests] == ["/robots.txt", "/", "/open.html"]
