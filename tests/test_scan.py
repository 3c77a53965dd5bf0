"""The crawler's HTML scanner: pinned outputs, and agreement with HTMLParser.

scan_document has its own tokenizer. Its rules are those of html.parser in
CPython 3.10-3.13.0, where `oracles.oracle_scan` (the HTMLParser subclass
the crawler used before) gives the same answer on every document it does
not raise on.
"""

from __future__ import annotations

import _markupbase
import html.parser
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_scan

from cspsop import crawler
from cspsop.crawler import scan_document


def found(scan) -> tuple:
    return scan.hrefs, scan.iframe_srcs, scan.srcdoc_count, scan.meta_csp


def hrefs(body: str) -> list[str]:
    return scan_document(body).hrefs


ATTRIBUTES = [
    ('<a href="/q">', ["/q"]),
    ("<a href='/q'>", ["/q"]),
    ("<a href=/q>", ["/q"]),
    ("<A HREF=/Q>", ["/Q"]),
    ("<a href>", []),
    ("<a href href=/q>", ["/q"]),  # a valueless name does not count
    ("<a href=/1 href=/2>", ["/1"]),  # the first valued one wins
    ('<a href="" href=/2>', []),
    ("<a href = '/q' >", ["/q"]),
    ("<a title=é href=/é>", ["/é"]),
]

ENTITIES_AND_SELF_CLOSING = [
    ('<a href="/a?x=1&amp;y=2">', ["/a?x=1&y=2"]),
    ("<a href=&#1;>", []),  # a reference to an invalid code point is empty
    ("<a href=/x/>", ["/x/"]),  # a bare value takes the slash
    ('<a href="/x"/>', ["/x"]),
    ("<a/href=/x>", ["/x"]),
]

COMMENTS_DOCTYPE_AND_PIS = [
    ("<!-- <a href=/c> --><a href=/d>", ["/d"]),
    ("<!-- x -- ><a href=/d>", ["/d"]),
    ("<!-- <a href=/c>", []),  # unterminated: text up to the first ">"
    ("<!-- x > <a href=/d>", ["/d"]),
    ("<!-- x --!><a href=/d>", ["/d"]),
    ("<!x <a href=/c>", []),  # a bogus comment ends at the first ">"
    ("<!DOCTYPE html><a href=/d>", ["/d"]),
    ("<!doctype <a href=/c>", []),
    ("<?xml <a href=/c>?>", []),
    ("<?xml?><a href=/d>", ["/d"]),
]

MARKED_SECTIONS = [
    ("<![CDATA[<a href=/c>]]><a href=/d>", ["/d"]),
    ("<![CDATA[ ] ]> <a href=/d>", ["/d"]),
    ("<![if !IE]><a href=/d><![endif]>", ["/d"]),
    ("<![CDATA[<a href=/c>", []),
    # No name or an unknown keyword: a bogus comment up to the next ">".
    # HTMLParser raises AssertionError on both.
    ("<![ x <a href=/c> <a href=/d>", ["/d"]),
    ("<![foo[<a href=/c>]]><a href=/d>", ["/d"]),
    ("<![ x <a href=/c", []),
]

RAW_TEXT = [
    ("<script><a href=/c></script><a href=/d>", ["/d"]),
    ("<script><a href=/c></ script ><a href=/d>", ["/d"]),
    ("<SCRIPT><a href=/c></ScRiPt\n><a href=/d>", ["/d"]),
    ("<style><a href=/c></STYLE ><a href=/d>", ["/d"]),
    ("<style><a href=/c></script><a href=/c></style><a href=/d>", ["/d"]),
    ("<script><a href=/c>", []),  # unclosed: the rest is raw text
    ("<script/><a href=/d>", ["/d"]),  # self-closing: no raw text
    ("<script src=x><a href=/c></script><a href=/d>", ["/d"]),
    # U+017F matches "s" case-insensitively, but is no end tag.
    ("<script></ſcript><a href=/c></script><a href=/d>", ["/d"]),
]

BROKEN_MARKUP = [
    ("<a href=/c", []),
    ('<a href="/c><a href=/d>', ["/d"]),  # unterminated quote: text up to ">"
    ("<a b='c'<a href=/d>", ["/d"]),  # "<a" is an attribute name here
    ("a < b <a href=/d>", ["/d"]),
    ("<<a href=/d>", ["/d"]),
    ("</> <a href=/d>", ["/d"]),
    ("</ <a href=/c>", []),
    ("</a <a href=/c>", []),
    ("<a\x00href=/c>", []),  # NUL ends the name: "<a" is text
    ("<a href=/d\x00>", ["/d\x00"]),
    ("<", []),
    ("<a href=/d><", ["/d"]),
]


class TestPinned:
    @pytest.mark.parametrize("body,expected", ATTRIBUTES)
    def test_attributes(self, body, expected):
        assert hrefs(body) == expected

    @pytest.mark.parametrize("body,expected", ENTITIES_AND_SELF_CLOSING)
    def test_entities_and_self_closing(self, body, expected):
        assert hrefs(body) == expected

    @pytest.mark.parametrize("body,expected", COMMENTS_DOCTYPE_AND_PIS)
    def test_comments_doctype_and_pis(self, body, expected):
        assert hrefs(body) == expected

    @pytest.mark.parametrize("body,expected", MARKED_SECTIONS)
    def test_marked_sections(self, body, expected):
        assert hrefs(body) == expected

    @pytest.mark.parametrize("body,expected", RAW_TEXT)
    def test_raw_text(self, body, expected):
        assert hrefs(body) == expected

    @pytest.mark.parametrize("body,expected", BROKEN_MARKUP)
    def test_broken_markup(self, body, expected):
        assert hrefs(body) == expected

    def test_iframes_and_meta(self):
        body = (
            "<iframe src=/f></iframe><iframe srcdoc src=/g><iframe srcdoc='' src=/h>"
            "<IFRAME SRC=''><meta http-equiv=CONTENT-SECURITY-POLICY content=\"img-src &apos;self&apos;\">"
            "<meta http-equiv=content-security-policy><meta name=x content=y>"
        )
        assert found(scan_document(body)) == (
            [], ["/f", "/g"], 1, ["img-src 'self'", ""]
        )


# The pieces the differential test builds documents from.
FRAGMENTS = [
    "<", ">", "</", "</>", "/", "/>", "=", "'", '"', " ", "\n", "\t", "\x00", "&amp;", "&#1;", "&",
    "a", "A", "iframe", "IFRAME", "meta", "script", "SCRIPT", "style", "Style", "div",
    "href", "HREF", "src", "srcdoc", "http-equiv", "Content-Security-Policy", "content",
    "x", "é", "ſ", "K", "İ", "\xa0", "\x0b",
    "<!--", "-->", "-- >", "--!>", "--", "<!", "<!doctype", "<!DOCTYPE html>", "<?", "<?xml ?>",
    "<![CDATA[", "]]>", "]", "] ]>", "<![if", "<![if !IE]>", "<![endif]>", "<![", "[", "<![ x",
    "<![foo[", "<a ", "<a href=", "<iframe src=", "<meta http-equiv=", "</script>",
    "</ script >", "</SCRIPT\n>", "</style >", "</ſcript>", "<script>", "<style>",
    "<a href='/q'>", '<a href="/r">', "<a href=/s>", "<iframe srcdoc>", "<iframe srcdoc=''>",
    '<meta http-equiv=content-security-policy content="img-src *">', "<p/>", "<a/>",
    "<a href=x/>", "</a>", "</ a>", "<3", "< a",
]


def _stdlib_has_the_rules() -> bool:
    """Whether this interpreter's html.parser tokenizes by the rules that
    scan_document fixed (later CPython patch releases changed them)."""
    same_patterns = [
        (html.parser, "locatestarttagend_tolerant", crawler._STARTTAG_END),
        (html.parser, "tagfind_tolerant", crawler._TAG_NAME),
        (html.parser, "attrfind_tolerant", crawler._ATTRIBUTE),
        (html.parser, "endtagfind", crawler._END_TAG),
        (html.parser, "commentclose", crawler._COMMENT_CLOSE),
        (_markupbase, "_markedsectionclose", crawler._MARKED_SECTION_CLOSE),
        (_markupbase, "_msmarkedsectionclose", crawler._MS_MARKED_SECTION_CLOSE),
    ]
    return all(
        getattr(getattr(module, name, None), "pattern", None) == ours.pattern
        for module, name, ours in same_patterns
    ) and r"'</\s*%s\s*>'" in inspect.getsource(html.parser.HTMLParser.set_cdata_mode)


@pytest.mark.skipif(not _stdlib_has_the_rules(),
                    reason="this interpreter's html.parser has other tokenizer rules")
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=2), max_size=40).map("".join))
def test_scan_matches_htmlparser(body):
    try:
        expected = found(oracle_scan(body))
    except AssertionError:  # see TestPinned.test_marked_sections
        scan_document(body)
        return
    assert found(scan_document(body)) == expected


@pytest.mark.skipif(not _stdlib_has_the_rules(),
                    reason="this interpreter's html.parser has other tokenizer rules")
@pytest.mark.parametrize("body", [body for cases in (
    ATTRIBUTES, ENTITIES_AND_SELF_CLOSING, COMMENTS_DOCTYPE_AND_PIS, MARKED_SECTIONS[:4],
    RAW_TEXT, BROKEN_MARKUP,
) for body, _ in cases])
def test_pinned_bodies_match_htmlparser(body):
    assert found(scan_document(body)) == found(oracle_scan(body))
