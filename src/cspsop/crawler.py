"""Same-site crawl pipeline: home page, its links, and the iframes of both.

Fetching is static (no script execution), so dynamically injected links and
iframes are missed; results underestimate what a full browser would see.
The fetcher supports /etc/hosts-style resolve overrides so fixture sites
with arbitrary hostnames can be served from a local test server.
"""

from __future__ import annotations

# Only code that fetches loads the network stack. http.client (and with it
# ssl), urllib.robotparser (and with it urllib.request) and email.message
# are imported in the functions that use them, and multiprocessing in
# crawl_sites. No analysis module imports this one, but every analysis
# command does, through cli and the package __init__: on Python 3.11, a
# fresh `cspsop analyze --table violations` peaked at 24.5 MiB RSS with
# them imported here, 18.0 MiB without. The crawl's command process does
# not load the network stack either; each pool worker does, on its first
# fetch.
import codecs
import ipaddress
import itertools
import re
import signal
import socket
import time
from contextlib import closing
from dataclasses import dataclass, field
from html import unescape
from typing import TYPE_CHECKING
from urllib.parse import quote, urldefrag, urljoin, urlsplit

from .corpus import (
    DEPTH_HOME,
    DEPTH_IFRAME_HOME,
    DEPTH_IFRAME_LINKED,
    DEPTH_LINKED,
    STATUS_HTTP_ERROR,
    STATUS_NETWORK_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    PageRecord,
)
from .origins import (
    NAIVE_SUFFIXES,
    Origin,
    SuffixTable,
    UnsupportedUrlError,
    _site,
    origin_of,
)
from .policy import extract_policies

if TYPE_CHECKING:
    from urllib.robotparser import RobotFileParser

DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/124.0.0.0 Safari/537.36"
)

# The fixed limits of one fetch: redirects followed, and body bytes read (a
# longer body is cut there).
MAX_REDIRECTS = 5
BODY_CAP = 5 * 1024 * 1024
# The fixed limits of one page: the first same-site links and iframes that
# the crawl queues from it.
MAX_LINKS_PER_PAGE = 100
MAX_IFRAMES_PER_PAGE = 50
# The longest timeout and politeness delay, in seconds: one day. The socket
# layer and time.sleep raise OverflowError far above it, and on infinity.
MAX_WAIT = 24 * 60 * 60
# What a user agent may hold: printable Latin-1. http.client encodes a
# header value as Latin-1 and refuses a line break in it.
_USER_AGENT = re.compile(r"[\x20-\x7e\xa0-\xff]*")


@dataclass
class CrawlConfig:
    user_agent: str = DEFAULT_USER_AGENT
    max_pages_per_site: int = 200
    timeout: float = 30.0
    politeness_delay: float = 0.5
    parallel_sites: int = 4
    respect_robots: bool = True
    naive_sites: bool = False
    # host -> "ADDR[:PORT]" (see _resolve_target); like curl --resolve, lets
    # tests serve main.com style fixture hosts from 127.0.0.1.
    resolve_overrides: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("max_pages_per_site", "parallel_sites"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.timeout <= MAX_WAIT:  # also rejects NaN
            raise ValueError(f"timeout must be > 0 and <= {MAX_WAIT}")
        if not 0 <= self.politeness_delay <= MAX_WAIT:
            raise ValueError(f"politeness_delay must be >= 0 and <= {MAX_WAIT}")
        if not _USER_AGENT.fullmatch(self.user_agent):
            raise ValueError(
                f"user_agent {self.user_agent!r} holds a control character or one outside Latin-1"
            )
        for target in self.resolve_overrides.values():
            _resolve_target(target)


@dataclass
class FetchResult:
    url: str
    final_url: str
    status: str
    http_status: int | None
    headers: list[tuple[str, str]]
    body: bytes


# The start-tag-end, tag-name, attribute and end-tag patterns of
# html/parser.py in CPython 3.10-3.13.0, verbatim, and the comment,
# declaration-name and marked-section patterns of its _markupbase.py:
# scan_document finds tags exactly where HTMLParser.feed() + close() calls
# handle_starttag.
_STARTTAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_TAG_NAME = re.compile(r'([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*')
_ATTRIBUTE = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_END_TAG = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')
_COMMENT_CLOSE = re.compile(r'--\s*>')
_DECLARATION_NAME = re.compile(r'[a-zA-Z][-_.a-zA-Z0-9]*\s*')
_MARKED_SECTION_CLOSE = re.compile(r']\s*]\s*>')
_MS_MARKED_SECTION_CLOSE = re.compile(r']\s*>')

_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# A start tag whose pattern match stops before one of these, or at the end
# of the body, is incomplete.
_TAG_CUT_SHORT = _ASCII_LETTERS | {"=", "/"}
# The first letters of the tags whose attributes are read.
_READ_TAG_INITIALS = frozenset("aimsAIMS")
# script and style hold raw text up to their end tag. re.I also lets
# U+017F and U+212A match s and k there; such a match is not an end tag
# (_END_TAG must match it too), and the raw text goes on.
_RAW_TEXT_END = {
    name: re.compile(r"</\s*%s\s*>" % name, re.I) for name in ("script", "style")
}


@dataclass
class DocumentScan:
    """What a page embeds: anchor hrefs, iframe srcs, srcdoc iframes, meta CSPs."""

    hrefs: list[str] = field(default_factory=list)
    iframe_srcs: list[str] = field(default_factory=list)
    srcdoc_count: int = 0
    meta_csp: list[str] = field(default_factory=list)


def scan_document(body: str) -> DocumentScan:
    """One pass over possibly broken HTML, by the tokenizer rules of
    html.parser in CPython 3.10-3.13.0 (see README, "What the crawler
    reads"), with one difference: a marked section with no name or an
    unknown keyword (say, `<![ x` or `<![foo[`) is a bogus comment up to
    the next `>`, where HTMLParser raises AssertionError."""
    scan = DocumentScan()
    find = body.find
    starttag_end = _STARTTAG_END.match
    last = len(body) - 1  # a "<" there is text
    i = find("<")
    while 0 <= i < last:
        c = body[i + 1]
        if c in _ASCII_LETTERS:
            j = starttag_end(body, i).end()
            c = body[j:j + 1]
            if c == ">":
                end = j + 1
            elif c == "/":
                end = j + 2 if body.startswith("/>", j) else -1
            elif not c or c in _TAG_CUT_SHORT:
                end = -1  # cut short
            else:
                end = j  # bogus input: the tag is text up to here
            if end >= 0 and body[i + 1] in _READ_TAG_INITIALS:
                end = _read_tag(body, i, end, scan)
        elif c == "/" or c == "?":
            # An end tag, a bogus comment or a processing instruction ends
            # at the next ">".
            end = find(">", i + 2)
            end = end + 1 if end >= 0 else -1
        elif c == "!":
            end = _declaration_end(body, i)
        else:  # a stray "<"
            end = i + 1
        if end < 0:
            # An incomplete construct is text up to and with the next ">",
            # or else up to the next "<".
            end = find(">", i + 1)
            if end >= 0:
                end += 1
            else:
                end = find("<", i + 1)
                if end < 0:
                    break
        i = find("<", end)
    return scan


def _declaration_end(body: str, i: int) -> int:
    """End of the "<!" construct at i, or -1 if it is incomplete."""
    if body.startswith("<!--", i):
        close = _COMMENT_CLOSE.search(body, i + 4)
        return close.end() if close else -1
    if body.startswith("<![", i):
        if i + 3 == len(body):
            return -1
        name = _DECLARATION_NAME.match(body, i + 3)
        if name:
            if name.end() == len(body):
                return -1
            keyword = name.group().strip().lower()
            if keyword in ("temp", "cdata", "ignore", "include", "rcdata"):
                close = _MARKED_SECTION_CLOSE.search(body, i + 3)
                return close.end() if close else -1
            if keyword in ("if", "else", "endif"):
                close = _MS_MARKED_SECTION_CLOSE.search(body, i + 3)
                return close.end() if close else -1
        # No name or an unknown keyword: a bogus comment, like the rest.
    elif body[i:i + 9].lower() == "<!doctype":
        end = body.find(">", i + 9)
        return end + 1 if end >= 0 else -1
    end = body.find(">", i + 2)
    return end + 1 if end >= 0 else -1


def _read_tag(body: str, i: int, end: int, scan: DocumentScan) -> int:
    """Records what the start tag from i to end embeds, if it is an a,
    iframe or meta tag. Returns end, or the end of the raw text after an
    opened script or style."""
    name_match = _TAG_NAME.match(body, i + 1)
    tag = name_match.group(1).lower()
    if tag not in ("a", "iframe", "meta", "script", "style"):
        return end
    # Attribute values stay escaped until read; the first valued
    # occurrence of a name wins.
    attrs: dict[str, str] = {}
    k = name_match.end()
    while k < end:
        m = _ATTRIBUTE.match(body, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if rest:
            if value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
                value = value[1:-1]
            attrs.setdefault(name.lower(), value)
        k = m.end()
    closing = body[k:end].strip()
    if closing != ">" and closing != "/>":
        return end  # not a tag after all, but text
    if tag == "a":
        href = unescape(attrs.get("href", ""))
        if href:
            scan.hrefs.append(href)
    elif tag == "iframe":
        if "srcdoc" in attrs:
            scan.srcdoc_count += 1
        else:
            src = unescape(attrs.get("src", ""))
            if src:
                scan.iframe_srcs.append(src)
    elif tag == "meta":
        if unescape(attrs.get("http-equiv", "")).lower() == "content-security-policy":
            scan.meta_csp.append(unescape(attrs.get("content", "")))
    elif closing == ">":
        return _raw_text_end(body, end, tag)
    return end


def _raw_text_end(body: str, start: int, tag: str) -> int:
    pattern = _RAW_TEXT_END[tag]
    while True:
        m = pattern.search(body, start)
        if m is None:
            return len(body)  # the rest of the document is raw text
        if _END_TAG.match(body, m.start()):
            return m.end()
        start = m.end()


# The "scheme://authority" start of a URL: urlsplit reads a URL's host and
# port from it alone, so every URL with the same start is on the same site.
_AUTHORITY_PREFIX = re.compile(r"[^:/?#]*://[^/?#]*")


def _absolute(base: str, ref: str) -> str | None:
    """ref resolved against base, without its fragment; None if urllib cannot parse it."""
    try:
        return urldefrag(urljoin(base, ref)).url
    except ValueError:
        return None


def _same_site_urls(
    candidates: list[str], base: str, site: str, psl: SuffixTable | None
) -> list[str]:
    """Absolute, deduplicated, fragment-free URLs that stay on the site.

    Each distinct URL, and each distinct scheme://authority start, is
    tested once per call.
    """
    out: list[str] = []
    seen: set[str] = set()
    on_site: dict[str, bool] = {}
    for raw in candidates:
        absolute = _absolute(base, raw.strip())
        if absolute is None or absolute in seen:
            continue
        seen.add(absolute)
        match = _AUTHORITY_PREFIX.match(absolute)
        prefix = match.group() if match else absolute
        keep = on_site.get(prefix)
        if keep is None:
            try:
                keep = _site(origin_of(prefix).host, psl) == site
            except UnsupportedUrlError:
                keep = False
            on_site[prefix] = keep
        if keep:
            out.append(absolute)
    return out


def _resolve_target(target: str) -> tuple[str, int | None]:
    """The (address, port) of a resolve override "ADDR[:PORT]"; port None
    keeps the URL's port.

    ADDR is a host name, an IPv4 address or a bracketed IPv6 address
    ("[::1]:8080"); PORT is 1-65535. Raises ValueError for anything else.
    """
    if target.startswith("["):
        address, bracket, rest = target[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise ValueError(f"resolve override {target!r} is not [IPV6][:PORT]")
        try:
            ipaddress.IPv6Address(address)
        except ValueError:
            raise ValueError(f"resolve override {target!r}: bad IPv6 address") from None
        port_text = rest[1:] if rest else None
    else:
        address, colon, port_text = target.partition(":")
        if not address or any(c in "[]/" or c.isspace() for c in address):
            raise ValueError(f"resolve override {target!r} is not ADDR[:PORT]")
        port_text = port_text if colon else None
    if port_text is None:
        return address, None
    if not (port_text.isascii() and port_text.isdigit() and 1 <= int(port_text) <= 65535):
        raise ValueError(f"resolve override {target!r}: port is not in 1-65535")
    return address, int(port_text)


_REDIRECT_STATUSES = {301, 302, 303, 307, 308}

# Every ASCII character, for quote(): http.client sends the request line as
# ASCII, so only the rest is percent-encoded (as UTF-8, like a browser).
_ASCII = "".join(map(chr, range(128)))


def fetch(url: str, config: CrawlConfig) -> FetchResult:
    """GET a URL, following up to MAX_REDIRECTS redirects.

    Failures are carried in the result status, never raised: crawl records
    must exist for dead pages too. The body is truncated at BODY_CAP bytes.
    """
    import http.client

    current = url
    redirects = 0
    try:
        current, _ = urldefrag(url)
        while True:
            origin = origin_of(current)
            parts = urlsplit(current)
            path = parts.path or "/"
            if parts.query:
                path += "?" + parts.query
            conn_cls = (http.client.HTTPSConnection if origin.scheme == "https"
                        else http.client.HTTPConnection)
            # Built for the origin, so that HTTPS sends and checks its host
            # name. An override changes only the address dialled, through the
            # _create_connection hook that http.client's connect() calls.
            with closing(conn_cls(origin.host, origin.port, timeout=config.timeout)) as conn:
                override = config.resolve_overrides.get(origin.host)
                if override:
                    address, port = _resolve_target(override)
                    target = (address, origin.port if port is None else port)
                    conn._create_connection = lambda _, *a: socket.create_connection(target, *a)
                conn.request(
                    "GET",
                    quote(path, safe=_ASCII),
                    headers={
                        "Host": origin.ascii_serialization().split("://", 1)[1],
                        "User-Agent": config.user_agent,
                        "Accept": "*/*",
                        "Connection": "close",
                    },
                )
                response = conn.getresponse()
                location = response.getheader("Location")
                if response.status in _REDIRECT_STATUSES and location and redirects < MAX_REDIRECTS:
                    redirects += 1
                    current, _ = urldefrag(urljoin(current, location))
                    continue
                body = response.read(BODY_CAP)
            status = STATUS_OK if 200 <= response.status < 300 else STATUS_HTTP_ERROR
            return FetchResult(url, current, status, response.status, response.getheaders(), body)
    except socket.timeout:
        return FetchResult(url, current, STATUS_TIMEOUT, None, [], b"")
    except (OSError, http.client.HTTPException, ValueError):
        # ValueError: a URL or Location that urllib cannot parse (say,
        # "http://[::1") or that has no http(s) origin, or a host that the
        # Latin-1 Host header cannot hold (an IDN not in A-label form).
        return FetchResult(url, current, STATUS_NETWORK_ERROR, None, [], b"")


# The labels that the WHATWG Encoding Standard maps to windows-1252, as
# browsers decode them. Python's cp1252 leaves 0x81, 0x8D, 0x8F, 0x90 and
# 0x9D undefined, so those bytes become U+FFFD here, not the C1 controls a
# browser gives.
_WINDOWS_1252_LABELS = frozenset({
    "ansi_x3.4-1968", "ascii", "cp1252", "cp819", "csisolatin1", "ibm819", "iso-8859-1",
    "iso-ir-100", "iso8859-1", "iso88591", "iso_8859-1", "iso_8859-1:1987", "l1", "latin1",
    "us-ascii", "windows-1252", "x-cp1252",
})

# The Python codecs that the Encoding Standard's labels name, as
# codecs.lookup(label).name, less those of its "replacement" encoding
# (iso-2022-kr, hz-gb-2312), which a browser never decodes with. A charset
# whose codec is not here (utf-32, punycode, unicode_escape) is one no
# browser knows, and a body read with it could lose its policies or carry
# lone surrogates.
_WHATWG_CODECS = frozenset({
    "ascii", "big5", "big5hkscs", "cp1250", "cp1251", "cp1252", "cp1253", "cp1254", "cp1255",
    "cp1256", "cp1257", "cp1258", "cp866", "cp932", "euc_jp", "euc_kr", "gb18030", "gb2312",
    "gbk", "iso2022_jp", "iso8859-1", "iso8859-2", "iso8859-3", "iso8859-4", "iso8859-5",
    "iso8859-6", "iso8859-7", "iso8859-8", "iso8859-9", "iso8859-10", "iso8859-11",
    "iso8859-13", "iso8859-14", "iso8859-15", "iso8859-16", "koi8-r", "koi8-u", "mac-roman",
    "shift_jis", "tis-620", "utf-16", "utf-16-be", "utf-16-le", "utf-8",
})


def _body_text(result: FetchResult) -> str:
    """The body decoded with the charset its Content-Type declares; UTF-8
    when it declares none, one that is unknown or cannot decode (say,
    charset=undefined, or a NUL byte in the name), or one whose codec is
    not an Encoding Standard encoding's."""
    import email.message

    content_type = email.message.Message()
    for name, value in result.headers:
        if name.lower() == "content-type":
            content_type["Content-Type"] = value
            break
    try:  # get_content_charset itself raises on charset*=\x00''x (RFC 2231)
        charset = content_type.get_content_charset() or "utf-8"
        if charset in _WINDOWS_1252_LABELS:
            charset = "cp1252"
        if codecs.lookup(charset).name in _WHATWG_CODECS:
            return result.body.decode(charset, errors="replace")
    except (LookupError, ValueError):
        pass
    return result.body.decode("utf-8", errors="replace")


def build_record(result: FetchResult, depth: str, psl: SuffixTable | None = None) -> PageRecord:
    """Turn one fetch into a PageRecord, extracting policies and references."""
    try:
        origin = origin_of(result.final_url)
        site = _site(origin.host, psl)
    except UnsupportedUrlError:
        origin, site = None, None
    record = PageRecord(
        url=result.url,
        final_url=result.final_url,
        depth=depth,
        fetch_status=result.status,
        http_status=result.http_status,
        origin=origin,
        site=site,
    )
    if result.status != STATUS_OK or origin is None or site is None:
        return record
    scan = scan_document(_body_text(result))
    record.policies = extract_policies(result.headers, scan.meta_csp)
    record.links_same_site = _same_site_urls(scan.hrefs, result.final_url, site, psl)
    record.iframes_same_site = _same_site_urls(scan.iframe_srcs, result.final_url, site, psl)
    record.srcdoc_iframes = scan.srcdoc_count
    return record


def _load_robots(origin: Origin, config: CrawlConfig) -> RobotFileParser | None:
    """The origin's robots.txt rules, without the lines RobotFileParser
    raises on (say, "Disallow: http://[::1" or "Crawl-delay: ²"): RFC 9309
    has a crawler use the rules that parse. A group left with no rules is
    then read as robotparser reads one: dropped, or merged with the next."""
    from urllib.robotparser import RobotFileParser

    result = fetch(origin.ascii_serialization() + "/robots.txt", config)
    if result.status != STATUS_OK:
        return None
    lines = result.body.decode("utf-8", errors="replace").splitlines()
    parser = RobotFileParser()
    parser.parse([line for line in lines if _robots_line_parses(line)])
    return parser


def _robots_line_parses(line: str) -> bool:
    """Whether RobotFileParser reads the line, as a line of a group,
    without raising."""
    from urllib.robotparser import RobotFileParser

    try:
        RobotFileParser().parse(["User-agent: *", line])
    except ValueError:
        return False
    return True


def _allowed(robots: RobotFileParser | None, user_agent: str, url: str) -> bool:
    try:
        return robots is None or robots.can_fetch(user_agent, url)
    except ValueError:
        # can_fetch re-parses the unquoted URL: urllib.parse rejects,
        # say, a %5B in the host ("Invalid IPv6 URL"), and quote() a
        # lone surrogate. Robots cannot rule on such a URL.
        return True


def crawl_site(seed: str, config: CrawlConfig | None = None) -> list[PageRecord]:
    """Crawl one site: seed page, its same-site links, iframes of both.

    Every visited URL yields exactly one record (failures included) and no
    URL is fetched twice. Pages that redirect off-site become leaf records:
    their outgoing references are never followed. Requests are made one at
    a time, each started at least config.politeness_delay after the
    previous one returned. A seed without an http(s) origin gives one
    network-error record with no origin or site.
    """
    config = config or CrawlConfig()
    psl = NAIVE_SUFFIXES if config.naive_sites else None
    absolute = _absolute("", seed)
    if absolute is not None:
        seed = absolute
    # The one record of a seed that is not fetched: it has no http(s)
    # origin (or does not parse at all), or robots forbid it.
    unfetched = build_record(
        FetchResult(seed, seed, STATUS_NETWORK_ERROR, None, [], b""), DEPTH_HOME, psl
    )
    if unfetched.origin is None:
        return [unfetched]
    robots = _load_robots(unfetched.origin, config) if config.respect_robots else None
    records: list[PageRecord] = []
    visited: set[str] = set()
    next_allowed = 0.0
    # The loop also visits what it appends: the seed, its links, its
    # iframes, then each linked page's iframes in link order.
    queue = [(seed, DEPTH_HOME)]
    for url, depth in queue:
        if len(visited) >= config.max_pages_per_site:
            break
        if url in visited or not _allowed(robots, config.user_agent, url):
            continue
        wait = next_allowed - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        response = fetch(url, config)
        next_allowed = time.monotonic() + config.politeness_delay
        record = build_record(response, depth, psl)
        visited.add(record.url)
        records.append(record)
        if record.fetch_status != STATUS_OK or record.site != unfetched.site:
            continue  # a leaf
        iframes = record.iframes_same_site[:MAX_IFRAMES_PER_PAGE]
        if depth == DEPTH_HOME:
            links = record.links_same_site[:MAX_LINKS_PER_PAGE]
            queue += [(link, DEPTH_LINKED) for link in links]
            queue += [(iframe, DEPTH_IFRAME_HOME) for iframe in iframes]
        elif depth == DEPTH_LINKED:
            queue += [(iframe, DEPTH_IFRAME_LINKED) for iframe in iframes]
    return records or [unfetched]  # no record: robots forbid the seed


def _crawl_site_in_worker(seed: str, config: CrawlConfig) -> list[PageRecord]:
    # A module-level name, so that the pool can pickle it even when
    # crawl_site itself has been replaced by a wrapper.
    return crawl_site(seed, config)


def crawl_sites(seeds: list[str], config: CrawlConfig | None = None) -> list[PageRecord]:
    """Crawl many seeds, sites in parallel, each site politely serialized.

    Sites are crawled in min(config.parallel_sites, len(seeds)) worker
    processes, forked from this one, so that they are not held to one core
    by the GIL; each worker holds the memory of one site's crawl. Records
    come back in seed order. An exception raised in a worker is raised
    here; a worker that dies, or gets SIGINT, raises BrokenProcessPool.
    Every worker has exited when this returns. The "fork" start method is
    Unix-only, and on Python 3.12 and later a caller that has other
    threads running gets CPython's DeprecationWarning about fork() in a
    multi-threaded process.
    """
    # Imported here, not at the top (see the note above this module's
    # imports): multiprocessing alone adds about 1 MiB to a peak RSS.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    config = config or CrawlConfig()
    if not seeds:
        return []
    # fork, not spawn or forkserver: a worker that starts a new interpreter
    # and imports the crawler again loses most of the gain. With fork, the
    # pool starts all its workers before its own manager thread.
    with ProcessPoolExecutor(
        max_workers=min(config.parallel_sites, len(seeds)),
        mp_context=multiprocessing.get_context("fork"),
        # Ctrl-C ends a worker at once, as it would a C program; caught as
        # KeyboardInterrupt, the worker would go on to the next seed.
        initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_DFL),
    ) as pool:
        sites = pool.map(_crawl_site_in_worker, seeds, itertools.repeat(config))
        return [record for site_records in sites for record in site_records]
