"""Same-site crawl pipeline: home page, its links, and the iframes of both.

Fetching is static (no script execution), so dynamically injected links and
iframes are missed; results underestimate what a full browser would see.
The fetcher supports /etc/hosts-style resolve overrides so fixture sites
with arbitrary hostnames can be served from a local test server.
"""

from __future__ import annotations

import email.message
import hashlib
import http.client
import ipaddress
import itertools
import json
import re
import signal
import socket
import time
from dataclasses import dataclass, field
from html import unescape
from urllib import robotparser
from urllib.parse import quote, urldefrag, urljoin, urlsplit

from .origins import (
    NAIVE_SUFFIXES,
    Origin,
    SuffixTable,
    UnsupportedUrlError,
    _site,
    origin_of,
)
from .policy import ENFORCE, Policy, extract_policies

DEPTH_HOME = "home"
DEPTH_LINKED = "linked"
DEPTH_IFRAME_HOME = "iframe-of-home"
DEPTH_IFRAME_LINKED = "iframe-of-linked"

STATUS_OK = "ok"
STATUS_HTTP_ERROR = "http-error"
STATUS_NETWORK_ERROR = "network-error"
STATUS_TIMEOUT = "timeout"

DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/124.0.0.0 Safari/537.36"
)


@dataclass
class CrawlConfig:
    user_agent: str = DEFAULT_USER_AGENT
    max_pages_per_site: int = 200
    max_links_per_page: int = 100
    max_iframes_per_page: int = 50
    timeout: float = 30.0
    politeness_delay: float = 0.5
    parallel_sites: int = 4
    max_redirects: int = 5
    body_cap: int = 5 * 1024 * 1024
    respect_robots: bool = True
    naive_sites: bool = False
    # host -> "ADDR[:PORT]" (see _resolve_target); like curl --resolve, lets
    # tests serve main.com style fixture hosts from 127.0.0.1.
    resolve_overrides: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("max_pages_per_site", "max_links_per_page", "max_iframes_per_page",
                     "parallel_sites"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be > 0")
        if not self.politeness_delay >= 0:
            raise ValueError("politeness_delay must be >= 0")
        for target in self.resolve_overrides.values():
            _resolve_target(target)

    def config_hash(self) -> str:
        blob = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class FetchResult:
    url: str
    final_url: str
    status: str
    http_status: int | None
    headers: list[tuple[str, str]]
    body: bytes


@dataclass
class PageRecord:
    """One crawled page: where it lives, what it delivered, what it embeds."""

    url: str
    final_url: str
    depth: str
    fetch_status: str
    http_status: int | None = None
    origin: Origin | None = None
    site: str | None = None
    policies: list[Policy] = field(default_factory=list)
    links_same_site: list[str] = field(default_factory=list)
    iframes_same_site: list[str] = field(default_factory=list)
    srcdoc_iframes: int = 0

    def enforced_policies(self) -> list[Policy]:
        return [p for p in self.policies if p.disposition == ENFORCE]

    def has_any_csp(self) -> bool:
        return bool(self.policies)


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
        try:
            absolute, _ = urldefrag(urljoin(base, raw.strip()))
        except ValueError:
            continue
        if absolute in seen:
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


def _connection_target(origin: Origin, config: CrawlConfig) -> tuple[str, int]:
    override = config.resolve_overrides.get(origin.host)
    if not override:
        return origin.host, origin.port
    address, port = _resolve_target(override)
    return address, origin.port if port is None else port


_REDIRECT_STATUSES = {301, 302, 303, 307, 308}

# Every ASCII character, for quote(): http.client sends the request line as
# ASCII, so only the rest is percent-encoded (as UTF-8, like a browser).
_ASCII = "".join(map(chr, range(128)))


def fetch(url: str, config: CrawlConfig) -> FetchResult:
    """GET a URL, following up to config.max_redirects redirects.

    Failures are carried in the result status, never raised: crawl records
    must exist for dead pages too. The body is truncated at config.body_cap.
    """
    current, _ = urldefrag(url)
    redirects = 0
    while True:
        try:
            origin = origin_of(current)
        except UnsupportedUrlError:
            return FetchResult(url, current, STATUS_NETWORK_ERROR, None, [], b"")
        parts = urlsplit(current)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        conn_host, conn_port = _connection_target(origin, config)
        conn_cls = (
            http.client.HTTPSConnection if origin.scheme == "https" else http.client.HTTPConnection
        )
        conn = conn_cls(conn_host, conn_port, timeout=config.timeout)
        try:
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
            if response.status in _REDIRECT_STATUSES and location and redirects < config.max_redirects:
                redirects += 1
                current, _ = urldefrag(urljoin(current, location))
                continue
            body = response.read(config.body_cap)
            status = STATUS_OK if 200 <= response.status < 300 else STATUS_HTTP_ERROR
            return FetchResult(url, current, status, response.status, response.getheaders(), body)
        except socket.timeout:
            return FetchResult(url, current, STATUS_TIMEOUT, None, [], b"")
        except (OSError, http.client.HTTPException, UnicodeError):
            # UnicodeError: http.client sends the Host header as Latin-1, so
            # a host outside it (an IDN not yet in A-label form) cannot be
            # requested.
            return FetchResult(url, current, STATUS_NETWORK_ERROR, None, [], b"")
        finally:
            conn.close()


# The labels that the WHATWG Encoding Standard maps to windows-1252, as
# browsers decode them. Python's cp1252 leaves 0x81, 0x8D, 0x8F, 0x90 and
# 0x9D undefined, so those bytes become U+FFFD here, not the C1 controls a
# browser gives.
_WINDOWS_1252_LABELS = frozenset({
    "ansi_x3.4-1968", "ascii", "cp1252", "cp819", "csisolatin1", "ibm819", "iso-8859-1",
    "iso-ir-100", "iso8859-1", "iso88591", "iso_8859-1", "iso_8859-1:1987", "l1", "latin1",
    "us-ascii", "windows-1252", "x-cp1252",
})


def _body_text(result: FetchResult) -> str:
    """The body decoded with the charset its Content-Type declares; UTF-8
    when it declares none, or one that is unknown or cannot decode (say,
    charset=undefined)."""
    content_type = email.message.Message()
    for name, value in result.headers:
        if name.lower() == "content-type":
            content_type["Content-Type"] = value
            break
    charset = content_type.get_content_charset() or "utf-8"
    if charset in _WINDOWS_1252_LABELS:
        charset = "cp1252"
    try:
        return result.body.decode(charset, errors="replace")
    except (LookupError, UnicodeError):
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


def _load_robots(origin: Origin, config: CrawlConfig) -> robotparser.RobotFileParser | None:
    result = fetch(origin.ascii_serialization() + "/robots.txt", config)
    if result.status != STATUS_OK:
        return None
    parser = robotparser.RobotFileParser()
    parser.parse(result.body.decode("utf-8", errors="replace").splitlines())
    return parser


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
    seed, _ = urldefrag(seed)
    try:
        seed_origin = origin_of(seed)
    except UnsupportedUrlError:
        # Nothing to crawl, but the seed still gets its one failed record.
        return [
            PageRecord(url=seed, final_url=seed, depth=DEPTH_HOME, fetch_status=STATUS_NETWORK_ERROR)
        ]
    seed_site = _site(seed_origin.host, psl)

    robots = _load_robots(seed_origin, config) if config.respect_robots else None
    records: list[PageRecord] = []
    visited: set[str] = set()
    next_allowed = 0.0

    def allowed(url: str) -> bool:
        if robots is None:
            return True
        try:
            return robots.can_fetch(config.user_agent, url)
        except ValueError:
            # can_fetch re-parses the unquoted URL: urllib.parse rejects,
            # say, a %5B in the host ("Invalid IPv6 URL"), and quote() a
            # lone surrogate. Robots cannot rule on such a URL.
            return True

    def visit_batch(urls: list[str], depth: str) -> list[PageRecord]:
        nonlocal next_allowed
        out = []
        for url in urls:
            if len(visited) >= config.max_pages_per_site:
                break
            if url in visited or not allowed(url):
                continue
            wait = next_allowed - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            response = fetch(url, config)
            next_allowed = time.monotonic() + config.politeness_delay
            record = build_record(response, depth, psl)
            visited.add(record.url)
            records.append(record)
            out.append(record)
        return out

    home_records = visit_batch([seed], DEPTH_HOME)
    if not home_records:
        # Robots forbade the seed itself; report it as an unvisited failure.
        return [
            PageRecord(
                url=seed,
                final_url=seed,
                depth=DEPTH_HOME,
                fetch_status=STATUS_NETWORK_ERROR,
                origin=seed_origin,
                site=seed_site,
            )
        ]
    home = home_records[0]

    def on_site(record: PageRecord) -> bool:
        return record.fetch_status == STATUS_OK and record.site == seed_site

    linked: list[PageRecord] = []
    if on_site(home):
        linked = visit_batch(home.links_same_site[: config.max_links_per_page], DEPTH_LINKED)
        visit_batch(home.iframes_same_site[: config.max_iframes_per_page], DEPTH_IFRAME_HOME)
    for record in linked:
        if on_site(record):
            visit_batch(
                record.iframes_same_site[: config.max_iframes_per_page], DEPTH_IFRAME_LINKED
            )
    return records


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
    # Imported here, not at the top: every analysis command imports this
    # module, and multiprocessing adds about 1 MiB to a process's peak RSS.
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
