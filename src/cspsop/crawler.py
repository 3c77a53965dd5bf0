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
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib import robotparser
from urllib.parse import quote, urldefrag, urljoin, urlsplit

from .origins import (
    NAIVE_SUFFIXES,
    NoRegistrableDomainError,
    Origin,
    SuffixTable,
    UnsupportedUrlError,
    origin_of,
    site_of,
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
    # host -> "address:port"; like curl --resolve, lets tests serve
    # main.com style fixture hosts from 127.0.0.1.
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


class _DocumentScan(HTMLParser):
    """Single pass over possibly broken HTML: anchors, iframes, meta CSP."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []
        self.iframe_srcs: list[str] = []
        self.srcdoc_count = 0
        self.meta_csp: list[str] = []

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attr_map: dict[str, str] = {}
        for key, value in attrs:
            if value is not None and key not in attr_map:
                attr_map[key.lower()] = value
        if tag == "a" and attr_map.get("href"):
            self.hrefs.append(attr_map["href"])
        elif tag == "iframe":
            if "srcdoc" in attr_map:
                self.srcdoc_count += 1
            elif attr_map.get("src"):
                self.iframe_srcs.append(attr_map["src"])
        elif tag == "meta":
            if attr_map.get("http-equiv", "").lower() == "content-security-policy":
                self.meta_csp.append(attr_map.get("content", ""))


def scan_document(body: str) -> _DocumentScan:
    scan = _DocumentScan()
    scan.feed(body)
    scan.close()
    return scan


def _same_site_urls(
    candidates: list[str], base: str, site: str, psl: SuffixTable | None
) -> list[str]:
    """Absolute, deduplicated, fragment-free URLs that stay on the site."""
    out: list[str] = []
    seen: set[str] = set()
    for raw in candidates:
        try:
            absolute, _ = urldefrag(urljoin(base, raw.strip()))
        except ValueError:
            continue
        try:
            if _site_or_host(origin_of(absolute).host, psl) != site:
                continue
        except UnsupportedUrlError:
            continue
        if absolute not in seen:
            seen.add(absolute)
            out.append(absolute)
    return out


def _connection_target(origin: Origin, config: CrawlConfig) -> tuple[str, int]:
    override = config.resolve_overrides.get(origin.host)
    if not override:
        return origin.host, origin.port
    host, _, port = override.partition(":")
    return host, int(port) if port else origin.port


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


def _site_or_host(host: str, psl: SuffixTable | None) -> str:
    # Hosts that are themselves public suffixes (localhost, bare TLD lab
    # setups) degrade to host identity instead of failing the crawl.
    try:
        return site_of(host, psl)
    except NoRegistrableDomainError:
        return host


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
        site = _site_or_host(origin.host, psl)
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
    seed_site = _site_or_host(seed_origin.host, psl)

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


def crawl_sites(seeds: list[str], config: CrawlConfig | None = None) -> list[PageRecord]:
    """Crawl many seeds, sites in parallel, each site politely serialized."""
    config = config or CrawlConfig()
    with ThreadPoolExecutor(max_workers=config.parallel_sites) as pool:
        sites = pool.map(lambda seed: crawl_site(seed, config), seeds)
        return [record for site_records in sites for record in site_records]
