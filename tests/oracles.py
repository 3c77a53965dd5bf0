"""Independent reimplementations used as test oracles.

Everything here is deliberately written as plain string/dict processing,
separate from the library's data model, so that agreement between the two
paths is meaningful. The normalization oracle applies the preprocessing
rules one by one on raw tokens; the comparison oracle is naive set algebra,
and the evidence oracle works on one dict per leftover key;
the corpus oracle recounts every table with an O(n^2) sweep over all pairs.
The link oracle is the crawler's own earlier link filter, which did the
same work with no shortcut.
"""

from __future__ import annotations

import re
from collections import Counter
from html.parser import HTMLParser
from urllib.parse import urldefrag, urljoin, urlsplit

from cspsop.origins import SuffixTable, UnsupportedUrlError, _site, origin_of

FALLBACK_ORDER = [
    "script-src",
    "style-src",
    "img-src",
    "font-src",
    "connect-src",
    "object-src",
    "media-src",
    "child-src",
]

_DEFAULT_PORT = {"http": "80", "https": "443"}
_SCHEME_ONLY = re.compile(r"^[a-z][a-z0-9+.\-]*:$")
_FULL_HOST = re.compile(r"^([a-z][a-z0-9+.\-]*)://([^/:]+)(?::(\d+|\*))?(/.*)?$")
# CSP2: nonce-value and hash-value are both base64-value,
# 1*( ALPHA / DIGIT / "+" / "/" )*2( "=" ). CSP3's base64url "-" and "_",
# which the program also accepts, are drawn by no generator here.
_NONCE_OR_HASH_PREFIXES = ("'nonce-", "'sha256-", "'sha384-", "'sha512-")
_NONCE_OR_HASH = re.compile(r"'(?:nonce|sha256|sha384|sha512)-[A-Za-z0-9+/]+={0,2}'", re.IGNORECASE)


def origin_string(scheme: str, host: str, port: int) -> str:
    if _DEFAULT_PORT.get(scheme) == str(port):
        return f"{scheme}://{host}"
    return f"{scheme}://{host}:{port}"


def split_directives(policy_text: str) -> dict[str, list[str]]:
    """Directive name -> token list; duplicate names keep the first."""
    out: dict[str, list[str]] = {}
    for part in policy_text.split(";"):
        tokens = part.split()
        if not tokens:
            continue
        name = tokens[0].lower()
        if name not in out:
            out[name] = tokens[1:]
    return out


def _strip_default_port(qualified: str) -> str:
    m = _FULL_HOST.match(qualified)
    if not m:
        return qualified
    scheme, host, port, path = m.groups()
    if port is not None and port != "*" and _DEFAULT_PORT.get(scheme) == port:
        port = None
    rebuilt = f"{scheme}://{host}"
    if port is not None:
        rebuilt += f":{port}"
    return rebuilt + (path or "")


def _extend_schemes(token: str, page_scheme: str) -> list[str]:
    if "://" in token:
        return [token]
    if page_scheme == "http":
        return [f"http://{token}", f"https://{token}"]
    return [f"{page_scheme}://{token}"]


def normalize_token_list(
    tokens: list[str], scheme: str, host: str, port: int
) -> set[str]:
    """Keyword substitution, nonce/hash removal, scheme/port extension."""
    lowered = [t.lower() for t in tokens]
    has_secret = any(_NONCE_OR_HASH.fullmatch(t) for t in tokens)
    out: set[str] = set()
    for token in lowered:
        if token == "'none'":
            continue
        # A nonce or hash source is dropped, and so is a malformed one.
        if token.startswith(_NONCE_OR_HASH_PREFIXES):
            continue
        if token == "'unsafe-inline'":
            if not has_secret:
                out.add(token)
            continue
        if token == "'unsafe-eval'":
            out.add(token)
            continue
        if token == "'self'":
            out.add(origin_string(scheme, host, port))
            continue
        if token == "*":
            out.add("*")
            continue
        if _SCHEME_ONLY.match(token):
            out.add(token)
            continue
        for qualified in _extend_schemes(token, scheme):
            out.add(_strip_default_port(qualified))
    return out


def oracle_normalize(
    policy_text: str, scheme: str, host: str, port: int
) -> dict[str, set[str]]:
    """Rule-by-rule normalization of a well-formed policy string."""
    directives = split_directives(policy_text)
    if "default-src" in directives:
        for name in FALLBACK_ORDER:
            if name not in directives:
                directives[name] = list(directives["default-src"])
    else:
        for name in FALLBACK_ORDER:
            if name not in directives:
                if name == "script-src":
                    directives[name] = ["*", "'unsafe-inline'", "'unsafe-eval'"]
                else:
                    directives[name] = ["*"]
    out: dict[str, set[str]] = {}
    for name, tokens in directives.items():
        if name in ("sandbox", "report-uri"):
            out[name] = {t.strip() for t in tokens}
        else:
            out[name] = normalize_token_list(tokens, scheme, host, port)
    return out


def oracle_compare(a: dict[str, set[str]], b: dict[str, set[str]]) -> set[str]:
    """Names of directives whose presence or source sets disagree."""
    differing = set()
    for name in set(a) | set(b):
        if (name in a) != (name in b) or a.get(name) != b.get(name):
            differing.add(name)
    return differing


def oracle_difference_evidence(a: tuple, b: tuple) -> frozenset[str]:
    """The evidence rule worked out one dict per leftover key: a directive
    differs when the leftovers hold more than one value for it, absence
    counting as a value."""
    left, right = Counter(a) - Counter(b), Counter(b) - Counter(a)
    leftovers = [dict(key) for key in (*left, *right)]
    names = {name for directives in leftovers for name in directives}
    if not left or not right:
        return frozenset(names)
    return frozenset(
        name for name in names
        if len({directives.get(name) for directives in leftovers}) > 1
    )


# Expected registrable domains against the bundled suffix snapshot, derived
# by hand from the published publicsuffix.org algorithm (longest rule wins,
# exceptions beat wildcards, unlisted TLDs act as "*"). None marks hosts
# that are themselves public suffixes.
PSL_CASES: list[tuple[str, str | None]] = [
    ("main.com", "main.com"),
    ("sub.main.com", "main.com"),
    ("deep.sub.main.com", "main.com"),
    ("example.com", "example.com"),
    ("WwW.Example.COM", "example.com"),
    ("deep.a.b.c.example.org", "example.org"),
    ("com", None),
    ("org", None),
    ("example.co.uk", "example.co.uk"),
    ("a.b.example.co.uk", "example.co.uk"),
    ("shop.example.co.uk", "example.co.uk"),
    ("co.uk", None),
    ("uk", None),
    ("gov.uk", None),
    ("service.gov.uk", "service.gov.uk"),
    ("test.ac", "test.ac"),
    ("www.test.ac", "test.ac"),
    ("foo.com.ac", "foo.com.ac"),
    ("com.ac", None),
    ("test.jp", "test.jp"),
    ("www.test.jp", "test.jp"),
    ("ac.jp", None),
    ("test.ac.jp", "test.ac.jp"),
    ("www.test.ac.jp", "test.ac.jp"),
    ("kyoto.jp", None),
    ("test.kyoto.jp", "test.kyoto.jp"),
    ("ide.kyoto.jp", None),
    ("b.ide.kyoto.jp", "b.ide.kyoto.jp"),
    ("a.b.ide.kyoto.jp", "b.ide.kyoto.jp"),
    ("kobe.jp", "kobe.jp"),
    ("c.kobe.jp", None),
    ("b.c.kobe.jp", "b.c.kobe.jp"),
    ("a.b.c.kobe.jp", "b.c.kobe.jp"),
    ("city.kobe.jp", "city.kobe.jp"),
    ("www.city.kobe.jp", "city.kobe.jp"),
    ("ck", None),
    ("test.ck", None),
    ("b.test.ck", "b.test.ck"),
    ("a.b.test.ck", "b.test.ck"),
    ("www.ck", "www.ck"),
    ("www.www.ck", "www.ck"),
    ("mm", None),
    ("x.mm", None),
    ("y.x.mm", "y.x.mm"),
    ("z.y.x.mm", "y.x.mm"),
    ("test.us", "test.us"),
    ("ak.us", None),
    ("test.ak.us", "test.ak.us"),
    ("www.test.ak.us", "test.ak.us"),
    ("k12.ak.us", None),
    ("test.k12.ak.us", "test.k12.ak.us"),
    ("www.test.k12.ak.us", "test.k12.ak.us"),
    ("myblog.github.io", "myblog.github.io"),
    ("foo.myblog.github.io", "myblog.github.io"),
    ("github.io", None),
    ("app-name.herokuapp.com", "app-name.herokuapp.com"),
    ("x.blogspot.co.uk", "x.blogspot.co.uk"),
    ("data.s3.amazonaws.com", "data.s3.amazonaws.com"),
    ("s3.amazonaws.com", None),
    ("example.test", "example.test"),
    ("localhost", None),
    ("a.localhost", "a.localhost"),
    ("sub.example.unknowntld", "example.unknowntld"),
    ("example.unknowntld", "example.unknowntld"),
    ("unknowntld", None),
]


# --- corpus-level O(n^2) recount -------------------------------------------
# Pages are plain dicts: {"url", "scheme", "host", "port", "site", "depth",
# "policies": [normalized dict-of-sets for each *enforced* policy],
# "any_csp": bool, "iframes": [urls]}.


def _unmatched(
    a: list[dict[str, set[str]]], b: list[dict[str, set[str]]]
) -> tuple[list[dict[str, set[str]]], list[dict[str, set[str]]]]:
    left = []
    right = list(b)
    for pa in a:
        for i, pb in enumerate(right):
            if not oracle_compare(pa, pb):
                del right[i]
                break
        else:
            left.append(pa)
    return left, right


def _multiset_equal(a: list[dict[str, set[str]]], b: list[dict[str, set[str]]]) -> bool:
    left, right = _unmatched(a, b)
    return not left and not right


def _relation(p: dict, q: dict) -> str:
    if (p["scheme"], p["host"], p["port"]) == (q["scheme"], q["host"], q["port"]):
        return "same-origin"
    if (
        p["scheme"] == q["scheme"]
        and p["port"] == q["port"]
        and p["site"] is not None
        and p["site"] == q["site"]
    ):
        return "relaxable"
    return "unrelated"


def _category(parent: dict, iframe: dict) -> str:
    has_p, has_i = bool(parent["policies"]), bool(iframe["policies"])
    if has_p and not has_i:
        return "only-parent-csp"
    if has_i and not has_p:
        return "only-iframe-csp"
    if not has_p and not has_i:
        return "no-csp-anywhere"
    if _multiset_equal(parent["policies"], iframe["policies"]):
        return "no-violation"
    return "different-csp"


def oracle_violation_cells(pages: list[dict]) -> dict[str, dict[str, int]]:
    by_url = {p["url"]: p for p in pages}
    cells: dict[str, dict[str, int]] = {}
    for parent in pages:
        for iframe_url in parent["iframes"]:
            iframe = by_url.get(iframe_url)
            if iframe is None:
                continue
            relation = _relation(parent, iframe)
            if relation == "unrelated":
                continue
            category = _category(parent, iframe)
            cells.setdefault(category, {}).setdefault(relation, 0)
            cells[category][relation] += 1
    return cells


def oracle_potential(pages: list[dict]) -> dict[str, set[str]]:
    """URLs flagged per (granularity, verdict) bucket, O(n^2) over pages."""
    flagged: dict[str, set[str]] = {
        "so_no": set(), "so_diff": set(), "rx_no": set(), "rx_diff": set(),
    }
    for page in pages:
        if not page["policies"]:
            continue
        so_no = so_diff = rx_no = rx_diff = False
        for peer in pages:
            if peer is page:
                continue
            relation = _relation(page, peer)
            if relation == "same-origin":
                if not peer["policies"]:
                    so_no = True
                elif not _multiset_equal(page["policies"], peer["policies"]):
                    so_diff = True
            elif relation == "relaxable":
                if not peer["policies"]:
                    rx_no = True
                elif not _multiset_equal(page["policies"], peer["policies"]):
                    rx_diff = True
        if so_no:
            flagged["so_no"].add(page["url"])
        elif so_diff:
            flagged["so_diff"].add(page["url"])
        if rx_no:
            flagged["rx_no"].add(page["url"])
        elif rx_diff:
            flagged["rx_diff"].add(page["url"])
    return flagged


def _url_origin(url: str) -> tuple | None:
    """(scheme, host, port) of an absolute http(s) URL; None for any other
    URL. The port defaults by scheme."""
    try:
        parts = urlsplit(url)
        port = parts.port
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if scheme not in _DEFAULT_PORT or not parts.hostname:
        return None
    return (scheme, parts.hostname, int(_DEFAULT_PORT[scheme]) if port is None else port)


def oracle_adoption(pages: list[dict]) -> dict[str, int]:
    """Adoption counts over the fetched pages. An iframe is same-origin
    when its URL has the page's origin, whether or not it was fetched; its
    CSP is seen only through its own page in `pages`, so a failed or
    missing iframe brings none."""
    by_url = {p["url"]: p for p in pages}
    sites = {p["site"] for p in pages if p["site"]}
    with_ss_iframes = [p for p in pages if p["iframes"]]
    so_pages = []
    for page in pages:
        own = (page["scheme"], page["host"], page["port"])
        so = [u for u in page["iframes"] if _url_origin(u) == own]
        if so:
            so_pages.append((page, so))
    so_with_csp = sum(
        1
        for page, so in so_pages
        if page["any_csp"] or any(u in by_url and by_url[u]["any_csp"] for u in so)
    )
    return {
        "sites": len(sites),
        "pages": len(pages),
        "pages_ss_iframes": len(with_ss_iframes),
        "pages_so_iframes": len(so_pages),
        "pages_so_iframe_csp": so_with_csp,
        "pages_csp": sum(1 for p in pages if p["any_csp"]),
        "sites_home_csp": len({p["site"] for p in pages if p["depth"] == "home" and p["any_csp"] and p["site"]}),
        "sites_some_csp": len({p["site"] for p in pages if p["any_csp"] and p["site"]}),
    }


def oracle_directive_diff(pages: list[dict]) -> dict[str, int] | None:
    """Mismatch counts per directive over differing parent-iframe couples,
    plus the couple count under key "__pairs__"."""
    by_url = {p["url"]: p for p in pages}
    counts: dict[str, int] = {}
    pairs = 0
    for parent in pages:
        for iframe_url in parent["iframes"]:
            iframe = by_url.get(iframe_url)
            if iframe is None or _relation(parent, iframe) == "unrelated":
                continue
            if _category(parent, iframe) != "different-csp":
                continue
            pairs += 1
            evidence: set[str] = set()
            # all-pairs union of differing directives between unmatched policies
            left, right = _unmatched(parent["policies"], iframe["policies"])
            for pa in left:
                for pb in right:
                    evidence |= oracle_compare(pa, pb)
            if not evidence:
                for policy in left + right:
                    evidence |= set(policy)
            for name in evidence:
                counts[name] = counts.get(name, 0) + 1
    counts["__pairs__"] = pairs
    return counts


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


def oracle_scan(body: str) -> _DocumentScan:
    """What the standard library's HTMLParser finds in body: the crawler's
    scanner before it got its own tokenizer. HTMLParser raises
    AssertionError on a marked section with no name or an unknown keyword
    (`<![ x`, `<![foo[`)."""
    scan = _DocumentScan()
    scan.feed(body)
    scan.close()
    return scan


def oracle_same_site_urls(
    candidates: list[str], base: str, site: str, psl: SuffixTable | None
) -> list[str]:
    """The crawler's link filter before it tested each URL and each host
    once per page: every candidate is resolved, parsed and sited anew."""
    out: list[str] = []
    seen: set[str] = set()
    for raw in candidates:
        try:
            absolute, _ = urldefrag(urljoin(base, raw.strip()))
        except ValueError:
            continue
        try:
            if _site(origin_of(absolute).host, psl) != site:
                continue
        except UnsupportedUrlError:
            continue
        if absolute not in seen:
            seen.add(absolute)
            out.append(absolute)
    return out
