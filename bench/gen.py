"""Seeded inputs: the crawl world served over loopback and the two corpora.

Everything here follows from the seed alone: the same seed gives the same
world, the same corpora and the same expected records. Expected values are
built by construction (which URLs a page links to, which policies it
delivers) and never by calling the code under test.

Records are kept in one neutral shape, `Rec`, used both for the records a
crawl should produce and for the pages of the synthetic analyze corpora.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from html import escape

TLD = "test"
ROBOTS_DISALLOW = "/private/"
BODY_MEAN_BYTES = 20_000
BODY_CAP_BYTES = 300_000
REDIRECT_STATUS = 302

# Crawler limits the expected records assume: `cspsop crawl` defaults.
MAX_PAGES_PER_SITE = 200
MAX_LINKS_PER_PAGE = 100
MAX_IFRAMES_PER_PAGE = 50
MAX_REDIRECTS = 5

ENFORCE = "enforce"
REPORT_ONLY = "report-only"
HEADER = "http-header"
META = "meta-element"
CSP_HEADER = "Content-Security-Policy"
CSP_RO_HEADER = "Content-Security-Policy-Report-Only"

DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass
class Rec:
    """One corpus record as the benchmark expects it to read."""

    url: str
    final_url: str
    depth: str
    fetch_status: str
    http_status: int | None
    scheme: str
    host: str
    port: int
    site: str
    policies: list[tuple[str, str, str]] = field(default_factory=list)  # raw, disposition, delivery
    links: list[str] = field(default_factory=list)
    iframes: list[str] = field(default_factory=list)
    srcdoc: int = 0

    @property
    def ok(self) -> bool:
        return self.fetch_status == "ok"

    @property
    def origin(self) -> tuple[str, str, int]:
        return (self.scheme, self.host, self.port)


def _label(rng: random.Random, n: int = 7) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _quota(rng: random.Random, n: int, shares: list[tuple[object, float]]) -> list:
    """n values in the given shares, exactly, in an order drawn from rng.

    Fixing the counts keeps every seed's inputs alike in the properties
    that set their cost; the seed decides only which item gets which value.
    """
    values: list = []
    for value, share in shares[:-1]:
        values += [value] * round(n * share)
    values += [shares[-1][0]] * (n - len(values))
    rng.shuffle(values)
    return values


def _domains(rng: random.Random, count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        domain = f"{_label(rng)}.{TLD}"
        if domain not in out:
            out.append(domain)
    return out


def _origin_url(scheme: str, host: str, port: int) -> str:
    if DEFAULT_PORTS[scheme] == port:
        return f"{scheme}://{host}"
    return f"{scheme}://{host}:{port}"


# --- crawl world -----------------------------------------------------------


@dataclass
class WorldPage:
    """One resource the loopback server answers for (host, path)."""

    url: str
    host: str
    path: str
    status: int = 200
    location: str | None = None  # Location header as served
    location_abs: str | None = None
    headers: list[tuple[str, str]] = field(default_factory=list)  # CSP headers, in order
    meta: list[str] = field(default_factory=list)
    anchors: list[str] = field(default_factory=list)  # href values as served
    links: list[str] = field(default_factory=list)  # same-site absolute targets, deduplicated
    frame_srcs: list[str] = field(default_factory=list)  # iframe src values as served
    frames: list[str] = field(default_factory=list)  # same-site absolute iframe URLs
    srcdoc: int = 0
    size: int = 0


@dataclass
class World:
    seed: int
    pages: dict[str, WorldPage]
    seeds: list[str]
    site_of_host: dict[str, str]
    filler: list[str]

    @property
    def hosts(self) -> list[str]:
        return sorted(self.site_of_host)


def _site_policies(domain: str) -> list[str]:
    return [
        f"default-src 'self'; script-src 'self' cdn.{domain}",
        "default-src 'self'; img-src *; frame-ancestors 'self'",
        "default-src 'none'; script-src 'self'; style-src 'self'; img-src 'self'",
        f"script-src 'self' 'unsafe-inline' https://static.{domain}; object-src 'none'",
    ]


def _assign_policies(rng: random.Random, pages: list[WorldPage], pool: list[str]) -> None:
    """CSP by header on 48% of pages, by <meta> on 18% (8% both), none on
    42%; a report-only header on 10%."""
    kinds = _quota(rng, len(pages), [("header", 0.40), ("meta", 0.10), ("both", 0.08), ("", 0)])
    report_only = _quota(rng, len(pages), [(True, 0.10), (False, 0)])
    for page, kind, ro in zip(pages, kinds, report_only):
        if kind in ("header", "both"):
            page.headers.append((CSP_HEADER, rng.choice(pool)))
        if kind in ("meta", "both"):
            page.meta.append(rng.choice(pool))
        if ro:
            page.headers.append((CSP_RO_HEADER, "default-src 'self'; report-uri /csp-report"))


def _add_anchor(page: WorldPage, href: str, target: str | None) -> None:
    """Serve href; target is its absolute same-site URL, None when off-site."""
    page.anchors.append(href)
    if target is not None and target not in page.links:
        page.links.append(target)


def _add_frame(page: WorldPage, src: str, target: str | None) -> None:
    page.frame_srcs.append(src)
    if target is not None and target not in page.frames:
        page.frames.append(target)


def _href_for(rng: random.Random, page: WorldPage, target: str) -> str:
    """One of several spellings that all resolve to target from page."""
    host, path = target.split("/", 3)[2], "/" + target.split("/", 3)[3]
    if host != page.host:
        return target
    roll = rng.random()
    if roll < 0.4:
        return path
    if roll < 0.6:
        return target
    if roll < 0.8 and page.path.count("/") == 1 and path.count("/") == 1:
        return ("./" if rng.random() < 0.5 else "") + path[1:]
    return path + "#" + _label(rng, 4)


def _filler_pool(rng: random.Random) -> list[str]:
    """HTML chunks of about 1-3 KB: text-heavy paragraphs, inline scripts and
    styles, about eight tags per KB."""
    words = [_label(rng, rng.randint(2, 9)) for _ in range(400)]

    def text(lo: int, hi: int) -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    chunks = []
    for i in range(64):
        kind = i % 4
        if kind == 0:
            body = "".join(f"var {rng.choice(words)}{n} = \"{text(20, 60)}\";\n" for n in range(8))
            chunks.append(f"<script>{body}</script>\n")
        elif kind == 1:
            rules = "".join(f".{rng.choice(words)}-{n} {{ margin: {n}px; color: #{n:03x}; }}\n"
                            for n in range(30))
            chunks.append(f"<style>{rules}</style>\n")
        else:
            paras = "".join(
                f"<p>{text(60, 140)} <a name=\"n{n}\">{rng.choice(words)}</a> &amp; "
                f"<em>{rng.choice(words)}</em> {text(20, 60)}.</p>\n"
                for n in range(rng.randint(2, 4))
            )
            chunks.append(f'<div class="blk-{i}" id="b{i}">{paras}</div>\n')
    return chunks


def _off_site_hrefs(rng: random.Random, other_domains: list[str]) -> list[str]:
    other = rng.choice(other_domains)
    return [
        f"http://{other}/p{rng.randrange(50)}.html",
        f"https://cdn.example.org/{_label(rng, 5)}.html",
        f"mailto:info@{other}",
        "javascript:void(0)",
    ]


def _build_site(
    rng: random.Random, domain: str, other_domains: list[str], n_content: int, n_frames: int,
    pages: dict[str, WorldPage], site_of_host: dict[str, str],
) -> str:
    apex, www = domain, f"www.{domain}"
    site_of_host[apex] = domain
    site_of_host[www] = domain
    pool = _site_policies(domain)

    def new_page(host: str, path: str, **kwargs) -> WorldPage:
        page = WorldPage(url=f"http://{host}{path}", host=host, path=path, **kwargs)
        pages[page.url] = page
        return page

    home = new_page(apex, "/")
    content = [
        new_page(host, f"/p{i}.html")
        for i, host in enumerate(_quota(rng, n_content, [(www, 0.15), (apex, 0)]))
    ]
    frames = [
        new_page(host, f"/frame/f{j}.html")
        for j, host in enumerate(_quota(rng, n_frames, [(www, 0.2), (apex, 0)]))
    ]
    hidden = [new_page(apex, f"/hidden{i}.html") for i in range(3)]
    private = [new_page(apex, f"{ROBOTS_DISALLOW}x{i}.html") for i in range(4)]
    _assign_policies(rng, [home] + content + frames + hidden + private, pool)

    moved = []
    for i in range(5):
        target = hidden[i % len(hidden)] if i % 2 == 0 else rng.choice(content)
        location = target.path if target.host == apex and i < 3 else target.url
        moved.append(new_page(apex, f"/moved{i}.html", status=REDIRECT_STATUS,
                              location=location, location_abs=target.url))
    away_target = f"http://{rng.choice(other_domains)}/"
    away = new_page(apex, "/away.html", status=REDIRECT_STATUS,
                    location=away_target, location_abs=away_target)
    missing = [f"http://{apex}/missing{i}.html" for i in range(5)]

    # Home: about 100 same-site links (the crawler keeps the first 100),
    # robots-disallowed and missing targets, redirects, duplicates and
    # off-site anchors, plus a few iframes.
    targets = [p.url for p in content] + missing + [p.url for p in moved]
    targets += [away.url] + [p.url for p in private]
    rng.shuffle(targets)
    for target in targets:
        _add_anchor(home, _href_for(rng, home, target), target)
        if rng.random() < 0.05:
            _add_anchor(home, target + "#dup", target)
    for href in _off_site_hrefs(rng, other_domains) * 2:
        _add_anchor(home, href, None)
    _add_anchor(home, "#top", home.url)
    for frame in rng.sample(frames, k=min(2, len(frames))):
        _add_frame(home, _href_for(rng, home, frame.url), frame.url)
    _add_frame(home, f"https://widgets.example.org/{_label(rng, 5)}", None)
    home.srcdoc = 1

    # Content and frame pages: anchors that are scanned and resolved but
    # not followed (the crawl stops at depth one), and 0-3 iframes.
    link_pool = [p.url for p in content + frames]
    leaves = content + frames + hidden
    counts = _quota(rng, len(leaves), [(n, 1 / 11) for n in range(6, 17)])
    self_links = _quota(rng, len(leaves), [(True, 0.3), (False, 0)])
    for page, count, self_link in zip(leaves, counts, self_links):
        for same_site in _quota(rng, count, [(True, 0.75), (False, 0)]):
            if same_site:
                target = rng.choice(link_pool)
                _add_anchor(page, _href_for(rng, page, target), target)
            else:
                _add_anchor(page, rng.choice(_off_site_hrefs(rng, other_domains)), None)
        if self_link:
            _add_anchor(page, "#top", page.url)
    embedders = content + hidden
    frame_counts = _quota(rng, len(embedders), [(0, 0.35), (1, 0.30), (2, 0.20), (3, 0.15)])
    off_site = _quota(rng, len(embedders), [(True, 0.1), (False, 0)])
    srcdoc = _quota(rng, len(embedders), [(1, 0.1), (0, 0)])
    for page, count, off, inline in zip(embedders, frame_counts, off_site, srcdoc):
        for frame in rng.sample(frames, k=min(count, len(frames))):
            _add_frame(page, _href_for(rng, page, frame.url), frame.url)
        if off:
            _add_frame(page, f"http://{rng.choice(other_domains)}/embed.html", None)
        page.srcdoc += inline
    return home.url


def build_world(seed: int, scale: float = 1.0) -> World:
    """About 10 sites and 1,300 pages (scale 1), body sizes skewed, mean 20 KB."""
    rng = random.Random(f"world:{seed}")
    n_sites = max(2, round(10 * scale))
    n_content = max(6, round(86 * scale))
    n_frames = max(3, round(40 * scale))
    domains = _domains(rng, n_sites)
    pages: dict[str, WorldPage] = {}
    site_of_host: dict[str, str] = {}
    seeds = []
    for domain in domains:
        others = [d for d in domains if d != domain]
        seeds.append(_build_site(rng, domain, others, n_content, n_frames, pages, site_of_host))
    served = [p for p in pages.values() if p.status == 200]
    raw = [min(rng.lognormvariate(0.0, 0.9), 15.0) for _ in served]
    factor = BODY_MEAN_BYTES * len(served) / sum(raw)
    for page, weight in zip(served, raw):
        page.size = min(BODY_CAP_BYTES, int(weight * factor))
    return World(seed, pages, seeds, site_of_host, _filler_pool(rng))


def robots_txt() -> bytes:
    return f"User-agent: *\nDisallow: {ROBOTS_DISALLOW}\n".encode()


def render_body(world: World, page: WorldPage) -> bytes:
    """HTML for a page: planted meta, anchors and iframes among filler."""
    rng = random.Random(f"body:{world.seed}:{page.url}")
    head = ['<!doctype html>\n<html><head><meta charset="utf-8">',
            f"<title>{escape(page.path)}</title>"]
    for content in page.meta:
        head.append(f'<meta http-equiv="Content-Security-Policy" content="{escape(content)}">')
    head.append("</head><body>\n")
    planted = [f'<a href="{escape(href)}">{escape(href[-12:])}</a>\n' for href in page.anchors]
    planted += [f'<iframe src="{escape(src)}" width="300"></iframe>\n' for src in page.frame_srcs]
    planted += ['<iframe srcdoc="&lt;p&gt;inline&lt;/p&gt;"></iframe>\n'] * page.srcdoc
    budget = page.size - sum(map(len, head)) - sum(map(len, planted))
    filler = []
    while budget > 0:
        chunk = rng.choice(world.filler)
        filler.append(chunk)
        budget -= len(chunk)
    # Spread the planted elements through the filler, keeping their order.
    slots = sorted(rng.randrange(len(filler) + 1) for _ in planted)
    body = list(head)
    k = 0
    for i in range(len(filler) + 1):
        while k < len(planted) and slots[k] == i:
            body.append(planted[k])
            k += 1
        if i < len(filler):
            body.append(filler[i])
    body.append("</body></html>\n")
    return "".join(body).encode()


def _fetch_model(world: World, url: str) -> tuple[str, WorldPage | None]:
    """Final URL and page reached from url, following redirects."""
    current = url
    for _ in range(MAX_REDIRECTS + 1):
        page = world.pages.get(current)
        if page is None or page.status != REDIRECT_STATUS:
            return current, page
        current = page.location_abs
    return current, world.pages.get(current)


def _expected_record(world: World, url: str, depth: str) -> Rec:
    final, page = _fetch_model(world, url)
    scheme, _, rest = final.partition("://")
    host = rest.split("/", 1)[0]
    rec = Rec(url=url, final_url=final, depth=depth, fetch_status="http-error",
              http_status=404, scheme=scheme, host=host, port=DEFAULT_PORTS[scheme],
              site=world.site_of_host[host])
    if page is None:
        return rec
    rec.fetch_status, rec.http_status = "ok", page.status
    rec.policies = [
        (value, ENFORCE if name == CSP_HEADER else REPORT_ONLY, HEADER)
        for name, value in page.headers
    ] + [(content, ENFORCE, META) for content in page.meta]
    rec.links = list(page.links)
    rec.iframes = list(page.frames)
    rec.srcdoc = page.srcdoc
    return rec


def expected_crawl(world: World) -> list[Rec]:
    """Records `cspsop crawl` must write for this world, as its documented
    traversal defines them: the seed, its first 100 same-site links, then
    the iframes of the seed and of each linked page, each URL at most once,
    robots-disallowed URLs skipped, off-site redirect targets left as leaves.
    """
    out: list[Rec] = []
    for seed in world.seeds:
        site = world.site_of_host[seed.split("/")[2]]
        visited: set[str] = set()

        def visit(urls: list[str], depth: str) -> list[Rec]:
            batch: list[str] = []
            for url in urls:
                if len(visited) + len(batch) >= MAX_PAGES_PER_SITE:
                    break
                path = "/" + url.split("/", 3)[3]
                if url in visited or url in batch or path.startswith(ROBOTS_DISALLOW):
                    continue
                batch.append(url)
            recs = [_expected_record(world, url, depth) for url in batch]
            visited.update(batch)
            out.extend(recs)
            return recs

        (home,) = visit([seed], "home")
        linked = visit(home.links[:MAX_LINKS_PER_PAGE], "linked")
        visit(home.iframes[:MAX_IFRAMES_PER_PAGE], "iframe-of-home")
        for rec in linked:
            if rec.ok and rec.site == site:
                visit(rec.iframes[:MAX_IFRAMES_PER_PAGE], "iframe-of-linked")
    out.sort(key=lambda r: (r.site, r.url))
    return out


# --- analyze corpora -------------------------------------------------------

SHARED_POOL = [
    "default-src 'self'",
    "default-src 'self'; script-src 'self' cdn.shared.test",
    "default-src 'self'; object-src 'none'; report-uri /csp-report",
    "script-src 'self' 'unsafe-inline'; img-src *; frame-ancestors 'self'",
    "default-src 'none'; img-src 'self'; style-src 'self'",
    "default-src https: 'unsafe-inline'",
    "script-src 'self' https://static.shared.test; style-src 'self' 'unsafe-inline'",
    "default-src 'self' https://api.shared.test; img-src 'self' data:",
]
# Two spellings each of one policy: raw texts differ, normalized forms agree.
UNIFORM_FAMILIES = [
    ["default-src 'self'; script-src 'self' cdn.shared.test",
     "script-src cdn.shared.test 'self';  default-src 'self'"],
    ["default-src 'none'; img-src 'self'; style-src 'self'",
     "style-src 'self'; default-src 'none'; img-src 'self' 'self'"],
]
REPORT_ONLY_POOL = ["default-src 'self'", "script-src 'none'"]
LINKED_DEPTHS = ("linked", "linked", "iframe-of-home", "iframe-of-linked")


def _b64(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_letters + string.digits + "+/") for _ in range(length))


def _fail_pages(rng: random.Random, recs: list[Rec], share: float = 0.02) -> None:
    """Turn an exact share of the non-home pages into 404 records."""
    candidates = [r for r in recs if r.depth != "home"]
    for rec in rng.sample(candidates, k=round(share * len(candidates))):
        rec.fetch_status, rec.http_status, rec.policies = "http-error", 404, []


def _wire_iframes(rng: random.Random, recs: list[Rec], shares: list[tuple[int, float]]) -> None:
    """Give each fetched page iframes (counts in exact shares) and links to
    other pages of its site."""
    urls = [r.url for r in recs]
    for rec, count in zip(recs, _quota(rng, len(recs), shares)):
        if rec.ok:
            others = [u for u in rng.sample(urls, k=min(count + 1, len(urls))) if u != rec.url]
            rec.iframes = others[:count]
            rec.links = rng.sample(urls, k=min(3, len(urls)))


def build_shared_corpus(seed: int, scale: float = 1.0) -> list[Rec]:
    """About 3,200 pages in 4 sites; policies from a small pool.

    Each site has 8 origins (apex and www, http and https, ports default and
    8080) of 100 pages. In half of the (scheme, port) groups every page
    carries one spelling of the same policy, so peer scans run to the end;
    in the other half 30% of pages have no CSP and the rest draw 1-2
    policies from a pool.
    """
    rng = random.Random(f"shared:{seed}")
    n_sites = max(1, round(4 * scale))
    per_origin = max(5, round(100 * scale))
    recs: list[Rec] = []
    for domain in _domains(rng, n_sites):
        site_recs: list[Rec] = []
        groups = [(s, p) for s in ("http", "https") for p in (DEFAULT_PORTS[s], 8080)]
        for g, (scheme, port) in enumerate(groups):
            family = UNIFORM_FAMILIES[g] if g < len(UNIFORM_FAMILIES) else None
            for host in (domain, f"www.{domain}"):
                kinds = (["family"] * per_origin if family
                         else _quota(rng, per_origin, [("two", 0.07), ("one", 0.63), ("none", 0)]))
                deliveries = _quota(rng, per_origin, [(META, 0.2), (HEADER, 0)])
                report_only = _quota(rng, per_origin, [(True, 0.1), (False, 0)])
                for i, (kind, delivery, ro) in enumerate(zip(kinds, deliveries, report_only)):
                    policies: list[tuple[str, str, str]] = []
                    if kind == "family":
                        policies.append((rng.choice(family), ENFORCE, HEADER))
                    elif kind != "none":
                        policies.append((rng.choice(SHARED_POOL), ENFORCE, delivery))
                        if kind == "two":
                            policies.append((rng.choice(SHARED_POOL), ENFORCE, META))
                    if ro:
                        policies.append((rng.choice(REPORT_ONLY_POOL), REPORT_ONLY, HEADER))
                    first = not site_recs
                    url = _origin_url(scheme, host, port) + ("/" if first else f"/g{g}/p{i}.html")
                    site_recs.append(Rec(url, url, "home" if first else rng.choice(LINKED_DEPTHS),
                                         "ok", 200, scheme, host, port, domain, policies))
        _fail_pages(rng, site_recs)
        _wire_iframes(rng, site_recs, [(0, 0.35), (1, 0.30), (2, 0.20), (3, 0.15)])
        recs.extend(site_recs)
    recs.sort(key=lambda r: (r.site, r.url))
    return recs


def _random_hosts(rng: random.Random, count: int) -> list[str]:
    forms = []
    for _ in range(count):
        host = f"{_label(rng, 5)}.{_label(rng, 6)}.{TLD}"
        roll = rng.random()
        if roll < 0.3:
            forms.append(f"https://{host}")
        elif roll < 0.45:
            forms.append(f"*.{host}")
        elif roll < 0.55:
            forms.append(f"{host}:{rng.choice((8443, 9000))}")
        else:
            forms.append(host)
    return forms


# Share of header policies built from the site's template: raw texts still
# differ by the nonce, but they normalize to one form per origin.
DISTINCT_TEMPLATE_SHARE = 0.4


def build_distinct_corpus(seed: int, scale: float = 1.0) -> list[Rec]:
    """About 3,200 pages in 400 sites of 8; nearly every raw policy distinct.

    Each page carries 1-3 policies (header, optional <meta>, optional
    report-only header) with a per-page nonce and random host lists.
    """
    rng = random.Random(f"distinct:{seed}")
    n_sites = max(4, round(400 * scale))
    pages = 8 * n_sites
    templates = iter(_quota(rng, pages, [(True, DISTINCT_TEMPLATE_SHARE), (False, 0)]))
    metas = iter(_quota(rng, pages, [(True, 0.5), (False, 0)]))
    report_only = iter(_quota(rng, pages, [(True, 0.3), (False, 0)]))
    sites: list[list[Rec]] = []
    schemes = _quota(rng, n_sites, [("https", 0.8), ("http", 0)])
    for domain, scheme in zip(_domains(rng, n_sites), schemes):
        template_hosts = " ".join(_random_hosts(rng, 3))
        site_recs = []
        for i, host in enumerate(_quota(rng, 8, [(f"www.{domain}", 0.25), (domain, 0)])):
            nonce = _b64(rng, 22) + "=="
            if next(templates):
                header = (f"default-src 'self'; script-src 'self' 'nonce-{nonce}' "
                          f"{template_hosts}; object-src 'none'")
            else:
                hosts = " ".join(_random_hosts(rng, rng.randint(2, 6)))
                images = " ".join(_random_hosts(rng, rng.randint(1, 3)))
                header = (f"default-src 'self'; script-src 'nonce-{nonce}' {hosts}; "
                          f"img-src 'self' {images}; style-src 'self' 'unsafe-inline'")
            policies = [(header, ENFORCE, HEADER)]
            if next(metas):
                digest = _b64(rng, 43) + "="
                policies.append((f"script-src 'self' 'nonce-{nonce}' 'sha256-{digest}'",
                                 ENFORCE, META))
            if next(report_only):
                policies.append((f"default-src 'self'; report-uri /csp-report/{_label(rng, 10)}",
                                 REPORT_ONLY, HEADER))
            port = DEFAULT_PORTS[scheme]
            url = _origin_url(scheme, host, port) + ("/" if i == 0 else f"/{_label(rng, 6)}{i}.html")
            site_recs.append(Rec(url, url, "home" if i == 0 else rng.choice(LINKED_DEPTHS),
                                 "ok", 200, scheme, host, port, domain, policies))
        sites.append(site_recs)
    _fail_pages(rng, [r for site_recs in sites for r in site_recs])
    recs: list[Rec] = []
    for site_recs in sites:
        _wire_iframes(rng, site_recs, [(0, 0.40), (1, 0.35), (2, 0.25)])
        recs.extend(site_recs)
    recs.sort(key=lambda r: (r.site, r.url))
    return recs
