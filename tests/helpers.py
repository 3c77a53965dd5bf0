"""Builders for in-memory PageRecords and seeded synthetic corpora."""

from __future__ import annotations

import random

from cspsop.corpus import PageRecord
from cspsop.normalize import normalize
from cspsop.origins import NoRegistrableDomainError, origin_of, site_of
from cspsop.policy import ENFORCE, REPORT_ONLY, parse_policy
from oracles import _unmatched, oracle_compare


def make_page(
    url: str,
    *csp: str,
    report_only: tuple[str, ...] = (),
    iframes: list[str] | None = None,
    links: list[str] | None = None,
    depth: str = "home",
    fetch_status: str = "ok",
) -> PageRecord:
    origin = origin_of(url)
    try:
        site = str(site_of(origin.host))
    except NoRegistrableDomainError:
        site = origin.host
    policies = [parse_policy(text, ENFORCE) for text in csp]
    policies += [parse_policy(text, REPORT_ONLY) for text in report_only]
    return PageRecord(
        url=url,
        final_url=url,
        depth=depth,
        fetch_status=fetch_status,
        http_status=200 if fetch_status == "ok" else None,
        origin=origin,
        site=site,
        policies=policies,
        links_same_site=list(links or []),
        iframes_same_site=list(iframes or []),
    )


def record_to_oracle_page(record: PageRecord) -> dict:
    """Flatten a PageRecord into the plain-dict shape the oracles consume."""
    return {
        "url": record.url,
        "scheme": record.origin.scheme,
        "host": record.origin.host,
        "port": record.origin.port,
        "site": record.site,
        "depth": record.depth,
        "policies": [
            {k: set(v) for k, v in normalize(p, record.origin).directives.items()}
            for p in record.policies
            if p.disposition == ENFORCE
        ],
        "any_csp": bool(record.policies),
        "iframes": list(record.iframes_same_site),
    }


def oracle_evidence(a: list[dict], b: list[dict]) -> set[str]:
    """Directive evidence for two oracle policy lists, by the rule of
    oracles.oracle_directive_diff: the all-pairs union of differing
    directives between the unmatched policies, or every directive of the
    surplus when that union is empty."""
    left, right = _unmatched(a, b)
    evidence: set[str] = set()
    for pa in left:
        for pb in right:
            evidence |= oracle_compare(pa, pb)
    if not evidence:
        for policy in left + right:
            evidence |= set(policy)
    return evidence


# Policy pool for synthetic corpora: several distinct policies, a couple of
# textual variants that normalize identically, and report-only entries.
_POLICY_POOL: list[tuple[str, ...]] = [
    (),
    (),
    ("default-src 'self'",),
    ("default-src 'self'; script-src cdn.example.net",),
    ("script-src 'self'; img-src *; frame-ancestors 'self'",),
    ("default-src 'none'",),
    ("default-src 'self'; script-src 'unsafe-inline' cdn.example.net",),
]
_REPORT_ONLY_POOL = ["default-src 'self'", "script-src 'none'"]


def make_adoption_corpus() -> list[PageRecord]:
    """Three sites, ten fetched pages, four of them carrying a CSP.

    Expected counts (hand-tallied): sites=3, pages=10, pages with same-site
    iframes=3, with same-origin iframes=2, same-origin-iframe couples where
    some side has CSP=2, pages with CSP=4 (40% of 10), sites with CSP on
    home=1 (of 3), sites with CSP somewhere=2 (of 3).
    """
    return [
        make_page(
            "http://s1.com/",
            "default-src 'self'",
            iframes=["http://s1.com/a"],
            links=["http://s1.com/a", "http://s1.com/b"],
            depth="home",
        ),
        make_page("http://s1.com/a", depth="iframe-of-home"),
        make_page("http://s1.com/b", report_only=("script-src 'none'",), depth="linked"),
        make_page(
            "http://sub.s1.com/c",
            "script-src 'self'",
            iframes=["http://s1.com/a"],
            depth="linked",
        ),
        make_page(
            "https://s2.com/",
            iframes=["https://s2.com/only"],
            depth="home",
        ),
        make_page("https://s2.com/only", "default-src 'none'", depth="iframe-of-home"),
        make_page("https://s2.com/third", depth="linked"),
        make_page("http://s3.com/", depth="home"),
        make_page("http://s3.com/x", depth="linked", fetch_status="network-error"),
        make_page("http://s3.com/y", depth="linked"),
        make_page("http://s3.com/z", depth="linked"),
    ]


CSP_A = "default-src 'self'; script-src cdn.net"
CSP_B = "default-src 'self'; img-src pics.net"


def make_violation_corpus() -> list[PageRecord]:
    """One couple planted per category, plus a relaxable and an unrelated one.

    Expected cells: same-origin x {only-parent, only-iframe, different,
    no-violation, no-csp-anywhere} each 1; relaxable x only-parent 1;
    one couple excluded as unrelated (port mismatch).
    """
    return [
        make_page("http://v.com/parent1", CSP_A, iframes=["http://v.com/no-csp"]),
        make_page("http://v.com/no-csp"),
        make_page("http://v.com/parent2", iframes=["http://v.com/iframe-csp"]),
        make_page("http://v.com/iframe-csp", CSP_A),
        make_page("http://v.com/parent3", CSP_A, iframes=["http://v.com/other-csp"]),
        make_page("http://v.com/other-csp", CSP_B),
        make_page("http://v.com/parent4", CSP_A, iframes=["http://v.com/same-csp"]),
        make_page("http://v.com/same-csp", CSP_A),
        make_page("http://v.com/parent5", iframes=["http://v.com/no-csp"]),
        make_page("http://sub.v.com/relaxed-parent", CSP_A, iframes=["http://v.com/no-csp"]),
        make_page("http://v.com:8080/port-differs", CSP_A, iframes=["http://v.com/no-csp"]),
    ]


def make_corpus(seed: int = 7, sites: int = 3, pages_per_site: int = 20) -> list[PageRecord]:
    """Deterministic synthetic corpus with planted violation structure.

    Each site mixes hosts (apex plus subdomains), schemes and ports so the
    generated parent-iframe pairs cover same-origin, relaxable and unrelated
    relations, with CSPs drawn from a pool containing equal, different,
    absent and report-only policies.
    """
    rng = random.Random(seed)
    records: list[PageRecord] = []
    for s in range(sites):
        domain = f"s{s}.com"
        hosts = [domain, f"sub.{domain}", f"a.{domain}"]
        site_urls: list[str] = []
        site_specs: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
        for p in range(pages_per_site):
            host = rng.choice(hosts)
            scheme = rng.choice(["http", "http", "http", "https"])
            port = rng.choice(["", "", "", ":8080"])
            url = f"{scheme}://{host}{port}/page{p}.html"
            csp = rng.choice(_POLICY_POOL)
            report = (
                (rng.choice(_REPORT_ONLY_POOL),) if rng.random() < 0.15 else ()
            )
            site_urls.append(url)
            site_specs.append((url, csp, report))
        for i, (url, csp, report) in enumerate(site_specs):
            iframe_count = rng.randint(0, 3) if rng.random() < 0.7 else 0
            candidates = [u for u in site_urls if u != url]
            iframes = rng.sample(candidates, k=min(iframe_count, len(candidates)))
            links = rng.sample(candidates, k=min(2, len(candidates)))
            records.append(
                make_page(
                    url,
                    *csp,
                    report_only=report,
                    iframes=iframes,
                    links=links,
                    depth="home" if i == 0 else rng.choice(["linked", "iframe-of-home"]),
                )
            )
    return records


def make_shuffled_corpus() -> list[PageRecord]:
    """The corpus of the potential, directive-diff and violations json
    goldens: 29 different-csp couples over 10 directives. Shuffled so that
    origins interleave: verdicts must stay in corpus order."""
    corpus = make_corpus(seed=3, sites=4, pages_per_site=60)
    random.Random(1).shuffle(corpus)
    return corpus
