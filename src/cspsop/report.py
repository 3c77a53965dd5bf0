"""Aggregate adoption and violation statistics over a crawl corpus.

Counts follow fixed definitions (documented per function) so that any
number can be recomputed independently; machine-readable output always
carries the denominator next to a percentage, never a bare ratio.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import signal
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import BinaryIO

from .compare import difference_evidence
from .corpus import DEPTH_HOME, PageRecord, iter_site_groups, read_corpus, size_hint
from .detector import (
    CATEGORY_DIFFERENT,
    CATEGORY_NO_CSP,
    CATEGORY_NO_VIOLATION,
    CATEGORY_ONLY_IFRAME,
    CATEGORY_ONLY_PARENT,
    RELATION_RELAXABLE,
    RELATION_SAME_ORIGIN,
    RELATION_UNRELATED,
    VIOLATION_CATEGORIES,
    Additive,
    PairClassification,
    Ratio,
    _json,
    analyzable_pages,
    classify_pair,
    peer_groups,
    potential_violations,
)
from .origins import UnsupportedUrlError, origin_of

CATEGORIES = (
    CATEGORY_ONLY_PARENT,
    CATEGORY_ONLY_IFRAME,
    CATEGORY_DIFFERENT,
    CATEGORY_NO_VIOLATION,
    CATEGORY_NO_CSP,
)
RELATIONS = (RELATION_SAME_ORIGIN, RELATION_RELAXABLE)


@dataclass
class AdoptionReport(Additive):
    """Crawling statistics: how widely CSP is deployed across the corpus."""

    sites_crawled: int = 0
    pages_visited: int = 0
    pages_with_same_site_iframes: int = 0
    pages_with_same_origin_iframes: int = 0
    pages_with_so_iframe_and_csp: int = 0
    pages_with_csp: Ratio = Ratio(0, 0)
    sites_with_csp_on_home: Ratio = Ratio(0, 0)
    sites_with_csp_some_pages: Ratio = Ratio(0, 0)

    def rows(self) -> list[list[str]]:
        return [
            ["statistic", "value"],
            ["Sites successfully crawled", str(self.sites_crawled)],
            ["Pages visited", str(self.pages_visited)],
            ["Pages with same-site iframe(s)", str(self.pages_with_same_site_iframes)],
            ["Pages with same-origin iframe(s)", str(self.pages_with_same_origin_iframes)],
            [
                "Pages with same-origin iframe(s) where page and/or iframe has CSP",
                str(self.pages_with_so_iframe_and_csp),
            ],
            ["Pages with CSP", str(self.pages_with_csp)],
            ["Sites with CSP on home page", str(self.sites_with_csp_on_home)],
            ["Sites with CSP on some pages", str(self.sites_with_csp_some_pages)],
        ]


def adoption_stats(corpus: list[PageRecord]) -> AdoptionReport:
    """Adoption counts.

    Definitions: pages = successfully fetched records; a page "has CSP"
    here under any disposition (report-only included). A page has a
    same-origin iframe when one of its same-site iframe URLs has the page's
    origin, whether or not the iframe's own record was fetched; iframe CSP
    presence is resolved through the iframe's fetched record when the
    corpus has one, so a failed or missing iframe brings no CSP.
    """
    pages = analyzable_pages(corpus)
    by_url = {r.url: r for r in pages}
    sites = {r.site for r in pages if r.site}

    def iframe_origin_same(record: PageRecord, iframe_url: str) -> bool:
        try:
            return origin_of(iframe_url) == record.origin
        except UnsupportedUrlError:
            return False

    pages_so_iframes = []
    for record in pages:
        so_iframes = [u for u in record.iframes_same_site if iframe_origin_same(record, u)]
        if so_iframes:
            pages_so_iframes.append((record, so_iframes))

    so_iframe_with_csp = 0
    for record, so_iframes in pages_so_iframes:
        iframe_has = any(
            u in by_url and by_url[u].has_any_csp() for u in so_iframes
        )
        if record.has_any_csp() or iframe_has:
            so_iframe_with_csp += 1

    csp_pages = [r for r in pages if r.has_any_csp()]
    home_csp_sites = {r.site for r in pages if r.depth == DEPTH_HOME and r.has_any_csp() and r.site}
    csp_sites = {r.site for r in csp_pages if r.site}
    return AdoptionReport(
        sites_crawled=len(sites),
        pages_visited=len(pages),
        pages_with_same_site_iframes=sum(1 for r in pages if r.iframes_same_site),
        pages_with_same_origin_iframes=len(pages_so_iframes),
        pages_with_so_iframe_and_csp=so_iframe_with_csp,
        pages_with_csp=Ratio(len(csp_pages), len(pages)),
        sites_with_csp_on_home=Ratio(len(home_csp_sites), len(sites)),
        sites_with_csp_some_pages=Ratio(len(csp_sites), len(sites)),
    )


BUCKET_LABELS = tuple(f"{lo}-{lo + 10}" for lo in range(0, 100, 10))


@dataclass
class SiteCspHistogram(Additive):
    """Sites bucketed by the share of their pages carrying a CSP.

    Only sites with at least one CSP page appear; buckets are [lo, lo+10)
    with the last bucket closed at 100.
    """

    buckets: dict[str, int] = field(default_factory=dict)
    sites_total: int = 0

    def rows(self) -> list[list[str]]:
        out = [["bucket_percent", "sites"]]
        out += [[label, str(self.buckets.get(label, 0))] for label in BUCKET_LABELS]
        return out


def csp_per_site_distribution(corpus: list[PageRecord]) -> SiteCspHistogram:
    pages = analyzable_pages(corpus)
    per_site: dict[str, list[PageRecord]] = {}
    for record in pages:
        if record.site:
            per_site.setdefault(record.site, []).append(record)
    histogram = SiteCspHistogram(buckets={label: 0 for label in BUCKET_LABELS})
    for site_pages in per_site.values():
        with_csp = sum(1 for r in site_pages if r.has_any_csp())
        if not with_csp:
            continue
        share = 100.0 * with_csp / len(site_pages)
        index = min(int(share // 10), 9)
        histogram.buckets[BUCKET_LABELS[index]] += 1
        histogram.sites_total += 1
    return histogram


@dataclass(frozen=True)
class ClassifiedPair:
    parent: PageRecord
    iframe: PageRecord
    classification: PairClassification


def build_pairs(corpus: list[PageRecord]) -> list[ClassifiedPair]:
    """(parent, iframe) couples: each page joined with the records of its
    same-site iframes. Iframes missing from the corpus cannot be classified
    and are skipped.
    """
    pages = analyzable_pages(corpus)
    by_url = {r.url: r for r in pages}
    return [
        ClassifiedPair(parent, by_url[url], classify_pair(parent, by_url[url]))
        for parent in pages
        for url in parent.iframes_same_site
        if url in by_url
    ]


@dataclass
class ViolationTable(Additive):
    """Category x relation matrix over classifiable parent-iframe couples.

    The rate denominator per relation counts couples where at least one
    side has an enforced CSP; couples with no CSP anywhere are listed but
    excluded from that rate, and unrelated couples are excluded entirely.
    """

    cells: dict[str, dict[str, int]]
    violations_total: dict[str, Ratio]
    couples_excluded_unrelated: int = 0

    def category_total(self, category: str) -> int:
        return sum(self.cells[category].values())

    def rows(self) -> list[list[str]]:
        header = ["category", *RELATIONS, "total"]
        out = [header]
        for category in CATEGORIES:
            row = [category]
            row += [str(self.cells[category][rel]) for rel in RELATIONS]
            row.append(str(self.category_total(category)))
            out.append(row)
        total_row = ["csp-violations-total"]
        overall = Ratio(
            sum(self.violations_total[rel].count for rel in RELATIONS),
            sum(self.violations_total[rel].denominator for rel in RELATIONS),
        )
        for rel in RELATIONS:
            r = self.violations_total[rel]
            total_row.append(f"{r.count} ({r.percent}%)")
        total_row.append(f"{overall.count} ({overall.percent}%)")
        out.append(total_row)
        return out


def violation_table(corpus: list[PageRecord]) -> ViolationTable:
    pairs = build_pairs(corpus)
    cells = {category: {rel: 0 for rel in RELATIONS} for category in CATEGORIES}
    excluded = 0
    for pair in pairs:
        relation = pair.classification.relation
        if relation == RELATION_UNRELATED:
            excluded += 1
            continue
        cells[pair.classification.category][relation] += 1
    totals = {}
    for rel in RELATIONS:
        violations = sum(cells[c][rel] for c in VIOLATION_CATEGORIES)
        with_csp = violations + cells[CATEGORY_NO_VIOLATION][rel]
        totals[rel] = Ratio(violations, with_csp)
    return ViolationTable(cells=cells, violations_total=totals, couples_excluded_unrelated=excluded)


@dataclass
class DirectiveDiffHistogram(Additive):
    """How often each directive appears in the evidence of differing pairs.

    evidence counts, per directive, the differing pairs whose evidence
    names it; pairs_total counts the differing pairs.
    """

    evidence: Counter = field(default_factory=Counter)
    pairs_total: int = 0

    @property
    def fractions(self) -> dict[str, Ratio]:
        return {name: Ratio(count, self.pairs_total) for name, count in self.evidence.items()}

    def to_dict(self) -> dict:
        # The evidence counts go out as their fractions.
        return {"pairs_total": self.pairs_total, "directives": _json(self.fractions)}

    def rows(self) -> list[list[str]]:
        out = [["directive", "differing_pairs", "pairs_total", "percent"]]
        for name, ratio in sorted(self.fractions.items()):
            out.append([name, str(ratio.count), str(ratio.denominator), str(ratio.percent)])
        return out


def directive_diff_histogram(classifications: list[PairClassification]) -> DirectiveDiffHistogram:
    """Per-directive mismatch frequency among different-csp classifications.

    The denominator is the number of couples where both sides carry a CSP
    and the CSPs differ; each directive's count says in how many of those
    couples it was part of the difference. Unrelated couples are ignored
    (SOP already isolates them, so their differences prove nothing).
    """
    differing = [
        c
        for c in classifications
        if c.category == CATEGORY_DIFFERENT and c.relation != RELATION_UNRELATED
    ]
    return DirectiveDiffHistogram(
        evidence=Counter(name for classification in differing for name in classification.evidence),
        pairs_total=len(differing),
    )


def page_set_diffs(
    corpus: list[PageRecord], relation: str = RELATION_SAME_ORIGIN
) -> list[PairClassification]:
    """Differing-CSP classifications over peer PAGE couples (not iframes).

    Pairs pages of one origin (or, for the relaxed flavor, of one site,
    scheme and port but different origins) and emits one classification
    per unordered couple of CSP-bearing pages whose policy sets are
    unequal, in no particular order. Feeds the directive-difference
    histogram for page-level potential violations.
    """
    _, counts = peer_groups(corpus)
    out = []
    for (site, _, _), origins in counts.items():
        # A page without a site has same-origin peers but no relaxed ones.
        if site is None and relation != RELATION_SAME_ORIGIN:
            continue
        keys = sum(origins.values(), Counter())
        del keys[()]
        # Evidence is worked out once per pair of distinct policy-set keys
        # and repeated for every couple of pages that hold them.
        for a, b in combinations(keys, 2):
            same_origin = sum(by_key[a] * by_key[b] for by_key in origins.values())
            couples = same_origin if relation == RELATION_SAME_ORIGIN else keys[a] * keys[b] - same_origin
            if couples:
                evidence = difference_evidence(a, b)
                out += [PairClassification(relation, CATEGORY_DIFFERENT, evidence)] * couples
    return out


Table = Callable[[list[PageRecord]], Additive]

# Each table over a list of records, in the order --table lists them. The
# functions are looked up when a table runs, not when this dict is built, so
# a wrapper installed on their modules later (bench/tracer.py) sees every call.
TABLES: dict[str, Table] = {
    "adoption": lambda records: adoption_stats(records),
    "violations": lambda records: violation_table(records),
    "potential": lambda records: potential_violations(records),
    "directive-diff": lambda records: directive_diff_histogram(
        [p.classification for p in build_pairs(records)]
    ),
    "csp-per-site": lambda records: csp_per_site_distribution(records),
}


# The fewest bytes of uncompressed corpus a range is given, so that a
# process saves more than it costs to start (see run_table). On 2 CPUs a
# split of two paid from about 200 KB of analyze-distinct corpus and 350 KB
# of analyze-shared; 256 KiB is about 300 analyze-distinct records.
MIN_RANGE_BYTES = 1 << 18


@dataclass
class _Range:
    """A table summed over a range of site groups, with what the
    site-locality checks (see run_table) need of it: the sites, and the
    hashes of the URLs and origins of its analyzable records and of the
    same-site iframe URLs its groups leave unresolved."""

    total: Additive
    sites: set[str | None] = field(default_factory=set)
    urls: set[int] = field(default_factory=set)
    origins: set[int] = field(default_factory=set)
    unresolved: set[int] = field(default_factory=set)

    @classmethod
    def of(cls, group: list[PageRecord], table: Table) -> _Range:
        pages = analyzable_pages(group)
        urls = {r.url for r in pages}
        return cls(
            table(group),
            {group[0].site},
            set(map(hash, urls)),
            {hash(r.origin) for r in pages},
            {hash(u) for r in pages for u in r.iframes_same_site if u not in urls},
        )

    def add(self, later: _Range) -> bool:
        """Add the range that follows this one in the corpus, unless the two
        share a site, a URL or an origin (checks 1, 2 and 4); False then."""
        if not (self.sites.isdisjoint(later.sites) and self.urls.isdisjoint(later.urls)
                and self.origins.isdisjoint(later.origins)):
            return False
        self.sites |= later.sites
        self.urls |= later.urls
        self.origins |= later.origins
        self.unresolved |= later.unresolved
        self.total += later.total
        return True


def _sum_range(path: str | Path, table: Table, start: int, stop: int | None) -> _Range | None:
    """The table over the groups of one range, or None at the first group
    that fails a check."""
    part = _Range(table([]))
    for group in iter_site_groups(path, start, stop):
        if not part.add(_Range.of(group, table)):
            return None
    return part


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _ranges(path: str | Path) -> list[tuple[int, int | None]]:
    """(start, stop) byte offsets of the ranges the corpus is split into:
    one per usable CPU, but each of at least MIN_RANGE_BYTES of the length
    corpus.size_hint gives, and of even length."""
    size = size_hint(path)
    count = max(1, min(_usable_cpus(), size // MIN_RANGE_BYTES))
    bounds = [size * i // count for i in range(count)]
    return list(zip(bounds, [*bounds[1:], None]))


def _fork_range(path: str | Path, table: Table, start: int, stop: int | None) -> tuple[int, int]:
    """Start a child that sums one range and sends the pickled _Range, or
    None, through a pipe; returns the child's pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        part = _sum_range(path, table, start, stop)
        with open(write_end, "wb") as pipe:
            pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # whatever was raised: the child never returns


def _collect(pid: int, read_end: int) -> _Range | None:
    """A child's result, and the child reaped; None when the child ended
    before it wrote the whole of one."""
    try:
        with open(read_end, "rb") as pipe:
            return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None
    finally:
        os.waitpid(pid, 0)


def _sum_ranges(path: str | Path, table: Table) -> _Range | None:
    """The table over every range, the first in this process and each other
    in a child of its own, added in corpus order; None when a range fails a
    check, a child gives no result, or one cannot be started. Every child
    is reaped on return, and one whose result is not needed is killed
    first."""
    (start, stop), *rest = _ranges(path)
    children: list[tuple[int, int]] = []
    try:
        try:
            for bounds in rest:
                children.append(_fork_range(path, table, *bounds))
        except OSError:  # out of processes or file descriptors
            return None
        part = _sum_range(path, table, start, stop)
        while part is not None and children:
            later = _collect(*children.pop(0))
            if later is None or not part.add(later):
                return None
        return part
    finally:
        for pid, read_end in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read_end)
            os.waitpid(pid, 0)


def run_table(path: str | Path, name: str) -> Additive:
    """The table TABLES[name] over the corpus at path.

    The corpus is read as site groups (corpus.iter_site_groups), and the
    table is summed over them. The sum is exact when the corpus is
    site-local, that is when:
    1. each site's records are contiguous, so that a site is one group;
    2. no analyzable record's URL occurs in two groups;
    3. no iframe URL that is left unresolved in its own group is the URL of
       an analyzable record in another group (a same-site iframe that
       redirected off-site has its record under the other site);
    4. no origin of an analyzable record occurs in two groups, so that
       distinct-origin counts add.
    Peer groups (site, scheme, port) and iframe couples then never cross a
    group. Across groups only the sites and the hashes of URLs and origins
    are kept: a false match between two hashes costs a whole-corpus pass,
    never a wrong count. On the first failed check, or on check 3 after the
    last group, the corpus is read again and the table runs over all of it.

    The groups are split into contiguous ranges, one per CPU this process
    may run on, as long as each range holds MIN_RANGE_BYTES of the length
    of the uncompressed corpus (corpus.size_hint: the file's size, or the
    length a gzip trailer records). This process sums the first range and
    a forked child each other one, which seeks to the start of its range;
    the ranges are checked together and added in corpus order, so the
    table is the same for any split. A child that fails, for
    a malformed line or any other reason, leaves its range without a
    result, and the corpus is then read again as a whole, which raises
    what one process would.
    """
    table = TABLES[name]
    part = _sum_ranges(path, table)
    if part is not None and part.unresolved.isdisjoint(part.urls):
        return part.total
    # Not site-local. Free what the per-group pass holds before the second read.
    del part
    return table(read_corpus(path))


FORMAT_TEXT = "text"
FORMAT_JSON = "json"
FORMAT_CSV = "csv"


def render(report, fmt: str = FORMAT_TEXT, out: BinaryIO | None = None) -> bytes | None:
    """Serialize a report to a text table, json or csv: into out, an open
    binary file, or, when out is None, into the bytes returned. The json of
    any output value, report or not, is written here: indented, keys
    sorted, and encoded into out chunk by chunk, so that the whole text is
    never held in memory."""
    if out is None:
        buffer = io.BytesIO()
        render(report, fmt, buffer)
        return buffer.getvalue()
    if fmt == FORMAT_JSON:
        text = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
        try:
            json.dump(_json(report), text, indent=2, sort_keys=True)
            text.write("\n")
        finally:
            text.detach()  # flushes, and leaves out open
        return None
    rows = report.rows()
    if fmt == FORMAT_CSV:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        out.write(buffer.getvalue().encode())
    elif fmt == FORMAT_TEXT:
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.insert(1, "-" * max(len(line) for line in lines))
        out.write(("\n".join(lines) + "\n").encode())
    else:
        raise ValueError(f"unknown format: {fmt}")
    return None
