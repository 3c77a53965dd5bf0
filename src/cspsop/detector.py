"""Classify parent/iframe couples and find potential victims corpus-wide.

A page's CSP never reaches into a same-origin iframe, yet the iframe can
reach into the page. Whenever the two documents are (or can become, via
document.domain) same-origin and their enforced policies are not identical,
the stricter side's policy can be subverted from the weaker one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .compare import _enforced_key, difference_evidence
from .corpus import STATUS_OK, PageRecord
from .origins import Origin

RELATION_SAME_ORIGIN = "same-origin"
RELATION_RELAXABLE = "relaxable"
RELATION_UNRELATED = "unrelated"

CATEGORY_ONLY_PARENT = "only-parent-csp"
CATEGORY_ONLY_IFRAME = "only-iframe-csp"
CATEGORY_DIFFERENT = "different-csp"
CATEGORY_NO_VIOLATION = "no-violation"
CATEGORY_NO_CSP = "no-csp-anywhere"

VIOLATION_CATEGORIES = frozenset(
    {CATEGORY_ONLY_PARENT, CATEGORY_ONLY_IFRAME, CATEGORY_DIFFERENT}
)

VERDICT_PEER_NO_CSP = "peer-without-csp"
VERDICT_PEER_DIFF_CSP = "peer-with-different-csp"
VERDICT_NONE = "none"


@dataclass(frozen=True)
class PairClassification:
    relation: str
    category: str
    evidence: frozenset[str] = frozenset()

    def is_violation(self) -> bool:
        """True when the couple can actually subvert a policy: unrelated
        origins stay isolated by SOP no matter what their CSPs say."""
        return self.relation != RELATION_UNRELATED and self.category in VIOLATION_CATEGORIES


@dataclass(frozen=True)
class Mitigation:
    kind: str  # origin-wide-csp | document-domain-freeze | sandbox-directive
    advice: str
    snippet: str | None = None

    def to_dict(self) -> dict:
        # Every field, and the snippet only when there is one.
        return {name: value for name, value in _fields(self).items() if name != "snippet" or value}


# First statement of a page's scripts; locks document.domain before any
# other code can relax the origin.
DOMAIN_FREEZE_SNIPPET = (
    'Object.defineProperty(document, "domain", '
    "{ __proto__: null, writable: false, configurable: false});"
)

_MITIGATIONS = {
    "origin-wide-csp": Mitigation(
        kind="origin-wide-csp",
        advice=(
            "Deliver one identical effective CSP on every page of the origin, "
            "so no embeddable document is weaker than its embedder."
        ),
    ),
    "document-domain-freeze": Mitigation(
        kind="document-domain-freeze",
        advice=(
            "Run a first script that freezes document.domain, preventing any "
            "later code from relaxing the origin to the shared parent domain."
        ),
        snippet=DOMAIN_FREEZE_SNIPPET,
    ),
    "sandbox-directive": Mitigation(
        kind="sandbox-directive",
        advice=(
            "If the iframe does not need the page's origin, isolate it with the "
            "sandbox CSP directive (no allow-same-origin): a unique origin makes "
            "SOP shield both documents, and the directive cannot be stripped by "
            "scripts the way the iframe attribute can."
        ),
    ),
}


def analyzable_pages(corpus: list[PageRecord]) -> list[PageRecord]:
    """Records that were fetched and have an origin: the pages every
    table counts."""
    return [r for r in corpus if r.fetch_status == STATUS_OK and r.origin is not None]


class Additive:
    """A table whose value over site-local groups of records is the sum of
    its values over each group (see report.run_table).

    `a += b` adds b into a field by field: numbers and Ratios add, dicts
    add per key (a key missing from a takes b's value), lists extend in
    place and nested Additive fields add in place.
    """

    def __iadd__(self, other):
        mine = vars(self)
        for name, value in vars(other).items():
            mine[name] = _added(mine[name], value)
        return self

    def to_dict(self) -> dict:
        return _fields(self)


def _added(a, b):
    if isinstance(a, dict):
        for key, value in b.items():
            a[key] = _added(a[key], value) if key in a else value
        return a
    a += b
    return a


def _json(value):
    """The JSON form of an output value, the one rule for every output: a
    dataclass is an object of its fields (to_dict(), where a type defines
    one, adds what its fields do not hold), a set is its sorted list,
    dicts, lists and tuples convert their items, and scalars stay."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    to_dict = getattr(value, "to_dict", None)
    return _fields(value) if to_dict is None else to_dict()


def _fields(value) -> dict:
    return {name: _json(item) for name, item in vars(value).items()}


def _peer_group(record: PageRecord) -> tuple:
    """The (site, scheme, port) of a record with an origin: pages of one
    group but different origins can meet by setting document.domain to
    the site, which changes the host alone. The site is the one the crawl
    recorded, read with the suffix table the crawl used."""
    return (record.site, record.origin.scheme, record.origin.port)


def _relation(parent: PageRecord, iframe: PageRecord) -> str:
    if parent.origin is None or iframe.origin is None:
        return RELATION_UNRELATED
    if parent.origin == iframe.origin:
        return RELATION_SAME_ORIGIN
    if parent.site is not None and _peer_group(parent) == _peer_group(iframe):
        return RELATION_RELAXABLE
    return RELATION_UNRELATED


def classify_pair(parent: PageRecord, iframe: PageRecord) -> PairClassification:
    """Origin relation and CSP-violation category for one couple."""
    relation = _relation(parent, iframe)
    parent_key, iframe_key = _enforced_key(parent), _enforced_key(iframe)
    if not parent_key and not iframe_key:
        return PairClassification(relation, CATEGORY_NO_CSP)
    if not iframe_key:
        return PairClassification(relation, CATEGORY_ONLY_PARENT)
    if not parent_key:
        return PairClassification(relation, CATEGORY_ONLY_IFRAME)
    if parent_key == iframe_key:
        return PairClassification(relation, CATEGORY_NO_VIOLATION)
    return PairClassification(
        relation, CATEGORY_DIFFERENT, difference_evidence(parent_key, iframe_key)
    )


def recommend(classification: PairClassification) -> list[Mitigation]:
    """Ordered mitigation advice for one classified couple."""
    if not classification.is_violation():
        return []
    out = [_MITIGATIONS["origin-wide-csp"]]
    if classification.relation == RELATION_RELAXABLE:
        out.append(_MITIGATIONS["document-domain-freeze"])
    out.append(_MITIGATIONS["sandbox-directive"])
    return out


@dataclass(frozen=True)
class PageVerdicts:
    """Potential-violation verdicts for one page carrying an enforced CSP."""

    url: str
    same_origin: str = VERDICT_NONE
    relaxed: str = VERDICT_NONE


@dataclass(frozen=True)
class Ratio:
    count: int
    denominator: int

    @property
    def percent(self) -> float:
        return 0.0 if self.denominator == 0 else round(100.0 * self.count / self.denominator, 2)

    def to_dict(self) -> dict:
        return {**_fields(self), "percent": self.percent}

    def __add__(self, other: Ratio) -> Ratio:
        return Ratio(self.count + other.count, self.denominator + other.denominator)

    def __str__(self) -> str:
        return f"{self.count} ({self.percent}% of {self.denominator})"


@dataclass
class GranularityCounts(Additive):
    """Flag totals for one peer granularity, in pages/origins/sites."""

    pages_peer_no_csp: int = 0
    origins_peer_no_csp: int = 0
    sites_peer_no_csp: int = 0
    pages_peer_diff_csp: int = 0
    origins_peer_diff_csp: int = 0
    sites_peer_diff_csp: int = 0

    @property
    def pages_total(self) -> int:
        return self.pages_peer_no_csp + self.pages_peer_diff_csp

    def to_dict(self) -> dict:
        return {**_fields(self), "pages_total": self.pages_total}


@dataclass
class PotentialViolationReport(Additive):
    pages_with_csp: int
    origins_with_csp: int
    sites_with_csp: int
    same_origin: GranularityCounts
    relaxed: GranularityCounts
    flagged_pages_total: int  # distinct pages flagged at either granularity
    verdicts: list[PageVerdicts] = field(default_factory=list)

    def to_dict(self) -> dict:
        share = Ratio(self.flagged_pages_total, self.pages_with_csp)
        return {**_fields(self), "flagged_pages_total": share.to_dict()}

    def rows(self) -> list[list[str]]:
        rows = [["statistic", "pages", "origins", "sites"]]
        for label, counts in (("same-origin", self.same_origin), ("relaxed-origin", self.relaxed)):
            rows.append([
                f"{label}: a peer page has no CSP", str(counts.pages_peer_no_csp),
                str(counts.origins_peer_no_csp), str(counts.sites_peer_no_csp),
            ])
            rows.append([
                f"{label}: a peer page has a different CSP", str(counts.pages_peer_diff_csp),
                str(counts.origins_peer_diff_csp), str(counts.sites_peer_diff_csp),
            ])
            rows.append([f"{label}: total", str(counts.pages_total), "-", "-"])
        share = Ratio(self.flagged_pages_total, self.pages_with_csp)
        rows.append(["potential violations total (distinct pages)", str(share), "-", "-"])
        return rows


def peer_groups(corpus: list[PageRecord]) -> tuple[list, dict]:
    """Fetched pages with their policy-set keys, counted per peer group.

    Returns (pages, counts). pages lists (record, relaxed group, policy-set
    key) in corpus order; a page without an enforced CSP has the key ().
    counts maps each relaxed group (site, scheme, port) to its origins, and
    each origin to a Counter of its pages' keys.
    """
    pages = []
    counts: dict[tuple, dict[Origin, Counter]] = {}
    for record in analyzable_pages(corpus):
        key = _enforced_key(record)
        group = _peer_group(record)
        counts.setdefault(group, {}).setdefault(record.origin, Counter())[key] += 1
        pages.append((record, group, key))
    return pages, counts


def _verdict(peers: Counter, key: tuple) -> str:
    """Verdict for a CSP page with policy-set key `key`, given its peers'
    Counter of keys. The page itself may be counted among them: it adds
    one to both sides of the comparison and nothing to the no-CSP key ()."""
    if peers[()]:
        return VERDICT_PEER_NO_CSP
    return VERDICT_PEER_DIFF_CSP if peers.total() > peers[key] else VERDICT_NONE


def _granularity_counts(flagged: defaultdict, granularity: str) -> GranularityCounts:
    """Distinct pages, origins and sites among the (url, origin, site)
    triples flagged at one granularity, per verdict."""
    counts = []
    for verdict in (VERDICT_PEER_NO_CSP, VERDICT_PEER_DIFF_CSP):
        triples = flagged[granularity, verdict]
        counts += [
            len(triples), len({o for _, o, _ in triples}), len({s for _, _, s in triples if s}),
        ]
    return GranularityCounts(*counts)


def potential_violations(corpus: list[PageRecord]) -> PotentialViolationReport:
    """Pages whose CSP could be subverted by embedding a weaker peer page.

    A page with an enforced CSP is flagged when another page of the same
    origin lacks a CSP or ships a different one; separately, the same check
    runs against relaxed-origin peers (same site, scheme and port but a
    different origin, reachable via document.domain).
    """
    pages, counts = peer_groups(corpus)
    # The relaxed peers of an origin are the rest of its group.
    rx_peers = {}
    for group, origins in counts.items():
        total = sum(origins.values(), Counter())
        for origin, keys in origins.items():
            rx_peers[group, origin] = total - keys

    verdicts = []
    flagged: defaultdict[tuple[str, str], set] = defaultdict(set)
    for record, group, key in pages:
        if not key:
            continue
        so_verdict = _verdict(counts[group][record.origin], key)
        rx_verdict = VERDICT_NONE
        if record.site is not None:
            rx_verdict = _verdict(rx_peers[group, record.origin], key)
        if so_verdict == rx_verdict == VERDICT_NONE:
            continue
        verdicts.append(PageVerdicts(record.url, so_verdict, rx_verdict))
        for granularity, verdict in (("same-origin", so_verdict), ("relaxed", rx_verdict)):
            flagged[granularity, verdict].add((record.url, record.origin, record.site))

    csp_pages = [record for record, _, key in pages if key]
    return PotentialViolationReport(
        pages_with_csp=len(csp_pages),
        origins_with_csp=len({r.origin for r in csp_pages}),
        sites_with_csp=len({r.site for r in csp_pages if r.site}),
        same_origin=_granularity_counts(flagged, "same-origin"),
        relaxed=_granularity_counts(flagged, "relaxed"),
        flagged_pages_total=len({page.url for page in verdicts}),
        verdicts=verdicts,
    )

