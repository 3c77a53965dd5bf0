"""Expected outputs, and the checks that compare the program's outputs to them.

Table references come from the independent oracles in `tests/oracles.py`,
fed with the generators' own records (raw policy texts normalized by the
oracle, not by the library). The O(n^2) potential-violation oracle is run
per (site, scheme, port) group: pages in different groups are never
same-origin or relaxable peers, so the union of the per-group answers is
the answer over the whole corpus.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
from pathlib import Path
from statistics import median
from urllib.parse import urlsplit

from gen import DEFAULT_PORTS, ENFORCE, Rec

ROOT = Path(__file__).resolve().parent.parent
TABLES = ("adoption", "violations", "directive-diff", "csp-per-site", "potential")
CATEGORIES = ("only-parent-csp", "only-iframe-csp", "different-csp", "no-violation",
              "no-csp-anywhere")
RELATIONS = ("same-origin", "relaxable")
VIOLATIONS = CATEGORIES[:3]
BUCKETS = tuple(f"{lo}-{lo + 10}" for lo in range(0, 100, 10))


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("cspsop_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _url_origin(url: str) -> tuple[str, str, int | None]:
    parts = urlsplit(url)
    return (parts.scheme, parts.hostname, parts.port or DEFAULT_PORTS.get(parts.scheme))


def _normalized_key(normalized: dict[str, set[str]]) -> tuple:
    return tuple(sorted((name, tuple(sorted(srcs))) for name, srcs in normalized.items()))


class Reference:
    """Oracle answers for one corpus, computed once before the timed phase."""

    def __init__(self, recs: list[Rec]):
        oracles = load_oracles()
        ok = [r for r in recs if r.ok]
        normalized_cache: dict[tuple, dict[str, set[str]]] = {}

        def normalized(raw: str, rec: Rec) -> dict[str, set[str]]:
            key = (raw, rec.origin)
            if key not in normalized_cache:
                normalized_cache[key] = oracles.oracle_normalize(raw, *rec.origin)
            return normalized_cache[key]

        self.pages = [
            {
                "url": r.url, "scheme": r.scheme, "host": r.host, "port": r.port,
                "site": r.site, "depth": r.depth,
                "policies": [normalized(raw, r) for raw, disp, _ in r.policies if disp == ENFORCE],
                "any_csp": bool(r.policies),
                "iframes": list(r.iframes),
            }
            for r in ok
        ]
        self.adoption = oracles.oracle_adoption(self.pages)
        self.adoption.update(self._so_iframe_counts())
        self.cells = oracles.oracle_violation_cells(self.pages)
        self.diff = oracles.oracle_directive_diff(self.pages)
        groups: dict[tuple, list[dict]] = {}
        for page in self.pages:
            groups.setdefault((page["site"], page["scheme"], page["port"]), []).append(page)
        self.flagged: dict[str, set[str]] = {"so_no": set(), "so_diff": set(),
                                             "rx_no": set(), "rx_diff": set()}
        for members in groups.values():
            for bucket, urls in oracles.oracle_potential(members).items():
                self.flagged[bucket] |= urls
        self.per_site = self._per_site_buckets()

        # Input properties the planned optimisations depend on.
        raws = [raw for r in ok for raw, _, _ in r.policies]
        forms = [_normalized_key(normalized(raw, r)) for r in ok for raw, _, _ in r.policies]
        sizes = sorted(self._origin_sizes(ok).values())
        self.properties = {
            "input.records": (len(recs), "count"),
            "input.raw_repeat_share": (1 - len(set(raws)) / len(raws), "ratio"),
            "input.normalized_repeat_share": (1 - len(set(forms)) / len(forms), "ratio"),
            "input.origin_group_p50": (median(sizes), "count"),
            "input.origin_group_max": (sizes[-1], "count"),
        }
        self.distinct_raw = sorted(set(raws))

    @staticmethod
    def _origin_sizes(ok: list[Rec]) -> dict[tuple, int]:
        sizes: dict[tuple, int] = {}
        for r in ok:
            sizes[r.origin] = sizes.get(r.origin, 0) + 1
        return sizes

    def _so_iframe_counts(self) -> dict[str, int]:
        """Pages embedding a same-origin iframe, and those where page or
        iframe has a CSP, as `report.adoption_stats` defines them: an
        iframe counts by its URL, and its CSP is looked up through its own
        record when the corpus has one. `oracle_adoption` skips iframes
        without an ok record, so it disagrees whenever an iframe's own
        fetch failed; these two counts are recounted here instead.
        """
        by_url = {p["url"]: p for p in self.pages}
        so_pages = so_with_csp = 0
        for page in self.pages:
            own = (page["scheme"], page["host"], page["port"])
            so = [u for u in page["iframes"] if _url_origin(u) == own]
            if so:
                so_pages += 1
                if page["any_csp"] or any(u in by_url and by_url[u]["any_csp"] for u in so):
                    so_with_csp += 1
        return {"pages_so_iframes": so_pages, "pages_so_iframe_csp": so_with_csp}

    def _per_site_buckets(self) -> dict[str, int]:
        per_site: dict[str, list[bool]] = {}
        for page in self.pages:
            per_site.setdefault(page["site"], []).append(page["any_csp"])
        buckets = {label: 0 for label in BUCKETS}
        for flags in per_site.values():
            if any(flags):
                buckets[BUCKETS[min(int(100.0 * sum(flags) / len(flags) // 10), 9)]] += 1
        return buckets

    def mismatches(self, table: str, payload: dict) -> list[str]:
        """Differences between one table's JSON output and the oracle."""
        return [f"{table}: {d}" for d in getattr(self, "_check_" + table.replace("-", "_"))(payload)]

    def _check_adoption(self, out: dict) -> list[str]:
        a = self.adoption
        expected = {
            "sites_crawled": a["sites"], "pages_visited": a["pages"],
            "pages_with_same_site_iframes": a["pages_ss_iframes"],
            "pages_with_same_origin_iframes": a["pages_so_iframes"],
            "pages_with_so_iframe_and_csp": a["pages_so_iframe_csp"],
        }
        got = {key: out.get(key) for key in expected}
        for key, count, denominator in (
            ("pages_with_csp", a["pages_csp"], a["pages"]),
            ("sites_with_csp_on_home", a["sites_home_csp"], a["sites"]),
            ("sites_with_csp_some_pages", a["sites_some_csp"], a["sites"]),
        ):
            expected[key] = [count, denominator]
            ratio = out.get(key) or {}
            got[key] = [ratio.get("count"), ratio.get("denominator")]
        return [f"{k}: got {got[k]} expected {v}" for k, v in expected.items() if got[k] != v]

    def _check_violations(self, out: dict) -> list[str]:
        errors = []
        cells = out.get("cells", {})
        for category in CATEGORIES:
            for relation in RELATIONS:
                want = self.cells.get(category, {}).get(relation, 0)
                got = cells.get(category, {}).get(relation)
                if got != want:
                    errors.append(f"cell {category}/{relation}: got {got} expected {want}")
        for relation in RELATIONS:
            count = sum(self.cells.get(c, {}).get(relation, 0) for c in VIOLATIONS)
            base = count + self.cells.get("no-violation", {}).get(relation, 0)
            total = out.get("violations_total", {}).get(relation, {})
            if [total.get("count"), total.get("denominator")] != [count, base]:
                errors.append(f"violations_total/{relation}: got {total} expected {count}/{base}")
        return errors

    def _check_directive_diff(self, out: dict) -> list[str]:
        expected = dict(self.diff)
        pairs = expected.pop("__pairs__")
        got = {name: r.get("count") for name, r in out.get("directives", {}).items()}
        errors = []
        if out.get("pairs_total") != pairs:
            errors.append(f"pairs_total: got {out.get('pairs_total')} expected {pairs}")
        if got != expected:
            errors.append(f"directive counts: got {got} expected {expected}")
        return errors

    def _check_csp_per_site(self, out: dict) -> list[str]:
        expected = {"buckets": self.per_site, "sites_total": sum(self.per_site.values())}
        got = {"buckets": out.get("buckets"), "sites_total": out.get("sites_total")}
        return [] if got == expected else [f"got {got} expected {expected}"]

    def _check_potential(self, out: dict) -> list[str]:
        by_url = {p["url"]: p for p in self.pages}
        flagged = self.flagged
        csp_pages = [p for p in self.pages if p["policies"]]
        expected: dict[str, object] = {
            "pages_with_csp": len(csp_pages),
            "origins_with_csp": len({(p["scheme"], p["host"], p["port"]) for p in csp_pages}),
            "sites_with_csp": len({p["site"] for p in csp_pages}),
        }
        for label, no, diff in (("same_origin", "so_no", "so_diff"), ("relaxed", "rx_no", "rx_diff")):
            counts = {}
            for kind, bucket in (("no", no), ("diff", diff)):
                pages = [by_url[u] for u in flagged[bucket]]
                counts[f"pages_peer_{kind}_csp"] = len(pages)
                counts[f"origins_peer_{kind}_csp"] = len(
                    {(p["scheme"], p["host"], p["port"]) for p in pages})
                counts[f"sites_peer_{kind}_csp"] = len({p["site"] for p in pages})
            counts["pages_total"] = len(flagged[no]) + len(flagged[diff])
            expected[label] = counts
        union = set().union(*flagged.values())
        expected["flagged_pages_total"] = [len(union), len(csp_pages)]
        got = {key: out.get(key) for key in expected}
        total = out.get("flagged_pages_total") or {}
        got["flagged_pages_total"] = [total.get("count"), total.get("denominator")]
        errors = [f"{k}: got {got[k]} expected {v}" for k, v in expected.items() if got[k] != v]

        def verdict(url: str, no: str, diff: str) -> str:
            if url in flagged[no]:
                return "peer-without-csp"
            return "peer-with-different-csp" if url in flagged[diff] else "none"

        want = {(u, verdict(u, "so_no", "so_diff"), verdict(u, "rx_no", "rx_diff")) for u in union}
        verdicts = out.get("verdicts", [])
        have = {(v.get("url"), v.get("same_origin"), v.get("relaxed")) for v in verdicts}
        if have != want or len(verdicts) != len(want):
            errors.append(f"verdicts: {len(have ^ want)} differ from the oracle")
        return errors


def read_corpus_file(path: Path) -> list[dict]:
    """Records of a gzipped corpus file, read with gzip and json alone."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [json.loads(line) for line in lines[1:] if line.strip()]


def crawl_mismatches(records: list[dict], expected: list[Rec]) -> tuple[int, list[str]]:
    """Crawled records that differ from the world manifest, counting
    unplanted network failures; returns (failed records, descriptions)."""
    want = {r.url: r for r in expected}
    errors: list[str] = []
    failed = 0
    seen: set[str] = set()
    for data in records:
        url = data.get("url")
        rec = want.get(url)
        problems = []
        if data.get("fetch_status") in ("network-error", "timeout"):
            problems.append(f"unplanted {data['fetch_status']}")
        if rec is None:
            problems.append("not in the manifest")
        elif url in seen:
            problems.append("written twice")
        else:
            got = (data.get("depth"), data.get("fetch_status"), data.get("http_status"),
                   data.get("final_url"), data.get("site"),
                   [(p["raw"], p["disposition"], p["delivery"]) for p in data.get("policies", [])],
                   data.get("iframes_same_site"), data.get("srcdoc_iframes"))
            expect = (rec.depth, rec.fetch_status, rec.http_status, rec.final_url, rec.site,
                      rec.policies, rec.iframes, rec.srcdoc)
            if got != expect:
                problems.append(f"got {got} expected {expect}")
        seen.add(url)
        if problems:
            failed += 1
            errors.append(f"{url}: {'; '.join(problems)}")
    for url in want.keys() - seen:
        failed += 1
        errors.append(f"{url}: missing from the corpus")
    return failed, errors
