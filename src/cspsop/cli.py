"""Command-line entry point wiring the audit workflows together.

Exit codes: 0 success, 1 usage error, 2 I/O error, and 3 when audit-pair
finds an exploitable couple, so CI jobs can gate on their own sites.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report as report_mod
from .compare import compare
from .corpus import CorpusFormatError, iter_site_groups, read_corpus, write_corpus
from .crawler import (
    DEPTH_HOME,
    DEPTH_IFRAME_HOME,
    STATUS_OK,
    CrawlConfig,
    build_record,
    crawl_sites,
    fetch,
)
from .detector import (
    RELATION_UNRELATED,
    PairClassification,
    classify_pair,
    potential_violations,
    recommend,
)
from .fixtures import DEFAULT_PAGE_CSP, generate_suite
from .normalize import normalize
from .origins import UnsupportedUrlError, origin_of
from .policy import ENFORCE, REPORT_ONLY, parse_policy

USER_AGENT_ENV = "CSPSOP_USER_AGENT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VIOLATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise UsageError(message)


def _policy_json(policy) -> dict:
    return {
        "disposition": policy.disposition,
        "delivery": policy.delivery,
        "directives": {name: d.tokens() for name, d in policy.directives.items()},
        "warnings": policy.warnings,
    }


def _read_policy_arg(args) -> str:
    if args.policy is not None:
        return args.policy
    with open(args.file, encoding="utf-8") as fh:
        return fh.read().strip()


def _emit(value, out_path: str | None = None, fmt: str = report_mod.FORMAT_JSON) -> None:
    data = report_mod.render(value, fmt)
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()


def _check_writable(out_path: str | None) -> None:
    """Fail on an unwritable output path before any work is done; the file
    is created if missing and left as it is otherwise."""
    if out_path:
        open(out_path, "ab").close()


def _parse_resolve(entries: list[str]) -> dict[str, str]:
    overrides = {}
    for entry in entries or []:
        host, sep, target = entry.partition("=")
        if not sep or not host or not target:
            raise UsageError(f"--resolve expects HOST=ADDR[:PORT], got {entry!r}")
        overrides[host.lower()] = target
    return overrides


def _config_from_args(args) -> CrawlConfig:
    """Crawl settings from the flags given, defaults for the rest.

    CrawlConfig validates them; an out-of-range value is a usage error.
    """
    respect_robots = getattr(args, "respect_robots", None)
    given = {
        "user_agent": getattr(args, "user_agent", None) or os.environ.get(USER_AGENT_ENV) or None,
        "timeout": getattr(args, "timeout", None),
        "max_pages_per_site": getattr(args, "max_pages", None),
        "max_links_per_page": getattr(args, "max_links", None),
        "max_iframes_per_page": getattr(args, "max_iframes", None),
        "parallel_sites": getattr(args, "parallel", None),
        "politeness_delay": getattr(args, "politeness", None),
        "respect_robots": None if respect_robots is None else respect_robots == "true",
        "naive_sites": getattr(args, "naive_sites", False),
    }
    try:
        return CrawlConfig(
            resolve_overrides=_parse_resolve(getattr(args, "resolve", None)),
            **{name: value for name, value in given.items() if value is not None},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="cspsop", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("parse", help="parse a policy string")
    p.add_argument("--policy", help="policy text")
    p.add_argument("--file", help="file containing the policy text")
    p.add_argument("--report-only", action="store_true", help="mark as report-only")

    p = sub.add_parser("normalize", help="canonicalize a policy against a page origin")
    p.add_argument("--policy")
    p.add_argument("--file")
    p.add_argument("--origin", required=True, help="page URL or origin, e.g. http://x.com")

    p = sub.add_parser("compare", help="diff two policies directive by directive")
    p.add_argument("--a", required=True)
    p.add_argument("--origin-a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--origin-b", required=True)

    p = sub.add_parser("audit-pair", help="fetch a parent and iframe URL and classify the couple")
    p.add_argument("--parent", required=True)
    p.add_argument("--iframe", required=True)
    p.add_argument("--resolve", action="append", metavar="HOST=ADDR[:PORT]")
    p.add_argument("--timeout", type=float)
    p.add_argument("--user-agent")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("crawl", help="crawl seed sites and write a corpus")
    p.add_argument("--seeds", required=True, help="file with one seed URL per line")
    p.add_argument("--out", required=True, help="corpus path (.jsonl or .jsonl.gz)")
    p.add_argument("--max-pages", type=int)
    p.add_argument("--max-links", type=int)
    p.add_argument("--max-iframes", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--parallel", type=int,
                   help="sites crawled at once, each in a forked worker process")
    p.add_argument("--politeness", type=float, help="seconds between requests per site")
    p.add_argument("--respect-robots", choices=["true", "false"], default=None)
    p.add_argument("--naive-sites", action="store_true", help="last-two-labels site mode")
    p.add_argument("--resolve", action="append", metavar="HOST=ADDR[:PORT]")
    p.add_argument("--user-agent")

    corpus_args = argparse.ArgumentParser(add_help=False)
    corpus_args.add_argument("--corpus", required=True)
    corpus_args.add_argument("--format", choices=_RENDER_FORMATS, default="text")
    corpus_args.add_argument("--out", help="write to file instead of stdout")

    p = sub.add_parser("analyze", parents=[corpus_args], help="compute report tables over a corpus")
    p.add_argument("--table", choices=_TABLES, default="adoption")

    p = sub.add_parser("potential", parents=[corpus_args], help="shortcut for analyze --table potential")
    p.set_defaults(table="potential")

    p = sub.add_parser("recommend", help="mitigations for a classified couple")
    p.add_argument(
        "--relation", required=True, choices=report_mod.RELATIONS + (RELATION_UNRELATED,)
    )
    p.add_argument("--category", required=True, choices=report_mod.CATEGORIES)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("fixtures", help="generate srcdoc/sandbox conformance pages")
    p.add_argument("--out", required=True)
    p.add_argument("--beacon", default="https://probe-host.invalid")
    p.add_argument("--page-origin", default="http://localhost:8000")
    p.add_argument("--page-csp", default=DEFAULT_PAGE_CSP)

    return parser


def _cmd_parse(args) -> int:
    disposition = REPORT_ONLY if args.report_only else ENFORCE
    policy = parse_policy(_read_policy_arg(args), disposition)
    _emit(_policy_json(policy))
    return EXIT_OK


def _cmd_normalize(args) -> int:
    policy = parse_policy(_read_policy_arg(args))
    origin = origin_of(args.origin)
    _emit({"page_origin": str(origin), "directives": normalize(policy, origin).directives})
    return EXIT_OK


def _cmd_compare(args) -> int:
    na = normalize(parse_policy(args.a), origin_of(args.origin_a))
    nb = normalize(parse_policy(args.b), origin_of(args.origin_b))
    _emit(compare(na, nb))
    return EXIT_OK


def _mitigations_json(mitigations) -> list[dict]:
    return [
        {"kind": m.kind, "advice": m.advice, **({"snippet": m.snippet} if m.snippet else {})}
        for m in mitigations
    ]


def _cmd_audit_pair(args) -> int:
    config = _config_from_args(args)
    parent = build_record(fetch(args.parent, config), DEPTH_HOME)
    iframe = build_record(fetch(args.iframe, config), DEPTH_IFRAME_HOME)
    if parent.fetch_status != STATUS_OK or iframe.fetch_status != STATUS_OK:
        print(
            f"fetch failed: parent={parent.fetch_status} iframe={iframe.fetch_status}",
            file=sys.stderr,
        )
        return EXIT_IO
    classification = classify_pair(parent, iframe)
    mitigations = recommend(classification)
    if args.format == "json":
        _emit(
            {
                "parent": {"url": parent.url, "origin": str(parent.origin), "policies": len(parent.enforced_policies())},
                "iframe": {"url": iframe.url, "origin": str(iframe.origin), "policies": len(iframe.enforced_policies())},
                "relation": classification.relation,
                "category": classification.category,
                "evidence": classification.evidence,
                "violation": classification.is_violation(),
                "mitigations": _mitigations_json(mitigations),
            }
        )
    else:
        print(f"parent:   {parent.url} [{parent.origin}]")
        print(f"iframe:   {iframe.url} [{iframe.origin}]")
        print(f"relation: {classification.relation}")
        print(f"category: {classification.category}")
        if classification.evidence:
            print(f"evidence: {', '.join(sorted(classification.evidence))}")
        for m in mitigations:
            print(f"mitigate: [{m.kind}] {m.advice}")
            if m.snippet:
                print(f"          {m.snippet}")
    return EXIT_VIOLATION if classification.is_violation() else EXIT_OK


def _cmd_crawl(args) -> int:
    config = _config_from_args(args)
    with open(args.seeds, encoding="utf-8-sig") as fh:
        seeds = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    _check_writable(args.out)  # before the first request
    records = crawl_sites(seeds, config)
    records.sort(key=lambda r: (r.site or "", r.url))
    meta = {"seeds": len(seeds), "config_hash": config.config_hash()}
    count = write_corpus(records, args.out, meta=meta)
    print(f"crawled {count} pages from {len(seeds)} seeds -> {args.out}", file=sys.stderr)
    return EXIT_OK


_RENDER_FORMATS = {
    "text": report_mod.FORMAT_TEXT,
    "json": report_mod.FORMAT_JSON,
    "csv": report_mod.FORMAT_CSV,
}


# Each table over a list of records. The functions are looked up when a
# table runs, not when this dict is built, so a wrapper installed on their
# modules later (bench/tracer.py) sees every call.
_TABLES = {
    "adoption": lambda records: report_mod.adoption_stats(records),
    "violations": lambda records: report_mod.violation_table(records),
    "potential": lambda records: potential_violations(records),
    "directive-diff": lambda records: report_mod.directive_diff_histogram(
        [p.classification for p in report_mod.build_pairs(records)]
    ),
    "csp-per-site": lambda records: report_mod.csp_per_site_distribution(records),
}


def _cmd_analyze(args) -> int:
    """Sum the table over the corpus's site groups; when the corpus is not
    site-local, read it again and run the table over all of it at once."""
    table = _TABLES[args.table]
    _check_writable(args.out)  # before the corpus is read
    result = report_mod.sum_site_groups(iter_site_groups(args.corpus), table)
    if result is None:
        result = table(read_corpus(args.corpus))
    _emit(result, args.out, _RENDER_FORMATS[args.format])
    return EXIT_OK


def _cmd_recommend(args) -> int:
    mitigations = recommend(PairClassification(args.relation, args.category))
    if args.format == "json":
        _emit(_mitigations_json(mitigations))
    else:
        if not mitigations:
            print("no mitigation needed")
        for m in mitigations:
            print(f"[{m.kind}] {m.advice}")
            if m.snippet:
                print(f"  {m.snippet}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    try:
        manifest = generate_suite(
            args.out,
            beacon_base=args.beacon,
            page_origin_url=args.page_origin,
            page_csp=args.page_csp,
        )
    except ValueError as exc:  # a probe the page CSP allows, or bad sandbox flags
        raise UsageError(str(exc)) from exc
    print(f"generated {len(manifest['cases'])} cases in {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "normalize": _cmd_normalize,
    "compare": _cmd_compare,
    "audit-pair": _cmd_audit_pair,
    "crawl": _cmd_crawl,
    "analyze": _cmd_analyze,
    "potential": _cmd_analyze,
    "recommend": _cmd_recommend,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.command in ("parse", "normalize") and args.policy is None and args.file is None:
            raise UsageError(f"{args.command} requires --policy or --file")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except UnsupportedUrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
