"""Command-line entry point wiring the audit workflows together.

Exit codes: 0 success, 1 usage error, 2 I/O error, and 3 when audit-pair
finds an exploitable couple, so CI jobs can gate on their own sites.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import report as report_mod
from .compare import compare
from .corpus import DEPTH_HOME, DEPTH_IFRAME_HOME, STATUS_OK, CorpusFormatError, write_corpus
from .crawler import CrawlConfig, _absolute, build_record, crawl_sites, fetch
from .detector import RELATION_UNRELATED, PairClassification, classify_pair, recommend
from .fixtures import DEFAULT_BEACON, DEFAULT_PAGE_CSP, DEFAULT_PAGE_ORIGIN, generate_suite
from .normalize import normalize
from .origins import UnsupportedUrlError, origin_of
from .policy import ENFORCE, REPORT_ONLY, parse_policy

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


def _read_text(path: str, encoding: str = "utf-8") -> str:
    """An input file's text. Bytes that do not decode are an I/O error
    (exit 2) that names the file, as a missing file is."""
    try:
        with open(path, encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc


def _read_policy_arg(args) -> str:
    if args.policy is not None:
        return args.policy
    if args.file is None:
        raise UsageError(f"{args.command} requires --policy or --file")
    return _read_text(args.file).strip()


def _emit(value, out_path: str | None = None, fmt: str = report_mod.FORMAT_JSON) -> None:
    if out_path:
        with open(out_path, "wb") as fh:
            report_mod.render(value, fmt, fh)
    else:
        report_mod.render(value, fmt, sys.stdout.buffer)
        sys.stdout.flush()


def _check_writable(out_path: str | None) -> None:
    """Fail on an unwritable output path before any work is done; the file
    is created if missing and left as it is otherwise."""
    if out_path:
        open(out_path, "ab").close()


class _ResolveAction(argparse.Action):
    """Adds each --resolve HOST=ADDR[:PORT] to a host -> target dict."""

    def __call__(self, parser, namespace, entry, option_string=None):
        host, sep, target = entry.partition("=")
        if not sep or not host or not target:
            raise UsageError(f"--resolve expects HOST=ADDR[:PORT], got {entry!r}")
        vars(namespace).setdefault(self.dest, {})[host.lower()] = target


def _true_or_false(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


def _config_from_args(args) -> CrawlConfig:
    """Crawl settings from the flags given, defaults for the rest.

    Each crawl flag stores into the CrawlConfig field it sets, and stores
    nothing when it is not given. CrawlConfig validates the values; an
    out-of-range one is a usage error.
    """
    given = vars(args)
    try:
        return CrawlConfig(**{f.name: given[f.name] for f in fields(CrawlConfig) if f.name in given})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_fetch_args(p: argparse.ArgumentParser) -> None:
    """The fetch flags of audit-pair and crawl. A crawl setting's flag
    stores into its CrawlConfig field, only when given."""
    p.add_argument("--resolve", action=_ResolveAction, dest="resolve_overrides",
                   metavar="HOST=ADDR[:PORT]", default=argparse.SUPPRESS)
    p.add_argument("--timeout", type=float, metavar="S", default=argparse.SUPPRESS)
    p.add_argument("--user-agent", metavar="UA", default=argparse.SUPPRESS)


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    """The corpus flags of analyze and potential."""
    p.add_argument("--corpus", required=True)
    formats = (report_mod.FORMAT_TEXT, report_mod.FORMAT_JSON, report_mod.FORMAT_CSV)
    p.add_argument("--format", choices=formats, default=report_mod.FORMAT_TEXT)
    p.add_argument("--out", help="write to file instead of stdout")


def build_parser(command: str | None = None) -> _Parser:
    """The command line's parser. Given a command's name, only that
    subcommand gets its arguments: the others keep their name and help,
    which is all the top-level help, usage line and "invalid choice" error
    read. Without one, every subcommand gets its arguments.
    """
    parser = _Parser(prog="cspsop", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, help: str, **kwargs) -> _Parser | None:
        if command not in (None, name):
            sub.add_parser(name, help=help, add_help=False)
            return None
        return sub.add_parser(name, help=help, **kwargs)

    if p := add("parse", "parse a policy string"):
        p.set_defaults(run=_cmd_parse)
        p.add_argument("--policy", help="policy text")
        p.add_argument("--file", help="file containing the policy text")
        p.add_argument("--report-only", action="store_true", help="mark as report-only")

    if p := add("normalize", "canonicalize a policy against a page origin"):
        p.set_defaults(run=_cmd_normalize)
        p.add_argument("--policy")
        p.add_argument("--file")
        p.add_argument("--origin", required=True, help="page URL or origin, e.g. http://x.com")

    if p := add("compare", "diff two policies directive by directive"):
        p.set_defaults(run=_cmd_compare)
        p.add_argument("--a", required=True)
        p.add_argument("--origin-a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--origin-b", required=True)

    if p := add("audit-pair", "fetch a parent and iframe URL and classify the couple"):
        p.set_defaults(run=_cmd_audit_pair)
        _add_fetch_args(p)
        p.add_argument("--parent", required=True)
        p.add_argument("--iframe", required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := add("crawl", "crawl seed sites and write a corpus", argument_default=argparse.SUPPRESS):
        p.set_defaults(run=_cmd_crawl)
        _add_fetch_args(p)
        p.add_argument("--seeds", required=True, help="file with one seed URL per line")
        p.add_argument("--out", required=True, help="corpus path (.jsonl or .jsonl.gz)")
        p.add_argument("--max-pages", type=int, dest="max_pages_per_site", metavar="N")
        p.add_argument("--parallel", type=int, dest="parallel_sites", metavar="K",
                       help="sites crawled at once, each in a forked worker process")
        p.add_argument("--politeness", type=float, dest="politeness_delay", metavar="S",
                       help="seconds between requests per site")
        p.add_argument("--respect-robots", type=_true_or_false, metavar="true|false")
        p.add_argument("--naive-sites", action="store_true", help="last-two-labels site mode")

    if p := add("analyze", "compute report tables over a corpus"):
        p.set_defaults(run=_cmd_analyze)
        _add_corpus_args(p)
        p.add_argument("--table", choices=report_mod.TABLES, default="adoption")

    if p := add("potential", "shortcut for analyze --table potential"):
        p.set_defaults(run=_cmd_analyze, table="potential")
        _add_corpus_args(p)

    if p := add("recommend", "mitigations for a classified couple"):
        p.set_defaults(run=_cmd_recommend)
        p.add_argument(
            "--relation", required=True, choices=report_mod.RELATIONS + (RELATION_UNRELATED,)
        )
        p.add_argument("--category", required=True, choices=report_mod.CATEGORIES)
        p.add_argument("--format", choices=["text", "json"], default="text")

    if p := add("fixtures", "generate srcdoc/sandbox conformance pages"):
        p.set_defaults(run=_cmd_fixtures)
        p.add_argument("--out", required=True)
        p.add_argument("--beacon", default=DEFAULT_BEACON)
        p.add_argument("--page-origin", default=DEFAULT_PAGE_ORIGIN)
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
                "mitigations": mitigations,
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
    lines = _read_text(args.seeds, "utf-8-sig").split("\n")
    # Each seed is crawled once. crawl_site drops a seed's fragment (a seed
    # that does not parse keeps its text), so seeds that differ only there are one.
    seeds = list(dict.fromkeys(
        line if (url := _absolute("", line)) is None else url
        for line in map(str.strip, lines) if line and not line.startswith("#")
    ))
    _check_writable(args.out)  # before the first request
    records = crawl_sites(seeds, config)
    records.sort(key=lambda r: (r.site or "", r.url))
    # Every setting but where the hosts were served: crawls of one world
    # from two ports write equal headers.
    settings = {k: v for k, v in vars(config).items() if k != "resolve_overrides"}
    count = write_corpus(records, args.out, meta={"seeds": len(seeds), "config": settings})
    print(f"crawled {count} pages from {len(seeds)} seeds -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _check_writable(args.out)  # before the corpus is read
    _emit(report_mod.run_table(args.corpus, args.table), args.out, args.format)
    return EXIT_OK


def _cmd_recommend(args) -> int:
    mitigations = recommend(PairClassification(args.relation, args.category))
    if args.format == "json":
        _emit(mitigations)
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


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so the first
    # argument that is no option is the command argparse runs. A first
    # positional that looks like an option, such as "-", is no command, and
    # its "invalid choice" error needs only the names.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.run(args)
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
