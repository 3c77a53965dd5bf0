import argparse
import json
import re
import zlib
from dataclasses import fields, replace
from pathlib import Path

import pytest

from cspsop import cli, report
from cspsop.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _config_from_args,
    build_parser,
    main,
)
from cspsop.corpus import read_corpus, record_to_dict, write_corpus
from cspsop.crawler import CrawlConfig
from cspsop.origins import NAIVE_SUFFIXES, site_of
from helpers import (
    make_adoption_corpus,
    make_corpus,
    make_page,
    make_shuffled_corpus,
    make_violation_corpus,
    record_to_oracle_page,
)
from oracles import oracle_violation_cells

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

STRICT_CSP = "default-src 'none'; script-src 'self'; child-src 'self'"

# The mitigation texts that audit-pair and recommend print, spelled out.
ORIGIN_WIDE_ADVICE = (
    "Deliver one identical effective CSP on every page of the origin, "
    "so no embeddable document is weaker than its embedder."
)
FREEZE_ADVICE = (
    "Run a first script that freezes document.domain, preventing any "
    "later code from relaxing the origin to the shared parent domain."
)
FREEZE_SNIPPET = (
    'Object.defineProperty(document, "domain", '
    "{ __proto__: null, writable: false, configurable: false});"
)
SANDBOX_ADVICE = (
    "If the iframe does not need the page's origin, isolate it with the "
    "sandbox CSP directive (no allow-same-origin): a unique origin makes "
    "SOP shield both documents, and the directive cannot be stripped by "
    "scripts the way the iframe attribute can."
)


def _record_with(**fields) -> dict:
    return {**record_to_dict(make_violation_corpus()[0]), **fields}


def _record_with_policy(**policy) -> dict:
    return _record_with(
        policies=[{"raw": STRICT_CSP, "disposition": "enforce", "delivery": "http-header", **policy}]
    )


def _origin_with(**fields) -> dict:
    record = _record_with()
    return {**record, "origin": {**record["origin"], **fields}}


def _corpus_text(record) -> str:
    header = {"format": "cspsop-corpus", "schema": 1, "created": "2026-01-01T00:00:00+00:00"}
    return json.dumps(header) + "\n" + json.dumps(record) + "\n"


class TestUsage:
    def test_no_args(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["compare", "--a", "x"]) == EXIT_USAGE

    def test_parse_needs_policy_or_file(self, capsys):
        assert main(["parse"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--max-links", "--max-iframes"])
    def test_removed_page_cap_flags(self, capsys, tmp_path, flag):
        out = tmp_path / "corpus.jsonl"
        assert main(["crawl", "--seeds", "s", "--out", str(out), flag, "1"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--resolve", "main.com", "--resolve expects HOST=ADDR[:PORT], got 'main.com'"),
        ("--respect-robots", "maybe", "argument --respect-robots: expected true or false, got 'maybe'"),
    ])
    def test_bad_crawl_flag_value(self, capsys, tmp_path, flag, value, message):
        out = tmp_path / "corpus.jsonl"
        assert main(["crawl", "--seeds", "s", "--out", str(out), flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {message}\n")
        assert not out.exists()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _flags(command: str) -> dict[str, str]:
    """Each option string of a subcommand but --help, with its dest."""
    return {
        option: action.dest
        for action in _subcommands()[command]._actions
        for option in action.option_strings
        if action.dest != "help"
    }


@pytest.mark.parametrize("command", ["crawl", "audit-pair"])
def test_crawl_flags_store_into_config_fields(command):
    settings = {f.name for f in fields(CrawlConfig)}
    others = {"--seeds", "--out", "--parent", "--iframe", "--format"}
    dests = {flag: dest in settings for flag, dest in _flags(command).items()}
    assert dests == {flag: flag not in others for flag in dests}


def test_readme_synopsis_names_every_option():
    block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    # The text from each "cspsop COMMAND" to the next, by command.
    synopsis = dict(line.split(" ", 1) for line in re.split(r"^cspsop ", block, flags=re.M)[1:])
    missing = {
        command: [flag for flag in _flags(command)
                  if not re.search(rf"{flag}(?![\w-])", synopsis.get(command, ""))]
        for command in _subcommands()
    }
    assert {command: flags for command, flags in missing.items() if flags} == {}


def _main_result(argv: list[str], capsys) -> tuple:
    """main's exit status, standard output and standard error for argv."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


COMMANDS = list(_subcommands())


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in COMMANDS),
    *([command, "--no-such-flag"] for command in COMMANDS),
    ["--help"], ["-h", "parse"], [], ["no-such-command"], ["-", "parse"], ["--", "parse"],
    ["parse", "--policy"], ["potential"], ["analyze", "--table", "no-such-table", "--corpus", "c"],
    ["crawl", "--seeds", "s", "--out", "o", "--max-pages", "x"],
], ids=" ".join)
def test_one_subcommand_parser_reads_like_the_full_parser(argv, capsys, monkeypatch):
    one = _main_result(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert one == _main_result(argv, capsys)


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []

    def recording_build_parser(command=None):
        built.append(build_parser(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert main(["parse", "--policy", "img-src 'self'"]) == EXIT_OK
    subcommands = next(a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction))
    assert [name for name, p in subcommands.choices.items() if p._actions] == ["parse"]
    assert list(subcommands.choices) == COMMANDS


class TestParse:
    def test_json_output(self, capsys):
        code = main(["parse", "--policy", "script-src 'self' cdn.net; sandbox allow-scripts"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["directives"]["script-src"] == ["'self'", "cdn.net"]
        assert payload["directives"]["sandbox"] == ["allow-scripts"]
        assert payload["disposition"] == "enforce"

    def test_report_only_flag(self, capsys):
        main(["parse", "--policy", "img-src 'none'", "--report-only"])
        assert json.loads(capsys.readouterr().out)["disposition"] == "report-only"

    def test_warnings_surfaced(self, capsys):
        main(["parse", "--policy", "script-src a.com; script-src b.com"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == [{"kind": "duplicate-directive", "detail": "script-src"}]

    def test_from_file(self, capsys, tmp_path):
        policy_file = tmp_path / "policy.txt"
        policy_file.write_text("img-src 'self'\n")
        assert main(["parse", "--file", str(policy_file)]) == EXIT_OK
        assert "img-src" in json.loads(capsys.readouterr().out)["directives"]

    @pytest.mark.parametrize("argv", [["parse"], ["normalize", "--origin", "http://x.com"]])
    def test_undecodable_file_exits_2(self, capsys, tmp_path, argv):
        policy_file = tmp_path / "policy.txt"
        policy_file.write_bytes(b"img-src \xff\n")
        assert main([*argv, "--file", str(policy_file)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"error: {re.escape(str(policy_file))}: [^\n]+\n", err), err


class TestNormalize:
    def test_canonical_sets(self, capsys):
        code = main(
            ["normalize", "--policy", "default-src 'self'; script-src third.com", "--origin", "http://main.com"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["page_origin"] == "http://main.com"
        assert sorted(payload["directives"]["script-src"]) == ["http://third.com", "https://third.com"]
        assert payload["directives"]["img-src"] == ["http://main.com"]

    def test_bad_origin_is_usage_error(self, capsys):
        assert main(["normalize", "--policy", "img-src 'self'", "--origin", "not a url"]) == EXIT_USAGE

    def test_port_zero_origin_is_usage_error(self, capsys):
        code = main(["normalize", "--policy", "img-src 'self'", "--origin", "http://x.com:0/"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == ["error: invalid port in 'http://x.com:0/'"]


class TestCompare:
    def test_equal_policies(self, capsys):
        code = main(
            [
                "compare",
                "--a", "script-src 'self'", "--origin-a", "http://x.com",
                "--b", "script-src 'self'", "--origin-b", "http://x.com",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["equal"] is True
        assert payload["differing_directives"] == []

    def test_differing_policies(self, capsys):
        main(
            [
                "compare",
                "--a", "script-src 'self'", "--origin-a", "http://x.com",
                "--b", "script-src 'self'", "--origin-b", "http://y.com",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["equal"] is False
        assert payload["differing_directives"] == ["script-src"]
        assert payload["detail"]["script-src"]["only_in_a"] == ["http://x.com"]


_COMMAND_GOLDENS = {
    "parse": [
        "parse", "--policy",
        "script-src 'self' cdn.net; script-src b.com; img-src ftp://x.com:99999; "
        "sandbox allow-scripts allow-forms",
    ],
    "normalize": [
        "normalize", "--origin", "http://main.com", "--policy",
        "default-src 'self'; script-src third.com:8080 https://cdn.net 'nonce-abc' "
        "'unsafe-inline'; img-src *",
    ],
    "compare-equal": [
        "compare", "--a", "script-src 'self'", "--origin-a", "http://x.com",
        "--b", "script-src 'self'", "--origin-b", "http://x.com:80",
    ],
    "compare-differing": [
        "compare", "--a", "default-src 'self'; img-src c.com a.com; report-uri /r",
        "--origin-a", "https://x.com",
        "--b", "default-src 'self'; script-src b.com", "--origin-b", "https://x.com",
    ],
    "recommend-relaxable-different": [
        "recommend", "--relation", "relaxable", "--category", "different-csp", "--format", "json",
    ],
    "recommend-no-violation": [
        "recommend", "--relation", "same-origin", "--category", "no-violation", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(_COMMAND_GOLDENS))
def test_command_json_golden(capsys, name):
    """The JSON of the policy and advice commands, byte for byte: the parse
    warnings and value lists, normalize's two-scheme host expansion,
    compare's equal and differing results, and recommend's mitigations."""
    assert main(_COMMAND_GOLDENS[name]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / f"cli-{name}.json").read_bytes()


# The table json goldens, each with the corpus it was written from.
_TABLE_GOLDENS = {
    "adoption": make_adoption_corpus,
    "potential": make_shuffled_corpus,
    "directive-diff": make_shuffled_corpus,
    "violations": make_shuffled_corpus,
}


@pytest.mark.parametrize("table", sorted(_TABLE_GOLDENS))
def test_table_json_golden_to_out_and_stdout(capsysbinary, tmp_path, table):
    """The json a table command streams into --out, or into stdout, is its
    golden byte for byte."""
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(_TABLE_GOLDENS[table](), corpus_path)
    argv = ["analyze", "--corpus", str(corpus_path), "--table", table, "--format", "json"]
    golden = (GOLDEN_DIR / f"{table}.json").read_bytes()
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == golden
    assert main(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == golden


class TestAuditPair:
    def test_only_parent_csp_exits_3(self, capsys, fixture_site):
        fixture_site.add("/A.html", '<iframe src="B.html"></iframe>',
                         headers=[("Content-Security-Policy", STRICT_CSP)])
        fixture_site.add("/B.html", "<p>no csp</p>")
        code = main(
            ["audit-pair", "--parent", fixture_site.url("/A.html"),
             "--iframe", fixture_site.url("/B.html"), "--format", "json"]
        )
        assert code == EXIT_VIOLATION
        payload = json.loads(capsys.readouterr().out)
        assert payload["relation"] == "same-origin"
        assert payload["category"] == "only-parent-csp"
        assert [m["kind"] for m in payload["mitigations"]] == ["origin-wide-csp", "sandbox-directive"]

    def test_equal_policies_exit_0(self, capsys, fixture_site):
        fixture_site.add("/A.html", "", headers=[("Content-Security-Policy", "img-src 'self'")])
        fixture_site.add("/B.html", "", headers=[("Content-Security-Policy", "img-src 'self'")])
        code = main(
            ["audit-pair", "--parent", fixture_site.url("/A.html"), "--iframe", fixture_site.url("/B.html")]
        )
        assert code == EXIT_OK
        assert "no-violation" in capsys.readouterr().out

    def test_fetch_failure_exits_2(self, capsys):
        code = main(
            ["audit-pair", "--parent", "http://no-such-host.invalid/",
             "--iframe", "http://no-such-host.invalid/b", "--timeout", "2"]
        )
        assert code == EXIT_IO

    def test_unparseable_url_exits_2(self, capsys, fixture_site):
        fixture_site.add("/b", "")
        code = main(["audit-pair", "--parent", "http://[::1#x", "--iframe", fixture_site.url("/b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "fetch failed: parent=network-error iframe=ok" in err and "Traceback" not in err

    def test_nul_charset_is_read_as_utf8(self, capsys, fixture_site):
        fixture_site.add("/a", "", headers=[("Content-Security-Policy", "img-src 'self'")],
                         content_type="text/html; charset=\x00")
        fixture_site.add("/b", "", headers=[("Content-Security-Policy", "img-src 'self'")])
        code = main(["audit-pair", "--parent", fixture_site.url("/a"),
                     "--iframe", fixture_site.url("/b")])
        assert code == EXIT_OK
        assert "no-violation" in capsys.readouterr().out

    def test_user_agent_flag(self, capsys, fixture_site):
        fixture_site.add("/a", "")
        fixture_site.add("/b", "")
        main(["audit-pair", "--parent", fixture_site.url("/a"), "--iframe", fixture_site.url("/b"),
              "--user-agent", "cspsop-audit/1.0"])
        assert fixture_site.user_agents == ["cspsop-audit/1.0"] * 2

    def test_relaxable_different_csp_text(self, capsys, fixture_site):
        # Two hosts of one site: relaxable through document.domain.
        parent_csp = "default-src 'none'; img-src https://cdn.net; script-src https://cdn.net"
        iframe_csp = "default-src 'none'; img-src *; script-src *"
        fixture_site.add("/A.html", '<iframe src="http://b.main.com/B.html"></iframe>',
                         host="a.main.com", headers=[("Content-Security-Policy", parent_csp)])
        fixture_site.add("/B.html", "", host="b.main.com",
                         headers=[("Content-Security-Policy", iframe_csp)])
        port = fixture_site.port
        code = main(["audit-pair", "--parent", "http://a.main.com/A.html",
                     "--iframe", "http://b.main.com/B.html",
                     "--resolve", f"a.main.com=127.0.0.1:{port}",
                     "--resolve", f"b.main.com=127.0.0.1:{port}"])
        assert code == EXIT_VIOLATION
        assert capsys.readouterr().out == (
            "parent:   http://a.main.com/A.html [http://a.main.com]\n"
            "iframe:   http://b.main.com/B.html [http://b.main.com]\n"
            "relation: relaxable\n"
            "category: different-csp\n"
            "evidence: img-src, script-src\n"
            f"mitigate: [origin-wide-csp] {ORIGIN_WIDE_ADVICE}\n"
            f"mitigate: [document-domain-freeze] {FREEZE_ADVICE}\n"
            f"          {FREEZE_SNIPPET}\n"
            f"mitigate: [sandbox-directive] {SANDBOX_ADVICE}\n"
        )

    @pytest.mark.parametrize("user_agent", ["a\nb", "café中"])
    def test_unsendable_user_agent_exits_1(self, capsys, user_agent):
        code = main(["audit-pair", "--parent", "http://127.0.0.1:9/",
                     "--iframe", "http://127.0.0.1:9/b", "--user-agent", user_agent])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: user_agent" in err and "Traceback" not in err


class TestCrawlAndAnalyze:
    def test_crawl_writes_corpus(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", '<a href="/a.html">a</a>',
                         headers=[("Content-Security-Policy", "img-src 'self'")], host="main.com")
        fixture_site.add("/a.html", "<p>leaf</p>", host="main.com")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://main.com/\n")
        out = tmp_path / "corpus.jsonl"
        code = main(
            [
                "crawl", "--seeds", str(seeds), "--out", str(out),
                "--politeness", "0", "--respect-robots", "false",
                "--resolve", f"main.com=127.0.0.1:{fixture_site.port}",
            ]
        )
        assert code == EXIT_OK
        records = read_corpus(out)
        assert {r.url for r in records} == {"http://main.com/", "http://main.com/a.html"}

    def test_crawl_user_agent_flag(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", '<a href="/a.html">a</a>', host="main.com")
        fixture_site.add("/a.html", "<p>leaf</p>", host="main.com")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://main.com/\n")
        code = main([
            "crawl", "--seeds", str(seeds), "--out", str(tmp_path / "corpus.jsonl"),
            "--politeness", "0", "--user-agent", "cspsop-audit/1.0",
            "--resolve", f"main.com=127.0.0.1:{fixture_site.port}",
        ])
        assert code == EXIT_OK
        # robots.txt, the home page and its link
        assert fixture_site.user_agents == ["cspsop-audit/1.0"] * 3

    def test_unsupported_seed_keeps_other_sites(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", "<p>home</p>", host="main.com")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("ftp://x.com/\nhttp://main.com/\n")
        out = tmp_path / "corpus.jsonl"
        code = main(
            [
                "crawl", "--seeds", str(seeds), "--out", str(out),
                "--politeness", "0", "--respect-robots", "false",
                "--resolve", f"main.com=127.0.0.1:{fixture_site.port}",
            ]
        )
        assert code == EXIT_OK
        records = {r.url: r for r in read_corpus(out)}
        assert set(records) == {"ftp://x.com/", "http://main.com/"}
        failed = records["ftp://x.com/"]
        assert (failed.fetch_status, failed.origin, failed.site) == ("network-error", None, None)
        assert records["http://main.com/"].fetch_status == "ok"

    def test_unparseable_seed_keeps_other_sites(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", "<p>home</p>", host="main.com")
        assert self._crawl(tmp_path, fixture_site, b"http://[::1#x\nhttp://main.com/\n") == EXIT_OK
        records = read_corpus(tmp_path / "corpus.jsonl")
        assert [(r.url, r.fetch_status) for r in records] == [
            ("http://[::1#x", "network-error"), ("http://main.com/", "ok"),
        ]

    def _crawl_two_sites(self, tmp_path, fixture_site) -> list[tuple[str, str]]:
        """Crawls main.com and other.net, with robots.txt read, and returns
        the corpus's (url, fetch_status) pairs."""
        fixture_site.add("/", "<p>other</p>", host="other.net")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://main.com/\nhttp://other.net/\n")
        out = tmp_path / "corpus.jsonl"
        code = main([
            "crawl", "--seeds", str(seeds), "--out", str(out), "--politeness", "0",
            "--resolve", f"main.com=127.0.0.1:{fixture_site.port}",
            "--resolve", f"other.net=127.0.0.1:{fixture_site.port}",
        ])
        assert code == EXIT_OK
        return [(r.url, r.fetch_status) for r in read_corpus(out)]

    def test_unparseable_robots_rule_keeps_the_corpus(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/robots.txt", "User-agent: *\nDisallow: http://[::1\nDisallow: /p\n",
                         host="main.com", content_type="text/plain")
        fixture_site.add("/", '<a href="/p.html">p</a><a href="/a.html">a</a>', host="main.com")
        fixture_site.add("/p.html", "<p>private</p>", host="main.com")
        fixture_site.add("/a.html", "<p>a</p>", host="main.com")
        assert self._crawl_two_sites(tmp_path, fixture_site) == [
            ("http://main.com/", "ok"), ("http://main.com/a.html", "ok"), ("http://other.net/", "ok"),
        ]

    def test_nul_charset_keeps_the_corpus(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", '<a href="/a.html">a</a>', host="main.com",
                         content_type="text/html; charset=\x00")
        fixture_site.add("/a.html", "<p>a</p>", host="main.com")
        assert self._crawl_two_sites(tmp_path, fixture_site) == [
            ("http://main.com/", "ok"), ("http://main.com/a.html", "ok"), ("http://other.net/", "ok"),
        ]

    def _crawl(self, tmp_path, fixture_site, seeds: bytes, out=None) -> int:
        seeds_path = tmp_path / "seeds.txt"
        seeds_path.write_bytes(seeds)
        return main([
            "crawl", "--seeds", str(seeds_path), "--out", str(out or tmp_path / "corpus.jsonl"),
            "--politeness", "0", "--respect-robots", "false",
            "--resolve", f"main.com=127.0.0.1:{fixture_site.port}",
        ])

    @pytest.mark.parametrize("seeds", [
        b"\xef\xbb\xbfhttp://main.com/\n",
        b"  # a comment\n\t#another\n\nhttp://main.com/\n",
    ], ids=["utf8-bom", "indented-comments"])
    def test_seeds_file_format(self, capsys, tmp_path, fixture_site, seeds):
        fixture_site.add("/", "<p>home</p>", host="main.com")
        assert self._crawl(tmp_path, fixture_site, seeds) == EXIT_OK
        records = read_corpus(tmp_path / "corpus.jsonl")
        assert [(r.url, r.fetch_status) for r in records] == [("http://main.com/", "ok")]

    def test_repeated_seed_is_crawled_once(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", '<a href="/a.html">a</a><a href="/b.html">b</a>', host="main.com")
        fixture_site.add("/a.html", "<p>a</p>", host="main.com")
        fixture_site.add("/b.html", "<p>b</p>", host="main.com")
        seeds = b"http://main.com/\nhttp://main.com/\nhttp://main.com/#top\n"
        assert self._crawl(tmp_path, fixture_site, seeds) == EXIT_OK
        out = tmp_path / "corpus.jsonl"
        assert [r.url for r in read_corpus(out)] == [
            "http://main.com/", "http://main.com/a.html", "http://main.com/b.html",
        ]
        assert json.loads(out.read_text().splitlines()[0])["crawl"]["seeds"] == 1
        assert "from 1 seeds" in capsys.readouterr().err
        assert len(fixture_site.requests) == 3

    def test_unwritable_out_fails_before_crawling(self, capsys, tmp_path, fixture_site):
        fixture_site.add("/", "<p>home</p>", host="main.com")
        out = tmp_path / "no-such-dir" / "corpus.jsonl"
        assert self._crawl(tmp_path, fixture_site, b"http://main.com/\n", out) == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert fixture_site.requests == []

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-pages", "0"),
            ("--max-pages", "-3"),
            ("--timeout", "0"),
            ("--timeout", "nan"),
            ("--parallel", "0"),
            ("--parallel", "-1"),
            ("--politeness", "-1"),
            ("--politeness", "nan"),
            ("--timeout", "inf"),
            ("--timeout", "1e300"),
            ("--politeness", "inf"),
            ("--politeness", "86401"),
            ("--user-agent", "a\nb"),
            ("--user-agent", "café中"),
        ],
    )
    def test_out_of_range_limit_exits_1(self, capsys, tmp_path, flag, value):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://127.0.0.1:9/\n")
        out = tmp_path / "corpus.jsonl"
        code = main(["crawl", "--seeds", str(seeds), "--out", str(out), flag, value])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", [
        "127.0.0.1:xyz", "127.0.0.1:70000", "127.0.0.1:0", "::1:9", "[::1]9", "[main.com]:9",
    ])
    def test_bad_resolve_target_exits_1(self, capsys, tmp_path, target):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://main.com/\n")
        out = tmp_path / "corpus.jsonl"
        code = main(["crawl", "--seeds", str(seeds), "--out", str(out),
                     "--resolve", f"main.com={target}"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and target in err and "Traceback" not in err
        assert not out.exists()

    def test_crawl_through_bracketed_ipv6_resolve(self, capsys, tmp_path, fixture_site_v6):
        fixture_site_v6.add("/", '<a href="/a.html">a</a>', host="main.com")
        fixture_site_v6.add("/a.html", "<p>a</p>", host="main.com")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("http://main.com/\n")
        out = tmp_path / "corpus.jsonl"
        code = main([
            "crawl", "--seeds", str(seeds), "--out", str(out),
            "--politeness", "0", "--respect-robots", "false",
            "--resolve", f"main.com=[::1]:{fixture_site_v6.port}",
        ])
        assert code == EXIT_OK
        assert [(r.url, r.fetch_status) for r in read_corpus(out)] == [
            ("http://main.com/", "ok"), ("http://main.com/a.html", "ok"),
        ]

    def test_undecodable_seeds_file_exits_2(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_bytes("http://main.com/\n".encode("utf-16"))  # starts \xff\xfe
        out = tmp_path / "corpus.jsonl"
        assert main(["crawl", "--seeds", str(seeds), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(seeds))}: [^\n]+\n", err), err
        assert not out.exists()

    def _header(self, tmp_path, port: int) -> dict:
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("")
        out = tmp_path / f"corpus-{port}.jsonl"
        code = main(["crawl", "--seeds", str(seeds), "--out", str(out), "--max-pages", "7",
                     "--resolve", f"main.com=127.0.0.1:{port}"])
        assert code == EXIT_OK
        return json.loads(out.read_text().splitlines()[0])

    def test_header_records_the_settings_but_not_routing(self, capsys, tmp_path):
        header = self._header(tmp_path, 1)
        settings = {f.name: f.default for f in fields(CrawlConfig) if f.name != "resolve_overrides"}
        assert header["crawl"] == {"seeds": 0, "config": {**settings, "max_pages_per_site": 7}}
        # Where the hosts were served is not a setting.
        moved = self._header(tmp_path, 2)
        assert {**moved, "created": None} == {**header, "created": None}

    def test_zero_politeness_is_kept(self):
        args = build_parser().parse_args(["crawl", "--seeds", "s", "--out", "o", "--politeness", "0"])
        assert _config_from_args(args).politeness_delay == 0

    @pytest.mark.parametrize("argv", [["analyze", "--table", "violations"], ["potential"]])
    def test_unwritable_out_fails_before_reading(self, capsys, tmp_path, monkeypatch, argv):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(make_violation_corpus(), corpus_path)
        reads = []
        monkeypatch.setattr(report, "iter_site_groups", lambda *a: reads.append(a) or iter(()))
        monkeypatch.setattr(report, "read_corpus", lambda *a: reads.append(a) or [])
        out = tmp_path / "no-such-dir" / "x.json"
        code = main([*argv, "--corpus", str(corpus_path), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert reads == []

    def test_analyze_adoption_json(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(make_violation_corpus(), corpus_path)
        code = main(["analyze", "--corpus", str(corpus_path), "--table", "adoption", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pages_visited"] == 11

    def test_port_zero_iframe_is_not_same_origin(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(_corpus_text(_record_with(iframes_same_site=["http://v.com:0/x"])))
        code = main(["analyze", "--corpus", str(corpus_path), "--table", "adoption", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pages_with_same_site_iframes"] == 1
        assert payload["pages_with_same_origin_iframes"] == 0

    def test_analyze_violations_golden(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(make_violation_corpus(), corpus_path)
        code = main(["analyze", "--corpus", str(corpus_path), "--table", "violations"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "violations.txt").read_bytes()

    def test_analyze_to_file(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(make_violation_corpus(), corpus_path)
        out = tmp_path / "report.csv"
        code = main(["analyze", "--corpus", str(corpus_path), "--table", "directive-diff", "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("directive,")

    def test_potential_shortcut(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(make_violation_corpus(), corpus_path)
        code = main(["potential", "--corpus", str(corpus_path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # parent1/3/4, iframe-csp, other-csp, same-csp, relaxed-parent, port-differs
        assert payload["pages_with_csp"] == 8

    def test_missing_corpus_exits_2(self, capsys, tmp_path):
        assert main(["analyze", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    @pytest.mark.parametrize(
        "content",
        [
            "not a corpus\n",
            _corpus_text([1]),
            _corpus_text(_record_with_policy(raw=5)),
            _corpus_text(_record_with_policy(raw=["default-src 'self'"])),
            _corpus_text(_record_with_policy(disposition="enforced")),
            _corpus_text(_record_with_policy(delivery="header")),
            _corpus_text(_origin_with(scheme=5)),
            _corpus_text(_origin_with(host=["a.com"])),
            _corpus_text(_origin_with(port=True)),
            _corpus_text(_record_with(iframes_same_site="http://v.com/x")),
            _corpus_text(_record_with(links_same_site="http://v.com/x")),
            _corpus_text(_record_with(links_same_site=[1])),
            _corpus_text(_record_with(site=5)),
            _corpus_text(_record_with(url=5)),
            _corpus_text(_record_with(http_status="200")),
            _corpus_text(_record_with(srcdoc_iframes="1")),
        ],
        ids=["not-a-corpus", "record-not-object", "raw-int", "raw-list", "bad-disposition",
             "bad-delivery", "origin-scheme-int", "origin-host-list", "origin-port-bool",
             "iframes-string", "links-string", "links-int-item", "site-int", "url-int",
             "http-status-string", "srcdoc-string"],
    )
    def test_corrupt_corpus_exits_2(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content)
        assert main(["analyze", "--corpus", str(bad)]) == EXIT_IO
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["gzip-cut-in-half", "gzip-bytes-flipped", "bytes-ff-fe"])
    @pytest.mark.parametrize("command", ["analyze", "potential"])
    def test_unreadable_corpus_exits_2(self, capsys, tmp_path, damage, command):
        """A corpus whose bytes cannot be read or decoded is an I/O error
        that names the first line it could not read, not a traceback."""
        path, line = _damaged_corpus(tmp_path, damage)
        assert main([command, "--corpus", str(path)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        match = re.fullmatch(r"error: line (\d+): [^\n]+\n", err)
        assert match, err
        if line is None:  # the damaged deflate block may hold earlier lines too
            assert 2 <= int(match[1]) <= 121
        else:
            assert int(match[1]) == line


def _damaged_corpus(tmp_path, damage: str) -> tuple[Path, int | None]:
    """A 120-record corpus damaged in one way, and the number of the first
    line that cannot be read, where it is known."""
    path = tmp_path / ("bad.jsonl" if damage == "bytes-ff-fe" else "bad.jsonl.gz")
    records = make_corpus(seed=7, sites=3, pages_per_site=40)
    write_corpus(records, path, created="2026-01-01T00:00:00+00:00")  # fixed bytes
    data = path.read_bytes()
    half = len(data) // 2
    if damage == "gzip-cut-in-half":
        path.write_bytes(data[:half])
        # The first line that the readable prefix does not hold whole.
        return path, zlib.decompressobj(31).decompress(data[:half]).count(b"\n") + 1
    if damage == "gzip-bytes-flipped":
        path.write_bytes(data[:half] + bytes(b ^ 0xFF for b in data[half:half + 40]) + data[half + 40:])
        return path, None
    lines = data.split(b"\n")
    lines[49] = lines[49].replace(b'"url":"', b'"url":"\xff\xfe', 1)
    path.write_bytes(b"\n".join(lines))
    return path, 50


class TestNaiveSites:
    """Every table reads the site each record stored at crawl time, so a
    corpus crawled with --naive-sites (last two host labels) is analyzed
    with that reading; analyze has no site reading of its own."""

    @pytest.fixture
    def corpus_path(self, tmp_path):
        # As crawl --naive-sites writes it: both records carry the site co.uk.
        records = [
            make_page("http://a.co.uk/", "default-src 'self'", iframes=["http://b.co.uk/"]),
            make_page("http://b.co.uk/"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus([replace(r, site=site_of(r.origin.host, NAIVE_SUFFIXES)) for r in records], path)
        return str(path)

    @staticmethod
    def _json(capsys, *argv) -> dict:
        assert main([*argv, "--format", "json"]) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    def test_violations_couple_becomes_relaxable(self, capsys, corpus_path):
        table = self._json(capsys, "analyze", "--corpus", corpus_path, "--table", "violations")
        assert sum(sum(row.values()) for row in table["cells"].values()) == 1
        assert table["cells"]["only-parent-csp"]["relaxable"] == 1
        assert table["couples_excluded_unrelated"] == 0

    def test_violations_match_oracle_and_potential(self, capsys, corpus_path):
        """violations, potential and the oracle read one relaxable rule: the
        couple potential flags is the couple violations counts."""
        table = self._json(capsys, "analyze", "--corpus", corpus_path, "--table", "violations")
        counted = {
            category: {relation: n for relation, n in row.items() if n}
            for category, row in table["cells"].items()
            if any(row.values())
        }
        pages = [record_to_oracle_page(r) for r in read_corpus(corpus_path)]
        assert counted == oracle_violation_cells(pages)
        potential = self._json(capsys, "potential", "--corpus", corpus_path)
        flagged = [v["url"] for v in potential["verdicts"] if v["relaxed"] == "peer-without-csp"]
        assert flagged == ["http://a.co.uk/"]
        assert counted == {"only-parent-csp": {"relaxable": len(flagged)}}

    def test_potential_unchanged(self, capsys, corpus_path):
        potential = self._json(capsys, "analyze", "--corpus", corpus_path, "--table", "potential")
        assert potential["relaxed"]["pages_peer_no_csp"] == 1
        assert potential["same_origin"]["pages_total"] == 0

    def test_analyze_rejects_flag(self, capsys, corpus_path):
        argv = ["analyze", "--corpus", corpus_path, "--table", "violations", "--naive-sites"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_potential_shortcut_rejects_flag(self, capsys, corpus_path):
        assert main(["potential", "--corpus", corpus_path, "--naive-sites"]) == EXIT_USAGE


class TestRecommend:
    def test_relaxable_different(self, capsys):
        code = main(["recommend", "--relation", "relaxable", "--category", "different-csp", "--format", "json"])
        assert code == EXIT_OK
        kinds = [m["kind"] for m in json.loads(capsys.readouterr().out)]
        assert kinds == ["origin-wide-csp", "document-domain-freeze", "sandbox-directive"]

    def test_relaxable_different_text(self, capsys):
        code = main(["recommend", "--relation", "relaxable", "--category", "different-csp"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            f"[origin-wide-csp] {ORIGIN_WIDE_ADVICE}\n"
            f"[document-domain-freeze] {FREEZE_ADVICE}\n"
            f"  {FREEZE_SNIPPET}\n"
            f"[sandbox-directive] {SANDBOX_ADVICE}\n"
        )

    def test_no_violation_empty(self, capsys):
        code = main(["recommend", "--relation", "same-origin", "--category", "no-violation"])
        assert code == EXIT_OK
        assert "no mitigation needed" in capsys.readouterr().out


class TestFixturesCommand:
    def test_generates_suite(self, capsys, tmp_path):
        out = tmp_path / "fixtures"
        code = main(["fixtures", "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cases"]) == 8

    def test_probe_allowed_by_page_csp_is_usage_error(self, capsys, tmp_path):
        # The default page CSP allows its own origin, so a page served from
        # the beacon host could load every probe.
        argv = ["fixtures", "--out", str(tmp_path / "fixtures"),
                "--page-origin", "https://probe-host.invalid"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: probe https://probe-host.invalid/")
        assert "allowed by the page CSP" in err

    def test_rejected_suite_writes_no_file(self, capsys, tmp_path):
        out = tmp_path / "fixtures"
        out.mkdir()
        argv = ["fixtures", "--out", str(out), "--page-origin", "https://probe-host.invalid"]
        assert main(argv) == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("beacon", ["//localhost:8000", "notaurl"])
    def test_relative_beacon_is_usage_error(self, capsys, tmp_path, beacon):
        out = tmp_path / "fixtures"
        assert main(["fixtures", "--out", str(out), "--beacon", beacon]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: probe {beacon}/probe.js is not an absolute http(s) URL\n"
        )
        assert not out.exists()
