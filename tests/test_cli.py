import json
from pathlib import Path

import pytest

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
from helpers import make_page, make_violation_corpus

GOLDEN_DIR = Path(__file__).parent / "golden"

STRICT_CSP = "default-src 'none'; script-src 'self'; child-src 'self'"


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

    def test_user_agent_env_override(self, capsys, fixture_site, monkeypatch):
        monkeypatch.setenv("CSPSOP_USER_AGENT", "cspsop-audit/1.0")
        fixture_site.add("/a", "")
        fixture_site.add("/b", "")
        main(["audit-pair", "--parent", fixture_site.url("/a"), "--iframe", fixture_site.url("/b")])
        assert set(fixture_site.user_agents) == {"cspsop-audit/1.0"}


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

    def test_zero_politeness_is_kept(self):
        args = build_parser().parse_args(["crawl", "--seeds", "s", "--out", "o", "--politeness", "0"])
        assert _config_from_args(args).politeness_delay == 0

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


class TestNaiveSites:
    """analyze --naive-sites reads sites as the last two host labels in the
    relaxable test of couples only; peer tables use the recorded site."""

    @pytest.fixture
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(
            [
                make_page("http://a.co.uk/", "default-src 'self'", iframes=["http://b.co.uk/"]),
                make_page("http://b.co.uk/"),
            ],
            path,
        )
        return str(path)

    @staticmethod
    def _json(capsys, *argv) -> dict:
        assert main([*argv, "--format", "json"]) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    def test_violations_couple_becomes_relaxable(self, capsys, corpus_path):
        argv = ["analyze", "--corpus", corpus_path, "--table", "violations"]
        psl = self._json(capsys, *argv)
        naive = self._json(capsys, *argv, "--naive-sites")
        assert sum(sum(row.values()) for row in psl["cells"].values()) == 0
        assert psl["couples_excluded_unrelated"] == 1
        assert sum(sum(row.values()) for row in naive["cells"].values()) == 1
        assert naive["cells"]["only-parent-csp"]["relaxable"] == 1
        assert naive["couples_excluded_unrelated"] == 0

    def test_potential_unchanged(self, capsys, corpus_path):
        argv = ["analyze", "--corpus", corpus_path, "--table", "potential"]
        assert self._json(capsys, *argv) == self._json(capsys, *argv, "--naive-sites")

    def test_potential_shortcut_rejects_flag(self, capsys, corpus_path):
        assert main(["potential", "--corpus", corpus_path, "--naive-sites"]) == EXIT_USAGE


class TestRecommend:
    def test_relaxable_different(self, capsys):
        code = main(["recommend", "--relation", "relaxable", "--category", "different-csp", "--format", "json"])
        assert code == EXIT_OK
        kinds = [m["kind"] for m in json.loads(capsys.readouterr().out)]
        assert kinds == ["origin-wide-csp", "document-domain-freeze", "sandbox-directive"]

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
