import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cspsop
import cspsop.corpus
import cspsop.crawler
from cspsop.corpus import write_corpus
from helpers import make_violation_corpus

SRC = Path(__file__).resolve().parent.parent / "src"

# What only a fetch needs: the HTTP client and its TLS, robots.txt's
# urllib.request, header parsing, and OpenSSL's hashes. The analysis
# commands never fetch, and these modules add about a quarter to their
# peak RSS.
NETWORK_STACK = ("ssl", "http.client", "urllib.request", "email.message", "_hashlib")


def test_every_exported_name_resolves():
    assert [name for name in cspsop.__all__ if not hasattr(cspsop, name)] == []


# The modules that read, classify and count records. They take the record
# from corpus, and none of them needs the crawler.
ANALYSIS_MODULES = ("corpus", "detector", "report", "compare", "normalize", "policy", "origins")


def _imports(module: str) -> set[str]:
    """The absolute names of the modules and module members that a cspsop
    module's source imports."""
    tree = ast.parse((SRC / "cspsop" / f"{module}.py").read_text("utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative; the package is flat
                base = "cspsop" if base is None else f"cspsop.{base}"
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ANALYSIS_MODULES)
def test_analysis_module_does_not_import_the_crawler(module):
    crawler = [
        name for name in _imports(module)
        if name == "cspsop.crawler" or name.startswith("cspsop.crawler.")
    ]
    assert crawler == []


def test_record_is_declared_once():
    assert cspsop.crawler.PageRecord is cspsop.corpus.PageRecord is cspsop.PageRecord
    assert cspsop.corpus.PageRecord.__module__ == "cspsop.corpus"
    vocabulary = [name for name in vars(cspsop.corpus) if name.startswith(("STATUS_", "DEPTH_"))]
    assert len(vocabulary) == 8
    assert all(getattr(cspsop.crawler, name) is getattr(cspsop.corpus, name) for name in vocabulary)


def _loaded_after(code: str) -> list[str]:
    """The NETWORK_STACK modules loaded in a fresh interpreter that has run code."""
    script = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {NETWORK_STACK!r} if m in sys.modules]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_network_stack():
    assert _loaded_after("import cspsop, cspsop.cli") == []


def test_analysis_commands_load_no_network_stack(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(make_violation_corpus(), corpus)
    code = (
        "from cspsop import cli\n"
        f"assert cli.main(['potential', '--corpus', {str(corpus)!r}, '--format', 'json',"
        f" '--out', {str(tmp_path / 'potential.json')!r}]) == 0\n"
        f"assert cli.main(['analyze', '--table', 'violations', '--corpus', {str(corpus)!r},"
        f" '--out', {str(tmp_path / 'violations.txt')!r}]) == 0"
    )
    assert _loaded_after(code) == []


def test_crawl_command_process_loads_no_network_stack(fixture_site, tmp_path):
    # Only the forked pool workers fetch, and so import the HTTP client.
    fixture_site.add("/", '<a href="/b.html">b</a>', host="main.com")
    fixture_site.add("/b.html", "<p>b</p>", host="main.com")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://main.com/\n")
    out = tmp_path / "corpus.jsonl"
    code = (
        "from cspsop import cli\n"
        f"assert cli.main(['crawl', '--seeds', {str(seeds)!r}, '--out', {str(out)!r},"
        " '--politeness', '0', '--parallel', '1',"
        f" '--resolve', 'main.com=127.0.0.1:{fixture_site.port}']) == 0"
    )
    assert _loaded_after(code) == []
    assert len(out.read_text().splitlines()) == 3  # the header and two records
