"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Every workload runs plain and traced, passes its output checks and reports
exactly the metrics BENCHMARK.json names. The checks themselves must
catch a wrong table and a wrong crawl record, and the benchmark must
refuse to run without the program next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from reference import Reference, crawl_mismatches  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    assert [vars(r) for r in gen.build_shared_corpus(5, 0.05)] == [
        vars(r) for r in gen.build_shared_corpus(5, 0.05)
    ]
    first, second = gen.build_world(5, 0.05), gen.build_world(5, 0.05)
    assert gen.expected_crawl(first) == gen.expected_crawl(second)
    page = next(iter(first.pages.values()))
    assert gen.render_body(first, page) == gen.render_body(second, page)


def test_repeat_shares_separate_the_analyze_corpora():
    shared = Reference(gen.build_shared_corpus(5, 0.1)).properties
    distinct = Reference(gen.build_distinct_corpus(5, 0.1)).properties
    assert shared["input.raw_repeat_share"][0] > 0.8
    assert distinct["input.raw_repeat_share"][0] < 0.05


def test_table_check_catches_a_wrong_count():
    ref = Reference(gen.build_shared_corpus(5, 0.05))
    adoption = ref.adoption
    good = {
        "sites_crawled": adoption["sites"], "pages_visited": adoption["pages"],
        "pages_with_same_site_iframes": adoption["pages_ss_iframes"],
        "pages_with_same_origin_iframes": adoption["pages_so_iframes"],
        "pages_with_so_iframe_and_csp": adoption["pages_so_iframe_csp"],
        "pages_with_csp": {"count": adoption["pages_csp"], "denominator": adoption["pages"]},
        "sites_with_csp_on_home": {"count": adoption["sites_home_csp"],
                                   "denominator": adoption["sites"]},
        "sites_with_csp_some_pages": {"count": adoption["sites_some_csp"],
                                      "denominator": adoption["sites"]},
    }
    assert ref.mismatches("adoption", good) == []
    assert ref.mismatches("adoption", {**good, "pages_visited": adoption["pages"] + 1})


def test_crawl_check_catches_a_wrong_record():
    expected = gen.expected_crawl(gen.build_world(5, 0.05))
    records = [
        {"url": r.url, "final_url": r.final_url, "depth": r.depth,
         "fetch_status": r.fetch_status, "http_status": r.http_status, "site": r.site,
         "policies": [{"raw": t, "disposition": d, "delivery": v} for t, d, v in r.policies],
         "iframes_same_site": r.iframes, "srcdoc_iframes": r.srcdoc}
        for r in expected
    ]
    assert crawl_mismatches(records, expected) == (0, [])
    records[0]["depth"] = "linked" if records[0]["depth"] == "home" else "home"
    failed, errors = crawl_mismatches(records[:-1], expected)
    assert failed == 2 and len(errors) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "analyze-shared", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
