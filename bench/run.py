"""The cspsop benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: crawl-loopback,
analyze-shared, analyze-distinct (see README.md). The inputs are made from
the seed, then the workload's commands are repeated for S seconds, each
command in a fresh process that calls `cspsop.cli.main`. Every output is
checked; a mismatch makes the run fail with exit code 1. The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from gen import build_distinct_corpus, build_shared_corpus, build_world, expected_crawl
from reference import TABLES, Reference, crawl_mismatches, read_corpus_file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 7
# `potential` runs this many more times per pass, untraced, so that its
# median rests on more samples than the other commands'.
EXTRA_POTENTIAL_RUNS = 2


def _need_program() -> None:
    missing = [p for p in ("src/cspsop/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"error: run from a cspsop checkout; missing {', '.join(missing)}")


class Commands:
    """Runs cspsop commands through the fork server in worker.py."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.spans: list[Path] = []
        self.server = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _request(self, request: dict) -> dict:
        self.count += 1
        result = self.workdir / f"result-{self.count}.json"
        log = self.workdir / f"log-{self.count}.txt"
        self.server.stdin.write(json.dumps({**request, "result": str(result), "log": str(log)}) + "\n")
        self.server.stdin.flush()
        reply = self.server.stdout.readline()
        if not reply:
            raise RuntimeError("the worker process ended early")
        code = json.loads(reply)["exit"]
        if code != 0 or not result.exists():
            return {"rc": code or 1, "error": log.read_text()[-2000:]}
        out = json.loads(result.read_text(encoding="utf-8"))
        if out.get("rc", 0) != 0:
            out["error"] = log.read_text()[-2000:]
        return out

    def run(self, argv: list[str], trace: bool) -> dict:
        request: dict = {"argv": argv}
        if trace:
            spans = self.workdir / f"spans-{self.count + 1}.jsonl"
            self.spans.append(spans)
            request["spans"] = str(spans)
        return self._request(request)

    def probe(self, corpus: Path, policies: Path) -> dict:
        out = self._request({"probe": str(corpus), "policies": str(policies)})
        if "error" in out:
            raise RuntimeError(f"probe failed: {out['error']}")
        return out

    def close(self) -> None:
        self.server.stdin.close()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()


class Iteration:
    """One timed pass over a workload's commands."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.phase_s = 0.0  # the pass's timed-phase commands, one run each
        self.latency: dict[str, list[float]] = {}  # command -> wall times
        self.records = 0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traces: list[tuple[str, dict]] = []  # (command, trace summary)
        self.server: dict = {}

    def add(self, name: str, result: dict) -> bool:
        self.peak_rss_mb = max(self.peak_rss_mb, result.get("peak_rss_mb", 0.0))
        if "trace" in result:
            self.traces.append((name, result["trace"]))
        if result["rc"] != 0:
            self.errors.append(f"{name}: exit {result['rc']}: {result.get('error', '')}")
            return False
        return True


def run_tables(commands: Commands, it: Iteration, corpus: Path, reference, out_dir: Path,
               tables: tuple[str, ...] = TABLES) -> float:
    """Table commands over a corpus, checked; returns their total time."""
    total = 0.0
    for table in tables:
        out = out_dir / f"{table}.json"
        out.unlink(missing_ok=True)
        argv = ["potential"] if table == "potential" else ["analyze", "--table", table]
        result = commands.run(argv + ["--corpus", str(corpus), "--format", "json",
                                      "--out", str(out)], it.traced)
        it.attempted += 1
        total += result.get("wall_s", 0.0)
        it.latency.setdefault(table, []).append(result.get("wall_s", 0.0))
        if not it.add(table, result):
            it.failed += 1
            continue
        try:
            errors = reference.mismatches(table, json.loads(out.read_text(encoding="utf-8")))
        except (OSError, ValueError, AttributeError) as exc:
            errors = [f"{table}: unreadable output: {exc!r}"]
        if errors:
            it.failed += 1
            it.errors.extend(errors[:5])
    return total


def write_records(recs, path: Path) -> None:
    """Write generated records as a corpus, through the program's own writer."""
    from cspsop.corpus import write_corpus
    from cspsop.crawler import PageRecord
    from cspsop.origins import Origin
    from cspsop.policy import parse_policy

    write_corpus(
        (
            PageRecord(
                url=r.url, final_url=r.final_url, depth=r.depth, fetch_status=r.fetch_status,
                http_status=r.http_status, origin=Origin(r.scheme, r.host, r.port), site=r.site,
                policies=[parse_policy(*p) for p in r.policies], links_same_site=r.links,
                iframes_same_site=r.iframes, srcdoc_iframes=r.srcdoc,
            )
            for r in recs
        ),
        path,
        meta={"generator": "cspsop-bench"},
        created="2026-01-01T00:00:00+00:00",
    )


class AnalyzeWorkload:
    """The five table commands over a generated corpus."""

    phase = TABLES

    def __init__(self, build, seed: int, scale: float, workdir: Path):
        self.build, self.seed, self.scale, self.workdir = build, seed, scale, workdir
        self.corpus = workdir / "corpus.jsonl.gz"

    def setup(self) -> None:
        self.recs = self.build(self.seed, self.scale)
        write_records(self.recs, self.corpus)

    def prepare(self):
        self.reference = Reference(self.recs)
        return self.reference

    def iteration(self, commands: Commands, traced: bool) -> Iteration:
        it = Iteration(traced)
        it.phase_s = run_tables(commands, it, self.corpus, self.reference, self.workdir)
        if not traced:
            run_tables(commands, it, self.corpus, self.reference, self.workdir,
                       ("potential",) * EXTRA_POTENTIAL_RUNS)
        it.records = len(self.recs)
        return it

    def stop(self) -> list[str]:
        return []


class CrawlWorkload:
    """`cspsop crawl` of the loopback world, then the tables over its corpus."""

    phase = ("crawl",)

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.corpus = workdir / "crawl.jsonl.gz"
        self.seeds_file = workdir / "seeds.txt"
        self.server: subprocess.Popen | None = None

    def setup(self) -> None:
        self.world = build_world(self.seed, self.scale)
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py"), "--seed", str(self.seed),
             "--scale", str(self.scale)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        hello = self.server.stdout.readline()
        if not hello:
            raise RuntimeError("world server did not start")
        self.port = json.loads(hello)["port"]

    def server_stats(self) -> dict:
        self.server.stdin.write("stats\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def stop(self) -> list[str]:
        """Stop the server; returns its final report lines."""
        server, self.server = self.server, None
        if server is None:
            return []
        try:
            out, _ = server.communicate("quit\n", timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            return ["world server did not stop; killed"]
        final = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
        return [f"world server: {json.dumps(final, sort_keys=True)}"]

    def prepare(self):
        self.expected = expected_crawl(self.world)
        self.seeds_file.write_text("".join(s + "\n" for s in self.world.seeds), encoding="utf-8")
        self.reference = Reference(self.expected)
        return self.reference

    def iteration(self, commands: Commands, traced: bool) -> Iteration:
        it = Iteration(traced)
        self.corpus.unlink(missing_ok=True)
        argv = ["crawl", "--seeds", str(self.seeds_file), "--out", str(self.corpus),
                "--politeness", "0", "--parallel", "2"]
        for host in self.world.hosts:
            argv += ["--resolve", f"{host}=127.0.0.1:{self.port}"]
        before = self.server_stats()
        result = commands.run(argv, traced)
        after = self.server_stats()
        it.server = {k: after[k] - before[k] for k in ("connections", "requests", "service_s",
                                                        "cpu_s")}
        it.phase_s = result.get("wall_s", 0.0)
        it.latency["crawl"] = [it.phase_s]
        it.attempted += len(self.expected)
        if not it.add("crawl", result) or not self.corpus.exists():
            it.failed += len(self.expected)
            return it
        try:
            records = read_corpus_file(self.corpus)
            it.records = len(records)
            failed, errors = crawl_mismatches(records, self.expected)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed, errors = len(self.expected), [f"crawl: unreadable corpus: {exc!r}"]
        it.failed += failed
        it.errors.extend(errors[:5])
        run_tables(commands, it, self.corpus, self.reference, self.workdir)
        if not traced:
            run_tables(commands, it, self.corpus, self.reference, self.workdir,
                       ("potential",) * EXTRA_POTENTIAL_RUNS)
        return it


def make_workload(name: str, seed: int, scale: float, workdir: Path):
    if name == "crawl-loopback":
        return CrawlWorkload(seed, scale, workdir)
    build = build_shared_corpus if name == "analyze-shared" else build_distinct_corpus
    return AnalyzeWorkload(build, seed, scale, workdir)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_times: list[float], iterations: list[Iteration],
               phase: tuple[str, ...]) -> dict:
    """Medians over all samples of each command; pages_per_s divides the
    records by the sum of the median latencies of the timed-phase commands."""
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)

    def latency(command: str) -> float:
        return median(t for it in iterations for t in it.latency.get(command, [0.0]))

    phase_s = sum(latency(command) for command in phase)
    return {
        "setup_s": _metric(median(setup_times), "s"),
        "pages_per_s": _metric(
            median(it.records for it in iterations) / phase_s if phase_s else 0.0, "pages/s"),
        "potential_s": _metric(latency("potential"), "s"),
        "peak_rss_mb": _metric(median(it.peak_rss_mb for it in iterations), "MiB"),
        "success_ratio": _metric((attempted - failed) / attempted, "ratio"),
    }


def _layer_values(it: Iteration, corpus_kb: float) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced iteration, summed over its commands."""
    funcs: dict[str, dict] = {}
    crawl: dict = {}
    for command, summary in it.traces:
        if command == "crawl":
            crawl = summary
        for name, entry in summary["functions"].items():
            total = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                            "distinct": 0})
            total["calls"] += entry["calls"]
            total["busy_s"] += entry["busy_s"]
            total["self_s"] += entry.get("self_s", 0.0)
            total["distinct"] = max(total["distinct"], entry.get("distinct", 0))

    def f(name: str, key: str) -> float:
        return funcs.get(name, {}).get(key, 0)

    analyze_s = sum(s["functions"]["cli.main"]["busy_s"] for c, s in it.traces if c != "crawl")
    server = it.server
    values = {
        "crawler.fetch.calls": (f("crawler.fetch", "calls"), "count"),
        "crawler.fetch.busy_s": (f("crawler.fetch", "busy_s"), "s"),
        "crawler.fetch.p50_ms": (crawl.get("fetch_p50_ms", 0.0), "ms"),
        "crawler.fetch.p99_ms": (crawl.get("fetch_p99_ms", 0.0), "ms"),
        "crawler.fetch.failed": (crawl.get("fetch_failed", 0), "count"),
        "server.connections": (server.get("connections", 0), "count"),
        "server.requests": (server.get("requests", 0), "count"),
        "server.requests_per_connection": (
            server["requests"] / server["connections"] if server.get("connections") else 0.0,
            "ratio"),
        "server.service_s": (server.get("service_s", 0.0), "s"),
        "server.cpu_s": (server.get("cpu_s", 0.0), "s"),
        "crawler.scan_document.busy_s": (f("crawler.scan_document", "busy_s"), "s"),
        "crawler.scan_document.kb": (crawl.get("scan_kb", 0.0), "KiB"),
        "crawler.build_record.self_s": (f("crawler.build_record", "self_s"), "s"),
        "origins.site_of.calls": (f("origins.site_of", "calls"), "count"),
        "origins.site_of.distinct_hosts": (f("origins.site_of", "distinct"), "count"),
        "policy.parse_policy.calls": (f("policy.parse_policy", "calls"), "count"),
        "policy.parse_policy.distinct_texts": (f("policy.parse_policy", "distinct"), "count"),
        "policy.parse_policy.busy_s": (f("policy.parse_policy", "busy_s"), "s"),
        "corpus.read.busy_s": (f("corpus.read_corpus", "busy_s"), "s"),
        "corpus.read.records": (f("corpus.record_from_dict", "calls"), "count"),
        "corpus.bytes": (corpus_kb, "KiB"),
        "cli.analyze.read_share": (
            f("corpus.read_corpus", "busy_s") / analyze_s if analyze_s else 0.0, "ratio"),
        "normalize.calls": (f("normalize.normalize", "calls"), "count"),
        "normalize.distinct_inputs": (f("normalize.normalize", "distinct"), "count"),
        "normalize.busy_s": (f("normalize.normalize", "busy_s"), "s"),
        "compare.calls": (f("compare.compare", "calls"), "count"),
        "compare.policy_sets_equal.calls": (f("compare.policy_sets_equal", "calls"), "count"),
        "detector.classify_pair.calls": (f("detector.classify_pair", "calls"), "count"),
        "detector.classify_pair.busy_s": (f("detector.classify_pair", "busy_s"), "s"),
        "detector.potential_violations.self_s": (
            f("detector.potential_violations", "self_s"), "s"),
        "corpus.write.busy_s": (f("corpus.write_corpus", "busy_s"), "s"),
    }
    for name in ("adoption_stats", "build_pairs", "violation_table", "directive_diff_histogram",
                 "csp_per_site_distribution", "render"):
        values[f"report.{name}.busy_s"] = (f(f"report.{name}", "busy_s"), "s")
    return values


def per_layer(iterations: list[Iteration], corpus: Path, reference, probe: dict) -> dict:
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    corpus_kb = corpus.stat().st_size / 1024.0
    rows = [_layer_values(it, corpus_kb) for it in traced]
    metrics = {name: _metric(median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    metrics["report.page_set_diffs.busy_s"] = _metric(probe["page_set_diffs_s"], "s")
    metrics["policy.parse_policy.per_s"] = _metric(probe["parse_per_s"], "1/s")
    metrics["normalize.per_s"] = _metric(probe["normalize_per_s"], "1/s")
    traced_s = median(it.phase_s for it in traced)
    plain_s = median(it.phase_s for it in plain)
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    metrics["trace.overhead_share"] = _metric(traced_s / plain_s - 1.0, "ratio")
    for name, (value, unit) in reference.properties.items():
        metrics[name] = _metric(value, unit)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, scale: float, workdir: Path) -> dict:
    workload = make_workload(name, seed, scale, workdir)
    commands = Commands(workdir)
    notes: list[str] = []
    import cspsop.cli  # noqa: F401  imported here so that set-up times exclude it
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload.stop()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        reference = workload.prepare()
        iterations: list[Iteration] = []
        durations: list[float] = []
        deadline = time.monotonic() + seconds
        # Traced runs alternate plain and traced passes: the plain ones give
        # the baseline that the tracing overhead is measured against. A pass
        # starts only if a typical pass still ends before the deadline.
        while (len(iterations) < (2 if trace else 1)
               or time.monotonic() + median(durations) <= deadline):
            start = time.monotonic()
            iterations.append(workload.iteration(commands, trace and len(iterations) % 2 == 1))
            durations.append(time.monotonic() - start)
        probe = (commands.probe(workload.corpus, _policies_file(workdir, reference))
                 if trace else {})
    finally:
        notes += workload.stop()
        commands.close()
    if trace and commands.spans:
        _merge_spans(commands.spans, WORK / f"spans-{name}-seed{seed}.jsonl")
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    errors = [e for it in iterations for e in it.errors]
    if name == "crawl-loopback":
        notes.append("crawl traffic crosses loopback (127.0.0.1), not a real network link")
    notes.append(f"{name}: seed {seed}, {len(iterations)} passes, "
                 f"{iterations[0].records} records, setup runs {SETUP_REPEATS}")
    notes += [f"{k} = {v[0]:.4g}" for k, v in reference.properties.items()]
    notes += [f"pass {i}{' (traced)' if it.traced else ''}: {it.records} records, "
              + ", ".join(f"{c} " + " ".join(f"{t:.4f}" for t in ts) for c, ts in it.latency.items())
              for i, it in enumerate(iterations, start=1)]
    notes.append("setup " + " ".join(f"{t:.4f}" for t in setup_times))
    metrics = (per_layer(iterations, workload.corpus, reference, probe) if trace
               else end_to_end(setup_times, iterations, workload.phase))
    return {
        "notes": notes,
        "errors": errors,
        "result": {"correct": failed == 0 and not errors, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def _policies_file(workdir: Path, reference) -> Path:
    path = workdir / "policies.txt"
    path.write_text("".join(t + "\n" for t in reference.distinct_raw[:3000]), encoding="utf-8")
    return path


def _merge_spans(parts: list[Path], target: Path) -> None:
    """All spans of a traced run in one file: command number, then the span."""
    with open(target, "w", encoding="utf-8") as out:
        for number, part in enumerate(parts, start=1):
            for line in part.read_text(encoding="utf-8").splitlines():
                out.write(json.dumps([number, *json.loads(line)]) + "\n")


WORKLOADS = ("crawl-loopback", "analyze-shared", "analyze-distinct")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the self-test")
    args = parser.parse_args(argv)
    _need_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                      workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome["notes"]:
        print(line)
    for line in outcome["errors"][:20]:
        print(f"MISMATCH {line}")
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
