"""Fork server that runs cspsop commands, one child process per command.

    python3 bench/worker.py

Imports cspsop once, then reads one JSON request per line on standard
input and answers each with one JSON line, {"exit": CODE}, on standard
output. Each request runs in a child forked for it, so every command
starts as a fresh `cspsop` process would, with the package imported and
nothing run yet (no cache filled, no suffix table loaded), but without
paying the interpreter start. The child writes its result to the
request's "result" file, and its standard output and error to "log".

Requests:
  {"argv": [...], "result": F, "log": L}       time `cli.main(argv)`
  {"argv": [...], ..., "spans": S}             the same, traced: the public
                                               functions are wrapped first
                                               (see tracer.py) and the spans
                                               are written to S at the end
  {"probe": CORPUS, "policies": P, ...}        time the functions that are
                                               on no CLI path
Only `cli.main(argv)`, or the probed calls, are timed.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CHILD_TIMEOUT_S = 150


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_command(argv: list[str], spans_path: str | None) -> dict:
    from cspsop import cli

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    result = {"rc": code, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:  # id, name, start, end, parent
                fh.write(json.dumps(span) + "\n")
    return result


def run_probe(corpus: str, policies_file: str) -> dict:
    """`report.page_set_diffs` over the corpus, and single-policy parse and
    normalize rates over the raw texts listed one per line in policies_file."""
    from cspsop.corpus import read_corpus
    from cspsop.normalize import normalize
    from cspsop.origins import Origin
    from cspsop.policy import parse_policy
    from cspsop.report import page_set_diffs

    records = read_corpus(corpus)
    start = time.perf_counter()
    diffs = page_set_diffs(records)
    result = {"page_set_diffs_s": time.perf_counter() - start, "page_set_diffs": len(diffs)}
    texts = Path(policies_file).read_text(encoding="utf-8").splitlines()
    origin = Origin("https", "bench.test", 443)
    start = time.perf_counter()
    parsed = [parse_policy(text) for text in texts]
    result["parse_per_s"] = len(texts) / (time.perf_counter() - start)
    start = time.perf_counter()
    for policy in parsed:
        normalize(policy, origin)
    result["normalize_per_s"] = len(texts) / (time.perf_counter() - start)
    return result


def _child(request: dict) -> None:
    code = 1
    try:
        fd = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.close(fd)
        if "probe" in request:
            result = run_probe(request["probe"], request["policies"])
        else:
            result = run_command(request["argv"], request.get("spans"))
        Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
        code = 0
    except BaseException:  # the child must always reach os._exit
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _wait(pid: int) -> int:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return -signal.SIGKILL
        time.sleep(0.005)


def main() -> int:
    import cspsop.cli  # noqa: F401  imported once, before any fork
    import tracer  # noqa: F401

    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            _child(request)
        print(json.dumps({"exit": _wait(pid)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
