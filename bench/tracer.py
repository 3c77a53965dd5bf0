"""In-memory tracing of cspsop's public functions, installed from outside.

`Tracer.install()` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original in any
loaded cspsop module, so calls through `from .x import f` bindings are
traced too. Hot per-call functions get counters (calls, busy time, distinct
inputs); all others get spans (name, start, end, parent). Generator
functions are left alone: timing their call would time only the creation
of the generator.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from statistics import quantiles

MODULES = ("crawler", "origins", "policy", "normalize", "compare", "corpus", "detector",
           "report", "cli")

# Functions called once per policy, source, pair or host: spans for each
# call would cost more than the work they time.
COUNTERS = {
    "origins.origin_of", "origins.site_of", "origins.same_origin", "origins.relaxable_to",
    "policy.parse_source_expression", "policy.parse_policy", "policy.extract_policies",
    "normalize.normalize_sources", "normalize.normalize",
    "compare.compare", "compare.policy_sets_equal", "compare.unmatched_policies",
    "corpus.record_to_dict", "corpus.record_from_dict",
    "detector.normalized_enforced",
}

# What makes two calls the same input, for the distinct-input counts.
DISTINCT_KEYS = {
    "origins.site_of": lambda args, kwargs: args[0],
    "policy.parse_policy": lambda args, kwargs: args[0],
    "normalize.normalize": lambda args, kwargs: (args[0].raw, args[0].disposition, args[1]),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, list] = {}  # name -> [calls, busy_s, distinct set | None]
        self.fetch_failed = 0
        self.scan_bytes = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._next_id = 0
        self._lock = threading.Lock()

    # --- installation -------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"cspsop.{short}")
            for name, fn in vars(module).items():
                if (
                    name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)
                ):
                    continue
                qualified = f"{short}.{name}"
                wrap = self._counter if qualified in COUNTERS else self._span
                originals[id(fn)] = wrap(qualified, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("cspsop"):
                continue
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span belongs to whatever the main
                # thread had open when the pool was started.
                main = tracer._main_stack
                parent = main[-1] if main else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            if name == "crawler.fetch" and result.status in ("network-error", "timeout"):
                tracer.fetch_failed += 1
            elif name == "crawler.scan_document":
                tracer.scan_bytes += len(args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        key_of = DISTINCT_KEYS.get(name)
        entry = self.counters.setdefault(name, [0, 0.0, set() if key_of else None])
        lock = self._lock

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    entry[0] += 1
                    entry[1] += elapsed
                    if key_of is not None:
                        entry[2].add(key_of(args, kwargs))

        counted.__wrapped__ = fn
        return counted

    # --- results ------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls, busy and self time, fetch percentiles."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        names: dict[str, dict] = {}
        fetch_ms = []
        for span_id, name, start, end, _ in self.spans:
            entry = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - _covered(start, end, children.get(span_id, []))
            if name == "crawler.fetch":
                fetch_ms.append(1000.0 * (end - start))
        for name, (calls, busy, distinct) in self.counters.items():
            names[name] = {"calls": calls, "busy_s": busy}
            if distinct is not None:
                names[name]["distinct"] = len(distinct)
        out = {"functions": names, "fetch_failed": self.fetch_failed,
               "scan_kb": self.scan_bytes / 1024.0}
        if len(fetch_ms) >= 2:
            cuts = quantiles(fetch_ms, n=100, method="inclusive")
            out["fetch_p50_ms"], out["fetch_p99_ms"] = cuts[49], cuts[98]
        return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
