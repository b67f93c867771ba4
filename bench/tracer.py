"""In-memory spans around sqlforge's public functions, and the per-layer
metrics computed from them.

The tracer replaces each public function at the name its callers look up
(``sqlforge.metrics.execute``, ``sqlforge.refine_agent.validate_against_tables``,
...) with a wrapper that records a span: name, start, end, parent span and a
few facts read from the arguments or the result. Nothing in ``src/`` is
changed, and every wrapper is removed again by :meth:`Tracer.uninstall`.

Spans started on a worker thread with no open span of their own take the
main thread's innermost open span as parent: the eval thread pool is
started from inside ``evaluate_corpus``, which is where its work belongs.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    info: dict

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _execute_info(args, kwargs, result) -> dict:
    return {"kind": result.kind, "rows": len(result.rows) if result.rows is not None else 0}


def _introspect_info(args, kwargs, result) -> dict:
    return {"db_id": result.db_id}


def _refine_info(args, kwargs, result) -> dict:
    return {"iters": result.iterations_used, "ok": result.succeeded}


def _mine_info(args, kwargs, result) -> dict:
    return {"pairs": len(result)}


#: (module or class path, attribute callers look up, span name, info reader)
WRAPS = [
    ("sqlforge.cli", "introspect_database", "schema_catalog.introspect_database", _introspect_info),
    ("sqlforge.metrics", "introspect_database", "schema_catalog.introspect_database", _introspect_info),
    ("sqlforge.augmentation", "render_prompt", "schema_catalog.render_prompt", None),
    ("sqlforge.preference_miner", "render_prompt", "schema_catalog.render_prompt", None),
    ("sqlforge.refine_agent", "render_prompt", "schema_catalog.render_prompt", None),
    ("sqlforge.sql_analysis", "extract_references", "sql_analysis.extract_references", None),
    ("sqlforge.augmentation", "extract_references", "sql_analysis.extract_references", None),
    ("sqlforge.preference_miner", "extract_references", "sql_analysis.extract_references", None),
    ("sqlforge.sql_analysis", "validate", "sql_analysis.validate", None),
    ("sqlforge.sql_analysis", "validate_against_tables", "sql_analysis.validate_against_tables", None),
    ("sqlforge.refine_agent", "validate_against_tables", "sql_analysis.validate_against_tables", None),
    ("sqlforge.metrics", "execute", "executor.execute", _execute_info),
    ("sqlforge.preference_miner", "execute", "executor.execute", _execute_info),
    ("sqlforge.refine_agent", "execute", "executor.execute", _execute_info),
    ("sqlforge.metrics", "results_match", "executor.results_match", None),
    ("sqlforge.preference_miner", "results_match", "executor.results_match", None),
    ("sqlforge.metrics", "samples_from_records", "metrics.samples_from_records", None),
    ("sqlforge.metrics", "evaluate_corpus", "metrics.evaluate_corpus", None),
    ("sqlforge.metrics", "test_suite_accuracy", "metrics.test_suite_accuracy", None),
    ("sqlforge.metrics", "execution_accuracy", "metrics.execution_accuracy", None),
    ("sqlforge.augmentation", "cross_db_augment", "augmentation.cross_db_augment", None),
    ("sqlforge.augmentation", "inner_db_augment", "augmentation.inner_db_augment", None),
    ("sqlforge.preference_miner", "mine_pairs", "preference_miner.mine_pairs", _mine_info),
    ("sqlforge.refine_agent", "refine_sample", "refine_agent.refine_sample", _refine_info),
    ("sqlforge.refine_agent", "invalid_check", "refine_agent.invalid_check", None),
    ("sqlforge.model_client.HttpModelClient", "generate", "model_client.generate", None),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Collects spans from wrapped functions; safe to call from threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, t0, t1, {"error": type(exc).__name__}))
            raise
        t1 = time.perf_counter()
        stack.pop()
        self.spans.append(Span(span_id, parent, name, t0, t1,
                               info(args, kwargs, result) if info else {}))
        return result

    def install(self) -> None:
        for path, attr, name, info in WRAPS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, info))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, fn, info):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        wrapper.__wrapped__ = fn
        return wrapper


# --- metrics from spans ----------------------------------------------------

VALIDATE_FAMILY = {"sql_analysis.validate", "sql_analysis.validate_against_tables"}


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 values beyond it, as
    (value, percentile); (0.0, 0) with 10 values or fewer."""
    n = len(values)
    if n <= 10:
        return 0.0, 0
    pct = (100 * (n - 10)) // n
    ordered = sorted(values)
    return ordered[max(0, -(-pct * n // 100) - 1)], pct


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class PassView:
    """The spans of one traced pass, indexed for the metric formulas."""

    def __init__(self, spans: list[Span], samples: dict[str, int], wall: float, stub: dict):
        self.spans = spans
        self.samples = samples  # per subcommand
        self.wall = wall
        self.stub = stub  # stub counter deltas over the pass
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        self._by_name: dict[str, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
            self._by_name.setdefault(s.name, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def top(self, span: Span) -> Span:
        """The outermost span above ``span``: its ``cli.run``."""
        while span.parent in self.by_id:
            span = self.by_id[span.parent]
        return span

    def cmd_of(self, span: Span) -> str:
        """The subcommand whose ``cli.run`` span encloses ``span``."""
        return self.top(span).info.get("cmd", "")

    def dbs_per_run(self, name: str) -> dict[int, set[str]]:
        """Distinct db_ids seen by ``name`` spans, per enclosing ``cli.run``."""
        runs: dict[int, set[str]] = {}
        for s in self.named(name):
            runs.setdefault(self.top(s).id, set()).add(s.info["db_id"])
        return runs

    def per_sample(self, spans: list[Span]) -> float:
        """Calls per sample of the subcommands that made them."""
        cmds = {self.cmd_of(s) for s in spans}
        n = sum(self.samples.get(c, 0) for c in cmds)
        return len(spans) / n if n else 0.0

    def self_time(self, span: Span) -> float:
        kids = [(c.t0, c.t1) for c in self.children.get(span.id, [])]
        return span.dur - _union(kids, span.t0, span.t1)


def _busy(spans: list[Span]) -> float:
    return sum(s.dur for s in spans)


def layer_metrics(views: list[PassView]) -> dict[str, float]:
    """Per-layer metrics: per-pass values are medians over the traced
    passes; latency percentiles pool the calls of every traced pass."""
    out: dict[str, float] = {}

    def per_pass(name: str, fn) -> None:
        out[name] = _median([fn(v) for v in views])

    def latency(name: str, durations: list[float], scale: float, unit: str) -> None:
        out[f"{name}.p50_{unit}"] = _median(durations) * scale
        value, pct = tail(durations)
        out[f"{name}.tail_{unit}"] = value * scale
        out[f"{name}.tail_pct"] = pct

    def pooled(name: str) -> list[float]:
        return [s.dur for v in views for s in v.named(name)]

    # schema_catalog
    intro = "schema_catalog.introspect_database"
    per_pass(f"{intro}.calls_per_db", lambda v: (
        len(v.named(intro)) / max(1, sum(len(dbs) for dbs in v.dbs_per_run(intro).values()))))
    per_pass(f"{intro}.busy_s", lambda v: _busy(v.named(intro)))
    per_pass("schema_catalog.render_prompt.busy_s",
             lambda v: _busy(v.named("schema_catalog.render_prompt")))

    # sql_analysis: validate family, counted at its outermost call
    def family(v: PassView) -> list[Span]:
        return [s for s in v.spans if s.name in VALIDATE_FAMILY
                and not (s.parent in v.by_id and v.by_id[s.parent].name in VALIDATE_FAMILY)]

    per_pass("sql_analysis.validate.calls", lambda v: len(family(v)))
    latency("sql_analysis.validate", [s.dur for v in views for s in family(v)], 1e6, "us")
    per_pass("sql_analysis.validate.busy_s", lambda v: _busy(family(v)))
    ext = "sql_analysis.extract_references"
    per_pass(f"{ext}.calls_per_sample", lambda v: v.per_sample(v.named(ext)))
    per_pass(f"{ext}.busy_s", lambda v: _busy(v.named(ext)))
    per_pass(f"{ext}.parse_errors", lambda v: sum(
        1 for s in v.named(ext) if s.info.get("error") == "ParseError"))

    # executor
    exe = "executor.execute"
    per_pass(f"{exe}.calls_per_sample", lambda v: v.per_sample(v.named(exe)))
    latency(exe, pooled(exe), 1e6, "us")
    per_pass(f"{exe}.busy_s", lambda v: _busy(v.named(exe)))
    for kind in ("rows", "error", "timeout"):
        per_pass(f"executor.outcome.{kind}", lambda v, k=kind: sum(
            1 for s in v.named(exe) if s.info.get("kind") == k))
    per_pass("executor.rows_fetched", lambda v: sum(s.info.get("rows", 0) for s in v.named(exe)))
    per_pass("executor.rows_per_execution", lambda v: (
        sum(s.info.get("rows", 0) for s in v.named(exe)) / max(1, len(v.named(exe)))))
    per_pass("executor.results_match.calls", lambda v: len(v.named("executor.results_match")))
    per_pass("executor.results_match.busy_s", lambda v: _busy(v.named("executor.results_match")))

    # metrics
    ev = "metrics.evaluate_corpus"
    per_pass(f"{ev}.wall_s", lambda v: _busy(v.named(ev)))
    per_pass(f"{ev}.self_s", lambda v: sum(v.self_time(s) for s in v.named(ev)))
    per_pass(f"{ev}.concurrency", lambda v: (
        sum(c.dur for s in v.named(ev) for c in v.children.get(s.id, []))
        / max(1e-9, _busy(v.named(ev))) if v.named(ev) else 0.0))
    per_pass("metrics.samples_from_records.busy_s",
             lambda v: _busy(v.named("metrics.samples_from_records")))
    per_pass("workload.validate_reach_share", lambda v: (
        sum(1 for s in family(v) if v.cmd_of(s) == "eval") / v.samples["eval"]
        if v.samples.get("eval") else 0.0))

    # augmentation
    cross = "augmentation.cross_db_augment"
    per_pass(f"{cross}.busy_s", lambda v: _busy(v.named(cross)))
    value, pct = tail(pooled(cross))
    out[f"{cross}.tail_us"], out[f"{cross}.tail_pct"] = value * 1e6, pct
    per_pass("augmentation.inner_db_augment.busy_s",
             lambda v: _busy(v.named("augmentation.inner_db_augment")))

    # preference_miner
    mine = "preference_miner.mine_pairs"
    per_pass(f"{mine}.self_s", lambda v: sum(v.self_time(s) for s in v.named(mine)))
    mined = [s for v in views for s in v.named(mine)]
    out["preference_miner.pairs_per_sample"] = (
        sum(s.info["pairs"] for s in mined) / len(mined) if mined else 0.0)
    out["preference_miner.empty_sample_share"] = (
        sum(1 for s in mined if s.info["pairs"] == 0) / len(mined) if mined else 0.0)

    # refine_agent
    ref = "refine_agent.refine_sample"
    latency(ref, pooled(ref), 1e3, "ms")
    refined = [s for v in views for s in v.named(ref)]
    out["refine_agent.iterations_per_sample"] = (
        sum(s.info["iters"] for s in refined) / len(refined) if refined else 0.0)
    out["refine_agent.success_share"] = (
        sum(1 for s in refined if s.info["ok"]) / len(refined) if refined else 0.0)

    # model_client, against the stub's own counters
    gen = "model_client.generate"
    per_pass(f"{gen}.calls", lambda v: len(v.named(gen)))
    latency(gen, pooled(gen), 1e3, "ms")
    per_pass(f"{gen}.wait_share", lambda v: _busy(v.named(gen)) / v.wall)
    per_pass(f"{gen}.overhead_ms", lambda v: (
        (_busy(v.named(gen)) - v.stub.get("service_s", 0.0)) / len(v.named(gen)) * 1e3
        if v.named(gen) else 0.0))
    per_pass(f"{gen}.max_in_flight", lambda v: _max_overlap(v.named(gen)))
    per_pass("model_client.stub.requests_per_call", lambda v: (
        v.stub.get("requests", 0) / len(v.named(gen)) if v.named(gen) else 0.0))

    # cli, per subcommand (both augment modes together)
    for cmd in ("augment", "eval", "mine", "refine"):
        runs = lambda v, c=cmd: [s for s in v.named("cli.run") if s.info["cmd"] == c]
        per_pass(f"cli.run.{cmd}.wall_s", lambda v, r=runs: _busy(r(v)))
        per_pass(f"cli.run.{cmd}.self_s", lambda v, r=runs: sum(v.self_time(s) for s in r(v)))
    return out


def _max_overlap(spans: list[Span]) -> int:
    events = sorted([(s.t0, 1) for s in spans] + [(s.t1, -1) for s in spans])
    depth = best = 0
    for _t, step in events:
        depth += step
        best = max(best, depth)
    return best
