"""EX / TS scoring for single samples and whole corpora."""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import executor, sql_analysis
from .errors import CorpusLayoutError, EmptyVariantSuiteError, GoldExecutionFailed
from .executor import (
    DEFAULT_TIMEOUT_SECS,
    ExecutionOutcome,
    ReadOnlyHandle,
    execute,
    results_match,
)
from .schema_catalog import (
    DatabaseSchema,
    TableSchema,
    corpus_db_path,
    introspect_database,
)

MISSING_PREDICTION_DETAIL = "missing prediction"


@dataclass(frozen=True)
class Sample:
    sample_id: str
    db_id: str
    question: str
    gold_sql: str
    schema_tables: tuple[TableSchema, ...] = ()


@dataclass(frozen=True)
class EvalVerdict:
    sample_id: str
    ex_match: bool
    ts_match: bool | None
    pred_sql: str
    failure_class: str | None
    outcome_kind: str


@dataclass(frozen=True)
class EvalReport:
    ex_accuracy: float
    ts_accuracy: float | None
    n_samples: int
    error_histogram: dict[str, int]
    verdicts: tuple[EvalVerdict, ...]


_PAREN_OR_ORDER_BY = re.compile(r"[()]|\border\s+by\b", re.IGNORECASE)


def order_sensitive(gold_sql: str) -> bool:
    """Whether EX compares the rows of ``gold_sql`` in order: it has an
    ORDER BY outside every parenthesis, quoted text and comment."""
    depth = 0
    for m in _PAREN_OR_ORDER_BY.finditer(sql_analysis.mask_quoted(gold_sql)):
        if m.group() == "(":
            depth += 1
        elif m.group() == ")":
            depth -= 1
        elif depth == 0:
            return True
    return False


def _matches_on(
    db: str | Path | ReadOnlyHandle,
    pred_sql: str,
    gold: ExecutionOutcome,
    order: bool,
    timeout: float,
) -> tuple[bool, ExecutionOutcome]:
    """EX on one database file: run ``pred_sql`` there and compare it with
    the gold query's outcome on the same file."""
    pred = execute(db, pred_sql, timeout)
    return results_match(pred, gold, order), pred


def _suite_matches(
    variants: list[str | Path | ReadOnlyHandle],
    pred_sql: str,
    gold_on: Callable[[str | Path | ReadOnlyHandle], ExecutionOutcome],
    order: bool,
    timeout: float,
) -> bool:
    """EX on every variant in turn, with ``gold_on(variant)`` as the gold
    outcome there; stops at the first variant that fails."""
    for db in variants:
        try:
            if not _matches_on(db, pred_sql, gold_on(db), order, timeout)[0]:
                return False
        except GoldExecutionFailed as exc:
            raise GoldExecutionFailed(f"variant {db}: {exc}") from exc
    return True


def execution_accuracy(
    pred_sql: str,
    sample: Sample,
    db_path: str | Path | ReadOnlyHandle,
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> bool:
    gold = execute(db_path, sample.gold_sql, timeout)
    return _matches_on(db_path, pred_sql, gold, order_sensitive(sample.gold_sql), timeout)[0]


def test_suite_accuracy(
    pred_sql: str,
    sample: Sample,
    variant_db_paths: list[str | Path | ReadOnlyHandle],
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> bool:
    """EX must hold on every variant database (a path or an open handle);
    short-circuits on failure."""
    if not variant_db_paths:
        raise EmptyVariantSuiteError(sample.sample_id)
    return _suite_matches(
        variant_db_paths,
        pred_sql,
        lambda db: execute(db, sample.gold_sql, timeout),
        order_sensitive(sample.gold_sql),
        timeout,
    )


def variant_suite_paths(variant_root: str | Path, db_id: str) -> list[Path]:
    suite_dir = Path(variant_root) / db_id
    if not suite_dir.is_dir():
        return []
    return sorted(suite_dir.glob("*.sqlite"))


class _DbHandles:
    """One thread's open read-only handles for the database it is working
    on: the base file and each TS variant."""

    def __init__(self, db_id: str, base: Path, suite: list[Path]):
        self.db_id = db_id
        self.base = ReadOnlyHandle(base)
        self.suite = [ReadOnlyHandle(p) for p in suite]

    def close(self) -> None:
        for handle in [self.base, *self.suite]:
            handle.close()


@dataclass
class _Gold:
    """One gold query's outcome on each file of its database, for the
    samples that still need it."""

    #: One lock per file, held while the gold runs there.
    locks: dict[Path, threading.Lock]
    pending: int = 0
    outcomes: dict[Path, ExecutionOutcome] = field(default_factory=dict)


@dataclass
class _EvalContext:
    corpus_root: Path
    variant_root: Path | None
    timeout: float
    schemas: dict[str, DatabaseSchema] = field(default_factory=dict)
    suites: dict[str, list[Path]] = field(default_factory=dict)
    #: Gold outcomes by (db_id, gold_sql), shared by all threads.
    golds: dict[tuple[str, str], _Gold] = field(default_factory=dict)
    #: Each thread's handles, by thread id; a thread only touches its own.
    _open: dict[int, _DbHandles] = field(default_factory=dict, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def schema(self, db_id: str) -> DatabaseSchema:
        if db_id not in self.schemas:
            path = corpus_db_path(self.corpus_root, db_id)
            if not path.exists():
                raise CorpusLayoutError(f"expected database file at {path}")
            self.schemas[db_id] = introspect_database(path, db_id)
        return self.schemas[db_id]

    def suite(self, db_id: str) -> list[Path]:
        if db_id not in self.suites:
            self.suites[db_id] = (
                variant_suite_paths(self.variant_root, db_id)
                if self.variant_root is not None
                else []
            )
        return self.suites[db_id]

    def handles(self, db_id: str) -> _DbHandles:
        """The calling thread's handles for ``db_id``; the handles it held
        for another database are closed."""
        key = threading.get_ident()
        current = self._open.get(key)
        if current is None or current.db_id != db_id:
            if current is not None:
                current.close()
            current = self._open[key] = _DbHandles(
                db_id,
                corpus_db_path(self.corpus_root, db_id),
                self.suite(db_id),
            )
        return current

    def expect(self, sample: Sample) -> None:
        """Note, before any thread starts, one more sample that needs its
        gold query's outcomes."""
        key = (sample.db_id, sample.gold_sql)
        if key not in self.golds:
            files = [corpus_db_path(self.corpus_root, sample.db_id), *self.suite(sample.db_id)]
            self.golds[key] = _Gold(locks={path: threading.Lock() for path in files})
        self.golds[key].pending += 1

    def gold_outcome(self, sample: Sample, db: ReadOnlyHandle) -> ExecutionOutcome:
        """The gold query's outcome on ``db``'s file. It runs once per file:
        a thread that needs an outcome another is computing waits for it."""
        gold = self.golds[(sample.db_id, sample.gold_sql)]
        with gold.locks[db.path]:
            if db.path not in gold.outcomes:
                gold.outcomes[db.path] = execute(db, sample.gold_sql, self.timeout)
            return gold.outcomes[db.path]

    def finished(self, sample: Sample) -> None:
        """Drop the gold's outcomes once the last sample needing them is
        done, whether it passed, failed or was skipped."""
        key = (sample.db_id, sample.gold_sql)
        with self._lock:
            gold = self.golds[key]
            gold.pending -= 1
            if not gold.pending:
                del self.golds[key]

    def close(self) -> None:
        for handles in self._open.values():
            handles.close()
        self._open.clear()


def _evaluate_one(ctx: _EvalContext, sample: Sample, pred_sql: str | None) -> EvalVerdict:
    if pred_sql is None:
        return EvalVerdict(
            sample_id=sample.sample_id,
            ex_match=False,
            ts_match=False if ctx.suite(sample.db_id) else None,
            pred_sql="",
            failure_class=sql_analysis.SYNTAX_ERROR,
            outcome_kind=executor.EXEC_ERROR,
        )
    db = ctx.handles(sample.db_id)
    order = order_sensitive(sample.gold_sql)

    def gold_on(handle: ReadOnlyHandle) -> ExecutionOutcome:
        return ctx.gold_outcome(sample, handle)

    ex, pred_outcome = _matches_on(db.base, pred_sql, gold_on(db.base), order, ctx.timeout)
    ts: bool | None = None
    if db.suite:
        ts = _suite_matches(db.suite, pred_sql, gold_on, order, ctx.timeout)

    failure = None
    if not ex:
        failure = sql_analysis.validate(pred_sql, ctx.schema(sample.db_id)).status
    return EvalVerdict(
        sample_id=sample.sample_id,
        ex_match=ex,
        ts_match=ts,
        pred_sql=pred_sql,
        failure_class=failure,
        outcome_kind=pred_outcome.kind,
    )


def evaluate_corpus(
    predictions: dict[str, str],
    samples: list[Sample],
    corpus_root: str | Path,
    variant_root: str | Path | None = None,
    parallelism: int = 1,
    timeout: float = DEFAULT_TIMEOUT_SECS,
    schemas: dict[str, DatabaseSchema] | None = None,
) -> EvalReport:
    """Score every sample; missing predictions count as failures. The
    report is deterministic regardless of ``parallelism``. ``schemas``, if
    given, holds schemas already introspected by db_id and is filled in for
    the rest.

    Samples are visited grouped by db_id, so each worker thread keeps its
    database's read-only handles open across samples; all of them are
    closed before this returns or raises. If samples fail (e.g.
    GoldExecutionFailed), the error of the first one in input order is
    raised."""
    unknown = set(predictions) - {s.sample_id for s in samples}
    if unknown:
        raise CorpusLayoutError(f"predictions for unknown sample ids: {sorted(unknown)}")
    ctx = _EvalContext(
        corpus_root=Path(corpus_root),
        variant_root=Path(variant_root) if variant_root is not None else None,
        timeout=timeout,
        schemas=schemas if schemas is not None else {},
    )
    # Warm the schema and suite caches serially, so worker threads only
    # read them, and count the samples that need each gold.
    for s in samples:
        ctx.schema(s.db_id)
        ctx.suite(s.db_id)
        ctx.expect(s)
    by_db = sorted(enumerate(samples), key=lambda item: item[1].db_id)
    # A failing sample's error, by input index. Only the first in input
    # order is raised, so samples after it need not run.
    failures: dict[int, Exception] = {}
    lock = threading.Lock()

    def evaluate(item: tuple[int, Sample]) -> EvalVerdict | None:
        index, s = item
        try:
            with lock:
                if any(i < index for i in failures):
                    return None
            return _evaluate_one(ctx, s, predictions.get(s.sample_id))
        except Exception as exc:
            with lock:
                failures[index] = exc
            return None
        finally:
            ctx.finished(s)

    try:
        if parallelism <= 1:
            results = [evaluate(item) for item in by_db]
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                results = list(pool.map(evaluate, by_db))
    finally:
        ctx.close()
    if failures:
        raise failures[min(failures)]
    verdicts = sorted(results, key=lambda v: v.sample_id)

    n = len(samples)
    ex_count = sum(1 for v in verdicts if v.ex_match)
    ts_values = [v.ts_match for v in verdicts if v.ts_match is not None]
    histogram: dict[str, int] = {}
    for v in verdicts:
        if not v.ex_match:
            key = v.failure_class or sql_analysis.VALID
            histogram[key] = histogram.get(key, 0) + 1
    return EvalReport(
        ex_accuracy=ex_count / n if n else 0.0,
        ts_accuracy=(sum(ts_values) / len(ts_values)) if ts_values else None,
        n_samples=n,
        error_histogram=histogram,
        verdicts=tuple(verdicts),
    )


# --- serialization ----------------------------------------------------------


def load_samples(path: str | Path) -> list[dict]:
    """Raw sample records from a JSON-lines file."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def samples_from_records(
    records: list[dict],
    corpus_root: str | Path,
    schemas: dict[str, DatabaseSchema] | None = None,
) -> list[Sample]:
    """Attach each record's full database schema as its prompt schema.
    Each database is introspected once, into ``schemas`` when given, so
    the caller can reuse the schemas."""
    if schemas is None:
        schemas = {}
    samples = []
    for rec in records:
        db_id = rec["db_id"]
        if db_id not in schemas:
            path = corpus_db_path(corpus_root, db_id)
            if not path.exists():
                raise CorpusLayoutError(f"expected database file at {path}")
            schemas[db_id] = introspect_database(path, db_id)
        samples.append(
            Sample(
                sample_id=str(rec["sample_id"]),
                db_id=db_id,
                question=rec["question"],
                gold_sql=rec["gold_sql"],
                schema_tables=schemas[db_id].tables,
            )
        )
    return samples


def load_predictions(path: str | Path) -> dict[str, str]:
    preds: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                preds[str(rec["sample_id"])] = rec["sql"]
    return preds


def report_to_dict(report: EvalReport) -> dict:
    return {
        "ex_accuracy": report.ex_accuracy,
        "ts_accuracy": report.ts_accuracy,
        "n_samples": report.n_samples,
        "error_histogram": dict(sorted(report.error_histogram.items())),
        "verdicts": [
            {
                "sample_id": v.sample_id,
                "ex_match": v.ex_match,
                "ts_match": v.ts_match,
                "pred_sql": v.pred_sql,
                "failure_class": v.failure_class,
                "outcome_kind": v.outcome_kind,
            }
            for v in report.verdicts
        ],
    }


def format_summary_table(report: EvalReport, model_label: str = "predictions") -> str:
    """Plain-text summary mirroring an EX/TS leaderboard row."""
    ex = 100.0 * report.ex_accuracy
    ts = "-" if report.ts_accuracy is None else f"{100.0 * report.ts_accuracy:.1f}"
    lines = [
        f"{'Model':<30} {'EX':>6} {'TS':>6}",
        f"{model_label:<30} {ex:>6.1f} {ts:>6}",
        "",
        f"samples: {report.n_samples}",
    ]
    if report.error_histogram:
        lines.append("failure classes:")
        for key, count in sorted(report.error_histogram.items()):
            lines.append(f"  {key:<20} {count}")
    return "\n".join(lines)
