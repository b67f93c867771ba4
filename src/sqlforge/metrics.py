"""EX / TS scoring for single samples and whole corpora."""

from __future__ import annotations

import hashlib
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

#: A database to run on: a path, or an open handle to reuse.
_Db = str | Path | ReadOnlyHandle


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


def _suite_matches(variants: list[_Db], matches_on: Callable[[_Db], bool]) -> bool:
    """EX on every variant in turn; stops at the first variant that fails."""
    for db in variants:
        try:
            if not matches_on(db):
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
    return results_match(
        execute(db_path, pred_sql, timeout), gold, order_sensitive(sample.gold_sql)
    )


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
    order = order_sensitive(sample.gold_sql)

    def matches_on(db: _Db) -> bool:
        gold = execute(db, sample.gold_sql, timeout)
        return results_match(execute(db, pred_sql, timeout), gold, order)

    return _suite_matches(variant_db_paths, matches_on)


def variant_suite_paths(variant_root: str | Path, db_id: str) -> list[Path]:
    suite_dir = Path(variant_root) / db_id
    if not suite_dir.is_dir():
        return []
    return sorted(suite_dir.glob("*.sqlite"))


def _digest(path: Path) -> bytes:
    """SHA-256 of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _first_copies(files: list[Path]) -> dict[Path, Path]:
    """Map each file to the first of ``files`` with the same bytes. Only
    files whose size another file shares are read."""
    by_size: dict[int, list[Path]] = {}
    for path in files:
        by_size.setdefault(path.stat().st_size, []).append(path)
    first: dict[Path, Path] = {}
    for same_size in by_size.values():
        seen: dict[bytes, Path] = {}
        for path in same_size:
            content = _digest(path) if len(same_size) > 1 else b""
            first[path] = seen.setdefault(content, path)
    return first


class _DbHandles:
    """One thread's read-only handles to the files of the database it is
    working on, each opened on its first query, and its schema replica,
    built on its first validate."""

    def __init__(self, db_id: str, files: list[Path], tables: tuple[TableSchema, ...]):
        self.db_id = db_id
        self.on = {path: ReadOnlyHandle(path) for path in files}
        #: The base file's handle.
        self.base = self.on[files[0]]
        self.replica = sql_analysis.SchemaReplica(tables)

    def close(self) -> None:
        for handle in self.on.values():
            handle.close()
        self.replica.close()


class Corpus:
    """One Spider-layout corpus, ``<root>/database/<db_id>/<db_id>.sqlite``,
    and, with ``variant_root``, each database's test-suite variants,
    ``<variant_root>/<db_id>/*.sqlite`` in name order.

    It introspects each database once, lists each database's files once,
    compares their bytes once, and keeps each thread's read-only handles
    and schema replica for the database that thread is on. :meth:`close`
    closes every thread's handles and replicas; the corpus stays usable
    afterwards. Use it as a context manager, or call :meth:`close`."""

    def __init__(self, root: str | Path, variant_root: str | Path | None = None):
        self.root = Path(root)
        self.variant_root = Path(variant_root) if variant_root is not None else None
        #: Schemas by db_id, in order of first use.
        self.schemas: dict[str, DatabaseSchema] = {}
        self._files: dict[str, list[Path]] = {}
        #: Each database's files mapped to their first copy, once compared.
        self._copies: dict[str, dict[Path, Path]] = {}
        self._copies_lock = threading.Lock()
        #: Each thread's handles, by thread id; a thread only touches its own.
        self._open: dict[int, _DbHandles] = {}

    def __enter__(self) -> "Corpus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def schema(self, db_id: str) -> DatabaseSchema:
        """``db_id``'s schema, introspected on first use."""
        if db_id not in self.schemas:
            path = corpus_db_path(self.root, db_id)
            if not path.exists():
                raise CorpusLayoutError(f"expected database file at {path}")
            self.schemas[db_id] = introspect_database(path, db_id)
        return self.schemas[db_id]

    def files(self, db_id: str) -> list[Path]:
        """``db_id``'s files: the base file, then its variants in order."""
        if db_id not in self._files:
            suite = (
                variant_suite_paths(self.variant_root, db_id)
                if self.variant_root is not None
                else []
            )
            self._files[db_id] = [corpus_db_path(self.root, db_id), *suite]
        return self._files[db_id]

    def handles(self, db_id: str) -> _DbHandles:
        """The calling thread's handles for ``db_id``; the handles it held
        for another database are closed."""
        key = threading.get_ident()
        current = self._open.get(key)
        if current is None or current.db_id != db_id:
            if current is not None:
                current.close()
            current = self._open[key] = _DbHandles(
                db_id, self.files(db_id), self.schema(db_id).tables
            )
        return current

    def first_copy(self, db_id: str, path: Path) -> Path:
        """The first of ``db_id``'s files (base, then variants in order)
        with the same bytes as ``path``. The base file is its own first
        copy; the files are compared once, when a variant is first needed,
        so nothing is read before the first query runs."""
        files = self.files(db_id)
        if path == files[0]:
            return path
        with self._copies_lock:
            if db_id not in self._copies:
                self._copies[db_id] = _first_copies(files)
            return self._copies[db_id][path]

    def close(self) -> None:
        for handles in self._open.values():
            handles.close()
        self._open.clear()


@dataclass
class _Statement:
    """One statement's outcome on each distinct file content of its
    database, for the samples that still need it."""

    #: One lock per file, held while the statement runs there.
    locks: dict[Path, threading.Lock]
    pending: int = 0
    #: Outcomes by the first file with each content.
    outcomes: dict[Path, ExecutionOutcome] = field(default_factory=dict)


def _statement_keys(sample: Sample, pred_sql: str | None) -> list[tuple[str, str]]:
    """The outcome-cache keys a sample reads: its gold and its prediction."""
    keys = [(sample.db_id, sample.gold_sql)]
    if pred_sql is not None:
        keys.append((sample.db_id, pred_sql))
    return keys


@dataclass
class _EvalContext:
    """One eval run's outcome cache, on ``corpus``'s files."""

    corpus: Corpus
    timeout: float
    #: Gold and prediction outcomes by (db_id, sql), shared by all threads.
    statements: dict[tuple[str, str], _Statement] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def expect(self, sample: Sample, pred_sql: str | None) -> None:
        """Note, before any thread starts, one more sample that needs the
        outcomes of its gold query and of its prediction."""
        for key in _statement_keys(sample, pred_sql):
            if key not in self.statements:
                files = self.corpus.files(sample.db_id)
                self.statements[key] = _Statement(locks={p: threading.Lock() for p in files})
            self.statements[key].pending += 1

    def outcome(self, db: _DbHandles, sql: str, path: Path) -> ExecutionOutcome:
        """``sql``'s outcome on the bytes of ``path``, one of ``db``'s
        files. It runs once per distinct content, on the first file with
        those bytes: a thread that needs an outcome another is computing
        waits for it."""
        source = self.corpus.first_copy(db.db_id, path)
        statement = self.statements[(db.db_id, sql)]
        with statement.locks[source]:
            if source not in statement.outcomes:
                statement.outcomes[source] = execute(db.on[source], sql, self.timeout)
            return statement.outcomes[source]

    def finished(self, sample: Sample, pred_sql: str | None) -> None:
        """Drop the outcomes of the sample's gold and prediction once the
        last sample needing them is done, whether it passed, failed or was
        skipped."""
        with self._lock:
            for key in _statement_keys(sample, pred_sql):
                statement = self.statements[key]
                statement.pending -= 1
                if not statement.pending:
                    del self.statements[key]


def _evaluate_one(ctx: _EvalContext, sample: Sample, pred_sql: str | None) -> EvalVerdict:
    corpus = ctx.corpus
    base, *suite = corpus.files(sample.db_id)
    if pred_sql is None:
        return EvalVerdict(
            sample_id=sample.sample_id,
            ex_match=False,
            ts_match=False if suite else None,
            pred_sql="",
            failure_class=sql_analysis.SYNTAX_ERROR,
            outcome_kind=executor.EXEC_ERROR,
        )
    db = corpus.handles(sample.db_id)
    order = order_sensitive(sample.gold_sql)
    gold = ctx.outcome(db, sample.gold_sql, base)
    pred_outcome = ctx.outcome(db, pred_sql, base)
    ex = results_match(pred_outcome, gold, order)
    # Verdicts by first copy: a file with the bytes of one already compared
    # (the base file included) takes that file's verdict.
    verdicts = {base: ex}

    def matches_on(path: Path) -> bool:
        first = corpus.first_copy(sample.db_id, path)
        if first not in verdicts:
            gold = ctx.outcome(db, sample.gold_sql, first)
            verdicts[first] = results_match(ctx.outcome(db, pred_sql, first), gold, order)
        return verdicts[first]

    ts: bool | None = None
    if suite:
        ts = _suite_matches(suite, matches_on)

    failure = None
    if not ex:
        failure = db.replica.validate(pred_sql).status
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
    corpus: Corpus,
    parallelism: int = 1,
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> EvalReport:
    """Score every sample on ``corpus``, with TS on its variants if it has
    a variant root; missing predictions count as failures. The report is
    deterministic regardless of ``parallelism``.

    Samples are visited grouped by db_id, so each worker thread keeps its
    database's read-only handles and schema replica open across samples;
    all of ``corpus``'s handles are closed before this returns or raises.
    If samples fail (e.g. GoldExecutionFailed), the error of the first one
    in input order is raised."""
    unknown = set(predictions) - {s.sample_id for s in samples}
    if unknown:
        raise CorpusLayoutError(f"predictions for unknown sample ids: {sorted(unknown)}")
    ctx = _EvalContext(corpus=corpus, timeout=timeout)
    # Warm the schema and file caches serially, so worker threads only
    # read them, and count the samples that need each statement's outcomes.
    for s in samples:
        corpus.schema(s.db_id)
        ctx.expect(s, predictions.get(s.sample_id))
    by_db = sorted(enumerate(samples), key=lambda item: item[1].db_id)
    # A failing sample's error, by input index. Only the first in input
    # order is raised, so samples after it need not run.
    failures: dict[int, Exception] = {}
    lock = threading.Lock()

    def evaluate(item: tuple[int, Sample]) -> EvalVerdict | None:
        index, s = item
        pred_sql = predictions.get(s.sample_id)
        try:
            with lock:
                if any(i < index for i in failures):
                    return None
            return _evaluate_one(ctx, s, pred_sql)
        except Exception as exc:
            with lock:
                failures[index] = exc
            return None
        finally:
            ctx.finished(s, pred_sql)

    try:
        if parallelism <= 1:
            results = [evaluate(item) for item in by_db]
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                results = list(pool.map(evaluate, by_db))
    finally:
        corpus.close()
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


def samples_from_records(records: list[dict], corpus: Corpus) -> list[Sample]:
    """Attach each record's full database schema, from ``corpus``, as its
    prompt schema."""
    samples = []
    for rec in records:
        db_id = rec["db_id"]
        samples.append(
            Sample(
                sample_id=str(rec["sample_id"]),
                db_id=db_id,
                question=rec["question"],
                gold_sql=rec["gold_sql"],
                schema_tables=corpus.schema(db_id).tables,
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
