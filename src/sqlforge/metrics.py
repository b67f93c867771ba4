"""EX / TS scoring for single samples and whole corpora."""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from . import executor, sql_analysis
from .errors import CorpusLayoutError, EmptyVariantSuiteError, GoldExecutionFailed
from .executor import (
    DEFAULT_TIMEOUT_SECS,
    ExecutionOutcome,
    ReadOnlyHandle,
    execute,
    results_match,
)
from .schema_catalog import DatabaseSchema, corpus_db_path, introspect_database, read_schema

MISSING_PREDICTION_DETAIL = "missing prediction"


@dataclass(frozen=True)
class Sample:
    sample_id: str
    db_id: str
    question: str
    gold_sql: str


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


def _suite_matches(variants: list, matches_on: Callable[[Any], bool]) -> bool:
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
) -> bool:
    gold = execute(db_path, sample.gold_sql)
    return results_match(
        execute(db_path, pred_sql), gold, order_sensitive(sample.gold_sql)
    )


def test_suite_accuracy(
    pred_sql: str,
    sample: Sample,
    variant_db_paths: list[str | Path | ReadOnlyHandle],
) -> bool:
    """EX must hold on every variant database (a path or an open handle);
    short-circuits on failure."""
    if not variant_db_paths:
        raise EmptyVariantSuiteError(sample.sample_id)
    return _suite_matches(
        variant_db_paths, lambda db: execution_accuracy(pred_sql, sample, db)
    )


def variant_suite_paths(variant_root: str | Path, db_id: str) -> list[Path]:
    suite_dir = Path(variant_root) / db_id
    if not suite_dir.is_dir():
        return []
    return sorted(suite_dir.glob("*.sqlite"))


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
            content = b""
            if len(same_size) > 1:
                with open(path, "rb") as fh:
                    content = hashlib.file_digest(fh, "sha256").digest()
            first[path] = seen.setdefault(content, path)
    return first


class _DbHandles:
    """One thread's read-only handles to the files of the database it is
    working on, each opened on its first query, and its schema replica,
    built on first use, for inner-db augmentation. The pipelines borrow
    them. As the base file's handle opens, it reads the database's schema
    for the corpus, unless the corpus has it already."""

    def __init__(self, corpus: Corpus, db_id: str):
        self.db_id = db_id
        self._corpus = corpus
        base, *suite = corpus.files(db_id)
        #: The base file's handle.
        self.base = ReadOnlyHandle(base, on_open=lambda conn: corpus.schema(db_id, conn))
        self.on = {base: self.base, **{path: ReadOnlyHandle(path) for path in suite}}

    @cached_property
    def replica(self) -> sql_analysis.SchemaReplica:
        return sql_analysis.SchemaReplica(self._corpus.schema(self.db_id).tables)

    def close(self) -> None:
        for handle in self.on.values():
            handle.close()
        if "replica" in vars(self):
            self.replica.close()


class Corpus:
    """One Spider-layout corpus, ``<root>/database/<db_id>/<db_id>.sqlite``,
    and, with ``variant_root``, each database's test-suite variants,
    ``<variant_root>/<db_id>/*.sqlite`` in name order.

    It keeps one schema per database, lists each database's files once,
    compares their bytes once, and keeps each thread's read-only handles
    and schema replica for the database that thread is on. A database is
    introspected on the connection of the first base-file handle opened
    for it, or, asked for its schema with no such handle, on a connection
    of its own. :meth:`close` closes every thread's handles and replicas;
    the corpus stays usable afterwards. Use it as a context manager, or
    call :meth:`close`."""

    def __init__(self, root: str | Path, variant_root: str | Path | None = None):
        self.root = Path(root)
        self.variant_root = Path(variant_root) if variant_root is not None else None
        #: Schemas by db_id, as read.
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

    def schema(self, db_id: str, conn: sqlite3.Connection | None = None) -> DatabaseSchema:
        """``db_id``'s schema, introspected on first use: on ``conn``, an
        open connection to its base file with no authorizer, if given, or
        else on a connection of its own. Threads that ask at once all get
        the one schema kept."""
        schema = self.schemas.get(db_id)
        if schema is None:
            base = self.files(db_id)[0]
            read = read_schema(conn, base, db_id) if conn else introspect_database(base, db_id)
            schema = self.schemas.setdefault(db_id, read)
        return schema

    def files(self, db_id: str) -> list[Path]:
        """``db_id``'s files: the base file, then its variants in order. They
        are listed, and the base file's existence checked, on first use; a
        missing base file is a CorpusLayoutError."""
        if db_id not in self._files:
            base = corpus_db_path(self.root, db_id)
            if not base.exists():
                raise CorpusLayoutError(f"expected database file at {base}")
            suite = (
                variant_suite_paths(self.variant_root, db_id)
                if self.variant_root is not None
                else []
            )
            self._files[db_id] = [base, *suite]
        return self._files[db_id]

    def handles(self, db_id: str) -> _DbHandles:
        """The calling thread's handles for ``db_id``; the handles it held
        for another database are closed."""
        key = threading.get_ident()
        current = self._open.get(key)
        if current is None or current.db_id != db_id:
            if current is not None:
                current.close()
            current = self._open[key] = _DbHandles(self, db_id)
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
        files = self.corpus.files(sample.db_id)
        for key in _statement_keys(sample, pred_sql):
            if key not in self.statements:
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
        last sample needing them is done, whether it passed or failed."""
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
        # The base file's handle that ran the gold read the schema as it opened.
        tables = corpus.schema(sample.db_id).tables
        failure = sql_analysis.classify_outcome(pred_sql, tables, pred_outcome).status
    return EvalVerdict(
        sample_id=sample.sample_id,
        ex_match=ex,
        ts_match=ts,
        pred_sql=pred_sql,
        failure_class=failure,
        outcome_kind=pred_outcome.kind,
    )


#: A run wider than 1 widens once one of its samples has run this long.
#: In eval on the fixture benchmark (2-core x86-64) a sample takes 0.2 ms
#: in the median and at most about 2 ms warm, so threads there only trade
#: the GIL and open more handles; a heavy-benchmark sample takes over 5 ms,
#: and a model call at least 10 ms. It equals CPython's default switch interval.
WIDEN_AFTER_SECS = 0.005


def run_samples(
    fn: Callable[[Sample], Any],
    samples: Sequence[Sample],
    width: int = 1,
) -> list:
    """``fn(s)`` for each sample, in sample order. Samples start on the
    calling thread in db_id order (ties keep sample order), so a thread
    keeps to one database's handles. With ``width`` over 1, the run widens
    once a sample has run for :data:`WIDEN_AFTER_SECS`: a watcher thread
    sees it within twice that, or the calling thread as it starts the next
    sample. The next ``width - 1`` samples then start at once on helper
    threads, and from then on up to ``width`` run at once; a run never
    narrows. If samples fail, the error of the first failing one in sample
    order is raised: a failure cancels every later sample not yet started,
    and every earlier one still runs. Every thread the run started has
    ended when it returns."""
    if width < 1:
        raise ValueError(f"width must be at least 1, not {width}")
    width = min(width, len(samples))
    cursor = iter(sorted(range(len(samples)), key=lambda i: samples[i].db_id))
    results = [None] * len(samples)
    #: The first failure in sample order, as (index, error); an interrupt
    #: or exit is at index -1, so it cancels every sample not yet started.
    failed: tuple[int, BaseException] | None = None
    lock = threading.RLock()
    #: When the latest sample started; before the run widens, only the
    #: calling thread runs samples.
    since = time.monotonic()
    #: Set, under the lock, once the run has widened or ended.
    settled = threading.Event()
    helpers: list[threading.Thread] = []

    def take() -> int | None:
        with lock:
            for i in cursor:
                if failed is None or i < failed[0]:
                    return i
        return None

    def widen() -> None:
        with lock:
            if settled.is_set():
                return
            settled.set()
            # Taken before any starts, so none is cancelled by another's failure.
            taken = [take() for _ in range(width - 1)]
        helpers.extend(threading.Thread(target=work, args=(i,)) for i in taken if i is not None)
        for helper in helpers:
            helper.start()

    def work(i: int | None) -> None:
        """Run sample ``i``, then each sample taken after it."""
        nonlocal failed, since
        while i is not None:
            now = time.monotonic()
            if now - since >= WIDEN_AFTER_SECS and not settled.is_set():
                widen()
            since = now
            try:
                results[i] = fn(samples[i])
            except BaseException as exc:
                interrupt = not isinstance(exc, Exception)
                with lock:
                    at = -1 if interrupt else i
                    if failed is None or at < failed[0]:
                        failed = (at, exc)
                if interrupt:
                    raise
            i = take()

    def watch() -> None:
        while not settled.wait(WIDEN_AFTER_SECS):
            if time.monotonic() - since >= WIDEN_AFTER_SECS:
                widen()

    # Taken before the watcher starts, so the calling thread runs a sample
    # however soon the run widens.
    first = take()
    watcher = threading.Thread(target=watch) if width > 1 else None
    if watcher is not None:
        watcher.start()
    try:
        work(first)
    finally:
        with lock:
            settled.set()
        if watcher is not None:
            watcher.join()
        for helper in helpers:
            helper.join()
        # work and widen refer to each other: unlink them, so that fn and
        # the results are freed on return, not by the cycle collector.
        del work
    if failed is not None:
        raise failed[1]
    return results


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

    Samples run through :func:`run_samples`, grouped by db_id, so each
    thread keeps its database's read-only handles open across samples, and
    classifies an EX failure by its prediction's outcome on the base file.
    They run on the calling thread until one takes
    :data:`WIDEN_AFTER_SECS`, then up to ``parallelism`` at once. All of
    ``corpus``'s handles are closed before this returns or raises."""
    unknown = set(predictions) - {s.sample_id for s in samples}
    if unknown:
        raise CorpusLayoutError(f"predictions for unknown sample ids: {sorted(unknown)}")
    ctx = _EvalContext(corpus=corpus, timeout=timeout)
    # List each database's files serially, checking that its base file
    # exists, so worker threads only read the list, and count the samples
    # that need each statement's outcomes.
    for s in samples:
        ctx.expect(s, predictions.get(s.sample_id))

    def evaluate(s: Sample) -> EvalVerdict:
        pred_sql = predictions.get(s.sample_id)
        try:
            return _evaluate_one(ctx, s, pred_sql)
        finally:
            ctx.finished(s, pred_sql)

    try:
        results = run_samples(evaluate, samples, parallelism)
    finally:
        # Samples cancelled after a failure never finish: drop what they held.
        ctx.statements.clear()
        corpus.close()
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


def read_json_lines(path: str | Path) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each non-blank line of a JSON-lines
    file; a line that is not JSON is a ValueError naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path} line {n}: {exc}") from None
                yield n, value


def load_samples(path: str | Path) -> list[dict]:
    """Raw sample records from a JSON-lines file."""
    return [rec for _, rec in read_json_lines(path)]


def record_fields(rec, keys: tuple[str, ...], which: str) -> list:
    """The values of ``keys`` in ``rec``, the record named by ``which``; a
    record that is not a JSON object, lacks a key, or holds a text key's
    value that is not a string is a ValueError."""
    if not isinstance(rec, dict):
        raise ValueError(f"{which} is not a JSON object")
    for key in keys:
        if key not in rec:
            raise ValueError(f"{which} has no {key!r} key")
        if key in {"db_id", "question", "gold_sql", "sql"} and not isinstance(rec[key], str):
            raise ValueError(f"{which}: {key!r} must be a string")
    return [rec[key] for key in keys]


def samples_from_records(records: list[dict], corpus: Corpus) -> list[Sample]:
    """Each record as a Sample. A record whose database has no file in
    ``corpus`` is a CorpusLayoutError, and a second record for one
    sample_id is a ValueError naming the id and both records."""
    samples = []
    record_of: dict[str, int] = {}
    for n, rec in enumerate(records, 1):
        sample_id, db_id, question, gold_sql = record_fields(
            rec, ("sample_id", "db_id", "question", "gold_sql"), f"sample record {n}"
        )
        sample_id = str(sample_id)
        if sample_id in record_of:
            raise ValueError(
                f"sample records {record_of[sample_id]} and {n} share sample_id {sample_id!r}"
            )
        record_of[sample_id] = n
        corpus.files(db_id)
        samples.append(Sample(sample_id, db_id, question, gold_sql))
    return samples


def load_predictions(path: str | Path) -> dict[str, str]:
    """``sample_id -> sql`` from a JSON-lines file; a second line for one
    sample_id is a ValueError naming the id and both lines."""
    preds: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for n, rec in read_json_lines(path):
        sample_id, sql = record_fields(rec, ("sample_id", "sql"), f"{path} line {n}")
        sample_id = str(sample_id)
        if sample_id in line_of:
            raise ValueError(
                f"{path} lines {line_of[sample_id]} and {n} both predict sample {sample_id!r}"
            )
        line_of[sample_id] = n
        preds[sample_id] = sql
    return preds


def format_summary_table(report: EvalReport) -> str:
    """Plain-text summary mirroring an EX/TS leaderboard row."""
    ex = 100.0 * report.ex_accuracy
    ts = "-" if report.ts_accuracy is None else f"{100.0 * report.ts_accuracy:.1f}"
    lines = [
        f"{'Model':<30} {'EX':>6} {'TS':>6}",
        f"{'predictions':<30} {ex:>6.1f} {ts:>6}",
        "",
        f"samples: {report.n_samples}",
    ]
    if report.error_histogram:
        lines.append("failure classes:")
        for key, count in sorted(report.error_histogram.items()):
            lines.append(f"  {key:<20} {count}")
    return "\n".join(lines)
