"""Read-only SQL execution with timeouts, and EX result comparison.

Execution results are normalized row tuples: NULL, int, float, str, or a
content digest for blobs. Integral floats normalize to int so that e.g.
AVG results compare equal to integer literals across queries.
"""

from __future__ import annotations

import hashlib
import math
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import GoldExecutionFailed, NotADatabaseError

ROWS = "rows"
EXEC_ERROR = "error"
TIMEOUT = "timeout"

DEFAULT_TIMEOUT_SECS = 30.0
FLOAT_REL_TOL = 1e-6

#: VM instructions between deadline checks in the progress handler.
_PROGRESS_STEP = 1000


@dataclass(frozen=True)
class ExecutionOutcome:
    kind: str
    rows: tuple[tuple, ...] | None = None
    error_message: str | None = None
    elapsed: float = 0.0

    @property
    def is_rows(self) -> bool:
        return self.kind == ROWS

    @staticmethod
    def of_rows(rows, elapsed: float = 0.0) -> "ExecutionOutcome":
        return ExecutionOutcome(ROWS, rows=tuple(tuple(r) for r in rows), elapsed=elapsed)

    @staticmethod
    def of_error(message: str, elapsed: float = 0.0) -> "ExecutionOutcome":
        return ExecutionOutcome(EXEC_ERROR, error_message=message, elapsed=elapsed)

    @staticmethod
    def of_timeout(elapsed: float) -> "ExecutionOutcome":
        return ExecutionOutcome(TIMEOUT, elapsed=elapsed)


def normalize_cell(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isfinite(value) and value == math.floor(value):
            return int(value)
        return value
    if isinstance(value, bytes):
        return "blob:" + hashlib.sha256(value).hexdigest()
    return value


#: The authorizer actions a query needs. A handle denies every other action
#: -- ATTACH, PRAGMA, temp-schema DDL, writes -- when the statement is
#: prepared, so no statement can change what later statements on the same
#: handle see, or touch the file system.
READ_ACTIONS = frozenset(
    {
        sqlite3.SQLITE_SELECT,
        sqlite3.SQLITE_READ,
        sqlite3.SQLITE_FUNCTION,
        sqlite3.SQLITE_RECURSIVE,
    }
)


class ReadOnlyHandle:
    """A read-only connection to one SQLite file, opened on first use and
    reusable for any number of queries until :meth:`close`.

    Only SELECT, READ, FUNCTION and RECURSIVE actions are authorized. A
    handle is used by one thread at a time, but may be closed from another.
    """

    def __init__(self, db_path: str | Path):
        self.path = Path(db_path)
        self._conn: sqlite3.Connection | None = None
        self._releasing = False

    def __str__(self) -> str:
        return str(self.path)

    def __enter__(self) -> "ReadOnlyHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _connection(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        if not self.path.exists():
            raise FileNotFoundError(self.path)
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise NotADatabaseError(f"{self.path}: {exc}") from exc
        try:
            # Force a header read; junk files fail here, not at connect time.
            conn.execute("SELECT 1 FROM sqlite_master LIMIT 1")
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise NotADatabaseError(f"{self.path}: {exc}") from exc
        conn.set_authorizer(self._authorize)
        self._conn = conn
        return conn

    def run(self, sql: str, timeout: float = DEFAULT_TIMEOUT_SECS) -> ExecutionOutcome:
        """Run one statement with a fresh deadline of ``timeout`` seconds."""
        conn = self._connection()
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        start = time.monotonic()
        deadline = start + timeout
        timed_out = False

        def on_progress():
            nonlocal timed_out
            if time.monotonic() > deadline:
                timed_out = True
                return 1
            return 0

        conn.set_progress_handler(on_progress, _PROGRESS_STEP)
        try:
            raw = conn.execute(sql).fetchall()
        except sqlite3.DatabaseError as exc:
            elapsed = time.monotonic() - start
            if timed_out:
                return ExecutionOutcome.of_timeout(elapsed)
            message = str(exc)
            if "file is not a database" in message:
                raise NotADatabaseError(f"{self.path}: {message}") from exc
            return ExecutionOutcome.of_error(message, elapsed)
        finally:
            self._free_page_cache(conn)
        elapsed = time.monotonic() - start
        rows = tuple(tuple(normalize_cell(c) for c in row) for row in raw)
        return ExecutionOutcome.of_rows(rows, elapsed)

    def _authorize(self, action, arg1, *_names) -> int:
        if action in READ_ACTIONS:
            return sqlite3.SQLITE_OK
        if action == sqlite3.SQLITE_PRAGMA and arg1 == "shrink_memory" and self._releasing:
            return sqlite3.SQLITE_OK
        return sqlite3.SQLITE_DENY

    def _free_page_cache(self, conn: sqlite3.Connection) -> None:
        """Drop the pages the last query cached (up to SQLite's 2 MB per
        connection), so an idle open handle holds no more memory than a
        closed one. The authorizer allows this one pragma only during this
        call. ``executescript`` bypasses the statement cache, so a query
        with the same text is still prepared, and denied, on its own. A
        failed release is ignored: the query's outcome stands."""
        self._releasing = True
        try:
            conn.executescript("PRAGMA shrink_memory")
        except sqlite3.Error:
            pass
        finally:
            self._releasing = False

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def execute(
    db: str | Path | ReadOnlyHandle, sql: str, timeout: float = DEFAULT_TIMEOUT_SECS
) -> ExecutionOutcome:
    """Run one statement against a SQLite file, read-only. ``db`` is either
    a path, run on a private connection closed before returning, or an
    open :class:`ReadOnlyHandle` to reuse. Write attempts fail with an
    ExecError outcome; the file is never modified."""
    if isinstance(db, ReadOnlyHandle):
        return db.run(sql, timeout)
    with ReadOnlyHandle(db) as handle:
        return handle.run(sql, timeout)


# --- comparison -------------------------------------------------------------


def _cells_equal(a, b, rel_tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num and b_num:
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-9)
    return type(a) is type(b) and a == b


def _rows_equal(ra, rb, rel_tol: float) -> bool:
    return len(ra) == len(rb) and all(_cells_equal(a, b, rel_tol) for a, b in zip(ra, rb))


def _has_float(rows) -> bool:
    return any(isinstance(c, float) for row in rows for c in row)


def results_match(
    pred: ExecutionOutcome,
    gold: ExecutionOutcome,
    order_sensitive: bool,
    rel_tol: float = FLOAT_REL_TOL,
    set_semantics: bool = False,
) -> bool:
    """EX comparison: row lists elementwise when order matters, multisets
    otherwise. A non-Rows gold is a corpus defect and raises."""
    if not gold.is_rows:
        raise GoldExecutionFailed(
            f"gold execution was {gold.kind}: {gold.error_message or ''}".strip()
        )
    if not pred.is_rows:
        return False
    pred_rows = pred.rows
    gold_rows = gold.rows
    if set_semantics:
        pred_rows = tuple(dict.fromkeys(pred_rows))
        gold_rows = tuple(dict.fromkeys(gold_rows))
    if order_sensitive:
        return _rows_equal_list(pred_rows, gold_rows, rel_tol)
    # Multiset mode: exact hashable fast path, then tolerant matching when
    # floats are involved.
    if Counter(pred_rows) == Counter(gold_rows):
        return True
    if len(pred_rows) != len(gold_rows):
        return False
    if not (_has_float(pred_rows) or _has_float(gold_rows)):
        return False
    remaining = list(gold_rows)
    for row in pred_rows:
        for idx, cand in enumerate(remaining):
            if _rows_equal(row, cand, rel_tol):
                del remaining[idx]
                break
        else:
            return False
    return True


def _rows_equal_list(pred_rows, gold_rows, rel_tol: float) -> bool:
    return len(pred_rows) == len(gold_rows) and all(
        _rows_equal(p, g, rel_tol) for p, g in zip(pred_rows, gold_rows)
    )
