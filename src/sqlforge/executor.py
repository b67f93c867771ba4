"""Read-only SQL execution with timeouts, and EX result comparison.

Execution results are normalized row tuples: NULL, int, float, str, or a
content digest for blobs. Integral floats normalize to int so that e.g.
AVG results compare equal to integer literals across queries.

Timeouts are wall-clock deadlines enforced by one watchdog thread per
process, which interrupts (``sqlite3_interrupt``) a statement whose deadline
has passed; SQLite runs a statement without calling back into Python. A
forked child starts its own watchdog on its first query. Handles copied
from the parent must not be reused in the child: open new ones there.
"""

from __future__ import annotations

import hashlib
import math
import os
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import GoldExecutionFailed, NotADatabaseError

ROWS = "rows"
EXEC_ERROR = "error"
TIMEOUT = "timeout"

DEFAULT_TIMEOUT_SECS = 30.0
FLOAT_REL_TOL = 1e-6

#: Each handle's page-cache bound, as SQLite's ``cache_size`` (negative:
#: KiB), set once when it opens, so an open handle, idle or not, caches at
#: most 1 MiB. On the heavy benchmark (2-core x86-64, SQLite 3.40.1),
#: SQLite's default of about 2 MB raised peak RSS by 12 % over this bound,
#: and 256 KiB lowered samples per second by 14 %.
PAGE_CACHE_SIZE = -1024


@dataclass(frozen=True)
class ExecutionOutcome:
    kind: str
    rows: tuple[tuple, ...] | None = None
    error_message: str | None = None
    elapsed: float = 0.0
    _row_counts: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_rows(self) -> bool:
        return self.kind == ROWS

    def row_counts(self) -> dict:
        """Each distinct row with its count, computed on first use. Two
        threads may both compute it; they store equal values."""
        if self._row_counts is None:
            object.__setattr__(self, "_row_counts", Counter(self.rows))
        return self._row_counts

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


#: The cell types :func:`normalize_cell` changes among those SQLite returns
#: (int, float, str, bytes, None).
_CHANGED_BY_NORMALIZING = frozenset({float, bytes})


def _normalized(raw: list[tuple]) -> tuple[tuple, ...]:
    """``raw`` with every cell normalized. Rows without a float or blob
    cell, checked by one pass in C, are kept as fetched."""
    if _CHANGED_BY_NORMALIZING.isdisjoint(map(type, chain.from_iterable(raw))):
        return tuple(raw)
    return tuple(tuple(normalize_cell(c) for c in row) for row in raw)


class _Watchdog:
    """A daemon thread, started on first use, that interrupts the statement
    of every armed handle whose deadline has passed.

    It sleeps until the earliest deadline it knows of. Arming a later
    deadline, and disarming, do not wake it, so a run of quick queries
    wakes it about once per timeout period, not once per query. Each arming
    is one generation of its handle, and an interrupt is issued only under
    the lock and only to the generation still armed, so a late interrupt
    never reaches the handle's next statement."""

    #: After an interrupt, the watchdog interrupts a still-armed statement
    #: again this much later: SQLite clears an interrupt that lands before
    #: the statement starts stepping.
    REFIRE_SECS = 0.05

    def __init__(self) -> None:
        # arm and disarm take the bare lock: Condition.__enter__ is Python.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Armed handles: deadline, generation and connection.
        self._armed: dict[ReadOnlyHandle, tuple[float, int, sqlite3.Connection]] = {}
        self._wakes_at = math.inf
        self._thread: threading.Thread | None = None

    def arm(self, handle: ReadOnlyHandle, conn: sqlite3.Connection, deadline: float) -> None:
        """Interrupt ``conn``, ``handle``'s connection, at ``deadline``
        unless disarmed first. This is the handle's next generation."""
        with self._lock:
            generation = handle._generation = handle._generation + 1
            self._armed[handle] = (deadline, generation, conn)
            if deadline < self._wakes_at:
                self._wakes_at = deadline
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._watch, name="sqlforge-deadline-watchdog", daemon=True
                    )
                    self._thread.start()
                else:
                    self._cond.notify()

    def disarm(self, handle: ReadOnlyHandle) -> bool:
        """Stop watching ``handle``; whether its statement was interrupted."""
        with self._lock:
            _, generation, _ = self._armed.pop(handle)
            return handle._interrupted == generation

    def _fire(self, handle: ReadOnlyHandle, generation: int) -> None:
        """Interrupt ``handle``'s statement if ``generation`` is still
        armed. Called with the lock held."""
        armed = self._armed.get(handle)
        if armed is None or armed[1] != generation:
            return
        handle._interrupted = generation
        try:
            armed[2].interrupt()
        except sqlite3.ProgrammingError:  # closed from another thread
            pass
        self._armed[handle] = (time.monotonic() + self.REFIRE_SECS, generation, armed[2])

    def _fire_due(self) -> float:
        """Interrupt every statement past its deadline; the earliest
        deadline left. Called with the lock held."""
        now = time.monotonic()
        for handle, (deadline, generation, _) in list(self._armed.items()):
            if deadline <= now:
                self._fire(handle, generation)
        return min((deadline for deadline, _, _ in self._armed.values()), default=math.inf)

    def _watch(self) -> None:
        with self._cond:
            while True:
                self._wakes_at = self._fire_due()
                timeout = self._wakes_at - time.monotonic()
                self._cond.wait(None if timeout == math.inf else max(timeout, 0.0))


_WATCHDOG = _Watchdog()
# A forked child has no copy of the watchdog thread, and may inherit the lock
# held: it starts from a fresh watchdog, whose first arm starts its thread.
os.register_at_fork(after_in_child=_WATCHDOG.__init__)


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


#: What compiling or running model text can raise: Python 3.10 raises
#: Warning for a second statement and ValueError for a NUL character, and
#: text that cannot be encoded is a ValueError.
STATEMENT_ERRORS = (sqlite3.Error, sqlite3.Warning, ValueError)


class ReadOnlyHandle:
    """A read-only connection to one SQLite file, opened on first use and
    reusable for any number of queries until :meth:`close`.

    Only SELECT, READ, FUNCTION and RECURSIVE actions are authorized. A
    handle is used by one thread at a time, but may be closed from another.
    """

    def __init__(self, db_path: str | Path):
        self.path = Path(db_path)
        self._conn: sqlite3.Connection | None = None
        #: Statements armed with the watchdog so far, and the last one it
        #: interrupted.
        self._generation = 0
        self._interrupted = 0

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
            conn.execute(f"PRAGMA cache_size = {PAGE_CACHE_SIZE}")
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise NotADatabaseError(f"{self.path}: {exc}") from exc
        conn.set_authorizer(self._authorize)
        self._conn = conn
        return conn

    def run(self, sql: str, timeout: float = DEFAULT_TIMEOUT_SECS) -> ExecutionOutcome:
        """Run one statement with a fresh deadline of ``timeout`` seconds,
        which must be positive and finite."""
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, not {timeout}")
        conn = self._connection()
        start = time.monotonic()
        _WATCHDOG.arm(self, conn, start + timeout)
        try:
            try:
                raw = conn.execute(sql).fetchall()
            finally:
                interrupted = _WATCHDOG.disarm(self)
        except STATEMENT_ERRORS as exc:
            elapsed = time.monotonic() - start
            if interrupted and isinstance(exc, sqlite3.OperationalError):
                return ExecutionOutcome.of_timeout(elapsed)
            message = str(exc)
            if "file is not a database" in message:
                raise NotADatabaseError(f"{self.path}: {message}") from exc
            return ExecutionOutcome.of_error(message, elapsed)
        elapsed = time.monotonic() - start
        return ExecutionOutcome(ROWS, rows=_normalized(raw), elapsed=elapsed)

    def _authorize(self, action, *_names) -> int:
        return sqlite3.SQLITE_OK if action in READ_ACTIONS else sqlite3.SQLITE_DENY

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


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num and b_num:
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-9)
    return type(a) is type(b) and a == b


def _rows_equal(ra, rb) -> bool:
    return len(ra) == len(rb) and all(map(_cells_equal, ra, rb))


def _has_float(rows) -> bool:
    return any(isinstance(c, float) for row in rows for c in row)


def results_match(
    pred: ExecutionOutcome,
    gold: ExecutionOutcome,
    order_sensitive: bool,
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
    if order_sensitive:
        return len(pred_rows) == len(gold_rows) and all(map(_rows_equal, pred_rows, gold_rows))
    # Multiset mode: exact hashable fast path, then tolerant matching when
    # floats are involved. Every count is positive, so dict equality (in C)
    # is Counter equality.
    if len(pred_rows) != len(gold_rows):
        return False
    if dict.__eq__(pred.row_counts(), gold.row_counts()):
        return True
    if not (_has_float(pred_rows) or _has_float(gold_rows)):
        return False
    remaining = list(gold_rows)
    for row in pred_rows:
        for idx, cand in enumerate(remaining):
            if _rows_equal(row, cand):
                del remaining[idx]
                break
        else:
            return False
    return True
