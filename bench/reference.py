"""Reference work: a fixed piece of stdlib work, shaped like sqlforge's
per-sample inner loop, timed around every pass to read the machine's speed
at that moment. It runs no sqlforge code, so no change to the program can
move it.
"""

from __future__ import annotations

import re
import sqlite3
import statistics
import time
from pathlib import Path

#: Median time of one repetition on an idle 2-core x86-64 box (Python 3.11,
#: SQLite 3.40): the nominal speed that scaled times refer to.
NOMINAL_S = 0.0015
REPS = 12
_SQL = "SELECT a, b FROM t WHERE a % 7 = 3 ORDER BY a"
_TOKEN_RE = re.compile(r"\s+|'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*|\d+|[(),.;*=%<>]")


class Reference:
    def __init__(self, path: Path):
        self.path = path
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE t(a INTEGER, b TEXT)")
            conn.executemany("INSERT INTO t VALUES (?, ?)", ((i, str(i % 97)) for i in range(3000)))
        conn.close()

    def close(self) -> None:
        self.path.unlink()

    def speed(self) -> float:
        """NOMINAL_S over the median time of ``REPS`` repetitions: above 1
        when the machine runs faster than nominal."""
        return NOMINAL_S / statistics.median(self._once() for _ in range(REPS))

    def _once(self) -> float:
        """Read-only connect, header probe, small query, aggregate, replica
        EXPLAIN and regex tokenizing."""
        start = time.perf_counter()
        conn = sqlite3.connect(f"file:{self.path}?mode=ro", uri=True)
        conn.execute("SELECT 1 FROM sqlite_master LIMIT 1")
        rows = conn.execute(_SQL).fetchall()
        tuple(tuple(r) for r in rows)
        conn.execute("SELECT b, count(*), sum(a) FROM t GROUP BY b").fetchall()
        conn.close()
        replica = sqlite3.connect(":memory:")
        replica.execute("CREATE TABLE t(a, b)")
        replica.execute(f"EXPLAIN {_SQL}")
        replica.close()
        _TOKEN_RE.findall(_SQL * 8)
        return time.perf_counter() - start
