import contextlib
import hashlib
import math
import os
import random
import signal
import sqlite3
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlforge import executor
from sqlforge.errors import GoldExecutionFailed, NotADatabaseError
from sqlforge.executor import (
    EXEC_ERROR,
    ROWS,
    READ_ACTIONS,
    TIMEOUT,
    ExecutionOutcome,
    ReadOnlyHandle,
    execute,
    normalize_cell,
    results_match,
)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExecute:
    def test_count_seeded_singers(self, corpus):
        outcome = execute(corpus.db_path("concert_singer"), "SELECT count(*) FROM singer")
        assert outcome.kind == ROWS
        assert outcome.rows == ((6,),)

    def test_empty_result_is_rows(self, corpus):
        outcome = execute(corpus.db_path("shop"), "SELECT 1 WHERE 0")
        assert outcome.kind == ROWS
        assert outcome.rows == ()

    def test_engine_error_mentions_table(self, corpus):
        outcome = execute(corpus.db_path("shop"), "SELECT * FROM nonexistent_table")
        assert outcome.kind == EXEC_ERROR
        assert "nonexistent_table" in outcome.error_message

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            execute(tmp_path / "gone.sqlite", "SELECT 1")

    def test_not_a_database(self, tmp_path):
        path = tmp_path / "junk.sqlite"
        path.write_text("not a database " * 40)
        with pytest.raises(NotADatabaseError):
            execute(path, "SELECT 1")

    def test_statement_naming_not_a_database_is_an_error(self, corpus):
        """Only opening a handle decides that a file is not a database; a
        statement whose message says so is an error outcome."""
        outcome = execute(corpus.db_path("shop"), 'SELECT * FROM "file is not a database"')
        assert outcome.kind == EXEC_ERROR
        assert "no such table: file is not a database" in outcome.error_message

    def test_cell_over_16_mb_is_an_error(self, corpus):
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            outcome = handle.run("SELECT zeroblob(16000001)")
            assert outcome.kind == EXEC_ERROR
            assert "too big" in outcome.error_message
            assert handle.run("SELECT length(zeroblob(16000000))").rows == ((16000000,),)

    def test_write_statement_fails_readonly(self, corpus):
        outcome = execute(corpus.db_path("shop"), "DELETE FROM orders")
        assert outcome.kind == EXEC_ERROR

    def test_never_mutates_database(self, corpus):
        path = corpus.db_path("shop")
        before = file_digest(path)
        execute(path, "SELECT * FROM orders")
        execute(path, "DELETE FROM orders")
        execute(path, "UPDATE customers SET city = 'X'")
        assert file_digest(path) == before

    def test_timeout_on_pathological_query(self, corpus):
        sql = (
            "SELECT count(*) FROM singer a, singer b, singer c, singer d, "
            "singer e, singer f, singer g, singer h, singer i, singer j, singer k"
        )
        outcome = execute(corpus.db_path("concert_singer"), sql, timeout=0.2)
        assert outcome.kind == TIMEOUT
        assert outcome.elapsed < 0.2 + 2.0  # scheduling slack

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
    def test_timeout_not_positive_and_finite_rejected_before_opening(
        self, corpus, opened, timeout
    ):
        path = corpus.db_path("shop")
        with pytest.raises(ValueError):
            execute(path, "SELECT 1", timeout=timeout)
        with ReadOnlyHandle(path) as handle:
            with pytest.raises(ValueError):
                execute(handle, "SELECT 1", timeout=timeout)
        assert opened == []

    def test_integral_real_normalization_from_avg(self, tmp_path):
        path = tmp_path / "avg.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE v(x INTEGER)")
        conn.execute("INSERT INTO v VALUES (1),(3)")
        conn.commit()
        conn.close()
        outcome = execute(path, "SELECT avg(x) FROM v")
        assert outcome.rows == ((2,),)
        assert isinstance(outcome.rows[0][0], int)


class TestAuthorizer:
    """Only SELECT, READ, FUNCTION and RECURSIVE actions are authorized."""

    def test_attach_creates_no_file(self, corpus, tmp_path):
        target = tmp_path / "attached.db"
        outcome = execute(corpus.db_path("shop"), f"ATTACH DATABASE '{target}' AS z")
        assert outcome.kind == EXEC_ERROR
        assert not target.exists()

    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE TEMP TABLE orders(x)",
            "PRAGMA case_sensitive_like=1",
            "PRAGMA cache_size = -100000",
            "PRAGMA shrink_memory",
        ],
    )
    def test_connection_state_change_is_error(self, corpus, sql):
        assert execute(corpus.db_path("shop"), sql).kind == EXEC_ERROR

    def test_recursive_cte_and_functions_allowed(self, corpus):
        outcome = execute(
            corpus.db_path("shop"),
            "WITH RECURSIVE n(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 3) "
            "SELECT max(i), upper(name) FROM n, customers WHERE customer_id = 1",
        )
        assert outcome.rows == ((3, "ANA"),)

    def test_exactly_the_read_actions_are_authorized(self):
        answers = {
            action: executor.read_only_authorizer(action, None, None, None, None)
            for action in range(34)
        }
        assert {a for a, answer in answers.items() if answer == sqlite3.SQLITE_OK} == READ_ACTIONS
        assert set(answers.values()) == {sqlite3.SQLITE_OK, sqlite3.SQLITE_DENY}


class TestReadOnlyHandle:
    def test_reused_after_timeout(self, corpus):
        slow = (
            "SELECT count(*) FROM singer a, singer b, singer c, singer d, "
            "singer e, singer f, singer g, singer h, singer i, singer j, singer k"
        )
        with ReadOnlyHandle(corpus.db_path("concert_singer")) as handle:
            assert execute(handle, slow, timeout=0.2).kind == TIMEOUT
            outcome = execute(handle, "SELECT count(*) FROM singer", timeout=0.2)
            assert outcome.rows == ((6,),)

    def test_denied_statement_leaves_handle_unchanged(self, corpus):
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            assert execute(handle, "CREATE TEMP TABLE orders(x)").kind == EXEC_ERROR
            assert execute(handle, "PRAGMA case_sensitive_like=1").kind == EXEC_ERROR
            assert execute(handle, "SELECT count(*) FROM orders").rows == ((4,),)
            assert execute(handle, "PRAGMA shrink_memory").kind == EXEC_ERROR
            assert execute(
                handle, "SELECT count(*) FROM customers WHERE city LIKE 'rome'"
            ).rows == ((2,),)

    def test_page_cache_bounded_at_open(self, corpus, monkeypatch):
        def allow_all(*args):
            return sqlite3.SQLITE_OK

        monkeypatch.setattr(executor, "read_only_authorizer", allow_all)
        bound = ((-1024,),)
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            for _ in range(3):
                assert execute(handle, "SELECT count(*) FROM orders").rows == ((4,),)
                assert execute(handle, "PRAGMA cache_size").rows == bound
        assert execute(corpus.db_path("shop"), "PRAGMA cache_size").rows == bound

    def test_closed_handle_reopens(self, corpus):
        handle = ReadOnlyHandle(corpus.db_path("shop"))
        assert execute(handle, "SELECT count(*) FROM customers").rows == ((4,),)
        handle.close()
        handle.close()
        assert execute(handle, "SELECT count(*) FROM customers").rows == ((4,),)
        handle.close()

    #: What only an introspecting read may run: the text of read_schema's
    #: PRAGMA, which SQLite caches on the connection, another PRAGMA, and
    #: an ATTACH.
    READ_ONLY_BY_READ = ["PRAGMA table_info(customers)", 'PRAGMA table_xinfo("customers")',
                         "ATTACH 'attached.sqlite' AS other"]

    @pytest.mark.parametrize("error", [None, ValueError("stop"),
                                       sqlite3.OperationalError("stop")])
    def test_read_lifts_the_authorizer_and_puts_it_back(self, corpus, opened, tmp_path,
                                                        monkeypatch, error):
        """``read`` may run what model text may not, on the handle's one
        connection. Once it returns or raises, the authorizer is back, and
        the same text, re-prepared, is refused as an error outcome."""
        monkeypatch.chdir(tmp_path)  # where a relative ATTACH would make its file
        read = []

        def introspect(conn):
            read.append([conn.execute(sql).fetchall() for sql in self.READ_ONLY_BY_READ[:2]])
            if error is not None:
                raise error
            return "done"

        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            assert not handle.is_open
            assert handle.run(self.READ_ONLY_BY_READ[0]).kind == EXEC_ERROR
            assert handle.is_open
            if error is None:
                assert handle.read(introspect) == "done"
            else:
                with pytest.raises(type(error), match="stop"):
                    handle.read(introspect)
            for sql in self.READ_ONLY_BY_READ:
                assert handle.run(sql).kind == EXEC_ERROR, sql
            assert handle.run("SELECT count(*) FROM customers").rows == ((4,),)
        assert len(read) == 1 and all(read[0])
        assert len(opened) == 1 and not opened.still_open()
        assert list(tmp_path.iterdir()) == []


def counting(n):
    """A query that counts to ``n`` through a recursive CTE: CPU-bound
    inside SQLite, one row out."""
    return (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        f"WHERE x < {n}) SELECT count(*) FROM c"
    )


class TestDeadlineWatchdog:
    """One watchdog thread interrupts statements past their deadline; no
    Python code runs while SQLite executes a statement."""

    def test_query_under_its_timeout_returns_rows_beside_a_busy_thread(self, corpus):
        # About 0.15 s alone on a 2-core x86-64 box; far from the timeout.
        query = counting(300_000)
        stop = threading.Event()

        def spin():
            n = 0
            while not stop.is_set():
                n += 1

        busy = threading.Thread(target=spin)
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            busy.start()
            try:
                outcomes = [execute(handle, query, timeout=2.0) for _ in range(5)]
            finally:
                stop.set()
                busy.join(timeout=10)
        assert not busy.is_alive()
        assert [(o.kind, o.rows) for o in outcomes] == [(ROWS, ((300_000,),))] * 5

    def test_next_statement_runs_after_an_interrupt(self, corpus):
        # About 10 s alone, so a lost interrupt shows as rows, not a hang.
        slow = counting(20_000_000)
        count = "SELECT count(*) FROM customers"
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            # A deadline that passes before the statement starts stepping,
            # whose first interrupt SQLite clears, still times out.
            for timeout in (1e-6, 0.05):
                assert execute(handle, slow, timeout=timeout).kind == TIMEOUT
                assert execute(handle, count).rows == ((4,),)
            # An interrupt for a generation no longer armed does nothing.
            with executor._WATCHDOG._lock:
                executor._WATCHDOG._fire(handle, handle._generation)
            assert execute(handle, count).rows == ((4,),)
            # An interrupt that reaches the connection after its statement
            # ended is cleared when the next statement starts.
            handle._conn.interrupt()
            assert execute(handle, count).rows == ((4,),)

    def test_stale_generation_never_interrupts_the_armed_statement(self, corpus):
        query = counting(100_000)
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            execute(handle, "SELECT 1")
            stale = handle._generation
            stop = threading.Event()

            def fire_stale():
                while not stop.wait(0.001):
                    with executor._WATCHDOG._lock:
                        executor._WATCHDOG._fire(handle, stale)

            firing = threading.Thread(target=fire_stale)
            firing.start()
            try:
                outcomes = [execute(handle, query, timeout=5.0) for _ in range(3)]
            finally:
                stop.set()
                firing.join(timeout=10)
        assert not firing.is_alive()
        assert [o.rows for o in outcomes] == [((100_000,),)] * 3

    def test_quick_queries_do_not_wake_the_watchdog_each(self, corpus, monkeypatch):
        wakes = []
        fire_due = executor._WATCHDOG._fire_due

        def counted():
            wakes.append(1)
            return fire_due()

        monkeypatch.setattr(executor._WATCHDOG, "_fire_due", counted)
        with ReadOnlyHandle(corpus.db_path("shop")) as handle:
            for _ in range(200):
                assert execute(handle, "SELECT count(*) FROM customers").rows == ((4,),)
        assert len(wakes) <= 2


def finishes_in_child(child, seconds: float = 10.0) -> bool:
    """Fork, and run ``child()`` in the child; whether it returned true
    within ``seconds``. A child still running then is killed."""
    # From Python 3.12 a fork while other threads run warns in the parent.
    warns = (pytest.warns(DeprecationWarning, match="fork")
             if sys.version_info >= (3, 12) else contextlib.nullcontext())
    with warns:
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = child()
            finally:
                os._exit(0 if ok else 1)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status) == 0
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedChild:
    """A forked child enforces deadlines with a watchdog of its own."""

    def test_child_forked_after_a_timed_query_times_out(self, corpus):
        path = corpus.db_path("shop")
        # About 1.5 s alone on a 2-core x86-64 box.
        slow = counting(3_000_000)
        assert execute(path, slow, timeout=0.2).kind == TIMEOUT
        assert finishes_in_child(lambda: execute(path, slow, timeout=0.2).kind == TIMEOUT)

    def test_child_forked_while_the_watchdog_lock_is_held_runs(self, corpus):
        path = corpus.db_path("shop")
        held, release = threading.Event(), threading.Event()

        def hold():
            with executor._WATCHDOG._lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            finished = finishes_in_child(lambda: execute(path, "SELECT 1").rows == ((1,),))
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert finished


class TestNormalizeCell:
    def test_integral_float_to_int(self):
        assert normalize_cell(2.0) == 2
        assert isinstance(normalize_cell(2.0), int)

    def test_fractional_float_stays_float(self):
        assert normalize_cell(2.5) == 2.5

    def test_none_passthrough(self):
        assert normalize_cell(None) is None

    def test_blob_digest(self):
        digest = normalize_cell(b"\x00\x01")
        assert digest.startswith("blob:")
        assert normalize_cell(b"\x00\x01") == digest
        assert normalize_cell(b"\x00\x02") != digest


def rows_outcome(rows):
    return ExecutionOutcome(ROWS, rows=tuple(tuple(r) for r in rows))


class TestResultsMatch:
    def test_multiset_ignores_order(self):
        assert results_match(rows_outcome([(1,), (2,)]), rows_outcome([(2,), (1,)]), False)

    def test_order_sensitive_detects_order(self):
        assert not results_match(
            rows_outcome([(1,), (2,)]), rows_outcome([(2,), (1,)]), True
        )

    def test_integral_real_vs_int(self):
        assert results_match(rows_outcome([(2.0,)]), rows_outcome([(2,)]), False)

    def test_float_tolerance(self):
        assert results_match(
            rows_outcome([(1.0000001e6,)]), rows_outcome([(1.0000002e6,)]), False
        )
        assert not results_match(rows_outcome([(1.0,)]), rows_outcome([(1.5,)]), False)

    def test_multiset_counts_matter(self):
        assert not results_match(
            rows_outcome([(1,), (1,)]), rows_outcome([(1,), (2,)]), False
        )

    def test_text_case_sensitive(self):
        assert not results_match(rows_outcome([("a",)]), rows_outcome([("A",)]), False)

    def test_pred_error_is_false(self):
        assert not results_match(
            ExecutionOutcome.of_error("boom"), rows_outcome([(1,)]), False
        )

    def test_pred_timeout_is_false(self):
        assert not results_match(
            ExecutionOutcome.of_timeout(1.0), rows_outcome([(1,)]), False
        )

    def test_gold_error_raises(self):
        with pytest.raises(GoldExecutionFailed):
            results_match(rows_outcome([(1,)]), ExecutionOutcome.of_error("bad"), False)

    def test_reflexive_and_symmetric(self):
        a = rows_outcome([(1, "x"), (2, "y"), (2.5, None)])
        b = rows_outcome([(2.5, None), (1, "x"), (2, "y")])
        for order in (True, False):
            assert results_match(a, a, order)
            assert results_match(a, b, order) == results_match(b, a, order)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(-5, 5), st.text(max_size=3)), max_size=8
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multiset_invariant_under_permutation(self, rows, seed):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert results_match(rows_outcome(shuffled), rows_outcome(rows), False)


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        return f"X'{value.hex()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and math.isnan(value):
        return "(1e999 - 1e999)"
    if isinstance(value, float) and math.isinf(value):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


#: Cell values whose SQL literals SQLite turns into every type it returns:
#: integers beyond 64 bits come back as floats, NaN as NULL.
CELLS = st.one_of(
    st.none(),
    st.integers(-(2**64), 2**64),
    st.integers(-5, 5).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 2.5, 1e300]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=4),
    st.binary(max_size=4),
)


class TestRowsAsFetched:
    @settings(max_examples=150, deadline=None)
    @given(width=st.integers(1, 3), data=st.data())
    def test_rows_equal_cell_by_cell_normalization(self, corpus, width, data):
        rows = data.draw(st.lists(st.tuples(*[CELLS] * width), min_size=1, max_size=6))
        sql = "VALUES " + ", ".join(
            "(" + ", ".join(sql_literal(c) for c in row) + ")" for row in rows
        )
        conn = sqlite3.connect(":memory:")
        try:
            raw = conn.execute(sql).fetchall()
        finally:
            conn.close()
        expected = tuple(tuple(normalize_cell(c) for c in r) for r in raw)
        outcome = execute(corpus.db_path("shop"), sql)
        # repr tells 1 from 1.0 and 0.0 from -0.0, and a tuple from a list.
        assert repr(outcome.rows) == repr(expected)


#: One NaN object: Counter finds a key by identity before equality.
NAN = float("nan")
#: Cells no two of which are within the float tolerance unless they are
#: equal, so the tolerant fallback agrees with exact counting.
DISTINCT_CELLS = st.sampled_from(
    [0, 1, -1, 2**70, 0.0, -0.0, 1.0, 0.5, 2.5, math.inf, NAN, "a", "b", "", None]
)


class TestMultisetVerdict:
    @settings(max_examples=200, deadline=None)
    @given(
        gold_rows=st.lists(st.tuples(DISTINCT_CELLS, DISTINCT_CELLS), max_size=8),
        edits=st.lists(
            st.tuples(st.sampled_from(["dup", "drop", "set", "copy"]), st.integers(0, 7),
                      st.tuples(DISTINCT_CELLS, DISTINCT_CELLS)),
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_counter_equality(self, gold_rows, edits, seed):
        shuffled = list(gold_rows)
        random.Random(seed).shuffle(shuffled)
        edited = list(shuffled)
        for op, index, row in edits:
            if op == "dup" and edited:
                edited.append(edited[index % len(edited)])
            elif op == "drop" and edited:
                del edited[index % len(edited)]
            elif op == "set" and edited:
                edited[index % len(edited)] = row
            elif op == "copy" and edited:
                # Same length, one row's count up and another's down.
                edited[index % len(edited)] = edited[0]
        # One gold outcome for every comparison, as eval shares it.
        gold = rows_outcome(gold_rows)
        for pred_rows in (gold_rows, shuffled, edited, edited):
            pred = rows_outcome(pred_rows)
            expected = Counter(pred_rows) == Counter(gold_rows)
            assert results_match(pred, gold, False) == expected
            assert results_match(gold, pred, False) == expected
