import dataclasses
import gc
import random
import shutil
import sqlite3
import sys
import threading
import time
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlforge import executor, metrics
from sqlforge.errors import (
    CorpusLayoutError,
    EmptyVariantSuiteError,
    GoldExecutionFailed,
    NotADatabaseError,
)
from sqlforge.metrics import (
    Corpus,
    Sample,
    evaluate_corpus,
    execution_accuracy,
    format_summary_table,
    load_predictions,
    load_samples,
    run_samples,
    samples_from_records,
    variant_suite_paths,
)
from sqlforge.metrics import test_suite_accuracy as suite_accuracy


class WideRuns(list):
    """The thread ids that ran samples, per run of width over 1 and at
    least 2 samples that returned."""

    def all_threaded(self) -> bool:
        """Whether there was such a run, and each ran samples on more than
        one thread."""
        return bool(self) and all(len(threads) > 1 for threads in self)


@pytest.fixture
def widen_at_once(monkeypatch) -> WideRuns:
    """Every run wider than 1 widens at once, whatever its samples take, and
    the threads each evaluate_corpus run used are recorded."""
    monkeypatch.setattr(metrics, "WIDEN_AFTER_SECS", 0)
    runs = WideRuns()
    run_samples = metrics.run_samples

    def recording(fn, samples, width=1):
        threads = set()

        def recorded(s):
            threads.add(threading.get_ident())
            return fn(s)

        results = run_samples(recorded, samples, width)
        if width > 1 and len(samples) > 1:
            runs.append(threads)
        return results

    monkeypatch.setattr(metrics, "run_samples", recording)
    return runs


def sample_by_gold(samples, fragment):
    for s in samples:
        if fragment in s.gold_sql and fragment in s.gold_sql:
            return s
    raise LookupError(fragment)


def sample_by_id(samples, sample_id):
    return next(s for s in samples if s.sample_id == sample_id)


class TestExecutionAccuracy:
    def test_gold_self_match(self, corpus, samples):
        for s in samples[:5]:
            assert execution_accuracy(s.gold_sql, s, corpus.db_path(s.db_id))

    def test_reference_rejected_query_fails(self, corpus, samples):
        s = sample_by_gold(samples, "min(player.hs)")
        pred = "SELECT min(HS) ,  ppos FROM player GROUP BY ppos"
        assert not execution_accuracy(pred, s, corpus.db_path(s.db_id))

    def test_swapped_join_order_matches(self, corpus, samples):
        s = sample_by_gold(samples, "min(player.hs)")
        pred = (
            "SELECT min(player.hs) , tryout.ppos FROM player JOIN tryout "
            "ON player.pid = tryout.pid GROUP BY tryout.ppos"
        )
        assert execution_accuracy(pred, s, corpus.db_path(s.db_id))

    def test_order_by_gold_is_order_sensitive(self, corpus, samples):
        s = sample_by_gold(samples, "ORDER BY Age DESC")
        pred = "SELECT Name FROM singer ORDER BY Age ASC"
        assert not execution_accuracy(pred, s, corpus.db_path(s.db_id))

    def test_order_by_after_a_comment_with_a_quote_is_order_sensitive(self, corpus, samples):
        s = dataclasses.replace(
            sample_by_gold(samples, "ORDER BY Age DESC"),
            gold_sql="SELECT Name FROM singer -- it's\nORDER BY Age",
        )
        reverse = "SELECT Name FROM singer ORDER BY Age DESC"
        assert execution_accuracy(s.gold_sql, s, corpus.db_path(s.db_id))
        assert not execution_accuracy(reverse, s, corpus.db_path(s.db_id))

    def test_columns_must_match_in_order(self, corpus, samples):
        s = dataclasses.replace(samples[0], db_id="concert_singer",
                                gold_sql="SELECT Name, Age FROM singer")
        db = corpus.db_path(s.db_id)
        assert execution_accuracy("SELECT Name, Age FROM singer", s, db)
        assert not execution_accuracy("SELECT Age, Name FROM singer", s, db)

    def test_order_by_inside_a_subquery_compares_as_multiset(self, corpus, samples):
        s = dataclasses.replace(
            samples[0], db_id="concert_singer",
            gold_sql="SELECT Name FROM (SELECT Name FROM singer ORDER BY Age DESC)",
        )
        db = corpus.db_path(s.db_id)
        assert execution_accuracy("SELECT Name FROM singer ORDER BY Age ASC", s, db)
        top_level = dataclasses.replace(s, gold_sql="SELECT Name FROM singer ORDER BY Age DESC")
        assert not execution_accuracy("SELECT Name FROM singer ORDER BY Age ASC", top_level, db)

    def test_floats_match_within_relative_tolerance(self, corpus, samples):
        s = dataclasses.replace(samples[0], db_id="concert_singer",
                                gold_sql="SELECT Name, Age / 3.0 FROM singer")
        db = corpus.db_path(s.db_id)
        assert executor.FLOAT_REL_TOL == 1e-6
        assert execution_accuracy("SELECT Name, Age / 3.0 * (1 + 1e-7) FROM singer", s, db)
        assert not execution_accuracy("SELECT Name, Age / 3.0 * (1 + 1e-5) FROM singer", s, db)

    def test_gold_failure_raises(self, corpus):
        s = Sample(
            sample_id="bad",
            db_id="shop",
            question="q",
            gold_sql="SELECT nope FROM customers",
        )
        with pytest.raises(GoldExecutionFailed):
            execution_accuracy("SELECT 1", s, corpus.db_path("shop"))


class TestOrderSensitive:
    def test_order_by_top_level(self):
        for sql in [
            "SELECT a FROM t ORDER BY a",
            "SELECT Name FROM singer -- it's\nORDER BY Age",
            "SELECT a FROM t /* ( */ ORDER BY a",
            "SELECT 'it''s' FROM t order\n  by a",
            "SELECT x FROM (SELECT a AS x FROM t) ORDER BY x",
            "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1",
        ]:
            assert metrics.order_sensitive(sql), sql

    def test_order_by_inside_subquery_is_not_top_level(self):
        for sql in [
            "SELECT a FROM t",
            "SELECT x FROM (SELECT a AS x FROM t ORDER BY a) sub",
            "WITH c AS (SELECT a FROM t ORDER BY a) SELECT a FROM c",
            "SELECT a, row_number() OVER (ORDER BY a) FROM t",
            "SELECT 'ORDER BY a' FROM t",
            'SELECT "order by" FROM t',
            "SELECT a FROM t -- ORDER BY a",
            "SELECT a FROM t /* ORDER BY a */",
            "SELECT border, byline FROM t",
        ]:
            assert not metrics.order_sensitive(sql), sql


class TestTestSuiteAccuracy:
    def test_gold_passes_whole_suite(self, corpus, samples):
        s = samples[0]
        suite = variant_suite_paths(corpus.variant_root, s.db_id)
        assert len(suite) == 2
        assert suite_accuracy(s.gold_sql, s, suite)

    def test_discriminating_variant_catches_lucky_prediction(self, corpus, samples):
        # On the base shop DB customers and orders have equal counts; the
        # variant adds an order, so the wrong-table prediction diverges.
        s = next(
            s for s in samples
            if s.db_id == "shop" and s.gold_sql == "SELECT count(*) FROM orders"
        )
        pred = "SELECT count(*) FROM customers"
        assert execution_accuracy(pred, s, corpus.db_path("shop"))
        suite = variant_suite_paths(corpus.variant_root, "shop")
        assert not suite_accuracy(pred, s, suite)

    def test_suite_of_one_equals_execution_accuracy(self, corpus, samples):
        s = samples[0]
        base = corpus.db_path(s.db_id)
        assert suite_accuracy(s.gold_sql, s, [base]) == execution_accuracy(
            s.gold_sql, s, base
        )

    def test_empty_suite_rejected(self, samples):
        with pytest.raises(EmptyVariantSuiteError):
            suite_accuracy("SELECT 1", samples[0], [])


class TestEvaluateCorpus:
    def test_all_gold_is_perfect(self, corpus, samples):
        preds = {s.sample_id: s.gold_sql for s in samples}
        report = evaluate_corpus(preds, samples, Corpus(corpus.root))
        assert report.ex_accuracy == 1.0
        assert report.n_samples == 50
        assert report.error_histogram == {}

    def test_partial_garbage_scores_exactly(self, corpus, samples):
        subset = samples[:10]
        preds = {s.sample_id: s.gold_sql for s in subset[:8]}
        preds[subset[8].sample_id] = "SELECT * FROM not_a_table"
        preds[subset[9].sample_id] = "SELECT garbage FROM"
        report = evaluate_corpus(preds, subset, Corpus(corpus.root))
        assert report.ex_accuracy == 0.8
        assert sum(report.error_histogram.values()) == 2

    def test_empty_predictions(self, corpus, samples):
        subset = samples[:4]
        report = evaluate_corpus({}, subset, Corpus(corpus.root))
        assert report.ex_accuracy == 0.0
        assert report.error_histogram == {"SyntaxError": 4}

    def test_unknown_prediction_id_rejected(self, corpus, samples):
        with pytest.raises(CorpusLayoutError):
            evaluate_corpus({"ghost": "SELECT 1"}, samples[:2], Corpus(corpus.root))

    def test_parallelism_is_deterministic(self, corpus, samples, widen_at_once):
        preds = {s.sample_id: s.gold_sql for s in samples}
        preds[samples[3].sample_id] = "SELECT broken FROM"
        serial = evaluate_corpus(
            preds, samples, Corpus(corpus.root, corpus.variant_root), parallelism=1
        )
        parallel = evaluate_corpus(
            preds, samples, Corpus(corpus.root, corpus.variant_root), parallelism=8
        )
        assert serial == parallel
        assert widen_at_once.all_threaded()

    def test_ts_at_most_ex_with_base_in_suite(self, corpus, samples):
        preds = {s.sample_id: s.gold_sql for s in samples}
        # one lucky wrong prediction, caught only by the variant suite
        lucky = next(
            s for s in samples
            if s.db_id == "shop" and s.gold_sql == "SELECT count(*) FROM orders"
        )
        preds[lucky.sample_id] = "SELECT count(*) FROM customers"
        report = evaluate_corpus(
            preds, samples, Corpus(corpus.root, corpus.variant_root)
        )
        assert report.ts_accuracy is not None
        assert report.ts_accuracy <= report.ex_accuracy
        verdict = next(v for v in report.verdicts if v.sample_id == lucky.sample_id)
        assert verdict.ex_match and verdict.ts_match is False

    def test_histogram_counts_equal_failures(self, corpus, samples):
        subset = samples[:10]
        preds = {s.sample_id: s.gold_sql for s in subset}
        preds[subset[0].sample_id] = "SELECT * FROM missing_table"
        preds[subset[1].sample_id] = "totally not sql ("
        report = evaluate_corpus(preds, subset, Corpus(corpus.root))
        failures = sum(1 for v in report.verdicts if not v.ex_match)
        assert sum(report.error_histogram.values()) == failures == 2

    def test_failure_is_classified_by_the_base_outcome(self, corpus, samples, statements,
                                                       monkeypatch, tmp_path):
        """A prediction SQLite refuses only when it runs is a SyntaxError, a
        timed-out one is Valid, and classifying runs nothing more."""
        base = next(s for s in samples if s.db_id == "shop")
        texts = {
            "overflow": "SELECT abs(-9223372036854775808)",
            "vacuum": "VACUUM INTO 'vacuumed.sqlite'",
            "endless": "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                       "SELECT count(*) FROM c",
            "table": "SELECT * FROM no_such_table",
            "wrong": "SELECT 1",
        }
        cases = [dataclasses.replace(base, sample_id=k) for k in texts]
        monkeypatch.chdir(tmp_path)  # a relative VACUUM INTO target lands here
        report = evaluate_corpus(texts, cases, Corpus(corpus.root), timeout=0.05)
        classes = {v.sample_id: (v.outcome_kind, v.failure_class) for v in report.verdicts}
        assert classes == {
            "overflow": ("error", "SyntaxError"),
            "vacuum": ("error", "SyntaxError"),
            "endless": ("timeout", "Valid"),
            "table": ("error", "WrongTableName"),
            "wrong": ("rows", "Valid"),
        }
        assert sorted(statements) == sorted([base.gold_sql, *texts.values()])
        assert not [sql for sql in statements if sql.startswith("EXPLAIN")]

    def test_corpus_layout_error(self, tmp_path, samples):
        with pytest.raises(CorpusLayoutError):
            evaluate_corpus({}, samples[:1], Corpus(tmp_path))


class TestHandleReuse:
    """Eval reuses one read-only handle per database file in each worker
    thread."""

    def test_no_handle_left_open_after_gold_failure(self, corpus, samples, opened,
                                                    widen_at_once):
        bad = Sample(sample_id="zz-bad", db_id="shop", question="q",
                     gold_sql="SELECT nope FROM customers")
        subset = [s for s in samples if s.db_id in ("shop", "school", "hr")] + [bad]
        preds = {s.sample_id: "SELECT broken FROM" for s in subset}
        with pytest.raises(GoldExecutionFailed):
            evaluate_corpus(preds, subset, Corpus(corpus.root, corpus.variant_root),
                            parallelism=2)
        assert opened
        assert not opened.still_open()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_first_failure_in_input_order_is_raised(self, corpus, samples, parallelism,
                                                    widen_at_once):
        # "shop" sorts after "concert_singer", so the visit order is reversed.
        first = Sample(sample_id="bad-1", db_id="shop", question="q",
                       gold_sql="SELECT nope_one FROM customers")
        second = Sample(sample_id="bad-2", db_id="concert_singer", question="q",
                        gold_sql="SELECT nope_two FROM singer")
        subset = [s for s in samples if s.db_id in ("shop", "concert_singer")]
        preds = {s.sample_id: s.gold_sql for s in subset}
        preds.update({"bad-1": "SELECT 1", "bad-2": "SELECT 1"})
        with pytest.raises(GoldExecutionFailed, match="nope_one"):
            evaluate_corpus(preds, [first, *subset, second], Corpus(corpus.root),
                            parallelism=parallelism)
        with pytest.raises(GoldExecutionFailed, match="nope_two"):
            evaluate_corpus(preds, [second, *subset, first], Corpus(corpus.root),
                            parallelism=parallelism)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_no_connection_to_a_byte_copy_variant(self, corpus, samples, opened, parallelism,
                                                  widen_at_once):
        subset = [s for s in samples if s.db_id in ("shop", "school")]
        preds = {s.sample_id: s.gold_sql for s in subset}
        preds[subset[0].sample_id] = "SELECT broken FROM"
        evaluate_corpus(preds, subset, Corpus(corpus.root, corpus.variant_root),
                        parallelism=parallelism)
        assert widen_at_once.all_threaded() == (parallelism > 1)
        for db_id in ("shop", "school"):
            copy = corpus.variant_root / db_id / "0.sqlite"
            other = corpus.variant_root / db_id / "1.sqlite"
            assert copy.read_bytes() == corpus.db_path(db_id).read_bytes()
            assert not [d for d in opened.databases if str(copy) in d]
            assert [d for d in opened.databases if str(other) in d]
            assert [d for d in opened.databases if str(corpus.db_path(db_id)) in d]
        assert not opened.still_open()

    def test_corrupt_variant_raises(self, corpus, samples, tmp_path, opened, widen_at_once):
        suite = tmp_path / "variants" / "shop"
        suite.mkdir(parents=True)
        shutil.copyfile(corpus.variant_root / "shop" / "0.sqlite", suite / "0.sqlite")
        (suite / "1.sqlite").write_text("not a database " * 40)
        subset = [s for s in samples if s.db_id == "shop"]
        preds = {s.sample_id: s.gold_sql for s in subset}
        with pytest.raises(NotADatabaseError):
            evaluate_corpus(preds, subset, Corpus(corpus.root, tmp_path / "variants"),
                            parallelism=2)
        assert not opened.still_open()


class TestSchemaOnTheRunningHandle:
    """A database is introspected on the connection of the base-file handle
    that runs its statements, before that handle's authorizer is installed."""

    def test_eval_connects_once_per_file_it_runs_on(self, corpus, samples, opened,
                                                    monkeypatch):
        ran_on = set()
        run = executor.ReadOnlyHandle.run

        def recording_run(handle, sql, *args, **kwargs):
            ran_on.add(handle.path)
            return run(handle, sql, *args, **kwargs)

        monkeypatch.setattr(executor.ReadOnlyHandle, "run", recording_run)
        wrong = ["SELECT * FROM no_such_table", "SELECT nope FROM no_such_table", "SELECT FROM"]
        preds = {s.sample_id: wrong[i % 4] if i % 4 < 3 else s.gold_sql
                 for i, s in enumerate(samples)}
        fixture_corpus = Corpus(corpus.root, corpus.variant_root)
        report = evaluate_corpus(preds, samples, fixture_corpus)
        assert report.error_histogram["WrongTableName"] > 0
        # Every database was introspected, each on the handle of its base file.
        assert set(fixture_corpus.schemas) == {s.db_id for s in samples}
        assert any(path.parent.parent == corpus.variant_root for path in ran_on)
        uris = sorted(f"{path.absolute().as_uri()}?mode=ro" for path in ran_on)
        assert sorted(opened.databases) == uris
        assert not opened.still_open()

    @pytest.mark.parametrize("sql", [
        # The text introspection ran on the connection, which SQLite caches.
        'PRAGMA table_xinfo("customers")',
        'PRAGMA foreign_key_list("customers")',
        "PRAGMA table_info(customers)",
        "ATTACH 'attached.sqlite' AS other",
    ])
    def test_a_handle_that_introspected_still_refuses_them(self, corpus, samples, tmp_path,
                                                           monkeypatch, sql):
        monkeypatch.chdir(tmp_path)  # where a relative ATTACH would make its file
        subset = [s for s in samples if s.db_id == "shop"]
        fixture_corpus = Corpus(corpus.root)
        report = evaluate_corpus({s.sample_id: sql for s in subset}, subset, fixture_corpus)
        assert "shop" in fixture_corpus.schemas
        assert {v.outcome_kind for v in report.verdicts} == {executor.EXEC_ERROR}
        assert list(tmp_path.iterdir()) == []
        with fixture_corpus:
            db = fixture_corpus.handles("shop")
            db.base.open()
            assert fixture_corpus.schema("shop").tables
            assert db.base.run(sql).kind == executor.EXEC_ERROR

    @pytest.mark.parametrize("ways", [("handle", "handle"), ("corpus", "corpus"),
                                      ("handle", "corpus")])
    def test_two_threads_get_one_schema(self, corpus, schemas, monkeypatch, ways):
        """Two threads that both read ``shop``'s schema before either keeps
        it get the one schema kept."""
        together = threading.Barrier(2, timeout=10)

        def meeting(read):
            def wrapper(*args, **kwargs):
                together.wait()
                return read(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics, "read_schema", meeting(metrics.read_schema))
        monkeypatch.setattr(metrics, "introspect_database",
                            meeting(metrics.introspect_database))
        got = []
        with Corpus(corpus.root) as fixture_corpus:
            def on_handle():
                fixture_corpus.handles("shop").base.open()
                return fixture_corpus.schema("shop")

            ask = {"handle": on_handle, "corpus": lambda: fixture_corpus.schema("shop")}
            threads = [threading.Thread(target=lambda way=way: got.append(ask[way]()))
                       for way in ways]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
                assert not thread.is_alive()
            assert fixture_corpus.schemas["shop"] is got[0]
        assert len(got) == 2 and got[0] is got[1]
        assert got[0] == schemas["shop"]

    def test_many_threads_keep_one_schema_per_database(self, corpus, schemas):
        """Eight threads, each opening its base-file handles or asking the
        corpus in turn, with switches every microsecond: every thread sees
        one schema object per database."""
        db_ids = list(schemas)
        seen = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Corpus(corpus.root) as fixture_corpus:
                def work(k):
                    got = {}
                    for db_id in db_ids[k % 2::2] + db_ids[1 - k % 2::2]:
                        if k % 2:
                            fixture_corpus.handles(db_id).base.open()
                        got[db_id] = fixture_corpus.schema(db_id)
                    seen.append(got)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                kept = dict(fixture_corpus.schemas)
        finally:
            sys.setswitchinterval(switch)
        assert len(seen) == 8
        assert all(got[db_id] is kept[db_id] for got in seen for db_id in db_ids)
        assert kept == schemas


class TestSchemaReplicaLifetime:
    """Eval builds no schema replica: each worker thread classifies an EX
    failure on its handle of the base file, and closes it with its other
    handles."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("gold_fails", [False, True])
    def test_no_replica_left_open(self, corpus, samples, opened, replicas, parallelism,
                                  gold_fails, widen_at_once):
        subset = [s for s in samples if s.db_id in ("shop", "school", "hr")]
        # Every prediction fails EX, so every sample is classified.
        preds = {s.sample_id: "SELECT broken FROM" for s in subset}
        if gold_fails:
            bad = Sample(sample_id="zz-bad", db_id="shop", question="q",
                         gold_sql="SELECT nope FROM customers")
            preds[bad.sample_id] = "SELECT 1"
            with pytest.raises(GoldExecutionFailed):
                evaluate_corpus(preds, [*subset, bad], Corpus(corpus.root, corpus.variant_root),
                                parallelism=parallelism)
        else:
            report = evaluate_corpus(preds, subset, Corpus(corpus.root, corpus.variant_root),
                                     parallelism=parallelism)
            assert report.error_histogram == {"SyntaxError": len(subset)}
            assert widen_at_once.all_threaded() == (parallelism > 1)
        assert not replicas
        assert not opened.still_open()


#: Predictions that would change a reused connection if they ran: each sits
#: on a database next to queries whose results that change would alter.
HOSTILE = [
    "CREATE TEMP TABLE singer(Name)",
    "CREATE TEMP TABLE orders(total)",
    "PRAGMA case_sensitive_like=1",
    "ATTACH DATABASE '{attach}' AS z",
]

#: (db_id, gold, prediction): EX-equal under case-insensitive LIKE only.
LIKE_CASES = [
    ("concert_singer", "SELECT count(*) FROM singer WHERE Name LIKE 'j%'",
     "SELECT count(*) FROM singer WHERE Name LIKE 'J%'"),
    ("shop", "SELECT name FROM customers WHERE city LIKE 'rome'",
     "SELECT name FROM customers WHERE city LIKE 'ROME'"),
]


class TestIsolationAndDeterminism:
    @pytest.fixture(scope="class")
    def case(self, corpus, samples, tmp_path_factory):
        """Samples with hostile predictions among normal ones, and the
        report of a reference run that opens a fresh connection for every
        query."""
        attach = tmp_path_factory.mktemp("attach") / "attached.db"
        subset = [s for s in samples if s.db_id in ("concert_singer", "shop")]
        preds = {s.sample_id: s.gold_sql for s in subset}
        preds[subset[1].sample_id] = "SELECT broken FROM"
        extra = []
        for db_id in ("concert_singer", "shop"):
            base = next(s for s in subset if s.db_id == db_id)
            for i, sql in enumerate(HOSTILE):
                extra.append(dataclasses.replace(base, sample_id=f"h-{db_id}-{i}"))
                preds[extra[-1].sample_id] = sql.format(attach=attach)
        for i, (db_id, gold, pred) in enumerate(LIKE_CASES):
            base = next(s for s in subset if s.db_id == db_id)
            extra.append(dataclasses.replace(base, sample_id=f"like-{i}", gold_sql=gold))
            preds[extra[-1].sample_id] = pred
        cases = subset + extra

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "execute",
                       lambda db, sql, timeout: executor.execute(db.path, sql, timeout))
            reference = dataclasses.asdict(evaluate_corpus(
                preds, cases, Corpus(corpus.root, corpus.variant_root)))
        assert all(v["ex_match"] for v in reference["verdicts"]
                   if v["sample_id"].startswith("like-"))
        return cases, preds, reference, attach

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_report_independent_of_order_and_parallelism(self, corpus, case, widen_at_once,
                                                          data):
        cases, preds, reference, attach = case
        order = data.draw(st.permutations(cases))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = [
                dataclasses.asdict(evaluate_corpus(
                    preds, order, Corpus(corpus.root, corpus.variant_root),
                    parallelism=parallelism))
                for parallelism in (1, 2, 4)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [reference] * 3
        assert not attach.exists()
        assert widen_at_once.all_threaded()


#: Predictions built from a gold query, none equal in text to any gold:
#: an equivalent rewrite, an empty result and a syntax error.
REWRITES = ["SELECT * FROM ({gold})", "SELECT * FROM ({gold}) LIMIT 0", "SELECT broken FROM"]


@pytest.fixture
def executed(monkeypatch):
    """(file, SQL) of every query eval runs, in the order run."""
    calls = []
    execute = metrics.execute

    def spy(db, sql, timeout=executor.DEFAULT_TIMEOUT_SECS):
        calls.append((str(db), sql))
        return execute(db, sql, timeout)

    monkeypatch.setattr(metrics, "execute", spy)
    return calls


@pytest.fixture
def held_at_close(monkeypatch):
    """The statement outcomes an eval run still held when it closed its
    handles."""
    held, contexts = [], []

    class RecordingContext(metrics._EvalContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    close = metrics.Corpus.close

    def recording_close(corpus):
        held.extend(dict(ctx.statements) for ctx in contexts if ctx.corpus is corpus)
        close(corpus)

    monkeypatch.setattr(metrics, "_EvalContext", RecordingContext)
    monkeypatch.setattr(metrics.Corpus, "close", recording_close)
    return held


def first_copies(corpus, db_id):
    """Each file of ``db_id`` (base, then variants in order) mapped to the
    first of them with the same bytes."""
    files = [corpus.db_path(db_id), *variant_suite_paths(corpus.variant_root, db_id)]
    content = {path: path.read_bytes() for path in files}
    return {path: next(f for f in files if content[f] == content[path]) for path in files}


def run_shuffled(preds, cases, corpus, parallelism, variant_root=None):
    """Eval ``cases`` in a seeded random order, with a short switch
    interval so threads interleave."""
    order = list(cases)
    random.Random(parallelism).shuffle(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return evaluate_corpus(preds, order,
                               Corpus(corpus.root, variant_root or corpus.variant_root),
                               parallelism=parallelism)
    finally:
        sys.setswitchinterval(interval)


class TestGoldOutcomeCache:
    """Eval runs each gold query and each prediction once per distinct
    file content of its database per run, and keeps the outcome only while
    a sample still needs it."""

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_each_statement_runs_once_per_distinct_content(
        self, corpus, samples, executed, held_at_close, parallelism, widen_at_once
    ):
        base = [s for s in samples if s.db_id in ("shop", "concert_singer", "school")]
        cases, preds = [], {}
        for s in base:
            # Two samples per prediction text, so predictions are shared too.
            for k, rewrite in enumerate(REWRITES * 2):
                cases.append(dataclasses.replace(s, sample_id=f"{s.sample_id}-{k}"))
                preds[cases[-1].sample_id] = rewrite.format(gold=s.gold_sql)
            cases.append(dataclasses.replace(s, sample_id=f"{s.sample_id}-missing"))
        golds = {s.gold_sql for s in cases}
        assert not golds & set(preds.values())

        # Each prediction is compared on the base file, then on each variant
        # up to the first where it does not match the gold; both statements
        # run on the first file with that file's bytes.
        firsts = {s.db_id: first_copies(corpus, s.db_id) for s in base}
        copies = {str(path) for first in firsts.values()
                  for path in first if first[path] != path}
        expected_preds, expected_golds = Counter(), set()
        for s in cases:
            if s.sample_id not in preds:
                continue
            first = firsts[s.db_id]
            pred = preds[s.sample_id]
            for k, path in enumerate(first):
                expected_preds[(str(first[path]), pred)] = 1
                expected_golds.add((str(first[path]), s.gold_sql))
                if k and not execution_accuracy(pred, s, path):
                    break
        assert copies

        executed.clear()
        run_shuffled(preds, cases, corpus, parallelism)

        runs = Counter(executed)
        assert set(runs.values()) == {1}
        assert not {path for path, _ in runs} & copies
        assert {call for call in runs if call[1] in golds} == expected_golds
        assert Counter(call for call in executed if call[1] not in golds) == expected_preds
        assert held_at_close == [{}]
        assert widen_at_once.all_threaded() == (parallelism > 1)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_prediction_equal_to_its_gold_runs_once_per_distinct_content(
        self, corpus, samples, executed, parallelism, widen_at_once
    ):
        base = [s for s in samples if s.db_id in ("shop", "concert_singer")]
        cases = [dataclasses.replace(s, sample_id=f"{s.sample_id}-{k}")
                 for s in base for k in range(2)]
        preds = {s.sample_id: s.gold_sql for s in cases}
        expected = Counter()
        for s in cases:
            for path in set(first_copies(corpus, s.db_id).values()):
                expected[(str(path), s.gold_sql)] = 1

        executed.clear()
        report = run_shuffled(preds, cases, corpus, parallelism)

        assert Counter(executed) == expected
        assert all(v.ex_match and v.ts_match for v in report.verdicts)
        assert widen_at_once.all_threaded() == (parallelism > 1)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_same_size_variant_with_other_bytes_still_runs(
        self, corpus, samples, tmp_path, executed, parallelism, widen_at_once
    ):
        # Variant 0 copies the base file; variant 1 is the base file with one
        # one-byte integer changed in place (19 -> 20), so all three files
        # have one size.
        suite = tmp_path / "variants" / "school"
        suite.mkdir(parents=True)
        base_path = corpus.db_path("school")
        shutil.copyfile(base_path, suite / "0.sqlite")
        shutil.copyfile(base_path, suite / "1.sqlite")
        conn = sqlite3.connect(suite / "1.sqlite")
        with conn:
            conn.execute("UPDATE students SET age = 20 WHERE age = 19")
        conn.close()
        sizes = {path.stat().st_size for path in (base_path, *suite.iterdir())}
        assert len(sizes) == 1
        assert (suite / "1.sqlite").read_bytes() != base_path.read_bytes()

        gold = sample_by_gold(samples, "age > 20")
        lucky = dataclasses.replace(gold, sample_id="lucky")
        preds = {gold.sample_id: gold.gold_sql,
                 "lucky": "SELECT sname FROM students WHERE age > 19"}
        variants = [suite / "0.sqlite", suite / "1.sqlite"]
        assert execution_accuracy(preds["lucky"], lucky, base_path)
        assert not suite_accuracy(preds["lucky"], lucky, variants)

        executed.clear()
        report = run_shuffled(preds, [gold, lucky], corpus, parallelism,
                              variant_root=tmp_path / "variants")

        verdicts = {v.sample_id: (v.ex_match, v.ts_match) for v in report.verdicts}
        assert verdicts == {gold.sample_id: (True, True), "lucky": (True, False)}
        ran_on = Counter(path for path, _ in executed)
        assert ran_on == {str(base_path): 2, str(suite / "1.sqlite"): 2}
        assert widen_at_once.all_threaded() == (parallelism > 1)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_distinct_content_is_compared_once(
        self, corpus, samples, monkeypatch, parallelism, widen_at_once
    ):
        base = [s for s in samples if s.db_id in ("shop", "concert_singer", "school")]
        cases, preds = [], {}
        for s in base:
            for k, pred in enumerate(["{gold}", *REWRITES]):
                cases.append(dataclasses.replace(s, sample_id=f"{s.sample_id}-{k}"))
                preds[cases[-1].sample_id] = pred.format(gold=s.gold_sql)
        lucky = next(s for s in cases if s.gold_sql == "SELECT count(*) FROM orders")
        preds[lucky.sample_id] = "SELECT count(*) FROM customers"

        # EX compares on the base file, then TS walks the variants up to the
        # first that fails; a file compares only when no earlier file had
        # its bytes.
        expected = 0
        for s in cases:
            first = first_copies(corpus, s.db_id)
            base_path, copy, *_ = first
            assert first[copy] == base_path
            verdicts = {}
            for path in first:
                if first[path] not in verdicts:
                    expected += 1
                    verdicts[first[path]] = execution_accuracy(
                        preds[s.sample_id], s, first[path])
                if path != base_path and not verdicts[first[path]]:
                    break

        calls = []
        match = metrics.results_match

        def spy(pred, gold, order):
            calls.append(1)
            return match(pred, gold, order)

        monkeypatch.setattr(metrics, "results_match", spy)
        report = run_shuffled(preds, cases, corpus, parallelism)
        assert len(calls) == expected
        verdicts = {v.sample_id: (v.ex_match, v.ts_match) for v in report.verdicts}
        assert verdicts[lucky.sample_id] == (True, False)
        assert widen_at_once.all_threaded() == (parallelism > 1)

    def test_prediction_equal_to_a_random_gold_reads_its_outcome(self, corpus, samples):
        s = dataclasses.replace(samples[0], gold_sql="SELECT random()")
        # Run apart, the two statements almost surely disagree.
        assert not execution_accuracy(s.gold_sql, s, corpus.db_path(s.db_id))
        report = evaluate_corpus({s.sample_id: s.gold_sql}, [s],
                                 Corpus(corpus.root, corpus.variant_root))
        assert [(v.ex_match, v.ts_match) for v in report.verdicts] == [(True, True)]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_shared_failing_gold_raises_first_failure_in_input_order(
        self, corpus, samples, opened, held_at_close, parallelism, widen_at_once
    ):
        shared = "SELECT nope_shared FROM customers"
        first = Sample(sample_id="bad-a", db_id="shop", question="q", gold_sql=shared)
        again = dataclasses.replace(first, sample_id="bad-b")
        # "concert_singer" sorts before "shop", so this one is visited first.
        later = Sample(sample_id="bad-c", db_id="concert_singer", question="q",
                       gold_sql="SELECT nope_later FROM singer")
        subset = [s for s in samples if s.db_id in ("shop", "concert_singer")]
        preds = {s.sample_id: s.gold_sql for s in subset}
        preds.update({"bad-a": "SELECT 1", "bad-b": "SELECT 1", "bad-c": "SELECT 1"})
        with pytest.raises(GoldExecutionFailed) as uncached:
            execution_accuracy("SELECT 1", first, corpus.db_path("shop"))

        with pytest.raises(GoldExecutionFailed) as raised:
            evaluate_corpus(preds, [*subset[:3], first, *subset[3:], again, later],
                            Corpus(corpus.root, corpus.variant_root),
                            parallelism=parallelism)
        assert str(raised.value) == str(uncached.value)
        assert "nope_shared" in str(raised.value)
        assert opened
        assert not opened.still_open()
        assert held_at_close == [{}]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_report_equals_uncached_reference(self, corpus, samples, widen_at_once, data):
        base = [s for s in samples if s.db_id in ("shop", "concert_singer")]
        kinds = ["gold", *REWRITES, "missing"]
        cases, preds = [], {}
        for s in base:
            for k in range(data.draw(st.integers(1, 3), label=s.sample_id)):
                cases.append(dataclasses.replace(s, sample_id=f"{s.sample_id}-{k}"))
                kind = data.draw(st.sampled_from(kinds))
                if kind != "missing":
                    preds[cases[-1].sample_id] = (
                        s.gold_sql if kind == "gold" else kind.format(gold=s.gold_sql))
        lucky = next(s for s in cases if s.gold_sql == "SELECT count(*) FROM orders")
        preds[lucky.sample_id] = "SELECT count(*) FROM customers"
        order = data.draw(st.permutations(cases))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "execute",
                       lambda db, sql, timeout: executor.execute(db.path, sql, timeout))
            mp.setattr(metrics._EvalContext, "outcome",
                       lambda ctx, db, sql, path: executor.execute(path, sql, ctx.timeout))
            reference = dataclasses.asdict(evaluate_corpus(
                preds, order, Corpus(corpus.root, corpus.variant_root)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = [
                dataclasses.asdict(evaluate_corpus(
                    preds, order, Corpus(corpus.root, corpus.variant_root),
                    parallelism=parallelism))
                for parallelism in (1, 2, 4)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [reference] * 3
        assert widen_at_once.all_threaded()


class Failed(Exception):
    pass


def numbered(n):
    return [Sample(sample_id=str(i), db_id="a", question="q", gold_sql="") for i in range(n)]


class TestRunSamples:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        db_ids=st.lists(st.sampled_from("abc"), max_size=12),
        failing=st.sets(st.integers(0, 11)),
        width=st.sampled_from([1, 2, 4]),
    )
    def test_matches_a_serial_run(self, widen_at_once, db_ids, failing, width):
        samples = [Sample(sample_id=str(i), db_id=d, question="q", gold_sql="")
                   for i, d in enumerate(db_ids)]
        failing = {i for i in failing if i < len(samples)}
        calls, threads = [], set()

        def fn(s):
            i = int(s.sample_id)
            calls.append(i)
            threads.add(threading.get_ident())
            time.sleep(0.001)  # so that later samples are still pending
            if i in failing:
                raise Failed(i)
            return (i, s.db_id)

        # The serial visit order: the stable sort by db_id.
        by_db = sorted(range(len(samples)), key=lambda i: db_ids[i])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            if failing:
                with pytest.raises(Failed) as raised:
                    run_samples(fn, samples, width)
                first = raised.value.args[0]
                assert first == min(failing)
                assert set(range(first)) <= set(calls)
            else:
                assert run_samples(fn, samples, width) == list(enumerate(db_ids))
                first = None
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == len(set(calls))
        assert (len(threads) > 1) == (width > 1 and len(samples) > 1)
        if width == 1:
            assert threads <= {threading.get_ident()}
            assert calls == [i for i in by_db if i in calls]
            if first is None:
                assert calls == by_db
            else:
                assert all(i < first for i in calls[calls.index(first) + 1 :])

    def test_fast_samples_run_on_the_calling_thread(self, monkeypatch):
        # Far above what a sample takes, even on a machine so loaded that
        # the test process waits milliseconds for a core.
        monkeypatch.setattr(metrics, "WIDEN_AFTER_SECS", 1.0)
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        threads = set()

        def fn(s):
            threads.add(threading.get_ident())
            return s.sample_id

        samples = numbered(50)
        assert run_samples(fn, samples, 4) == [s.sample_id for s in samples]
        assert threads == {threading.get_ident()}
        # The only thread started is the run's watcher, and it has ended.
        assert len(started) == 1 and not started[0].is_alive()

    def test_widens_while_a_sample_still_runs(self):
        released = threading.Event()
        started_at = {}

        def fn(s):
            started_at[s.sample_id] = time.monotonic()
            if s.sample_id == "0":
                # Only sample 1 sets the event, so it must start meanwhile.
                return released.wait(timeout=10)
            released.set()
            return True

        begun = time.monotonic()
        assert run_samples(fn, numbered(2), 2) == [True, True]
        assert started_at["1"] - begun >= metrics.WIDEN_AFTER_SECS

    def test_failure_after_widening_raises_first_in_sample_order(self):
        later_failed = threading.Event()
        calls, threads = set(), set()

        def fn(s):
            i = int(s.sample_id)
            calls.add(i)
            threads.add(threading.get_ident())
            if i == 0:
                # Sample 0 outlasts the failure of sample 2, on a helper.
                assert later_failed.wait(timeout=10)
                raise Failed(0)
            if i == 2:
                later_failed.set()
                raise Failed(2)
            return i

        with pytest.raises(Failed) as raised:
            run_samples(fn, numbered(6), 2)
        assert raised.value.args == (0,)
        assert calls == {0, 1, 2}
        assert len(threads) == 2

    @pytest.mark.parametrize("width", [1, 2])
    def test_frees_fn_and_results_on_return(self, monkeypatch, width):
        monkeypatch.setattr(metrics, "WIDEN_AFTER_SECS", 0)

        class Result:
            pass

        class Fn:
            def __call__(self, s):
                return Result()

        # Without the cycle collector, only reference counts free them.
        gc.disable()
        try:
            fn = Fn()
            results = run_samples(fn, numbered(4), width)
            refs = [weakref.ref(fn), *map(weakref.ref, results)]
            del fn, results
            assert [ref() for ref in refs] == [None] * 5
        finally:
            gc.enable()


class TestSerialization:
    def test_samples_round_trip(self, corpus, sample_records):
        loaded = load_samples(corpus.samples_path)
        assert loaded == sample_records
        fixture_corpus = Corpus(corpus.root)
        samples = samples_from_records(loaded, fixture_corpus)
        assert [dataclasses.astuple(s) for s in samples] == [
            (r["sample_id"], r["db_id"], r["question"], r["gold_sql"]) for r in sample_records
        ]
        assert all(fixture_corpus.schema(s.db_id).tables for s in samples)

    def test_predictions_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"sample_id": "a", "sql": "SELECT 1"}\n')
        assert load_predictions(path) == {"a": "SELECT 1"}

    def test_report_dict_and_table(self, corpus, samples):
        subset = samples[:3]
        preds = {s.sample_id: s.gold_sql for s in subset}
        report = evaluate_corpus(preds, subset, Corpus(corpus.root))
        data = dataclasses.asdict(report)
        assert data["ex_accuracy"] == 1.0
        assert len(data["verdicts"]) == 3
        table = format_summary_table(report)
        assert "EX" in table and "TS" in table
        assert "100.0" in table
