import contextlib
import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqlforge.metrics import Corpus, evaluate_corpus
from sqlforge.model_client import GenerationRequest, MockModelClient
from sqlforge.refine_agent import (
    DEBUGGER,
    GENERATOR,
    RefineResult,
    build_debug_prompt,
    invalid_check,
    refine_sample,
    result_to_dict,
    write_trace,
)
from sqlforge.sql_analysis import (
    SYNTAX_ERROR,
    VALID,
    WRONG_COLUMN_NAME,
    WRONG_TABLE_NAME,
    ValidityReport,
)

from test_cli import HOSTILE_PIECES

#: A statement that runs until its deadline interrupts it.
ENDLESS = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c"


def checked(corpus: Corpus, db_id: str, sql: str, tables):
    """The invalid check of ``sql``'s run on ``db_id`` in ``corpus``, with
    that outcome."""
    outcome = corpus.outcome(db_id, sql)
    return invalid_check(sql, tables, outcome, corpus.timeout), outcome


class TestInvalidCheck:
    def test_gold_sql_passes(self, db_corpus, samples, schemas):
        s = samples[0]
        report, outcome = checked(db_corpus, s.db_id, s.gold_sql, schemas[s.db_id].tables)
        assert report.status == VALID
        assert outcome.is_rows

    def test_compile_error_is_classified_with_its_outcome(self, db_corpus, schemas):
        report, outcome = checked(
            db_corpus, "shop", "SELECT * FROM no_such_table", schemas["shop"].tables
        )
        assert report == ValidityReport(WRONG_TABLE_NAME, "no_such_table")
        assert (outcome.kind, outcome.error_message) == ("error", "no such table: no_such_table")

    @pytest.mark.parametrize("sql", ["", ";", "-- c"])
    def test_text_with_no_statement_is_a_syntax_error(self, db_corpus, schemas, sql):
        report, outcome = checked(db_corpus, "shop", sql, schemas["shop"].tables)
        assert report == ValidityReport(SYNTAX_ERROR, "no statement to run")
        assert outcome.kind == "error"

    def test_timeout_is_a_syntax_error_with_its_outcome(self, corpus, schemas):
        with Corpus(corpus.root, timeout=0.05) as short:
            report, outcome = checked(short, "shop", ENDLESS, schemas["shop"].tables)
        assert report == ValidityReport(SYNTAX_ERROR, "execution exceeded 0.05s timeout")
        assert outcome.kind == "timeout"

    def test_runtime_error_downgrades_static_pass(self, db_corpus, schemas):
        # Statically fine (names resolve) but fails in the engine at runtime.
        sql = "SELECT json_extract(name, 'not a path') FROM customers"
        report, outcome = checked(db_corpus, "shop", sql, schemas["shop"].tables)
        assert not report.is_valid
        assert outcome.kind == "error"
        assert report.detail  # carries the engine message

    def test_empty_result_is_valid(self, db_corpus, schemas):
        report, outcome = checked(
            db_corpus,
            "shop",
            "SELECT name FROM customers WHERE city = 'Nowhere'",
            schemas["shop"].tables,
        )
        assert report.is_valid
        assert outcome.rows == ()


class TestBuildDebugPrompt:
    def test_contains_all_elements_once(self, schemas):
        validity = ValidityReport(WRONG_COLUMN_NAME, "ppos not in player")
        failed = "SELECT min(HS), ppos FROM player GROUP BY ppos"
        question = "For each position, what is the minimum?"
        prompt = build_debug_prompt(
            question, schemas["soccer_tryout"].tables, failed, validity
        )
        assert prompt.count(question) == 1
        assert prompt.count(failed) == 1
        assert prompt.count("ppos not in player") == 1
        assert "CREATE TABLE tryout" in prompt

    def test_deterministic(self, schemas):
        validity = ValidityReport(SYNTAX_ERROR, "boom")
        args = ("q?", schemas["shop"].tables, "SELECT x", validity)
        assert build_debug_prompt(*args) == build_debug_prompt(*args)

    def test_requires_failed_validity(self, schemas):
        with pytest.raises(ValueError):
            build_debug_prompt("q", schemas["shop"].tables, "SELECT 1", ValidityReport(VALID))


class TestParseQuestion:
    def test_generator_success_short_circuits(self, samples, db_corpus):
        s = samples[0]
        generator = MockModelClient([{"responses": [s.gold_sql]}])
        debugger = MockModelClient([{"responses": ["SHOULD NOT BE CALLED"]}])
        result = refine_sample(
            s,
            generator,
            debugger,
            db_corpus,
            max_iters=3,
        )
        assert result.succeeded
        assert result.final_sql == s.gold_sql
        assert result.iterations_used == 1
        # The debugger's one scripted reply was never taken.
        assert debugger.generate(GenerationRequest("p")).completions == ("SHOULD NOT BE CALLED",)
        assert [a.role for a in result.attempts] == [GENERATOR]

    def test_debugger_fixes_wrong_table(self, samples, db_corpus):
        s = samples[0]
        generator = MockModelClient([{"responses": ["SELECT count(*) FROM wrong_table"]}])
        debugger = MockModelClient([{"responses": [s.gold_sql]}])
        result = refine_sample(
            s,
            generator,
            debugger,
            db_corpus,
            max_iters=3,
        )
        assert result.succeeded
        assert result.iterations_used == 2
        assert [a.role for a in result.attempts] == [GENERATOR, DEBUGGER]
        assert result.final_sql == s.gold_sql

    def test_budget_exhaustion(self, samples, replicas, db_corpus):
        s = samples[0]
        broken = "SELECT count(*) FROM never_exists"
        generator = MockModelClient([{"responses": [broken], "cycle": True}])
        debugger = MockModelClient([{"responses": [broken], "cycle": True}])
        result = refine_sample(
            s,
            generator,
            debugger,
            db_corpus,
            max_iters=3,
        )
        assert not result.succeeded
        assert result.iterations_used == 3
        assert len(result.attempts) == 3
        assert result.final_sql == broken
        assert [a.validity.status for a in result.attempts] == [WRONG_TABLE_NAME] * 3
        # Every attempt was checked on the file: no replica was built.
        assert not replicas

    def test_only_a_missing_column_widens_a_replica(self, samples, replicas, db_corpus, schemas):
        """Every attempt is checked on the file; a WrongColumnName attempt
        alone builds a replica, widened by its column, to name the table
        it was looked up in for the debugger."""
        s = samples[0]
        table = schemas[s.db_id].tables[0].name
        generator = MockModelClient([{"responses": [f"SELECT nope FROM {table}"]}])
        debugger = MockModelClient([{"responses": [
            "SELECT * FROM no_such_table", "SELECT FROM", s.gold_sql,
        ]}])
        result = refine_sample(s, generator, debugger, db_corpus, max_iters=4)
        assert [a.validity.status for a in result.attempts] == [
            WRONG_COLUMN_NAME, WRONG_TABLE_NAME, SYNTAX_ERROR, VALID,
        ]
        assert result.attempts[0].validity.detail == f"nope not in {table}"
        assert (list(replicas), replicas.widened) == ([], ["nope"])

    def test_each_attempt_runs_its_text_once(self, samples, statements, db_corpus):
        s = samples[0]
        generator = MockModelClient([{"responses": ["SELECT count(*) FROM wrong_table"]}])
        debugger = MockModelClient([{"responses": ["SELECT abs(-9223372036854775808)",
                                                   s.gold_sql]}])
        result = refine_sample(s, generator, debugger, db_corpus)
        assert result.succeeded
        assert statements == [a.sql for a in result.attempts]

    def test_max_iters_must_be_positive(self, samples, db_corpus):
        s = samples[0]
        client = MockModelClient([{"responses": ["x"], "cycle": True}])
        with pytest.raises(ValueError):
            refine_sample(
                s, client, client, db_corpus, max_iters=0,
            )

    def test_succeeded_implies_execution_rows(self, corpus, samples, db_corpus):
        from sqlforge.executor import execute

        s = samples[5]
        generator = MockModelClient([{"responses": [s.gold_sql]}])
        debugger = MockModelClient([])
        result = refine_sample(s, generator, debugger, db_corpus)
        assert result.succeeded
        assert execute(corpus.db_path(s.db_id), result.final_sql).is_rows


class TestTrace:
    def test_trace_round_trip(self, samples, tmp_path, db_corpus):
        import json

        s = samples[0]
        generator = MockModelClient([{"responses": ["SELECT nope FROM nada"]}])
        debugger = MockModelClient([{"responses": [s.gold_sql]}])
        result = refine_sample(s, generator, debugger, db_corpus)
        write_trace(tmp_path, s.sample_id, result)
        data = json.loads((tmp_path / f"{s.sample_id}.json").read_text())
        assert data == result_to_dict(s.sample_id, result)
        assert data["iterations_used"] == 2
        assert [a["role"] for a in data["attempts"]] == [GENERATOR, DEBUGGER]
        # The attempt that fails to compile carries the outcome of its run.
        assert [a["outcome_kind"] for a in data["attempts"]] == ["error", "rows"]

    def test_trace_cannot_leave_trace_directory(self, tmp_path):
        result = RefineResult(final_sql="SELECT 1", attempts=(), succeeded=True,
                              iterations_used=1)
        trace_dir = tmp_path / "trace"
        for sample_id in ("../escaped", "a/../../escaped", str(tmp_path / "escaped")):
            with pytest.raises(ValueError):
                write_trace(trace_dir, sample_id, result)
        assert list(tmp_path.iterdir()) == []
        write_trace(trace_dir, "nested/s1", result)
        assert (trace_dir / "nested" / "s1.json").exists()


#: Text that SQLite compiles but refuses when it runs: an integer
#: overflow, a blob over ``executor.MAX_CELL_BYTES``, a malformed JSON path.
RUNTIME_REFUSED = [
    "SELECT abs(-9223372036854775808)", "SELECT zeroblob(16000001)",
    "SELECT json_extract('x', 'bad')",
]
agreement_texts = st.lists(
    st.sampled_from(HOSTILE_PIECES + RUNTIME_REFUSED), min_size=1, max_size=4
).map("".join)


class TestEvalAndRefineAgree:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=st.lists(agreement_texts, min_size=1, max_size=3))
    @example(texts=[*RUNTIME_REFUSED, "VACUUM INTO 'vacuumed.sqlite'", "", ";", "-- c"])
    def test_a_failed_verdict_has_the_class_of_the_invalid_check(
        self, corpus, samples, tmp_path, texts, schemas
    ):
        base = next(s for s in samples if s.db_id == "shop")
        cases = [dataclasses.replace(base, sample_id=f"p{i}") for i in range(len(texts))]
        preds = {c.sample_id: sql for c, sql in zip(cases, texts)}
        # Relative ATTACH and VACUUM INTO targets land in tmp_path.
        with contextlib.chdir(tmp_path), Corpus(corpus.root) as checker:
            report = evaluate_corpus(preds, cases, Corpus(corpus.root))
            for verdict in report.verdicts:
                if not verdict.ex_match:
                    check, _ = checked(checker, "shop", verdict.pred_sql, schemas["shop"].tables)
                    assert verdict.failure_class == check.status, verdict.pred_sql
