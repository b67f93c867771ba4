import pytest

from sqlforge.model_client import MockModelClient
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


class TestInvalidCheck:
    def test_gold_sql_passes(self, corpus, samples, replica_of):
        s = samples[0]
        report, outcome = invalid_check(
            s.gold_sql, replica_of(s.db_id), corpus.db_path(s.db_id)
        )
        assert report.status == VALID
        assert outcome is not None and outcome.is_rows

    def test_static_catch_skips_execution(self, corpus, replica_of):
        report, outcome = invalid_check(
            "SELECT * FROM no_such_table", replica_of("shop"), corpus.db_path("shop")
        )
        assert report.status == WRONG_TABLE_NAME
        assert outcome is None

    def test_runtime_error_downgrades_static_pass(self, corpus, replica_of):
        # Statically fine (names resolve) but fails in the engine at runtime.
        sql = "SELECT json_extract(name, 'not a path') FROM customers"
        report, outcome = invalid_check(sql, replica_of("shop"), corpus.db_path("shop"))
        assert not report.is_valid
        assert outcome is not None and outcome.kind == "error"
        assert report.detail  # carries the engine message

    def test_empty_result_is_valid(self, corpus, replica_of):
        report, outcome = invalid_check(
            "SELECT name FROM customers WHERE city = 'Nowhere'",
            replica_of("shop"),
            corpus.db_path("shop"),
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
    def test_generator_success_short_circuits(self, corpus, samples, replica_of):
        s = samples[0]
        generator = MockModelClient([{"responses": [s.gold_sql]}])
        debugger = MockModelClient([{"responses": ["SHOULD NOT BE CALLED"]}])
        result = refine_sample(
            s,
            generator,
            debugger,
            replica_of(s.db_id),
            corpus.db_path(s.db_id),
            max_iters=3,
        )
        assert result.succeeded
        assert result.final_sql == s.gold_sql
        assert result.iterations_used == 1
        assert debugger.call_count == 0
        assert [a.role for a in result.attempts] == [GENERATOR]

    def test_debugger_fixes_wrong_table(self, corpus, samples, replica_of):
        s = samples[0]
        generator = MockModelClient([{"responses": ["SELECT count(*) FROM wrong_table"]}])
        debugger = MockModelClient([{"responses": [s.gold_sql]}])
        result = refine_sample(
            s,
            generator,
            debugger,
            replica_of(s.db_id),
            corpus.db_path(s.db_id),
            max_iters=3,
        )
        assert result.succeeded
        assert result.iterations_used == 2
        assert [a.role for a in result.attempts] == [GENERATOR, DEBUGGER]
        assert result.final_sql == s.gold_sql

    def test_budget_exhaustion(self, corpus, samples, replica_of, replicas):
        s = samples[0]
        broken = "SELECT count(*) FROM never_exists"
        generator = MockModelClient([{"responses": [broken], "cycle": True}])
        debugger = MockModelClient([{"responses": [broken], "cycle": True}])
        result = refine_sample(
            s,
            generator,
            debugger,
            replica_of(s.db_id),
            corpus.db_path(s.db_id),
            max_iters=3,
        )
        assert not result.succeeded
        assert result.iterations_used == 3
        assert len(result.attempts) == 3
        assert result.final_sql == broken
        assert [a.validity.status for a in result.attempts] == [WRONG_TABLE_NAME] * 3
        # Every attempt validated on the borrowed replica, left open for its owner.
        assert len(replicas) == 1
        assert replicas.still_open() == replicas

    def test_max_iters_must_be_positive(self, corpus, samples, replica_of):
        s = samples[0]
        client = MockModelClient([{"responses": ["x"], "cycle": True}])
        with pytest.raises(ValueError):
            refine_sample(
                s, client, client, replica_of(s.db_id),
                corpus.db_path(s.db_id), max_iters=0,
            )

    def test_succeeded_implies_execution_rows(self, corpus, samples, replica_of):
        from sqlforge.executor import execute

        s = samples[5]
        generator = MockModelClient([{"responses": [s.gold_sql]}])
        debugger = MockModelClient([])
        result = refine_sample(s, generator, debugger, replica_of(s.db_id),
                               corpus.db_path(s.db_id))
        assert result.succeeded
        assert execute(corpus.db_path(s.db_id), result.final_sql).is_rows


class TestTrace:
    def test_trace_round_trip(self, corpus, samples, tmp_path, replica_of):
        import json

        s = samples[0]
        generator = MockModelClient([{"responses": ["SELECT nope FROM nada"]}])
        debugger = MockModelClient([{"responses": [s.gold_sql]}])
        result = refine_sample(s, generator, debugger, replica_of(s.db_id),
                               corpus.db_path(s.db_id))
        write_trace(tmp_path, s.sample_id, result)
        data = json.loads((tmp_path / f"{s.sample_id}.json").read_text())
        assert data == result_to_dict(s.sample_id, result)
        assert data["iterations_used"] == 2
        assert [a["role"] for a in data["attempts"]] == [GENERATOR, DEBUGGER]

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
