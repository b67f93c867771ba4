import pytest

from sqlforge import preference_miner
from sqlforge.errors import GoldExecutionFailed
from sqlforge.metrics import Sample
from sqlforge.model_client import MockModelClient
from sqlforge.preference_miner import (
    EXEC_ERROR_REASON,
    RESULT_MISMATCH,
    mine_pairs,
    normalize_whitespace,
    pair_to_record,
    write_pairs,
)
from sqlforge.executor import execute, results_match
from sqlforge.schema_catalog import render_prompt

from corpus_builder import TRYOUT_GOLD, TRYOUT_QUESTION, TRYOUT_REJECTED


def tryout_sample(samples):
    return next(s for s in samples if s.question == TRYOUT_QUESTION)


class TestMinePairs:
    def test_reference_example_pair(self, corpus, samples):
        s = tryout_sample(samples)
        client = MockModelClient([{"responses": [TRYOUT_REJECTED]}])
        pairs = mine_pairs(s, client, corpus.db_path(s.db_id), n=1)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.chosen == TRYOUT_GOLD
        assert pair.rejected == TRYOUT_REJECTED
        assert pair.prompt == render_prompt(s.schema_tables, s.question)
        assert pair.sample_id == s.sample_id

    def test_equivalent_candidates_not_rejected(self, corpus, samples):
        s = next(s for s in samples if "min(player.hs)" in s.gold_sql)
        equivalent = (
            "SELECT min(player.hs) , tryout.ppos FROM player JOIN tryout "
            "ON player.pid = tryout.pid GROUP BY tryout.ppos"
        )
        client = MockModelClient([{"responses": [equivalent] * 4}])
        pairs = mine_pairs(s, client, corpus.db_path(s.db_id), n=4)
        assert pairs == []

    def test_each_distinct_candidate_runs_once(self, corpus, samples, monkeypatch):
        s = next(s for s in samples if "min(player.hs)" in s.gold_sql)
        equivalent = (
            "SELECT min(player.hs) , tryout.ppos FROM player JOIN tryout "
            "ON player.pid = tryout.pid GROUP BY tryout.ppos"
        )
        runs = []

        def counting_execute(db, sql, timeout):
            runs.append(sql)
            return execute(db, sql, timeout)

        monkeypatch.setattr(preference_miner, "execute", counting_execute)
        client = MockModelClient([{"responses": [equivalent] * 4}])
        assert mine_pairs(s, client, corpus.db_path(s.db_id), n=4) == []
        assert runs == [s.gold_sql, equivalent]

    def test_duplicate_rejections_deduped(self, corpus, samples):
        s = tryout_sample(samples)
        wrong = TRYOUT_REJECTED
        good = s.gold_sql
        client = MockModelClient([{"responses": [wrong, wrong, wrong] + [good] * 5}])
        pairs = mine_pairs(s, client, corpus.db_path(s.db_id), n=8)
        assert len(pairs) == 1

    def test_rejected_reason_exec_error(self, corpus, samples):
        s = tryout_sample(samples)
        client = MockModelClient([{"responses": [TRYOUT_REJECTED]}])
        (pair,) = mine_pairs(s, client, corpus.db_path(s.db_id), n=1)
        assert pair.rejected_reason == EXEC_ERROR_REASON

    def test_rejected_reason_result_mismatch(self, corpus, samples):
        s = next(
            s for s in samples
            if s.db_id == "shop" and s.gold_sql == "SELECT count(*) FROM orders"
        )
        wrong = "SELECT count(*) FROM orders WHERE total > 15"
        client = MockModelClient([{"responses": [wrong]}])
        (pair,) = mine_pairs(s, client, corpus.db_path("shop"), n=1)
        assert pair.rejected_reason == RESULT_MISMATCH

    def test_soundness_replay(self, corpus, samples):
        # Every emitted pair must re-verify as a disagreement on execution.
        s = tryout_sample(samples)
        client = MockModelClient(
            [{"responses": [TRYOUT_REJECTED, "SELECT ppos FROM tryout", s.gold_sql]}]
        )
        pairs = mine_pairs(s, client, corpus.db_path(s.db_id), n=3)
        gold_outcome = execute(corpus.db_path(s.db_id), s.gold_sql)
        for pair in pairs:
            outcome = execute(corpus.db_path(s.db_id), pair.rejected)
            assert not results_match(outcome, gold_outcome, False)

    def test_whitespace_variant_of_gold_not_rejected(self, corpus, samples):
        s = tryout_sample(samples)
        spaced = "  " + s.gold_sql.replace(" ", "  ") + "  "
        client = MockModelClient([{"responses": [spaced]}])
        assert mine_pairs(s, client, corpus.db_path(s.db_id), n=1) == []

    def test_gold_failure_raises(self, corpus, schemas):
        s = Sample(
            sample_id="bad",
            db_id="shop",
            question="q",
            gold_sql="SELECT phantom FROM customers",
            schema_tables=schemas["shop"].tables,
        )
        client = MockModelClient([{"responses": ["SELECT 1"]}])
        with pytest.raises(GoldExecutionFailed):
            mine_pairs(s, client, corpus.db_path("shop"), n=1)


class TestSerialization:
    def test_normalize_whitespace(self):
        assert normalize_whitespace(" SELECT  1\n FROM   t ") == "SELECT 1 FROM t"

    def test_record_shape_and_write(self, corpus, samples, tmp_path):
        s = tryout_sample(samples)
        client = MockModelClient([{"responses": [TRYOUT_REJECTED]}])
        pairs = mine_pairs(s, client, corpus.db_path(s.db_id), n=1)
        record = pair_to_record(pairs[0])
        assert set(record) == {"prompt", "chosen", "rejected", "rejected_reason", "sample_id"}
        out = tmp_path / "pairs.jsonl"
        write_pairs(out, pairs)
        assert out.read_text().count("\n") == 1
