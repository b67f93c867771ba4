"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold."""

import json
import time

from sqlforge import metrics
from sqlforge.augmentation import (
    CROSS_DB,
    MAX_COLUMNS_PER_TABLE,
    MAX_TABLES,
    cross_db_augment,
    cross_db_candidates,
    inner_db_augment,
)
from sqlforge.cli import run
from sqlforge.executor import execute, results_match
from sqlforge.metrics import Corpus, evaluate_corpus
from sqlforge.model_client import MockModelClient
from sqlforge.preference_miner import mine_pairs
from sqlforge.refine_agent import refine_sample
from sqlforge.schema_catalog import PROMPT_INSTRUCTION, render_prompt
from sqlforge.sql_analysis import validate_against_tables

from corpus_builder import TRYOUT_GOLD, TRYOUT_QUESTION, TRYOUT_REJECTED


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_gold_self_evaluation(corpus, samples):
    start = time.monotonic()
    preds = {s.sample_id: s.gold_sql for s in samples}
    report = evaluate_corpus(
        preds, samples, Corpus(corpus.root, corpus.variant_root), parallelism=4
    )
    elapsed = time.monotonic() - start
    assert report.ex_accuracy == 1.0
    assert report.ts_accuracy == 1.0
    assert report.n_samples == 50
    assert elapsed < 30.0, f"gold self-eval took {elapsed:.1f}s"
    ok(1, f"gold self-eval EX=1.0 TS=1.0 over 50 samples in {elapsed:.1f}s")


# --- criterion 2: independent EX comparator ---------------------------------


def _canon_key(row):
    key = []
    for cell in row:
        if cell is None:
            key.append((0, ""))
        elif isinstance(cell, (int, float)):
            key.append((1, float(cell)))
        else:
            key.append((2, str(cell)))
    return tuple(key)


def _cells_close(a, b):
    import math

    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    return type(a) is type(b) and a == b


def _rows_close(ra, rb):
    return len(ra) == len(rb) and all(_cells_close(a, b) for a, b in zip(ra, rb))


def brute_force_match(pred_rows, gold_rows, order_sensitive):
    """Sort-then-compare multiset oracle; elementwise when ordered."""
    if not order_sensitive:
        pred_rows = sorted(pred_rows, key=_canon_key)
        gold_rows = sorted(gold_rows, key=_canon_key)
    return len(pred_rows) == len(gold_rows) and all(
        _rows_close(p, g) for p, g in zip(pred_rows, gold_rows)
    )


def test_criterion_2_ex_oracle_equivalence(corpus, samples):
    from sqlforge.metrics import order_sensitive

    outcomes = {
        s.sample_id: execute(corpus.db_path(s.db_id), s.gold_sql) for s in samples
    }
    by_db = {}
    for s in samples:
        by_db.setdefault(s.db_id, []).append(s)

    checked = 0
    for db_samples in by_db.values():
        for gold_s in db_samples:
            for pred_s in db_samples:
                if checked >= 200:
                    break
                gold = outcomes[gold_s.sample_id]
                pred = outcomes[pred_s.sample_id]
                order = order_sensitive(gold_s.gold_sql)
                expected = brute_force_match(list(pred.rows), list(gold.rows), order)
                actual = results_match(pred, gold, order)
                assert actual == expected, (pred_s.sample_id, gold_s.sample_id, order)
                checked += 1
    assert checked == 200
    ok(2, "results_match agreed with the brute-force comparator on 200/200 pairs")


def test_criterion_3_reference_example_fidelity(corpus, samples, db_corpus):
    sample = next(s for s in samples if s.question == TRYOUT_QUESTION)
    client = MockModelClient([{"responses": [TRYOUT_REJECTED]}])
    pairs = mine_pairs(sample, client, db_corpus, n=1)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.chosen == TRYOUT_GOLD
    assert pair.rejected == TRYOUT_REJECTED
    expected_prompt = (
        "CREATE TABLE tryout(pid, cname, decision, ppos);\n"
        "CREATE TABLE player(hs, pname, ycard, pid);\n"
        "CREATE TABLE college(cname, enr, state);\n"
        f"{PROMPT_INSTRUCTION}\n"
        f"-- {TRYOUT_QUESTION}"
    )
    assert pair.prompt == expected_prompt
    # The rejected side really does disagree with gold on execution.
    gold_outcome = execute(corpus.db_path(sample.db_id), TRYOUT_GOLD)
    rej_outcome = execute(corpus.db_path(sample.db_id), TRYOUT_REJECTED)
    assert not results_match(rej_outcome, gold_outcome, False)
    ok(3, "tryout/player preference pair reproduced in the chosen/rejected shape")


def test_criterion_4_augmentation_invariants(corpus, samples, schemas, replica_of):
    start = time.monotonic()
    corpus_schemas = list(schemas.values())
    replica_for = {db_id: replica_of(db_id) for db_id in schemas}
    violations = 0

    for i in range(1000):
        s = samples[i % len(samples)]
        aug = cross_db_augment(
            s, schemas[s.db_id].tables, cross_db_candidates(s.db_id, corpus_schemas), seed=i
        )
        if aug.provenance.kind == CROSS_DB:
            n = len(aug.provenance.inserted_tables)
            if not 1 <= n <= 3:
                violations += 1
            keys = schemas[s.db_id].key_column_names()
            for name in aug.provenance.inserted_tables:
                table = next(t for t in aug.schema_tables if t.name == name)
                if not any(c.name.lower() in keys for c in table.columns):
                    violations += 1
        if not validate_against_tables(s.gold_sql, aug.schema_tables).is_valid:
            violations += 1

    for i in range(1000):
        s = samples[i % len(samples)]
        aug = inner_db_augment(s, replica_for[s.db_id], seed=i)
        if len(aug.schema_tables) > MAX_TABLES:
            violations += 1
        if any(len(t.columns) > MAX_COLUMNS_PER_TABLE for t in aug.schema_tables):
            violations += 1
        if not validate_against_tables(s.gold_sql, aug.schema_tables).is_valid:
            violations += 1

    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0, f"augmentation sweep took {elapsed:.1f}s"
    ok(4, f"0 invariant violations over 1000 seeds per mode in {elapsed:.1f}s")


# --- criterion 5: reflection-loop improvement shape -------------------------

WRONG_TABLE_IDS = 4   # scripted failures per error class
WRONG_COLUMN_IDS = 3
MISSING_QUOTE_IDS = 3


def _failure_plan(samples):
    """10 failing samples: 4 wrong-table, 3 wrong-column, 3 missing-quotation
    (the quotation ones live on the database with the space-bearing column)."""
    transit = [s for s in samples if s.db_id == "transit"]
    others = [s for s in samples if s.db_id != "transit"]
    plan = {}
    for i, s in enumerate(others[:WRONG_TABLE_IDS]):
        plan[s.sample_id] = f"SELECT count(*) FROM missing_table_{i}"
    first_table = {
        "concert_singer": "singer", "soccer_tryout": "player", "warehouse": "items",
        "wide_metrics": "readings", "shop": "customers", "store": "products",
        "school": "students", "hr": "employees", "flights": "airports",
    }
    for s in others[WRONG_TABLE_IDS : WRONG_TABLE_IDS + WRONG_COLUMN_IDS]:
        plan[s.sample_id] = f"SELECT phantom_col FROM {first_table[s.db_id]}"
    quote_sqls = [
        "SELECT free text FROM stops",
        "SELECT id, free text FROM stops",
        "SELECT free text FROM stops WHERE id = 1",
    ]
    for s, sql in zip(transit[:MISSING_QUOTE_IDS], quote_sqls):
        plan[s.sample_id] = sql
    assert len(plan) == 10
    return plan


class CountedClient:
    """A model client that counts the calls made to it."""

    def __init__(self, client):
        self.client = client
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.client.generate(request)


def test_criterion_5_reflection_loop_improvement(corpus, samples, schemas, db_corpus):
    plan = _failure_plan(samples)
    fixed_ids = sorted(plan)[:6]

    gen_entries = []
    dbg_entries = []
    for s in samples:
        broken = plan.get(s.sample_id)
        gen_entries.append(
            {"match": s.question, "responses": [broken if broken else s.gold_sql]}
        )
        if broken is not None:
            if s.sample_id in fixed_ids:
                dbg_entries.append({"match": s.question, "responses": [s.gold_sql]})
            else:
                dbg_entries.append(
                    {"match": s.question, "responses": [broken], "cycle": True}
                )
    generator = CountedClient(MockModelClient(gen_entries))
    debugger = CountedClient(MockModelClient(dbg_entries))  # no catch-all: stray calls raise

    baseline_preds = {}
    pipeline_preds = {}
    debugger_iterations = 0
    for s in samples:
        result = refine_sample(s, generator, debugger, db_corpus)
        baseline_preds[s.sample_id] = result.attempts[0].sql
        pipeline_preds[s.sample_id] = result.final_sql
        debugger_iterations += result.iterations_used - 1

    # Every scripted failure class appears in the static verdicts.
    statuses = {
        sid: validate_against_tables(
            sql, schemas[next(s.db_id for s in samples if s.sample_id == sid)].tables
        ).status
        for sid, sql in plan.items()
    }
    assert sorted(set(statuses.values())) == [
        "MissingQuotation", "WrongColumnName", "WrongTableName",
    ]

    baseline = evaluate_corpus(baseline_preds, samples, Corpus(corpus.root))
    pipeline = evaluate_corpus(pipeline_preds, samples, Corpus(corpus.root))
    baseline_count = sum(1 for v in baseline.verdicts if v.ex_match)
    pipeline_count = sum(1 for v in pipeline.verdicts if v.ex_match)
    assert baseline_count == 40
    assert pipeline_count == baseline_count + 6
    assert pipeline.ex_accuracy == 46 / 50
    # Only the 10 failing samples contacted the debugger (the mock would
    # have raised on any other prompt); call count matches the traces.
    assert debugger.calls == debugger_iterations
    assert generator.calls == 50
    ok(5, "pipeline EX = baseline EX + 6/50 exactly; debugger used only on failures")


def test_criterion_6_termination_and_budget(samples, db_corpus):
    s = samples[0]
    broken = "SELECT nothing FROM nowhere"
    generator = MockModelClient([{"responses": [broken], "cycle": True}])
    debugger = MockModelClient([{"responses": [broken], "cycle": True}])
    for max_iters in (1, 3, 5):
        result = refine_sample(
            s, generator, debugger, db_corpus, max_iters=max_iters,
        )
        assert not result.succeeded
        assert result.iterations_used == max_iters
        assert len(result.attempts) == max_iters
    ok(6, "always-failing mock never exceeds max_iters; trace length = budget")


def test_criterion_7_determinism(corpus, sample_records, tmp_path):
    # augment: byte-identical reruns in both modes
    for mode in ("cross-db", "inner-db"):
        outs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / f"{mode}-{name}"
            assert run([
                "augment", "--mode", mode,
                "--samples", str(corpus.samples_path),
                "--corpus", str(corpus.root),
                "--seed", "11",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # mine: identical script replays byte-identically
    script = tmp_path / "mock.jsonl"
    script.write_text(
        json.dumps({"match": TRYOUT_QUESTION, "responses": [TRYOUT_REJECTED]})
        + "\n"
        + json.dumps({"responses": ["SELECT 1"], "cycle": True})
        + "\n"
    )
    mine_outs = []
    for name in ("m1.jsonl", "m2.jsonl"):
        out = tmp_path / name
        assert run([
            "mine",
            "--samples", str(corpus.samples_path),
            "--corpus", str(corpus.root),
            "--endpoint", f"mock:{script}",
            "--n-candidates", "1",
            "--out", str(out),
        ]) == 0
        mine_outs.append(out.read_bytes())
    assert mine_outs[0] == mine_outs[1]

    # eval: --jobs 1 vs --jobs 8 identical reports
    preds = tmp_path / "gold_preds.jsonl"
    with open(preds, "w") as fh:
        for rec in sample_records:
            fh.write(
                json.dumps({"sample_id": rec["sample_id"], "sql": rec["gold_sql"]}) + "\n"
            )
    reports = []
    for jobs in ("1", "8"):
        out = tmp_path / f"rep{jobs}.json"
        assert run([
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--variants", str(corpus.variant_root),
            "--jobs", jobs,
            "--out", str(out),
        ]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    ok(7, "augment/mine reruns byte-identical; eval invariant under --jobs 1 vs 8")


def test_criterion_8_prompt_fidelity(schemas):
    prompt = render_prompt(
        schemas["concert_singer"].tables, "How many singers do we have?"
    )
    assert prompt == (
        "CREATE TABLE stadium(Stadium_ID, Location, Name, Capacity, Highest, "
        "Lowest, Average);\n"
        "CREATE TABLE singer(Singer_ID, Name, Country, Song_Name, "
        "Song_release_year, Age, Is_male);\n"
        "CREATE TABLE concert(concert_ID, concert_Name, Theme, Stadium_ID, Year);\n"
        "CREATE TABLE singer_in_concert(concert_ID, Singer_ID);\n"
        "-- Using valid SQLite, answer the following questions for the tables "
        "provided above.\n"
        "-- How many singers do we have?"
    )
    assert (
        "-- Using valid SQLite, answer the following questions for the tables "
        "provided above." in prompt
    )
    ok(8, "concert_singer prompt reproduces the reference text verbatim")
