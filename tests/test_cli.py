import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlforge import cli, metrics, sql_analysis
from sqlforge.cli import load_config, run
from sqlforge.errors import ConfigError
from sqlforge.executor import DEFAULT_TIMEOUT_SECS
from sqlforge.model_client import HttpModelClient, make_client
from sqlforge.schema_catalog import corpus_db_path

from corpus_builder import (
    SQLITE_ONLY_SCHEMAS,
    TRYOUT_QUESTION,
    TRYOUT_REJECTED,
    build_sqlite_only_database,
)
from model_server import DEBUG_MARKER


def corpus_digest(corpus):
    h = hashlib.sha256()
    for path in sorted((corpus.root / "database").rglob("*.sqlite")):
        h.update(path.read_bytes())
    return h.hexdigest()


def write_gold_preds(corpus, sample_records, path):
    with open(path, "w") as fh:
        for rec in sample_records:
            fh.write(
                json.dumps({"sample_id": rec["sample_id"], "sql": rec["gold_sql"]}) + "\n"
            )


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "sqlforge" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["introspect", "augment", "mine", "refine", "eval"])
    def test_subcommand_help(self, cmd, capsys):
        assert run([cmd, "--help"]) == 0
        assert "--" in capsys.readouterr().out


class TestIntrospect:
    def test_dumps_schema_json(self, corpus, capsys):
        assert run([
            "introspect", "--corpus", str(corpus.root), "--db-id", "concert_singer",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["db_id"] == "concert_singer"
        assert [t["name"] for t in data["tables"]] == [
            "stadium", "singer", "concert", "singer_in_concert",
        ]

    def test_missing_database_is_pipeline_error(self, corpus, capsys):
        assert run([
            "introspect", "--corpus", str(corpus.root), "--db-id", "nope",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_gold_self_eval(self, corpus, sample_records, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        code = run([
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ex_accuracy"] == 1.0
        assert summary["n_samples"] == 50

    def test_jobs_invariance_and_report_file(self, corpus, sample_records, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"report{jobs}.json"
            assert run([
                "eval",
                "--samples", str(corpus.samples_path),
                "--preds", str(preds),
                "--corpus", str(corpus.root),
                "--variants", str(corpus.variant_root),
                "--jobs", jobs,
                "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_nan_timeout_is_an_error(self, corpus, sample_records, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        assert run([
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--exec-timeout-secs", "nan",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_reruns_write_identical_files_and_nothing_else(
        self, corpus, sample_records, tmp_path, capsys
    ):
        """Two eval passes into one output directory, as a benchmark run
        makes them, at --jobs 1 then 2: each pass leaves the same bytes, in
        the report file only, and the corpus gains no file."""
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w") as fh:
            for k, rec in enumerate(sample_records[:-1]):
                sql = ["{gold}", "SELECT * FROM ({gold}) LIMIT 0", "SELECT broken FROM"][k % 3]
                fh.write(json.dumps({"sample_id": rec["sample_id"],
                                     "sql": sql.format(gold=rec["gold_sql"])}) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        corpus_files = sorted(corpus.root.rglob("*"))
        passes = []
        for jobs in ("1", "2"):
            assert run([
                "eval",
                "--samples", str(corpus.samples_path),
                "--preds", str(preds),
                "--corpus", str(corpus.root),
                "--variants", str(corpus.variant_root),
                "--jobs", jobs,
                "--out", str(out_dir / "eval.json"),
            ]) == 0
            passes.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(out_dir.iterdir())})
        capsys.readouterr()
        assert list(passes[0]) == ["eval.json"]
        assert passes[0] == passes[1]
        assert sorted(corpus.root.rglob("*")) == corpus_files

    @pytest.mark.parametrize("sql", ["SELECT '\ud800'", "SELECT 1; SELECT 2", "SELECT 1\x00"])
    def test_any_prediction_text_gets_a_verdict(self, corpus, sample_records, tmp_path,
                                                capsys, sql):
        rec = sample_records[0]
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps(rec) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"sample_id": rec["sample_id"], "sql": sql}) + "\n")
        out = tmp_path / "eval.json"
        assert run([
            "eval", "--samples", str(samples), "--preds", str(preds),
            "--corpus", str(corpus.root), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        [verdict] = json.loads(out.read_text())["verdicts"]
        assert (verdict["pred_sql"], verdict["outcome_kind"]) == (sql, "error")

    def test_corpus_files_unchanged(self, corpus, sample_records, tmp_path, capsys):
        before = corpus_digest(corpus)
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        run([
            "eval", "--samples", str(corpus.samples_path), "--preds", str(preds),
            "--corpus", str(corpus.root),
        ])
        capsys.readouterr()
        assert corpus_digest(corpus) == before


class TestAugment:
    @pytest.mark.parametrize("mode", ["cross-db", "inner-db"])
    def test_rerun_is_byte_identical(self, corpus, tmp_path, mode):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run([
                "augment", "--mode", mode,
                "--samples", str(corpus.samples_path),
                "--corpus", str(corpus.root),
                "--seed", "7",
                "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 50

    def test_inner_db_builds_one_replica_per_database(
        self, corpus, sample_records, tmp_path, opened, replicas
    ):
        assert run([
            "augment", "--mode", "inner-db",
            "--samples", str(corpus.samples_path),
            "--corpus", str(corpus.root),
            "--out", str(tmp_path / "out.jsonl"),
        ]) == 0
        assert len(replicas) == len({r["db_id"] for r in sample_records})
        assert max(replicas.open_at_build) == 0
        assert not opened.still_open()

    def test_inner_db_reports_first_failure_in_sample_order(
        self, corpus, sample_records, tmp_path, capsys, opened
    ):
        # "concert_singer" sorts before "shop", so the visit order is reversed.
        first = {"sample_id": "bad-1", "db_id": "shop", "question": "q",
                 "gold_sql": "SELECT nope_one FROM customers"}
        second = {"sample_id": "bad-2", "db_id": "concert_singer", "question": "q",
                  "gold_sql": "SELECT nope_two FROM singer"}
        for records, raised in (([first, *sample_records, second], "nope_one"),
                                ([second, *sample_records, first], "nope_two")):
            samples = tmp_path / "samples.jsonl"
            samples.write_text("".join(json.dumps(r) + "\n" for r in records))
            assert run([
                "augment", "--mode", "inner-db", "--samples", str(samples),
                "--corpus", str(corpus.root), "--out", str(tmp_path / "out.jsonl"),
            ]) == 1
            assert raised in capsys.readouterr().err
        assert not opened.still_open()

    def test_different_seeds_differ(self, corpus, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.jsonl"
            run([
                "augment", "--mode", "inner-db",
                "--samples", str(corpus.samples_path),
                "--corpus", str(corpus.root),
                "--seed", seed,
                "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]


class TestSchemasOnlySqliteAccepts:
    """A corpus database that SQLite reads but a stricter catalog would
    refuse (dangling foreign keys, an empty or accented column name) runs
    like any other."""

    @pytest.mark.parametrize("name", sorted(SQLITE_ONLY_SCHEMAS))
    def test_eval_and_cross_db_augment_exit_zero(self, corpus, sample_records, tmp_path,
                                                 name, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(corpus.root / "database", root / "database")
        (root / "database" / name).mkdir()
        build_sqlite_only_database(corpus_db_path(root, name), name)
        records = [*sample_records, {"sample_id": "odd", "db_id": name,
                                     "question": "How many rows are in c?",
                                     "gold_sql": "SELECT count(*) FROM c"}]
        samples = tmp_path / "samples.jsonl"
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"sample_id": r["sample_id"], "sql": r["gold_sql"]}) + "\n"
            for r in records))
        common = ["--samples", str(samples), "--corpus", str(root)]
        assert run(["eval", *common, "--preds", str(preds), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ex_accuracy"] == 1.0
        out = tmp_path / "cross.jsonl"
        assert run(["augment", "--mode", "cross-db", *common, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == len(records)


class TestMine:
    def test_mock_mining_counts(self, corpus, tmp_path):
        script = tmp_path / "mock.jsonl"
        script.write_text(
            json.dumps(
                {"match": TRYOUT_QUESTION, "responses": [TRYOUT_REJECTED], "cycle": True}
            )
            + "\n"
            + json.dumps({"responses": ["SELECT 1"], "cycle": True})
            + "\n"
        )
        # Restrict samples to the tryout sample to keep the run focused.
        samples_file = tmp_path / "samples.jsonl"
        with open(corpus.samples_path) as fh, open(samples_file, "w") as out:
            for line in fh:
                if TRYOUT_QUESTION in line:
                    out.write(line)
        out_path = tmp_path / "pairs.jsonl"
        assert run([
            "mine",
            "--samples", str(samples_file),
            "--corpus", str(corpus.root),
            "--mock", str(script),
            "--n-candidates", "4",
            "--out", str(out_path),
        ]) == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["rejected"] == TRYOUT_REJECTED


    def test_any_completion_text_gets_a_record(self, corpus, tmp_path):
        script = tmp_path / "mock.jsonl"
        script.write_text(json.dumps({"responses": ["SELECT '\ud800'"], "cycle": True}) + "\n")
        samples_file = tmp_path / "samples.jsonl"
        with open(corpus.samples_path) as fh:
            samples_file.write_text(next(line for line in fh if TRYOUT_QUESTION in line))
        out_path = tmp_path / "pairs.jsonl"
        assert run([
            "mine", "--samples", str(samples_file), "--corpus", str(corpus.root),
            "--mock", str(script), "--n-candidates", "2", "--out", str(out_path),
        ]) == 0
        [pair] = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert (pair["rejected"], pair["rejected_reason"]) == ("SELECT '\ud800'", "exec_error")


class TestRefine:
    def test_refine_to_eval_round_trip(self, corpus, sample_records, tmp_path, capsys):
        gen_script = tmp_path / "gen.jsonl"
        with open(gen_script, "w") as fh:
            for rec in sample_records:
                fh.write(
                    json.dumps({"match": rec["question"], "responses": [rec["gold_sql"]]})
                    + "\n"
                )
        dbg_script = tmp_path / "dbg.jsonl"
        dbg_script.write_text(json.dumps({"responses": ["SELECT 1"], "cycle": True}) + "\n")
        preds = tmp_path / "preds.jsonl"
        trace_dir = tmp_path / "traces"
        assert run([
            "refine",
            "--samples", str(corpus.samples_path),
            "--corpus", str(corpus.root),
            "--generator", f"mock:{gen_script}",
            "--debugger", f"mock:{dbg_script}",
            "--out", str(preds),
            "--trace", str(trace_dir),
        ]) == 0
        assert len(preds.read_text().splitlines()) == 50
        assert len(list(trace_dir.glob("*.json"))) == 50
        assert run([
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ex_accuracy"] == 1.0


    def test_failed_run_writes_no_predictions_or_traces(
        self, corpus, sample_records, tmp_path, capsys
    ):
        # Sample 3's question has no scripted reply, so its model call fails.
        script = tmp_path / "mock.jsonl"
        script.write_text("".join(
            json.dumps({"match": r["question"], "responses": [r["gold_sql"]]}) + "\n"
            for r in sample_records[:3] + sample_records[4:]
        ))
        preds, traces = tmp_path / "preds.jsonl", tmp_path / "traces"
        assert run([
            "refine",
            "--samples", str(corpus.samples_path),
            "--corpus", str(corpus.root),
            "--generator", f"mock:{script}",
            "--debugger", f"mock:{script}",
            "--out", str(preds),
            "--trace", str(traces),
        ]) == 1
        assert "no scripted response" in capsys.readouterr().err
        assert not preds.exists()
        assert not traces.exists() or not list(traces.iterdir())

    def test_escaping_trace_id_rejected_before_any_call(self, corpus, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        samples.write_text(json.dumps({
            "sample_id": "../escaped", "db_id": "shop", "question": "q",
            "gold_sql": "SELECT 1",
        }) + "\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run([
            "refine",
            "--samples", str(samples),
            "--corpus", str(corpus.root),
            "--generator", f"mock:{empty}",
            "--debugger", f"mock:{empty}",
            "--out", str(tmp_path / "preds.jsonl"),
            "--trace", str(tmp_path / "traces"),
        ]) == 1
        assert "../escaped" in capsys.readouterr().err
        assert not (tmp_path / "escaped.json").exists()
        assert not (tmp_path / "preds.jsonl").exists()


class TestMalformedRecords:
    """A line that is not JSON, a record that is not a JSON object, or a
    record that lacks a required key, is a pipeline error that names the
    record, and the key if one is missing."""

    NOT_JSON = '{"sample_id": "a", "sql"'

    @staticmethod
    def write(path, lines):
        path.write_text("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in lines
        ))

    @pytest.mark.parametrize("which,key", [
        ("samples", "sample_id"),
        ("samples", "db_id"),
        ("samples", "question"),
        ("samples", "gold_sql"),
        ("samples", None),
        ("samples", NOT_JSON),
        ("preds", "sample_id"),
        ("preds", "sql"),
        ("preds", None),
        ("preds", NOT_JSON),
    ])
    def test_is_an_error_naming_key_and_record(
        self, corpus, sample_records, tmp_path, capsys, which, key
    ):
        samples, preds = tmp_path / "samples.jsonl", tmp_path / "preds.jsonl"
        sample_lines = [dict(r) for r in sample_records]
        pred_lines = [{"sample_id": r["sample_id"], "sql": r["gold_sql"]}
                      for r in sample_records]
        lines = sample_lines if which == "samples" else pred_lines
        if key == self.NOT_JSON:
            lines[1] = key
        elif key is None:
            lines[1] = ["not", "an", "object"]
        else:
            del lines[1][key]
        self.write(samples, sample_lines)
        self.write(preds, pred_lines)
        if which == "samples":
            argv = ["augment", "--mode", "inner-db", "--samples", str(samples),
                    "--corpus", str(corpus.root), "--out", str(tmp_path / "out.jsonl")]
        else:
            argv = ["eval", "--samples", str(samples), "--preds", str(preds),
                    "--corpus", str(corpus.root)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        if key == self.NOT_JSON:
            path = samples if which == "samples" else preds
            assert err == (
                f"error: {path} line 2: Expecting ':' delimiter: line 1 column 25 (char 24)\n"
            )
            return
        assert err.startswith("error: ")
        assert ("sample record 2" if which == "samples" else f"{preds} line 2") in err
        assert (f"{key!r}" if key else "not a JSON object") in err

    def test_repeated_prediction_is_an_error(self, corpus, sample_records, tmp_path, capsys):
        samples, preds = tmp_path / "samples.jsonl", tmp_path / "preds.jsonl"
        pred_lines = [{"sample_id": r["sample_id"], "sql": r["gold_sql"]}
                      for r in sample_records]
        pred_lines.insert(3, dict(pred_lines[1], sql="SELECT 1"))
        self.write(samples, sample_records)
        self.write(preds, pred_lines)
        assert run(["eval", "--samples", str(samples), "--preds", str(preds),
                    "--corpus", str(corpus.root)]) == 1
        sample_id = pred_lines[1]["sample_id"]
        assert capsys.readouterr().err == (
            f"error: {preds} lines 2 and 4 both predict sample {sample_id!r}\n"
        )

    def test_mock_script_entry_without_responses_is_an_error(self, corpus, tmp_path, capsys):
        script = tmp_path / "mock.jsonl"
        script.write_text('{"match": "x"}\n')
        assert run(["mine", "--samples", str(corpus.samples_path), "--corpus", str(corpus.root),
                    "--mock", str(script), "--out", str(tmp_path / "pairs.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {script} line 1 has no 'responses' key\n"

    def test_sqlforge_imports_only_the_standard_library(self):
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-S", "-c", "import sqlforge, sqlforge.cli"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr


#: Pieces of model text: what sqlite3 refuses (a NUL, a lone surrogate, a
#: second statement), comments and quotes, EXPLAIN, and statements that
#: would write a file or a database if they ran.
HOSTILE_PIECES = [
    "SELECT count(*) FROM customers", "SELECT name FROM customers", " ", "\x00", "\ud800",
    ";", "-- c\n", "/* c */", "/* open", "'", '"', "EXPLAIN ", "EXPLAIN QUERY PLAN ",
    "ATTACH 'attached.sqlite' AS z", "PRAGMA query_only=0", "PRAGMA writable_schema=1",
    "VACUUM INTO 'vacuumed.sqlite'", "DELETE FROM customers", "DROP TABLE orders",
    "INSERT INTO customers(name) VALUES ('x')", "CREATE TABLE t(a)",
]
hostile_texts = st.lists(st.sampled_from(HOSTILE_PIECES), min_size=1, max_size=4).map("".join)


class TestHostileModelText:
    @settings(max_examples=20, deadline=None)
    @given(preds=st.lists(hostile_texts, min_size=2, max_size=2),
           completions=st.lists(hostile_texts, min_size=1, max_size=3))
    def test_eval_and_mine_exit_zero_and_change_no_file(
        self, corpus, sample_records, tmp_path_factory, preds, completions
    ):
        records = [r for r in sample_records if r["db_id"] == "shop"][:2]
        work = tmp_path_factory.mktemp("hostile")
        (work / "samples.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (work / "preds.jsonl").write_text("".join(
            json.dumps({"sample_id": r["sample_id"], "sql": sql}) + "\n"
            for r, sql in zip(records, preds)))
        (work / "mock.jsonl").write_text(
            json.dumps({"responses": completions, "cycle": True}) + "\n")
        corpus_files = sorted(corpus.root.rglob("*"))
        before = corpus_digest(corpus)
        common = ["--samples", "samples.jsonl", "--corpus", str(corpus.root)]
        cwd = os.getcwd()
        os.chdir(work)  # relative ATTACH and VACUUM INTO targets land here
        try:
            assert run(["eval", *common, "--preds", "preds.jsonl", "--json",
                        "--out", "eval.json"]) == 0
            assert run(["mine", *common, "--mock", "mock.jsonl", "--n-candidates", "3",
                        "--out", "pairs.jsonl"]) == 0
        finally:
            os.chdir(cwd)
        verdicts = json.loads((work / "eval.json").read_text())["verdicts"]
        assert sorted(v["sample_id"] for v in verdicts) == sorted(
            r["sample_id"] for r in records)
        assert sorted(p.name for p in work.iterdir()) == [
            "eval.json", "mock.jsonl", "pairs.jsonl", "preds.jsonl", "samples.jsonl"]
        assert sorted(corpus.root.rglob("*")) == corpus_files
        assert corpus_digest(corpus) == before


class TestCorpusHandles:
    """mine and refine run each worker thread's statements on one reused
    handle per database file, and close every handle before they return
    or raise."""

    @staticmethod
    def mock(tmp_path, records, responses=None):
        """A mock script answering each record's question with
        ``responses``, or with its gold query."""
        script = tmp_path / "mock.jsonl"
        script.write_text("".join(json.dumps({
            "match": r["question"], "responses": responses or [r["gold_sql"]], "cycle": True,
        }) + "\n" for r in records))
        return str(script)

    @staticmethod
    def argv(command, corpus, tmp_path, records, script):
        samples = tmp_path / "samples.jsonl"
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        common = ["--samples", str(samples), "--corpus", str(corpus.root),
                  "--out", str(tmp_path / "out.jsonl")]
        if command == "mine":
            return ["mine", *common, "--mock", script, "--n-candidates", "2"]
        return ["refine", *common, "--generator", f"mock:{script}",
                "--debugger", f"mock:{script}"]

    @pytest.mark.parametrize("command", ["mine", "refine"])
    def test_serial_run_opens_one_connection_to_its_database(
        self, corpus, sample_records, tmp_path, opened, command
    ):
        records = [r for r in sample_records if r["db_id"] == "shop"]
        assert len(records) > 1
        # mine's candidates differ from the gold, so each one runs too.
        other = ["SELECT 1", "SELECT * FROM no_such_table"] if command == "mine" else None
        script = self.mock(tmp_path, records, other)
        assert run(self.argv(command, corpus, tmp_path, records, script)) == 0
        path = str(corpus.db_path("shop"))
        # One connection introspects the schema; one runs every statement.
        assert len([d for d in opened.databases if path in d]) == 2
        assert not opened.still_open()

    @pytest.mark.parametrize("command", ["mine", "refine"])
    @pytest.mark.parametrize("fails", [False, True])
    def test_no_connection_left_open(
        self, corpus, sample_records, tmp_path, capsys, opened, command, fails
    ):
        records = [dict(r) for r in sample_records]
        script = self.mock(tmp_path, records)
        if fails:
            # mine: a gold query that fails; refine: a model call that fails.
            records[3]["gold_sql"] = "SELECT * FROM no_such_table"
            records[3]["question"] += " (unscripted)"
            script = self.mock(tmp_path, records[:3] + records[4:])
        assert run(self.argv(command, corpus, tmp_path, records, script)) == int(fails)
        if fails:
            expected = {"mine": records[3]["sample_id"], "refine": "no scripted response"}
            assert expected[command] in capsys.readouterr().err
        assert opened
        assert not opened.still_open()


class TestConcurrentSamples:
    """mine and refine against an HTTP endpoint run up to the client's
    max_in_flight samples at once, with the output of a serial run."""

    WIDTH = make_client("http://localhost/").max_in_flight

    @staticmethod
    def serial_clients(monkeypatch):
        monkeypatch.setattr(
            cli, "make_client", lambda spec: HttpModelClient(spec, max_in_flight=1)
        )

    @staticmethod
    def mine(corpus, url, out, samples=None):
        return run([
            "mine", "--samples", str(samples or corpus.samples_path),
            "--corpus", str(corpus.root), "--endpoint", url,
            "--n-candidates", "4", "--out", str(out),
        ])

    @staticmethod
    def refine(corpus, url, out, trace):
        return run([
            "refine", "--samples", str(corpus.samples_path),
            "--corpus", str(corpus.root), "--generator", url, "--debugger", url,
            "--out", str(out), "--trace", str(trace),
        ])

    def test_mine_matches_serial_run(self, corpus, model_server, tmp_path, monkeypatch):
        assert self.mine(corpus, model_server.url, tmp_path / "pool.jsonl") == 0
        assert 1 < model_server.peak_in_flight <= self.WIDTH
        model_server.peak_in_flight = 0
        self.serial_clients(monkeypatch)
        assert self.mine(corpus, model_server.url, tmp_path / "serial.jsonl") == 0
        assert model_server.peak_in_flight == 1
        pooled = (tmp_path / "pool.jsonl").read_bytes()
        assert pooled == (tmp_path / "serial.jsonl").read_bytes()
        assert pooled  # the replies yield pairs

    def test_refine_matches_serial_run(self, corpus, model_server, tmp_path, monkeypatch):
        assert self.refine(corpus, model_server.url, tmp_path / "pool.jsonl",
                           tmp_path / "pool") == 0
        assert 1 < model_server.peak_in_flight <= self.WIDTH
        model_server.peak_in_flight = 0
        self.serial_clients(monkeypatch)
        assert self.refine(corpus, model_server.url, tmp_path / "serial.jsonl",
                           tmp_path / "serial") == 0
        assert model_server.peak_in_flight == 1
        assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
        traces = sorted(p.name for p in (tmp_path / "pool").iterdir())
        assert traces == sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(traces) == 50
        for name in traces:
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        assert any(DEBUG_MARKER in p for p in model_server.prompts)  # debugger used

    @pytest.mark.parametrize("fails", [False, True])
    def test_refine_borrows_the_corpus_replicas(
        self, corpus, model_server, tmp_path, monkeypatch, capsys, opened, replicas, fails
    ):
        """refine builds no schema replica of its own: every attempt
        validates on its worker thread's corpus replica, at most one is open
        per thread, and all are closed on return and on failure."""
        made, held = [], []
        replica_init = sql_analysis.SchemaReplica.__init__
        handles_init = metrics._DbHandles.__init__

        def recording_replica_init(replica, tables, extra_column=None):
            replica_init(replica, tables, extra_column)
            if extra_column is None:
                made.append(replica)

        def recording_handles_init(handles, *args):
            handles_init(handles, *args)
            held.append(handles.replica)

        monkeypatch.setattr(sql_analysis.SchemaReplica, "__init__", recording_replica_init)
        monkeypatch.setattr(metrics._DbHandles, "__init__", recording_handles_init)
        if fails:
            # The first replies are valid, so replicas are open when a
            # later model call is refused.
            ok = json.dumps({"choices": [{"message": {"content": "SELECT 1"}}]}).encode()
            model_server.script.extend([(200, ok)] * 8 + [(401, b"{}")])
        assert self.refine(corpus, model_server.url, tmp_path / "out.jsonl",
                           tmp_path / "trace") == int(fails)
        assert ("rejected credentials" in capsys.readouterr().err) == fails
        assert 1 < model_server.peak_in_flight
        assert replicas
        assert made == held
        assert max(replicas.open_at_build) < self.WIDTH
        assert not opened.still_open()

    def test_first_failure_stops_the_run(self, corpus, sample_records, model_server,
                                         tmp_path, capsys):
        # Sample 0 is slow; sample 1's gold SQL fails before any model call.
        records = [dict(r) for r in sample_records]
        records[1]["gold_sql"] = "SELECT * FROM no_such_table"
        samples = tmp_path / "samples.jsonl"
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        model_server.slow_prompts = {records[0]["question"]}
        out = tmp_path / "pairs.jsonl"
        assert self.mine(corpus, model_server.url, out, samples=samples) == 1
        assert records[1]["sample_id"] in capsys.readouterr().err
        assert not out.exists()
        assert model_server.peak_in_flight > 1  # samples did run concurrently
        later = {r["question"] for r in records[2:]}
        started_after = [p for p in model_server.prompts
                         if any(f"-- {q}" in p for q in later)]
        assert len(started_after) <= self.WIDTH


class TestConfig:
    def test_config_file_fills_defaults(self, corpus, sample_records, tmp_path, capsys):
        cfg = tmp_path / "sqlforge.ini"
        cfg.write_text("[eval]\njobs = 2\nexec_timeout_secs = 10\n")
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        assert run([
            "--config", str(cfg),
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["ex_accuracy"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[eval]\nbogus_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_flag_overrides_config(self, corpus, sample_records, tmp_path, capsys):
        cfg = tmp_path / "sqlforge.ini"
        cfg.write_text("[eval]\njobs = 1\n")
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        assert run([
            "--config", str(cfg),
            "eval",
            "--samples", str(corpus.samples_path),
            "--preds", str(preds),
            "--corpus", str(corpus.root),
            "--jobs", "4",
            "--json",
        ]) == 0
        capsys.readouterr()

    def test_section_applies_only_to_its_subcommand(
        self, corpus, sample_records, tmp_path, capsys, monkeypatch
    ):
        timeouts = []
        evaluate = cli.metrics.evaluate_corpus

        def spy(*args, timeout, **kwargs):
            timeouts.append(timeout)
            return evaluate(*args, timeout=timeout, **kwargs)

        monkeypatch.setattr(cli.metrics, "evaluate_corpus", spy)
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        argv = ["eval", "--samples", str(corpus.samples_path), "--preds", str(preds),
                "--corpus", str(corpus.root), "--json"]
        cfg = tmp_path / "sqlforge.ini"
        cfg.write_text("[mine]\nexec_timeout_secs = 0.5\n[eval]\njobs = 1\n")
        assert run(["--config", str(cfg)] + argv) == 0
        cfg.write_text("[eval]\nexec_timeout_secs = 7\n")
        assert run(["--config", str(cfg)] + argv) == 0
        capsys.readouterr()
        assert timeouts == [DEFAULT_TIMEOUT_SECS, 7.0]

    @staticmethod
    def eval_timeouts(corpus, sample_records, tmp_path, monkeypatch, flags):
        """The timeout eval runs with, given ``flags`` and a config of 7."""
        timeouts = []
        evaluate = cli.metrics.evaluate_corpus

        def spy(*args, timeout, **kwargs):
            timeouts.append(timeout)
            return evaluate(*args, timeout=timeout, **kwargs)

        monkeypatch.setattr(cli.metrics, "evaluate_corpus", spy)
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        cfg = tmp_path / "sqlforge.ini"
        cfg.write_text("[eval]\nexec_timeout_secs = 7\n")
        code = run(["--config", str(cfg), "eval", "--samples", str(corpus.samples_path),
                    "--preds", str(preds), "--corpus", str(corpus.root), "--json", *flags])
        return code, timeouts

    @pytest.mark.parametrize("flags", [["--exec-timeout-secs", "3"], ["--exec-timeout-secs=3"]])
    def test_flag_spelled_in_full_beats_config(
        self, corpus, sample_records, tmp_path, capsys, monkeypatch, flags
    ):
        code, timeouts = self.eval_timeouts(corpus, sample_records, tmp_path, monkeypatch, flags)
        capsys.readouterr()
        assert (code, timeouts) == (0, [3.0])

    def test_abbreviated_flag_is_usage_error(
        self, corpus, sample_records, tmp_path, capsys, monkeypatch
    ):
        code, timeouts = self.eval_timeouts(corpus, sample_records, tmp_path, monkeypatch,
                                            ["--exec-timeout", "3"])
        assert (code, timeouts) == (2, [])
        assert "--exec-timeout" in capsys.readouterr().err

    def test_percent_in_a_value_is_literal(self, tmp_path):
        cfg = tmp_path / "sqlforge.ini"
        cfg.write_text("[eval]\nvariant_root = /data/100%/v\n")
        assert load_config(cfg) == {"eval": {"variant_root": "/data/100%/v"}}

    def test_file_without_section_header_is_pipeline_error(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("jobs = 2\n")
        assert run([
            "--config", str(cfg), "introspect",
            "--corpus", str(corpus.root), "--db-id", "concert_singer",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key",
        [("introspect", "corpus_root"), ("refine", "generator"), ("refine", "debugger")],
    )
    def test_key_for_a_required_flag_rejected(self, tmp_path, section, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = /nonexistent\n")
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)

    def test_unknown_key_in_another_section_rejected(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mine]\nbogus_key = 1\n")
        assert run([
            "--config", str(cfg), "introspect",
            "--corpus", str(corpus.root), "--db-id", "concert_singer",
        ]) == 1
        assert "bogus_key" in capsys.readouterr().err
