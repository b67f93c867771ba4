import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlforge import augmentation, cli, executor, metrics, schema_catalog
from sqlforge.cli import run
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

    def test_readme_cli_block_lists_each_parsers_flags(self):
        """Each line of README's CLI block names exactly the flags of its
        parser (the top-level one for the line without a subcommand)."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.replace("\\\n", " ").splitlines():
            _, command, *rest = line.split()
            if command.startswith("["):
                command, rest = None, [command, *rest]
            documented[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
        parser = cli._build_parser()
        [commands] = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {o for a in p._actions for o in a.option_strings}
                 for name, p in [(None, parser), *commands.items()]}
        assert documented == {name: f - {"-h", "--help"} for name, f in flags.items()}


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
        # The record is the DatabaseSchema's fields, in their order.
        assert list(data) == ["db_id", "file_path", "tables", "foreign_keys"]
        assert list(data["tables"][0]) == ["name", "columns"]
        assert list(data["tables"][0]["columns"][0]) == [
            "name", "declared_type", "is_primary_key", "sample_values",
        ]
        assert list(data["foreign_keys"][0]) == [
            "from_table", "from_column", "to_table", "to_column",
        ]

    def test_sample_values_leave_out_blobs(self, tmp_path, capsys):
        path = corpus_db_path(tmp_path, "blobs")
        path.parent.mkdir(parents=True)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("CREATE TABLE t(x, n INTEGER)")
            conn.execute(
                "INSERT INTO t VALUES (x'00ff', -9223372036854775808), (1, 9e999),"
                " ('a', 5), (9e999, NULL), (-9e999, NULL), ('Inf', NULL), (NULL, NULL)"
            )
        conn.close()
        assert run([
            "introspect", "--corpus", str(tmp_path), "--db-id", "blobs",
            "--sample-values", "5",
        ]) == 0

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        data = json.loads(capsys.readouterr().out, parse_constant=not_json)
        x, n = data["tables"][0]["columns"]
        # No bytes and no infinity: JSON has a form for neither.
        assert x["sample_values"] == [1, "a", "Inf"]
        assert n["sample_values"] == [-9223372036854775808, 5]

    def test_missing_database_is_pipeline_error(self, corpus, capsys):
        assert run([
            "introspect", "--corpus", str(corpus.root), "--db-id", "nope",
        ]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "No such file or directory" in err and "nope.sqlite" in err


class TestCorpusRoot:
    # Each of these characters means something in a SQLite URI.
    @pytest.mark.parametrize("name", ["corpus#copy", "corpus?x", "corpus%41"])
    def test_any_path_is_a_corpus_root(self, corpus, sample_records, tmp_path, capsys, name):
        root = tmp_path / "roots" / name
        shutil.copytree(corpus.root, root)
        assert run(["introspect", "--corpus", str(root), "--db-id", "concert_singer"]) == 0
        assert json.loads(capsys.readouterr().out)["db_id"] == "concert_singer"
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        assert run([
            "eval",
            "--samples", str(root / "samples.jsonl"),
            "--preds", str(preds),
            "--corpus", str(root),
            "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["ex_accuracy"] == 1.0
        # No database was opened, or made, under a shorter name.
        assert [p.name for p in root.parent.iterdir()] == [name]


class TestMissingDatabase:
    @pytest.mark.parametrize("command", ["eval", "mine", "refine", "cross-db", "inner-db"])
    def test_is_an_error_line_before_any_connection(
        self, corpus, sample_records, tmp_path, capsys, opened, command
    ):
        """A sample whose database has no file ends the run before any
        database is opened, however late in the records it comes."""
        records = [*sample_records, {**sample_records[0], "sample_id": "lost", "db_id": "lost"}]
        samples, preds, out = (tmp_path / name for name in ("samples", "preds", "out"))
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        write_gold_preds(corpus, records, preds)
        script = tmp_path / "mock.jsonl"
        script.write_text(json.dumps({"responses": ["SELECT 1"], "cycle": True}) + "\n")
        common = ["--samples", str(samples), "--corpus", str(corpus.root), "--out", str(out)]
        argv = {
            "eval": ["eval", *common, "--preds", str(preds)],
            "mine": ["mine", *common, "--endpoint", f"mock:{script}"],
            "refine": ["refine", *common, "--generator", f"mock:{script}",
                       "--debugger", f"mock:{script}"],
            "cross-db": ["augment", "--mode", "cross-db", *common],
            "inner-db": ["augment", "--mode", "inner-db", *common],
        }[command]
        assert run(argv) == 1
        expected = f"error: expected database file at {corpus_db_path(corpus.root, 'lost')}"
        assert capsys.readouterr().err.splitlines() == [expected]
        assert not out.exists()
        assert opened == []


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
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ex_accuracy"] == 1.0
        assert summary["n_samples"] == 50
        # --json is the --out record without its verdicts.
        report = json.loads((tmp_path / "report.json").read_text())
        del report["verdicts"]
        assert summary == report

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

    def test_report_record_is_asdict_of_the_report(
        self, corpus, sample_records, tmp_path, capsys, monkeypatch
    ):
        """--out holds the bytes of ``dataclasses.asdict(report)``, so a field
        the record builder did not foresee cannot slip past it."""
        reports = []
        evaluate = cli.metrics.evaluate_corpus

        def spy(*args, **kwargs):
            reports.append(evaluate(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli.metrics, "evaluate_corpus", spy)
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"sample_id": r["sample_id"],
                        "sql": r["gold_sql"] if n % 2 else "SELECT * FROM nope"}) + "\n"
            for n, r in enumerate(sample_records)
        ))
        out = tmp_path / "report.json"
        assert run(["eval", "--samples", str(corpus.samples_path), "--preds", str(preds),
                    "--corpus", str(corpus.root), "--variants", str(corpus.variant_root),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        [report] = reports
        assert report.error_histogram and report.ts_accuracy is not None
        assert out.read_text() == json.dumps(
            dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"

    def test_failed_predictions_build_no_replica(
        self, corpus, sample_records, schemas, tmp_path, capsys, replicas
    ):
        """eval classifies every EX failure by compiling it on the sample's
        handle of the base file: it builds no schema replica, plain or
        widened for a missing column."""
        wrong = [
            lambda r: "SELECT * FROM no_such_table",
            lambda r: f'SELECT nope FROM "{schemas[r["db_id"]].tables[0].name}"',
            lambda r: "SELECT FROM",
        ]
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"sample_id": r["sample_id"], "sql": wrong[n % 3](r)}) + "\n"
            for n, r in enumerate(sample_records)
        ))
        assert run([
            "eval", "--samples", str(corpus.samples_path), "--preds", str(preds),
            "--corpus", str(corpus.root), "--variants", str(corpus.variant_root),
            "--jobs", "2", "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["error_histogram"] == {
            "SyntaxError": 16, "WrongColumnName": 17, "WrongTableName": 17,
        }
        assert (list(replicas), replicas.widened) == ([], [])

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

    @pytest.mark.parametrize("sql", [
        "SELECT '\ud800'", "SELECT 1; SELECT 2", "SELECT 1\x00",
        "", "-- nothing", ";", "DELETE FROM stadium",
    ])
    def test_any_prediction_text_gets_a_verdict(self, corpus, sample_records, tmp_path,
                                                capsys, sql):
        # Against a gold with no rows, which text with no statement must not match.
        rec = dict(sample_records[0])
        rec["gold_sql"] = f"SELECT * FROM ({rec['gold_sql']}) WHERE 0"
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
        assert (verdict["ex_match"], verdict["failure_class"]) == (False, "SyntaxError")

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

    def test_cross_db_follows_the_records_not_the_directory(
        self, corpus, sample_records, tmp_path
    ):
        """Each group of candidate tables is in the order of its databases'
        first samples in the records, which here is not the directory's.
        Every fixture database is copied under two db_ids, so each group
        holds a table of each copy."""
        root = tmp_path / "copies"
        records = []
        for suffix in ("_b", "_a"):  # the directory lists "_a" first
            for db_dir in sorted((corpus.root / "database").iterdir()):
                db_id = db_dir.name + suffix
                (root / "database" / db_id).mkdir(parents=True)
                shutil.copyfile(corpus.db_path(db_dir.name), corpus_db_path(root, db_id))
            records += [{**r, "sample_id": r["sample_id"] + suffix, "db_id": r["db_id"] + suffix}
                        for r in sample_records]
        samples, out = tmp_path / "samples.jsonl", tmp_path / "out.jsonl"
        samples.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run(["augment", "--mode", "cross-db", "--samples", str(samples),
                    "--corpus", str(root), "--seed", "3", "--out", str(out)]) == 0
        written = [json.loads(line) for line in out.read_text().splitlines()]

        schemas = {db_id: schema_catalog.introspect_database(corpus_db_path(root, db_id), db_id)
                   for db_id in sorted(p.name for p in (root / "database").iterdir())}

        def augmented(order):
            in_order = [schemas[db_id] for db_id in order]
            return [
                augmentation.augmented_to_record(augmentation.cross_db_augment(
                    s, schemas[s.db_id].tables,
                    augmentation.cross_db_candidates(s.db_id, in_order),
                    augmentation.derive_seed(3, s.sample_id),
                ))
                for s in metrics.samples_from_records(records, metrics.Corpus(root))
            ]

        assert written == augmented(dict.fromkeys(r["db_id"] for r in records))
        assert written != augmented(schemas)

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


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize("argv,args_file", [
        (["augment", "--mode", "inner-db", "--p-table", "5"], None),
        (["augment", "--mode", "inner-db", "--p-col", "-2"], None),
        (["augment", "--mode", "inner-db", "--p-table", "nan"], None),
        (["eval", "--jobs", "0"], None),
        (["eval", "--jobs", "-3"], None),
        (["eval"], "--jobs=0\n"),
        (["mine", "--temperature", "nan"], None),
        (["mine", "--temperature", "inf"], None),
        (["mine"], "--temperature=-inf\n"),
    ], ids=["p-table-5", "p-col--2", "p-table-nan", "jobs-0", "jobs--3", "args-file-jobs-0",
            "temperature-nan", "temperature-inf", "args-file-temperature--inf"])
    def test_is_an_error_line(self, corpus, sample_records, tmp_path, capsys, argv, args_file):
        out = tmp_path / "out.jsonl"
        argv = [*argv, "--samples", str(corpus.samples_path), "--corpus", str(corpus.root),
                "--out", str(out)]
        if argv[0] == "eval":
            write_gold_preds(corpus, sample_records, tmp_path / "preds.jsonl")
            argv += ["--preds", str(tmp_path / "preds.jsonl")]
        if argv[0] == "mine":
            script = tmp_path / "mock.jsonl"
            script.write_text(json.dumps({"responses": ["SELECT 1"], "cycle": True}) + "\n")
            argv += ["--endpoint", f"mock:{script}"]
        if args_file is not None:
            (tmp_path / "sqlforge.args").write_text(args_file)
            argv.append(f"@{tmp_path / 'sqlforge.args'}")
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_negative_sample_value_count_is_an_error_line(self, corpus, tmp_path, capsys):
        out = tmp_path / "schema.json"
        assert run(["introspect", "--corpus", str(corpus.root), "--db-id", "concert_singer",
                    "--sample-values", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: sample_value_count must not be negative, not -1\n")
        assert not out.exists()


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
            "--endpoint", f"mock:{script}",
            "--n-candidates", "4",
            "--out", str(out_path),
        ]) == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["rejected"] == TRYOUT_REJECTED


    @pytest.mark.parametrize("sql", ["SELECT '\ud800'", "-- nothing", "/* c */"])
    def test_any_completion_text_gets_a_record(self, corpus, tmp_path, sql):
        script = tmp_path / "mock.jsonl"
        script.write_text(json.dumps({"responses": [sql], "cycle": True}) + "\n")
        samples_file = tmp_path / "samples.jsonl"
        with open(corpus.samples_path) as fh:
            samples_file.write_text(next(line for line in fh if TRYOUT_QUESTION in line))
        out_path = tmp_path / "pairs.jsonl"
        assert run([
            "mine", "--samples", str(samples_file), "--corpus", str(corpus.root),
            "--endpoint", f"mock:{script}", "--n-candidates", "2", "--out", str(out_path),
        ]) == 0
        [pair] = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert (pair["rejected"], pair["rejected_reason"]) == (sql, "exec_error")


class TestEndpointReplies:
    @pytest.mark.parametrize("command", ["mine", "refine"])
    @pytest.mark.parametrize("content", [None, 5, ["SELECT 1"]], ids=["null", "number", "list"])
    def test_content_that_is_not_text_is_an_error_line(
        self, corpus, model_server, tmp_path, capsys, command, content
    ):
        """Chat-completions servers send ``"content": null`` beside a tool
        call; any content that is not a string ends the run in one
        ``error:`` line, with no output."""
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        model_server.script.extend([(200, body)] * 50)
        samples, out = tmp_path / "samples.jsonl", tmp_path / "out.jsonl"
        with open(corpus.samples_path) as fh:
            samples.write_text(next(line for line in fh if TRYOUT_QUESTION in line))
        common = ["--samples", str(samples), "--corpus", str(corpus.root), "--out", str(out)]
        if command == "mine":
            argv = ["mine", *common, "--endpoint", model_server.url, "--n-candidates", "1"]
        else:
            argv = ["refine", *common, "--generator", model_server.url,
                    "--debugger", model_server.url]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not a string" in err[0]
        assert not out.exists()


    @pytest.mark.parametrize("command", ["mine", "refine"])
    @pytest.mark.parametrize("status, body", [
        (404, {"choices": [{"message": {"content": "SELECT 1"}}]}),
        (400, {"error": {"message": "context length exceeded"}}),
    ], ids=["404-with-choices", "400-context-length"])
    def test_refused_status_is_an_error_line(
        self, corpus, model_server, tmp_path, capsys, command, status, body
    ):
        """A reply outside 2xx is not a completion, whatever its body holds:
        the run ends in one ``error:`` line naming the status and the start
        of the body, with no output."""
        model_server.script.append((status, json.dumps(body).encode()))
        samples, out = tmp_path / "samples.jsonl", tmp_path / "out.jsonl"
        with open(corpus.samples_path) as fh:
            samples.write_text(next(line for line in fh if TRYOUT_QUESTION in line))
        common = ["--samples", str(samples), "--corpus", str(corpus.root), "--out", str(out)]
        if command == "mine":
            argv = ["mine", *common, "--endpoint", model_server.url, "--n-candidates", "1"]
        else:
            argv = ["refine", *common, "--generator", model_server.url,
                    "--debugger", model_server.url]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: HTTP {status} from "), err
        assert next(iter(body)) in err[0]
        assert not out.exists()
        assert len(model_server.prompts) == 1

    @pytest.mark.parametrize("url,reason", [
        ("http:///v1", "it has no host"),
        ("http://exa mple/v1", "it contains whitespace or a control character"),
        ("http://127.0.0.1:99999/v1", "Port out of range"),
        ("http://127.0.0.1:80x/v1", "Port could not be cast"),
        ("http://[::1/v1", "Invalid IPv6 URL"),
        ("http://key@127.0.0.1/v1", "holds credentials"),
    ])
    def test_malformed_endpoint_url_is_an_error_line(
        self, corpus, tmp_path, capsys, http_connections, url, reason
    ):
        """A URL no request could be sent to ends ``mine`` in one ``error:``
        line that names it, before anything is posted or retried."""
        out = tmp_path / "pairs.jsonl"
        assert run(["mine", "--samples", str(corpus.samples_path), "--corpus",
                    str(corpus.root), "--endpoint", url, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: endpoint URL {url!r}")
        assert reason in err[0]
        assert http_connections == []
        assert not out.exists()


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
    record that lacks a required key or holds a non-string text value, is
    a pipeline error that names the record, and the key if one is at
    fault. An input or output path that is a directory is a pipeline error
    that names it."""

    NOT_JSON = '{"sample_id": "a", "sql"'
    #: The key's value is deleted.
    MISSING = object()

    @staticmethod
    def write(path, lines):
        path.write_text("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in lines
        ))

    @pytest.mark.parametrize("which,key,value", [
        ("samples", "sample_id", MISSING),
        ("samples", "db_id", MISSING),
        ("samples", "question", MISSING),
        ("samples", "gold_sql", MISSING),
        ("samples", "db_id", 5),
        ("samples", "db_id", ["a"]),
        ("samples", "question", None),
        ("samples", "gold_sql", 5),
        ("samples", None, MISSING),
        ("samples", NOT_JSON, MISSING),
        ("preds", "sample_id", MISSING),
        ("preds", "sql", MISSING),
        ("preds", "sql", 5),
        ("preds", None, MISSING),
        ("preds", NOT_JSON, MISSING),
        ("directory", "--samples", MISSING),
        ("directory", "--out", MISSING),
    ])
    def test_is_an_error_naming_key_and_record(
        self, corpus, sample_records, tmp_path, capsys, which, key, value
    ):
        samples, preds = tmp_path / "samples.jsonl", tmp_path / "preds.jsonl"
        sample_lines = [dict(r) for r in sample_records]
        pred_lines = [{"sample_id": r["sample_id"], "sql": r["gold_sql"]}
                      for r in sample_records]
        lines = sample_lines if which == "samples" else pred_lines
        if which == "directory":
            pass
        elif key == self.NOT_JSON:
            lines[1] = key
        elif key is None:
            lines[1] = ["not", "an", "object"]
        elif value is self.MISSING:
            del lines[1][key]
        else:
            lines[1][key] = value
        self.write(samples, sample_lines)
        self.write(preds, pred_lines)
        if which == "preds":
            argv = ["eval", "--samples", str(samples), "--preds", str(preds),
                    "--corpus", str(corpus.root)]
        else:
            argv = ["augment", "--mode", "inner-db", "--samples", str(samples),
                    "--corpus", str(corpus.root), "--out", str(tmp_path / "out.jsonl")]
        if which == "directory":
            argv[argv.index(key) + 1] = str(tmp_path)
        assert run(argv) == 1
        err = capsys.readouterr().err
        if which == "directory":
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(tmp_path) in err
            return
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

    @pytest.mark.parametrize("command", ["augment-cross", "augment-inner", "mine", "refine",
                                         "eval"])
    def test_repeated_sample_id_is_an_error(self, corpus, sample_records, tmp_path, capsys,
                                            command):
        samples, preds = tmp_path / "samples.jsonl", tmp_path / "preds.jsonl"
        records = [dict(r) for r in sample_records]
        records[1]["sample_id"] = 7
        records[3]["sample_id"] = "7"
        self.write(samples, records)
        self.write(preds, [{"sample_id": r["sample_id"], "sql": r["gold_sql"]}
                           for r in sample_records])
        script = tmp_path / "mock.jsonl"
        script.write_text(json.dumps({"responses": ["SELECT 1"], "cycle": True}) + "\n")
        out = tmp_path / "out.jsonl"
        common = ["--samples", str(samples), "--corpus", str(corpus.root), "--out", str(out)]
        argv = {
            "augment-cross": ["augment", "--mode", "cross-db", *common],
            "augment-inner": ["augment", "--mode", "inner-db", *common],
            "mine": ["mine", *common, "--endpoint", f"mock:{script}"],
            "refine": ["refine", *common, "--generator", f"mock:{script}",
                       "--debugger", f"mock:{script}", "--trace", str(tmp_path / "trace")],
            "eval": ["eval", *common, "--preds", str(preds)],
        }[command]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: sample records 2 and 4 share sample_id '7'\n"
        assert not out.exists()

    def test_mock_script_entry_without_responses_is_an_error(self, corpus, tmp_path, capsys):
        script = tmp_path / "mock.jsonl"
        script.write_text('{"match": "x"}\n')
        assert run(["mine", "--samples", str(corpus.samples_path), "--corpus", str(corpus.root),
                    "--endpoint", f"mock:{script}", "--out", str(tmp_path / "pairs.jsonl")]) == 1
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
    'SELECT * FROM "file is not a database"',
]
hostile_texts = st.lists(st.sampled_from(HOSTILE_PIECES), min_size=1, max_size=4).map("".join)


class TestHostileModelText:
    @settings(max_examples=20, deadline=None)
    @given(preds=st.lists(hostile_texts, min_size=2, max_size=2),
           completions=st.lists(hostile_texts, min_size=1, max_size=3))
    @example(preds=[HOSTILE_PIECES[-1], "SELECT 1"], completions=[HOSTILE_PIECES[-1]])
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
            assert run(["mine", *common, "--endpoint", "mock:mock.jsonl", "--n-candidates", "3",
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
            return ["mine", *common, "--endpoint", f"mock:{script}", "--n-candidates", "2"]
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
        # One connection introspects the schema, then runs every statement.
        assert len([d for d in opened.databases if path in d]) == 1
        assert not opened.still_open()

    @pytest.mark.parametrize("command", ["mine", "refine"])
    def test_serial_run_connects_once_per_database(
        self, corpus, sample_records, tmp_path, monkeypatch, command
    ):
        """Samples start grouped by db_id, so a serial run connects to each
        database once, to introspect it and run its statements, though the
        samples come back to each database, and still writes in sample
        order."""
        connected = []
        connect = executor.connect_read_only

        def counting_connect(path, **kwargs):
            connected.append(path.name)
            return connect(path, **kwargs)

        monkeypatch.setattr(executor, "connect_read_only", counting_connect)
        monkeypatch.setattr(schema_catalog, "connect_read_only", counting_connect)
        other = ["SELECT 1", "SELECT * FROM no_such_table"] if command == "mine" else None
        script = self.mock(tmp_path, sample_records, other)
        assert run(self.argv(command, corpus, tmp_path, sample_records, script)) == 0
        files = {f"{r['db_id']}.sqlite" for r in sample_records}
        assert sorted(connected) == sorted(files)
        order = [r["sample_id"] for r in sample_records]
        written = [json.loads(line)["sample_id"]
                   for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert written == sorted(written, key=order.index)
        assert set(written) == set(order)

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
        monkeypatch.setattr(HttpModelClient, "max_in_flight", 1)

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
    def test_refine_builds_no_replica(
        self, corpus, model_server, tmp_path, capsys, opened, replicas, fails
    ):
        """refine builds no schema replica: every attempt is checked on its
        worker thread's handle of the database file, and every connection
        is closed on return and on failure."""
        if fails:
            # The first replies are valid, so handles are open when a
            # later model call is refused.
            ok = json.dumps({"choices": [{"message": {"content": "SELECT 1"}}]}).encode()
            model_server.script.extend([(200, ok)] * 8 + [(401, b"{}")])
        assert self.refine(corpus, model_server.url, tmp_path / "out.jsonl",
                           tmp_path / "trace") == int(fails)
        assert ("rejected credentials" in capsys.readouterr().err) == fails
        assert 1 < model_server.peak_in_flight
        # The endpoint's replies name no missing column.
        assert (list(replicas), replicas.widened) == ([], [])
        assert opened
        assert not opened.still_open()

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("command", ["mine", "refine"])
    def test_no_connection_is_left_open(
        self, corpus, model_server, tmp_path, capsys, http_connections, command, fails
    ):
        """A run opens at most max_in_flight connections per client, and
        closes them all, also after a refused call."""
        if fails:
            n = 4 if command == "mine" else 1
            ok = json.dumps({"choices": [{"message": {"content": "SELECT 1"}}] * n}).encode()
            model_server.script.extend([(200, ok)] * 8 + [(401, b"{}")])
        if command == "mine":
            code, clients = self.mine(corpus, model_server.url, tmp_path / "out.jsonl"), 1
        else:
            code = self.refine(corpus, model_server.url, tmp_path / "out.jsonl",
                               tmp_path / "trace")
            clients = 2  # the generator and the debugger
        assert code == int(fails)
        assert ("rejected credentials" in capsys.readouterr().err) == fails
        assert 1 < model_server.connections == len(http_connections) <= clients * self.WIDTH
        assert len(model_server.prompts) > len(http_connections)
        assert [c for c in http_connections if c.sock is not None] == []

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


class TestArgumentFiles:
    """``@FILE`` puts the arguments in FILE, one per line, in its place; a
    flag there is read exactly as one on the command line."""

    @staticmethod
    def eval_run(corpus, sample_records, tmp_path, monkeypatch, args_file, argv):
        """Exit code and the (parallelism, timeout) of each evaluate_corpus
        call for ``eval`` with ``argv``, where "@" stands for a file holding
        ``args_file``."""
        calls = []
        evaluate = cli.metrics.evaluate_corpus

        def spy(*args, parallelism, timeout, **kwargs):
            calls.append((parallelism, timeout))
            return evaluate(*args, parallelism=parallelism, timeout=timeout, **kwargs)

        monkeypatch.setattr(cli.metrics, "evaluate_corpus", spy)
        preds = tmp_path / "preds.jsonl"
        write_gold_preds(corpus, sample_records, preds)
        path = tmp_path / "eval.args"
        path.write_text(args_file)
        argv = [f"@{path}" if arg == "@" else arg for arg in argv]
        code = run(["eval", "--samples", str(corpus.samples_path), "--preds", str(preds),
                    "--corpus", str(corpus.root), "--json", *argv])
        return code, calls

    def test_file_fills_jobs_and_timeout(self, corpus, sample_records, tmp_path, capsys,
                                         monkeypatch):
        code, calls = self.eval_run(corpus, sample_records, tmp_path, monkeypatch,
                                    "--jobs=2\n--exec-timeout-secs\n10\n", ["@"])
        assert (code, calls) == (0, [(2, 10.0)])
        assert json.loads(capsys.readouterr().out)["ex_accuracy"] == 1.0

    @pytest.mark.parametrize("argv,timeout", [
        (["@", "--exec-timeout-secs", "3"], 3.0),
        (["@", "--exec-timeout-secs=3"], 3.0),
        (["--exec-timeout-secs", "3", "@"], 7.0),
    ], ids=["flag-after", "flag-after-with-equals", "flag-before"])
    def test_last_occurrence_wins(self, corpus, sample_records, tmp_path, capsys,
                                  monkeypatch, argv, timeout):
        code, calls = self.eval_run(corpus, sample_records, tmp_path, monkeypatch,
                                    "--exec-timeout-secs=7\n--jobs=1\n", argv)
        capsys.readouterr()
        assert (code, calls) == (0, [(1, timeout)])

    @pytest.mark.parametrize("args_file,argv", [
        ("", ["--exec-timeout", "3"]),
        ("--exec-timeout=3\n", ["@"]),
    ], ids=["command-line", "file"])
    def test_abbreviated_flag_is_usage_error(self, corpus, sample_records, tmp_path, capsys,
                                             monkeypatch, args_file, argv):
        code, calls = self.eval_run(corpus, sample_records, tmp_path, monkeypatch,
                                    args_file, argv)
        assert (code, calls) == (2, [])
        assert "--exec-timeout" in capsys.readouterr().err

    def test_unknown_flag_in_a_file_is_usage_error(self, corpus, sample_records, tmp_path,
                                                   capsys, monkeypatch):
        code, calls = self.eval_run(corpus, sample_records, tmp_path, monkeypatch,
                                    "--bogus-flag=1\n", ["@"])
        assert (code, calls) == (2, [])
        assert "--bogus-flag" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, corpus, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        assert run(["introspect", f"@{missing}"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_file_may_give_required_flags(self, corpus, tmp_path, capsys):
        path = tmp_path / "introspect.args"
        path.write_text(f"--corpus\n{corpus.root}\n--db-id=concert_singer\n")
        assert run(["introspect", f"@{path}"]) == 0
        assert json.loads(capsys.readouterr().out)["db_id"] == "concert_singer"

    def test_percent_in_a_value_is_literal(self, tmp_path):
        path = tmp_path / "eval.args"
        path.write_text("--variants=/data/100%/v\n")
        args = cli._build_parser().parse_args(
            ["eval", f"@{path}", "--samples", "s", "--preds", "p", "--corpus", "c"])
        assert args.variants == "/data/100%/v"
