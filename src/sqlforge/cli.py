"""Command-line entry point: introspect, augment, mine, refine, eval."""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import augmentation, metrics, preference_miner, refine_agent
from .errors import SqlforgeError, ConfigError
from .executor import DEFAULT_TIMEOUT_SECS
from .model_client import ModelEndpoint
from .schema_catalog import (
    DatabaseSchema,
    corpus_db_path,
    introspect_database,
    schema_to_json,
)
from .sql_analysis import SchemaReplica

log = logging.getLogger("sqlforge")

# Config key -> (argument attribute, type).
_CONFIG_KEYS = {
    "corpus_root": ("corpus", str),
    "variant_root": ("variants", str),
    "exec_timeout_secs": ("exec_timeout_secs", float),
    "n_candidates": ("n_candidates", int),
    "temperature": ("temperature", float),
    "max_iters": ("max_iters", int),
    "jobs": ("jobs", int),
    "seed": ("seed", int),
    "generator": ("generator", str),
    "debugger": ("debugger", str),
}


def _default_jobs() -> int:
    return min(os.cpu_count() or 1, 8)


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """The values of each section of an INI file, keyed by section name."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        sections[section] = dict(parser.items(section))
        for key in sections[section]:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
    return sections


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlforge",
        description="Execution-grounded text-to-SQL toolkit",
    )
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("introspect", help="dump a database schema as JSON")
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.add_argument("--db-id", required=True)
    p.add_argument("--sample-values", type=int, default=0,
                   help="number of sample values to fetch per column")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("augment", help="build augmented SFT samples")
    p.add_argument("--mode", required=True, choices=["cross-db", "inner-db"])
    p.add_argument("--samples", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-table", type=float, default=augmentation.DEFAULT_P_TABLE)
    p.add_argument("--p-col", type=float, default=augmentation.DEFAULT_P_COL)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mine", help="mine DPO preference pairs")
    p.add_argument("--samples", required=True)
    p.add_argument("--corpus", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--endpoint", help="model endpoint URL")
    group.add_argument("--mock", help="mock script file (JSON-lines)")
    p.add_argument("--n-candidates", type=int,
                   default=preference_miner.DEFAULT_N_CANDIDATES)
    p.add_argument("--temperature", type=float,
                   default=preference_miner.DEFAULT_TEMPERATURE)
    p.add_argument("--exec-timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("refine", help="run the generate/check/debug loop")
    p.add_argument("--samples", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--generator", required=True,
                   help="http(s)://... or mock:<script>")
    p.add_argument("--debugger", required=True,
                   help="http(s)://... or mock:<script>")
    p.add_argument("--max-iters", type=int, default=refine_agent.DEFAULT_MAX_ITERS)
    p.add_argument("--exec-timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--trace", help="directory for per-sample attempt traces")
    p.add_argument("--out", required=True, help="predictions JSONL output")

    p = sub.add_parser("eval", help="score predictions with EX/TS")
    p.add_argument("--samples", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--variants", help="variant-suite root for TS")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.add_argument("--exec-timeout-secs", type=float, default=DEFAULT_TIMEOUT_SECS)
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.add_argument("--out", help="write the full report JSON here")

    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill args from the config section named after the subcommand, for
    flags not given on the command line."""
    if not args.config:
        return
    values = load_config(args.config).get(args.command, {})
    given = {tok.split("=")[0].lstrip("-").replace("-", "_") for tok in argv
             if tok.startswith("--")}
    for key, value in values.items():
        attr, cast = _CONFIG_KEYS[key]
        if hasattr(args, attr) and attr not in given:
            setattr(args, attr, cast(value))


def _make_client(spec: str):
    return ModelEndpoint.parse(spec).make_client()


def _cmd_introspect(args) -> int:
    path = corpus_db_path(args.corpus, args.db_id)
    schema = introspect_database(path, args.db_id, args.sample_values)
    text = schema_to_json(schema)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _inner_db_by_database(samples, schemas: dict[str, DatabaseSchema], args) -> list:
    """Inner-db augment each sample, visiting them grouped by db_id so that
    one schema replica per database compiles every gold query; the results
    are in sample order. If samples fail, the error of the first failing
    sample in sample order is raised, as when they ran in that order."""
    augmented = [None] * len(samples)
    first_failure: tuple[int, Exception] | None = None
    by_db = sorted(range(len(samples)), key=lambda i: samples[i].db_id)
    for db_id, indices in itertools.groupby(by_db, key=lambda i: samples[i].db_id):
        with SchemaReplica(schemas[db_id].tables) as replica:
            for i in indices:
                if first_failure is not None and first_failure[0] < i:
                    continue
                s = samples[i]
                try:
                    augmented[i] = augmentation.inner_db_augment(
                        s,
                        schemas[db_id],
                        augmentation.derive_seed(args.seed, s.sample_id),
                        p_table=args.p_table,
                        p_col=args.p_col,
                        replica=replica,
                    )
                except Exception as exc:
                    first_failure = (i, exc)
    if first_failure is not None:
        raise first_failure[1]
    return augmented


def _cmd_augment(args) -> int:
    records = metrics.load_samples(args.samples)
    schemas: dict[str, DatabaseSchema] = {}
    samples = metrics.samples_from_records(records, args.corpus, schemas)
    if args.mode == "cross-db":
        corpus_schemas = list(schemas.values())
        augmented = [
            augmentation.cross_db_augment(
                s, corpus_schemas, augmentation.derive_seed(args.seed, s.sample_id)
            )
            for s in samples
        ]
    else:
        augmented = _inner_db_by_database(samples, schemas, args)
    augmentation.write_augmented(args.out, augmented)
    log.info("wrote %d augmented samples to %s", len(augmented), args.out)
    return 0


def _in_sample_order(fn, samples, width: int):
    """Yield ``fn(s)`` for each sample, in sample order, running up to
    ``width`` samples at once. The first sample to raise cancels every
    sample not yet started; its exception is raised in its turn."""
    pool = ThreadPoolExecutor(max_workers=width)

    def cancel_rest(future):
        if not future.cancelled() and future.exception() is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    try:
        futures = [pool.submit(fn, s) for s in samples]
        for future in futures:
            future.add_done_callback(cancel_rest)
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_mine(args) -> int:
    records = metrics.load_samples(args.samples)
    samples = metrics.samples_from_records(records, args.corpus)
    client = _make_client(args.endpoint if args.endpoint else f"mock:{args.mock}")

    def mine(s):
        return preference_miner.mine_pairs(
            s,
            client,
            corpus_db_path(args.corpus, s.db_id),
            n=args.n_candidates,
            temperature=args.temperature,
            timeout=args.exec_timeout_secs,
        )

    pairs = []
    skipped = 0
    for sample_pairs in _in_sample_order(mine, samples, client.max_in_flight):
        if not sample_pairs:
            skipped += 1
        pairs.extend(sample_pairs)
    preference_miner.write_pairs(args.out, pairs)
    log.info("wrote %d pairs (%d samples yielded none)", len(pairs), skipped)
    return 0


def _cmd_refine(args) -> int:
    records = metrics.load_samples(args.samples)
    samples = metrics.samples_from_records(records, args.corpus)
    if args.trace:
        for s in samples:
            refine_agent.trace_path(args.trace, s.sample_id)
    generator = _make_client(args.generator)
    debugger = _make_client(args.debugger)

    def refine(s):
        db_path = corpus_db_path(args.corpus, s.db_id)
        # Every sample carries its tables, so the schema is not read again.
        db = DatabaseSchema(s.db_id, str(db_path), s.schema_tables)
        return refine_agent.refine_sample(
            s,
            db,
            generator,
            debugger,
            db_path,
            max_iters=args.max_iters,
            timeout=args.exec_timeout_secs,
        )

    width = min(generator.max_in_flight, debugger.max_in_flight)
    with open(args.out, "w", encoding="utf-8") as out:
        for s, result in zip(samples, _in_sample_order(refine, samples, width)):
            out.write(
                json.dumps(
                    {"sample_id": s.sample_id, "sql": result.final_sql},
                    sort_keys=True,
                )
                + "\n"
            )
            if args.trace:
                refine_agent.write_trace(args.trace, s.sample_id, result)
    return 0


def _cmd_eval(args) -> int:
    records = metrics.load_samples(args.samples)
    schemas: dict[str, DatabaseSchema] = {}
    samples = metrics.samples_from_records(records, args.corpus, schemas)
    predictions = metrics.load_predictions(args.preds)
    report = metrics.evaluate_corpus(
        predictions,
        samples,
        args.corpus,
        variant_root=args.variants,
        parallelism=args.jobs,
        timeout=args.exec_timeout_secs,
        schemas=schemas,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(metrics.report_to_dict(report), indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "ex_accuracy": report.ex_accuracy,
                    "ts_accuracy": report.ts_accuracy,
                    "n_samples": report.n_samples,
                    "error_histogram": dict(sorted(report.error_histogram.items())),
                },
                sort_keys=True,
            )
        )
    else:
        print(metrics.format_summary_table(report))
    return 0


_COMMANDS = {
    "introspect": _cmd_introspect,
    "augment": _cmd_augment,
    "mine": _cmd_mine,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=args.log_level.upper())
    try:
        _apply_config(args, argv)
        return _COMMANDS[args.command](args)
    except (SqlforgeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
