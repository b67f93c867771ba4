"""Command-line entry point: introspect, augment, mine, refine, eval."""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from pathlib import Path

from . import augmentation, metrics, preference_miner, refine_agent
from .errors import SqlforgeError, ConfigError
from .executor import DEFAULT_TIMEOUT_SECS
from .model_client import make_client
from .schema_catalog import corpus_db_path, introspect_database, schema_to_json

log = logging.getLogger("sqlforge")

# Config key -> (argument attribute, type).
_CONFIG_KEYS = {
    "variant_root": ("variants", str),
    "exec_timeout_secs": ("exec_timeout_secs", float),
    "n_candidates": ("n_candidates", int),
    "temperature": ("temperature", float),
    "max_iters": ("max_iters", int),
    "jobs": ("jobs", int),
    "seed": ("seed", int),
}


def _default_jobs() -> int:
    return min(os.cpu_count() or 1, 8)


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    """The values of each section of an INI file, keyed by section name."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
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
    # No abbreviated flags: _apply_config finds the flags given by their
    # full spelling in argv.
    parser = argparse.ArgumentParser(
        prog="sqlforge",
        description="Execution-grounded text-to-SQL toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("introspect", allow_abbrev=False, help="dump a database schema as JSON")
    p.add_argument("--corpus", required=True, help="corpus root directory")
    p.add_argument("--db-id", required=True)
    p.add_argument("--sample-values", type=int, default=0,
                   help="number of sample values to fetch per column")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("augment", allow_abbrev=False, help="build augmented SFT samples")
    p.add_argument("--mode", required=True, choices=["cross-db", "inner-db"])
    p.add_argument("--samples", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-table", type=float, default=augmentation.DEFAULT_P_TABLE)
    p.add_argument("--p-col", type=float, default=augmentation.DEFAULT_P_COL)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mine", allow_abbrev=False, help="mine DPO preference pairs")
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

    p = sub.add_parser("refine", allow_abbrev=False, help="run the generate/check/debug loop")
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

    p = sub.add_parser("eval", allow_abbrev=False, help="score predictions with EX/TS")
    p.add_argument("--samples", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--variants", help="variant-suite root for TS")
    p.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help="samples run at once, once one sample has proved slow (5 ms); "
        "until then they run one at a time",
    )
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


def _cmd_introspect(args) -> int:
    path = corpus_db_path(args.corpus, args.db_id)
    schema = introspect_database(path, args.db_id, args.sample_values)
    text = schema_to_json(schema)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_augment(args) -> int:
    records = metrics.load_samples(args.samples)
    with metrics.Corpus(args.corpus) as corpus:
        samples = metrics.samples_from_records(records, corpus)
        if args.mode == "cross-db":
            schemas = list(corpus.schemas.values())
            candidates = {}
            augmented = []
            for s in samples:
                # Each database's candidates are found at its first sample.
                if s.db_id not in candidates:
                    candidates[s.db_id] = augmentation.cross_db_candidates(s.db_id, schemas)
                seed = augmentation.derive_seed(args.seed, s.sample_id)
                augmented.append(augmentation.cross_db_augment(s, candidates[s.db_id], seed))
        else:

            def augment(s):
                return augmentation.inner_db_augment(
                    s,
                    corpus.handles(s.db_id).replica,
                    augmentation.derive_seed(args.seed, s.sample_id),
                    p_table=args.p_table,
                    p_col=args.p_col,
                )

            # Grouped by db_id, so one schema replica per database compiles
            # every gold query.
            augmented = metrics.run_samples(augment, samples, key=lambda s: s.db_id)
    augmentation.write_augmented(args.out, augmented)
    log.info("wrote %d augmented samples to %s", len(augmented), args.out)
    return 0


def _cmd_mine(args) -> int:
    records = metrics.load_samples(args.samples)
    with metrics.Corpus(args.corpus) as corpus:
        samples = metrics.samples_from_records(records, corpus)
        client = make_client(args.endpoint if args.endpoint else f"mock:{args.mock}")

        def mine(s):
            return preference_miner.mine_pairs(
                s,
                client,
                corpus.handles(s.db_id).base,
                n=args.n_candidates,
                temperature=args.temperature,
                timeout=args.exec_timeout_secs,
            )

        per_sample = metrics.run_samples(mine, samples, client.max_in_flight)
    pairs = [pair for sample_pairs in per_sample for pair in sample_pairs]
    preference_miner.write_pairs(args.out, pairs)
    skipped = sum(1 for sample_pairs in per_sample if not sample_pairs)
    log.info("wrote %d pairs (%d samples yielded none)", len(pairs), skipped)
    return 0


def _cmd_refine(args) -> int:
    records = metrics.load_samples(args.samples)
    with metrics.Corpus(args.corpus) as corpus:
        samples = metrics.samples_from_records(records, corpus)
        if args.trace:
            for s in samples:
                refine_agent.trace_path(args.trace, s.sample_id)
        generator = make_client(args.generator)
        debugger = make_client(args.debugger)

        def refine(s):
            handles = corpus.handles(s.db_id)
            return refine_agent.refine_sample(
                s,
                generator,
                debugger,
                handles.replica,
                handles.base,
                max_iters=args.max_iters,
                timeout=args.exec_timeout_secs,
            )

        width = min(generator.max_in_flight, debugger.max_in_flight)
        results = metrics.run_samples(refine, samples, width)
    # Nothing is written unless every sample succeeded.
    with open(args.out, "w", encoding="utf-8") as out:
        for s, result in zip(samples, results):
            out.write(
                json.dumps({"sample_id": s.sample_id, "sql": result.final_sql}, sort_keys=True)
                + "\n"
            )
            if args.trace:
                refine_agent.write_trace(args.trace, s.sample_id, result)
    return 0


def _cmd_eval(args) -> int:
    records = metrics.load_samples(args.samples)
    with metrics.Corpus(args.corpus, args.variants) as corpus:
        samples = metrics.samples_from_records(records, corpus)
        predictions = metrics.load_predictions(args.preds)
        report = metrics.evaluate_corpus(
            predictions,
            samples,
            corpus,
            parallelism=args.jobs,
            timeout=args.exec_timeout_secs,
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
