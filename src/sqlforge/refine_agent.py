"""Generate / invalid-check / debug loop.

A question is first answered by the generator model. The resulting SQL
goes through the invalid check, one read-only run on the database file
whose outcome is classified; failures are routed to the debugger model
together with the failed SQL and its error, and the corrected statement
loops back into the check until it passes or the iteration budget runs out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .executor import TIMEOUT, ExecutionOutcome
from .executor import execute  # noqa: F401 -- bench/tracer.py wraps this name
from .metrics import Corpus, Sample
from .model_client import GenerationRequest, extract_sql
from .schema_catalog import render_prompt
from .sql_analysis import SYNTAX_ERROR, ValidityReport, classify_outcome, name_column_owner
from .sql_analysis import validate_against_tables  # noqa: F401 -- bench/tracer.py wraps this name

GENERATOR = "generator"
DEBUGGER = "debugger"

DEFAULT_MAX_ITERS = 3


@dataclass(frozen=True)
class RefineAttempt:
    iteration: int
    sql: str
    validity: ValidityReport
    outcome: ExecutionOutcome
    role: str


@dataclass(frozen=True)
class RefineResult:
    final_sql: str
    attempts: tuple[RefineAttempt, ...]
    succeeded: bool
    iterations_used: int


def invalid_check(sql: str, tables, outcome: ExecutionOutcome, timeout: float) -> ValidityReport:
    """Classify ``outcome``, the run of ``sql`` with deadline ``timeout`` on
    the file whose schema is ``tables``; it runs nothing. A rows outcome is
    Valid, an empty result set included; a timeout is a SyntaxError naming
    the timeout, and an error is classified by SQLite's message. A
    WrongColumnName report names the table the column was looked up in,
    when there is one."""
    if outcome.kind == TIMEOUT:
        return ValidityReport(SYNTAX_ERROR, f"execution exceeded {timeout}s timeout")
    return name_column_owner(sql, tables, classify_outcome(sql, lambda: tables, outcome))


def build_debug_prompt(
    question: str,
    schema_tables,
    failed_sql: str,
    validity: ValidityReport,
) -> str:
    if validity.is_valid:
        raise ValueError("debug prompt requires a failed validity report")
    schema_text = render_prompt(schema_tables, question)
    return (
        f"{schema_text}\n"
        f"-- The following SQL is invalid ({validity.status}: {validity.detail}):\n"
        f"{failed_sql}\n"
        f"-- Output a single corrected SQLite statement answering the question."
    )


def refine_sample(
    sample: Sample,
    generator,
    debugger,
    corpus: Corpus,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RefineResult:
    """Run the full generate/check/debug loop for the sample's question,
    prompting with its database's schema and checking every attempt by its
    run with ``corpus.outcome`` on that database's base file. The schema is
    read on the calling thread's handle of that file, opened before the
    first model call."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    corpus.handles(sample.db_id).base.open()  # so the schema is read on it
    tables = corpus.schema(sample.db_id).tables

    attempts: list[RefineAttempt] = []
    for iteration in range(max_iters):
        if iteration == 0:
            prompt = render_prompt(tables, sample.question)
            role = GENERATOR
            client = generator
        else:
            prev = attempts[-1]
            prompt = build_debug_prompt(sample.question, tables, prev.sql, prev.validity)
            role = DEBUGGER
            client = debugger
        response = client.generate(
            GenerationRequest(prompt=prompt, temperature=0.0, n=1)
        )
        sql = extract_sql(response.completions[0])
        outcome = corpus.outcome(sample.db_id, sql)
        validity = invalid_check(sql, tables, outcome, corpus.timeout)
        attempts.append(
            RefineAttempt(
                iteration=iteration,
                sql=sql,
                validity=validity,
                outcome=outcome,
                role=role,
            )
        )
        if validity.is_valid:
            break

    last = attempts[-1]
    return RefineResult(
        final_sql=last.sql,
        attempts=tuple(attempts),
        succeeded=last.validity.is_valid,
        iterations_used=last.iteration + 1,
    )


# --- trace serialization ----------------------------------------------------


def result_to_dict(sample_id: str, result: RefineResult) -> dict:
    return {
        "sample_id": sample_id,
        "final_sql": result.final_sql,
        "succeeded": result.succeeded,
        "iterations_used": result.iterations_used,
        "attempts": [
            {
                "iteration": a.iteration,
                "role": a.role,
                "sql": a.sql,
                "validity_status": a.validity.status,
                "validity_detail": a.validity.detail,
                "outcome_kind": a.outcome.kind,
            }
            for a in result.attempts
        ],
    }


def trace_path(trace_dir: str | Path, sample_id: str) -> Path:
    """The trace file of ``sample_id``. Sample ids come from the samples
    file, so one whose file would land outside ``trace_dir`` (``..``
    parts, an absolute path) is rejected with ValueError."""
    root = Path(trace_dir).resolve()
    path = (root / f"{sample_id}.json").resolve()
    if not path.is_relative_to(root):
        raise ValueError(f"sample id {sample_id!r} names a trace file outside {trace_dir}")
    return path


def write_trace(trace_dir: str | Path, sample_id: str, result: RefineResult) -> None:
    path = trace_path(trace_dir, sample_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(sample_id, result), indent=2))
