"""Generate / invalid-check / debug loop.

A question is first answered by the generator model. The resulting SQL
goes through the invalid check (static schema validation, then a real
execution); failures are routed to the debugger model together with the
failed SQL and its error, and the corrected statement loops back into the
check until it passes or the iteration budget runs out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .executor import DEFAULT_TIMEOUT_SECS, TIMEOUT, ExecutionOutcome, ReadOnlyHandle, execute
from .metrics import Sample
from .model_client import GenerationRequest, extract_sql
from .schema_catalog import render_prompt
from .sql_analysis import SYNTAX_ERROR, SchemaReplica, ValidityReport
from .sql_analysis import validate_against_tables  # noqa: F401 -- bench/tracer.py wraps this name

GENERATOR = "generator"
DEBUGGER = "debugger"

DEFAULT_MAX_ITERS = 3


@dataclass(frozen=True)
class RefineAttempt:
    iteration: int
    sql: str
    validity: ValidityReport
    outcome: ExecutionOutcome | None
    role: str


@dataclass(frozen=True)
class RefineResult:
    final_sql: str
    attempts: tuple[RefineAttempt, ...]
    succeeded: bool
    iterations_used: int


def invalid_check(
    sql: str,
    replica: SchemaReplica,
    db: str | Path | ReadOnlyHandle,
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> tuple[ValidityReport, ExecutionOutcome | None]:
    """Static validation first, on ``replica``, which the caller keeps;
    statically valid SQL is then executed on ``db``, a path or an open
    handle, and downgraded to invalid on an engine error or timeout. An
    empty result set is valid; a Valid report always comes with a rows
    outcome."""
    report = replica.validate(sql)
    if not report.is_valid:
        return report, None
    outcome = execute(db, sql, timeout)
    if outcome.is_rows:
        return report, outcome
    if outcome.kind == TIMEOUT:
        detail = f"execution exceeded {timeout}s timeout"
    else:
        detail = outcome.error_message or "execution error"
    # Runtime failures reuse the SyntaxError status, carrying the engine
    # message as detail.
    return ValidityReport(SYNTAX_ERROR, detail), outcome


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


def parse_question(
    question: str,
    replica: SchemaReplica,
    generator,
    debugger,
    db: str | Path | ReadOnlyHandle,
    max_iters: int = DEFAULT_MAX_ITERS,
    timeout: float = DEFAULT_TIMEOUT_SECS,
    temperature: float = 0.0,
) -> RefineResult:
    """Run the full generate/check/debug loop for one question, prompting
    with ``replica.tables``, validating every attempt on ``replica`` and
    executing on ``db``, a path or an open handle. The caller keeps both."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    tables = replica.tables

    attempts: list[RefineAttempt] = []
    for iteration in range(max_iters):
        if iteration == 0:
            prompt = render_prompt(tables, question)
            role = GENERATOR
            client = generator
        else:
            prev = attempts[-1]
            prompt = build_debug_prompt(question, tables, prev.sql, prev.validity)
            role = DEBUGGER
            client = debugger
        response = client.generate(
            GenerationRequest(prompt=prompt, temperature=temperature, n=1)
        )
        sql = extract_sql(response.completions[0])
        validity, outcome = invalid_check(sql, replica, db, timeout)
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
                "outcome_kind": a.outcome.kind if a.outcome is not None else None,
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


def refine_sample(
    sample: Sample,
    generator,
    debugger,
    replica: SchemaReplica,
    db: str | Path | ReadOnlyHandle,
    max_iters: int = DEFAULT_MAX_ITERS,
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> RefineResult:
    """:func:`parse_question` on the sample's question, with ``replica``
    of the sample's database."""
    return parse_question(
        sample.question,
        replica,
        generator,
        debugger,
        db,
        max_iters=max_iters,
        timeout=timeout,
    )
