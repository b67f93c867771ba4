"""Preference-pair mining via self-consistency execution.

For each sample we draw N candidates at temperature 0.5, execute each
distinct one (by whitespace-normalised text) once, and reject any whose
execution result disagrees with the gold query's result. The gold SQL is
always the chosen side; one pair is emitted per distinct rejected SQL.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import GoldExecutionFailed
from .executor import DEFAULT_TIMEOUT_SECS, EXEC_ERROR, TIMEOUT, execute, results_match
from .metrics import Corpus, Sample, order_sensitive
from .model_client import GenerationRequest, extract_sql
from .schema_catalog import render_prompt
from .sql_analysis import extract_references  # noqa: F401 -- bench/tracer.py wraps this name

DEFAULT_N_CANDIDATES = 8
DEFAULT_TEMPERATURE = 0.5

RESULT_MISMATCH = "result_mismatch"
EXEC_ERROR_REASON = "exec_error"
TIMEOUT_REASON = "timeout"


@dataclass(frozen=True)
class PreferencePair:
    prompt: str
    chosen: str
    rejected: str
    rejected_reason: str
    sample_id: str


def normalize_whitespace(sql: str) -> str:
    return re.sub(r"\s+", " ", sql).strip()


def mine_pairs(
    sample: Sample,
    client,
    corpus: Corpus,
    n: int = DEFAULT_N_CANDIDATES,
    temperature: float = DEFAULT_TEMPERATURE,
    timeout: float = DEFAULT_TIMEOUT_SECS,
) -> list[PreferencePair]:
    """Generate, execute on the calling thread's handle of the sample's
    base file in ``corpus``, and partition candidates for one sample. The
    prompt shows the database's schema, read as that handle opened."""
    db = corpus.handles(sample.db_id)
    gold_outcome = execute(db.base, sample.gold_sql, timeout)
    if not gold_outcome.is_rows:
        raise GoldExecutionFailed(
            f"{sample.sample_id}: gold execution was {gold_outcome.kind}"
        )
    ordered = order_sensitive(sample.gold_sql)

    prompt = render_prompt(corpus.schema(sample.db_id).tables, sample.question)
    response = client.generate(
        GenerationRequest(prompt=prompt, temperature=temperature, n=n)
    )

    pairs: list[PreferencePair] = []
    seen: set[str] = set()
    gold_norm = normalize_whitespace(sample.gold_sql)
    for completion in response.completions:
        candidate = extract_sql(completion)
        norm = normalize_whitespace(candidate)
        if norm == gold_norm or norm in seen:
            continue
        seen.add(norm)  # one run and one verdict, even if nondeterministic
        outcome = execute(db.base, candidate, timeout)
        if results_match(outcome, gold_outcome, ordered):
            continue  # execution-equivalent candidates are correct, not rejected
        reason = {EXEC_ERROR: EXEC_ERROR_REASON, TIMEOUT: TIMEOUT_REASON}.get(
            outcome.kind, RESULT_MISMATCH
        )
        pairs.append(
            PreferencePair(
                prompt=prompt,
                chosen=sample.gold_sql,
                rejected=candidate,
                rejected_reason=reason,
                sample_id=sample.sample_id,
            )
        )
    return pairs


def write_pairs(path: str | Path, pairs: list[PreferencePair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(asdict(pair), sort_keys=True) + "\n")
