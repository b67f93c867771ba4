"""sqlforge: execution-grounded text-to-SQL toolkit.

Pipelines: schema introspection and prompt rendering, Cross-DB/Inner-DB
sample augmentation, preference-pair mining, the generate/check/debug
refine loop, and EX/TS evaluation.
"""

from .schema_catalog import (
    ColumnSchema,
    TableSchema,
    ForeignKey,
    DatabaseSchema,
    introspect_database,
    render_prompt,
)
from .sql_analysis import SqlReferences, ValidityReport, extract_references, validate
from .executor import ExecutionOutcome, execute, results_match
from .metrics import (
    Corpus,
    Sample,
    EvalVerdict,
    EvalReport,
    execution_accuracy,
    test_suite_accuracy,
    evaluate_corpus,
)
from .augmentation import AugmentedSample, cross_db_augment, inner_db_augment
from .preference_miner import PreferencePair, mine_pairs
from .refine_agent import RefineAttempt, RefineResult, invalid_check, parse_question

__version__ = "0.1.0"

__all__ = [
    "ColumnSchema",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
    "introspect_database",
    "render_prompt",
    "SqlReferences",
    "ValidityReport",
    "extract_references",
    "validate",
    "ExecutionOutcome",
    "execute",
    "results_match",
    "Corpus",
    "Sample",
    "EvalVerdict",
    "EvalReport",
    "execution_accuracy",
    "test_suite_accuracy",
    "evaluate_corpus",
    "AugmentedSample",
    "cross_db_augment",
    "inner_db_augment",
    "PreferencePair",
    "mine_pairs",
    "RefineAttempt",
    "RefineResult",
    "invalid_check",
    "parse_question",
]
