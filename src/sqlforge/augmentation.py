"""Cross-DB and Inner-DB training-sample augmentation.

Cross-DB inserts 1-3 distractor tables drawn from *other* databases that
share a PK/FK column name with the sample's database, teaching schema
selection; no two tables of a prompt share a name (ASCII case-insensitively).
Inner-DB randomly drops unused tables/columns from the sample's own
database under a 6-table / 10-columns-per-table cap, teaching column
selection. Both are deterministic given a seed and never remove anything
the gold SQL references.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import GoldReferencesUnknownColumn, ParseError
from .metrics import Sample
from .schema_catalog import DatabaseSchema, TableSchema, render_prompt
from .sql_analysis import SchemaReplica
from .sql_analysis import extract_references  # noqa: F401 -- bench/tracer.py wraps this name

MAX_TABLES = 6
MAX_COLUMNS_PER_TABLE = 10
MAX_CROSS_DB_INSERTS = 3
DEFAULT_P_TABLE = 0.5
DEFAULT_P_COL = 0.7

CROSS_DB = "cross_db"
INNER_DB = "inner_db"
UNCHANGED = "unchanged"


@dataclass(frozen=True)
class Provenance:
    kind: str  # cross_db | inner_db | unchanged
    inserted_tables: tuple[str, ...] = ()
    source_db_ids: tuple[str, ...] = ()
    removed_tables: tuple[str, ...] = ()
    removed_columns: tuple[str, ...] = ()  # "table.column"
    reason: str = ""


@dataclass(frozen=True)
class AugmentedSample:
    base: Sample
    schema_tables: tuple[TableSchema, ...]
    provenance: Provenance
    seed: int


def derive_seed(global_seed: int, sample_id: str) -> int:
    digest = hashlib.sha256(f"{global_seed}:{sample_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cross_db_candidates(
    db_id: str, schemas: list[DatabaseSchema]
) -> tuple[tuple[tuple[str, TableSchema], ...], ...]:
    """Tables of other databases that share a PK/FK column name with
    ``db_id`` and whose name is not one of its own tables', both compared
    ASCII case-insensitively, as (db_id, table), grouped by folded table
    name: the groups in order of first appearance, each group in ``schemas``
    order. ``schemas`` must hold ``db_id``'s own schema."""
    own = next((s for s in schemas if s.db_id == db_id), None)
    if own is None:
        raise ValueError(f"corpus does not contain schema for db_id {db_id!r}")
    keys = own.key_column_names()
    by_name: dict[str, list[tuple[str, TableSchema]]] = {}
    for schema in schemas:
        if schema.db_id == db_id:
            continue
        for name, table in schema.by_folded_name.items():
            if name not in own.by_folded_name and not keys.isdisjoint(table.by_folded_name):
                by_name.setdefault(name, []).append((schema.db_id, table))
    return tuple(tuple(group) for group in by_name.values())


def cross_db_augment(
    sample: Sample, candidates: tuple[tuple[tuple[str, TableSchema], ...], ...], seed: int
) -> AugmentedSample:
    """Insert 1-3 tables from other databases sharing a PK/FK column name,
    no two of one name: a name is drawn first, then one of its tables.
    ``candidates`` are :func:`cross_db_candidates` of the sample's db_id."""
    if not candidates:
        return AugmentedSample(
            base=sample,
            schema_tables=tuple(sample.schema_tables),
            provenance=Provenance(kind=UNCHANGED, reason="empty candidate set"),
            seed=seed,
        )

    rng = random.Random(seed)
    n = min(rng.randint(1, MAX_CROSS_DB_INSERTS), len(candidates))
    picked = [rng.choice(group) for group in rng.sample(candidates, n)]
    tables = list(sample.schema_tables)
    for db_id, table in picked:
        tables.insert(rng.randint(0, len(tables)), table)
    return AugmentedSample(
        base=sample,
        schema_tables=tuple(tables),
        provenance=Provenance(
            kind=CROSS_DB,
            inserted_tables=tuple(t.name for _db, t in picked),
            source_db_ids=tuple(db for db, _t in picked),
        ),
        seed=seed,
    )


def inner_db_augment(
    sample: Sample,
    replica: SchemaReplica,
    seed: int,
    p_table: float = DEFAULT_P_TABLE,
    p_col: float = DEFAULT_P_COL,
) -> AugmentedSample:
    """Randomly drop unused tables/columns from the sample's own schema,
    ``replica.tables``, enforcing the 6-table / 10-column caps. Used tables
    and columns are never removed; when the gold SQL alone exceeds a cap,
    only the referenced set is kept in full. ``replica``, which the caller
    keeps across samples, compiles the gold SQL."""
    try:
        used = replica.references(sample.gold_sql)
    except ParseError as exc:
        raise GoldReferencesUnknownColumn(f"{sample.sample_id}: {exc}") from None
    used_tables = used.tables
    used_columns: dict[str, set[str]] = {t: set() for t in used_tables}
    for table, col in used.columns:
        used_columns[table].add(col)
    tables = replica.tables
    rng = random.Random(seed)

    kept_tables: list[TableSchema] = []
    removed_tables: list[str] = []
    for table in tables:
        if table.name in used_tables:
            kept_tables.append(table)
        elif rng.random() < p_table:
            kept_tables.append(table)
        else:
            removed_tables.append(table.name)

    if not kept_tables and tables:
        # Prompt rendering needs at least one table.
        kept_tables.append(tables[0])
        removed_tables.remove(tables[0].name)

    # Table cap: drop random unused tables beyond the limit.
    if len(kept_tables) > MAX_TABLES:
        unused = [t for t in kept_tables if t.name not in used_tables]
        excess = len(kept_tables) - MAX_TABLES
        to_drop = {t.name for t in rng.sample(unused, min(excess, len(unused)))}
        removed_tables.extend(sorted(to_drop))
        kept_tables = [t for t in kept_tables if t.name not in to_drop]
    if len(used_tables) > MAX_TABLES:
        # Gold alone exceeds the cap: keep exactly the referenced tables.
        removed_tables = [t.name for t in tables if t.name not in used_tables]
        kept_tables = [t for t in tables if t.name in used_tables]

    removed_columns: list[str] = []
    final_tables: list[TableSchema] = []
    for table in kept_tables:
        used_cols = used_columns.get(table.name, set())
        kept_cols = []
        for col in table.columns:
            if col.name in used_cols:
                kept_cols.append(col)
            elif rng.random() < p_col:
                kept_cols.append(col)
            else:
                removed_columns.append(f"{table.name}.{col.name}")
        if len(kept_cols) > MAX_COLUMNS_PER_TABLE and len(used_cols) <= MAX_COLUMNS_PER_TABLE:
            unused_cols = [c for c in kept_cols if c.name not in used_cols]
            excess = len(kept_cols) - MAX_COLUMNS_PER_TABLE
            to_drop = {c.name for c in rng.sample(unused_cols, min(excess, len(unused_cols)))}
            removed_columns.extend(f"{table.name}.{name}" for name in sorted(to_drop))
            kept_cols = [c for c in kept_cols if c.name not in to_drop]
        if not kept_cols:
            # A table must render with at least one column; keep the first.
            kept_cols = [table.columns[0]]
            removed_columns.remove(f"{table.name}.{table.columns[0].name}")
        final_tables.append(TableSchema(name=table.name, columns=tuple(kept_cols)))

    return AugmentedSample(
        base=sample,
        schema_tables=tuple(final_tables),
        provenance=Provenance(
            kind=INNER_DB,
            removed_tables=tuple(removed_tables),
            removed_columns=tuple(removed_columns),
        ),
        seed=seed,
    )


# --- SFT export -------------------------------------------------------------


def augmented_to_record(aug: AugmentedSample) -> dict:
    prov: dict = {"kind": aug.provenance.kind}
    if aug.provenance.kind == CROSS_DB:
        prov["inserted_tables"] = list(aug.provenance.inserted_tables)
        prov["source_db_ids"] = list(aug.provenance.source_db_ids)
    elif aug.provenance.kind == INNER_DB:
        prov["removed_tables"] = list(aug.provenance.removed_tables)
        prov["removed_columns"] = list(aug.provenance.removed_columns)
    else:
        prov["reason"] = aug.provenance.reason
    return {
        "sample_id": aug.base.sample_id,
        "prompt": render_prompt(aug.schema_tables, aug.base.question),
        "completion": aug.base.gold_sql,
        "provenance": prov,
        "seed": aug.seed,
    }


def write_augmented(path: str | Path, augmented: list[AugmentedSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for aug in augmented:
            fh.write(json.dumps(augmented_to_record(aug), sort_keys=True) + "\n")
