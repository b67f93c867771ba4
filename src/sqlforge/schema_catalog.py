"""SQLite schema introspection and prompt rendering.

A corpus is laid out as ``<root>/database/<db_id>/<db_id>.sqlite``. Each
database file is introspected into an immutable :class:`DatabaseSchema`,
which is what every other pipeline consumes.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EmptySchemaListError, NotADatabaseError

PROMPT_INSTRUCTION = (
    "-- Using valid SQLite, answer the following questions "
    "for the tables provided above."
)


def _has_duplicate_name(names) -> bool:
    """Whether two of ``names`` are equal once ASCII letters are folded to
    lower case, as SQLite compares identifiers: ``"É"`` and ``"é"`` differ."""
    folded = [name.encode().lower() for name in names]
    return len(set(folded)) != len(folded)


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    declared_type: str = ""
    is_primary_key: bool = False
    sample_values: tuple = ()


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        if _has_duplicate_name(c.name for c in self.columns):
            raise ValueError(f"duplicate column names in table {self.name!r}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        name = name.lower()
        return any(c.name.lower() == name for c in self.columns)

    def column(self, name: str) -> ColumnSchema:
        name = name.lower()
        for c in self.columns:
            if c.name.lower() == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class ForeignKey:
    from_table: str
    from_column: str
    to_table: str
    to_column: str


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    file_path: str
    tables: tuple[TableSchema, ...]
    foreign_keys: tuple[ForeignKey, ...] = field(default=())

    def __post_init__(self):
        if _has_duplicate_name(t.name for t in self.tables):
            raise ValueError(f"duplicate table names in database {self.db_id!r}")

    def table(self, name: str) -> TableSchema | None:
        name = name.lower()
        for t in self.tables:
            if t.name.lower() == name:
                return t
        return None

    def key_column_names(self) -> set[str]:
        """Lower-cased names of all columns participating in a PK or FK."""
        keys: set[str] = set()
        for t in self.tables:
            for c in t.columns:
                if c.is_primary_key:
                    keys.add(c.name.lower())
        for fk in self.foreign_keys:
            keys.add(fk.from_column.lower())
            keys.add(fk.to_column.lower())
        return keys


def corpus_db_path(corpus_root: str | Path, db_id: str) -> Path:
    return Path(corpus_root) / "database" / db_id / f"{db_id}.sqlite"


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def introspect_database(
    path: str | Path, db_id: str, sample_value_count: int = 0
) -> DatabaseSchema:
    """Read the catalog of a SQLite file into a DatabaseSchema. Every file
    SQLite opens introspects: foreign keys are reported as declared, even
    when their parent is missing, and one that names no parent column is
    left out when the parent has no primary key.

    ``sample_value_count`` > 0 additionally fetches that many distinct
    non-null values per column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        try:
            names = [
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master "
                    "WHERE type='table' AND name NOT LIKE 'sqlite_%' "
                    "ORDER BY rowid"
                )
            ]
        except sqlite3.DatabaseError as exc:
            raise NotADatabaseError(f"{path}: {exc}") from exc

        tables = []
        fks = []
        for table_name in names:
            cols = []
            for _, col_name, decl_type, _notnull, _default, pk in conn.execute(
                f"PRAGMA table_info({_quote_ident(table_name)})"
            ):
                samples: tuple = ()
                if sample_value_count > 0:
                    cur = conn.execute(
                        f"SELECT DISTINCT {_quote_ident(col_name)} "
                        f"FROM {_quote_ident(table_name)} "
                        f"WHERE {_quote_ident(col_name)} IS NOT NULL "
                        f"LIMIT {int(sample_value_count)}"
                    )
                    samples = tuple(row[0] for row in cur)
                cols.append(
                    ColumnSchema(
                        name=col_name,
                        declared_type=decl_type or "",
                        is_primary_key=bool(pk),
                        sample_values=samples,
                    )
                )
            tables.append(TableSchema(name=table_name, columns=tuple(cols)))
            for row in conn.execute(
                f"PRAGMA foreign_key_list({_quote_ident(table_name)})"
            ):
                _id, seq, ref_table, from_col, to_col, *_ = row
                if to_col is None:
                    # Implicit reference to the parent's primary key, whose
                    # columns pair with the key's columns in order.
                    to_col = _primary_key_column(conn, ref_table, seq)
                    if to_col is None:
                        continue
                fks.append(
                    ForeignKey(
                        from_table=table_name,
                        from_column=from_col,
                        to_table=ref_table,
                        to_column=to_col,
                    )
                )
    finally:
        conn.close()
    return DatabaseSchema(
        db_id=db_id,
        file_path=str(path),
        tables=tuple(tables),
        foreign_keys=tuple(fks),
    )


def _primary_key_column(conn: sqlite3.Connection, table_name: str, seq: int) -> str | None:
    """The ``seq``-th (from 0) primary-key column of ``table_name``, or None
    when it has no such column or no such table."""
    for _, col_name, _, _, _, pk in conn.execute(
        f"PRAGMA table_info({_quote_ident(table_name)})"
    ):
        if pk == seq + 1:
            return col_name
    return None


def render_prompt(
    schema_list: list[TableSchema] | tuple[TableSchema, ...],
    question: str,
) -> str:
    """Render the generation prompt: one CREATE TABLE line per table (column
    names only), the fixed instruction line, then the question as a comment.
    """
    if not schema_list:
        raise EmptySchemaListError("schema_list must contain at least one table")
    if not question:
        raise ValueError("question must be non-empty")
    lines = [f"CREATE TABLE {t.name}({', '.join(t.column_names())});" for t in schema_list]
    lines.append(PROMPT_INSTRUCTION)
    lines.append(f"-- {question}")
    return "\n".join(lines)


# --- JSON caching shape -----------------------------------------------------


def schema_to_dict(schema: DatabaseSchema) -> dict:
    return {
        "db_id": schema.db_id,
        "file_path": schema.file_path,
        "tables": [
            {
                "name": t.name,
                "columns": [
                    {
                        "name": c.name,
                        "declared_type": c.declared_type,
                        "is_primary_key": c.is_primary_key,
                        "sample_values": list(c.sample_values),
                    }
                    for c in t.columns
                ],
            }
            for t in schema.tables
        ],
        "foreign_keys": [
            {
                "from_table": fk.from_table,
                "from_column": fk.from_column,
                "to_table": fk.to_table,
                "to_column": fk.to_column,
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_to_json(schema: DatabaseSchema) -> str:
    return json.dumps(schema_to_dict(schema), indent=2)
