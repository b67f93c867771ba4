"""SQLite schema introspection and prompt rendering.

A corpus is laid out as ``<root>/database/<db_id>/<db_id>.sqlite``. Each
database file is introspected into an immutable :class:`DatabaseSchema`,
which is what every other pipeline consumes.
"""

from __future__ import annotations

import re
import sqlite3
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptySchemaListError, NotADatabaseError
from .executor import connect_read_only

PROMPT_INSTRUCTION = (
    "-- Using valid SQLite, answer the following questions "
    "for the tables provided above."
)


#: ASCII upper-case letters to lower case, and nothing else.
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def fold(name: str) -> str:
    """``name`` with ASCII letters folded to lower case, as SQLite compares
    identifiers: ``"É"`` and ``"é"`` stay apart. Any ``str`` folds, lone
    surrogates included."""
    return name.translate(_ASCII_LOWER)


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
        by_name = {fold(c.name): c for c in self.columns}
        if len(by_name) != len(self.columns):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        # The columns by fold() of their names: an attribute, not a field,
        # so not part of the record dataclasses.asdict writes.
        object.__setattr__(self, "by_folded_name", by_name)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return fold(name) in self.by_folded_name


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
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self):
        by_name = {fold(t.name): t for t in self.tables}
        if len(by_name) != len(self.tables):
            raise ValueError(f"duplicate table names in database {self.db_id!r}")
        # The tables by fold() of their names; not a field, as above.
        object.__setattr__(self, "by_folded_name", by_name)

    def key_column_names(self) -> set[str]:
        """Folded names of all columns participating in a PK or FK."""
        keys = {k for t in self.tables for k, c in t.by_folded_name.items() if c.is_primary_key}
        for fk in self.foreign_keys:
            keys.add(fold(fk.from_column))
            keys.add(fold(fk.to_column))
        return keys


def corpus_db_path(corpus_root: str | Path, db_id: str) -> Path:
    return Path(corpus_root) / "database" / db_id / f"{db_id}.sqlite"


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def introspect_database(
    path: str | Path, db_id: str, sample_value_count: int = 0
) -> DatabaseSchema:
    """Read the tables and views of a SQLite file, each with every column
    ``PRAGMA table_xinfo`` lists, into a DatabaseSchema. Every file SQLite
    opens introspects: foreign keys are reported as declared, even when
    their parent is missing, and one that names no parent column is left
    out when the parent has no primary key. SQLite's own ``sqlite_`` tables
    are left out, and so is an object no statement can read: a view over a
    dropped table, a circular view, a virtual table whose module is missing.

    ``sample_value_count`` > 0 additionally fetches that many distinct
    values per column, leaving out NULL and BLOB values (JSON has no form
    for bytes); a column whose values fail to compute, such as a view's
    whose expression overflows, gets none. A negative count is a ValueError.
    """
    if sample_value_count < 0:
        raise ValueError(f"sample_value_count must not be negative, not {sample_value_count}")
    with closing(connect_read_only(Path(path))) as conn:
        return read_schema(conn, path, db_id, sample_value_count)


def read_schema(
    conn: sqlite3.Connection, path: str | Path, db_id: str, sample_value_count: int = 0
) -> DatabaseSchema:
    """:func:`introspect_database` on ``conn``, an open connection to the
    file at ``path`` with no authorizer, which the caller keeps."""
    try:
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type IN ('table', 'view') AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\' "
                "ORDER BY rowid"
            )
        ]
    except sqlite3.DatabaseError as exc:
        raise NotADatabaseError(f"{path}: {exc}") from exc

    tables = []
    # Primary-key columns by place in the key (from 1), by folded table name.
    keys: dict[str, dict[int, str]] = {}
    declared = []  # (table name, row of PRAGMA foreign_key_list)
    for table_name in names:
        try:
            info = conn.execute(f"PRAGMA table_xinfo({_quote_ident(table_name)})").fetchall()
        except sqlite3.OperationalError:
            continue
        cols = []
        for _, col_name, decl_type, _notnull, _default, pk, _hidden in info:
            samples: tuple = ()
            if sample_value_count > 0:
                try:
                    cur = conn.execute(
                        f"SELECT DISTINCT {_quote_ident(col_name)} "
                        f"FROM {_quote_ident(table_name)} "
                        f"WHERE {_quote_ident(col_name)} IS NOT NULL "
                        f"AND typeof({_quote_ident(col_name)}) != 'blob' "
                        f"AND (typeof({_quote_ident(col_name)}) != 'real' "
                        f"OR abs({_quote_ident(col_name)}) < 9e999) "
                        f"LIMIT {int(sample_value_count)}"
                    )
                    samples = tuple(row[0] for row in cur)
                except sqlite3.OperationalError:
                    pass
            cols.append(
                ColumnSchema(
                    name=col_name,
                    declared_type=decl_type or "",
                    is_primary_key=bool(pk),
                    sample_values=samples,
                )
            )
        tables.append(TableSchema(name=table_name, columns=tuple(cols)))
        keys[fold(table_name)] = {row[5]: row[1] for row in info if row[5]}
        declared.extend(
            (table_name, row)
            for row in conn.execute(f"PRAGMA foreign_key_list({_quote_ident(table_name)})")
        )
    fks = []
    for table_name, (_id, seq, ref_table, from_col, to_col, *_) in declared:
        if to_col is None:
            # Implicit reference to the parent's primary key, whose columns
            # pair with the key's columns in order.
            to_col = keys.get(fold(ref_table), {}).get(seq + 1)
            if to_col is None:
                continue
        fks.append(ForeignKey(table_name, from_col, ref_table, to_col))
    return DatabaseSchema(
        db_id=db_id,
        file_path=str(path),
        tables=tuple(tables),
        foreign_keys=tuple(fks),
    )


#: What would end a name early in a prompt line, as SQLite's tokenizer reads
#: it: a quote of any kind, a bracket, a parenthesis, a comma, a semicolon,
#: a line break or the start of a comment.
_ENDS_EARLY = re.compile(r"[\"'`\[(),;\n\r]|--|/\*")


def _prompt_names(names: list[str]) -> list[str]:
    """``names`` as the prompt writes them: bare, except that one that is
    empty or would end early is double-quoted."""
    return [n if n and not _ENDS_EARLY.search(n) else _quote_ident(n) for n in names]


def render_prompt(
    schema_list: list[TableSchema] | tuple[TableSchema, ...],
    question: str,
) -> str:
    """Render the generation prompt: one CREATE TABLE line per table (column
    names only), the fixed instruction line, then the question as a comment.
    Names are written bare, as the paper's prompt writes them, unless they
    would end early.
    """
    if not schema_list:
        raise EmptySchemaListError("schema_list must contain at least one table")
    if not question:
        raise ValueError("question must be non-empty")
    lines = []
    for t in schema_list:
        name, *columns = _prompt_names([t.name, *t.column_names()])
        lines.append(f"CREATE TABLE {name}({', '.join(columns)});")
    lines.append(PROMPT_INSTRUCTION)
    lines.append(f"-- {question}")
    return "\n".join(lines)
