"""Schema-aware SQL analysis, answered by SQLite's own compiler.

Both questions that need a schema are answered by compiling the statement
with ``EXPLAIN`` on an empty in-memory replica of the tables, a
``SchemaReplica`` that the caller owns, and the pipelines borrow, for as
long as they stay on one schema: ``validate`` classifies it into {Valid,
SyntaxError, WrongTableName, WrongColumnName, MissingQuotation}, and
``references`` lists the tables and columns the compiled statement reads. The
module-level ``validate``, ``validate_against_tables`` and
``extract_references`` do the same on a replica made for one call. A
lexical scan that skips quoted text and comments finds schema identifiers
with special characters left unquoted.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field

from .errors import ParseError
from .executor import READ_ACTIONS, STATEMENT_ERRORS
from .schema_catalog import DatabaseSchema, _quote_ident, fold

VALID = "Valid"
SYNTAX_ERROR = "SyntaxError"
WRONG_TABLE_NAME = "WrongTableName"
WRONG_COLUMN_NAME = "WrongColumnName"
MISSING_QUOTATION = "MissingQuotation"


@dataclass(frozen=True)
class ValidityReport:
    status: str
    detail: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == VALID


@dataclass
class SqlReferences:
    tables: set[str] = field(default_factory=set)
    columns: set[tuple[str, str]] = field(default_factory=set)


#: One string literal, quoted identifier or comment, as SQLite's tokenizer
#: reads it: one left unterminated runs to the end of the text.
_QUOTED_OR_COMMENT = re.compile(
    r"""'(?:[^']|'')*'?|"(?:[^"]|"")*"?|`(?:[^`]|``)*`?|\[[^\]]*\]?|--[^\n]*|/\*.*?(?:\*/|\Z)""",
    re.DOTALL,
)


def mask_quoted(sql: str) -> str:
    """``sql`` with string literals, quoted identifiers and comments blanked
    out, offsets preserved."""
    return _QUOTED_OR_COMMENT.sub(lambda m: " " * len(m.group()), sql)


_EXPLAIN_FIRST = re.compile(r"\s*explain\b", re.IGNORECASE | re.ASCII)


def _explains(sql: str) -> bool:
    """Whether ``sql``'s first token outside comments is ``EXPLAIN``. Quoted
    text is masked too, but no statement can begin with it."""
    return _EXPLAIN_FIRST.match(mask_quoted(sql)) is not None


# --- compiling on a schema replica ------------------------------------------


def _build_replica(tables, extra_column: str | None = None) -> sqlite3.Connection:
    """An empty in-memory copy of ``tables``; ``extra_column`` is added to
    every table that lacks it. The connection may be closed from another
    thread than the one that used it."""
    ddl = []
    for t in tables:
        names = [c.name for c in t.columns]
        if extra_column is not None and not t.has_column(extra_column):
            names.append(extra_column)
        cols = ", ".join(_quote_ident(n) for n in names)
        ddl.append(f"CREATE TABLE {_quote_ident(t.name)}({cols});")
    conn = sqlite3.connect(":memory:", check_same_thread=False)
    conn.executescript("".join(ddl))
    return conn


class SchemaReplica:
    """An empty in-memory copy of ``tables`` that compiles any number of
    statements, one at a time, and answers :meth:`validate` and
    :meth:`references` for each. ``extra_column`` is added to every table
    that lacks it.

    The connection is opened on the first compile and kept until
    :meth:`close`. Every verdict equals that of a fresh replica:

    - Each compile installs a new authorizer. That makes SQLite re-prepare
      a statement it has cached, so a repeated statement's reads are seen.
    - A compile whose authorizer saw any action but a read (``EXPLAIN
      PRAGMA query_only=1`` sets its flag while it compiles) closes the
      connection; the next compile opens a fresh one.
    """

    def __init__(self, tables, extra_column: str | None = None):
        self.tables = tuple(tables)
        self._extra_column = extra_column
        self._conn: sqlite3.Connection | None = None
        #: Table names by root page, for the program's OpenRead opcodes.
        self._pages: dict[int, str] = {}

    def __enter__(self) -> "SchemaReplica":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _compile(self, sql: str) -> tuple[list[tuple], list[tuple[str, str]]]:
        """Compile ``EXPLAIN sql``, or ``sql`` as given when it is already
        an ``EXPLAIN``. Returns the rows of the explained statement and the
        (table, column) of every SQLITE_READ the authorizer saw; the column
        is empty for a table read without a column, as by ``count(*)``.
        Raises ParseError with SQLite's message if the statement does not
        compile."""
        if self._conn is None:
            self._conn = _build_replica(self.tables, self._extra_column)
            self._pages = dict(self._conn.execute("SELECT rootpage, name FROM sqlite_master"))
        reads: list[tuple[str, str]] = []
        changed = False

        def note(action, table, column, _db, _trigger):
            nonlocal changed
            if action == sqlite3.SQLITE_READ:
                reads.append((table, column))
            elif action not in READ_ACTIONS:
                changed = True
            return sqlite3.SQLITE_OK

        try:
            self._conn.set_authorizer(note)
            text = sql if _explains(sql) else f"EXPLAIN {sql}"
            return self._conn.execute(text).fetchall(), reads
        except STATEMENT_ERRORS as exc:
            raise ParseError(str(exc)) from None
        finally:
            if changed:
                self.close()

    def references(self, sql: str) -> SqlReferences:
        """The tables and columns that ``sql`` reads, named as declared, as
        SQLite resolves them when it compiles the statement. Raises
        ParseError with SQLite's message if it does not compile, and for
        an ``EXPLAIN``, whose rows are not a program of ``sql``."""
        if _explains(sql):
            raise ParseError("cannot list the reads of an EXPLAIN statement")
        program, reads = self._compile(sql)
        # The authorizer is not called for USING / NATURAL join columns, nor
        # for a table reached only through them; the program's OpenRead and
        # Column opcodes read those. The program alone misses reads that the
        # optimizer drops, such as ``y`` in ``WHERE 1 OR y = 2``.
        columns = {t.name: t.columns for t in self.tables}
        opened: dict[int, str] = {}
        for _addr, opcode, p1, p2, p3, *_ in program:
            if opcode == "OpenRead" and p3 == 0 and p2 in self._pages:
                opened[p1] = self._pages[p2]
                reads.append((self._pages[p2], ""))
            elif opcode == "Column" and p1 in opened:
                reads.append((opened[p1], columns[opened[p1]][p2].name))
        return SqlReferences(
            tables={table for table, _column in reads},
            columns={read for read in reads if read[1]},
        )

    def validate(self, sql: str) -> ValidityReport:
        """Classify ``sql``. It is Valid exactly when ``EXPLAIN`` compiles
        it, or when it is an ``EXPLAIN`` that compiles as given."""
        if not sql or not sql.strip():
            return ValidityReport(SYNTAX_ERROR, "empty SQL text")
        try:
            self._compile(sql)
            return ValidityReport(VALID)
        except ParseError as exc:
            engine_error = str(exc)

        tables = self.tables
        if engine_error.startswith("no such table:"):
            name = engine_error.split(":", 1)[1].strip()
            quoted = find_unquoted_special(sql, tables)
            if quoted is not None and fold(name) in fold(quoted):
                return ValidityReport(MISSING_QUOTATION, quoted)
            return ValidityReport(WRONG_TABLE_NAME, name)
        if engine_error.startswith(("no such column:", "ambiguous column")):
            name = engine_error.split(":", 1)[1].strip()
            if "." in name:
                name = name.split(".")[-1]
            quoted = find_unquoted_special(sql, tables)
            if quoted is not None:
                return ValidityReport(MISSING_QUOTATION, quoted)
            return ValidityReport(WRONG_COLUMN_NAME, _missing_column_detail(sql, tables, name))
        return ValidityReport(SYNTAX_ERROR, engine_error)


def extract_references(sql: str, tables) -> SqlReferences:
    """:meth:`SchemaReplica.references` on a replica of ``tables`` made for
    this one call."""
    with SchemaReplica(tables) as replica:
        return replica.references(sql)


# --- validity classification ------------------------------------------------

#: Characters allowed in an identifier without quoting.
_PLAIN_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def find_unquoted_special(sql: str, tables) -> str | None:
    """First schema identifier with special characters that appears in the
    SQL text outside quotes and comments, ASCII case-insensitively, or
    None."""
    masked = fold(mask_quoted(sql))
    for t in tables:
        for name in (t.name, *t.column_names()):
            if not _PLAIN_IDENT_RE.match(name) and fold(name) in masked:
                return name
    return None


def _missing_column_detail(sql: str, tables, name: str) -> str:
    """``"<name> not in <table>"`` when, once every table lacking ``name``
    gets it, the statement reads ``name`` from exactly one of those tables;
    otherwise ``name`` alone."""
    lacking = {t.name for t in tables if not t.has_column(name)}
    try:
        with SchemaReplica(tables, extra_column=name) as widened:
            _program, reads = widened._compile(sql)
    except ParseError:
        return name
    owners = {table for table, column in reads if column == name and table in lacking}
    return f"{name} not in {owners.pop()}" if len(owners) == 1 else name


def validate_against_tables(sql: str, tables) -> ValidityReport:
    """:meth:`SchemaReplica.validate` on a replica of ``tables`` made for
    this one call."""
    with SchemaReplica(tables) as replica:
        return replica.validate(sql)


def validate(sql: str, schema: DatabaseSchema) -> ValidityReport:
    """Classify ``sql`` against a full database schema."""
    return validate_against_tables(sql, schema.tables)
