"""Schema-aware SQL analysis, answered by SQLite itself.

A statement is judged by how the read-only runner's SQLite treats it:
:func:`classify_outcome` classifies the outcome of its one run on the
database file into {Valid, SyntaxError, WrongTableName, WrongColumnName,
MissingQuotation}. A ``SchemaReplica``, an empty in-memory replica of the
tables that the caller owns, serves what is not a file by compiling the
statement with ``EXPLAIN``: its ``references`` lists the tables and columns
the compiled statement reads, and its ``validate`` classifies what does not
compile, with the replica's known gaps. The module-level ``validate``,
``validate_against_tables`` and ``extract_references`` do the same on a
replica made for one call. A lexical scan that skips quoted text and
comments finds schema identifiers with special characters left unquoted.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field

from .errors import ParseError
from .executor import EXEC_ERROR, STATEMENT_ERRORS, ExecutionOutcome, read_only_authorizer
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
    - The authorizer denies what the runner's :func:`read_only_authorizer`
      denies, so no compile changes the connection.
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

        def note(action, table, column, _db, _trigger):
            if action == sqlite3.SQLITE_READ:
                reads.append((table, column))
            return read_only_authorizer(action)

        try:
            self._conn.set_authorizer(note)
            text = sql if _explains(sql) else f"EXPLAIN {sql}"
            return self._conn.execute(text).fetchall(), reads
        except STATEMENT_ERRORS as exc:
            raise ParseError(str(exc)) from None

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
        """Classify ``sql``. It is Valid exactly when the read-only runner
        would compile ``EXPLAIN sql``, or ``sql`` as given if an ``EXPLAIN``."""
        try:
            self._compile(sql)
            return ValidityReport(VALID)
        except ParseError as exc:
            report = _classify(sql, lambda: self.tables, str(exc))
            return name_column_owner(sql, self.tables, report)


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


def _classify(sql: str, tables, engine_error: str) -> ValidityReport:
    """The class of ``sql``, which SQLite refused, as it compiled or ran it
    over the tables ``tables()`` returns, with the message ``engine_error``;
    only a missing or ambiguous name calls ``tables``. A WrongColumnName's
    detail is the column's bare name; :func:`name_column_owner` adds its
    table."""
    if engine_error.startswith("no such table:"):
        name = engine_error.split(":", 1)[1].strip()
        quoted = find_unquoted_special(sql, tables())
        if quoted is not None and fold(name) in fold(quoted):
            return ValidityReport(MISSING_QUOTATION, quoted)
        return ValidityReport(WRONG_TABLE_NAME, name)
    if engine_error.startswith(("no such column:", "ambiguous column")):
        name = engine_error.split(":", 1)[1].strip()
        if "." in name:
            name = name.split(".")[-1]
        quoted = find_unquoted_special(sql, tables())
        if quoted is not None:
            return ValidityReport(MISSING_QUOTATION, quoted)
        return ValidityReport(WRONG_COLUMN_NAME, name)
    return ValidityReport(SYNTAX_ERROR, engine_error)


def name_column_owner(sql: str, tables, report: ValidityReport) -> ValidityReport:
    """``report``, with a WrongColumnName's detail ``"<name> not in <table>"``
    when, once every table of ``tables`` lacking ``name`` gets it on a
    replica made for this one call, the statement reads ``name`` from
    exactly one of those tables. Any other report is returned as it is."""
    if report.status != WRONG_COLUMN_NAME:
        return report
    name = report.detail
    lacking = {t.name for t in tables if not t.has_column(name)}
    try:
        with SchemaReplica(tables, extra_column=name) as widened:
            _program, reads = widened._compile(sql)
    except ParseError:
        return report
    owners = {table for table, column in reads if column == name and table in lacking}
    if len(owners) != 1:
        return report
    return ValidityReport(WRONG_COLUMN_NAME, f"{name} not in {owners.pop()}")


def classify_outcome(sql: str, tables, outcome: ExecutionOutcome) -> ValidityReport:
    """Classify ``sql`` by ``outcome``, its one run by the read-only runner
    on the file whose tables ``tables()`` returns. A rows or timeout
    outcome is Valid; an error outcome's message picks the class, and only
    a name error calls ``tables``, for MissingQuotation. A WrongColumnName's
    detail is the bare name (see :func:`name_column_owner`)."""
    if outcome.kind != EXEC_ERROR:
        return ValidityReport(VALID)
    return _classify(sql, tables, outcome.error_message)


def validate_against_tables(sql: str, tables) -> ValidityReport:
    """:meth:`SchemaReplica.validate` on a replica of ``tables`` made for
    this one call."""
    with SchemaReplica(tables) as replica:
        return replica.validate(sql)


def validate(sql: str, schema: DatabaseSchema) -> ValidityReport:
    """Classify ``sql`` against a full database schema."""
    return validate_against_tables(sql, schema.tables)
