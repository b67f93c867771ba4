import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlforge.errors import ParseError
from sqlforge.schema_catalog import ColumnSchema, TableSchema, _quote_ident, introspect_database
from sqlforge.sql_analysis import (
    MISSING_QUOTATION,
    SYNTAX_ERROR,
    VALID,
    WRONG_COLUMN_NAME,
    WRONG_TABLE_NAME,
    SchemaReplica,
    extract_references,
    validate,
    validate_against_tables,
)

from corpus_builder import build_sqlite_only_database


def compiles_on_replica(sql, tables):
    """The oracle: ``EXPLAIN sql`` compiles on an empty copy of ``tables``."""
    conn = sqlite3.connect(":memory:")
    try:
        for t in tables:
            cols = ", ".join(_quote_ident(c.name) for c in t.columns)
            conn.execute(f"CREATE TABLE {_quote_ident(t.name)}({cols})")
        conn.execute(f"EXPLAIN {sql}")
        return True
    except sqlite3.Error:
        return False
    finally:
        conn.close()


#: Statements that are already an EXPLAIN, over the shop database.
EXPLAINED = [
    "EXPLAIN SELECT 1",
    "EXPLAIN QUERY PLAN SELECT name FROM customers",
    "/* c */ explain select name from customers",
]


class TestExtractReferences:
    def test_join_with_qualified_columns(self, schemas):
        refs = extract_references(
            "SELECT min(player.hs), tryout.ppos FROM tryout JOIN player "
            "ON tryout.pid = player.pid GROUP BY tryout.ppos",
            schemas["soccer_tryout"].tables,
        )
        assert refs.tables == {"tryout", "player"}
        assert refs.columns == {
            ("player", "hs"),
            ("tryout", "ppos"),
            ("tryout", "pid"),
            ("player", "pid"),
        }

    def test_no_references(self, schemas):
        refs = extract_references("SELECT 1", schemas["concert_singer"].tables)
        assert refs.tables == set()
        assert refs.columns == set()

    def test_count_star(self, schemas):
        refs = extract_references("SELECT count(*) FROM singer", schemas["concert_singer"].tables)
        assert refs.tables == {"singer"}
        assert refs.columns == set()

    def test_star_reads_every_column(self, schemas):
        tables = schemas["soccer_tryout"].tables
        every = {("college", "cname"), ("college", "enr"), ("college", "state")}
        assert extract_references("SELECT * FROM college", tables).columns == every
        assert extract_references("SELECT c.* FROM college AS c", tables).columns == every

    def test_bare_columns_attribute_to_single_table(self, schemas):
        refs = extract_references(
            "SELECT name, age FROM singer WHERE age > 20", schemas["concert_singer"].tables
        )
        assert refs.columns == {("singer", "Name"), ("singer", "Age")}

    def test_bare_column_in_join_resolves_to_its_owner(self, schemas):
        # Name is in singer only; Singer_ID is in both tables, so it must be
        # qualified and each side is read from its own table.
        refs = extract_references(
            "SELECT name FROM singer JOIN singer_in_concert "
            "ON singer.singer_id = singer_in_concert.singer_id",
            schemas["concert_singer"].tables,
        )
        assert refs.columns == {
            ("singer", "Name"),
            ("singer", "Singer_ID"),
            ("singer_in_concert", "Singer_ID"),
        }

    def test_alias_resolution(self, schemas):
        refs = extract_references(
            "SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 "
            "ON T1.singer_id = T2.singer_id",
            schemas["concert_singer"].tables,
        )
        assert refs.tables == {"singer", "singer_in_concert"}
        assert refs.columns == {
            ("singer", "Name"),
            ("singer", "Singer_ID"),
            ("singer_in_concert", "Singer_ID"),
        }

    def test_implicit_alias_without_as(self, schemas):
        refs = extract_references("SELECT s.name FROM singer s", schemas["concert_singer"].tables)
        assert refs.tables == {"singer"}
        assert refs.columns == {("singer", "Name")}

    def test_subquery_tables_collected(self, schemas):
        refs = extract_references(
            "SELECT name FROM singer WHERE singer_id IN "
            "(SELECT singer_id FROM singer_in_concert)",
            schemas["concert_singer"].tables,
        )
        assert refs.tables == {"singer", "singer_in_concert"}
        assert refs.columns == {
            ("singer", "Name"),
            ("singer", "Singer_ID"),
            ("singer_in_concert", "Singer_ID"),
        }

    def test_correlated_subquery_resolves_innermost_first(self, schemas):
        refs = extract_references(
            "SELECT Name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert "
            "WHERE singer_in_concert.Singer_ID = Singer_ID AND Age > 30)",
            schemas["concert_singer"].tables,
        )
        assert refs.tables == {"singer", "singer_in_concert"}
        assert refs.columns == {
            ("singer", "Name"),
            ("singer", "Age"),
            ("singer_in_concert", "Singer_ID"),
        }

    def test_cte_name_is_not_a_table(self, schemas):
        refs = extract_references(
            "WITH old AS (SELECT Name, Age FROM singer WHERE Age > 30) "
            "SELECT Name FROM old",
            schemas["concert_singer"].tables,
        )
        assert refs.tables == {"singer"}
        assert refs.columns == {("singer", "Name"), ("singer", "Age")}

    def test_using_join_columns_read_from_both_tables(self, schemas):
        tables = schemas["concert_singer"].tables
        refs = extract_references(
            "SELECT concert_Name, Name FROM concert JOIN stadium USING (Stadium_ID)", tables
        )
        assert refs.columns == {
            ("concert", "concert_Name"),
            ("concert", "Stadium_ID"),
            ("stadium", "Name"),
            ("stadium", "Stadium_ID"),
        }
        # A table reached only through USING is still read.
        refs = extract_references(
            "SELECT concert_Name FROM concert JOIN stadium USING (Stadium_ID)", tables
        )
        assert refs.tables == {"concert", "stadium"}
        assert ("stadium", "Stadium_ID") in refs.columns

    def test_natural_join_columns_read_from_both_tables(self, schemas):
        refs = extract_references(
            "SELECT Name FROM singer NATURAL JOIN singer_in_concert",
            schemas["concert_singer"].tables,
        )
        assert refs.tables == {"singer", "singer_in_concert"}
        assert refs.columns == {
            ("singer", "Name"),
            ("singer", "Singer_ID"),
            ("singer_in_concert", "Singer_ID"),
        }

    def test_reads_the_optimizer_drops_are_kept(self, schemas):
        tables = schemas["soccer_tryout"].tables
        refs = extract_references("SELECT pname FROM player WHERE 1 OR hs = 2", tables)
        assert refs.columns == {("player", "pname"), ("player", "hs")}
        refs = extract_references(
            "SELECT pname FROM player WHERE EXISTS (SELECT state FROM college)", tables
        )
        assert refs.columns == {("player", "pname"), ("college", "state")}

    def test_names_come_back_as_declared(self, tmp_path):
        # SQLite folds ASCII letters only: "É" and "é" are two tables.
        path = build_sqlite_only_database(tmp_path / "pair.sqlite", "accented_table_pair")
        tables = introspect_database(path, "pair").tables
        assert extract_references('SELECT b FROM "é"', tables).tables == {"é"}
        refs = extract_references('SELECT A FROM "É"', tables)
        assert (refs.tables, refs.columns) == ({"É"}, {("É", "a")})
        singer = TableSchema(name="Singer", columns=(ColumnSchema(name="Name"),))
        refs = extract_references("SELECT name FROM SINGER", [singer])
        assert (refs.tables, refs.columns) == ({"Singer"}, {("Singer", "Name")})

    def test_statement_that_does_not_compile_raises(self, schemas):
        with pytest.raises(ParseError, match="no such column: bogus"):
            extract_references("SELECT bogus FROM singer", schemas["concert_singer"].tables)

    def test_empty_sql_raises(self, schemas):
        with pytest.raises(ParseError):
            extract_references("   ", schemas["shop"].tables)

    @pytest.mark.parametrize("sql", EXPLAINED)
    def test_explain_raises(self, schemas, sql):
        with pytest.raises(ParseError):
            extract_references(sql, schemas["shop"].tables)

    def test_unterminated_string_raises(self, schemas):
        with pytest.raises(ParseError):
            extract_references("SELECT 'unclosed FROM t", schemas["shop"].tables)

    def test_pure_and_idempotent(self, schemas):
        tables = schemas["soccer_tryout"].tables
        sql = (
            "SELECT a.pname, b.state FROM player a JOIN tryout t ON a.pid = t.pid "
            "JOIN college b ON t.cname = b.cname ORDER BY a.pname"
        )
        first = extract_references(sql, tables)
        second = extract_references(sql, tables)
        assert first.tables == second.tables
        assert first.columns == second.columns


class TestValidate:
    def test_wrong_column_attributed_table_in_detail(self, schemas):
        report = validate(
            "SELECT min(HS), ppos FROM player GROUP BY ppos", schemas["soccer_tryout"]
        )
        assert report.status == WRONG_COLUMN_NAME
        assert report.detail == "ppos not in player"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT ppos FROM player",
            "SELECT min(hs) FROM player GROUP BY ppos",
            "SELECT player.ppos FROM player",
            "SELECT p.ppos FROM player AS p JOIN college AS c ON p.hs = c.enr",
        ],
    )
    def test_wrong_column_owner_found_by_the_compiler(self, schemas, sql):
        report = validate(sql, schemas["soccer_tryout"])
        assert (report.status, report.detail) == (WRONG_COLUMN_NAME, "ppos not in player")

    def test_wrong_column_in_join_without_owner_is_bare(self, schemas):
        report = validate(
            "SELECT bogus FROM player JOIN college ON player.hs = college.enr",
            schemas["soccer_tryout"],
        )
        assert (report.status, report.detail) == (WRONG_COLUMN_NAME, "bogus")

    def test_reference_chosen_query_is_valid(self, schemas):
        report = validate(
            "SELECT min(player.hs) , tryout.ppos FROM tryout JOIN player "
            "ON tryout.pid = player.pid GROUP BY tryout.ppos",
            schemas["soccer_tryout"],
        )
        assert report.is_valid
        assert report.detail == ""

    def test_all_gold_sql_valid(self, samples, schemas):
        for sample in samples:
            report = validate(sample.gold_sql, schemas[sample.db_id])
            assert report.is_valid, (sample.sample_id, report)

    def test_wrong_table(self, schemas):
        report = validate("SELECT * FROM nonexistent", schemas["shop"])
        assert report.status == WRONG_TABLE_NAME
        assert "nonexistent" in report.detail

    def test_syntax_error(self, schemas):
        report = validate("SELECT FROM WHERE", schemas["shop"])
        assert report.status == SYNTAX_ERROR
        assert report.detail

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Name FROM singer -- it's\nORDER BY Age",
            "SELECT Name /* it's; */ FROM singer",
            "SELECT Age & 1, ~Age, Age | 2, Age << 1, Age >> 1 FROM singer",
            'SELECT "Name", [Age], `Country` FROM singer',
        ],
    )
    def test_sqlite_accepted_syntax_is_valid(self, schemas, sql):
        assert validate(sql, schemas["concert_singer"]).status == VALID

    def test_missing_quotation_for_space_column(self, schemas):
        report = validate("SELECT free text FROM stops", schemas["transit"])
        assert report.status == MISSING_QUOTATION
        assert report.detail == "free text"

    def test_special_name_in_a_comment_is_not_missing_quotation(self, schemas):
        report = validate(
            'SELECT "free text", bogus FROM stops -- free text', schemas["transit"]
        )
        assert (report.status, report.detail) == (WRONG_COLUMN_NAME, "bogus not in stops")

    def test_quoted_space_column_is_valid(self, schemas):
        report = validate('SELECT "free text" FROM stops', schemas["transit"])
        assert report.is_valid

    def test_case_insensitive_table_and_column(self, schemas):
        report = validate("SELECT NAME FROM SINGER", schemas["concert_singer"])
        assert report.status == VALID

    def test_valid_report_has_empty_detail(self, schemas):
        report = validate("SELECT count(*) FROM customers", schemas["shop"])
        assert report.status == VALID
        assert report.detail == ""

    def test_validate_against_table_subset(self, schemas):
        tables = [t for t in schemas["shop"].tables if t.name == "customers"]
        assert validate_against_tables("SELECT name FROM customers", tables).is_valid
        report = validate_against_tables("SELECT total FROM orders", tables)
        assert report.status == WRONG_TABLE_NAME


#: Pieces of generated statements over concert_singer's singer table.
_NAMES = ["Name", "Age", '"Age"', "[Name]", "`Age`", "singer.Age", "s.Name", "bogus",
          '"it\'s"', "Singer_ID"]
_LITERALS = ["1", "'it''s'", "'a;b'", "NULL", "2.5"]
_BINARY = ["&", "|", "<<", ">>", "+", "-", "*", "/", "=", "<>", "AND", "OR", "||"]
_GAPS = [" ", " -- it's; x\n", " /* it's; */ ", "\n"]


@st.composite
def _expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        atom = draw(st.sampled_from(_NAMES + _LITERALS))
        return ("~" if draw(st.booleans()) else "") + atom
    left = draw(_expressions(depth=depth - 1))
    right = draw(_expressions(depth=depth - 1))
    op = draw(st.sampled_from(_BINARY))
    gap = draw(st.sampled_from(_GAPS))
    return f"({left}{gap}{op} {right})"


@st.composite
def _statements(draw):
    gaps = st.sampled_from(_GAPS)
    sql = f"SELECT {draw(_expressions())}{draw(gaps)}FROM singer"
    if draw(st.booleans()):
        sql += " AS s"
    if draw(st.booleans()):
        sql += f"{draw(gaps)}WHERE {draw(_expressions())}"
    if draw(st.booleans()):
        sql += f"{draw(gaps)}ORDER BY {draw(_expressions())}"
    if draw(st.booleans()):
        # A stray token SQLite may or may not accept where it lands.
        pieces = sql.split(" ")
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, draw(st.sampled_from(["&", "~", ",", "(", "'", ";", "FROM"])))
        sql = " ".join(pieces)
    return sql


class TestValidateMatchesCompiler:
    @settings(max_examples=300, deadline=None)
    @given(sql=_statements())
    def test_valid_exactly_when_explain_compiles(self, schemas, sql):
        schema = schemas["concert_singer"]
        assert validate(sql, schema).is_valid == compiles_on_replica(sql, schema.tables)


#: The actions the read-only runner allows; it denies every other one.
_RUNNER_ALLOWS = {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
                  sqlite3.SQLITE_RECURSIVE}


def fresh_compile(sql, tables):
    """The oracle for a reused replica: ``EXPLAIN sql`` compiled on a new
    in-memory copy of ``tables``, closed afterwards, denying what the
    read-only runner denies. Returns the program and the authorizer's
    SQLITE_READ calls; raises ParseError with SQLite's message if the
    statement does not compile."""
    reads = []

    def note(action, table, column, _db, _trigger):
        if action == sqlite3.SQLITE_READ:
            reads.append((table, column))
        return sqlite3.SQLITE_OK if action in _RUNNER_ALLOWS else sqlite3.SQLITE_DENY

    conn = sqlite3.connect(":memory:")
    try:
        for t in tables:
            cols = ", ".join(_quote_ident(c.name) for c in t.columns)
            conn.execute(f"CREATE TABLE {_quote_ident(t.name)}({cols})")
        conn.set_authorizer(note)
        return conn.execute(f"EXPLAIN {sql}").fetchall(), reads
    except (sqlite3.Error, ValueError) as exc:
        raise ParseError(str(exc)) from None
    finally:
        conn.close()


def parse_error_or(fn, *args):
    """``fn(*args)``, or the message of the ParseError it raises."""
    try:
        return fn(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


#: Statements that may change a connection while they compile, or that
#: read what such a change would alter, and text that does not compile.
_CONNECTION_STATE = [
    "PRAGMA writable_schema=1",
    "PRAGMA reverse_unordered_selects=1",
    "PRAGMA automatic_index=0",
    "PRAGMA query_only=1",
    "PRAGMA foreign_keys=1",
    "PRAGMA full_column_names=1",
    "PRAGMA query_only=1; SELECT 1",
    "ATTACH DATABASE ':memory:' AS z",
    "SELECT Name FROM z.singer",
    "CREATE TEMP TABLE singer(Name)",
    "CREATE TEMP VIEW v AS SELECT Name FROM singer",
    "SELECT * FROM v",
    "DELETE FROM sqlite_master",
    "SELECT Name FROM singer ORDER BY Age",
    "SELECT count(*) FROM singer JOIN singer_in_concert USING (Singer_ID)",
    "SELECT s.Name FROM singer s JOIN singer_in_concert c ON s.Singer_ID = c.Singer_ID",
    "SELECT Name FROM singer WHERE 1 OR Age = 2",
    "SELECT bogus FROM singer",
    "SELECT 1; SELECT 2",
    "SELECT Name FROM singer\x00",
    "SELECT 'unclosed FROM singer",
    "",
]


class TestReusedReplica:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_verdict_equals_a_fresh_replicas(self, schemas, data):
        tables = schemas["concert_singer"].tables
        texts = data.draw(st.lists(
            st.one_of(st.sampled_from(_CONNECTION_STATE), _statements()),
            min_size=1, max_size=8,
        ))
        # Each text is compiled again after all of them.
        texts += data.draw(st.permutations(texts))
        with SchemaReplica(tables) as replica:
            for sql in texts:
                assert parse_error_or(replica._compile, sql) == parse_error_or(
                    fresh_compile, sql, tables
                ), sql
                assert replica.validate(sql) == validate_against_tables(sql, tables), sql
                assert parse_error_or(replica.references, sql) == parse_error_or(
                    extract_references, sql, tables
                ), sql


#: Text the read-only runner does not compile: writes, connection changes,
#: a table-valued pragma, and text with no statement.
REFUSED = [
    "DELETE FROM customers",
    "INSERT INTO customers(name) VALUES ('x')",
    "CREATE TEMP TABLE t(x)",
    "ATTACH DATABASE ':memory:' AS z",
    "PRAGMA query_only=0",
    "EXPLAIN PRAGMA query_only=1",
    "BEGIN",
    "SELECT * FROM pragma_table_info('customers')",
    "",
    "-- c",
    ";",
]


class TestValidateExecutionConsistency:
    @pytest.mark.parametrize("db_id, sql, status", [
        ("shop", "SELECT * FROM missing_table", WRONG_TABLE_NAME),
        ("soccer_tryout", "SELECT min(HS), ppos FROM player GROUP BY ppos", WRONG_COLUMN_NAME),
        ("concert_singer", "SELECT bogus FROM singer", WRONG_COLUMN_NAME),
        *[("shop", sql, VALID) for sql in EXPLAINED],
        *[("shop", sql, SYNTAX_ERROR) for sql in REFUSED],
    ])
    def test_validate_agrees_with_execution(self, corpus, schemas, db_id, sql, status):
        # Every statically detected table/column defect must also error at
        # execution on the schema's database, and a Valid statement runs.
        from sqlforge.executor import EXEC_ERROR, ROWS, execute

        assert validate(sql, schemas[db_id]).status == status
        outcome = execute(corpus.db_path(db_id), sql)
        assert outcome.kind == (ROWS if status == VALID else EXEC_ERROR)
