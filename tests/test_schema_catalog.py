import re
import sqlite3
from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sqlforge.errors import EmptySchemaListError, NotADatabaseError
from sqlforge.executor import ReadOnlyHandle
from sqlforge.schema_catalog import (
    ColumnSchema,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
    _quote_ident,
    fold,
    introspect_database,
    render_prompt,
)
from sqlforge.sql_analysis import classify_outcome, validate

from corpus_builder import SQLITE_ONLY_SCHEMAS, TRYOUT_QUESTION, build_sqlite_only_database

CONCERT_PROMPT = """\
CREATE TABLE stadium(Stadium_ID, Location, Name, Capacity, Highest, Lowest, Average);
CREATE TABLE singer(Singer_ID, Name, Country, Song_Name, Song_release_year, Age, Is_male);
CREATE TABLE concert(concert_ID, concert_Name, Theme, Stadium_ID, Year);
CREATE TABLE singer_in_concert(concert_ID, Singer_ID);
-- Using valid SQLite, answer the following questions for the tables provided above.
-- How many singers do we have?"""


def test_introspect_concert_singer(corpus):
    schema = introspect_database(corpus.db_path("concert_singer"), "concert_singer")
    assert [t.name for t in schema.tables] == ["stadium", "singer", "concert", "singer_in_concert"]
    stadium = schema.by_folded_name[fold("stadium")]
    assert stadium.column_names() == [
        "Stadium_ID", "Location", "Name", "Capacity", "Highest", "Lowest", "Average",
    ]
    assert stadium.by_folded_name[fold("Stadium_ID")].is_primary_key
    assert not stadium.by_folded_name[fold("Location")].is_primary_key


def test_introspect_foreign_keys_round_trip(tmp_path):
    path = tmp_path / "two.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE parent(pid INTEGER PRIMARY KEY, label TEXT)")
    conn.execute(
        "CREATE TABLE child(cid INTEGER PRIMARY KEY, "
        "pid INTEGER REFERENCES parent(pid))"
    )
    conn.close()
    schema = introspect_database(path, "two")
    assert [t.name for t in schema.tables] == ["parent", "child"]
    assert len(schema.foreign_keys) == 1
    fk = schema.foreign_keys[0]
    assert (fk.from_table, fk.from_column, fk.to_table, fk.to_column) == (
        "child", "pid", "parent", "pid",
    )


def test_introspect_empty_database(tmp_path):
    path = tmp_path / "empty.sqlite"
    sqlite3.connect(path).close()
    schema = introspect_database(path, "empty")
    assert schema.tables == ()


def test_introspect_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        introspect_database(tmp_path / "nope.sqlite", "nope")


def test_introspect_not_a_database(tmp_path):
    path = tmp_path / "junk.sqlite"
    path.write_text("this is not sqlite at all, padded " + "x" * 200)
    with pytest.raises(NotADatabaseError):
        introspect_database(path, "junk")


def test_sample_values_capped(corpus):
    schema = introspect_database(
        corpus.db_path("concert_singer"), "concert_singer", sample_value_count=2
    )
    for table in schema.tables:
        for col in table.columns:
            assert len(col.sample_values) <= 2
    names = schema.by_folded_name[fold("singer")].by_folded_name[fold("Name")].sample_values
    assert len(names) == 2


def test_render_prompt_matches_reference_text(corpus):
    schema = introspect_database(corpus.db_path("concert_singer"), "concert_singer")
    prompt = render_prompt(schema.tables, "How many singers do we have?")
    assert prompt == CONCERT_PROMPT


def test_render_prompt_minimal():
    table = TableSchema(name="t", columns=(ColumnSchema(name="c"),))
    prompt = render_prompt([table], "?")
    lines = prompt.split("\n")
    assert lines[0] == "CREATE TABLE t(c);"
    assert lines[-1] == "-- ?"
    assert sum(1 for ln in lines if ln.startswith("CREATE TABLE ")) == 1
    assert sum(1 for ln in lines if ln.startswith("-- ")) == 2


def test_render_prompt_tryout(schemas):
    tables = schemas["soccer_tryout"].tables
    prompt = render_prompt(tables, TRYOUT_QUESTION)
    assert prompt.startswith("CREATE TABLE tryout(pid, cname, decision, ppos);\n")
    assert "CREATE TABLE player(hs, pname, ycard, pid);" in prompt
    assert "CREATE TABLE college(cname, enr, state);" in prompt
    assert prompt.endswith(f"-- {TRYOUT_QUESTION}")


def test_render_prompt_empty_schema_rejected():
    with pytest.raises(EmptySchemaListError):
        render_prompt([], "question?")


def test_render_prompt_deterministic(schemas):
    tables = schemas["shop"].tables
    assert render_prompt(tables, "q?") == render_prompt(tables, "q?")


def test_invariant_duplicate_table_names_rejected():
    t = TableSchema(name="x", columns=(ColumnSchema(name="a"),))
    t2 = TableSchema(name="X", columns=(ColumnSchema(name="b"),))
    with pytest.raises(ValueError):
        DatabaseSchema(db_id="d", file_path="", tables=(t, t2))


def test_duplicate_names_fold_ascii_case_only():
    with pytest.raises(ValueError):
        TableSchema(name="t", columns=(ColumnSchema(name="Id"), ColumnSchema(name="iD")))
    table = TableSchema(name="t", columns=(ColumnSchema(name="É"), ColumnSchema(name="é")))
    other = TableSchema(name="É", columns=(ColumnSchema(name=""),))
    DatabaseSchema(db_id="d", file_path="", tables=(table, other, replace(other, name="é")))


def _create(path, statements) -> None:
    conn = sqlite3.connect(path)
    try:
        for ddl in statements:
            conn.execute(ddl)
    finally:
        conn.close()


def _fk_tuples(schema) -> list[tuple[str, str, str, str]]:
    return [(fk.from_table, fk.from_column, fk.to_table, fk.to_column)
            for fk in schema.foreign_keys]


def test_dangling_foreign_key_introspects_as_declared(tmp_path):
    path = tmp_path / "dangling.sqlite"
    _create(path, ["CREATE TABLE x(a INT, b INT, FOREIGN KEY(a) REFERENCES y(b))"])
    schema = introspect_database(path, "dangling")
    assert schema.foreign_keys == (ForeignKey("x", "a", "y", "b"),)
    assert schema.key_column_names() == {"a", "b"}


@pytest.mark.parametrize("name", sorted(SQLITE_ONLY_SCHEMAS))
def test_every_schema_sqlite_reads_introspects(tmp_path, name):
    path = build_sqlite_only_database(tmp_path / f"{name}.sqlite", name)
    schema = introspect_database(path, name, sample_value_count=1)
    tables = SQLITE_ONLY_SCHEMAS[name][1]
    assert [(t.name, t.column_names()) for t in schema.tables] == list(tables.items())
    assert _fk_tuples(schema) == SQLITE_ONLY_SCHEMAS[name][2]


def test_lookups_fold_ascii_case_only(tmp_path):
    path = build_sqlite_only_database(tmp_path / "pair.sqlite", "accented_table_pair")
    schema = introspect_database(path, "pair")
    assert schema.by_folded_name[fold("é")].name == "é"
    assert schema.by_folded_name[fold("É")].name == "É"
    assert schema.by_folded_name[fold("C")].name == "c"
    assert schema.by_folded_name.get(fold("e")) is None
    assert schema.by_folded_name[fold("é")].has_column("B")
    assert not schema.by_folded_name[fold("É")].has_column("b")
    assert schema.key_column_names() == {"id"}


def test_render_prompt_quotes_only_names_that_would_end_early(tmp_path):
    path = build_sqlite_only_database(tmp_path / "empty.sqlite", "empty_column_name")
    schema = introspect_database(path, "empty")
    assert render_prompt(schema.tables, "?").startswith('CREATE TABLE c(id, "");\n')
    names = ["free text", "É", "a-b", "a/b", 'q"r', "a,b", "f(x)", "line\nbreak", "s'u",
             "b`c", "[d", "a;b", "a--b", "a/*b", "cr\r"]
    table = TableSchema(name="t(1)", columns=tuple(ColumnSchema(name=n) for n in names))
    assert render_prompt([table], "?").split(";\n")[0] == (
        'CREATE TABLE "t(1)"(free text, É, a-b, a/b, "q""r", "a,b", "f(x)", "line\nbreak", '
        '"s\'u", "b`c", "[d", "a;b", "a--b", "a/*b", "cr\r")'
    )


def test_implicit_composite_key_pairs_columns_in_key_order(tmp_path):
    path = tmp_path / "composite.sqlite"
    _create(path, [
        "CREATE TABLE p(a, b, PRIMARY KEY(b, a))",
        "CREATE TABLE c(x, y, FOREIGN KEY(x, y) REFERENCES p)",
    ])
    assert sorted(_fk_tuples(introspect_database(path, "composite"))) == [
        ("c", "x", "p", "b"), ("c", "y", "p", "a"),
    ]


# --- introspection accepts every schema SQLite accepts ------------------------

TABLE_NAMES = ["t", "T", "a b", 'q"r', "s'u", "É", "é"]
VIEW_NAMES = ["v", "V", "t", "v w", "Ü", "ü", "é"]
COLUMN_NAMES = ["", "id", "ID", "a b", 'c"d', "x'y", "É", "é"]


def _ascii_folded(name: str) -> bytes:
    return name.encode().lower()


@st.composite
def table_specs(draw):
    """1-4 tables as (name, columns, primary key, foreign keys, generated
    columns), where a foreign key is (column, parent table, parent column
    or None), and 0-3 views as (name, source, selected columns or None for
    ``*``), where a selected column is (name, alias or None). The first
    column of a table is never generated, nor is a key or foreign-key
    column."""
    specs = []
    names = draw(st.lists(st.sampled_from(TABLE_NAMES), min_size=1, max_size=4,
                          unique_by=_ascii_folded))
    for name in names:
        columns = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=4,
                                unique_by=_ascii_folded))
        generated = draw(st.lists(st.sampled_from(columns[1:]), unique=True)
                         if len(columns) > 1 else st.just([]))
        plain = [c for c in columns if c not in generated]
        key = draw(st.lists(st.sampled_from(plain), max_size=2, unique=True))
        fks = draw(st.lists(st.tuples(
            st.sampled_from(plain),
            st.sampled_from(TABLE_NAMES + ["missing"]),
            st.none() | st.sampled_from(COLUMN_NAMES),
        ), max_size=2))
        specs.append((name, columns, key, fks, generated))
    views = draw(st.lists(st.tuples(
        st.sampled_from(VIEW_NAMES),
        st.sampled_from(names) | st.sampled_from(VIEW_NAMES),
        st.none() | st.lists(st.tuples(
            st.sampled_from(COLUMN_NAMES),
            st.none() | st.sampled_from(COLUMN_NAMES),
        ), min_size=1, max_size=3),
    ), max_size=3))
    return specs, views


def _ddl(name, columns, key, fks, generated) -> str:
    parts = [
        _quote_ident(c) + (" GENERATED ALWAYS AS (1)" if c in generated else "")
        for c in columns
    ]
    if key:
        parts.append(f"PRIMARY KEY({', '.join(map(_quote_ident, key))})")
    for column, parent, parent_column in fks:
        target = "" if parent_column is None else f"({_quote_ident(parent_column)})"
        parts.append(
            f"FOREIGN KEY({_quote_ident(column)}) REFERENCES {_quote_ident(parent)}{target}"
        )
    return f"CREATE TABLE {_quote_ident(name)}({', '.join(parts)})"


def _view_ddl(name, source, selected) -> str:
    items = "*" if selected is None else ", ".join(
        _quote_ident(column) + ("" if alias is None else f" AS {_quote_ident(alias)}")
        for column, alias in selected
    )
    return f"CREATE VIEW {_quote_ident(name)} AS SELECT {items} FROM {_quote_ident(source)}"


def _create_schema(conn, specs, views) -> list:
    """Create ``specs``' tables, rejecting the example if SQLite refuses one,
    then each of ``views`` that SQLite accepts. Returns the views created."""
    for spec in specs:
        try:
            conn.execute(_ddl(*spec))
        except sqlite3.Error:
            reject()
    created = []
    for view in views:
        try:
            conn.execute(_view_ddl(*view))
        except sqlite3.Error:
            continue
        created.append(view)
    return created


def _expected_fks(specs) -> list[tuple[str, str, str, str]]:
    """Each foreign key as declared; an implicit one names its parent's first
    primary-key column, and is left out when the parent has none."""
    keys = {_ascii_folded(name): key for name, _columns, key, _fks, _gen in specs}
    expected = []
    for name, _columns, _key, fks, _gen in specs:
        for column, parent, parent_column in fks:
            if parent_column is None:
                parent_key = keys.get(_ascii_folded(parent))
                if not parent_key:
                    continue
                parent_column = parent_key[0]
            expected.append((name, column, parent, parent_column))
    return sorted(expected)


@settings(max_examples=150, deadline=None)
@given(schema_specs=table_specs())
def test_introspection_accepts_every_schema_sqlite_accepts(tmp_path_factory, schema_specs):
    specs, views = schema_specs
    path = tmp_path_factory.mktemp("accepts") / "db.sqlite"
    conn = sqlite3.connect(path)
    try:
        _create_schema(conn, specs, views)
        schema = introspect_database(path, "db")
        # Every table and view that SQLite reads (a view may be circular),
        # with its columns as table_xinfo lists them.
        readable = []
        for name, in conn.execute("SELECT name FROM sqlite_master "
                                  "WHERE type IN ('table', 'view') ORDER BY rowid").fetchall():
            try:
                info = conn.execute(f"PRAGMA table_xinfo({_quote_ident(name)})").fetchall()
            except sqlite3.OperationalError:
                continue
            readable.append((name, [row[1] for row in info]))
        assert [(t.name, t.column_names()) for t in schema.tables] == readable
    finally:
        conn.close()
    assert sorted(_fk_tuples(schema)) == _expected_fks(specs)


# --- validate on the introspected schema judges as SQLite does on the file ----


@st.composite
def selects(draw, specs, views):
    """A SELECT of column references, bare, quoted or qualified, from one or
    two of the tables and views or a missing table."""
    names = [name for name, *_ in specs] + [name for name, *_ in views]
    sources = draw(st.lists(st.sampled_from(names + ["missing"]), min_size=1, max_size=2))
    declared = [c for _name, columns, *_ in specs for c in columns] + [
        alias for _name, _source, selected in views for _column, alias in selected or ()
        if alias is not None
    ]
    refs = []
    for _ in range(draw(st.integers(1, 3))):
        column = draw(st.sampled_from(declared) | st.sampled_from(COLUMN_NAMES + ["nope"]))
        ref = draw(st.sampled_from([column, _quote_ident(column), _quote_ident(column)])) or '""'
        owner = draw(st.none() | st.sampled_from(sources))
        refs.append(ref if owner is None else f"{_quote_ident(owner)}.{ref}")
    joined = " JOIN ".join(map(_quote_ident, sources))
    return f"SELECT {', '.join(refs)} FROM {joined}"


#: Text the read-only runner does not compile, over the table ``{t}``.
_REFUSED = [
    "DELETE FROM {t}",
    "INSERT INTO {t} DEFAULT VALUES",
    "CREATE TEMP TABLE tmp(x)",
    "ATTACH DATABASE ':memory:' AS z",
    "PRAGMA query_only=0",
    "EXPLAIN PRAGMA query_only=1",
    "BEGIN",
    "SELECT * FROM pragma_table_info('x')",
    "",
    "-- c",
    ";",
]


def refused(specs):
    """One of :data:`_REFUSED`, over the first of ``specs``' tables."""
    table = _quote_ident(specs[0][0])
    return st.sampled_from(_REFUSED).map(lambda text: text.replace("{t}", table))


def _compiles_on_file(path, sql) -> bool:
    """Whether ``EXPLAIN sql``, or ``sql`` as given when it is an
    ``EXPLAIN``, compiles on a read-only runner's handle of ``path``."""
    text = sql if re.match(r"\s*explain\b", sql, re.IGNORECASE) else f"EXPLAIN {sql}"
    with ReadOnlyHandle(path) as handle:
        return handle.run(text).is_rows


@settings(max_examples=200, deadline=None)
@given(schema_specs=table_specs(), data=st.data())
def test_validate_is_valid_exactly_when_the_file_compiles(tmp_path_factory, schema_specs,
                                                           data):
    specs, views = schema_specs
    path = tmp_path_factory.mktemp("validate") / "db.sqlite"
    conn = sqlite3.connect(path)
    try:
        views = _create_schema(conn, specs, views)
    finally:
        conn.close()
    schema = introspect_database(path, "db")
    statements = selects(specs, views) | refused(specs)
    for sql in data.draw(st.lists(statements, min_size=1, max_size=4)):
        assert validate(sql, schema).is_valid == _compiles_on_file(path, sql), sql


# --- one run judges on the file: what a schema replica cannot declare ---------

INDEX_NAMES = ["i", "I", "i j", "ï"]


@st.composite
def file_only_schemas(draw):
    """DDL for 1-3 tables, each plain, ``WITHOUT ROWID`` (keyed on its first
    column) or with an ``INTEGER PRIMARY KEY AUTOINCREMENT`` first column,
    and each with or without one row; 0-2 ``CREATE INDEX``es; and maybe
    ``ANALYZE``. Returns the statements and the (table, columns) pairs."""
    names = draw(st.lists(st.sampled_from(TABLE_NAMES), min_size=1, max_size=3,
                          unique_by=_ascii_folded))
    ddl, tables = [], []
    for name in names:
        columns = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=1, max_size=3,
                                unique_by=_ascii_folded))
        quoted = [_quote_ident(c) for c in columns]
        kind = draw(st.sampled_from(["plain", "without rowid", "autoincrement"]))
        if kind == "autoincrement":
            quoted[0] += " INTEGER PRIMARY KEY AUTOINCREMENT"
        elif kind == "without rowid":
            quoted.append(f"PRIMARY KEY({_quote_ident(columns[0])})")
        suffix = " WITHOUT ROWID" if kind == "without rowid" else ""
        ddl.append(f"CREATE TABLE {_quote_ident(name)}({', '.join(quoted)}){suffix}")
        if draw(st.booleans()):
            values = ", ".join(str(n) for n in range(1, len(columns) + 1))
            ddl.append(f"INSERT INTO {_quote_ident(name)} VALUES ({values})")
        tables.append((name, columns))
    for index in draw(st.lists(st.sampled_from(INDEX_NAMES), max_size=2,
                               unique_by=_ascii_folded)):
        name, columns = draw(st.sampled_from(tables))
        column = draw(st.sampled_from(columns))
        ddl.append(f"CREATE INDEX {_quote_ident(index)} ON "
                   f"{_quote_ident(name)}({_quote_ident(column)})")
    if draw(st.booleans()):
        ddl.append("ANALYZE")
    return ddl, tables


@st.composite
def file_only_statements(draw, tables):
    """A statement that reads what only the file declares: a rowid,
    ``INDEXED BY`` a named or automatic index (or a missing one),
    ``sqlite_sequence`` or ``sqlite_stat1``."""
    name, columns = draw(st.sampled_from(tables))
    table = _quote_ident(name)
    column = _quote_ident(draw(st.sampled_from(columns)))
    index = draw(st.sampled_from(INDEX_NAMES + [f"sqlite_autoindex_{name}_1", "nope"]))
    return draw(st.sampled_from([
        f"SELECT rowid FROM {table}",
        f"SELECT {table}._rowid_, {column} FROM {table}",
        f"SELECT oid FROM {table} WHERE {column} = 1",
        f"SELECT {column} FROM {table} INDEXED BY {_quote_ident(index)}",
        f"SELECT {column} FROM {table} INDEXED BY {_quote_ident(index)} WHERE {column} > 0",
        f"SELECT {column} FROM {table} NOT INDEXED",
        "SELECT name, seq FROM sqlite_sequence",
        "SELECT tbl, idx, stat FROM sqlite_stat1",
        f"SELECT seq FROM sqlite_sequence JOIN {table} ON name = {_quote_ident(name.lower())}",
    ]))


@settings(max_examples=200, deadline=None)
@given(schema=file_only_schemas(), data=st.data())
def test_classify_outcome_is_valid_exactly_when_the_file_compiles(tmp_path_factory, schema,
                                                                   data):
    """What eval and refine do: classify one run of each statement, on one
    reused handle, against a compile on a fresh handle per statement.
    ``WITHOUT ROWID`` tables, indexes, ``sqlite_sequence`` and
    ``sqlite_stat1`` are the file's, not a replica's."""
    ddl, tables = schema
    path = tmp_path_factory.mktemp("file_only") / "db.sqlite"
    conn = sqlite3.connect(path)
    try:
        for statement in ddl:
            try:
                conn.execute(statement)
            except sqlite3.Error:
                reject()
        conn.commit()
    finally:
        conn.close()
    schema_tables = introspect_database(path, "db").tables
    statements = data.draw(st.lists(file_only_statements(tables), min_size=1, max_size=4))
    with ReadOnlyHandle(path) as handle:
        for sql in statements:
            report = classify_outcome(sql, schema_tables, handle.run(sql))
            assert report.is_valid == _compiles_on_file(path, sql), sql
