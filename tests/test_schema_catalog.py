import sqlite3

import pytest

from sqlforge.errors import EmptySchemaListError, NotADatabaseError
from sqlforge.schema_catalog import (
    ColumnSchema,
    DatabaseSchema,
    TableSchema,
    introspect_database,
    render_prompt,
)

from corpus_builder import TRYOUT_QUESTION

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
    stadium = schema.table("stadium")
    assert stadium.column_names() == [
        "Stadium_ID", "Location", "Name", "Capacity", "Highest", "Lowest", "Average",
    ]
    assert stadium.column("Stadium_ID").is_primary_key
    assert not stadium.column("Location").is_primary_key


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
    names = schema.table("singer").column("Name").sample_values
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


def test_render_prompt_extended_mode(schemas):
    tables = schemas["shop"].tables
    extended = render_prompt(tables, "q?", extended=True)
    assert "INTEGER" in extended or "TEXT" in extended


def test_invariant_duplicate_table_names_rejected():
    t = TableSchema(name="x", columns=(ColumnSchema(name="a"),))
    t2 = TableSchema(name="X", columns=(ColumnSchema(name="b"),))
    with pytest.raises(ValueError):
        DatabaseSchema(db_id="d", file_path="", tables=(t, t2))


def test_invariant_fk_must_reference_existing_columns():
    from sqlforge.schema_catalog import ForeignKey

    t = TableSchema(name="x", columns=(ColumnSchema(name="a"),))
    with pytest.raises(ValueError):
        DatabaseSchema(
            db_id="d",
            file_path="",
            tables=(t,),
            foreign_keys=(ForeignKey("x", "a", "y", "b"),),
        )
