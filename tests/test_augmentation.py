import dataclasses

import pytest

from sqlforge.augmentation import (
    CROSS_DB,
    INNER_DB,
    MAX_COLUMNS_PER_TABLE,
    MAX_TABLES,
    UNCHANGED,
    augmented_to_record,
    cross_db_augment,
    cross_db_candidates,
    derive_seed,
    inner_db_augment,
)
from sqlforge.errors import GoldReferencesUnknownColumn
from sqlforge.metrics import Sample
from sqlforge.schema_catalog import introspect_database
from sqlforge.sql_analysis import SchemaReplica, extract_references, validate_against_tables

from corpus_builder import build_sqlite_only_database


def augment(sample, schemas, seed):
    """Cross-db augment ``sample`` with the candidates found on ``schemas``,
    which hold its own database's."""
    own = next(schema for schema in schemas if schema.db_id == sample.db_id)
    return cross_db_augment(
        sample, own.tables, cross_db_candidates(sample.db_id, schemas), seed
    )


def sample_for(samples, db_id, fragment=""):
    return next(
        s for s in samples if s.db_id == db_id and fragment in s.gold_sql
    )


class TestCrossDb:
    def test_inserted_tables_share_a_key_column(self, samples, schemas):
        corpus_schemas = list(schemas.values())
        s = sample_for(samples, "shop", "orders")
        keys = schemas["shop"].key_column_names()
        for seed in range(30):
            aug = augment(s, corpus_schemas, seed)
            assert aug.provenance.kind == CROSS_DB
            assert 1 <= len(aug.provenance.inserted_tables) <= 3
            for name in aug.provenance.inserted_tables:
                table = next(t for t in aug.schema_tables if t.name == name)
                assert any(c.name.lower() in keys for c in table.columns)

    def test_own_database_never_a_source(self, samples, schemas):
        corpus_schemas = list(schemas.values())
        s = sample_for(samples, "shop", "orders")
        for seed in range(20):
            aug = augment(s, corpus_schemas, seed)
            assert "shop" not in aug.provenance.source_db_ids

    def test_unchanged_when_corpus_is_own_db_only(self, samples, schemas):
        s = sample_for(samples, "shop", "orders")
        aug = augment(s, [schemas["shop"]], 7)
        assert aug.provenance.kind == UNCHANGED
        assert aug.schema_tables == schemas["shop"].tables

    def test_deterministic(self, samples, schemas):
        corpus_schemas = list(schemas.values())
        s = sample_for(samples, "concert_singer", "count(*) FROM concert WHERE")
        assert augment(s, corpus_schemas, 42) == augment(
            s, corpus_schemas, 42
        )

    def test_candidate_set_matches_brute_force(self, samples, schemas):
        corpus_schemas = list(schemas.values())
        s = sample_for(samples, "store", "price")
        keys = schemas["store"].key_column_names()
        brute = {
            t.name
            for sch in corpus_schemas
            if sch.db_id != "store"
            for t in sch.tables
            if any(c.name.lower() in keys for c in t.columns)
        }
        for seed in range(50):
            aug = augment(s, corpus_schemas, seed)
            assert set(aug.provenance.inserted_tables) <= brute

    def test_candidates_follow_the_corpus_passed(self, schemas):
        corpus_schemas = list(schemas.values())
        full = cross_db_candidates("shop", corpus_schemas)
        assert full
        assert cross_db_candidates("shop", [schemas["shop"]]) == ()
        assert cross_db_candidates("shop", list(corpus_schemas)) == full
        dropped = full[0][0][0]
        without = [sch for sch in corpus_schemas if sch.db_id != dropped]
        by_name = {group[0][1].name.lower(): group for group in full}
        assert {g[0][1].name.lower(): g for g in cross_db_candidates("shop", without)} == {
            name: tuple(c for c in group if c[0] != dropped)
            for name, group in by_name.items()
            if any(c[0] != dropped for c in group)
        }
        with pytest.raises(ValueError):
            cross_db_candidates("shop", without[:0])

    def test_table_names_stay_distinct_when_databases_share_names(self, samples, schemas):
        # Every database copied under three db_ids, as a corpus with repeated
        # table names across databases; the copies differ in name case, so
        # the check must compare names case-insensitively.
        copies = [
            dataclasses.replace(
                sch,
                db_id=f"{sch.db_id}_{k}",
                tables=tuple(
                    dataclasses.replace(t, name=t.name.upper() if k else t.name)
                    for t in sch.tables
                ),
            )
            for k in range(3)
            for sch in schemas.values()
        ]
        inserted = 0
        for s in samples:
            copy = dataclasses.replace(s, db_id=f"{s.db_id}_1")
            for seed in range(4):
                aug = augment(copy, copies, seed)
                names = [t.name.lower() for t in aug.schema_tables]
                assert len(names) == len(set(names)), (s.sample_id, seed, names)
                report = validate_against_tables(s.gold_sql, aug.schema_tables)
                assert report.is_valid, (s.sample_id, seed, report)
                inserted += len(aug.provenance.inserted_tables)
        assert inserted

    def test_gold_preservation(self, samples, schemas):
        corpus_schemas = list(schemas.values())
        for s in samples[:10]:
            for seed in range(10):
                aug = augment(s, corpus_schemas, seed)
                report = validate_against_tables(s.gold_sql, aug.schema_tables)
                assert report.is_valid, (s.sample_id, seed, report)


class TestInnerDb:
    def test_used_table_always_kept(self, samples, replica_of):
        s = sample_for(samples, "concert_singer", "count(*) FROM singer")
        replica = replica_of("concert_singer")
        for seed in range(50):
            aug = inner_db_augment(s, replica, seed)
            assert any(t.name == "singer" for t in aug.schema_tables)

    def test_table_cap_on_nine_table_database(self, samples, replica_of):
        s = sample_for(samples, "warehouse", "suppliers.sname")
        replica = replica_of("warehouse")
        for seed in range(200):
            aug = inner_db_augment(s, replica, seed, p_table=1.0)
            assert len(aug.schema_tables) <= MAX_TABLES
            names = {t.name for t in aug.schema_tables}
            assert {"suppliers", "items"} <= names

    def test_column_cap_on_wide_table(self, samples, replica_of):
        s = sample_for(samples, "wide_metrics", "avg(m01)")
        replica = replica_of("wide_metrics")
        for seed in range(200):
            aug = inner_db_augment(s, replica, seed, p_col=1.0)
            readings = next(t for t in aug.schema_tables if t.name == "readings")
            assert len(readings.columns) <= MAX_COLUMNS_PER_TABLE
            kept = {c.name for c in readings.columns}
            assert {"device_id", "m01"} <= kept

    def test_gold_preservation_over_seeds(self, samples, replica_of):
        for s in samples[:15]:
            replica = replica_of(s.db_id)
            for seed in range(20):
                aug = inner_db_augment(s, replica, seed)
                report = validate_against_tables(s.gold_sql, aug.schema_tables)
                assert report.is_valid, (s.sample_id, seed, report)

    @pytest.mark.parametrize(
        "gold",
        [
            "SELECT concert_Name, Name FROM concert JOIN stadium USING (Stadium_ID)",
            "SELECT concert_Name FROM concert JOIN stadium USING (Stadium_ID)",
            "SELECT Name FROM singer NATURAL JOIN singer_in_concert",
            "SELECT Name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert "
            "WHERE singer_in_concert.Singer_ID = Singer_ID AND Age > 30)",
            "WITH old AS (SELECT Name, Age FROM singer WHERE Age > 30) "
            "SELECT Name FROM old ORDER BY Age",
        ],
    )
    def test_gold_still_compiles_when_everything_unused_is_dropped(
        self, schemas, replica_of, gold
    ):
        # The gold must also read the same columns: a NATURAL join that lost
        # its shared column would still compile, as a cross join.
        schema = schemas["concert_singer"]
        s = Sample("g", "concert_singer", "q", gold)
        reads = extract_references(gold, schema.tables)
        replica = replica_of("concert_singer")
        for seed in range(10):
            aug = inner_db_augment(s, replica, seed, p_table=0, p_col=0)
            report = validate_against_tables(gold, aug.schema_tables)
            assert report.is_valid, (seed, report)
            assert extract_references(gold, aug.schema_tables) == reads, seed

    @pytest.mark.parametrize("gold, kept", [
        ('SELECT a FROM "É"', ("É", ["a"])),
        ('SELECT B FROM "é"', ("é", ["b"])),
    ])
    def test_keeps_only_the_accented_table_the_gold_reads(self, tmp_path, gold, kept):
        # SQLite folds ASCII letters only: "É" and "é" are two tables.
        path = build_sqlite_only_database(tmp_path / "pair.sqlite", "accented_table_pair")
        schema = introspect_database(path, "pair")
        s = Sample("g", "pair", "q", gold)
        with SchemaReplica(schema.tables) as replica:
            aug = inner_db_augment(s, replica, 1, p_table=0, p_col=0)
        assert [(t.name, t.column_names()) for t in aug.schema_tables] == [kept]

    def test_deterministic(self, samples, replica_of):
        s = sample_for(samples, "hr", "departments.dname")
        assert inner_db_augment(s, replica_of("hr"), 3) == inner_db_augment(
            s, replica_of("hr"), 3
        )

    def test_gold_referencing_unknown_column_rejected(self, replica_of):
        s = Sample(
            sample_id="bad",
            db_id="shop",
            question="q",
            gold_sql="SELECT customers.phantom FROM customers",
        )
        with pytest.raises(GoldReferencesUnknownColumn):
            inner_db_augment(s, replica_of("shop"), 1)


class TestExport:
    def test_derive_seed_is_stable_and_spread(self):
        a = derive_seed(42, "s001")
        assert a == derive_seed(42, "s001")
        assert a != derive_seed(42, "s002")
        assert a != derive_seed(43, "s001")

    def test_record_shape(self, samples, replica_of):
        s = sample_for(samples, "school", "age > 20")
        aug = inner_db_augment(s, replica_of("school"), 5)
        record = augmented_to_record(aug)
        assert set(record) == {"sample_id", "prompt", "completion", "provenance", "seed"}
        assert record["completion"] == s.gold_sql
        assert record["provenance"]["kind"] == INNER_DB
        assert s.question in record["prompt"]
