from __future__ import annotations

import http.client
import sqlite3
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import pytest

from sqlforge import executor, metrics, sql_analysis
from sqlforge.schema_catalog import DatabaseSchema, corpus_db_path, introspect_database

from corpus_builder import build_corpus, make_sample_records
from model_server import ModelServer


@dataclass(frozen=True)
class FixtureCorpus:
    root: Path

    @property
    def variant_root(self) -> Path:
        return self.root / "variants"

    @property
    def samples_path(self) -> Path:
        return self.root / "samples.jsonl"

    def db_path(self, db_id: str) -> Path:
        return corpus_db_path(self.root, db_id)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> FixtureCorpus:
    root = tmp_path_factory.mktemp("corpus")
    build_corpus(root)
    return FixtureCorpus(root=root)


@pytest.fixture(scope="session")
def sample_records() -> list[dict]:
    return make_sample_records()


@pytest.fixture(scope="session")
def samples(corpus, sample_records) -> list[metrics.Sample]:
    return metrics.samples_from_records(sample_records, metrics.Corpus(corpus.root))


@pytest.fixture
def db_corpus(corpus):
    """A ``metrics.Corpus`` of the fixture corpus, closed when the test ends."""
    with metrics.Corpus(corpus.root) as opened_corpus:
        yield opened_corpus


@pytest.fixture(scope="session")
def schemas(corpus) -> dict[str, DatabaseSchema]:
    out = {}
    for db_dir in sorted((corpus.root / "database").iterdir()):
        db_id = db_dir.name
        out[db_id] = introspect_database(corpus.db_path(db_id), db_id)
    return out


@pytest.fixture
def replica_of(schemas):
    """``replica_of(db_id)``: a new schema replica of the fixture database
    ``db_id``, closed when the test ends."""
    with ExitStack() as stack:
        yield lambda db_id: stack.enter_context(
            sql_analysis.SchemaReplica(schemas[db_id].tables)
        )


@pytest.fixture
def model_server():
    server = ModelServer().start()
    yield server
    server.stop()


@pytest.fixture
def http_connections(monkeypatch) -> list[http.client.HTTPConnection]:
    """Every HTTP connection opened during the test, in order. One whose
    ``sock`` is not None is still open."""
    log: list[http.client.HTTPConnection] = []
    connect = http.client.HTTPConnection.connect

    def recording_connect(conn):
        log.append(conn)
        connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", recording_connect)
    return log


class ConnectionLog(list):
    """The SQLite connections opened while a test runs, and the database
    argument each was opened with."""

    def __init__(self):
        super().__init__()
        self.databases: list[str] = []

    def still_open(self) -> list[sqlite3.Connection]:
        return [c for c in self if _is_open(c)]


def _is_open(conn: sqlite3.Connection) -> bool:
    try:
        conn.total_changes
    except sqlite3.ProgrammingError as exc:
        if "closed" not in str(exc):
            raise
        return False
    return True


@pytest.fixture
def opened(monkeypatch) -> ConnectionLog:
    """Records every ``sqlite3.connect`` made during the test."""
    log = ConnectionLog()
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        log.append(conn)
        log.databases.append(str(args[0] if args else kwargs["database"]))
        return conn

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    return log


class ReplicaLog(list):
    """The schema replicas' connections built while a test runs, and how
    many of them were still open as each was built. The one-call replicas
    that name a missing column's table are not counted here: ``widened``
    lists the column each of them adds."""

    def __init__(self):
        super().__init__()
        self.open_at_build: list[int] = []
        self.widened: list[str] = []

    def still_open(self) -> list[sqlite3.Connection]:
        return [c for c in self if _is_open(c)]


@pytest.fixture
def replicas(monkeypatch) -> ReplicaLog:
    """Records the schema replicas built during the test."""
    log = ReplicaLog()
    build = sql_analysis._build_replica

    def recording_build(tables, extra_column=None):
        conn = build(tables, extra_column)
        if extra_column is None:
            log.open_at_build.append(len(log.still_open()))
            log.append(conn)
        else:
            log.widened.append(extra_column)
        return conn

    monkeypatch.setattr(sql_analysis, "_build_replica", recording_build)
    return log


@pytest.fixture
def statements(monkeypatch) -> list[str]:
    """Records the text of every statement a ``ReadOnlyHandle`` runs during
    the test, in the order run."""
    log: list[str] = []
    run = executor.ReadOnlyHandle.run

    def recording_run(handle, sql, *args, **kwargs):
        log.append(sql)
        return run(handle, sql, *args, **kwargs)

    monkeypatch.setattr(executor.ReadOnlyHandle, "run", recording_run)
    return log
