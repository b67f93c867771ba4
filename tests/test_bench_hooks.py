"""The names the benchmark hooks into. ``bench/tracer.py`` wraps functions
at the module attributes their callers look up, and ``bench/worker.py``
times each subcommand's set-up to the first call of one such attribute. A
subcommand that stops calling its attribute is reported as all set-up, so
these tests run every subcommand with the worker's own probe in place."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from sqlforge import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/ on sys.path, as its scripts run."""
    monkeypatch.syspath_prepend(str(BENCH))
    yield
    for name in ("tracer", "worker", "reference"):
        sys.modules.pop(name, None)


def test_tracer_installs_and_uninstalls(bench):
    import tracer

    originals = [(tracer._resolve(path), attr) for path, attr, _, _ in tracer.WRAPS]
    before = [getattr(owner, attr) for owner, attr in originals]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(originals, before))
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for owner, attr in originals] == before


def _mock(path: Path, entries: list[dict]) -> str:
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return str(path)


def _argv(corpus, sample_records, tmp_path) -> dict[str, list[str]]:
    """Each subcommand's argv on the fixture corpus, with mock models."""
    samples = str(corpus.samples_path)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"sample_id": r["sample_id"], "sql": r["gold_sql"]}) + "\n"
        for r in sample_records))
    gold = _mock(tmp_path / "gold.jsonl", [
        {"match": r["question"], "responses": [r["gold_sql"]], "cycle": True}
        for r in sample_records])
    common = ["--samples", samples, "--corpus", str(corpus.root)]
    out = str(tmp_path / "out")
    return {
        "augment-cross": ["augment", "--mode", "cross-db", *common, "--out", out],
        "augment-inner": ["augment", "--mode", "inner-db", *common, "--out", out],
        "eval": ["eval", *common, "--preds", str(preds),
                 "--variants", str(corpus.variant_root), "--jobs", "2", "--out", out],
        "mine": ["mine", *common, "--mock", gold, "--n-candidates", "2", "--out", out],
        "refine": ["refine", *common, "--generator", f"mock:{gold}",
                   "--debugger", f"mock:{gold}", "--out", out],
    }


#: The first-call probe of each subcommand, as bench/worker.py's commands()
#: names it.
PROBES = {
    "augment-cross": ("sqlforge.augmentation", "cross_db_augment"),
    "augment-inner": ("sqlforge.augmentation", "inner_db_augment"),
    "eval": ("sqlforge.metrics", "execute"),
    "mine": ("sqlforge.preference_miner", "mine_pairs"),
    "refine": ("sqlforge.refine_agent", "refine_sample"),
}


@pytest.mark.parametrize("command", sorted(PROBES))
def test_each_subcommand_calls_its_setup_probe(bench, corpus, sample_records, tmp_path,
                                               command):
    from worker import FirstCall

    module, attr = PROBES[command]
    probe = FirstCall(importlib.import_module(module), attr)
    try:
        assert cli.run(_argv(corpus, sample_records, tmp_path)[command]) == 0
    finally:
        probe.restore()
    assert probe.at is not None
