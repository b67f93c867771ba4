"""The names the benchmark hooks into. ``bench/tracer.py`` wraps functions
at the module attributes their callers look up, and ``bench/worker.py``
times each subcommand's set-up to the first call of one such attribute. A
subcommand that stops calling its attribute is reported as all set-up, so
these tests run every subcommand with the worker's own probe in place."""

import ast
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


#: The comment on each ``src/`` import kept only for bench/tracer.py to wrap.
TRACER_ONLY = "# noqa: F401 -- bench/tracer.py wraps this name"


def test_tracer_only_imports_are_wrapped_and_otherwise_unused(bench):
    """Each import marked :data:`TRACER_ONLY` brings in a name that
    bench/tracer.py wraps in that module, and the module never uses the
    name itself; so when the tracer stops wrapping it, this names the dead
    import."""
    import tracer

    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        source = path.read_text()
        marked = {n for n, line in enumerate(source.splitlines(), 1) if line.endswith(TRACER_ONLY)}
        nodes = list(ast.walk(ast.parse(source)))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        imports = [n for n in nodes if isinstance(n, ast.ImportFrom) and n.end_lineno in marked]
        assert len(imports) == len(marked), f"{path.name}: a marked line ends no import"
        found += [(f"sqlforge.{path.stem}", a.asname or a.name, used)
                  for node in imports for a in node.names]
    assert found
    wrapped = {(path, attr) for path, attr, _, _ in tracer.WRAPS}
    for module, name, used in found:
        assert (module, name) in wrapped, f"{module}.{name} is imported for a wrap that is gone"
        assert name not in used, f"{module} uses {name}, so its import is not tracer-only"


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
        "mine": ["mine", *common, "--endpoint", f"mock:{gold}", "--n-candidates", "2",
                 "--out", out],
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


def test_calibration_probes_run_on_the_fixture_corpus(bench, corpus, tmp_path):
    from worker import probes

    (tmp_path / "samples.jsonl").write_bytes(corpus.samples_path.read_bytes())
    (tmp_path / "corpus").symlink_to(corpus.root, target_is_directory=True)
    fixed = probes(tmp_path)
    assert sorted(fixed) == ["executor.execute.fixed_us", "sql_analysis.validate.fixed_us"]
    assert all(us > 0 for us in fixed.values())
