"""Runs one workload's subcommands in this fresh process, in-process
through ``sqlforge.cli.run(argv)``, and writes the timings as JSON.

    python3 bench/worker.py --root . --workload fixture --inputs DIR \
        --out-dir DIR --seconds 20 --trace 0 --result result.json

After one warm-up pass it repeats passes (every subcommand of the
workload, in order) until ``--seconds`` have gone by. With ``--trace 1``
untraced and traced passes alternate, and the calibration probes run at
the end. ``run.py`` starts this process and checks its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import urllib.request
from pathlib import Path

from reference import Reference

#: Workloads whose times are scaled to the nominal machine speed. heavy is
#: not: its 5-second passes outlast the speed swings the reference reads at
#: their edges, and scaling widened its spread between runs.
SCALED = ("fixture", "model_stub")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Calls of each calibration probe, spread over the workload's databases.
PROBE_CALLS = 400


class FirstCall:
    """Records when ``owner.attr`` is first called, then steps aside."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.at: float | None = None
        setattr(owner, attr, self._probe)

    def _probe(self, *args, **kwargs):
        if self.at is None:
            self.at = time.perf_counter()
        self.restore()
        return self.original(*args, **kwargs)

    def restore(self) -> None:
        setattr(self.owner, self.attr, self.original)


def commands(workload: str, inputs: Path, out: Path, seed: int, endpoint: str | None):
    """(name, argv, samples, first-sample function) per subcommand."""
    meta = json.loads((inputs / "meta.json").read_text())
    n = meta["samples"]
    samples, corpus = str(inputs / "samples.jsonl"), str(inputs / "corpus")
    evaluate = ["eval", "--samples", samples, "--preds", str(inputs / "preds.jsonl"),
                "--corpus", corpus, "--variants", str(inputs / "corpus" / "variants"),
                "--jobs", "2", "--out", str(out / "eval.json")]
    if workload == "fixture":
        return [
            ("augment", ["augment", "--mode", "cross-db", "--samples", samples,
                         "--corpus", corpus, "--seed", str(seed),
                         "--out", str(out / "augment_cross.jsonl")],
             n, ("sqlforge.augmentation", "cross_db_augment")),
            ("augment", ["augment", "--mode", "inner-db", "--samples", samples,
                         "--corpus", corpus, "--seed", str(seed),
                         "--out", str(out / "augment_inner.jsonl")],
             n, ("sqlforge.augmentation", "inner_db_augment")),
            ("eval", evaluate, n, ("sqlforge.metrics", "execute")),
        ]
    if workload == "heavy":
        return [("eval", evaluate + ["--exec-timeout-secs", str(meta["exec_timeout_secs"])],
                 n, ("sqlforge.metrics", "execute"))]
    return [
        ("mine", ["mine", "--samples", samples, "--corpus", corpus, "--endpoint", endpoint,
                  "--n-candidates", str(meta["mine_candidates"]), "--temperature", "0.5",
                  "--out", str(out / "pairs.jsonl")],
         n, ("sqlforge.preference_miner", "mine_pairs")),
        ("refine", ["refine", "--samples", samples, "--corpus", corpus,
                    "--generator", endpoint, "--debugger", endpoint,
                    "--max-iters", str(meta["refine_max_iters"]),
                    "--out", str(out / "refine.jsonl")],
         n, ("sqlforge.refine_agent", "refine_sample")),
    ]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _stub_stats(endpoint: str | None) -> dict:
    if endpoint is None:
        return {}
    base = endpoint.split("/v1/", 1)[0]
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
        return json.load(resp)


def _hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run_pass(cli, cmds, out: Path, reference, tracer=None, endpoint=None) -> dict:
    """One pass over every subcommand. Untraced passes time set-up with a
    first-call probe; traced passes put each ``cli.run`` in a span."""
    stub0 = _stub_stats(endpoint)
    speed0 = reference.speed() if reference else 1.0
    cpu0, t0 = _cpu_s(), time.perf_counter()
    runs = []
    for name, argv, samples, (module, attr) in cmds:
        probe = None if tracer else FirstCall(importlib.import_module(module), attr)
        cpu_start, start = _cpu_s(), time.perf_counter()
        if tracer:
            code = tracer.call("cli.run", cli.run, (argv,), info=lambda a, k, r, c=name: {"cmd": c})
        else:
            code = cli.run(argv)
        end = time.perf_counter()
        if probe:
            probe.restore()
        first = probe.at if probe and probe.at is not None else end
        runs.append({"cmd": name, "exit": code, "samples": samples,
                     "wall_s": end - start, "cpu_s": _cpu_s() - cpu_start,
                     "setup_s": first - start})
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    speed1 = reference.speed() if reference else 1.0
    stub1 = _stub_stats(endpoint)
    return {
        "t0": t0, "wall_s": wall, "cpu_s": cpu, "traced": tracer is not None,
        "speed": (speed0 + speed1) / 2,
        "samples": sum(r["samples"] for r in runs), "runs": runs,
        "stub": {k: stub1[k] - stub0[k] for k in stub1},
        "sha256": _hashes(out),
    }


def probes(inputs: Path) -> dict[str, float]:
    """Calibration: the fixed cost of ``validate("SELECT 1", schema)`` and of
    ``execute(db, "SELECT 1")`` on the workload's databases, median in us."""
    from sqlforge import executor, sql_analysis
    from sqlforge.schema_catalog import corpus_db_path, introspect_database

    db_ids = sorted({json.loads(line)["db_id"]
                     for line in (inputs / "samples.jsonl").read_text().splitlines()})
    reps = max(1, PROBE_CALLS // len(db_ids))
    validate_us, execute_us = [], []
    for db_id in db_ids:
        path = corpus_db_path(inputs / "corpus", db_id)
        schema = introspect_database(path, db_id)
        for _ in range(reps):
            t = time.perf_counter()
            sql_analysis.validate("SELECT 1", schema)
            validate_us.append((time.perf_counter() - t) * 1e6)
            t = time.perf_counter()
            executor.execute(path, "SELECT 1")
            execute_us.append((time.perf_counter() - t) * 1e6)
    return {"sql_analysis.validate.fixed_us": statistics.median(validate_us),
            "executor.execute.fixed_us": statistics.median(execute_us)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--endpoint")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    from sqlforge import cli
    import tracer as tracing

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"sqlforge imported from {cli.__file__}, not {root / 'src'}")

    inputs, out = Path(args.inputs), Path(args.out_dir)
    cmds = commands(args.workload, inputs, out, args.seed, args.endpoint)
    reference = None
    if args.workload in SCALED:
        reference = Reference(out.with_suffix(".ref.sqlite"))
    try:
        result = measure(cli, tracing, cmds, out, reference, args)
    finally:
        if reference:
            reference.close()
    if args.trace:
        result["layers"].update(probes(inputs))
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


def measure(cli, tracing, cmds, out: Path, reference, args) -> dict:
    """The warm-up pass, then passes until ``args.seconds`` have gone by."""
    passes = [run_pass(cli, cmds, out, reference, endpoint=args.endpoint)]  # warm-up
    passes[0]["warmup"] = True
    tracer = tracing.Tracer() if args.trace else None
    # At least this many untraced passes, and as many traced ones when tracing.
    least = MIN_TRACED_PASSES if tracer else MIN_PASSES
    untraced = traced = 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or untraced < least or (tracer and traced < least):
        if tracer and traced < untraced:
            tracer.install()
            try:
                passes.append(run_pass(cli, cmds, out, reference, tracer, args.endpoint))
            finally:
                tracer.uninstall()
            traced += 1
        else:
            passes.append(run_pass(cli, cmds, out, reference, endpoint=args.endpoint))
            untraced += 1

    result = {"sqlforge": str(Path(cli.__file__).parent), "passes": passes,
              "peak_rss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)}
    if tracer:
        views = []
        for p in passes:
            if p["traced"]:
                end = p["t0"] + p["wall_s"]
                spans = [s for s in tracer.spans if p["t0"] <= s.t0 and s.t1 <= end]
                per_cmd: dict[str, int] = {}
                for r in p["runs"]:
                    per_cmd[r["cmd"]] = per_cmd.get(r["cmd"], 0) + r["samples"]
                views.append(tracing.PassView(spans, per_cmd, p["wall_s"], p["stub"]))
        result["layers"] = tracing.layer_metrics(views)
    return result


if __name__ == "__main__":
    sys.exit(main())
