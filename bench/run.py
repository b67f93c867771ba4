"""sqlforge benchmark: one command per workload run.

    python3 bench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

Generates (or reuses) the seeded inputs under ``.bench_data/``, starts the
chat-completions stub when the workload needs one, runs the workload in a
fresh worker process, checks every output against the generator's labels,
writes a run record, and prints the metrics. The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs as gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / ".bench_data"
WORKLOADS = ("fixture", "heavy", "model_stub")
#: Input directories kept per workload; older seeds are deleted.
KEEP_SEEDS = 3
RUN_LIMIT_S = 170


# --- output checks ---------------------------------------------------------


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _prompt_tables(prompt: str) -> list[tuple[str, list[str]]]:
    tables = []
    for match in re.finditer(r"^CREATE TABLE (.+?)\((.*)\);$", prompt, re.M):
        tables.append((match.group(1), match.group(2).split(", ")))
    return tables


def _compiles(sql: str, tables: list[tuple[str, list[str]]]) -> bool:
    conn = sqlite3.connect(":memory:")
    try:
        for name, cols in tables:
            quoted = ", ".join('"' + c.replace('"', '""') + '"' for c in cols)
            conn.execute(f'CREATE TABLE "{name}"({quoted})')
        conn.execute(f"EXPLAIN {sql}")
        return True
    except sqlite3.Error:
        return False
    finally:
        conn.close()


def check_outputs(workload: str, inputs: Path, out: Path) -> dict[str, list[str]]:
    """Failure causes per sample, for the outputs of one pass."""
    labels = json.loads((inputs / "labels.json").read_text())
    samples = {r["sample_id"]: r for r in _jsonl(inputs / "samples.jsonl")}
    failures: dict[str, list[str]] = defaultdict(list)

    if workload in ("fixture", "heavy"):
        report = out / "eval.json"
        verdicts = ({v["sample_id"]: v for v in json.loads(report.read_text())["verdicts"]}
                    if report.exists() else {})
        for sid, label in labels["eval"].items():
            v = verdicts.get(sid)
            if v is None:
                failures[sid].append("eval: no verdict")
            elif (v["ex_match"], v["ts_match"]) != (label["ex"], label["ts"]):
                failures[sid].append(
                    f"eval {label['kind']}: EX/TS {v['ex_match']}/{v['ts_match']}, "
                    f"expected {label['ex']}/{label['ts']}")
    if workload == "fixture":
        for mode in ("cross", "inner"):
            records = {r["sample_id"]: r for r in _jsonl(out / f"augment_{mode}.jsonl")}
            for sid, sample in samples.items():
                rec = records.get(sid)
                if rec is None or rec["completion"] != sample["gold_sql"]:
                    failures[sid].append(f"augment {mode}: record missing or wrong completion")
                    continue
                prov = rec["provenance"]
                if mode == "cross" and prov["kind"] == "cross_db" and (
                        sample["db_id"] in prov["source_db_ids"]
                        or not 1 <= len(prov["inserted_tables"]) <= 3):
                    failures[sid].append(f"augment cross: bad provenance {prov}")
                if mode == "inner" and not _compiles(sample["gold_sql"],
                                                     _prompt_tables(rec["prompt"])):
                    failures[sid].append("augment inner: gold no longer compiles on the prompt schema")
    if workload == "model_stub":
        pairs = defaultdict(list)
        for rec in _jsonl(out / "pairs.jsonl"):
            pairs[rec["sample_id"]].append(rec)
        for sid, expected in labels["mine"].items():
            got = [[p["rejected"], p["rejected_reason"]] for p in pairs.get(sid, [])]
            if got != expected or any(p["chosen"] != samples[sid]["gold_sql"]
                                      for p in pairs.get(sid, [])):
                failures[sid].append(f"mine: pairs {got}, expected {expected}")
        finals = {r["sample_id"]: r["sql"] for r in _jsonl(out / "refine.jsonl")}
        for sid, label in labels["refine"].items():
            if finals.get(sid) != label["final_sql"]:
                failures[sid].append(
                    f"refine {label['kind']}: final {finals.get(sid)!r}, "
                    f"expected {label['final_sql']!r}")
    return dict(failures)


# --- metrics -----------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "cpu_ms_per_sample": "ms",
             "peak_rss_mb": "MB"}
THROUGHPUT = {"augment": "augment_samples_per_s", "eval": "eval_samples_per_s",
              "mine": "mine_samples_per_s", "refine": "refine_samples_per_s"}


def _med(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _speed(p: dict, scaled: bool) -> float:
    """How much faster than nominal the machine ran around pass ``p``."""
    return p["speed"] if scaled else 1.0


def _wall(r: dict, speed: float) -> float:
    """A subcommand's wall time with its CPU-bound part rescaled to the
    nominal machine speed; waiting (the model stub's sleep) is kept."""
    return r["wall_s"] - min(r["wall_s"], r["cpu_s"]) * (1.0 - speed)


def end_to_end(passes: list[dict], peak_rss_kb: int, scaled: bool = True) -> dict[str, float]:
    def per_pass(fn) -> float:
        return _med([fn(p, _speed(p, scaled)) for p in passes])

    return {
        "setup_s": per_pass(lambda p, k: k * sum(r["setup_s"] for r in p["runs"])),
        "samples_per_s": per_pass(lambda p, k: p["samples"] / sum(_wall(r, k) for r in p["runs"])),
        "cpu_ms_per_sample": per_pass(lambda p, k: 1e3 * k * p["cpu_s"] / p["samples"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def throughputs(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    out = {}
    for cmd, name in THROUGHPUT.items():
        rates = []
        for p in passes:
            runs = [r for r in p["runs"] if r["cmd"] == cmd]
            if runs:
                k = _speed(p, scaled)
                rates.append(sum(r["samples"] for r in runs) / sum(_wall(r, k) for r in runs))
        out[name] = _med(rates)
    return out


# --- processes ---------------------------------------------------------------


def _start_stub(inputs: Path) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "stub.py"), "--script", str(inputs / "stub_script.json"),
         "--latency-ms", str(gen.STUB_LATENCY_MS)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    port = proc.stdout.readline().strip()
    if not port.isdigit():
        _stop(proc)
        raise SystemExit("stub did not start")
    return proc, f"http://127.0.0.1:{port}/v1/chat/completions"


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _prune(workload: str, keep: Path) -> None:
    dirs = sorted((DATA / "inputs").glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for old in [d for d in dirs if d != keep][: max(0, len(dirs) - KEEP_SEEDS)]:
        shutil.rmtree(old, ignore_errors=True)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _ts_suite_share(workload: str, inputs: Path) -> float:
    """Share of the eval samples whose database has a TS variant suite."""
    if workload not in ("fixture", "heavy"):
        return 0.0
    samples = _jsonl(inputs / "samples.jsonl")
    suites = inputs / "corpus" / "variants"
    return sum(1 for r in samples if any((suites / r["db_id"]).glob("*.sqlite"))) / len(samples)


def _run_worker(args, inputs: Path, out: Path, result_path: Path, started: float) -> dict | None:
    """Run the workload in a fresh worker process, with the stub up when the
    workload needs it. The worker's result, or None if it failed."""
    stub, endpoint = None, None
    try:
        if args.workload == "model_stub":
            stub, endpoint = _start_stub(inputs)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--workload", args.workload, "--inputs", str(inputs), "--out-dir", str(out),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path)]
        if endpoint:
            cmd += ["--endpoint", endpoint]
        worker = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_LIMIT_S - (time.monotonic() - started))
    finally:
        if stub is not None:
            _stop(stub)
    if worker.returncode != 0:
        print(worker.stderr[-4000:], file=sys.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def _count_failures(passes: list[dict], failures: dict[str, list[str]]) -> tuple[int, int]:
    """(attempted, failed) sample operations over every pass. ``failures``
    are the checks that failed on the last pass; a pass whose output hashes
    differ from the last pass's fails as a whole."""
    hashes = passes[-1]["sha256"]
    attempted = failed = 0
    for p in passes:
        attempted += p["samples"]
        if p["sha256"] != hashes:
            failed += p["samples"]
            continue
        failed += sum(len(causes) for causes in failures.values())
        failed += sum(r["samples"] for r in p["runs"] if r["exit"] != 0)
        failed += p["stub"].get("errors", 0)
    return attempted, min(failed, attempted)


def main() -> int:
    parser = argparse.ArgumentParser(description="sqlforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.monotonic()

    for needed in (ROOT / "src" / "sqlforge" / "cli.py", ROOT / "tests" / "corpus_builder.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a sqlforge checkout", file=sys.stderr)
            return 2

    inputs = gen.ensure_inputs(ROOT, DATA / "inputs", args.workload, args.seed)
    os.utime(inputs)
    _prune(args.workload, inputs)
    out = DATA / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out.with_suffix(".json")
    try:
        result = _run_worker(args, inputs, out, result_path, started)
        if result is None:
            return 1
        failures = check_outputs(args.workload, inputs, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    passes = result["passes"]
    attempted, failed = _count_failures(passes, failures)
    error_rate = failed / attempted
    untraced = [p for p in passes if not p.get("warmup") and not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        overhead = (_med([p["wall_s"] for p in traced]) / _med([p["wall_s"] for p in untraced])
                    - 1.0)
        metrics = {**result["layers"], **throughputs(untraced), "error_rate": error_rate,
                   "workload.ts_suite_share": _ts_suite_share(args.workload, inputs),
                   "trace.overhead_share": overhead}
    else:
        metrics = end_to_end(untraced, result["peak_rss_kb"])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"git_sha": _git_sha(), "nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "sqlite": sqlite3.sqlite_version, "sqlforge": result["sqlforge"]},
        "inputs": json.loads((inputs / "meta.json").read_text()),
        "metrics": metrics,
        "throughput": throughputs(untraced),
        "unscaled": {**end_to_end(untraced, result["peak_rss_kb"], scaled=False),
                     **throughputs(untraced, scaled=False)},
        "machine_speed": _med([p["speed"] for p in untraced]),
        "error_rate": error_rate, "attempted": attempted, "failed": failed,
        "failures": failures,
        "output_sha256": passes[-1]["sha256"],
        "passes": [{k: v for k, v in p.items() if k != "sha256"} for p in passes],
    }
    records = DATA / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} traced, samples/pass={passes[0]['samples']}")
    for name, value in sorted({**metrics, **record["throughput"]}.items()):
        print(f"  {name:<52} {value:.6g} {unit(name)}")
    print(f"  machine speed vs nominal {record['machine_speed']:.3f}; unscaled:")
    for name, value in sorted(record["unscaled"].items()):
        print(f"    {name:<50} {value:.6g} {unit(name)}")
    print(f"  error_rate {error_rate:.6g} ({failed}/{attempted})")
    for sid, causes in sorted(failures.items()):
        print(f"  FAIL {sid}: {'; '.join(causes)}")
    for name, digest in sorted(record["output_sha256"].items()):
        print(f"  sha256 {name} {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    """The unit of a metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, symbol in (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                           ("_share", "share"), ("error_rate", "share"), ("_pct", "%"),
                           ("concurrency", "ratio"), ("_per_db", "ratio"),
                           ("_per_sample", "ratio"), ("_per_call", "ratio"),
                           ("_per_execution", "ratio")):
        if name.endswith(suffix):
            return symbol
    return "count"


if __name__ == "__main__":
    sys.exit(main())
