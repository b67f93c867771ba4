"""Seeded input generators for the benchmark workloads.

Each generator writes one self-contained input directory: a corpus laid out
as ``corpus/database/<db_id>/<db_id>.sqlite`` with a two-file variant suite
per database under ``corpus/variants/<db_id>/``, a samples file, and the
labels the output checks compare against. The same seed always gives the
same files. Labels come from the construction of each prediction or stub
answer, and every construction is confirmed against SQLite at generation
time with the comparator below, never with sqlforge itself.
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import sqlite3
from collections import Counter
from pathlib import Path

#: Copies of each of the 10 fixture databases, each under its own db_id.
FIXTURE_COPIES = 9
#: Copies of the fixture corpus the model_stub samples are drawn from.
STUB_COPIES = 2
#: Fixed per-request latency of the chat-completions stub.
STUB_LATENCY_MS = 20
MINE_CANDIDATES = 8
REFINE_MAX_ITERS = 3

HEAVY_ROWS = {
    "regions": 12,
    "categories": 24,
    "customers": 6_000,
    "products": 800,
    "orders": 30_000,
    "order_items": 100_000,
}
#: The one heavy prediction that must hit the eval timeout.
HEAVY_TIMEOUT_SQL = (
    "SELECT count(*) FROM order_items AS a, order_items AS b "
    "WHERE a.qty + b.qty < 0"
)
HEAVY_EXEC_TIMEOUT_SECS = 1.0

HEAVY_DDL = [
    "CREATE TABLE regions(region_id INTEGER PRIMARY KEY, rname TEXT)",
    "CREATE TABLE categories(category_id INTEGER PRIMARY KEY, cname TEXT)",
    """CREATE TABLE customers(customer_id INTEGER PRIMARY KEY,
        region_id INTEGER REFERENCES regions(region_id),
        segment TEXT, signup_year INTEGER)""",
    """CREATE TABLE products(product_id INTEGER PRIMARY KEY,
        category_id INTEGER REFERENCES categories(category_id), price REAL)""",
    """CREATE TABLE orders(order_id INTEGER PRIMARY KEY,
        customer_id INTEGER REFERENCES customers(customer_id), order_year INTEGER)""",
    """CREATE TABLE order_items(item_id INTEGER PRIMARY KEY,
        order_id INTEGER REFERENCES orders(order_id),
        product_id INTEGER REFERENCES products(product_id),
        qty INTEGER, amount REAL)""",
]

# Data-only perturbation of heavy variant 1: every gold query still
# executes, and every gold result differs from the base database.
HEAVY_PERTURB = [
    "UPDATE order_items SET qty = qty + 1 WHERE item_id % 53 = 0",
    "UPDATE orders SET order_year = order_year + 1 WHERE order_id % 37 = 0 "
    "AND order_year < 2023",
    "UPDATE order_items SET amount = amount + 0.5 WHERE item_id % 31 = 0",
    "INSERT INTO orders SELECT order_id + 1000000, customer_id, order_year "
    "FROM orders WHERE order_id % 41 = 0",
    "INSERT INTO order_items SELECT item_id + 1000000, order_id, product_id, 1, amount "
    "FROM order_items WHERE item_id % 47 = 0",
]

#: (question, gold SQL). Multi-way joins with GROUP BY, a top-level
#: ORDER BY ... LIMIT, results of tens of thousands of rows, and a float
#: aggregate whose rewrite sums in another order.
HEAVY_GOLDS = [
    ("Total quantity sold per region name.",
     "SELECT r.rname, sum(oi.qty) FROM order_items AS oi "
     "JOIN orders AS o ON oi.order_id = o.order_id "
     "JOIN customers AS c ON o.customer_id = c.customer_id "
     "JOIN regions AS r ON c.region_id = r.region_id GROUP BY r.rname"),
    ("Average line amount per category name.",
     "SELECT cat.cname, avg(oi.amount) FROM order_items AS oi "
     "JOIN products AS p ON oi.product_id = p.product_id "
     "JOIN categories AS cat ON p.category_id = cat.category_id "
     "GROUP BY cat.cname"),
    ("The 20 customers who bought the most units, most first.",
     "SELECT o.customer_id, sum(oi.qty) AS units FROM order_items AS oi "
     "JOIN orders AS o ON oi.order_id = o.order_id "
     "GROUP BY o.customer_id ORDER BY units DESC, o.customer_id LIMIT 20"),
    ("Single-unit order lines with their product category.",
     "SELECT oi.item_id, p.category_id FROM order_items AS oi "
     "JOIN products AS p ON oi.product_id = p.product_id WHERE oi.qty = 1"),
]
#: Gold-equivalent rewrite of the float aggregate: same value, other
#: summation, so only the tolerant row comparison accepts it.
HEAVY_FLOAT_REWRITE = (
    "SELECT cat.cname, sum(oi.amount) / count(*) FROM order_items AS oi "
    "JOIN products AS p ON oi.product_id = p.product_id "
    "JOIN categories AS cat ON p.category_id = cat.category_id "
    "GROUP BY cat.cname"
)

FIXTURE_KINDS = [
    "gold", "rewrite", "wrong", "lucky", "syntax", "wrong_table",
    "wrong_column", "missing_quotation", "missing",
]
HEAVY_KINDS = ["gold", "rewrite", "wrong", "lucky"]
REFINE_KINDS = ["direct"] * 4 + ["fix1"] * 3 + ["fix2"] * 2 + ["fail"]


# --- oracle -----------------------------------------------------------------


def _cell(value):
    if isinstance(value, float):
        if value == int(value):
            return int(value)
        return float(f"{value:.9g}")
    return value


def query(db_path: Path, sql: str) -> list[tuple]:
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        return [tuple(_cell(c) for c in row) for row in conn.execute(sql)]
    finally:
        conn.close()


class Oracle:
    """Result rows of (database, SQL), each query run once per generation."""

    def __init__(self):
        self._rows: dict[tuple[str, str], list[tuple]] = {}

    def __call__(self, db_path: Path, sql: str) -> list[tuple]:
        key = (str(db_path), sql)
        if key not in self._rows:
            self._rows[key] = query(db_path, sql)
        return self._rows[key]


def same_rows(a: list[tuple], b: list[tuple]) -> bool:
    """Equal as ordered lists, hence equal under either EX comparison."""
    return a == b


def differ_rows(a: list[tuple], b: list[tuple]) -> bool:
    """Unequal as multisets, hence unequal under either EX comparison."""
    return Counter(a) != Counter(b)


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def values_sql(rows: list[tuple]) -> str:
    return "VALUES " + ", ".join(
        "(" + ", ".join(_literal(c) for c in row) + ")" for row in rows
    )


# --- corpus helpers ---------------------------------------------------------


def _db_path(corpus: Path, db_id: str) -> Path:
    return corpus / "database" / db_id / f"{db_id}.sqlite"


def _suite(corpus: Path, db_id: str) -> list[Path]:
    return [corpus / "variants" / db_id / f"{i}.sqlite" for i in (0, 1)]


def _load_corpus_builder(root: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_corpus_builder", root / "tests" / "corpus_builder.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_fixture(root: Path, dest: Path, copies: int) -> tuple[Path, list[dict]]:
    """The fixture corpus, every database copied under ``copies`` db_ids.
    Returns the corpus root and the records of all copied samples."""
    builder = _load_corpus_builder(root)
    base = dest / "_fixture"
    builder.build_corpus(base)
    corpus = dest / "corpus"
    base_ids = sorted(p.name for p in (base / "database").iterdir())
    for db_id in base_ids:
        for k in range(copies):
            new_id = f"{db_id}_{k:02d}"
            target = _db_path(corpus, new_id)
            target.parent.mkdir(parents=True)
            shutil.copyfile(_db_path(base, db_id), target)
            for src, dst in zip(_suite(base, db_id), _suite(corpus, new_id)):
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)
    records = []
    for k in range(copies):
        for rec in builder.make_sample_records():
            records.append(
                {
                    "sample_id": f"c{k:02d}{rec['sample_id']}",
                    "db_id": f"{rec['db_id']}_{k:02d}",
                    "question": rec["question"],
                    "gold_sql": rec["gold_sql"],
                }
            )
    shutil.rmtree(base)
    return corpus, records


def _table_names(db_path: Path) -> list[str]:
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        return [
            r[0]
            for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' ORDER BY rowid"
            )
        ]
    finally:
        conn.close()


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# --- eval predictions -------------------------------------------------------


def _wrap(gold: str) -> str:
    return f"SELECT * FROM ({gold})"


def _double(gold: str) -> str:
    return f"SELECT * FROM ({gold}) UNION ALL SELECT * FROM ({gold})"


def _prediction(kind: str, gold: str, corpus: Path, db_id: str,
                rows: Oracle) -> tuple[str | None, bool, bool] | None:
    """(predicted SQL, expected EX, expected TS) for one construction, or
    None when the construction does not apply to this sample."""
    base = _db_path(corpus, db_id)
    suite = _suite(corpus, db_id)
    gold_rows = rows(base, gold)
    if kind == "gold":
        return gold, True, True
    if kind == "rewrite":
        ok = all(same_rows(rows(p, _wrap(gold)), rows(p, gold)) for p in [base, *suite])
        return (_wrap(gold), True, True) if ok else None
    if kind == "wrong":
        return (_double(gold), False, False) if gold_rows else None
    if kind == "lucky":
        # Reproduces the base result; the perturbed variant exposes it.
        pred = values_sql(gold_rows) if len(gold_rows) <= 50 else (
            f"SELECT * FROM ({gold}) LIMIT {len(gold_rows)}"
        )
        if not gold_rows or not same_rows(rows(base, pred), gold_rows):
            return None
        if not differ_rows(rows(suite[1], pred), rows(suite[1], gold)):
            return None
        return pred, True, False
    if kind == "syntax":
        return "SELEC" + gold[len("SELECT"):], False, False
    if kind == "wrong_table":
        return "SELECT * FROM no_such_table", False, False
    if kind == "wrong_column":
        return f"SELECT no_such_column FROM {_table_names(base)[0]}", False, False
    if kind == "missing_quotation":
        if "stops" not in _table_names(base):
            return None
        return "SELECT free text FROM stops", False, False
    if kind == "missing":
        return None, False, False
    raise ValueError(kind)


def _assign(records: list[dict], kinds: list[str], corpus: Path, rng: random.Random,
            group_key) -> tuple[list[dict], dict]:
    """Spread the applicable kinds over the samples of each group (one base
    sample and its copies) in a seeded order. The mix of kinds, and so the
    work, is the same for every seed."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(group_key(rec), []).append(rec)
    preds, labels = [], {}
    oracle = Oracle()
    for key in sorted(groups):
        members = groups[key]
        head = members[0]
        options = {}
        for kind in kinds:
            made = _prediction(kind, head["gold_sql"], corpus, head["db_id"], oracle)
            if made is not None:
                options[kind] = made
        order = sorted(options)
        spread = [order[i % len(order)] for i in range(len(members))]
        rng.shuffle(spread)
        for rec, kind in zip(members, spread):
            sql, ex, ts = options[kind]
            if sql is not None:
                preds.append({"sample_id": rec["sample_id"], "sql": sql})
            labels[rec["sample_id"]] = {"kind": kind, "ex": ex, "ts": ts}
    preds.sort(key=lambda p: p["sample_id"])
    return preds, labels


# --- workloads ----------------------------------------------------------------


def make_fixture(root: Path, dest: Path, seed: int) -> dict:
    rng = random.Random(f"fixture:{seed}")
    corpus, records = _copy_fixture(root, dest, FIXTURE_COPIES)
    preds, labels = _assign(records, FIXTURE_KINDS, corpus, rng,
                            group_key=lambda r: r["sample_id"][3:])
    rng.shuffle(records)
    _write_jsonl(dest / "samples.jsonl", records)
    _write_jsonl(dest / "preds.jsonl", preds)
    _write_json(dest / "labels.json", {"eval": labels})
    return {
        "samples": len(records),
        "db_ids": len({r["db_id"] for r in records}),
        "suite_size": 2,
        "kinds": dict(sorted(Counter(v["kind"] for v in labels.values()).items())),
    }


def _build_heavy_db(path: Path, rng: random.Random) -> None:
    n = HEAVY_ROWS
    conn = sqlite3.connect(path)
    with conn:
        for ddl in HEAVY_DDL:
            conn.execute(ddl)
        conn.executemany("INSERT INTO regions VALUES (?, ?)",
                         ((i, f"region-{i:02d}") for i in range(1, n["regions"] + 1)))
        conn.executemany("INSERT INTO categories VALUES (?, ?)",
                         ((i, f"cat-{i:02d}") for i in range(1, n["categories"] + 1)))
        conn.executemany(
            "INSERT INTO customers VALUES (?, ?, ?, ?)",
            ((i, rng.randint(1, n["regions"]), rng.choice("ABCD"), rng.randint(2010, 2023))
             for i in range(1, n["customers"] + 1)),
        )
        conn.executemany(
            "INSERT INTO products VALUES (?, ?, ?)",
            ((i, rng.randint(1, n["categories"]), round(rng.uniform(0.5, 200.0), 2))
             for i in range(1, n["products"] + 1)),
        )
        conn.executemany(
            "INSERT INTO orders VALUES (?, ?, ?)",
            ((i, rng.randint(1, n["customers"]), rng.randint(2014, 2023))
             for i in range(1, n["orders"] + 1)),
        )
        conn.executemany(
            "INSERT INTO order_items VALUES (?, ?, ?, ?, ?)",
            ((i, rng.randint(1, n["orders"]), rng.randint(1, n["products"]),
              rng.randint(1, 5), round(rng.uniform(1.0, 500.0), 2))
             for i in range(1, n["order_items"] + 1)),
        )
    conn.close()


def make_heavy(root: Path, dest: Path, seed: int) -> dict:
    rng = random.Random(f"heavy:{seed}")
    corpus = dest / "corpus"
    db_id = "sales"
    base = _db_path(corpus, db_id)
    base.parent.mkdir(parents=True)
    _build_heavy_db(base, rng)
    suite = _suite(corpus, db_id)
    suite[0].parent.mkdir(parents=True)
    for path in suite:
        shutil.copyfile(base, path)
    conn = sqlite3.connect(suite[1])
    with conn:
        for stmt in HEAVY_PERTURB:
            conn.execute(stmt)
    conn.close()

    records = []
    for t, (question, gold) in enumerate(HEAVY_GOLDS):
        for k in range(len(HEAVY_KINDS)):
            records.append({"sample_id": f"h{t}{k}", "db_id": db_id,
                            "question": question, "gold_sql": gold})
    preds, labels = _assign(records, HEAVY_KINDS, corpus, rng,
                            group_key=lambda r: r["sample_id"][:2])
    # A fixed processing order of (gold, kind) pairs for every seed: which
    # costly queries meet on eval's two threads moves a pass by ~15 %.
    rank = {kind: i for i, kind in enumerate(HEAVY_KINDS)}
    records.sort(key=lambda r: (r["sample_id"][:2], rank[labels[r["sample_id"]]["kind"]]))
    float_gold = HEAVY_GOLDS[1][1]
    if all(same_rows(query(p, HEAVY_FLOAT_REWRITE), query(p, float_gold))
           for p in [base, *suite]):
        for pred in preds:
            if pred["sql"] == _wrap(float_gold):
                pred["sql"] = HEAVY_FLOAT_REWRITE
    # The timeout sample leads the file, so its wait overlaps the others.
    timeout_rec = {"sample_id": "h00t", "db_id": db_id,
                   "question": "Count impossible pairs of order lines.",
                   "gold_sql": "SELECT count(*) FROM order_items WHERE qty < 0"}
    records.insert(0, timeout_rec)
    preds.insert(0, {"sample_id": "h00t", "sql": HEAVY_TIMEOUT_SQL})
    labels["h00t"] = {"kind": "timeout", "ex": False, "ts": False}
    _write_jsonl(dest / "samples.jsonl", records)
    _write_jsonl(dest / "preds.jsonl", preds)
    _write_json(dest / "labels.json", {"eval": labels})
    return {
        "samples": len(records),
        "db_ids": 1,
        "suite_size": len(suite),
        "rows": dict(HEAVY_ROWS),
        "exec_timeout_secs": HEAVY_EXEC_TIMEOUT_SECS,
        "kinds": dict(sorted(Counter(v["kind"] for v in labels.values()).items())),
    }


def _fence(sql: str) -> str:
    return f"```sql\n{sql};\n```"


def _mine_candidates(gold: str, corpus: Path, db_id: str, empty: bool,
                     rng: random.Random) -> tuple[list[str], list[list[str]]]:
    """Completions for one mine request and the (rejected SQL, reason)
    pairs they must yield, in order."""
    base = _db_path(corpus, db_id)
    gold_rows = query(base, gold)
    if not gold_rows or not same_rows(query(base, _wrap(gold)), gold_rows):
        raise ValueError(f"no mine constructions for {gold!r}")
    equal, mismatch, error = "equal", "result_mismatch", "exec_error"
    # (completion, SQL it holds, expected verdict)
    if empty:
        made = [(_wrap(gold), equal), (gold, equal), (_wrap(gold), equal),
                (gold.replace(" ", "  "), equal), (_wrap(gold), equal),
                (gold, equal), (_wrap(gold), equal), (gold, equal)]
    else:
        made = [(_wrap(gold), equal), (gold, equal), (_double(gold), mismatch),
                (_double(gold), mismatch), (f"SELECT * FROM ({gold}) LIMIT 0", mismatch),
                (f"SELECT no_such_column FROM ({gold})", error),
                ("SELEC" + gold[len("SELECT"):], error), (gold.replace(" ", "  "), equal)]
    rng.shuffle(made)
    completions, pairs, seen = [], [], set()
    gold_norm = " ".join(gold.split())
    for i, (sql, verdict) in enumerate(made):
        completions.append(_fence(sql) if i % 2 else sql)
        norm = " ".join(sql.split())
        if verdict == equal or norm == gold_norm or norm in seen:
            continue
        seen.add(norm)
        pairs.append([sql, verdict])
    return completions, pairs


def make_model_stub(root: Path, dest: Path, seed: int) -> dict:
    rng = random.Random(f"model_stub:{seed}")
    corpus, all_records = _copy_fixture(root, dest, STUB_COPIES)
    # Every fixture question once, each on a seeded copy of its database:
    # the same work for every seed.
    copies: dict[str, list[dict]] = {}
    for rec in all_records:
        copies.setdefault(rec["sample_id"][3:], []).append(rec)
    records = sorted((rng.choice(recs) for _, recs in sorted(copies.items())),
                     key=lambda r: r["sample_id"])
    for rec in records:
        rec["question"] = f"[{rec['sample_id']}] {rec['question']}"
        if not query(_db_path(corpus, rec["db_id"]), rec["gold_sql"]):
            raise ValueError(f"{rec['sample_id']}: gold result is empty")
    empty = set(r["sample_id"] for r in rng.sample(records, len(records) // 8))
    refine_kinds = (REFINE_KINDS * (len(records) // len(REFINE_KINDS) + 1))[:len(records)]
    rng.shuffle(refine_kinds)

    mine, refine, mine_labels, refine_labels = {}, {}, {}, {}
    for i, (rec, kind) in enumerate(zip(records, refine_kinds)):
        sid, gold = rec["sample_id"], rec["gold_sql"]
        completions, pairs = _mine_candidates(gold, corpus, rec["db_id"], sid in empty, rng)
        mine[sid] = completions
        mine_labels[sid] = pairs
        bad = [f"SELECT count(*) FROM ghost_table_{i}",  # WrongTableName
               f"SELECT abs(-9223372036854775808) + {i}",  # fails only at run time
               f"SELEC {i} FROM ghost_{i}"]  # SyntaxError
        if kind == "direct":
            answer, fixes, final = _fence(gold), {}, gold
        elif kind == "fix1":
            answer, fixes, final = bad[0], {bad[0]: gold}, gold
        elif kind == "fix2":
            answer, fixes, final = bad[0], {bad[0]: bad[1], bad[1]: _fence(gold)}, gold
        else:
            answer, fixes, final = bad[0], {bad[0]: bad[1], bad[1]: bad[2]}, bad[2]
        refine[sid] = {"answer": answer, "fixes": fixes}
        refine_labels[sid] = {"kind": kind, "final_sql": final}
    _write_jsonl(dest / "samples.jsonl", records)
    _write_json(dest / "stub_script.json", {"mine": mine, "refine": refine})
    _write_json(dest / "labels.json", {"mine": mine_labels, "refine": refine_labels})
    return {
        "samples": len(records),
        "db_ids": len({r["db_id"] for r in records}),
        "corpus_db_ids": len(list((corpus / "database").iterdir())),
        "stub_latency_ms": STUB_LATENCY_MS,
        "mine_candidates": MINE_CANDIDATES,
        "refine_max_iters": REFINE_MAX_ITERS,
        "mine_empty_samples": len(empty),
        "refine_kinds": dict(sorted(Counter(refine_kinds).items())),
    }


GENERATORS = {"fixture": make_fixture, "heavy": make_heavy, "model_stub": make_model_stub}


def ensure_inputs(root: Path, cache: Path, workload: str, seed: int) -> Path:
    """The input directory for (workload, seed), generated on first use and
    reused afterwards."""
    final = cache / f"{workload}-{seed}"
    if (final / "meta.json").exists():
        return final
    tmp = cache / f".tmp-{workload}-{seed}-{random.getrandbits(32):08x}"
    tmp.mkdir(parents=True)
    try:
        meta = GENERATORS[workload](root, tmp, seed)
        _write_json(tmp / "meta.json", {"workload": workload, "seed": seed, **meta})
        try:
            tmp.rename(final)
        except OSError:
            if not (final / "meta.json").exists():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final
