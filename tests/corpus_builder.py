"""Builds the fixture corpus used across the test suite: 10 small SQLite
databases laid out corpus-style, a variant suite per database, and exactly
50 (question, gold SQL) samples."""

from __future__ import annotations

import json
import shutil
import sqlite3
from pathlib import Path

DDL: dict[str, list[str]] = {
    "concert_singer": [
        """CREATE TABLE stadium(
            Stadium_ID INTEGER PRIMARY KEY, Location TEXT, Name TEXT,
            Capacity INTEGER, Highest INTEGER, Lowest INTEGER, Average INTEGER)""",
        """CREATE TABLE singer(
            Singer_ID INTEGER PRIMARY KEY, Name TEXT, Country TEXT,
            Song_Name TEXT, Song_release_year TEXT, Age INTEGER, Is_male TEXT)""",
        """CREATE TABLE concert(
            concert_ID INTEGER PRIMARY KEY, concert_Name TEXT, Theme TEXT,
            Stadium_ID INTEGER REFERENCES stadium(Stadium_ID), Year INTEGER)""",
        """CREATE TABLE singer_in_concert(
            concert_ID INTEGER REFERENCES concert(concert_ID),
            Singer_ID INTEGER REFERENCES singer(Singer_ID))""",
    ],
    "soccer_tryout": [
        """CREATE TABLE tryout(
            pid INTEGER REFERENCES player(pid),
            cname TEXT REFERENCES college(cname),
            decision TEXT, ppos TEXT)""",
        """CREATE TABLE player(
            hs INTEGER, pname TEXT, ycard TEXT, pid INTEGER PRIMARY KEY)""",
        """CREATE TABLE college(
            cname TEXT PRIMARY KEY, enr INTEGER, state TEXT)""",
    ],
    "transit": [
        """CREATE TABLE stops(
            id INTEGER PRIMARY KEY, "free text" TEXT, name TEXT)""",
        """CREATE TABLE routes(
            route_id INTEGER PRIMARY KEY,
            stop_id INTEGER REFERENCES stops(id))""",
    ],
    "warehouse": [
        "CREATE TABLE regions(region_id INTEGER PRIMARY KEY, rname TEXT)",
        """CREATE TABLE depots(depot_id INTEGER PRIMARY KEY,
            region_id INTEGER REFERENCES regions(region_id), dname TEXT)""",
        """CREATE TABLE shelves(shelf_id INTEGER PRIMARY KEY,
            depot_id INTEGER REFERENCES depots(depot_id))""",
        """CREATE TABLE bins(bin_id INTEGER PRIMARY KEY,
            shelf_id INTEGER REFERENCES shelves(shelf_id))""",
        "CREATE TABLE suppliers(supplier_id INTEGER PRIMARY KEY, sname TEXT)",
        """CREATE TABLE items(item_id INTEGER PRIMARY KEY, iname TEXT,
            weight REAL, supplier_id INTEGER REFERENCES suppliers(supplier_id))""",
        """CREATE TABLE shipments(shipment_id INTEGER PRIMARY KEY,
            item_id INTEGER REFERENCES items(item_id), qty INTEGER)""",
        """CREATE TABLE wh_orders(wh_order_id INTEGER PRIMARY KEY,
            item_id INTEGER REFERENCES items(item_id), qty INTEGER)""",
        """CREATE TABLE staff(staff_id INTEGER PRIMARY KEY, staff_name TEXT,
            depot_id INTEGER REFERENCES depots(depot_id))""",
    ],
    "wide_metrics": [
        "CREATE TABLE devices(device_id INTEGER PRIMARY KEY, dname TEXT)",
        """CREATE TABLE readings(reading_id INTEGER PRIMARY KEY,
            device_id INTEGER REFERENCES devices(device_id),
            m01 REAL, m02 REAL, m03 REAL, m04 REAL, m05 REAL, m06 REAL,
            m07 REAL, m08 REAL, m09 REAL, m10 REAL, m11 REAL, m12 REAL)""",
    ],
    "shop": [
        "CREATE TABLE customers(customer_id INTEGER PRIMARY KEY, name TEXT, city TEXT)",
        """CREATE TABLE orders(order_id INTEGER PRIMARY KEY,
            customer_id INTEGER REFERENCES customers(customer_id), total REAL)""",
    ],
    "store": [
        "CREATE TABLE products(product_id INTEGER PRIMARY KEY, pname TEXT, price REAL)",
        """CREATE TABLE sales(sale_id INTEGER PRIMARY KEY,
            product_id INTEGER REFERENCES products(product_id),
            customer_id INTEGER, qty INTEGER)""",
    ],
    "school": [
        "CREATE TABLE students(student_id INTEGER PRIMARY KEY, sname TEXT, age INTEGER)",
        """CREATE TABLE enrollments(
            student_id INTEGER REFERENCES students(student_id), course_id INTEGER)""",
    ],
    "hr": [
        "CREATE TABLE departments(dept_id INTEGER PRIMARY KEY, dname TEXT)",
        """CREATE TABLE employees(employee_id INTEGER PRIMARY KEY, ename TEXT,
            dept_id INTEGER REFERENCES departments(dept_id))""",
    ],
    "flights": [
        "CREATE TABLE airports(airport_id INTEGER PRIMARY KEY, code TEXT, city TEXT)",
        """CREATE TABLE flights(flight_id INTEGER PRIMARY KEY,
            src_id INTEGER REFERENCES airports(airport_id),
            dst_id INTEGER REFERENCES airports(airport_id))""",
    ],
}

SEED: dict[str, list[str]] = {
    "concert_singer": [
        "INSERT INTO stadium VALUES (1,'East','Stark Park',5000,1200,300,700)",
        "INSERT INTO stadium VALUES (2,'West','Bute Field',3000,900,200,500)",
        "INSERT INTO stadium VALUES (3,'North','Ayr Arena',10000,2200,600,1300)",
        "INSERT INTO singer VALUES (1,'Joe Sharp','Netherlands','You','1992',52,'F')",
        "INSERT INTO singer VALUES (2,'Timbaland','United States','Dangerous','2008',32,'T')",
        "INSERT INTO singer VALUES (3,'Justin Brown','France','Hey Oh','2013',29,'T')",
        "INSERT INTO singer VALUES (4,'Rose White','France','Sun','2003',41,'F')",
        "INSERT INTO singer VALUES (5,'John Nizinik','France','Gentleman','2014',43,'T')",
        "INSERT INTO singer VALUES (6,'Tribal King','France','Love','2016',25,'T')",
        "INSERT INTO concert VALUES (1,'Auditions','Free choice',1,2014)",
        "INSERT INTO concert VALUES (2,'Super bootcamp','Free choice 2',2,2014)",
        "INSERT INTO concert VALUES (3,'Home Visits','Bleeding Love',3,2015)",
        "INSERT INTO concert VALUES (4,'Week 1','Wide Awake',1,2016)",
        "INSERT INTO singer_in_concert VALUES (1,2)",
        "INSERT INTO singer_in_concert VALUES (1,3)",
        "INSERT INTO singer_in_concert VALUES (2,3)",
        "INSERT INTO singer_in_concert VALUES (3,5)",
        "INSERT INTO singer_in_concert VALUES (4,6)",
    ],
    "soccer_tryout": [
        "INSERT INTO player VALUES (1200,'Matt','yes',10001)",
        "INSERT INTO player VALUES (800,'Mike','no',10002)",
        "INSERT INTO player VALUES (1500,'Tom','yes',10003)",
        "INSERT INTO player VALUES (600,'Dan','no',10004)",
        "INSERT INTO college VALUES ('LSU',18000,'LA')",
        "INSERT INTO college VALUES ('ASU',12000,'AZ')",
        "INSERT INTO college VALUES ('OU',22000,'OK')",
        "INSERT INTO tryout VALUES (10001,'LSU','yes','goalie')",
        "INSERT INTO tryout VALUES (10002,'ASU','yes','mid')",
        "INSERT INTO tryout VALUES (10003,'OU','no','goalie')",
        "INSERT INTO tryout VALUES (10004,'LSU','yes','mid')",
    ],
    "transit": [
        "INSERT INTO stops VALUES (1,'request stop','Main St')",
        "INSERT INTO stops VALUES (2,'no shelter','Oak Ave')",
        "INSERT INTO stops VALUES (3,'wheelchair access','Pine Rd')",
        "INSERT INTO routes VALUES (11,1)",
        "INSERT INTO routes VALUES (12,1)",
        "INSERT INTO routes VALUES (13,2)",
    ],
    "warehouse": [
        "INSERT INTO regions VALUES (1,'North'),(2,'South')",
        "INSERT INTO depots VALUES (1,1,'Alpha'),(2,2,'Beta')",
        "INSERT INTO shelves VALUES (1,1),(2,1),(3,2)",
        "INSERT INTO bins VALUES (1,1),(2,2),(3,3)",
        "INSERT INTO suppliers VALUES (1,'Acme'),(2,'Globex')",
        "INSERT INTO items VALUES (1,'bolt',0.3,1),(2,'girder',25.0,2),(3,'panel',12.5,2)",
        "INSERT INTO shipments VALUES (1,1,100),(2,2,5)",
        "INSERT INTO wh_orders VALUES (1,1,40),(2,3,3)",
        "INSERT INTO staff VALUES (1,'Ada',1),(2,'Lin',2),(3,'Kim',1)",
    ],
    "wide_metrics": [
        "INSERT INTO devices VALUES (1,'probe-a'),(2,'probe-b')",
        "INSERT INTO readings VALUES (1,1,1.0,2,3,4,5,6,7,8,9,10,11,12)",
        "INSERT INTO readings VALUES (2,1,3.0,2,3,4,5,6,7,8,9,10,11,12)",
        "INSERT INTO readings VALUES (3,2,4.5,2,3,4,5,6,7,8,9,10,11,12)",
        "INSERT INTO readings VALUES (4,2,5.5,2,3,4,5,6,7,8,9,10,11,12)",
    ],
    "shop": [
        "INSERT INTO customers VALUES (1,'Ana','Rome'),(2,'Ben','Rome'),"
        "(3,'Cal','Oslo'),(4,'Dee','Lima')",
        "INSERT INTO orders VALUES (101,1,20.0),(102,1,35.5),(103,3,12.0),(104,4,8.25)",
    ],
    "store": [
        "INSERT INTO products VALUES (1,'mug',4.5),(2,'cap',9.0),(3,'pen',1.5),(4,'bag',19.0)",
        "INSERT INTO sales VALUES (1,1,1,2),(2,2,1,1),(3,2,3,4),(4,3,4,10),(5,4,2,1)",
    ],
    "school": [
        "INSERT INTO students VALUES (1,'Ira',19),(2,'Joy',22),(3,'Kai',25)",
        "INSERT INTO enrollments VALUES (1,301),(2,301),(2,302),(3,303)",
    ],
    "hr": [
        "INSERT INTO departments VALUES (1,'Sales'),(2,'Ops')",
        "INSERT INTO employees VALUES (1,'Max',1),(2,'Ned',1),(3,'Ola',2),(4,'Pia',2)",
    ],
    "flights": [
        "INSERT INTO airports VALUES (1,'AAA','Accra'),(2,'BBB','Bergen'),(3,'CCC','Cusco')",
        "INSERT INTO flights VALUES (1,1,2),(2,1,3),(3,2,1),(4,3,2)",
    ],
}

# Data-only perturbations applied to variant 1 of each database. Gold SQL
# still executes everywhere; wrong-but-lucky predictions can diverge here.
PERTURB: dict[str, list[str]] = {
    "concert_singer": [
        "INSERT INTO singer VALUES (7,'New Voice','Chile','Echo','2021',30,'F')",
        "INSERT INTO concert VALUES (5,'Encore','Reprise',2,2014)",
    ],
    "soccer_tryout": [
        "INSERT INTO player VALUES (2000,'Ugo','no',10005)",
        "INSERT INTO tryout VALUES (10005,'ASU','no','fwd')",
    ],
    "transit": ["INSERT INTO stops VALUES (4,'hail and ride','Elm Ct')"],
    "warehouse": ["INSERT INTO items VALUES (4,'rivet',0.1,1)"],
    "wide_metrics": ["INSERT INTO readings VALUES (5,2,9.5,2,3,4,5,6,7,8,9,10,11,12)"],
    "shop": ["INSERT INTO orders VALUES (105,2,50.0)"],
    "store": ["INSERT INTO sales VALUES (6,1,2,3)"],
    "school": ["INSERT INTO students VALUES (4,'Lou',21)"],
    "hr": ["INSERT INTO employees VALUES (5,'Quin',1)"],
    "flights": ["INSERT INTO flights VALUES (5,2,3)"],
}

#: Reference chosen/rejected queries for the tryout/player fixture.
TRYOUT_GOLD = (
    "SELECT min(player.hs) , tryout.ppos FROM tryout JOIN player "
    "ON tryout.pid = player.pid GROUP BY tryout.ppos"
)
TRYOUT_REJECTED = "SELECT min(HS) ,  ppos FROM player GROUP BY ppos"
TRYOUT_QUESTION = "For each position, what is the minimum time students spent practicing?"

HAND_SAMPLES: list[tuple[str, str, str]] = [
    ("concert_singer", "What is the average capacity of stadiums?",
     "SELECT avg(Capacity) FROM stadium"),
    ("concert_singer", "List singer names ordered by age descending.",
     "SELECT Name FROM singer ORDER BY Age DESC"),
    ("concert_singer", "Show the names of singers who performed in a concert.",
     "SELECT singer.Name FROM singer JOIN singer_in_concert "
     "ON singer.Singer_ID = singer_in_concert.Singer_ID"),
    ("concert_singer", "How many concerts happened in the year 2014?",
     "SELECT count(*) FROM concert WHERE Year = 2014"),
    ("soccer_tryout", TRYOUT_QUESTION, TRYOUT_GOLD),
    ("soccer_tryout", "How many students received a yes decision?",
     "SELECT count(*) FROM tryout WHERE decision = 'yes'"),
    ("soccer_tryout", "Which states have a college?",
     "SELECT state FROM college"),
    ("transit", "What is the free text note of each stop?",
     'SELECT "free text" FROM stops'),
    ("transit", "How many routes serve the first stop?",
     "SELECT count(*) FROM routes WHERE stop_id = 1"),
    ("warehouse", "Count items for each supplier name.",
     "SELECT suppliers.sname, count(*) FROM suppliers JOIN items "
     "ON suppliers.supplier_id = items.supplier_id GROUP BY suppliers.sname"),
    ("warehouse", "Which item names weigh more than ten units?",
     "SELECT iname FROM items WHERE weight > 10"),
    ("wide_metrics", "What is the average first metric per device?",
     "SELECT device_id, avg(m01) FROM readings GROUP BY device_id"),
    ("shop", "What is the total order amount per customer name?",
     "SELECT customers.name, sum(orders.total) FROM customers JOIN orders "
     "ON customers.customer_id = orders.customer_id GROUP BY customers.name"),
    ("shop", "How many customers live in each city?",
     "SELECT city, count(*) FROM customers GROUP BY city"),
    ("store", "Which product names cost more than five?",
     "SELECT pname FROM products WHERE price > 5"),
    ("store", "How many units were sold per product name?",
     "SELECT products.pname, sum(sales.qty) FROM products JOIN sales "
     "ON products.product_id = sales.product_id GROUP BY products.pname"),
    ("school", "Which student names are older than twenty?",
     "SELECT sname FROM students WHERE age > 20"),
    ("hr", "How many employees work in each department name?",
     "SELECT departments.dname, count(*) FROM employees JOIN departments "
     "ON employees.dept_id = departments.dept_id GROUP BY departments.dname"),
    ("flights", "Which cities have an airport?",
     "SELECT city FROM airports"),
    ("flights", "How many flights depart from each airport code?",
     "SELECT airports.code, count(*) FROM airports JOIN flights "
     "ON airports.airport_id = flights.src_id GROUP BY airports.code"),
]


def _table_names(db_id: str) -> list[str]:
    names = []
    for ddl in DDL[db_id]:
        head = ddl.split("(", 1)[0]
        names.append(head.replace("CREATE TABLE", "").strip())
    return names


def make_sample_records() -> list[dict]:
    """Exactly 50 samples: one count query per table plus the hand-written set."""
    records = []
    idx = 0
    for db_id in DDL:
        for table in _table_names(db_id):
            records.append(
                {
                    "sample_id": f"s{idx:03d}",
                    "db_id": db_id,
                    "question": f"How many rows are in the {table} table of {db_id}?",
                    "gold_sql": f"SELECT count(*) FROM {table}",
                }
            )
            idx += 1
    for db_id, question, gold in HAND_SAMPLES:
        records.append(
            {
                "sample_id": f"s{idx:03d}",
                "db_id": db_id,
                "question": question,
                "gold_sql": gold,
            }
        )
        idx += 1
    assert len(records) == 50, len(records)
    return records


def build_corpus(root: Path) -> Path:
    """Create <root>/database/<db_id>/<db_id>.sqlite for every fixture
    database, variant suites under <root>/variants/<db_id>/, and the
    samples file <root>/samples.jsonl. Returns root."""
    root = Path(root)
    for db_id, statements in DDL.items():
        db_dir = root / "database" / db_id
        db_dir.mkdir(parents=True, exist_ok=True)
        db_path = db_dir / f"{db_id}.sqlite"
        if db_path.exists():
            db_path.unlink()
        conn = sqlite3.connect(db_path)
        with conn:
            for ddl in statements:
                conn.execute(ddl)
            for insert in SEED[db_id]:
                conn.execute(insert)
        conn.close()

        suite_dir = root / "variants" / db_id
        suite_dir.mkdir(parents=True, exist_ok=True)
        base_copy = suite_dir / "0.sqlite"
        shutil.copyfile(db_path, base_copy)
        variant = suite_dir / "1.sqlite"
        shutil.copyfile(db_path, variant)
        conn = sqlite3.connect(variant)
        with conn:
            for stmt in PERTURB[db_id]:
                conn.execute(stmt)
        conn.close()

    records = make_sample_records()
    with open(root / "samples.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return root


#: Schemas SQLite creates and queries that a stricter catalog might refuse,
#: or that a catalog reading only tables and ``PRAGMA table_info`` would get
#: wrong. Each comes with the tables introspection lists, with their
#: columns, and the foreign keys it reports, as (from_table, from_column,
#: to_table, to_column). Every one has a table ``c`` with an ``id`` primary
#: key.
SQLITE_ONLY_SCHEMAS = {
    "fk_to_missing_table": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY, pid INT REFERENCES nope(pid))"],
        {"c": ["id", "pid"]},
        [("c", "pid", "nope", "pid")],
    ),
    "fk_to_missing_column": (
        ["CREATE TABLE p(pid INTEGER PRIMARY KEY)",
         "CREATE TABLE c(id INTEGER PRIMARY KEY, pid INT REFERENCES p(nope))"],
        {"p": ["pid"], "c": ["id", "pid"]},
        [("c", "pid", "p", "nope")],
    ),
    "implicit_fk_to_keyless_table": (
        ["CREATE TABLE p(pid INT)",
         "CREATE TABLE c(id INTEGER PRIMARY KEY, pid INT REFERENCES p)"],
        {"p": ["pid"], "c": ["id", "pid"]},
        [],
    ),
    "empty_column_name": (
        ['CREATE TABLE c(id INTEGER PRIMARY KEY, "" TEXT)'], {"c": ["id", ""]}, []),
    "accented_column_pair": (
        ['CREATE TABLE c(id INTEGER PRIMARY KEY, "É" TEXT, "é" TEXT)'],
        {"c": ["id", "É", "é"]},
        [],
    ),
    "accented_table_pair": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY)",
         'CREATE TABLE "É"(a INT)',
         'CREATE TABLE "é"(b INT)'],
        {"c": ["id"], "É": ["a"], "é": ["b"]},
        [],
    ),
    "sqlite_like_table_name": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY AUTOINCREMENT)",
         "CREATE TABLE SQLiteData(b)",
         "CREATE TABLE sqlite1(a)"],
        {"c": ["id"], "SQLiteData": ["b"], "sqlite1": ["a"]},
        [],
    ),
    "view": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY, a TEXT)",
         "CREATE VIEW v AS SELECT id, a AS b FROM c"],
        {"c": ["id", "a"], "v": ["id", "b"]},
        [],
    ),
    "generated_column": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY, a INT, "
         "g INT GENERATED ALWAYS AS (id * 2), s INT GENERATED ALWAYS AS (id * 3) STORED)"],
        {"c": ["id", "a", "g", "s"]},
        [],
    ),
    "broken_view": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY)",
         "CREATE TABLE gone(x)",
         "CREATE VIEW bv AS SELECT x FROM gone",
         "DROP TABLE gone"],
        {"c": ["id"]},
        [],
    ),
    "overflowing_view": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY)",
         "CREATE VIEW ov AS SELECT abs(-9223372036854775807 - 1) AS o FROM c"],
        {"c": ["id"], "ov": ["o"]},
        [],
    ),
    "missing_module_vtable": (
        ["CREATE TABLE c(id INTEGER PRIMARY KEY)",
         "PRAGMA writable_schema = ON",
         "INSERT INTO sqlite_master(type, name, tbl_name, rootpage, sql) VALUES "
         "('table', 'vt', 'vt', 0, 'CREATE VIRTUAL TABLE vt USING nosuchmod(x)')"],
        {"c": ["id"]},
        [],
    ),
}


def build_sqlite_only_database(path: Path, name: str) -> Path:
    """One of :data:`SQLITE_ONLY_SCHEMAS` at ``path``, with two rows in ``c``."""
    conn = sqlite3.connect(path)
    with conn:
        for ddl in SQLITE_ONLY_SCHEMAS[name][0]:
            conn.execute(ddl)
        conn.execute("INSERT INTO c(id) VALUES (1), (2)")
    conn.close()
    return path
