"""Property test: planned/compiled execution == naive reference execution,
and the Python memory engine == the SQLite engine.

A seeded-random workload of schemas, data and statements (normal
execution, repair-generation re-execution, rollback, abort/finalize, GC)
is run against several TimeTravelDB instances: one as production builds
it (prepared statements, read-set templates), one whose executor is the
tree-walking, scanning oracle of ``tests/naive_executor.py``, and — in
the cross-backend tests — the same pair again on the SQLite storage
engine.  Every observable — result snapshots, row order, read/written
row IDs and partitions, read sets, error outcomes, and the full version
store — must be identical across every instance.

This is the snapshot-equivalence contract the planner and the storage
engines document in DESIGN.md: dependency tracking and repair escalation
must be byte-for-byte unchanged by plan caching, compiled predicates,
index access paths, SQL lowering, and the storage backend.

The suite honours ``REPRO_DB_BACKEND`` (see ``tests/conftest.py``): the
planned-vs-naive seeds run on whichever engine the environment selects,
so the CI storage matrix exercises both backends with the same tests.
"""

import random

import pytest

from repro.core.clock import LogicalClock
from repro.db.engine import create_database
from repro.db.storage import Column, TableSchema
from repro.ttdb.timetravel import TimeTravelDB

from naive_executor import use_naive_executor

TEXT_POOL = ("x", "y", "z", "wiki", "a%b", "a_b", "", "Home")

#: Seeds for the cross-backend equivalence sweep (satellite of the
#: pluggable-engine work): python ≡ sqlite over 20+ seeded workloads.
CROSS_BACKEND_SEEDS = tuple(range(20))


def make_schema(variant: int) -> TableSchema:
    unique_keys = ((("c",),) if variant % 2 else ())
    row_id_column = "id" if variant % 3 else None
    return TableSchema(
        name="t",
        columns=(
            Column("id", "int"),
            Column("a"),
            Column("b", "int"),
            Column("c"),
            Column("d", "int"),
        ),
        row_id_column=row_id_column,
        partition_columns=("a", "b"),
        unique_keys=unique_keys,
    )


def make_db(variant: int, backend=None, planner: bool = True) -> TimeTravelDB:
    tt = TimeTravelDB(create_database(backend), LogicalClock())
    if not planner:
        use_naive_executor(tt)
    tt.create_table(make_schema(variant))
    return tt


def make_pair(variant: int):
    """Planned vs naive on the environment-selected backend."""
    return make_db(variant), make_db(variant, planner=False)


class StatementGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_id = 1

    def value(self, column: str):
        rng = self.rng
        if rng.random() < 0.15:
            return None
        if column in ("a", "c"):
            return rng.choice(TEXT_POOL)
        return rng.randrange(0, 10)

    def _operand(self, column: str, params):
        """Render a constant either inline or as a ? parameter."""
        value = self.value(column)
        if self.rng.random() < 0.5:
            params.append(value)
            return "?"
        return literal(value)

    def predicate(self, params, depth=0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth < 2 and roll < 0.25:
            op = rng.choice(("AND", "OR"))
            return (
                f"({self.predicate(params, depth + 1)} {op} "
                f"{self.predicate(params, depth + 1)})"
            )
        if depth < 2 and roll < 0.3:
            return f"NOT ({self.predicate(params, depth + 1)})"
        kind = rng.randrange(7)
        if kind == 0:
            column = rng.choice(("a", "b", "c", "d"))
            return f"{column} = {self._operand(column, params)}"
        if kind == 1:
            column = rng.choice(("b", "d"))
            op = rng.choice(("<", "<=", ">", ">="))
            return f"{column} {op} {self._operand(column, params)}"
        if kind == 2:
            column = rng.choice(("b", "d"))
            lo = rng.randrange(0, 8)
            return f"{column} BETWEEN {lo} AND {lo + rng.randrange(0, 4)}"
        if kind == 3:
            column = rng.choice(("a", "c"))
            pattern = rng.choice(("x%", "%b", "a_b", "%", "wiki"))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{column} {negated}LIKE '{pattern}'"
        if kind == 4:
            column = rng.choice(("a", "b", "c", "d"))
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{column} IS {negated}NULL"
        if kind == 5:
            column = rng.choice(("a", "b"))
            items = ", ".join(
                self._operand(column, params) for _ in range(rng.randrange(1, 4))
            )
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{column} {negated}IN ({items})"
        # Duplicated-parameter equality: exercises the read-set template's
        # safety fallback (title = ? AND title = ? with equal params).
        column = rng.choice(("a", "b"))
        value = self.value(column)
        params.append(value)
        params.append(value if rng.random() < 0.5 else self.value(column))
        return f"({column} = ? AND {column} = ?)"

    def statement(self):
        rng = self.rng
        roll = rng.random()
        params: list = []
        if roll < 0.3:
            columns = ["id", "a", "b", "c", "d"]
            if rng.random() < 0.3:
                columns.remove("id")
            n_rows = rng.randrange(1, 3)
            tuples = []
            for _ in range(n_rows):
                values = []
                for column in columns:
                    if column == "id":
                        values.append(str(self.next_id))
                        self.next_id += 1
                    else:
                        values.append(self._operand(column, params))
                tuples.append("(" + ", ".join(values) + ")")
            sql = (
                f"INSERT INTO t ({', '.join(columns)}) VALUES {', '.join(tuples)}"
            )
            return sql, params
        if roll < 0.65:
            if rng.random() < 0.2:
                agg = rng.choice(
                    ("COUNT(*)", "SUM(b)", "MAX(d)", "MIN(b)", "AVG(d)", "COUNT(c)")
                )
                items = agg
            elif rng.random() < 0.5:
                items = "*"
            else:
                cols = rng.sample(("a", "b", "c", "d"), rng.randrange(1, 4))
                items = ", ".join(cols)
            distinct = "DISTINCT " if rng.random() < 0.2 and items != "*" else ""
            sql = f"SELECT {distinct}{items} FROM t"
            if rng.random() < 0.75:
                sql += f" WHERE {self.predicate(params)}"
            if "(" not in items.split(",")[0] and rng.random() < 0.5:
                column = rng.choice(("a", "b", "c", "d"))
                direction = " DESC" if rng.random() < 0.4 else ""
                sql += f" ORDER BY {column}{direction}"
                if rng.random() < 0.5:
                    sql += f" LIMIT {rng.randrange(0, 6)}"
                    if rng.random() < 0.4:
                        sql += f" OFFSET {rng.randrange(0, 3)}"
            return sql, params
        if roll < 0.88:
            assigns = []
            for column in self.rng.sample(("a", "b", "c", "d"), rng.randrange(1, 3)):
                if column in ("b", "d") and rng.random() < 0.4:
                    assigns.append(f"{column} = {column} + 1")
                else:
                    assigns.append(f"{column} = {self._operand(column, params)}")
            sql = f"UPDATE t SET {', '.join(assigns)}"
            if rng.random() < 0.85:
                sql += f" WHERE {self.predicate(params)}"
            return sql, params
        sql = "DELETE FROM t"
        if rng.random() < 0.9:
            sql += f" WHERE {self.predicate(params)}"
        return sql, params


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def dump(tt: TimeTravelDB):
    out = {}
    for name, table in tt.database.tables.items():
        rows = sorted(
            (
                (
                    v.row_id,
                    tuple(sorted(v.data.items(), key=lambda kv: kv[0])),
                    v.start_ts,
                    v.end_ts,
                    v.start_gen,
                    v.end_gen,
                )
                for v in table.all_versions()
            ),
            key=repr,
        )
        out[name] = rows
    return out


def assert_same_result(a, b, sql, params):
    context = f"{sql!r} {params!r}"
    assert a.ts == b.ts, context
    assert a.gen == b.gen, context
    assert a.result.snapshot() == b.result.snapshot(), context
    assert a.result.rows == b.result.rows, context
    assert a.result.rowcount == b.result.rowcount, context
    assert a.result.ok == b.result.ok, context
    assert a.result.error == b.result.error, context
    assert a.result.read_row_ids == b.result.read_row_ids, context
    assert a.result.affected_row_ids == b.result.affected_row_ids, context
    assert a.result.inserted_row_ids == b.result.inserted_row_ids, context
    assert a.result.written_partitions == b.result.written_partitions, context
    assert a.read_set.to_dict() == b.read_set.to_dict(), context
    assert a.full_table_write == b.full_table_write, context


def assert_same_dumps(dbs, context):
    reference = dump(dbs[0])
    for other in dbs[1:]:
        assert dump(other) == reference, context


def run_workload(seed: int, n_statements: int = 220, dbs=None):
    """Drive the same seeded workload through every instance in ``dbs``
    (default: planned-vs-naive on the environment backend) and assert
    all observables match the first instance's."""
    rng = random.Random(seed)
    if dbs is None:
        dbs = list(make_pair(variant=seed))
    reference = dbs[0]
    gen = StatementGen(random.Random(seed * 31 + 1))
    executed = []

    for step in range(n_statements):
        sql, params = gen.statement()
        results = [tt.execute(sql, params) for tt in dbs]
        for other in results[1:]:
            assert_same_result(results[0], other, sql, params)
        executed.append((sql, tuple(params), results[0].ts))
        if step % 25 == 24:
            assert_same_dumps(dbs, sql)

    # -- repair-generation phase ------------------------------------------------
    if executed:
        for tt in dbs:
            tt.begin_repair()
        history = rng.sample(executed, min(10, len(executed)))
        for sql, params, ts in history:
            if sql.startswith("INSERT"):
                continue
            results = [tt.execute_at(sql, params, ts) for tt in dbs]
            for other in results[1:]:
                assert_same_result(results[0], other, sql, params)
            if not sql.startswith("SELECT"):
                matched = reference.matching_row_ids(sql, params, max(ts - 1, 0))
                for other in dbs[1:]:
                    assert other.matching_row_ids(sql, params, max(ts - 1, 0)) == (
                        matched
                    )
        for _ in range(5):
            row_id = rng.randrange(1, gen.next_id + 2)
            ts = rng.choice(executed)[2]
            touched = [tt.rollback_row("t", row_id, ts) for tt in dbs]
            for other in touched[1:]:
                assert other == touched[0]
        assert_same_dumps(dbs, "post-rollback")
        if rng.random() < 0.5:
            for tt in dbs:
                tt.abort_repair()
        else:
            for tt in dbs:
                tt.finalize_repair()
        assert_same_dumps(dbs, "post-repair")

    # -- post-repair traffic and GC --------------------------------------------
    for _ in range(30):
        sql, params = gen.statement()
        results = [tt.execute(sql, params) for tt in dbs]
        for other in results[1:]:
            assert_same_result(results[0], other, sql, params)
    horizon = reference.clock.now() // 2
    collected = [tt.gc(horizon) for tt in dbs]
    for other in collected[1:]:
        assert other == collected[0]
    assert_same_dumps(dbs, "post-gc")

    # one more round after GC: purged indexes must still find everything
    for _ in range(30):
        sql, params = gen.statement()
        results = [tt.execute(sql, params) for tt in dbs]
        for other in results[1:]:
            assert_same_result(results[0], other, sql, params)
    assert_same_dumps(dbs, "final")
    totals = [tt.total_versions() for tt in dbs]
    for other in totals[1:]:
        assert other == totals[0]


def test_planned_equals_naive_seed_0():
    run_workload(0)


def test_planned_equals_naive_seed_1():
    run_workload(1)


def test_planned_equals_naive_seed_2():
    run_workload(2)


def test_planned_equals_naive_seed_3():
    run_workload(3, n_statements=150)


def test_planned_equals_naive_seed_4():
    run_workload(4, n_statements=150)


# -- cross-backend equivalence ------------------------------------------------
#
# Three instances run the identical workload: the planned executor on the
# Python memory engine (the reference), the planned executor on the
# SQLite engine (exercising SQL lowering, projection pushdown and ORDER
# BY pushdown), and the naive executor on the SQLite engine (exercising
# the engine's plain fetch paths).  Snapshots, row order, read/written
# row IDs, partitions, error outcomes, version dumps, repair/rollback/
# abort/finalize behaviour and GC counts must all agree.


#: seed -> whether its workload left some SQLite table ``_multi_open``
#: (a row with two open versions: the winner-first window query ran).
_SEED_REACHED_MULTI_OPEN = {}


@pytest.mark.parametrize("seed", CROSS_BACKEND_SEEDS)
def test_python_equals_sqlite(seed):
    dbs = [
        make_db(seed, backend="python"),
        make_db(seed, backend="sqlite"),
        make_db(seed, backend="sqlite", planner=False),
    ]
    run_workload(seed, n_statements=110, dbs=dbs)
    _SEED_REACHED_MULTI_OPEN[seed] = any(
        table._multi_open for table in dbs[1].database.tables.values()
    )


def test_cross_backend_seeds_reach_the_window_query():
    """The property above is only evidence for the SQLite engine's
    winner-first branch if some seeds get there."""
    if len(_SEED_REACHED_MULTI_OPEN) < len(CROSS_BACKEND_SEEDS):
        pytest.skip("needs every cross-backend seed to have run in this session")
    assert sum(_SEED_REACHED_MULTI_OPEN.values()) > 0, _SEED_REACHED_MULTI_OPEN
