"""Capacity smoke: a 1M-row dataset on the SQLite engine (ISSUE 8).

The pure-Python store keeps every row version as a dict in one heap, so
million-row datasets are exactly where it hits the memory ceiling
(ROADMAP item 2).  This bench bulk-loads ``CAPACITY_ROWS`` versioned rows
into :class:`SqliteEngine`, asserts the *process RSS growth* stays under
``CAPACITY_RSS_MB``, and then runs point/range/ordered queries through
the full SQL-lowering path — the same dataset extrapolated onto the
in-memory engine (measured from a small probe load) would blow the same
bound by an order of magnitude.

Gates are rows per MB of RSS growth (machine-relative) and point
lookups per millisecond, where a seek and a scan are four orders of
magnitude apart.  They are loose: capacity and the access path, not
micro-latency, are the contract here.

Env knobs::

    CAPACITY_ROWS    rows to load            (default 1_000_000)
    CAPACITY_RSS_MB  RSS-growth ceiling, MB  (default 512)
"""

import os
import time

from conftest import emit_bench_json, once, print_table

from repro.core.clock import LogicalClock
from repro.db.engine import create_database
from repro.db.storage import INFINITY, Column, TableSchema
from repro.ttdb.timetravel import TimeTravelDB

CAPACITY_ROWS = int(os.environ.get("CAPACITY_ROWS", "1000000"))
CAPACITY_RSS_MB = float(os.environ.get("CAPACITY_RSS_MB", "512"))

#: Small probe load for extrapolating the in-memory engine's footprint.
PROBE_ROWS = 50_000

SCHEMA = TableSchema(
    name="events",
    columns=(
        Column("event_id", "int"),
        Column("user"),
        Column("kind"),
        Column("score", "int"),
    ),
    row_id_column="event_id",
    partition_columns=("kind",),
)

N_QUERY_REPEAT = 30


def rss_mb() -> float:
    """Current resident set size in MB (Linux /proc, ru_maxrss fallback)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def version_rows(n):
    """The persisted bulk_load shape: [row_id, data, start_ts, end_ts,
    start_gen, end_gen], generated lazily so Python never holds the set."""
    for i in range(1, n + 1):
        yield [
            i,
            {
                "event_id": i,
                "user": f"u{i % 9973}",
                "kind": f"k{i % 37}",
                "score": i % 100000,
            },
            i,
            INFINITY,
            0,
            INFINITY,
        ]


def load_engine(backend, n, path=None):
    """Load through ``restore`` — the path a reload takes: on SQLite the
    rows are bulk-inserted first and the indexes built once over them."""
    engine = create_database(backend, path=path)
    engine.restore(
        {
            "tables": [
                {
                    "schema": SCHEMA.to_dict(),
                    "versions": version_rows(n),
                    "next_row_id": n + 1,
                }
            ]
        }
    )
    tt = TimeTravelDB(engine, LogicalClock())
    tt.clock.advance(n + 10)
    return engine, tt


def timed(fn, repeat=N_QUERY_REPEAT):
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - start) / repeat


def test_capacity_sqlite_million_rows(benchmark, tmp_path):
    def measure():
        # Probe: the in-memory engine's bytes-per-row, to extrapolate what
        # CAPACITY_ROWS would cost in the same heap.
        before = rss_mb()
        probe_engine, _probe_tt = load_engine("python", PROBE_ROWS)
        python_probe_mb = max(rss_mb() - before, 0.1)
        python_extrapolated_mb = python_probe_mb * (CAPACITY_ROWS / PROBE_ROWS)
        del probe_engine, _probe_tt

        before = rss_mb()
        started = time.perf_counter()
        engine, tt = load_engine(
            "sqlite", CAPACITY_ROWS, path=str(tmp_path / "capacity")
        )
        load_seconds = time.perf_counter() - started
        sqlite_growth_mb = max(rss_mb() - before, 0.1)

        assert engine.total_versions() == CAPACITY_ROWS

        # A different row each time, so it is the engine's index answering
        # and not the statement cache.
        ids = iter(range(CAPACITY_ROWS // 2, CAPACITY_ROWS))
        point = timed(
            lambda: tt.execute(
                "SELECT * FROM events WHERE event_id = ?", [next(ids)]
            ).result.rows
        )
        # Pure range predicate: no equality column; the range probe alone
        # narrows it inside SQLite.
        ranged = timed(
            lambda: tt.execute(
                "SELECT event_id, score FROM events WHERE score < 50",
            ).result.rows
        )
        ordered = timed(
            lambda: tt.execute(
                "SELECT user FROM events WHERE score = 12345 ORDER BY user DESC",
            ).result.rows
        )
        rows = tt.execute(
            "SELECT event_id FROM events WHERE kind = 'k7' AND score < 50"
        ).result.rows
        assert rows, "range query must hit data"

        engine.close()
        return {
            "rows": CAPACITY_ROWS,
            "load_seconds": round(load_seconds, 2),
            "sqlite_rss_growth_mb": round(sqlite_growth_mb, 1),
            "rss_ceiling_mb": CAPACITY_RSS_MB,
            "python_probe_rows": PROBE_ROWS,
            "python_extrapolated_mb": round(python_extrapolated_mb, 1),
            "point_query_ms": round(point * 1000, 3),
            "range_query_ms": round(ranged * 1000, 3),
            "ordered_query_ms": round(ordered * 1000, 3),
        }

    payload = once(benchmark, measure)

    print_table(
        f"Capacity smoke: {payload['rows']:,} rows on SqliteEngine",
        ["metric", "value"],
        [
            ["load time (s)", payload["load_seconds"]],
            ["RSS growth (MB)", payload["sqlite_rss_growth_mb"]],
            ["RSS ceiling (MB)", payload["rss_ceiling_mb"]],
            ["py-engine extrapolated (MB)", payload["python_extrapolated_mb"]],
            ["point query (ms)", payload["point_query_ms"]],
            ["range query (ms)", payload["range_query_ms"]],
            ["ordered query (ms)", payload["ordered_query_ms"]],
        ],
    )

    emit_bench_json(
        "BENCH_capacity.json",
        "capacity",
        payload,
        gates={
            # Loose, machine-relative gates: capacity is the contract.
            "capacity_rows_per_rss_mb": {
                "value": payload["rows"] / payload["sqlite_rss_growth_mb"],
                "higher_is_better": True,
            },
            # An index seek is tens of microseconds at any table size; a
            # scan of 1M rows is hundreds of milliseconds.
            "point_lookups_per_ms": {
                "value": 1.0 / max(payload["point_query_ms"], 1e-6),
                "higher_is_better": True,
            },
        },
    )

    # The ceiling the in-memory engine cannot meet at this row count.
    assert payload["sqlite_rss_growth_mb"] < CAPACITY_RSS_MB, (
        f"SQLite load grew RSS by {payload['sqlite_rss_growth_mb']} MB, "
        f"over the {CAPACITY_RSS_MB} MB ceiling"
    )
