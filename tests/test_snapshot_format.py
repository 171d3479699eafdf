"""Snapshot format 3 and the one-codec contract behind it.

A run is encoded once, when the store appends it; that text is the data
of its WAL line and of its snapshot line, and it says each fact once:
queries as positional rows, nothing the enclosing run says, no defaults.
These tests pin the bytes (the rows this build writes, and the keyed
lines PRs 11-17 wrote, which must keep reading), the round trip of both
views, the kept-text invariant across every mutation the store offers,
format-1 and format-2 compatibility and the upgrade on the next save, the
bytes one request may cost, and the refusal of files that are not whole.
"""

import gc
import json
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistence_fixtures as fixtures
from repro.ahg.records import QUERY_ROW, AppRunRecord, NondetRecord, QueryRecord, query_payload
from repro.apps.wiki.app import WikiApp
from repro.core.errors import ReproError
from repro.core.serialize import COMPACT
from repro.faults.plane import FaultPlane, SimulatedCrash
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec
from repro.store import wal as wal_module
from repro.store.recordstore import RecordStore
from repro.store.snapshot import read_snapshot_header
from repro.store.wal import RecordWal, entry_line
from repro.ttdb.partitions import ReadSet
from repro.ttdb.timetravel import RecordedPayload
from repro.warp import WarpSystem
from repro.workload.loadgen import make_load_clients
from repro.workload.scenarios import run_scenario


# ---------------------------------------------------------------------------
# (b) the bytes: what this build writes is pinned, what PRs 11-17 wrote reads
# ---------------------------------------------------------------------------


def test_wal_lines_match_golden_bytes(tmp_path):
    with open(fixtures.GOLDEN_ROWS, "rb") as fh:
        golden = fh.read()
    assert fixtures.golden_lines(str(tmp_path)) == golden
    # ... and the snapshot line of the same run is the WAL line.
    run_line = golden.splitlines(keepends=True)[0].decode("utf-8")
    store = RecordStore()
    store.add_run(fixtures.golden_run())
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert fh.readlines()[1] == run_line
    # Each fact once: no field name inside a query, no default spelled out.
    assert '"sql"' not in run_line and run_line.count('"run_id"') == 1
    assert '"canceled"' not in run_line and "false" not in run_line


def test_keyed_golden_lines_still_replay():
    """The lines PRs 11-17 wrote (keyed queries, every default spelled
    out) read as the run they were written from."""
    entries = list(RecordWal.entries(fixtures.GOLDEN_LINES))
    assert [kind for kind, _ in entries] == ["run", "replace_run"]
    for _, data in entries:
        assert isinstance(data["queries"][0], dict) and data["canceled"] is False
        assert AppRunRecord.from_dict(data) == fixtures.golden_run()
        # The keyed view of today's record is, key for key, the old line.
        assert fixtures.golden_run().to_dict() == data
    replayed = fixtures.replay(fixtures.GOLDEN_LINES)
    assert replayed.to_snapshot() == fixtures.golden_store().to_snapshot()
    assert replayed.runs[7] == fixtures.golden_run()


def test_wal_mixing_keyed_and_row_lines_replays(tmp_path):
    """A log begun by an older build and continued by this one: a keyed
    ``run`` line, then a row-shaped ``replace_run`` of the same run, then a
    row-shaped ``run`` — each line is read in the shape it has."""
    with open(fixtures.GOLDEN_LINES, "r", encoding="utf-8", newline="") as fh:
        keyed_run_line = fh.readline()
    replacement = fixtures.golden_run()
    replacement.response.body = "<p>replaced</p>"
    replacement.queries.pop()
    newcomer = fixtures.golden_run()
    newcomer.run_id = 8
    for query in newcomer.queries:
        query.run_id = 8
    wal_path = str(tmp_path / "mixed.wal")
    with open(wal_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(keyed_run_line)
        fh.write(entry_line("replace_run", replacement.encode()))
        fh.write(entry_line("run", newcomer.encode()))
    store = RecordStore.recover(wal_path=wal_path)
    store.wal.close()
    assert store.runs == {7: replacement, 8: newcomer}
    assert store.query_count == 3


# -- round trip, as a property -------------------------------------------------

scalars = st.one_of(
    # Equal and hashing alike, or nearly: what a memo keyed by ``==`` conflates.
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "1", "0"]),
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),  # any unicode: control characters, astral plane, quotes
)
#: Tuples all the way down, as params, snapshots and nondet values are.
trees = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)
names = st.text("abcdefgh_", min_size=1, max_size=6)
constraints = st.frozensets(st.tuples(names, scalars), min_size=1, max_size=3)


@st.composite
def query_records(draw):
    table = draw(names)
    return QueryRecord(
        qid=draw(st.integers(1, 10**6)),
        run_id=0,  # set by run_records: a row does not carry them
        seq=0,
        ts=draw(st.integers(0, 10**6)),
        sql=draw(st.text(max_size=30)),
        params=draw(st.lists(trees, max_size=3).map(tuple)),
        kind=draw(st.sampled_from(["select", "insert", "update", "delete"])),
        table=table,
        read_set=ReadSet(
            table,
            # ALL partitions / none (an INSERT) / one or several conjunctions
            draw(st.one_of(st.none(), st.lists(constraints, max_size=3).map(tuple))),
        ),
        # Independent of ``kind``: a write with an empty written set, a
        # SELECT row with every trailing field present, and all between.
        written_row_ids=draw(
            st.lists(st.tuples(st.just(table), st.integers(1, 99)), max_size=2).map(tuple)
        ),
        written_partitions=draw(
            st.frozensets(st.tuples(st.just(table), names, scalars), max_size=2)
        ),
        full_table_write=draw(st.booleans()),
        snapshot=draw(st.lists(trees, min_size=1, max_size=3).map(tuple)),
        read_row_ids=draw(st.lists(st.integers(1, 99), max_size=3).map(tuple)),
    )


@st.composite
def run_records(draw):
    run = fixtures.golden_run()
    run.run_id = draw(st.integers(1, 10**6))
    run.queries = draw(st.lists(query_records(), max_size=3))
    for seq, query in enumerate(run.queries):
        query.run_id, query.seq = run.run_id, seq
    run.nondet = draw(
        st.lists(st.builds(NondetRecord, names, st.integers(0, 9), trees), max_size=2)
    )
    run.client_id = draw(st.none() | st.text(max_size=8))
    run.visit_id = draw(st.none() | st.integers(0, 99))
    run.request_id = draw(st.none() | st.integers(0, 99))
    run.canceled = draw(st.booleans())
    run.request.params["q"] = run.response.body = draw(st.text(max_size=20))
    return run


RUN_KEYS = {
    "run_id", "ts_start", "ts_end", "script", "loaded_files", "request", "response",
    "queries", "nondet", "client_id", "visit_id", "request_id", "canceled",
}  # fmt: skip
QUERY_KEYS = (set(QUERY_ROW) - {"disjuncts"}) | {"run_id", "seq", "read_set"}


@settings(max_examples=200, deadline=None)
@given(run=run_records())
@example(run=fixtures.golden_run())
def test_codec_views_agree(run):
    """Both views of a run — the text (rows, elided defaults) and the
    keyed ``to_dict()`` — rebuild it, and the keyed view names every field
    whether or not the text spells it out."""
    text = run.encode()
    again = AppRunRecord.from_dict(json.loads(text), json_text=text)
    assert again == run and again.encode() == text == again.json_text
    keyed = run.to_dict()
    assert AppRunRecord.from_dict(keyed) == run
    assert again.to_dict() == keyed  # from kept text or a fresh encode: one view
    assert keyed == json.loads(json.dumps(keyed))  # plain JSON
    assert set(keyed) == RUN_KEYS and len(RUN_KEYS) == 13
    assert len(QUERY_KEYS) == 14
    for seq, (query, item) in enumerate(zip(run.queries, keyed["queries"])):
        assert set(item) == QUERY_KEYS
        assert set(item["read_set"]) == {"table", "disjuncts"}
        assert (item["run_id"], item["seq"]) == (run.run_id, seq)
        assert item["read_set"]["table"] == item["table"] == query.table
        assert item["full_table_write"] is query.full_table_write
        assert (item["read_set"]["disjuncts"] is None) == query.read_set.is_all
    for record, item in zip(run.nondet, keyed["nondet"]):
        assert set(item) == {"func", "seq", "value"} and item["func"] == record.func
    # What the text may leave out, and only that.
    line = json.loads(text)
    assert set(line) == RUN_KEYS - {
        name
        for name, default in [
            ("nondet", []), ("client_id", None), ("visit_id", None),
            ("request_id", None), ("canceled", False),
        ]  # fmt: skip
        if keyed[name] == default
    }
    for row, item in zip(line["queries"], keyed["queries"]):
        assert isinstance(row, list) and 8 <= len(row) <= len(QUERY_ROW)
        assert len(row) == 8 or row[-1] not in ([], False)
        for name, value in list(zip(QUERY_ROW, row))[8:]:
            assert item[name] == value
        for name in QUERY_ROW[len(row):]:
            assert item[name] in ([], False)


@st.composite
def recorded_runs(draw):
    """A run as the runtime hands it to the store: each query recorded from
    no payload (a write, a SELECT too large to cache), from a fresh one (the
    miss that filled a statement-cache entry) or from an earlier query's (a
    hit) — some payloads with their text already encoded, by an earlier run."""
    run = draw(run_records())
    queries, run.payloads = [], []
    for seq, query in enumerate(run.queries):
        role = draw(st.sampled_from(["write", "miss", "hit"]))
        earlier = [payload for payload in run.payloads if payload is not None]
        if role == "write":
            payload = None
        elif role == "hit" and earlier:
            payload = draw(st.sampled_from(earlier))
            query = QueryRecord(query.qid, run.run_id, seq, query.ts, *payload.fields)
        else:
            payload = RecordedPayload()
            payload.fields = query_payload(query)
            if draw(st.booleans()):
                payload.text = json.dumps(query.to_row()[2:], separators=COMPACT)[1:]
        queries.append(query)
        run.payloads.append(payload)
    run.queries = queries
    return run


@settings(max_examples=300, deadline=None)
@given(run=recorded_runs())
def test_encode_is_the_dump_of_to_wire(run):
    """``encode()`` assembles the line — members around ``queries`` encoded,
    rows spliced from their payloads' texts; ``to_wire()`` is the tree.  The
    oracle: the assembled line is the dump of the tree, whichever rows had a
    text to splice, and stays so once every payload has one and once the
    store has dropped them."""
    oracle = json.dumps(run.to_wire(), separators=COMPACT)
    assert run.encode() == oracle
    assert all(payload.text for payload in run.payloads if payload is not None)
    assert run.encode() == oracle  # every payload-bearing row spliced
    run.payloads = None
    assert run.encode() == oracle  # every row walked
    assert AppRunRecord.from_dict(json.loads(oracle)) == run


#: Each value's look-alike: equal to it (and hashing alike), of another type
#: or sign — what a memo keyed by ``==`` hands back in its place.
LOOK_ALIKES = [(1, True), (True, 1.0), (1.0, 1), (0, False), (False, 0.0), (0.0, -0.0), (-0.0, 0)]


def look_alike(value):
    """``value`` with every scalar that has a look-alike swapped for it,
    through tuples and frozensets; equal to ``value`` all the same."""
    if isinstance(value, (tuple, frozenset)):
        return type(value)(look_alike(item) for item in value)
    for original, other in LOOK_ALIKES:
        if type(value) is type(original) and repr(value) == repr(original):
            return other
    return value


def look_alike_run(run, run_id):
    """A second run whose queries equal ``run``'s, look-alike for value, in
    params, read-set values, partition values and snapshot cells."""
    twin = AppRunRecord.from_dict(run.to_dict())
    twin.run_id = run_id
    for query in twin.queries:
        query.run_id = run_id
        query.params = look_alike(query.params)
        query.snapshot = look_alike(query.snapshot)
        query.written_partitions = look_alike(query.written_partitions)
        if not query.read_set.is_all:
            query.read_set = ReadSet(query.table, look_alike(query.read_set.disjuncts))
    return twin


@settings(max_examples=100, deadline=None)
@given(run=run_records())
def test_reload_is_type_exact_across_records(tmp_path_factory, run):
    """One memo decodes a whole snapshot.  Were it keyed by equality, the
    second of ``1`` / ``1.0`` / ``True`` to arrive would come back as the
    first — in a param, a partition value, a read-set value or a snapshot
    cell — and re-encode differently."""
    twin = look_alike_run(run, run.run_id + 1)
    assert [query.params for query in twin.queries] == [query.params for query in run.queries]
    directory = tmp_path_factory.mktemp("exact")
    source = RecordStore(wal=RecordWal(str(directory / "records.wal"), durability="none"))
    source.add_runs([run, twin])
    path = str(directory / "snapshot.json")
    source.save_snapshot(path)
    source.wal.close()
    reloaded = RecordStore.recover(snapshot_path=path)
    assert reloaded.to_snapshot() == source.to_snapshot()
    for run_id, kept in source.runs.items():
        again = reloaded.runs[run_id]
        assert again.encode() == again.json_text == kept.json_text


# ---------------------------------------------------------------------------
# (a) kept text == fresh encode through every mutation; save/load round trip
# ---------------------------------------------------------------------------


def assert_kept_text_is_fresh(store):
    for run in store.runs.values():
        if run.json_text is not None:
            assert run.json_text == run.encode(), run.run_id


def edit(client, page, text):
    return client.send(
        client.request("POST", "/edit.php", {"title": page, "append": f"\n{text}"})
    )


@pytest.mark.parametrize("backend", ["python", "sqlite"])
@pytest.mark.parametrize("seed", range(4))
def test_kept_text_survives_every_mutation(tmp_path, backend, seed):
    rng = random.Random(seed)
    wal_path = str(tmp_path / "records.wal")
    snap_path = str(tmp_path / "warp.json")
    warp = WarpSystem(seed=seed, wal_path=wal_path, durability="none", db_backend=backend)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    pages = [f"P{i}" for i in range(3)]
    for page in pages:
        wiki.seed_page(page, f"{page}\n", owner="admin")
    clients = make_load_clients(wiki, warp.server, [f"u{i}" for i in range(4)])
    browser = warp.client("walker")
    store = warp.graph.store
    repaired = set()

    def serve():
        if rng.random() < 0.3:
            browser.open(f"http://wiki.test/index.php?title={rng.choice(pages)}")
        else:
            # 403 once the client's login has been repaired away.
            client = rng.choice(clients)
            status = edit(client, rng.choice(pages), f"m{rng.random():.6f}.").status
            assert status == (403 if client.name in repaired else 200)

    def cancel():
        store.mark_run_canceled(rng.choice(sorted(store.runs)))

    def replace():
        run_id = rng.choice(sorted(store.runs))
        twin = AppRunRecord.from_dict(store.runs[run_id].to_dict())
        twin.response.body += "<!-- replaced -->"
        warp.graph.replace_run(run_id, twin)
        warp.graph.invalidate_partition_indexes()

    def repair():
        victim = rng.choice([c for c in clients if c.name not in repaired] or clients)
        repaired.add(victim.name)
        warp.repair.submit(CancelClientSpec(client_id=victim.client_id)).result()

    def collect():
        warp.graph.gc(rng.randrange(0, max(2, warp.clock.now() // 3)))

    def quota():
        warp.graph.enforce_client_quota(rng.randrange(1, 4))

    def save():
        warp.save(snap_path)

    for _ in range(6):
        serve()
    operations = [serve] * 6 + [cancel, replace, repair, collect, quota, save]
    for _ in range(24):
        rng.choice(operations)()
        assert_kept_text_is_fresh(store)

    warp.save(snap_path)
    # Every live run has been written now, so every one keeps its text.
    assert all(run.json_text == run.encode() for run in store.runs.values())
    reloaded = WarpSystem.load(snap_path)
    assert reloaded.graph.to_snapshot() == warp.graph.to_snapshot()
    assert_kept_text_is_fresh(reloaded.graph.store)
    assert all(run.json_text is not None for run in reloaded.graph.runs.values())

    # A WAL tail on top of the snapshot converges on the same graph.
    serve()
    cancel()
    serve()
    warp.graph.store.wal.sync()
    tailed = WarpSystem.load(snap_path, wal_path=wal_path)
    assert tailed.graph.to_snapshot() == warp.graph.to_snapshot()
    assert_kept_text_is_fresh(tailed.graph.store)
    tailed.graph.store.wal.close()


def test_canceling_a_run_drops_its_kept_text(tmp_path):
    store = RecordStore(wal=RecordWal(str(tmp_path / "w.wal"), durability="none"))
    store.add_run(fixtures.golden_run())
    assert store.runs[7].json_text == fixtures.golden_run().encode()
    store.mark_run_canceled(7)
    assert store.runs[7].json_text is None
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    assert RecordStore.recover(snapshot_path=path).runs[7].canceled


# ---------------------------------------------------------------------------
# (c) a format-1 file written by the parent commit still loads and repairs
# ---------------------------------------------------------------------------


def run_lines(path):
    """The decoded ``data`` of every run line of the snapshot at ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        entries = [json.loads(line) for line in fh.readlines()[1:]]
    return [entry["data"] for entry in entries if entry["kind"] == "run"]


def loads_repairs_and_upgrades(fixture, version, tmp_path):
    assert read_snapshot_header(fixture)["version"] == version
    with open(fixtures.FORMAT1_COUNTERS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    original, _ = fixtures.format1_workload()

    warp = WarpSystem.load(fixture)
    assert warp.graph.to_snapshot() == original.graph.to_snapshot()
    # No text of an older shape is kept: the next save re-encodes the run.
    assert all(run.json_text is None for run in warp.graph.runs.values())
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    assert fixtures.repair_counters(warp) == expected

    # Loaded from the old format, saved as format 3 — rows only, and the
    # text kept from now on is the text a fresh encode gives — loaded
    # again: same graph.
    upgraded = str(tmp_path / "upgraded.json")
    again = WarpSystem.load(fixture)
    again.save(upgraded)
    assert read_snapshot_header(upgraded)["version"] == 3
    lines = run_lines(upgraded)
    assert len(lines) == original.graph.n_runs and any(d["queries"] for d in lines)
    for data in lines:
        assert all(isinstance(q, list) for q in data["queries"])
        assert all(isinstance(n, list) for n in data.get("nondet", ()))
    assert_kept_text_is_fresh(again.graph.store)
    reloaded = WarpSystem.load(upgraded)
    assert reloaded.graph.to_snapshot() == original.graph.to_snapshot()
    assert all(run.json_text is not None for run in reloaded.graph.runs.values())
    assert_kept_text_is_fresh(reloaded.graph.store)


def test_format1_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    loads_repairs_and_upgrades(fixtures.FORMAT1_SNAPSHOT, 1, tmp_path)


def test_format2_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    """Written by the parent commit (PR 17): header + keyed record lines."""
    keyed = run_lines(fixtures.FORMAT2_SNAPSHOT)
    assert all(isinstance(q, dict) for d in keyed for q in d["queries"])
    # Among them the case only an exact rule catches: no query to tell the
    # shape by, the defaults spelled out all the same.
    assert any(not d["queries"] and d["nondet"] == [] for d in keyed)
    loads_repairs_and_upgrades(fixtures.FORMAT2_SNAPSHOT, 2, tmp_path)


# ---------------------------------------------------------------------------
# the clock and the id counters after a load come from the store's running
# maxima; the two history-wide walks they replaced are the oracle
# ---------------------------------------------------------------------------


def walked_maxima(store):
    max_ts = 0
    for run in store.runs.values():
        max_ts = max(max_ts, run.ts_end)
        for query in run.queries:
            max_ts = max(max_ts, query.ts)
    for visit in store.visits.values():
        max_ts = max(max_ts, visit.ts)
    for patch in store.patches:
        max_ts = max(max_ts, patch.apply_ts)
    max_qid = max(
        (query.qid for run in store.runs.values() for query in run.queries), default=0
    )
    return max_ts, max(store.runs, default=0), max_qid


@pytest.mark.parametrize("version", [1, 2, 3])
def test_clock_and_id_counters_after_load_match_a_walk_of_the_history(tmp_path, version):
    snapshot = {1: fixtures.FORMAT1_SNAPSHOT, 2: fixtures.FORMAT2_SNAPSHOT}.get(version)
    if snapshot is None:
        snapshot = str(tmp_path / "format3.json")
        fixtures.format1_workload()[0].save(snapshot)
    assert read_snapshot_header(snapshot)["version"] == version
    loaded = WarpSystem.load(snapshot)
    store = loaded.graph.store
    assert (store.max_ts, max(store.runs), store.max_qid) == walked_maxima(store)
    at_snapshot = (loaded.clock.now(), loaded.ids.peek("run"), loaded.ids.peek("query"))

    # Grow a WAL tail past the snapshot: traffic, a repair (replace_run
    # with fresh query ids and a patch record) and more traffic.
    wal_path = str(tmp_path / "tail.wal")
    live = WarpSystem.load(snapshot, wal_path=wal_path)
    WikiApp(live.ttdb, live.scripts, live.server).register_code()
    live.client("eve-tablet").open("http://wiki.test/index.php?title=Home")
    fixtures.repair_counters(live)
    live.client("eve-tablet").open("http://wiki.test/index.php?title=News")
    live.graph.store.wal.close()

    tailed = WarpSystem.load(snapshot, wal_path=wal_path)
    store = tailed.graph.store
    assert tailed.graph.to_snapshot() == live.graph.to_snapshot()
    max_ts, max_run_id, max_qid = walked_maxima(store)
    assert (store.max_ts, store.max_qid) == (max_ts, max_qid)
    assert (tailed.clock.now(), tailed.ids.peek("run"), tailed.ids.peek("query")) == (
        max(at_snapshot[0], max_ts),
        max(at_snapshot[1], max_run_id),
        max(at_snapshot[2], max_qid),
    )
    assert max_ts > at_snapshot[0] and max_qid > at_snapshot[2]  # the tail moved them
    tailed.graph.store.wal.close()


# ---------------------------------------------------------------------------
# (e) the bytes one request may cost
# ---------------------------------------------------------------------------


def test_wal_bytes_of_one_edit_form_and_one_edit(tmp_path):
    """Exact counts on a fixed deployment, so a field that bloats the run
    line fails here and not in a benchmark run.  (At the parent commit,
    keyed queries with every default spelled out: 2330 and 3111.)"""
    warp = WarpSystem(seed=7, wal_path=str(tmp_path / "records.wal"), durability="none")
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_page("P", "seed\n", owner="admin")
    (client,) = make_load_clients(wiki, warp.server, ["u"])
    wal = warp.graph.store.wal

    def cost(request):
        before = wal.appended_bytes
        assert client.send(request).status == 200
        return wal.appended_bytes - before

    assert cost(client.request("GET", "/edit.php", {"title": "P"})) == 1461
    append = {"title": "P", "append": "\none more line."}
    assert cost(client.request("POST", "/edit.php", append)) == 1839
    wal.close()


# ---------------------------------------------------------------------------
# (d) files that are not whole are refused; the previous good one survives
# ---------------------------------------------------------------------------


@pytest.fixture
def saved(tmp_path):
    warp, _ = fixtures.format1_workload()
    path = str(tmp_path / "warp.json")
    warp.save(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    return warp, path, lines


def rewrite(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def test_removed_config_keys_in_a_header_are_ignored(saved):
    """A snapshot written before the removed options went still loads, on
    the one path each of them now has."""
    warp, path, _ = saved
    warp.enable_online_repair()
    warp.save(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    with open(fixtures.REMOVED_CONFIG_KEYS, "r", encoding="utf-8") as fh:
        for section, removed in json.load(fh).items():
            header[section].update(removed)
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])

    loaded = WarpSystem.load(path)
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()
    store = loaded.graph.store
    assert store._touch_lock is not store._records_lock
    assert store._qindex_lock is not store._records_lock
    # A partition gate serves until the repair has planned its scope; the
    # queue-everything policy refused from the first request.
    gate = loaded.server.gate
    gate.begin()
    assert gate._conflict("index.php", HttpRequest("GET", "/index.php")) is None


@pytest.mark.parametrize("durability", ["always", None])
def test_retired_durability_in_a_header_loads_as_group_commit(saved, durability):
    """Headers once carried the fsync-per-append policy, or null for the
    default of the day; both load on the one commit path."""
    warp, path, lines = saved
    header = json.loads(lines[0])
    header["serving_config"]["durability"] = durability
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
    loaded = WarpSystem.load(path)
    assert loaded.durability == "group"
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()


def test_unknown_durability_in_a_header_is_refused(saved, tmp_path):
    """Only the retired values are mapped: a corrupt or misspelt policy
    reaches the WAL as written and is refused, not run on group commit."""
    _, path, lines = saved
    header = json.loads(lines[0])
    header["serving_config"]["durability"] = "bogus"
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
    with pytest.raises(ValueError, match="durability"):
        WarpSystem.load(path, wal_path=str(tmp_path / "warp.wal"))


class TestRefusedSnapshots:
    def test_header_counts_the_record_lines(self, saved):
        warp, path, lines = saved
        header = read_snapshot_header(path)
        assert header["version"] == 3
        assert header["records"] == {
            "visit": warp.graph.n_visits,
            "run": warp.graph.n_runs,
            "patch": 0,
        }
        assert len(lines) == 1 + warp.graph.n_visits + warp.graph.n_runs
        assert "runs" not in header["graph"]

    def test_cut_mid_line(self, saved):
        _, path, lines = saved
        rewrite(path, lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        with pytest.raises(ReproError, match=r"warp\.json.*line \d+ is not a complete record"):
            WarpSystem.load(path)

    def test_cut_at_a_line_boundary(self, saved):
        _, path, lines = saved
        rewrite(path, lines[:-2])
        with pytest.raises(ReproError, match=r"warp\.json.*header promises"):
            WarpSystem.load(path)

    def test_extra_record_line(self, saved):
        _, path, lines = saved
        rewrite(path, lines + [lines[-1]])
        with pytest.raises(ReproError, match="header promises"):
            WarpSystem.load(path)

    def test_garbage_line(self, saved):
        _, path, lines = saved
        rewrite(path, lines[:3] + ["{not json}\n"] + lines[4:])
        with pytest.raises(ReproError, match="line 4 is not a complete record"):
            WarpSystem.load(path)
        with pytest.raises(ReproError, match="line 4"):
            RecordStore.recover(snapshot_path=path)

    @pytest.mark.parametrize("version", [0, 4, "3", None])
    def test_unknown_version(self, saved, version):
        _, path, lines = saved
        header = json.loads(lines[0])
        header["version"] = version
        rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
        with pytest.raises(
            ReproError, match=rf"warp\.json.*unsupported format version {version!r}$"
        ):
            WarpSystem.load(path)

    @pytest.mark.parametrize("content", ["", "[1, 2]\n", "{\"version\": 2"])
    def test_not_a_snapshot(self, tmp_path, content):
        path = str(tmp_path / "junk.json")
        rewrite(path, [content])
        with pytest.raises(ReproError, match="header line is not a JSON object"):
            WarpSystem.load(path)

    def test_collector_is_back_on_after_a_refused_load(self, saved):
        _, path, lines = saved
        rewrite(path, lines[:-2])
        assert gc.isenabled()
        with pytest.raises(ReproError):
            WarpSystem.load(path)
        assert gc.isenabled()
        with pytest.raises(ReproError):
            RecordStore.recover(snapshot_path=path)
        assert gc.isenabled()

    def test_collector_stays_off_if_the_caller_had_it_off(self, saved):
        _, path, _ = saved
        gc.disable()
        try:
            WarpSystem.load(path)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestPreviousSnapshotSurvives:
    def _deployment(self, tmp_path, plane):
        warp = WarpSystem(
            wal_path=str(tmp_path / "records.wal"), durability="none", fault_plane=plane
        )
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_page("P", "seed\n", owner="admin")
        (client,) = make_load_clients(wiki, warp.server, ["u"])
        assert edit(client, "P", "one.").status == 200
        path = str(tmp_path / "warp.json")
        warp.save(path)
        with open(path, "rb") as fh:
            good = fh.read()
        assert edit(client, "P", "two.").status == 200
        return warp, path, good

    def test_store_snapshot_fault(self, tmp_path):
        plane = FaultPlane()
        warp, path, good = self._deployment(tmp_path, plane)
        plane.arm(point="store.snapshot", kind="crash", times=1)
        with pytest.raises(SimulatedCrash):
            warp.save(path)
        with open(path, "rb") as fh:
            assert fh.read() == good
        assert os.listdir(str(tmp_path)).count("warp.json") == 1
        assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]
        warp.graph.store.wal._mark_crashed()
        loaded = WarpSystem.load(path, wal_path=str(tmp_path / "records.wal"))
        assert loaded.graph.n_runs == warp.graph.n_runs
        loaded.graph.store.wal.close()

    def test_crash_mid_write(self, tmp_path, monkeypatch):
        """The process dies while record lines are going out: the temp
        file never becomes ``path``."""
        warp, path, good = self._deployment(tmp_path, FaultPlane())
        real_lines = RecordStore._record_lines

        def dying_lines(self):
            for index, line in enumerate(real_lines(self)):
                if index == 1:
                    raise SimulatedCrash("died mid-write")
                yield line

        monkeypatch.setattr(RecordStore, "_record_lines", dying_lines)
        with pytest.raises(SimulatedCrash):
            warp.save(path)
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert fh.read() == good
        assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]
        # The dangling pre-write marker is ignored; the WAL still holds
        # everything the old snapshot lacks.
        warp.graph.store.wal._mark_crashed()
        loaded = WarpSystem.load(path, wal_path=str(tmp_path / "records.wal"))
        assert loaded.graph.n_runs == warp.graph.n_runs
        loaded.graph.store.wal.close()


# ---------------------------------------------------------------------------
# WAL replay decodes each line once and keeps its text; run_scenario takes a WAL
# ---------------------------------------------------------------------------


def test_runs_replayed_from_the_wal_keep_their_text(tmp_path, monkeypatch):
    """Crash before the first save: the runs exist only as WAL lines.  The
    first save after recovery splices those bytes; it encodes nothing."""
    wal_path = str(tmp_path / "records.wal")
    warp = WarpSystem(wal_path=wal_path, durability="none")
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_page("P", "seed\n", owner="admin")
    (client,) = make_load_clients(wiki, warp.server, ["u"])
    for n in range(3):
        assert edit(client, "P", f"edit {n}.").status == 200
    twin = AppRunRecord.from_dict(warp.graph.runs[2].to_dict())
    twin.response.body += "<!-- replaced -->"
    warp.graph.replace_run(2, twin)
    warp.graph.store.wal.close()
    texts = {}  # run id -> the text of its last run / replace_run line
    with open(wal_path, "r", encoding="utf-8", newline="") as fh:
        for kind, data, text in map(wal_module.decode_line, fh):
            if kind in ("run", "replace_run"):
                texts[data["run_id"]] = text
    assert len(texts) == 4 and "<!-- replaced -->" in texts[2]

    recovered = WarpSystem.load(None, wal_path=wal_path)
    assert {run_id: run.json_text for run_id, run in recovered.graph.runs.items()} == texts
    monkeypatch.setattr(
        AppRunRecord, "encode", lambda self: pytest.fail(f"run {self.run_id} re-encoded")
    )
    path = str(tmp_path / "warp.json")
    recovered.save(path)
    recovered.graph.store.wal.close()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert fh.readlines()[1:] == [entry_line("run", text) for text in texts.values()]


def test_replay_decodes_each_wal_line_once(tmp_path, monkeypatch):
    wal_path = str(tmp_path / "records.wal")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    for run_id in range(1, 6):
        run = fixtures.golden_run()
        run.run_id = run_id
        store.add_run(run)
    store.wal.close()
    with open(wal_path, "a", encoding="utf-8") as fh:
        fh.write('{"kind":"run","data":{"run_id":6')  # torn tail

    decoded = []
    real_decode = wal_module.decode_line

    def counting_decode(line):
        decoded.append(line)
        return real_decode(line)

    monkeypatch.setattr(wal_module, "decode_line", counting_decode)
    recovered = RecordStore.recover(wal_path=wal_path)
    assert sorted(recovered.runs) == [1, 2, 3, 4, 5]
    assert len(decoded) == 5  # once each (the torn line has no newline to get that far)
    monkeypatch.undo()
    # The attach dropped the torn tail without a second pass.
    assert RecordWal.repair(wal_path) == 0
    recovered.add_run(AppRunRecord.from_dict(dict(fixtures.golden_run().to_dict(), run_id=6)))
    recovered.wal.close()
    assert [data["run_id"] for _, data in RecordWal.entries(wal_path)] == [1, 2, 3, 4, 5, 6]


def test_run_scenario_passes_warp_kwargs(tmp_path):
    wal_path = str(tmp_path / "records.wal")
    outcome = run_scenario(
        "csrf", n_users=3, n_victims=1, wal_path=wal_path, durability="none"
    )
    assert outcome.warp.graph.store.wal.path == wal_path
    assert sum(1 for kind, _ in RecordWal.entries(wal_path) if kind == "run") == (
        outcome.warp.graph.n_runs
    )
    assert run_scenario("csrf", n_users=3, n_victims=1).warp.graph.store.wal is None
