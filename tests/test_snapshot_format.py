"""Snapshot format 5 and the one-codec contract behind it.

A run is encoded once, when the store appends it; that text is the data
of its WAL line and of its snapshot line, and it says each fact once:
queries as positional rows, nothing the enclosing run says, no defaults —
and no response body, SQL text or row payload another line of the segment
already wrote: those are ``text`` entries, referred to by id.  These tests
pin the bytes (what this build writes, and the inline payloads, inline
texts and keyed lines older builds wrote, which must keep reading), the
round trip of both views, the kept-text invariant across every mutation
the store offers, format-1 to -4 compatibility and the upgrade on the next
save, the text entries a snapshot holds, the bytes one request may cost,
and the refusal of files that are not whole.
"""

import gc
import json
import os
import random
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistence_fixtures as fixtures
from repro.ahg.records import (
    QUERY_ROW,
    AppRunRecord,
    NondetRecord,
    QueryRecord,
    payload_text,
    query_payload,
)
from repro.apps.wiki.app import WikiApp
from repro.core.errors import ReproError
from repro.core.serialize import COMPACT, DecodeMemo, TextTable
from repro.db.storage import Column, TableSchema
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
# (b) the bytes: what this build writes is pinned, what older builds wrote reads
# ---------------------------------------------------------------------------


def test_wal_lines_match_golden_bytes(tmp_path):
    with open(fixtures.GOLDEN_TEXTS, "rb") as fh:
        golden = fh.read()
    assert fixtures.golden_lines(str(tmp_path)) == golden
    # ... and the snapshot lines of the same run — its five text entries,
    # then the run — are the WAL lines.
    lines = golden.decode("utf-8").splitlines(keepends=True)
    assert [json.loads(line)["kind"] for line in lines] == ["text"] * 5 + ["run", "replace_run"]
    run_line = lines[5]
    store = RecordStore()
    store.add_run(fixtures.golden_run())
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert fh.readlines()[1:] == lines[:6]
    # Each fact once: no field name inside a query, no default spelled out,
    # no body, SQL text or payload — a text entry says each.
    assert '"sql"' not in run_line and run_line.count('"run_id"') == 1
    assert '"canceled"' not in run_line and "false" not in run_line
    assert "<p>ok" not in run_line and "SELECT" not in run_line and "UPDATE" not in run_line
    assert '"select"' not in run_line and "pages" not in run_line and "1.5" not in run_line
    assert '"body":1,' in run_line and '"queries":[[11,41,2,3],[12,42,4,5]]' in run_line
    payloads = [json.loads(line)["data"]["text"] for line in lines[2:5:2]]
    assert payloads == [payload_text(query) for query in fixtures.golden_run().queries]


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


def test_format4_golden_lines_still_replay():
    """The lines format 4 wrote (body and SQL text ids, every payload inline)
    read as the run they were written from; the text of none is kept, so
    the next write of the run is in this build's shape."""
    entries = list(RecordWal.entries(fixtures.GOLDEN_FORMAT4))
    assert [kind for kind, _ in entries] == ["text"] * 3 + ["run", "replace_run"]
    texts = fixtures.replay(fixtures.GOLDEN_FORMAT4).texts
    for _, data in entries[3:]:
        assert type(data["response"]["body"]) is int
        assert all(type(row[2]) is int and len(row) >= 8 for row in data["queries"])
        assert AppRunRecord.from_dict(data, memo=DecodeMemo(texts)) == fixtures.golden_run()
    replayed = fixtures.replay(fixtures.GOLDEN_FORMAT4)
    assert replayed.to_snapshot() == fixtures.golden_store().to_snapshot()
    assert replayed.runs[7] == fixtures.golden_run() and replayed.runs[7].json_text is None


def test_format3_golden_lines_still_replay():
    """The lines format 3 wrote (rows, every text inline) read as the run
    they were written from; the text of none is kept, so the next write of
    the run is in this build's shape."""
    entries = list(RecordWal.entries(fixtures.GOLDEN_ROWS))
    assert [kind for kind, _ in entries] == ["run", "replace_run"]
    for _, data in entries:
        assert isinstance(data["response"]["body"], str)
        assert all(isinstance(row[2], str) for row in data["queries"])
        assert AppRunRecord.from_dict(data) == fixtures.golden_run()
    replayed = fixtures.replay(fixtures.GOLDEN_ROWS)
    assert replayed.to_snapshot() == fixtures.golden_store().to_snapshot()
    assert replayed.runs[7].json_text is None


def newcomer_run(body):
    """``golden_run()`` as run 8, answering ``body``."""
    newcomer = fixtures.golden_run()
    newcomer.run_id = 8
    for query in newcomer.queries:
        query.run_id = 8
    newcomer.response.body = body
    return newcomer


def test_wal_mixing_format4_and_format5_lines_replays(tmp_path):
    """A log begun by the previous build and continued by this one, with no
    version switch between: format-4 lines (payloads inline), then a
    format-5 line whose table continues the log's — its SQL ids are the
    format-4 entries', its payloads new entries.  It replays to the store a
    live one builds; the format-5 line is kept, the format-4 one is not."""
    newcomer = newcomer_run("<p>new</p>")
    wal_path = str(tmp_path / "mixed.wal")
    shutil.copy(fixtures.GOLDEN_FORMAT4, wal_path)
    texts = fixtures.replay(fixtures.GOLDEN_FORMAT4).texts
    line = newcomer.encode(texts)
    fresh = texts.take_fresh()
    assert fresh == [4, 5, 6]  # the body and the two payloads; the SQL texts exist
    with open(wal_path, "a", encoding="utf-8", newline="") as fh:
        for ident in fresh:
            fh.write(entry_line("text", texts.entry(ident)))
        fh.write(entry_line("run", line))
    assert '"queries":[[11,41,2,5],[12,42,3,6]]' in line

    recovered = RecordStore.recover(wal_path=wal_path)
    recovered.wal.close()
    live = fixtures.golden_store()
    live.add_run(newcomer_run("<p>new</p>"))
    assert recovered.to_snapshot() == live.to_snapshot()
    assert recovered.runs == {7: fixtures.golden_run(), 8: newcomer}
    assert recovered.runs[8].json_text == line and recovered.runs[7].json_text is None


def test_wal_mixing_format3_and_format5_lines_replays(tmp_path):
    """A log begun by an older build and continued by this one, with no
    version switch between: format-3 lines (texts inline), then format-5
    lines whose ids refer to text entries — one of them the same SQL text a
    format-3 line held inline.  It replays to the store a live one builds."""
    newcomer = newcomer_run("<p>new</p>")
    wal_path = str(tmp_path / "mixed.wal")
    shutil.copy(fixtures.GOLDEN_ROWS, wal_path)
    texts = TextTable()
    line = newcomer.encode(texts)
    with open(wal_path, "a", encoding="utf-8", newline="") as fh:
        for ident in texts.take_fresh():
            fh.write(entry_line("text", texts.entry(ident)))
        fh.write(entry_line("run", line))
    assert '"body":1,' in line and '"<p>new</p>"' not in line

    recovered = RecordStore.recover(wal_path=wal_path)
    live = fixtures.golden_store()
    live.add_run(newcomer)
    assert recovered.to_snapshot() == live.to_snapshot()
    assert recovered.runs == {7: fixtures.golden_run(), 8: newcomer}
    # The format-5 line is kept, the format-3 ones are re-encoded from now on.
    assert recovered.runs[8].json_text == line and recovered.runs[7].json_text is None
    recovered.add_run(AppRunRecord.from_dict(dict(newcomer.to_dict(), run_id=9)))
    recovered.wal.close()
    kinds = [kind for kind, _ in RecordWal.entries(wal_path)]
    assert kinds[-1] == "run" and kinds.count("text") == 5  # run 9 needed no new entry


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
    """Both views of a run — the text (rows, elided defaults, ids for its
    body and SQL texts) and the keyed ``to_dict()`` — rebuild it, and the
    keyed view names every field whether or not the text spells it out.
    Encoded with no table, the text is the format-3 line: it rebuilds the
    run too, and is not kept.  A row of the text is its qid, ts and two ids:
    the payload entry holds what a format-3 row spells out after the SQL."""
    texts = TextTable()
    text = run.encode(texts)
    again = AppRunRecord.from_dict(json.loads(text), text, DecodeMemo(texts))
    assert again == run and again.encode(texts) == text == again.json_text
    inline = AppRunRecord.from_dict(json.loads(run.encode()), run.encode())
    assert inline == run and inline.json_text is None
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
    # What the text may leave out, and only that; the texts it refers to.
    line = json.loads(text)
    assert texts.by_id[line["response"]["body"]] == run.response.body
    assert [texts.by_id[row[2]] for row in line["queries"]] == [q.sql for q in run.queries]
    assert set(line) == RUN_KEYS - {
        name
        for name, default in [
            ("nondet", []), ("client_id", None), ("visit_id", None),
            ("request_id", None), ("canceled", False),
        ]  # fmt: skip
        if keyed[name] == default
    }
    for row, item, query in zip(line["queries"], keyed["queries"], run.queries):
        assert row[:2] == [query.qid, query.ts] and len(row) == 4
        assert texts.by_id[row[3]] == payload_text(query)
        row = row[:3] + json.loads(texts.by_id[row[3]])
        assert 8 <= len(row) <= len(QUERY_ROW)
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
                payload.text = json.dumps(query.to_row()[3:], separators=COMPACT)
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
    store has dropped them — with a text table (ids, defined in the same
    order by both) and without (every text inline)."""
    oracle = json.dumps(run.to_wire(), separators=COMPACT)
    with_ids = json.dumps(run.to_wire(TextTable()), separators=COMPACT)
    assert run.encode() == oracle
    assert all(payload.text for payload in run.payloads if payload is not None)
    assert run.encode() == oracle  # every payload-bearing row spliced
    texts = TextTable()
    assert run.encode(texts) == with_ids
    run.payloads = None
    assert run.encode() == oracle  # every row walked
    assert run.encode(texts) == with_ids
    assert AppRunRecord.from_dict(json.loads(oracle)) == run
    assert AppRunRecord.from_dict(json.loads(with_ids), memo=DecodeMemo(texts)) == run


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
        assert again.encode(reloaded.texts) == again.json_text == kept.json_text


# ---------------------------------------------------------------------------
# (a) kept text == fresh encode through every mutation; save/load round trip
# ---------------------------------------------------------------------------


def assert_kept_text_is_fresh(store):
    for run in store.runs.values():
        if run.json_text is not None:
            assert run.json_text == run.encode(store.texts), run.run_id


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
    assert all(run.json_text == run.encode(store.texts) for run in store.runs.values())
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
    assert store.runs[7].json_text == fixtures.golden_run().encode(store.texts)
    store.mark_run_canceled(7)
    assert store.runs[7].json_text is None
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    assert RecordStore.recover(snapshot_path=path).runs[7].canceled


# ---------------------------------------------------------------------------
# (c) files written by older builds still load, repair, and upgrade
# ---------------------------------------------------------------------------


def record_lines(path, kind):
    """The decoded ``data`` of every ``kind`` line of the snapshot at ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        entries = [json.loads(line) for line in fh.readlines()[1:]]
    return [entry["data"] for entry in entries if entry["kind"] == kind]


def run_lines(path):
    return record_lines(path, "run")


def referenced_ids(lines):
    """Every text id the run lines ``lines`` refer to."""
    return set().union(*(fixtures.text_refs("run", line) for line in lines))


def loads_repairs_and_upgrades(fixture, version, tmp_path):
    assert read_snapshot_header(fixture)["version"] == version
    with open(fixtures.FORMAT1_COUNTERS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    original, _ = fixtures.format1_workload()

    warp = WarpSystem.load(fixture)
    assert warp.graph.to_snapshot() == original.graph.to_snapshot()
    # No text of an older shape is kept: the next save re-encodes the run.
    # (A format-4 line with no query is the line format 5 writes.)
    assert all(
        run.json_text is None for run in warp.graph.runs.values() if version < 4 or run.queries
    )
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    assert fixtures.repair_counters(warp) == expected

    # Loaded from the old format, saved as format 5 — rows of ids only, for
    # every body, SQL text and payload, each text entry once, and the text
    # kept from now on is the text a fresh encode gives — loaded again:
    # same graph.
    upgraded = str(tmp_path / "upgraded.json")
    again = WarpSystem.load(fixture)
    again.save(upgraded)
    assert read_snapshot_header(upgraded)["version"] == 5
    lines = run_lines(upgraded)
    assert len(lines) == original.graph.n_runs and any(d["queries"] for d in lines)
    for data in lines:
        assert all(len(q) == 4 and {type(x) for x in q} == {int} for q in data["queries"])
        assert all(isinstance(n, list) for n in data.get("nondet", ()))
        assert type(data["response"]["body"]) is int
    entries = record_lines(upgraded, "text")
    assert sorted(entry["id"] for entry in entries) == sorted(referenced_ids(lines))
    assert len({entry["text"] for entry in entries}) == len(entries)
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


def test_format3_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    """Written at 881a392: rows, every body and SQL text inline."""
    inline = run_lines(fixtures.FORMAT3_SNAPSHOT)
    assert not record_lines(fixtures.FORMAT3_SNAPSHOT, "text")
    assert all(isinstance(d["response"]["body"], str) for d in inline)
    assert all(isinstance(q, list) and isinstance(q[2], str) for d in inline for q in d["queries"])
    loads_repairs_and_upgrades(fixtures.FORMAT3_SNAPSHOT, 3, tmp_path)


def test_format4_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    """Written at 4c487be: body and SQL text ids, every payload inline."""
    inline = run_lines(fixtures.FORMAT4_SNAPSHOT)
    assert all(type(d["response"]["body"]) is int for d in inline)
    assert all(len(q) >= 8 and type(q[2]) is int for d in inline for q in d["queries"])
    loads_repairs_and_upgrades(fixtures.FORMAT4_SNAPSHOT, 4, tmp_path)


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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_clock_and_id_counters_after_load_match_a_walk_of_the_history(tmp_path, version):
    snapshot = fixtures.OLD_SNAPSHOTS.get(version)
    if snapshot is None:
        snapshot = str(tmp_path / "format5.json")
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
# (f) text entries: a snapshot holds exactly what its runs refer to, ids are
# never reused, and an entry a segment lacks is written again when needed
# ---------------------------------------------------------------------------


def bodied_run(run_id, body, ts):
    """``golden_run()`` as run ``run_id`` at ``ts``, answering ``body``."""
    run = fixtures.golden_run()
    run.run_id, run.ts_start, run.response.body = run_id, ts, body
    for query in run.queries:
        query.run_id, query.ts = run_id, ts
    run.ts_end = ts
    return run


def test_gc_then_save_keeps_exactly_the_referenced_entries(tmp_path, monkeypatch):
    """The save after a gc finds the entries its runs refer to in their kept
    lines: it encodes no query (``to_row`` is never called) and writes
    exactly those entries."""
    wal_path = str(tmp_path / "records.wal")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    for run_id in range(1, 9):
        store.add_run(bodied_run(run_id, f"<p>body {run_id % 5}</p>", ts=run_id * 10))
    assert len(store.texts.by_id) == 5 + 2 + 2
    store.gc(horizon_ts=45)  # runs 1-4 go; bodies 1-4 live on in runs 6-8
    path = str(tmp_path / "snapshot.json")
    monkeypatch.setattr(QueryRecord, "to_row", lambda *args: pytest.fail("a query re-encoded"))
    store.save_snapshot(path)
    monkeypatch.undo()
    entries = record_lines(path, "text")
    assert sorted(entry["id"] for entry in entries) == sorted(referenced_ids(run_lines(path)))
    golden = fixtures.golden_run().queries
    assert {entry["text"] for entry in entries} == {
        "<p>body 0</p>", "<p>body 1</p>", "<p>body 2</p>", "<p>body 3</p>",
        golden[0].sql, golden[1].sql, payload_text(golden[0]), payload_text(golden[1]),
    }  # fmt: skip
    assert set(store.texts.by_id) == {entry["id"] for entry in entries}
    # The WAL starts the segment empty: the next run refers into the snapshot.
    store.add_run(bodied_run(9, "<p>body 1</p>", ts=90))
    store.wal.close()
    assert [kind for kind, _ in RecordWal.entries(wal_path)] == ["snapshot_marker", "run"]
    recovered = RecordStore.recover(snapshot_path=path, wal_path=wal_path)
    recovered.wal.close()
    assert recovered.to_snapshot() == store.to_snapshot()


def test_save_after_replace_run_drops_the_replaced_body(tmp_path):
    """A save finds the referenced entries without a lookup per query until
    something may have left one unused; a replacement does."""
    store = RecordStore(wal=RecordWal(str(tmp_path / "records.wal"), durability="none"))
    store.add_run(bodied_run(1, "<p>before</p>", ts=10))
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    assert "<p>before</p>" in {entry["text"] for entry in record_lines(path, "text")}
    store.replace_run(1, bodied_run(1, "<p>after</p>", ts=10))
    store.save_snapshot(path)
    store.wal.close()
    entries = record_lines(path, "text")
    assert "<p>before</p>" not in {entry["text"] for entry in entries}
    assert sorted(entry["id"] for entry in entries) == sorted(referenced_ids(run_lines(path)))


def test_save_that_keeps_every_entry_leaves_the_table_as_it_is(tmp_path):
    """The common save — no gc, no replacement since the last — writes every
    entry the table holds and does not rebuild the table to keep them."""
    store = RecordStore(wal=RecordWal(str(tmp_path / "records.wal"), durability="none"))
    for run_id in range(1, 5):
        store.add_run(bodied_run(run_id, f"<p>body {run_id % 2}</p>", ts=run_id * 10))
    by_id, ids = store.texts.by_id, store.texts.ids
    path = str(tmp_path / "snapshot.json")
    store.save_snapshot(path)
    store.wal.close()
    assert store.texts.by_id is by_id and store.texts.ids is ids
    assert sorted(entry["id"] for entry in record_lines(path, "text")) == sorted(by_id)
    assert store.texts.fresh == []


def test_a_text_id_is_never_reused_across_save_and_reload(tmp_path):
    """The last entries defined leave with their runs; the header's counter
    keeps their ids from coming back, through a reload and a second save."""
    wal_path, path = str(tmp_path / "records.wal"), str(tmp_path / "snapshot.json")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    store.add_run(bodied_run(1, "<p>kept</p>", ts=10))
    store.add_run(bodied_run(2, "<p>dropped</p>", ts=5))
    dropped = store.texts.ids["<p>dropped</p>"]
    assert dropped == store.texts.last_id == 6  # a body, two SQL texts, two payloads first
    store.gc(horizon_ts=8)
    store.save_snapshot(path)
    store.wal.close()
    assert read_snapshot_header(path)["ids"] == {"text": 6}
    assert dropped not in {entry["id"] for entry in record_lines(path, "text")}
    for last in (6, 7):
        reloaded = RecordStore.recover(snapshot_path=path, wal_path=wal_path)
        assert reloaded.texts.last_id == last
        body, ts = f"<p>new {last}</p>", reloaded.max_ts + 1
        reloaded.add_run(bodied_run(ts, body, ts=ts))
        assert reloaded.texts.ids[body] == last + 1
        reloaded.save_snapshot(path)
        reloaded.wal.close()
    ids = [entry["id"] for entry in record_lines(path, "text")]
    assert read_snapshot_header(path)["ids"]["text"] == max(ids) == 8 and len(ids) == len(set(ids))


def test_a_cached_statement_whose_entry_left_the_segment_writes_it_again(tmp_path):
    """The statement cache outlives the runs: after they are collected and
    the log rotated, a hit on the entry is the first line of the segment to
    need the SQL text and the payload, and it journals their text entries
    first — the payload's from the text the cache entry kept."""
    wal_path, path = str(tmp_path / "records.wal"), str(tmp_path / "warp.json")
    warp = WarpSystem(wal_path=wal_path, durability="none")
    warp.ttdb.create_table(
        TableSchema("t", (Column("k", "int"), Column("v")), partition_columns=("k",))
    )
    warp.ttdb.execute("INSERT INTO t (k, v) VALUES (?, ?)", (1, "one"))
    sql = "SELECT v FROM t WHERE k = ?"
    results = []
    warp.scripts.register(
        "probe.php", {"handle": lambda ctx: results.append(ctx.query_result(sql, (1,)))}
    )
    warp.server.route("/probe.php", "probe.php")

    def probe():
        assert warp.server.handle(HttpRequest("GET", "/probe.php")).status == 200

    probe()
    probe()  # a hit: the payload has its text now
    payload = results[0].payload
    assert results[1].payload is payload and payload.text is not None
    warp.graph.gc(warp.clock.now() + 1)
    warp.save(path)
    assert warp.graph.n_runs == 0 and sql not in warp.graph.store.texts.ids
    assert not record_lines(path, "text")

    probe()  # a hit again — on a payload whose texts the segment lacks
    assert results[2].payload is payload
    warp.graph.store.wal.close()
    tail = [(kind, data) for kind, data in RecordWal.entries(wal_path) if kind != "snapshot_marker"]
    assert [kind for kind, _ in tail] == ["text"] * 3 + ["run"]  # body, SQL, payload, run
    assert [data["text"] for _, data in tail[1:3]] == [sql, payload.text]
    assert fixtures.undefined_refs(fixtures.segment(path, wal_path)) == []
    loaded = WarpSystem.load(path, wal_path=wal_path)
    loaded.graph.store.wal.close()
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()


# ---------------------------------------------------------------------------
# (e) the bytes one request may cost
# ---------------------------------------------------------------------------


def test_wal_bytes_of_one_edit_form_and_one_edit(tmp_path):
    """Exact counts on a fixed deployment, so a field that bloats the run
    line fails here and not in a benchmark run.  The first request of a
    kind pays for the text entries of its body, SQL texts and row payloads;
    its repeat pays for none when it reads what it read before (the form)
    and for the new body and the payloads that saw the new page text when
    it does not (each edit).  (Format 4, payloads inline: 1573, 867, 1767,
    1236; format 3, every text inline: 1461, 1464, 1842, 1841; before it,
    keyed queries with every default spelled out: 2330 for the form and
    3111 for an edit.)"""
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

    form = client.request("GET", "/edit.php", {"title": "P"})
    assert [cost(form), cost(form)] == [1626, 424]
    append = client.request("POST", "/edit.php", {"title": "P", "append": "\none more line."})
    assert [cost(append), cost(append)] == [1476, 942]
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
        assert header["version"] == 5
        n_texts = len(record_lines(path, "text"))
        assert n_texts == len(referenced_ids(run_lines(path))) > 0
        assert header["records"] == {
            "visit": warp.graph.n_visits,
            "text": n_texts,
            "run": warp.graph.n_runs,
            "patch": 0,
        }
        assert len(lines) == 1 + warp.graph.n_visits + n_texts + warp.graph.n_runs
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

    @pytest.mark.parametrize("version", [0, 6, "5", None])
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

        def dying_lines(self, *args):
            for index, line in enumerate(real_lines(self, *args)):
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
    entries = {}  # text id -> its entry's line
    with open(wal_path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            kind, data, text = wal_module.decode_line(line)
            if kind in ("run", "replace_run"):
                texts[data["run_id"]] = text
            elif kind == "text":
                entries[data["id"]] = line
    assert len(texts) == 4
    replaced_body = json.loads(texts[2])["response"]["body"]
    assert "<!-- replaced -->" in entries[replaced_body]

    recovered = WarpSystem.load(None, wal_path=wal_path)
    assert {run_id: run.json_text for run_id, run in recovered.graph.runs.items()} == texts
    monkeypatch.setattr(
        AppRunRecord,
        "encode",
        lambda self, texts=None: pytest.fail(f"run {self.run_id} re-encoded"),
    )
    path = str(tmp_path / "warp.json")
    recovered.save(path)
    recovered.graph.store.wal.close()
    # The entries the runs refer to, then the runs, spliced.
    used = sorted(referenced_ids([json.loads(text) for text in texts.values()]))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert fh.readlines()[1:] == [entries[ident] for ident in used] + [
            entry_line("run", text) for text in texts.values()
        ]


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
    # Once each (the torn line has no newline to get that far): the five
    # text entries the first run defined, the five runs.
    assert len(decoded) == 5 + 5
    monkeypatch.undo()
    # The attach dropped the torn tail without a second pass.
    assert RecordWal.repair(wal_path) == 0
    recovered.add_run(AppRunRecord.from_dict(dict(fixtures.golden_run().to_dict(), run_id=6)))
    recovered.wal.close()
    runs = [data["run_id"] for kind, data in RecordWal.entries(wal_path) if kind == "run"]
    assert runs == [1, 2, 3, 4, 5, 6]


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
