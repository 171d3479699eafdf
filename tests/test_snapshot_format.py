"""Snapshot format 8 and the one-codec contract behind it.

A run is encoded once, when the store appends it; that text is the data
of its WAL line and of its snapshot line, and it says each fact once: the
line is a positional row (``RUN_ROW``), its queries, request and response
rows too, and it writes nothing the enclosing run or another member of the
line says (ids its request headers carry, an end time its queries carry,
the qid and ts of a query that follows the one before it by one), no
defaults — and no response body, loaded files, SQL text or row payload
another line of the segment already wrote: those are ``text`` entries,
referred to by id, a payload's with its array raw.  These tests pin the
bytes this build writes, the round trip of both views and of every
derived field, the kept-text invariant across every mutation the store
offers, the committed format-8 snapshot, the refusal — by name, with the
last commit that reads it — of every file and line in a shape older builds
wrote, the text entries a snapshot holds, the bytes one request may cost,
and the refusal of files that are not whole.  A visit and its deltas
follow the same rules (format 7, which format 8 kept): positional rows, no
default written, the client id, URL and each xpath a ``text`` entry.
"""

import copy
import dataclasses
import gc
import json
import os
import random
import re
import shutil
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persistence_fixtures as fixtures
from repro.ahg.records import (
    NONDET_ROW,
    QUERY_ROW,
    REQUEST_ROW,
    RESPONSE_ROW,
    RUN_ROW,
    VISIT_ROW,
    AppRunRecord,
    EventRecord,
    NondetRecord,
    QueryRecord,
    VisitRecord,
    keyed_line,
    payload_text,
    query_payload,
)
from repro.apps.wiki.app import WikiApp
from repro.core.errors import ReproError
from repro.core.serialize import COMPACT, UPGRADE_ROUTE, DecodeMemo, TextTable
from repro.db.storage import Column, TableSchema
from repro.faults.plane import FaultPlane, SimulatedCrash
from repro.http.message import CLIENT_HEADER, REQUEST_HEADER, VISIT_HEADER
from repro.http.message import HttpRequest, HttpResponse
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
# (b) the bytes: what this build writes is pinned
# ---------------------------------------------------------------------------


def test_wal_lines_match_golden_bytes(tmp_path):
    with open(fixtures.GOLDEN_TEXTS, "rb") as fh:
        golden = fh.read()
    assert fixtures.golden_lines(str(tmp_path)) == golden
    # ... and the snapshot lines of the same run — its six text entries,
    # then the run — are the WAL lines.
    lines = golden.decode("utf-8").splitlines(keepends=True)
    assert [json.loads(line)["kind"] for line in lines] == ["text"] * 6 + ["run", "replace_run"]
    run_line = lines[6]
    store = RecordStore()
    store.add_run(fixtures.golden_run())
    path = str(tmp_path / "snapshot.json")
    fixtures.save_store(store, path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        assert fh.readlines()[1:] == lines[:7]
    # Each fact once: no member name in the run, a query, the request or
    # the response, no default spelled out, no id the request headers say,
    # no body, loaded files, SQL text or payload — a text entry says each.
    assert '"sql"' not in run_line and "false" not in run_line
    assert not re.search(DERIVED_OR_DEFAULT, golden.decode("utf-8"))
    assert "<p>ok" not in run_line and "SELECT" not in run_line and "UPDATE" not in run_line
    assert '"select"' not in run_line and "pages" not in run_line and "1.5" not in run_line
    line = keyed_line("run", json.loads(run_line)["data"])
    assert line["loaded_files"] == 2 and line["response"] == [1, 200, {}, {"sess": None}]
    assert line["request"][:2] == ["POST", "/edit.php"]
    # The second query follows the first by one in qid and in ts: its row
    # is its two text ids alone.
    assert line["queries"] == [[11, 41, 3, 4], [5, 6]]
    # The row stops after its nondet rows (the end time before them is
    # written for its position): its ids are what its headers say, and it
    # is not canceled.
    assert list(line) == list(RUN_ROW[: RUN_ROW.index("nondet") + 1])
    # A payload's entry holds its array raw, not escaped into a string.
    for ident, query in [(4, fixtures.golden_run().queries[0]), (6, fixtures.golden_run().queries[1])]:
        assert lines[ident - 1] == entry_line("text", f'{{"id":{ident},"row":{payload_text(query)}}}')


#: What no format-8 line of ``golden_run()`` may hold (the CI step greps the
#: golden for it): a run line is a row, so a match is a member spelled out
#: by name, or a default.
DERIVED_OR_DEFAULT = (
    r'"(params|cookies|headers|set_cookies)":\{\}|"status":200'
    r'|"(run_id|ts_start|script|loaded_files|request|response|queries|ts_end|nondet'
    r'|client_id|visit_id|request_id|canceled)":'
)


def test_the_keyed_view_is_the_keyed_golden_line():
    """The keyed view names every field, whether or not the line spells it
    out: key for key, it is what PRs 11-17 journaled — a shape this build
    writes only as a view, and refuses to read (see (c))."""
    entries = list(RecordWal.entries(fixtures.GOLDEN_LINES))
    assert [kind for kind, _ in entries] == ["run", "replace_run"]
    for _, data in entries:
        assert isinstance(data["queries"][0], dict) and data["canceled"] is False
        assert fixtures.golden_run().to_dict() == data


def test_visit_lines_match_golden_bytes(tmp_path):
    """A visit uploaded as the extension uploads it: each text entry just
    before the first line that needs it, then rows that name no member,
    leave out every trailing default and keep ``1``, ``1.0`` and ``True``
    apart; replayed, they give the visit back."""
    with open(fixtures.GOLDEN_VISIT, "rb") as fh:
        golden = fh.read()
    assert fixtures.golden_visit_lines(str(tmp_path)) == golden
    lines = golden.decode("utf-8").splitlines(keepends=True)
    assert [json.loads(line)["kind"] for line in lines] == [
        "text", "text", "visit", "visit_request", "text", "visit_event", "text",
        "visit_event", "visit_request", "visit_cookies",
    ]  # fmt: skip
    assert not re.search(VISIT_KEYS, golden.decode("utf-8"))
    assert '"n":1,"f":1.0,"b":true' in lines[5]
    assert lines[7] == entry_line("visit_event", "[1,3,\"click\",4]")
    path = str(tmp_path / "golden.wal")
    rewrite(path, lines)
    store = fixtures.recover_store(wal_path=path)
    store.wal.close()
    assert store.visits == {("c1-☃", 3): fixtures.golden_visit()}


#: What no format-7 visit line may hold (the CI step greps the visit golden
#: for it): a member spelled out by name.  (``"data":`` frames every line.)
VISIT_KEYS = (
    r'"(client_id|visit_id|ts|url|method|post_params|parent_visit|framed|events'
    r'|cookies_before|cookies_after|request_ids?|event|etype|xpath)":'
)


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


def ended(run):
    """The end time ``AppRuntime.execute`` gives ``run``: its last query's
    ts, or its start if later."""
    return max(run.ts_start, run.queries[-1].ts) if run.queries else run.ts_start


#: How a query's qid or ts may step from the previous query's: one more (a
#: run served alone — its row may leave both out), a gap (a run interleaved
#: with another), the same, and back.
steps = st.sampled_from([1, 1, 1, 2, 0, -1])


@st.composite
def run_records(draw):
    run = fixtures.golden_run()
    run.run_id = draw(st.integers(1, 10**6))
    run.queries = draw(st.lists(query_records(), max_size=4))
    for seq, query in enumerate(run.queries):
        query.run_id, query.seq = run.run_id, seq
        if seq and draw(st.booleans()):
            previous = run.queries[seq - 1]
            query.qid, query.ts = previous.qid + draw(steps), previous.ts + draw(steps)
    # The end time the runtime gives a run (derived, not written), the
    # largest ts where the ts go back, later, or any.
    largest = max([run.ts_start, *(query.ts for query in run.queries)])
    ends = [ended(run), ended(run), largest, ended(run) + 1]
    run.ts_end = draw(st.sampled_from(ends) | st.integers(0, 10**6))
    run.nondet = draw(
        st.lists(st.builds(NondetRecord, names, st.integers(0, 9), trees), max_size=2)
    )
    # Ids equal to what their headers say (derived, not written), other
    # ones, and None with and without a header.
    run.request.headers = draw(
        st.fixed_dictionaries(
            {},
            optional={
                CLIENT_HEADER: st.sampled_from(["c1", "c2"]),
                VISIT_HEADER: st.sampled_from(["3", "03", "x"]),
                REQUEST_HEADER: st.sampled_from(["1", "2"]),
                "Referer": st.text(max_size=4),
            },
        )
    )
    run.client_id = draw(st.none() | st.sampled_from(["c1", "c2"]) | st.text(max_size=8))
    run.visit_id = draw(st.none() | st.integers(0, 5))
    run.request_id = draw(st.none() | st.integers(0, 3))
    run.canceled = draw(st.booleans())
    run.request.cookies = draw(st.dictionaries(names, st.text(max_size=4), max_size=2))
    run.response = HttpResponse(
        status=draw(st.sampled_from([200, 302, 403, 500])),
        body=draw(st.text(max_size=20)),
        headers=draw(st.dictionaries(names, st.text(max_size=4), max_size=2)),
        set_cookies=draw(st.dictionaries(names, st.none() | st.text(max_size=4), max_size=2)),
    )
    run.request.params = draw(st.dictionaries(names, st.text(max_size=4), max_size=2))
    if draw(st.booleans()):
        run.request.params["q"] = run.response.body
    return run


def said_ids(request):
    """What ``request``'s correlation headers say the run's ids are, by
    name — None for all three when a header is no id."""
    try:
        ids = (request.client_id, request.visit_id, request.request_id)
    except ValueError:
        ids = (None, None, None)
    return dict(zip(["client_id", "visit_id", "request_id"], ids))


RUN_KEYS = {
    "run_id", "ts_start", "ts_end", "script", "loaded_files", "request", "response",
    "queries", "nondet", "client_id", "visit_id", "request_id", "canceled",
}  # fmt: skip
QUERY_KEYS = (set(QUERY_ROW) - {"disjuncts"}) | {"run_id", "seq", "read_set"}


def same(value, other):
    """By type and value, as the codec compares a member with its default."""
    return type(value) is type(other) and value == other


def derived_members(run):
    """What a reader of ``run``'s line takes each member after its queries'
    rows to be when the line stops before it."""
    return {"ts_end": ended(run), "nondet": [], **said_ids(run.request), "canceled": False}


def written_members(run):
    """The members ``run``'s line writes: every one up to its queries' rows,
    then up to the last that is not what its reader derives."""
    derived = derived_members(run)
    differ = [
        at for at, name in enumerate(RUN_ROW)
        if name in derived and not same(getattr(run, name), derived[name])
    ]  # fmt: skip
    return list(RUN_ROW[: max(differ, default=RUN_ROW.index("queries")) + 1])


@settings(max_examples=200, deadline=None)
@given(run=run_records())
@example(run=fixtures.golden_run())
def test_codec_views_agree(run):
    """The text of a run (rows, elided defaults, ids for its body, SQL
    texts and payloads) rebuilds it and is kept; the keyed ``to_dict()``
    names every field whether or not the text spells it out.  A row of the
    text is its qid, ts and two ids: the payload entry holds what the row
    says after the SQL."""
    texts = TextTable()
    text = run.encode(texts)
    again = AppRunRecord.from_dict(json.loads(text), text, DecodeMemo(texts))
    assert again == run and again.encode(texts) == text == again.json_text
    keyed = run.to_dict()
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
    line = keyed_line("run", json.loads(text))
    assert texts.by_id[line["response"][0]] == run.response.body
    assert texts.by_id[line["loaded_files"]] == json.dumps(run.loaded_files, separators=COMPACT)
    assert [texts.by_id[row[-2]] for row in line["queries"]] == [q.sql for q in run.queries]
    assert list(line) == written_members(run)
    for name in list(line)[RUN_ROW.index("queries") + 1 :]:
        if name != "nondet":  # rows, checked by the keyed view above
            assert same(line[name], getattr(run, name)), name
    # The request and response rows: the keyed members in layout order,
    # stopping after the last one that is not what a fresh object holds.
    for row, names, item, fresh, required in [
        (line["request"], REQUEST_ROW, keyed["request"], HttpRequest("GET", "/"), 2),
        (line["response"], RESPONSE_ROW, keyed["response"], HttpResponse(), 1),
    ]:
        defaults = [getattr(fresh, name) for name in names]
        assert required <= len(row) <= len(names)
        assert len(row) == required or row[-1] != defaults[len(row) - 1]
        for name, value in zip(names, row + defaults[len(row) :]):
            if name != "body":  # an id, resolved above
                assert item[name] == value
    previous = None
    for row, item, query in zip(line["queries"], keyed["queries"], run.queries):
        # A row says its qid and ts unless each is one more than the last row's.
        follows = previous is not None and (query.qid, query.ts) == (
            previous.qid + 1, previous.ts + 1
        )
        assert row[:-2] == ([] if follows else [query.qid, query.ts])
        previous, (sql, ref) = query, row[-2:]
        assert texts.by_id[ref] == payload_text(query)
        assert texts.entry(ref) == f'{{"id":{ref},"row":{payload_text(query)}}}'
        row = [query.qid, query.ts, sql] + json.loads(texts.by_id[ref])
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
    assert AppRunRecord.from_dict(json.loads(with_ids), memo=DecodeMemo(texts)) == run


@settings(max_examples=200, deadline=None)
@given(run=run_records())
@example(run=fixtures.golden_run())
def test_only_the_written_line_decodes(run):
    """Whatever a run holds, the two other shapes it has are never decoded:
    the keyed view (a keyed line, as every older format wrote) is refused
    by name, with the last commit that reads it; the line with every text
    inline, which no build writes to a log, fails on the first text where
    an id goes — even against a table holding every text."""
    texts = TextTable()
    run.encode(texts)
    with pytest.raises(ReproError, match="a run line is in a retired shape: it is keyed.*58a6dff"):
        AppRunRecord.from_dict(run.to_dict(), memo=DecodeMemo(texts))
    with pytest.raises(KeyError):
        AppRunRecord.from_dict(json.loads(run.encode()), memo=DecodeMemo(texts))


def derived_case(case):
    """``(run, visit, response, last, members)``: ``golden_run()`` and a
    visit changed as ``case`` says, the response row the run line must
    write, the last member it writes (none after it is what its reader
    derives) and how many members the visit's row writes (none after its
    last one not at its default)."""
    run = fixtures.golden_run()
    visit = VisitRecord(client_id="c1", visit_id=3, ts=39, url="http://wiki.test/edit.php")
    response, last = [1, 200, {}, {"sess": None}], "nondet"
    if case == "client id differs from its header":
        run.client_id, last = "c2", "client_id"
    elif case == "visit id with no visit header":
        del run.request.headers[VISIT_HEADER]
        last = "visit_id"
    elif case == "ids None under their headers":
        run.client_id = run.visit_id = run.request_id = None
        last = "request_id"
    elif case == "canceled":
        run.canceled, last = True, "canceled"
    elif case == "no nondet, the end time its queries say":
        run.nondet, last = [], "queries"
    elif case == "no nondet, an end time its queries do not say":
        run.nondet, run.ts_end, last = [], 45, "ts_end"
    elif case == "status 500, headers, no cookies set":
        run.response = HttpResponse(500, "<p>boom</p>", {"X-Frame-Options": "DENY"}, {})
        response = [1, 500, {"X-Frame-Options": "DENY"}]
    elif case == "a cookie set to None":
        run.response.set_cookies = {"sess": None, "seen": "1"}
        response = [1, 200, {}, {"sess": None, "seen": "1"}]
    elif case == "a response at its defaults":
        run.response = HttpResponse(body="<p>ok</p>")
        response = [1]
    else:
        assert case == "a visit with no field at its default"
        visit = VisitRecord(
            client_id="c1", visit_id=3, ts=39, url="http://wiki.test/edit.php",
            method="POST", post_params={"title": "Home"}, parent_visit=2, framed=True,
            events=[EventRecord("click", "/html/body/form/input[2]", {"x": 1})],
            cookies_before={"http://wiki.test": {"sess": "tok-0"}},
            cookies_after={"http://wiki.test": {"sess": "tok-1"}}, request_ids=[1],
        )  # fmt: skip
    members = len(VISIT_ROW) if case == "a visit with no field at its default" else 4
    return run, visit, response, last, members


DERIVED_CASES = [
    "client id differs from its header",
    "visit id with no visit header",
    "ids None under their headers",
    "canceled",
    "no nondet, the end time its queries say",
    "no nondet, an end time its queries do not say",
    "status 500, headers, no cookies set",
    "a cookie set to None",
    "a response at its defaults",
    "a visit with no field at its default",
]


@pytest.mark.parametrize("case", DERIVED_CASES)
def test_what_a_line_leaves_to_its_reader_comes_back(tmp_path, case):
    """Each field a line may leave out — an id its header says, the end
    time its queries say, a response member or a visit field at its
    default — is left out exactly when the reader derives the same value,
    by type and value, and no member before it is: decoding the line, a
    save and load, and a WAL replay each give the record back."""
    run, visit, response, last, members = derived_case(case)
    texts = TextTable()
    text = run.encode(texts)
    line = keyed_line("run", json.loads(text))
    assert list(line) == list(RUN_ROW[: RUN_ROW.index(last) + 1]) == written_members(run)
    for name in list(line)[RUN_ROW.index("ts_end") :]:
        if name != "nondet":
            assert same(line[name], getattr(run, name)), name
    body = texts.ids[run.response.body]
    assert line["response"] == [body, *response[1:]]
    assert AppRunRecord.from_dict(json.loads(text), text, DecodeMemo(texts)) == run
    visit_texts = TextTable()
    visit_line = json.loads(visit.encode(visit_texts))
    assert len(visit_line) == members
    assert VisitRecord.from_row(visit_line, DecodeMemo(visit_texts)) == visit

    wal_path, path = str(tmp_path / "records.wal"), str(tmp_path / "snapshot.json")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    store.add_visit(visit)
    store.add_run(unwritten_copy(run))
    store.wal.close()
    assert [json.loads(data) for kind, data in wal_lines(wal_path, "visit")] == [visit_line]
    replayed = fixtures.recover_store(wal_path=wal_path)
    replayed.wal.close()
    store.wal = None
    fixtures.save_store(store, path)
    for again in (replayed, fixtures.recover_store(snapshot_path=path)):
        assert again.runs == {7: run} and again.visits == {("c1", 3): visit}
        assert again.to_snapshot() == store.to_snapshot()


def wal_lines(path, kind):
    """``(kind, data text)`` of every ``kind`` line of the log at ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        decoded = [wal_module.decode_line(line) for line in fh]
    return [(k, text) for k, _, text in decoded if k == kind]


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
    twin = unwritten_copy(run)
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
    fixtures.save_store(source, path)
    source.wal.close()
    reloaded = fixtures.recover_store(snapshot_path=path)
    assert reloaded.to_snapshot() == source.to_snapshot()
    for run_id, kept in source.runs.items():
        again = reloaded.runs[run_id]
        assert again.encode(reloaded.texts) == again.json_text == kept.json_text


#: Text a visit holds: non-ASCII, quotes, backslashes, control characters.
hostile = st.text(st.sampled_from(["a", '"', "\\", "é", "☃", "\n", " ", "\x00", "𝄞"]), max_size=8)
#: What an event's data may hold: every JSON type, ``1``, ``1.0`` and ``True`` apart.
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(hostile, inner, max_size=3),
    max_leaves=8,
)
jars = st.dictionaries(hostile, st.dictionaries(hostile, hostile, max_size=2), max_size=2)


@st.composite
def visit_records(draw):
    events = st.builds(
        EventRecord,
        st.sampled_from(["input", "click", "submit"]),
        hostile,
        st.dictionaries(hostile, json_values, max_size=3),
    )
    return VisitRecord(
        client_id=draw(hostile | st.text(max_size=8)),
        visit_id=draw(st.integers(0, 10**6)),
        ts=draw(st.integers(0, 10**6)),
        url=draw(hostile),
        method=draw(st.sampled_from(["GET", "POST", "PUT"])),
        post_params=draw(st.dictionaries(hostile, hostile, max_size=3)),
        parent_visit=draw(st.none() | st.integers(0, 10**6)),
        framed=draw(st.booleans()),
        events=draw(st.lists(events, max_size=3)),
        cookies_before=draw(jars),
        cookies_after=draw(jars),
        request_ids=draw(st.lists(st.integers(0, 99), max_size=3)),
    )


def typed(view) -> str:
    """``view`` as text that tells ``1``, ``1.0`` and ``True`` apart."""
    return json.dumps(view)


@settings(max_examples=150, deadline=None)
@given(
    visits=st.lists(
        visit_records(), min_size=1, max_size=3, unique_by=lambda v: (v.client_id, v.visit_id)
    )
)
def test_a_visit_journaled_live_comes_back_from_the_log_and_from_a_save(
    tmp_path_factory, visits
):
    """Each visit is uploaded as the extension uploads it — the row as it
    begins, then each request id, event and jar as a delta — and recovered
    two ways, from the log alone and by a save and a load: both give every
    visit's keyed view back, type for type."""
    directory = tmp_path_factory.mktemp("visits")
    wal_path, path = str(directory / "records.wal"), str(directory / "snapshot.json")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    for visit in visits:
        fixtures.upload_visit(store, visit)
    store.wal.sync()
    assert fixtures.undefined_refs(list(RecordWal.entries(wal_path))) == []
    from_log = fixtures.recover_store(wal_path=wal_path)
    from_log.wal.close()
    fixtures.save_store(store, path)
    store.wal.close()
    from_save = fixtures.recover_store(snapshot_path=path)
    expected = [typed(visit.to_dict()) for visit in visits]
    for again in (from_log, from_save):
        assert [typed(visit.to_dict()) for visit in again.visits.values()] == expected
        assert list(again.visits.values()) == visits
        assert again.to_snapshot() == store.to_snapshot()
    assert set(visits[0].to_dict()) == set(VISIT_ROW)


# ---------------------------------------------------------------------------
# (a) kept text == fresh encode through every mutation; save/load round trip
# ---------------------------------------------------------------------------


def unwritten_copy(run):
    """A deep copy of ``run`` with no kept text, as the runtime hands a run
    to the store."""
    twin = copy.deepcopy(run)
    twin.json_text = None
    return twin


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
def test_kept_text_survives_every_mutation(tmp_path, closing, backend, seed):
    rng = random.Random(seed)
    wal_path = str(tmp_path / "records.wal")
    snap_path = str(tmp_path / "warp.json")
    warp = closing(
        WarpSystem(seed=seed, wal_path=wal_path, durability="none", db_backend=backend)
    )
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    pages = [f"P{i}" for i in range(3)]
    for page in pages:
        wiki.seed_page(page, f"{page}\n", owner="admin")
    clients = make_load_clients(wiki, warp.server, [f"u{i}" for i in range(4)])
    browser = warp.client("walker")
    store = warp.graph
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
        run = store.runs[rng.choice(sorted(store.runs))]
        store.replace_runs([dataclasses.replace(run, canceled=True, json_text=None)])

    def replace():
        run_id = rng.choice(sorted(store.runs))
        twin = unwritten_copy(store.runs[run_id])
        twin.response.body += "<!-- replaced -->"
        warp.graph.replace_run(run_id, twin)
        warp.graph.invalidate_partition_indexes()

    def repair():
        victim = rng.choice([c for c in clients if c.name not in repaired] or clients)
        if victim.client_id in store.trimmed_clients:
            return  # refused: retention dropped some of its history
        repaired.add(victim.name)
        warp.repair.submit(CancelClientSpec(client_id=victim.client_id)).result()

    def collect():
        warp.retain(rng.randrange(0, max(2, warp.clock.now() // 3)))

    def quota():
        warp.retain(max_visits_per_client=rng.randrange(1, 4))

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
    reloaded = closing(WarpSystem.load(snap_path))
    assert reloaded.graph.to_snapshot() == warp.graph.to_snapshot()
    assert_kept_text_is_fresh(reloaded.graph)
    assert all(run.json_text is not None for run in reloaded.graph.runs.values())

    # A WAL tail on top of the snapshot converges on the same graph.
    serve()
    cancel()
    serve()
    warp.graph.wal.sync()
    tailed = closing(WarpSystem.load(snap_path, wal_path=wal_path))
    assert tailed.graph.to_snapshot() == warp.graph.to_snapshot()
    assert_kept_text_is_fresh(tailed.graph)


def test_canceling_a_run_drops_its_kept_text(tmp_path, closing):
    store = RecordStore(
        wal=closing(RecordWal(str(tmp_path / "w.wal"), durability="none"))
    )
    store.add_run(fixtures.golden_run())
    kept = store.runs[7].json_text
    assert kept == fixtures.golden_run().encode(store.texts)
    store.replace_runs([dataclasses.replace(store.runs[7], canceled=True, json_text=None)])
    # The row runs on to its last member: the ids before it are written too.
    assert store.runs[7].json_text == kept[:-1] + ',"c1",3,1,true]'
    path = str(tmp_path / "snapshot.json")
    fixtures.save_store(store, path)
    recovered = fixtures.recover_store(snapshot_path=path).runs[7]
    assert recovered.canceled and recovered.json_text == store.runs[7].json_text


def test_runs_that_interleave_write_full_rows_and_reload_every_qid_and_ts(tmp_path, closing):
    """Two threads' runs take turns query by query, so no query of either
    follows its run's previous one by one: every row writes its qid and ts.
    A run served alone writes them in its first row only.  The log and a
    save each give every query back its ``(qid, ts)``."""
    wal_path, path = str(tmp_path / "records.wal"), str(tmp_path / "warp.json")
    warp = closing(WarpSystem(wal_path=wal_path, durability="none"))
    warp.ttdb.create_table(
        TableSchema("t", (Column("k", "int"), Column("v")), partition_columns=("k",))
    )
    warp.ttdb.execute("INSERT INTO t (k, v) VALUES (?, ?)", (1, "one"))
    turns, taken = threading.Condition(), [0]

    def probe(ctx):
        me = int(ctx.param("n", "0"))
        for _ in range(3):
            if ctx.param("alone"):
                ctx.query("SELECT v FROM t WHERE k = ?", (1,))
                continue
            with turns:
                assert turns.wait_for(lambda: taken[0] % 2 == me, 10.0)
            ctx.query("SELECT v FROM t WHERE k = ?", (1,))
            with turns:
                taken[0] += 1
                turns.notify_all()

    warp.scripts.register("probe.php", {"handle": probe})
    warp.server.route("/probe.php", "probe.php")

    def serve(**params):
        assert warp.server.handle(HttpRequest("GET", "/probe.php", params=params)).status == 200

    threads = [threading.Thread(target=serve, kwargs={"n": str(n)}) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not any(thread.is_alive() for thread in threads)
    serve(alone="1")
    warp.graph.wal.sync()

    def identities(deployment):
        runs = deployment.graph.runs
        return {run_id: [(q.qid, q.ts) for q in run.queries] for run_id, run in runs.items()}

    live = identities(warp)
    *interleaved, alone = [live[run_id] for run_id in sorted(live)]
    for queries in interleaved:
        assert [b[0] - a[0] for a, b in zip(queries, queries[1:])] == [2, 2]
    assert [b[0] - a[0] for a, b in zip(alone, alone[1:])] == [1, 1]
    rows = {
        data["run_id"]: [len(row) for row in data["queries"]]
        for kind, data in RecordWal.entries(wal_path)
        if kind == "run"
    }
    assert sorted(rows.values()) == [[4, 2, 2], [4, 4, 4], [4, 4, 4]]
    copy = str(tmp_path / "copy.wal")
    shutil.copy(wal_path, copy)
    from_log = closing(WarpSystem.load(None, wal_path=copy))
    warp.save(path)
    for again in (from_log, closing(WarpSystem.load(path))):
        assert identities(again) == live


# ---------------------------------------------------------------------------
# (c) the committed format-8 snapshot loads and repairs; every file and line
# in a retired shape is refused by name, with the upgrade route
# ---------------------------------------------------------------------------


def record_lines(path, kind):
    """The decoded ``data`` of every ``kind`` line of the snapshot at ``path``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        entries = [json.loads(line) for line in fh.readlines()[1:]]
    return [entry["data"] for entry in entries if entry["kind"] == kind]


def run_lines(path):
    return [keyed_line("run", row) for row in record_lines(path, "run")]


def visit_lines(path):
    return [keyed_line("visit", row) for row in record_lines(path, "visit")]


def referenced_ids(lines, visits=()):
    """Every text id the run lines ``lines`` and the keyed visit lines
    ``visits`` refer to."""
    refs = [fixtures.text_refs("run", line) for line in lines]
    return set().union(*refs, *(fixtures.text_refs("visit", line) for line in visits))


def read_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.readlines()


def test_format8_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    """Written by the build that introduced format 8: it loads as the graph
    ``format1_workload()`` builds today, keeping every run's text; a save
    writes its record lines back byte for byte; and its common.php repair
    gives the counters the same workload has repaired to in every format
    since the first."""
    fixture = fixtures.FORMAT8_SNAPSHOT
    assert read_snapshot_header(fixture)["version"] == 8
    with open(fixtures.FORMAT1_COUNTERS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    original, _ = fixtures.format1_workload()

    warp = WarpSystem.load(fixture)
    assert warp.graph.to_snapshot() == original.graph.to_snapshot()
    assert all(run.json_text is not None for run in warp.graph.runs.values())
    assert_kept_text_is_fresh(warp.graph)
    saved_again = str(tmp_path / "saved_again.json")
    warp.save(saved_again)
    assert read_lines(saved_again)[1:] == read_lines(fixture)[1:]
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    assert fixtures.repair_counters(warp) == expected


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, "missing"])
def test_a_retired_snapshot_version_is_refused_by_name(saved, version):
    """Formats 1-7 — and a header with no version, which only format 1
    wrote — are refused before anything is built, naming the file and the
    last commit that reads the format: no build converts one to format 8."""
    _, path, lines = saved
    header = json.loads(lines[0])
    if version == "missing":
        del header["version"]
    else:
        header["version"] = version
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
    number = 1 if version == "missing" else version
    reader = {
        7: "commit 58a6dff is the last that reads format 7",
        6: "commit 37f403a the last that reads format 6",
        5: "commit 0226ea7 the last that reads format 5",
    }.get(number, "commit 812ecd4 the last that reads formats 1-4")
    named = rf"warp\.json.*format {number} is retired.*converts no older file.*{reader}"
    with pytest.raises(ReproError, match=named):
        WarpSystem.load(path)
    with pytest.raises(ReproError, match=named):
        fixtures.recover_store(snapshot_path=path)


def test_the_committed_format5_file_is_refused_by_name():
    """``warp_format5.json`` (812ecd4) is kept as a refusal input only."""
    with pytest.raises(ReproError, match=r"warp_format5\.json.*format 5 is retired.*0226ea7"):
        WarpSystem.load(fixtures.FORMAT5_SNAPSHOT)


def test_the_committed_format6_file_is_refused_by_name():
    """``warp_format6.json``, the format-8 fixture's workload saved by the
    build that introduced format 6, is kept as a refusal input only: its
    visit lines are keyed."""
    with pytest.raises(ReproError, match=r"warp_format6\.json.*format 6 is retired.*37f403a"):
        WarpSystem.load(fixtures.FORMAT6_SNAPSHOT)


def test_the_committed_format7_file_is_refused_by_name():
    """``warp_format7.json``, the same workload saved by the build that
    introduced format 7, is kept as a refusal input only: its run lines
    are keyed."""
    with pytest.raises(ReproError, match=r"warp_format7\.json.*format 7 is retired.*58a6dff"):
        WarpSystem.load(fixtures.FORMAT7_SNAPSHOT)
    with pytest.raises(ReproError, match=r"warp_format7\.json.*format 7 is retired.*58a6dff"):
        fixtures.recover_store(snapshot_path=fixtures.FORMAT7_SNAPSHOT)


def keyed_nondet_line(line, body=None):
    """The run of journal ``line`` with no query and its nondet entries
    keyed, as every run line before format 3 held them; ``body``, if given,
    replaces its response body."""
    entry = json.loads(line)
    data = entry["data"]
    data["queries"] = []
    data["nondet"] = [
        item if isinstance(item, dict) else dict(zip(NONDET_ROW, item)) for item in data["nondet"]
    ]
    if body is not None:
        data["response"]["body"] = body
    return json.dumps(entry) + "\n"


def retired_log(shape):
    """``(lines, number, why)``: a log holding a line in the retired
    ``shape`` at line ``number``, and what the refusal says of it.  Every
    run line an older build wrote is keyed by member name, and is refused
    for that."""
    keyed = read_lines(fixtures.GOLDEN_LINES)
    format5 = read_lines(fixtures.GOLDEN_FORMAT5)  # five text entries, a run, a replace_run
    written = read_lines(fixtures.GOLDEN_TEXTS)  # six text entries, a run, a replace_run
    why = "a run line is in a retired shape: it is keyed; " + UPGRADE_ROUTE.split(",")[0]
    if shape == "keyed run line":
        return keyed, 1, why
    if shape == "format-7 run line":
        # Its text entries are the ones this build writes; the run line
        # keys its members and writes each row's qid and ts.
        return read_lines(fixtures.GOLDEN_FORMAT6), 7, why
    if shape == "row with its body inline":
        return read_lines(fixtures.GOLDEN_ROWS), 1, why
    if shape == "row with its payload inline":
        return read_lines(fixtures.GOLDEN_FORMAT4), 4, why
    if shape == "format-5 run line":
        return format5, 6, why
    if shape == "keyed-era line with no queries":
        return [keyed_nondet_line(keyed[0])], 1, why
    if shape == "no queries, keyed nondet, body an id":
        # Decoded as rows, the keyed entries would zip their keys into
        # func, seq and value without an error.
        line = keyed_nondet_line(format5[5], body=1)
        return format5[:5] + [line], 6, why
    run = fixtures.golden_run()
    if shape == "run_replay entry":
        # What builds with the response cache journaled for a hit: the base
        # run's id and the fresh identity of the run that answered from it.
        data = {
            "run_id": 8, "base_run_id": 7, "ts_start": 50, "qids": [13, 14],
            "ts": [51, 52], "request": run.request.to_dict(),
        }  # fmt: skip
        return written + [entry_line("run_replay", json.dumps(data))], 9, "'run_replay'"
    if shape == "format-6 visit line":
        # Keyed, every id and text spelled out, as format 6 wrote it.
        data = {"client_id": "c1", "visit_id": 1, "ts": 4, "url": "http://wiki.test/"}
        why = "a visit line is in a retired shape: it is keyed; " + UPGRADE_ROUTE.split(",")[0]
        return written + [entry_line("visit", json.dumps(data))], 9, why
    if shape == "cancel_run entry":
        # What a repair journaled per canceled run up to 37f403a; a repair
        # now journals a canceled copy of the run as a replace_run line.
        return written + [entry_line("cancel_run", json.dumps({"run_id": 7}))], 9, "'cancel_run'"
    assert shape == "entry of unknown kind"
    return written + [entry_line("no_such_kind", "{}")], 9, "'no_such_kind'"


RETIRED_SHAPES = [
    "keyed run line",
    "format-7 run line",
    "row with its body inline",
    "row with its payload inline",
    "format-5 run line",
    "keyed-era line with no queries",
    "no queries, keyed nondet, body an id",
    "run_replay entry",
    "entry of unknown kind",
    "format-6 visit line",
    "cancel_run entry",
]


@pytest.mark.parametrize("shape", RETIRED_SHAPES)
def test_a_retired_wal_line_is_refused_by_name(tmp_path, shape):
    """Replaying a log stops at the first line this build does not write —
    no entry dropped, no record decoded wrong — naming the log, the line
    and the last commit that reads it, and leaves the log byte for byte as
    it was, for the build that can still read it."""
    lines, number, why = retired_log(shape)
    path = str(tmp_path / "retired.wal")
    rewrite(path, lines)
    named = rf"retired\.wal'? line {number}: .*{re.escape(why)}.*commit 0226ea7"
    with pytest.raises(ReproError, match=named):
        fixtures.recover_store(wal_path=path)
    with pytest.raises(ReproError, match=named):
        WarpSystem.load(None, wal_path=path)
    assert read_lines(path) == lines


def test_a_refused_entry_is_named_by_its_line_blank_ones_counted(tmp_path):
    """The line number is the file's, not the entry's index: blank lines,
    which replay skips, count."""
    written = read_lines(fixtures.GOLDEN_TEXTS)
    path = str(tmp_path / "records.wal")
    rewrite(path, written[:6] + ["\n", "\n"] + written[6:] + [entry_line("no_such_kind", "{}")])
    with pytest.raises(ReproError, match=r"records\.wal'? line 11: an entry of unknown kind"):
        fixtures.recover_store(wal_path=path)
    rewrite(path, written)
    store = fixtures.recover_store(wal_path=path)
    store.wal.close()
    assert store.runs == {7: fixtures.golden_run()}


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


@pytest.mark.parametrize("source", ["committed", "saved now"])
def test_clock_and_id_counters_after_load_match_a_walk_of_the_history(tmp_path, source):
    snapshot = fixtures.FORMAT8_SNAPSHOT
    if source == "saved now":
        snapshot = str(tmp_path / "format8.json")
        fixtures.format1_workload()[0].save(snapshot)
    loaded = WarpSystem.load(snapshot)
    store = loaded.graph
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
    live.close()

    tailed = WarpSystem.load(snapshot, wal_path=wal_path)
    store = tailed.graph
    assert tailed.graph.to_snapshot() == live.graph.to_snapshot()
    max_ts, max_run_id, max_qid = walked_maxima(store)
    assert (store.max_ts, store.max_qid) == (max_ts, max_qid)
    assert (tailed.clock.now(), tailed.ids.peek("run"), tailed.ids.peek("query")) == (
        max(at_snapshot[0], max_ts),
        max(at_snapshot[1], max_run_id),
        max(at_snapshot[2], max_qid),
    )
    assert max_ts > at_snapshot[0] and max_qid > at_snapshot[2]  # the tail moved them
    tailed.close()


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
    assert len(store.texts.by_id) == 5 + 1 + 2 + 2  # bodies, loaded files, SQL, payloads
    store.gc(horizon_ts=45)  # runs 1-4 go; bodies 1-4 live on in runs 6-8
    path = str(tmp_path / "snapshot.json")
    monkeypatch.setattr(QueryRecord, "to_row", lambda *args: pytest.fail("a query re-encoded"))
    fixtures.save_store(store, path)
    monkeypatch.undo()
    entries = record_lines(path, "text")
    assert sorted(entry["id"] for entry in entries) == sorted(referenced_ids(run_lines(path)))
    golden = fixtures.golden_run().queries
    assert set(map(fixtures.entry_text, entries)) == {
        "<p>body 0</p>", "<p>body 1</p>", "<p>body 2</p>", "<p>body 3</p>",
        '{"edit.php":2,"common.php":0}',
        golden[0].sql, golden[1].sql, payload_text(golden[0]), payload_text(golden[1]),
    }  # fmt: skip
    assert set(store.texts.by_id) == {entry["id"] for entry in entries}
    # The WAL starts the segment empty: the next run refers into the snapshot.
    store.add_run(bodied_run(9, "<p>body 1</p>", ts=90))
    store.wal.close()
    assert [kind for kind, _ in RecordWal.entries(wal_path)] == ["snapshot_marker", "run"]
    recovered = fixtures.recover_store(snapshot_path=path, wal_path=wal_path)
    recovered.wal.close()
    assert recovered.to_snapshot() == store.to_snapshot()


def test_a_save_after_dropping_visits_keeps_exactly_the_referenced_entries(tmp_path):
    """A visit's URL and xpaths are entries no run refers to: once quota
    drops the visit, the next save leaves them out."""
    warp, _ = fixtures.format1_workload()
    urls = {visit.url for visit in warp.graph.visits.values()}
    path = str(tmp_path / "warp.json")
    warp.save(path)  # the table holds every visit's entries now
    assert warp.retain(max_visits_per_client=1) > 0
    warp.save(path)
    entries = record_lines(path, "text")
    referenced = referenced_ids(run_lines(path), visit_lines(path))
    assert sorted(entry["id"] for entry in entries) == sorted(referenced)
    kept = {visit.url for visit in warp.graph.visits.values()}
    assert kept < urls and not (urls - kept) & {entry.get("text") for entry in entries}


def test_save_after_replace_run_drops_the_replaced_body(tmp_path):
    """A save finds the referenced entries without a lookup per query until
    something may have left one unused; a replacement does."""
    store = RecordStore(wal=RecordWal(str(tmp_path / "records.wal"), durability="none"))
    store.add_run(bodied_run(1, "<p>before</p>", ts=10))
    path = str(tmp_path / "snapshot.json")
    fixtures.save_store(store, path)
    assert "<p>before</p>" in set(map(fixtures.entry_text, record_lines(path, "text")))
    store.replace_run(1, bodied_run(1, "<p>after</p>", ts=10))
    fixtures.save_store(store, path)
    store.wal.close()
    entries = record_lines(path, "text")
    assert "<p>before</p>" not in set(map(fixtures.entry_text, entries))
    assert sorted(entry["id"] for entry in entries) == sorted(referenced_ids(run_lines(path)))


def test_save_that_keeps_every_entry_leaves_the_table_as_it_is(tmp_path):
    """The common save — no gc, no replacement since the last — writes every
    entry the table holds and does not rebuild the table to keep them."""
    store = RecordStore(wal=RecordWal(str(tmp_path / "records.wal"), durability="none"))
    for run_id in range(1, 5):
        store.add_run(bodied_run(run_id, f"<p>body {run_id % 2}</p>", ts=run_id * 10))
    by_id, ids = store.texts.by_id, store.texts.ids
    path = str(tmp_path / "snapshot.json")
    fixtures.save_store(store, path)
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
    # A body, the loaded files, two SQL texts and two payloads first.
    assert dropped == store.texts.last_id == 7
    store.gc(horizon_ts=8)
    fixtures.save_store(store, path)
    store.wal.close()
    assert read_snapshot_header(path)["ids"] == {"text": 7}
    assert dropped not in {entry["id"] for entry in record_lines(path, "text")}
    for last in (7, 8):
        reloaded = fixtures.recover_store(snapshot_path=path, wal_path=wal_path)
        assert reloaded.texts.last_id == last
        body, ts = f"<p>new {last}</p>", reloaded.max_ts + 1
        reloaded.add_run(bodied_run(ts, body, ts=ts))
        assert reloaded.texts.ids[body] == last + 1
        fixtures.save_store(reloaded, path)
        reloaded.wal.close()
    ids = [entry["id"] for entry in record_lines(path, "text")]
    assert read_snapshot_header(path)["ids"]["text"] == max(ids) == 9 and len(ids) == len(set(ids))


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
    # The store's half of retention alone, on purpose (WarpSystem.retain
    # pairs it with the database half, which would flush the statement
    # cache whose hit this test needs).
    store = warp.graph
    store.gc(warp.clock.now() + 1)
    warp.save(path)
    assert store.n_runs == 0 and sql not in store.texts.ids
    assert not record_lines(path, "text")

    probe()  # a hit again — on a payload whose texts the segment lacks
    assert results[2].payload is payload
    warp.close()
    tail = [(kind, data) for kind, data in RecordWal.entries(wal_path) if kind != "snapshot_marker"]
    # The body, the loaded files, the SQL text and the payload, then the run.
    assert [kind for kind, _ in tail] == ["text"] * 4 + ["run"]
    assert [fixtures.entry_text(data) for _, data in tail[2:4]] == [sql, payload.text]
    assert fixtures.undefined_refs(fixtures.segment(path, wal_path)) == []
    loaded = WarpSystem.load(path, wal_path=wal_path)
    loaded.close()
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
    it does not (each edit).  (Formats 6 and 7, a keyed run line with every
    row's qid and ts and the end time: 1506, 283, 1275, 742; format 5, keyed
    request and response, ids spelled out, payloads escaped: 1626, 424,
    1476, 942; format 4, payloads inline: 1573, 867, 1767, 1236; format 3,
    every text inline: 1461, 1464, 1842, 1841; before it, keyed queries
    with every default spelled out: 2330 for the form and 3111 for an
    edit.)"""
    warp = WarpSystem(seed=7, wal_path=str(tmp_path / "records.wal"), durability="none")
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_page("P", "seed\n", owner="admin")
    (client,) = make_load_clients(wiki, warp.server, ["u"])
    wal = warp.graph.wal

    def cost(request):
        before = wal.appended_bytes
        assert client.send(request).status == 200
        return wal.appended_bytes - before

    form = client.request("GET", "/edit.php", {"title": "P"})
    assert [cost(form), cost(form)] == [1404, 180]
    append = client.request("POST", "/edit.php", {"title": "P", "append": "\none more line."})
    assert [cost(append), cost(append)] == [1158, 625]
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


def add_removed_config_keys(path):
    """Put every removed option of the fixture back into a saved header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    header = json.loads(lines[0])
    with open(fixtures.REMOVED_CONFIG_KEYS, "r", encoding="utf-8") as fh:
        for section, removed in json.load(fh).items():
            header[section].update(removed)
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])


def test_removed_config_keys_in_a_header_are_ignored(saved):
    """A snapshot written before the removed options went still loads, on
    the one path each of them now has."""
    warp, path, _ = saved
    warp.enable_detection()
    warp.save(path)
    add_removed_config_keys(path)

    loaded = WarpSystem.load(path)
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()
    # A partition gate serves until the repair has planned its scope; the
    # queue-everything policy refused from the first request.
    gate = loaded.server.gate
    gate.begin()
    assert gate._conflict("index.php", HttpRequest("GET", "/index.php")) is None
    # Previews refresh on admin reads: no background refresher starts.
    assert loaded.detector is not None
    # The detector flags at the one threshold there is.
    assert loaded.detector.status()["threshold"] == 1.0
    assert not [t for t in threading.enumerate() if "refresher" in t.name]


def test_a_rotation_bound_in_a_header_never_rotates_the_log(tmp_path):
    """WAL rotation is gone: a loaded deployment whose header still names
    a bound lets its log grow past it, and writes no snapshot."""
    path, wal_path = str(tmp_path / "warp.json"), str(tmp_path / "records.wal")
    warp, _ = fixtures.format1_workload(wal_path=wal_path)
    warp.save(path)
    warp.close()
    add_removed_config_keys(path)
    bound = read_snapshot_header(path)["serving_config"]["wal_rotate_bytes"]
    with open(path, "rb") as fh:
        snapshot = fh.read()

    loaded = WarpSystem.load(path, wal_path=wal_path)
    WikiApp(loaded.ttdb, loaded.scripts, loaded.server).register_code()
    wal = loaded.graph.wal
    read = HttpRequest("GET", "/index.php", params={"title": "Home"})
    for _ in range(200):
        if wal.appended_bytes > bound:
            break
        assert loaded.server.handle(read).status == 200
    wal.close()
    assert os.path.getsize(wal_path) > bound == 4096
    with open(path, "rb") as fh:
        assert fh.read() == snapshot
    assert sorted(os.listdir(tmp_path)) == ["records.wal", "warp.json"]


@pytest.mark.parametrize("durability", ["always", None])
def test_retired_durability_in_a_header_is_refused(saved, tmp_path, durability):
    """Headers before format 5 could carry the fsync-per-append policy, or
    null for the default of the day; no format-5 header does, so neither is
    mapped any more: each reaches the WAL as written and is refused."""
    _, path, lines = saved
    header = json.loads(lines[0])
    header["serving_config"]["durability"] = durability
    rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
    with pytest.raises(ValueError, match="durability"):
        WarpSystem.load(path, wal_path=str(tmp_path / "warp.wal"))


def test_unknown_durability_in_a_header_is_refused(saved, tmp_path):
    """A corrupt or misspelt policy reaches the WAL as written and is
    refused, not run on group commit."""
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
        assert header["version"] == 8
        n_texts = len(record_lines(path, "text"))
        assert n_texts == len(referenced_ids(run_lines(path), visit_lines(path))) > 0
        assert list(header["records"].items()) == [
            ("text", n_texts),
            ("visit", len(warp.graph.visits)),
            ("run", warp.graph.n_runs),
            ("patch", 0),
        ]
        kinds = [json.loads(line)["kind"] for line in lines[1:]]
        assert kinds == sorted(kinds, key=["text", "visit", "run"].index)
        assert len(lines) == 1 + len(warp.graph.visits) + n_texts + warp.graph.n_runs
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
            fixtures.recover_store(snapshot_path=path)

    def test_record_of_unknown_kind(self, saved):
        """A snapshot line of a kind no build writes — ``run_replay``, what
        the response cache journaled for a hit, included — is refused, not
        skipped."""
        _, path, lines = saved
        rewrite(path, lines[:2] + [entry_line("run_replay", "{}")] + lines[3:])
        with pytest.raises(ReproError, match="record of unknown kind 'run_replay'"):
            WarpSystem.load(path)

    def test_run_line_in_a_retired_shape(self, saved):
        """A format-8 header over a run line keyed by member name, as format
        7 and every format before it wrote it, is refused with the last
        commit that reads it, not decoded."""
        _, path, lines = saved
        at = next(n for n, line in enumerate(lines) if line.startswith('{"kind":"run"'))
        data = keyed_line("run", json.loads(lines[at])["data"])
        keyed = entry_line("run", json.dumps(data, separators=COMPACT))
        rewrite(path, lines[:at] + [keyed] + lines[at + 1 :])
        refused = "a run line is in a retired shape: it is keyed.*commit 58a6dff"
        with pytest.raises(ReproError, match=refused):
            WarpSystem.load(path)
        with pytest.raises(ReproError, match=refused):
            fixtures.recover_store(snapshot_path=path)

    def test_a_refused_retired_file_leaves_the_sqlite_database_as_it_was(self, tmp_path):
        """The upgrade route loads the same files with an older build: a
        retired header is refused before anything touches the live
        deployment's database files."""
        db_path = str(tmp_path / "db")
        warp = WarpSystem(db_backend="sqlite", db_path=db_path)
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_page("P", "seed\n", owner="admin")
        path = str(tmp_path / "warp.json")
        warp.save(path)
        lines = read_lines(path)
        header = json.loads(lines[0])
        header["version"] = 4
        rewrite(path, [json.dumps(header) + "\n"] + lines[1:])

        def files():
            found = {}
            for directory, _, names in os.walk(warp.database.path):
                for name in names:
                    file_path = os.path.join(directory, name)
                    with open(file_path, "rb") as fh:
                        found[file_path] = fh.read()
            return found

        before = files()
        assert before
        with pytest.raises(ReproError, match="format 4 is retired"):
            WarpSystem.load(path)
        assert files() == before

    @pytest.mark.parametrize("kind", ["cancel_run", "gc", "replace_run"])
    def test_a_wal_only_kind_in_a_snapshot_is_refused(self, tmp_path, kind):
        """Snapshot lines and WAL lines are applied by one rule, but a
        snapshot holds only visits, texts, runs and patches: a line of a
        kind only the log writes is refused by the file's name, before
        anything touches the database files."""
        db_path = str(tmp_path / "db")
        warp = WarpSystem(db_backend="sqlite", db_path=db_path)
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_page("P", "seed\n", owner="admin")
        read = HttpRequest("GET", "/index.php", params={"title": "P"})
        assert warp.server.handle(read).status == 200
        path = str(tmp_path / "warp.json")
        warp.save(path)
        lines = read_lines(path)
        (run,) = run_lines(path)
        data = {"cancel_run": {"run_id": run["run_id"]}, "gc": {"horizon_ts": 1}}
        line = entry_line(kind, json.dumps(data.get(kind, run), separators=COMPACT))
        rewrite(path, lines + [line])

        def files():
            found = {}
            for directory, _, names in os.walk(warp.database.path):
                for name in names:
                    with open(os.path.join(directory, name), "rb") as fh:
                        found[os.path.join(directory, name)] = fh.read()
            return found

        before = files()
        assert before
        refused = rf"warp\.json.*line {len(lines) + 1} holds a record of unknown kind '{kind}'"
        with pytest.raises(ReproError, match=refused):
            WarpSystem.load(path)
        assert files() == before

    @pytest.mark.parametrize("version", [0, 9, "8", None])
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
            fixtures.recover_store(snapshot_path=path)
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
    def _deployment(self, tmp_path, plane, closing):
        warp = closing(WarpSystem(
            wal_path=str(tmp_path / "records.wal"), durability="none", fault_plane=plane
        ))
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

    def test_store_snapshot_fault(self, tmp_path, closing):
        plane = FaultPlane()
        warp, path, good = self._deployment(tmp_path, plane, closing)
        plane.arm(point="store.snapshot", kind="crash", times=1)
        with pytest.raises(SimulatedCrash):
            warp.save(path)
        with open(path, "rb") as fh:
            assert fh.read() == good
        assert os.listdir(str(tmp_path)).count("warp.json") == 1
        assert not [name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")]
        warp.graph.wal._mark_crashed()
        loaded = WarpSystem.load(path, wal_path=str(tmp_path / "records.wal"))
        assert loaded.graph.n_runs == warp.graph.n_runs
        loaded.close()

    def test_crash_mid_write(self, tmp_path, monkeypatch, closing):
        """The process dies while record lines are going out: the temp
        file never becomes ``path``."""
        warp, path, good = self._deployment(tmp_path, FaultPlane(), closing)
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
        warp.graph.wal._mark_crashed()
        loaded = WarpSystem.load(path, wal_path=str(tmp_path / "records.wal"))
        assert loaded.graph.n_runs == warp.graph.n_runs
        loaded.close()


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
    twin = unwritten_copy(warp.graph.runs[2])
    twin.response.body += "<!-- replaced -->"
    warp.graph.replace_run(2, twin)
    warp.close()
    texts = {}  # run id -> the text of its last run / replace_run line
    entries = {}  # text id -> its entry's line
    with open(wal_path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            kind, data, text = wal_module.decode_line(line)
            if kind in ("run", "replace_run"):
                texts[keyed_line(kind, data)["run_id"]] = text
            elif kind == "text":
                entries[data["id"]] = line
    assert len(texts) == 4
    replaced_body = keyed_line("run", json.loads(texts[2]))["response"][RESPONSE_ROW.index("body")]
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
    recovered.close()
    # The entries the runs refer to, then the runs, spliced.
    used = sorted(referenced_ids([keyed_line("run", json.loads(text)) for text in texts.values()]))
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
        fh.write('{"kind":"run","data":[6,40')  # torn tail

    decoded = []
    real_decode = wal_module.decode_line

    def counting_decode(line):
        decoded.append(line)
        return real_decode(line)

    monkeypatch.setattr(wal_module, "decode_line", counting_decode)
    recovered = fixtures.recover_store(wal_path=wal_path)
    assert sorted(recovered.runs) == [1, 2, 3, 4, 5]
    # Once each (the torn line has no newline to get that far): the six
    # text entries the first run defined, the five runs.
    assert len(decoded) == 6 + 5
    monkeypatch.undo()
    # The attach dropped the torn tail without a second pass.
    assert RecordWal.repair(wal_path) == 0
    sixth = fixtures.golden_run()
    sixth.run_id = 6
    recovered.add_run(sixth)
    recovered.wal.close()
    runs = [data["run_id"] for kind, data in RecordWal.entries(wal_path) if kind == "run"]
    assert runs == [1, 2, 3, 4, 5, 6]


def test_run_scenario_passes_warp_kwargs(tmp_path, closing):
    wal_path = str(tmp_path / "records.wal")
    outcome = run_scenario(
        "csrf", n_users=3, n_victims=1, wal_path=wal_path, durability="none"
    )
    closing(outcome.warp)
    assert outcome.warp.graph.wal.path == wal_path
    assert sum(1 for kind, _ in RecordWal.entries(wal_path) if kind == "run") == (
        outcome.warp.graph.n_runs
    )
    assert run_scenario("csrf", n_users=3, n_victims=1).warp.graph.wal is None
