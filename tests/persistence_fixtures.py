"""What the committed persistence fixtures hold, and how they were made.

``golden_run()`` is the fixed run whose journal lines are pinned byte for
byte, once per shape the codec has written:

* ``fixtures/wal_run_lines.format8.golden`` — the lines this build writes:
  the ``text`` entries of the body, the loaded files, the two SQL texts and
  the two row payloads (row entries, their arrays raw), then a run line
  that is a positional row of ids and rows (``records.RUN_ROW``) and writes
  nothing its reader can derive: no member name, no id the request headers
  say, no end time the queries say, and no qid or ts of a row that follows
  the one before it by one.  ``python tests/persistence_fixtures.py``
  regenerates it and the visit golden below, and ``--check`` (a tier-1 CI
  step) regenerates both into a temporary directory and fails, naming the
  file, unless each is byte-identical to the committed one — so a codec
  change cannot land without its golden, nor a golden without a codec
  change.
* ``fixtures/wal_run_lines.format6.golden`` — the lines formats 6 and 7
  wrote: keyed run lines, every query row ``[qid, ts, <sql id>, <row id>]``
  (written at 00ace47, which introduced format 6, and unchanged up to
  58a6dff, the last commit to write it).
* ``fixtures/wal_run_lines.format5.golden`` — the lines format 5 wrote:
  keyed request and response, every id spelled out, payloads as escaped
  strings (written at a3652cd, which introduced it, and unchanged up to
  0226ea7, the last commit to write it).
* ``fixtures/wal_run_lines.format4.golden`` — the rows format 4 wrote:
  body and SQL texts as ids, every payload inline (written at da5cbfd,
  which introduced it, and unchanged up to 4c487be, the last commit to
  write it).
* ``fixtures/wal_run_lines.format3.golden`` — the row-shaped lines with
  every text inline that format 3 wrote (written at 27bc1cf, which
  introduced it, and unchanged up to 881a392, the last commit to write it).
* ``fixtures/wal_run_lines.golden`` — the keyed lines ebe3011–29d2bb9
  wrote (written at ebe3011).

Nothing writes the last five any more, and this build reads none of them:
they are the inputs its refusal of a retired line shape is tested on.

``golden_visit()`` is the fixed visit whose journal lines, as the extension
uploads it — the visit, then its deltas — are pinned the same way in
``fixtures/wal_visit_lines.format7.golden``: the ``text`` entries of its
client id, URL and xpaths, each just before the first line that refers to
it, and positional rows that spell no key.  Format 8 left a visit's lines
as format 7 wrote them, so the file keeps its name.

``format1_workload()`` is the small wiki deployment whose format-8
snapshot is committed as ``fixtures/warp_format8.json`` (written by
running ``format1_workload()[0].save(...)`` with the build that
introduced format 8), with the ``RepairStats`` counters its common.php
repair produced in ``fixtures/warp_format1.counters.json`` — the counters
the same workload has repaired to in every format since ebe3011 wrote it
as format 1.  ``--check`` loads the snapshot and fails unless it holds the
graph ``format1_workload()`` builds today and repairs to those counters,
so a change that stops a committed format-8 file from loading, or changes
what it repairs to, fails by name.  ``fixtures/warp_format7.json`` (the
same workload saved at 58a6dff), ``fixtures/warp_format6.json`` (saved at
37f403a) and ``fixtures/warp_format5.json`` (saved at 812ecd4) are kept as
refusal inputs only.

Tests import the builders from here so the inputs cannot drift from the
files.
"""

import json
import os
import sys
import tempfile

from repro.ahg.records import (
    EVENT_ROW,
    RESPONSE_ROW,
    AppRunRecord,
    EventRecord,
    NondetRecord,
    QueryRecord,
    VisitRecord,
    keyed_line,
)
from repro.apps.wiki.app import WikiApp
from repro.apps.wiki.common import make_common
from repro.http.message import HttpRequest, HttpResponse
from repro.repair.api import PatchSpec
from repro.store.recordstore import RecordStore
from repro.store.snapshot import SnapshotReader
from repro.store.wal import RecordWal
from repro.ttdb.partitions import ReadSet
from repro.warp import WarpSystem

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
#: ``golden_lines()`` as this build writes it (text entries, a positional row) ...
GOLDEN_TEXTS = os.path.join(HERE, "wal_run_lines.format8.golden")
#: ... as formats 6 and 7 wrote it (keyed run line, rows of ids) ...
GOLDEN_FORMAT6 = os.path.join(HERE, "wal_run_lines.format6.golden")
#: ... as format 5 wrote it (keyed request, payloads escaped) ...
GOLDEN_FORMAT5 = os.path.join(HERE, "wal_run_lines.format5.golden")
#: ... as format 4 wrote it (body and SQL ids, payloads inline) ...
GOLDEN_FORMAT4 = os.path.join(HERE, "wal_run_lines.format4.golden")
#: ... as format 3 wrote it (rows, every text inline) ...
GOLDEN_ROWS = os.path.join(HERE, "wal_run_lines.format3.golden")
#: ... and as PRs 11-17 wrote it (keyed objects).
GOLDEN_LINES = os.path.join(HERE, "wal_run_lines.golden")
#: ``golden_visit_lines()`` as this build writes it.
GOLDEN_VISIT = os.path.join(HERE, "wal_visit_lines.format7.golden")
FORMAT8_SNAPSHOT = os.path.join(HERE, "warp_format8.json")
FORMAT7_SNAPSHOT = os.path.join(HERE, "warp_format7.json")
FORMAT6_SNAPSHOT = os.path.join(HERE, "warp_format6.json")
FORMAT5_SNAPSHOT = os.path.join(HERE, "warp_format5.json")
FORMAT1_COUNTERS = os.path.join(HERE, "warp_format1.counters.json")
#: Config keys a snapshot no longer persists, at non-default values.
REMOVED_CONFIG_KEYS = os.path.join(HERE, "removed_config_keys.json")

COUNTERS = (
    "visits_reexecuted",
    "runs_reexecuted",
    "runs_pruned",
    "runs_canceled",
    "queries_reexecuted",
    "nondet_misses",
    "conflicts",
    "total_visits",
    "total_runs",
    "total_queries",
)


def golden_run() -> AppRunRecord:
    """Every shape the codec has to flatten: tuples inside tuples,
    frozensets of key tuples, a multi-disjunct and an ALL read set, floats,
    None, non-ASCII text, quotes and newlines."""
    select = QueryRecord(
        qid=11,
        run_id=7,
        seq=0,
        ts=41,
        sql="SELECT text FROM pages WHERE title = ? OR title = ?",
        params=("Home", "Café ☃"),
        kind="select",
        table="pages",
        read_set=ReadSet(
            "pages",
            disjuncts=(
                frozenset({("title", "Home")}),
                frozenset({("title", "Café ☃"), ("owner", 3)}),
            ),
        ),
        written_row_ids=(),
        written_partitions=frozenset(),
        full_table_write=False,
        snapshot=("select", True, (("Home", 1.5, None), ("say \"hi\"\n", 2, True))),
        read_row_ids=(4, 9),
    )
    update = QueryRecord(
        qid=12,
        run_id=7,
        seq=1,
        ts=42,
        sql="UPDATE pages SET text = ? WHERE 1",
        params=("new\ttext", 0.25),
        kind="update",
        table="pages",
        read_set=ReadSet("pages", disjuncts=None),
        written_row_ids=(("pages", 4), ("pages", 9)),
        written_partitions=frozenset(
            {("pages", "title", "Home"), ("pages", "title", "Zed"), ("pages", "owner", 3)}
        ),
        full_table_write=True,
        snapshot=("write", 2),
    )
    return AppRunRecord(
        run_id=7,
        ts_start=40,
        ts_end=42,
        script="edit.php",
        loaded_files={"edit.php": 2, "common.php": 0},
        request=HttpRequest(
            "POST",
            "/edit.php",
            params={"title": "Home", "append": "\nlínea"},
            cookies={"sess": "tok-1"},
            headers={"X-Warp-Client": "c1", "X-Warp-Visit": "3", "X-Warp-Request": "1"},
        ),
        response=HttpResponse(status=200, body="<p>ok ✓</p>", set_cookies={"sess": None}),
        queries=[select, update],
        nondet=[NondetRecord("time", 0, 1234.5), NondetRecord("token", 0, ("a", ("b", 1)))],
        client_id="c1",
        visit_id=3,
        request_id=1,
    )


def golden_visit() -> VisitRecord:
    """A visit with no member at its default: a framed POST from a parent
    visit, events whose data holds every JSON type (``1``, ``1.0`` and
    ``True`` apart) and none, cookie jars before and after, two request
    ids, and non-ASCII text with quotes and backslashes."""
    return VisitRecord(
        client_id="c1-☃",
        visit_id=3,
        ts=39,
        url='http://wiki.test/edit.php?title=Caf\u00e9&q="a\\b"',
        method="POST",
        post_params={"title": "Home", "wpTextbox": 'say "hi"\nlínea'},
        parent_visit=2,
        framed=True,
        events=[
            EventRecord(
                "input",
                "/html[1]/body[1]/form[1]/textarea[1]",
                {"base": "", "value": "línea", "n": 1, "f": 1.0, "b": True, "none": None},
            ),
            EventRecord("click", "/html[1]/body[1]/form[1]/input[2]"),
        ],
        cookies_before={"http://wiki.test": {"sess": "tok-0"}},
        cookies_after={"http://wiki.test": {"sess": "tok-1"}, "http://attacker.test": {}},
        request_ids=[1, 2],
    )


def upload_visit(store: RecordStore, visit: VisitRecord) -> VisitRecord:
    """What the extension does with ``visit``: upload it as it begins (no
    event, request or jar after yet), then journal each addition as it
    happens — a request id, the events, a second request id, the jar after
    — on the one record the store shares.  Returns that record."""
    live = VisitRecord(
        visit.client_id, visit.visit_id, visit.ts, visit.url, visit.cookies_before,
        visit.parent_visit, visit.method, dict(visit.post_params), visit.framed,
    )
    store.add_visit(live)
    key = (visit.client_id, visit.visit_id)
    requests = list(visit.request_ids)
    if requests:
        live.request_ids.append(requests[0])
        store.log_visit_request(*key, requests.pop(0))
    for event in visit.events:
        live.events.append(event)
        store.log_visit_event(*key, event)
    for request_id in requests:
        live.request_ids.append(request_id)
        store.log_visit_request(*key, request_id)
    if visit.cookies_after:
        live.cookies_after = visit.cookies_after
        store.log_visit_cookies(*key, visit.cookies_after)
    return live


def golden_visit_lines(directory: str) -> bytes:
    """The journal bytes of ``golden_visit()`` uploaded to a fresh store."""
    wal_path = os.path.join(directory, "golden_visit.wal")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    upload_visit(store, golden_visit())
    store.wal.close()
    with open(wal_path, "rb") as fh:
        return fh.read()


def golden_store(wal=None) -> RecordStore:
    """``add_run(golden_run())`` followed by a ``replace_run`` with the
    same record."""
    store = RecordStore(wal=wal)
    store.add_run(golden_run())
    store.replace_run(7, golden_run())
    return store


def save_store(store: RecordStore, path: str) -> str:
    """The store half of ``WarpSystem.save``: write ``store``'s snapshot
    with an otherwise empty header (an attached WAL is truncated against
    it) and return its id."""
    return store.commit_snapshot(path, {})


def recover_store(snapshot_path=None, wal_path=None) -> RecordStore:
    """The store half of ``WarpSystem.load``: apply the snapshot at
    ``snapshot_path`` to a fresh store when there is one, then replay the
    WAL at ``wal_path`` when given and attach it for appends."""
    store = RecordStore()
    snapshot_id = None
    if snapshot_path is not None and os.path.exists(snapshot_path):
        with SnapshotReader(snapshot_path) as snapshot:
            header = snapshot.header
            store.restore_snapshot(
                header["graph"], snapshot.records(), header["ids"].get("text", 0)
            )
        snapshot_id = header["snapshot_id"]
    if wal_path is not None:
        intact_size = store.replay_wal(wal_path, snapshot_id=snapshot_id)
        store.wal = RecordWal(wal_path, intact_size=intact_size)
    return store


def golden_lines(directory: str) -> bytes:
    """The journal bytes of ``golden_store()``."""
    wal_path = os.path.join(directory, "golden.wal")
    golden_store(RecordWal(wal_path, durability="none")).wal.close()
    with open(wal_path, "rb") as fh:
        return fh.read()


def text_refs(kind: str, data: dict) -> set:
    """The text ids a journal entry, keyed as ``RecordWal.entries`` reads it,
    refers to: a run line's body and loaded files, and the SQL text and
    payload of each row (its last two members); a visit line's or a delta's
    client id, a visit's URL and the xpath of each event it holds or adds."""
    if kind in ("run", "replace_run"):
        items = {data["response"][RESPONSE_ROW.index("body")], data["loaded_files"]}
        for row in data["queries"]:
            items.update(row[-2:])
        return items
    if kind not in ("visit", "visit_event", "visit_request", "visit_cookies"):
        return set()
    items = {data["client_id"], data.get("url"), data.get("xpath")} - {None}
    xpath = EVENT_ROW.index("xpath")
    return items | {event[xpath] for event in data.get("events", ())}


def entry_text(data: dict) -> str:
    """The text of a ``text`` entry's ``data``: its string, or its row's
    array as compact JSON."""
    if "row" in data:
        return json.dumps(data["row"], separators=(",", ":"))
    return data["text"]


def undefined_refs(entries) -> list:
    """``(index, id)`` for every id an entry of ``entries`` — one segment's
    ``(kind, data)`` in file order — refers to before a ``text`` entry
    has defined it: the segment invariant's violations."""
    defined, missing = set(), []
    for index, (kind, data) in enumerate(entries):
        if kind == "text":
            defined.add(data["id"])
        missing += [(index, ident) for ident in sorted(text_refs(kind, data) - defined)]
    return missing


def segment(snapshot_path: str, wal_path: str) -> list:
    """The ``(kind, data)`` entries of the segment a snapshot and its WAL
    form: the snapshot's record lines, then the WAL after its marker."""
    with open(snapshot_path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        entries = [
            (entry["kind"], keyed_line(entry["kind"], entry["data"]))
            for entry in map(json.loads, fh)
        ]
    tail = list(RecordWal.entries(wal_path))
    markers = [
        index
        for index, (kind, data) in enumerate(tail)
        if kind == "snapshot_marker" and data["snapshot_id"] == header["snapshot_id"]
    ]
    return entries + tail[markers[-1] + 1 :]


def format1_workload(wal_path=None):
    """Browsing, editing and login traffic on a two-user wiki."""
    warp = WarpSystem(wal_path=wal_path, db_backend="python")
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "alicepw")
    wiki.seed_user("bob", "bobpw", admin=True)
    wiki.seed_page("Home", "welcome", "bob", editors=["alice"])
    wiki.seed_page("News", "nothing yet", "bob")
    alice = warp.client("alice-laptop")
    alice.open("http://wiki.test/login.php")
    alice.type_into("input[name=wpName]", "alice")
    alice.type_into("input[name=wpPassword]", "alicepw")
    alice.submit("#loginform")
    alice.open("http://wiki.test/index.php?title=Home")
    alice.open("http://wiki.test/edit.php?title=Home")
    alice.type_into("textarea", "welcome, edited by alice")
    alice.submit("form")
    bob = warp.client("bob-desktop")
    bob.open("http://wiki.test/index.php?title=News")
    bob.open("http://wiki.test/index.php?title=Home")
    return warp, wiki


def repair_counters(warp) -> dict:
    """Retroactively patch common.php (every run loaded it) and return
    the RepairStats counters."""
    result = warp.repair.submit(
        PatchSpec("common.php", exports=make_common(send_frame_options=True))
    ).result()
    return {name: getattr(result.stats, name) for name in COUNTERS}


#: Each golden, and what writes its bytes.
GOLDENS = {
    GOLDEN_TEXTS: (golden_lines, "golden_run()"),
    GOLDEN_VISIT: (golden_visit_lines, "golden_visit()"),
}


def check(directory: str) -> list:
    """Every way the committed fixtures disagree with the code, by name."""
    problems = []
    for path, (lines, source) in GOLDENS.items():
        with open(path, "rb") as fh:
            if fh.read() != lines(directory):
                problems.append(
                    f"{path}: not the bytes the codec writes for {source}; "
                    "a codec change needs `python tests/persistence_fixtures.py`, "
                    "a regenerated golden needs a codec change"
                )
    warp = WarpSystem.load(FORMAT8_SNAPSHOT)
    if warp.graph.to_snapshot() != format1_workload()[0].graph.to_snapshot():
        problems.append(f"{FORMAT8_SNAPSHOT}: no longer loads as format1_workload()")
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    with open(FORMAT1_COUNTERS, "r", encoding="utf-8") as fh:
        if repair_counters(warp) != json.load(fh):
            problems.append(f"{FORMAT8_SNAPSHOT}: no longer repairs to {FORMAT1_COUNTERS}")
    return problems


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as directory:
        if argv == ["--check"]:
            problems = check(directory)
            print("\n".join(problems) or "persistence fixtures match the code")
            return 1 if problems else 0
        for path, (lines, _) in GOLDENS.items():
            with open(path, "wb") as fh:
                fh.write(lines(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
