"""What the committed persistence fixtures hold, and how they were made.

``golden_run()`` is the fixed run whose journal lines are pinned byte for
byte, once per shape the codec has written:

* ``fixtures/wal_run_lines.format5.golden`` — the lines this build writes:
  the ``text`` entries of the body, the two SQL texts and the two row
  payloads, then rows of ids that refer to them.  The one fixture this
  module can still write: ``python tests/persistence_fixtures.py``
  regenerates it, and ``--check`` (a tier-1 CI step) regenerates it into a
  temporary directory and fails, naming the file, unless it is
  byte-identical to the committed one — so a codec change cannot land
  without its golden, nor a golden without a codec change.
* ``fixtures/wal_run_lines.format4.golden`` — the rows format 4 wrote:
  body and SQL texts as ids, every payload inline (written at da5cbfd,
  which introduced it, and unchanged up to 4c487be, the last commit to
  write it).
* ``fixtures/wal_run_lines.format3.golden`` — the row-shaped lines with
  every text inline that format 3 wrote (written at 27bc1cf, which
  introduced it, and unchanged up to 881a392, the last commit to write it).
* ``fixtures/wal_run_lines.golden`` — the keyed lines ebe3011–29d2bb9
  wrote (written at ebe3011).

Nothing can write the last three any more; ``--check`` replays each and
fails unless it still reads as ``golden_run()``.

``format1_workload()`` is the small wiki deployment whose snapshot is
committed in the four retired formats — ``fixtures/warp_format1.json``
(written at ebe3011), ``fixtures/warp_format2.json`` (written at
29d2bb9, the last commit that wrote keyed lines),
``fixtures/warp_format3.json`` (written at 881a392, the last commit that
wrote every text inline) and ``fixtures/warp_format4.json`` (written at
4c487be, the last commit that wrote row payloads inline), each by running
``format1_workload()[0].save(...)`` on a checkout of that commit — with
the ``RepairStats`` counters its common.php repair produced in
``fixtures/warp_format1.counters.json``.  ``--check`` loads all four and
fails unless each holds the graph ``format1_workload()`` builds today.

Tests import the builders from here so the inputs cannot drift from the
files.
"""

import json
import os
import sys
import tempfile

from repro.ahg.records import AppRunRecord, NondetRecord, QueryRecord
from repro.apps.wiki.app import WikiApp
from repro.apps.wiki.common import make_common
from repro.http.message import HttpRequest, HttpResponse
from repro.repair.api import PatchSpec
from repro.store.recordstore import RecordStore
from repro.store.wal import RecordWal
from repro.ttdb.partitions import ReadSet
from repro.warp import WarpSystem

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
#: ``golden_lines()`` as this build writes it (text entries, rows of ids) ...
GOLDEN_TEXTS = os.path.join(HERE, "wal_run_lines.format5.golden")
#: ... as format 4 wrote it (body and SQL ids, payloads inline) ...
GOLDEN_FORMAT4 = os.path.join(HERE, "wal_run_lines.format4.golden")
#: ... as format 3 wrote it (rows, every text inline) ...
GOLDEN_ROWS = os.path.join(HERE, "wal_run_lines.format3.golden")
#: ... and as PRs 11-17 wrote it (keyed objects).
GOLDEN_LINES = os.path.join(HERE, "wal_run_lines.golden")
FORMAT1_SNAPSHOT = os.path.join(HERE, "warp_format1.json")
FORMAT2_SNAPSHOT = os.path.join(HERE, "warp_format2.json")
FORMAT3_SNAPSHOT = os.path.join(HERE, "warp_format3.json")
FORMAT4_SNAPSHOT = os.path.join(HERE, "warp_format4.json")
#: Every retired snapshot format's fixture, by version.
OLD_SNAPSHOTS = {
    1: FORMAT1_SNAPSHOT, 2: FORMAT2_SNAPSHOT, 3: FORMAT3_SNAPSHOT, 4: FORMAT4_SNAPSHOT,
}  # fmt: skip
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


def golden_store(wal=None) -> RecordStore:
    """``add_run(golden_run())`` followed by a ``replace_run`` with the
    same record."""
    store = RecordStore(wal=wal)
    store.add_run(golden_run())
    store.replace_run(7, golden_run())
    return store


def golden_lines(directory: str) -> bytes:
    """The journal bytes of ``golden_store()``."""
    wal_path = os.path.join(directory, "golden.wal")
    golden_store(RecordWal(wal_path, durability="none")).wal.close()
    with open(wal_path, "rb") as fh:
        return fh.read()


def replay(wal_path: str) -> RecordStore:
    """A store holding what the journal at ``wal_path`` says (the file is
    only read, never attached)."""
    store = RecordStore()
    for kind, data in RecordWal.entries(wal_path):
        store.apply_logged(kind, data)
    return store


def text_refs(kind: str, data: dict) -> set:
    """The text ids a journal entry refers to (formats 4 and 5): a run
    line's body and SQL texts, when they are ids, and the payload of each
    four-item row."""
    if kind not in ("run", "replace_run"):
        return set()
    items = [data["response"]["body"]]
    for row in data["queries"]:
        items += row[2:] if len(row) == 4 else row[2:3]
    return {item for item in items if type(item) is int}


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
        entries = [(entry["kind"], entry["data"]) for entry in map(json.loads, fh)]
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


def check(directory: str) -> list:
    """Every way the committed fixtures disagree with the code, by name."""
    problems = []
    with open(GOLDEN_TEXTS, "rb") as fh:
        if fh.read() != golden_lines(directory):
            problems.append(
                f"{GOLDEN_TEXTS}: not the bytes the codec writes for golden_run(); "
                "a codec change needs `python tests/persistence_fixtures.py`, "
                "a regenerated golden needs a codec change"
            )
    for path in (GOLDEN_FORMAT4, GOLDEN_ROWS, GOLDEN_LINES):
        if replay(path).to_snapshot() != golden_store().to_snapshot():
            problems.append(f"{path}: no longer replays to golden_run()")
    expected = format1_workload()[0].graph.to_snapshot()
    for path in OLD_SNAPSHOTS.values():
        if WarpSystem.load(path).graph.to_snapshot() != expected:
            problems.append(f"{path}: no longer loads as format1_workload()")
    return problems


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as directory:
        if argv == ["--check"]:
            problems = check(directory)
            print("\n".join(problems) or "persistence fixtures match the code")
            return 1 if problems else 0
        with open(GOLDEN_TEXTS, "wb") as fh:
            fh.write(golden_lines(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
