"""A reloaded history holds each distinct thing once — and nobody can tell.

``RecordStore.from_snapshot`` and ``replay_wal`` decode through one
``DecodeMemo``, so the records of a reloaded store share their SQL texts,
read sets, params and snapshot tuples, header and cookie strings.  Pinned
here: only immutable objects are ever shared; a read set is shared exactly
when it is the same read set, type for type; repair on a store that shares
gives the graph it gives on one that does not, whatever the repair scope
and the engine; reloaded runs with the same response body hold one string
(the ``text`` entry their lines refer to); and the heap a run costs stays
under a measured bound (``heapcensus``), so that un-sharing something fails
a test by name instead of moving an RSS number nobody asserts on.
"""

import json
import random
import shutil

import pytest

import heapcensus
import persistence_fixtures as fixtures
from repro.apps.wiki.app import WikiApp
from repro.core.serialize import SHARED_TEXT_MAX
from repro.repair.api import CancelClientSpec
from repro.store.recordstore import RecordStore
from repro.ttdb.partitions import ReadSet
from repro.warp import WarpSystem
from repro.workload.loadgen import LoadGen, LoadStats, make_load_clients

#: What records may share: immutable containers and texts, and the scalars
#: the interpreter shares on its own.  Never a dict or a list.
SHAREABLE = (str, tuple, frozenset, ReadSet, int, float, bool, type(None))
ATTACKER = "mallory"


def wiki_history(directory, backend="python", n_requests=500):
    """A saved wiki deployment with ``n_requests`` of seeded edit and view
    traffic by eight users and an attacker over eight pages; returns the
    live deployment and the snapshot's path."""
    warp = WarpSystem(
        seed=3, wal_path=str(directory / "records.wal"), durability="none", db_backend=backend
    )
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    pages = [f"Page{i}" for i in range(8)]
    for page in pages:
        wiki.seed_page(page, f"{page}\n", owner="admin")
    users = [f"user{i}" for i in range(8)] + [ATTACKER]
    load = LoadGen(make_load_clients(wiki, warp.server, users), pages, seed=3)
    rng, stats = random.Random(3), LoadStats()
    for _ in range(n_requests):
        load.issue(rng, stats)
    assert stats.errors == 0
    path = str(directory / "warp.json")
    warp.save(path)
    warp.graph.store.wal.close()
    return warp, path


def exact_value(read_set):
    """A read set's value with every type spelled out (``1`` is not ``True``)."""
    return json.dumps(read_set.to_dict())


def assert_shares_only_immutables(store):
    offenders = [
        obj for obj in heapcensus.shared_between_records(store)
        if not isinstance(obj, SHAREABLE)
    ]  # fmt: skip
    assert not offenders, f"shared between records: {offenders[:3]!r}"
    queries = [query for run in store.runs.values() for query in run.queries]
    objects = {id(query.read_set) for query in queries}
    values = {exact_value(query.read_set) for query in queries}
    assert len(objects) == len(values)


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    return wiki_history(tmp_path_factory.mktemp("history"))


@pytest.mark.parametrize("source", ["golden lines", "fixture via recover", "fixture via load"])
def test_committed_fixture_shares_only_immutables(tmp_path, source):
    """The format-5 golden lines — a ``run`` and a ``replace_run`` of one
    run, so the replacement is decoded through the memo the original
    filled — and the committed format-5 snapshot, through both of the
    store's entry points."""
    if source == "golden lines":
        wal_path = str(tmp_path / "golden.wal")
        shutil.copy(fixtures.GOLDEN_TEXTS, wal_path)
        store = RecordStore.recover(wal_path=wal_path)
        store.wal.close()
        assert store.runs == {7: fixtures.golden_run()}
    else:
        if source == "fixture via recover":
            store = RecordStore.recover(snapshot_path=fixtures.FORMAT5_SNAPSHOT)
        else:
            store = WarpSystem.load(fixtures.FORMAT5_SNAPSHOT).graph.store
        assert store.to_snapshot() == fixtures.format1_workload()[0].graph.to_snapshot()
    assert_shares_only_immutables(store)


def test_reloaded_history_shares_only_immutables(history):
    live, path = history
    reloaded = WarpSystem.load(path).graph.store
    assert len(reloaded.runs) > 500
    assert_shares_only_immutables(reloaded)
    # ... and it does share: far fewer read sets than queries hold one.
    queries = [query for run in reloaded.runs.values() for query in run.queries]
    assert len({id(query.read_set) for query in queries}) * 10 < len(queries)
    assert reloaded.to_snapshot() == live.graph.to_snapshot()
    for run_id, run in reloaded.runs.items():
        assert run.encode(reloaded.texts) == run.json_text == live.graph.runs[run_id].json_text


def test_reloaded_runs_with_equal_bodies_share_one_string(history, tmp_path):
    """Bodies are far longer than the memo's short-text bound, so before
    format 4 every reloaded run held its own copy; now each is one ``text``
    entry, resolved to one string — also for runs replayed from a WAL (the
    snapshot's record lines are journal lines: they make one)."""
    _, path = history
    wal_path = str(tmp_path / "records.wal")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()[1:]
    with open(wal_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    replayed = RecordStore.recover(wal_path=wal_path)
    replayed.wal.close()
    for store in (WarpSystem.load(path).graph.store, replayed):
        runs = list(store.runs.values())
        by_body = {}
        for run in runs:
            by_body.setdefault(run.response.body, set()).add(id(run.response.body))
        assert all(len(objects) == 1 for objects in by_body.values())
        assert len(by_body) * 2 < len(runs)  # and bodies do repeat
        assert max(map(len, by_body)) > SHARED_TEXT_MAX


#: ``heapcensus.heap_bytes`` per run of the ``history`` fixture (509 runs) in
#: format 5, on CPython 3.11 (4,565 B on 3.12), rounded up: kept run lines
#: of row ids, and the text table's row payloads counted with the runs.
#: Deterministic — object sizes, not the process's RSS.  Format 4 measured
#: 5,065 B (5,049 B without its table), format 3 (881a392) 6,044 B.
HEAP_BYTES_PER_RUN_AT_FORMAT5 = 4660


def test_heap_per_run_stays_under_the_format5_measure(history):
    """The memory guard, in absolute bytes: a bound relative to the line
    (once ``4 × line``) would tighten as lines shrink while checking less.
    Decoded one record at a time this history took 13.9 KB per run (every
    query its own SQL text, read set, params); through the memo, 6.0 KB at
    format 3; sharing bodies and keeping shorter lines, 5.1 KB at format
    4; keeping each distinct row payload once, in the text table, less."""
    _, path = history
    store = WarpSystem.load(path).graph.store
    assert heapcensus.heap_bytes(store) <= HEAP_BYTES_PER_RUN_AT_FORMAT5 * len(store.runs)


def repaired_graph(path):
    """Reload ``path``, undo the attacker, return the repair's group count
    and the raw graph snapshot it left."""
    warp = WarpSystem.load(path)
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    result = warp.repair.submit(CancelClientSpec(client_id=f"{ATTACKER}-load")).result()
    assert result.ok and result.stats.runs_canceled > 0
    return result.stats.n_groups, warp.graph.to_snapshot()


def test_repair_over_shared_records_is_scope_and_engine_independent(
    tmp_path, futile_clustering, monkeypatch
):
    """off ≡ clustered and python ≡ sqlite, on reloaded stores: the raw
    graph snapshots after the same repair are equal."""
    paths = {}
    for backend in ("python", "sqlite"):
        (tmp_path / backend).mkdir()
        _, paths[backend] = wiki_history(tmp_path / backend, backend, n_requests=200)
    graphs = {(backend, "off"): repaired_graph(path) for backend, path in paths.items()}
    monkeypatch.undo()  # cluster discovery for real from here on
    graphs.update(
        ((backend, "clustered"), repaired_graph(path)) for backend, path in paths.items()
    )
    assert {groups for groups, _ in graphs.values()} != {0}
    reference = graphs["python", "off"][1]
    for arm, (_, graph) in graphs.items():
        assert graph == reference, arm
