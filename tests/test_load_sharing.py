"""A reloaded history holds each distinct thing once — and nobody can tell.

``RecordStore.from_snapshot`` and ``replay_wal`` decode through one
``DecodeMemo``, so the records of a reloaded store share their SQL texts,
read sets, params and snapshot tuples, header and cookie strings.  Pinned
here: only immutable objects are ever shared; a read set is shared exactly
when it is the same read set, type for type; repair on a store that shares
gives the graph it gives on one that does not, whatever the repair scope
and the engine; and the heap a run costs stays a small multiple of its
line (``heapcensus``), so that un-sharing something fails a test by name
instead of moving an RSS number nobody asserts on.
"""

import json
import random
import shutil

import pytest

import heapcensus
import persistence_fixtures as fixtures
from repro.apps.wiki.app import WikiApp
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


def test_committed_fixture_shares_only_immutables(tmp_path):
    """The format-3 lines: a ``run`` and a ``replace_run`` of one run, so
    the replacement is decoded through the memo the original filled."""
    wal_path = str(tmp_path / "golden.wal")
    shutil.copy(fixtures.GOLDEN_ROWS, wal_path)
    store = RecordStore.recover(wal_path=wal_path)
    store.wal.close()
    assert store.runs == {7: fixtures.golden_run()}
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
        assert run.encode() == run.json_text == live.graph.runs[run_id].json_text


def test_heap_per_run_stays_a_small_multiple_of_its_line(history):
    """The memory guard.  A run's line is ~1.8 KB; decoded one record at a
    time this history took 7.7 times that in heap (every query its own SQL
    text, read set, params), through the memo it takes 3.3 times.
    Deterministic: object sizes, not the process's RSS."""
    _, path = history
    store = WarpSystem.load(path).graph.store
    line_bytes = sum(len(run.json_text) for run in store.runs.values())
    assert heapcensus.heap_bytes(store) <= 4 * line_bytes


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
