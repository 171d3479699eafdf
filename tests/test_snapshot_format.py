"""Snapshot format 2 and the one-codec contract behind it.

A run is encoded once, when the store appends it; that text is the data
of its WAL line (byte-identical to what PR 11 wrote) and of its snapshot
line.  These tests pin the bytes, the kept-text invariant across every
mutation the store offers, format-1 compatibility, and the refusal of
files that are not whole.
"""

import gc
import json
import os
import random

import pytest

import persistence_fixtures as fixtures
from repro.ahg.records import AppRunRecord
from repro.apps.wiki.app import WikiApp
from repro.core.errors import ReproError
from repro.faults.plane import FaultPlane, SimulatedCrash
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec
from repro.store import wal as wal_module
from repro.store.recordstore import RecordStore
from repro.store.snapshot import read_snapshot_header
from repro.store.wal import RecordWal
from repro.warp import WarpSystem
from repro.workload.loadgen import make_load_clients
from repro.workload.scenarios import run_scenario


# ---------------------------------------------------------------------------
# (b) the WAL line is byte-for-byte what the parent commit wrote
# ---------------------------------------------------------------------------


def test_wal_lines_match_golden_bytes(tmp_path):
    with open(fixtures.GOLDEN_LINES, "rb") as fh:
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


def test_codec_views_agree():
    run = fixtures.golden_run()
    text = run.encode()
    assert run.to_dict() == json.loads(text)
    again = AppRunRecord.from_dict(json.loads(text), json_text=text)
    assert again == run and again.encode() == text == again.json_text


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


def test_format1_fixture_loads_and_repairs_to_the_same_counters(tmp_path):
    assert read_snapshot_header(fixtures.FORMAT1_SNAPSHOT)["version"] == 1
    with open(fixtures.FORMAT1_COUNTERS, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    original, _ = fixtures.format1_workload()

    warp = WarpSystem.load(fixtures.FORMAT1_SNAPSHOT)
    assert warp.graph.to_snapshot() == original.graph.to_snapshot()
    WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()
    assert fixtures.repair_counters(warp) == expected

    # Loaded from format 1, saved as format 2, loaded again: same graph.
    upgraded = str(tmp_path / "upgraded.json")
    again = WarpSystem.load(fixtures.FORMAT1_SNAPSHOT)
    again.save(upgraded)
    assert read_snapshot_header(upgraded)["version"] == 2
    assert WarpSystem.load(upgraded).graph.to_snapshot() == original.graph.to_snapshot()


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
    """A snapshot written before the six options went still loads, on the
    one path each of them now has."""
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


class TestRefusedSnapshots:
    def test_header_counts_the_record_lines(self, saved):
        warp, path, lines = saved
        header = read_snapshot_header(path)
        assert header["version"] == 2
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

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_version(self, saved, version):
        _, path, lines = saved
        header = json.loads(lines[0])
        header["version"] = version
        rewrite(path, [json.dumps(header) + "\n"] + lines[1:])
        with pytest.raises(ReproError, match="unsupported format version"):
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
# WAL replay decodes each line once; run_scenario takes a WAL
# ---------------------------------------------------------------------------


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
