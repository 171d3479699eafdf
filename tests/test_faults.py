"""Deterministic fault injection, degraded-mode serving, self-healing.

Covers the PR 7 robustness plane:

* :class:`FaultPlane` / :class:`FaultRule` semantics and JSON schedules;
* WAL degradation: retry with backoff, parked writes, heal-on-commit,
  ``heal()``;
* torn group-commit batch writes and snapshot-marker mismatches
  (the documented crash windows of DESIGN.md "Failure model");
* degraded-mode serving: writes 503 read-only, reads keep flowing,
  probe-on-write self-healing, the ``/warp/admin/health`` endpoint and
  the structured 503 on mutating admin calls while degraded;
* repair jobs under faults: bounded retry of transients, crash -> job
  reported as interrupted after reload;
* fault points in the gate drain and pool dispatch —
  including the acceptance bar that a fault storm crashes zero serving
  threads;
* per-request error classification in the load driver.
"""

import errno
import json
import os
import threading

import pytest

from repro.apps.wiki.app import WikiApp
from repro.core.errors import DurabilityError
from repro.faults import harness as harness_mod
from repro.faults.plane import (
    FAULT_KINDS,
    FAULT_POINTS,
    FaultPlane,
    FaultRule,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    SimulatedCrash,
    TornWrite,
)
from repro.http.message import HttpRequest, HttpResponse
from repro.http.pool import ServerPool
from repro.apps.wiki import pages as wiki_pages
from repro.repair import jobs as jobs_mod
from repro.repair.api import CancelClientSpec, PatchSpec
from repro.store.wal import RecordWal
from repro.warp import WarpSystem
from repro.workload.loadgen import LoadClient, LoadStats

PAGE = "Sandbox"


def _wiki_warp(tmp_path, plane):
    warp = WarpSystem(wal_path=str(tmp_path / "wal.jsonl"), fault_plane=plane)
    warp.graph.store.durability_timeout = 5.0
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "pw-alice")
    wiki.seed_user("bob", "pw-bob")
    wiki.seed_page(PAGE, "seed\n", "alice")
    client = LoadClient("alice", warp.server)
    assert client.login("pw-alice").status == 200
    return warp, wiki, client


def _append(client, marker):
    return client.send(
        client.request("POST", "/edit.php", {"title": PAGE, "append": f"\n{marker}"})
    )


def _read(client):
    return client.send(client.request("GET", "/edit.php", {"title": PAGE}))


# ---------------------------------------------------------------------------
# the plane
# ---------------------------------------------------------------------------


class TestFaultPlane:
    def test_inert_plane_is_a_noop(self):
        plane = FaultPlane()
        for point in FAULT_POINTS:
            plane.fire(point)
        assert plane.fired == []
        assert plane.status()["pending"] == 0

    def test_rule_fires_after_threshold_then_exhausts(self):
        plane = FaultPlane()
        rule = plane.arm(point="wal.fsync", kind="error", after=1, times=2)
        plane.fire("wal.fsync")  # hit 1: below threshold
        with pytest.raises(InjectedError):
            plane.fire("wal.fsync")  # hit 2
        with pytest.raises(InjectedError):
            plane.fire("wal.fsync")  # hit 3
        plane.fire("wal.fsync")  # hit 4: exhausted — the fault cleared
        assert rule.exhausted
        assert rule.fired == 2
        assert [event["hit"] for event in plane.fired] == [2, 3]
        assert plane.last_fault["point"] == "wal.fsync"

    def test_kinds_raise_the_documented_types(self):
        plane = FaultPlane()
        for kind in FAULT_KINDS:
            if kind == "stall":
                # The latency kind sleeps and returns instead of raising.
                plane.arm(point="wal.append", kind=kind, times=1, fraction=0.0)
                plane.fire("wal.append")
                assert plane.last_fault["kind"] == "stall"
                plane.clear()
                continue
            plane.arm(point="wal.append", kind=kind, times=1)
            with pytest.raises(BaseException) as info:
                plane.fire("wal.append")
            exc = info.value
            if kind == "io":
                assert isinstance(exc, InjectedIOError) and exc.errno == errno.EIO
                assert isinstance(exc, InjectedFault)
            elif kind == "disk_full":
                assert isinstance(exc, InjectedIOError)
                assert exc.errno == errno.ENOSPC
            elif kind == "error":
                assert isinstance(exc, InjectedError)
                assert isinstance(exc, InjectedFault)
            elif kind == "crash":
                assert isinstance(exc, SimulatedCrash)
                assert not isinstance(exc, Exception)  # survives except Exception
                assert not isinstance(exc, InjectedFault)  # never auto-retried
            else:
                assert isinstance(exc, TornWrite)
                assert isinstance(exc, SimulatedCrash)
            plane.clear()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("wal.append", "gremlins")

    def test_schedule_json_roundtrip(self):
        schedule = {
            "seed": 7,
            "faults": [
                {"point": "wal.fsync", "kind": "io", "after": 4, "times": 2},
                {"point": "wal.append", "kind": "torn", "fraction": 0.25},
            ],
        }
        plane = FaultPlane.from_schedule(json.dumps(schedule))
        assert plane.seed == 7
        assert plane.pending() == 3
        back = plane.to_schedule()
        assert back["seed"] == 7
        assert {rule["point"] for rule in back["faults"]} == {
            "wal.fsync",
            "wal.append",
        }
        # The armed plane actually fires.
        for _ in range(4):
            plane.fire("wal.fsync")
        with pytest.raises(InjectedIOError):
            plane.fire("wal.fsync")

    def test_harness_schedule_points_are_cataloged(self):
        # A renamed fault point must not silently orphan the generator.
        for point, kinds in harness_mod._POINT_KINDS.items():
            assert point in FAULT_POINTS
            assert set(kinds) <= set(FAULT_KINDS)

    def test_generated_schedules_are_deterministic(self):
        assert harness_mod.generate_schedule(11) == harness_mod.generate_schedule(11)
        assert harness_mod.generate_schedule(11) != harness_mod.generate_schedule(12)


# ---------------------------------------------------------------------------
# WAL degradation and healing
# ---------------------------------------------------------------------------


class TestWalDegradation:
    def test_transient_io_error_is_retried_inline(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.append", kind="io", times=1)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        ticket = wal.append("mark", {"n": 1})
        assert ticket.wait(5.0)
        assert wal.retried_writes >= 1
        assert not wal.failed
        wal.close()
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 1})]

    def test_exhausted_retries_park_then_heal(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.append", kind="io", times=None)
        degraded = []
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        wal.on_degrade = degraded.append
        ticket = wal.append("mark", {"n": 1})
        assert ticket.wait(5.0) is False
        assert wal.failed
        assert wal.status()["parked_entries"] == 1
        assert degraded and isinstance(degraded[0], OSError)
        # The fault clears; the next probe heals and flushes the backlog.
        plane.clear()
        assert wal.heal()
        assert not wal.failed
        assert ticket.wait(5.0)
        wal.close()
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 1})]

    def test_disk_full_reports_enospc(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.fsync", kind="disk_full", times=None)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        assert wal.append("mark", {"n": 1}).wait(5.0) is False
        assert wal.failed
        assert isinstance(wal.last_error, OSError)
        assert wal.last_error.errno == errno.ENOSPC
        plane.clear()
        assert wal.heal()
        wal.close()

    def test_heal_replays_parked_entries_in_order(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.append", kind="io", times=None)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        tickets = [wal.append("mark", {"n": i}) for i in range(3)]
        assert all(t.wait(5.0) is False for t in tickets)
        plane.clear()
        assert wal.heal()
        assert all(t.wait(5.0) for t in tickets)
        wal.close()
        assert [d["n"] for _, d in RecordWal.entries(wal.path)] == [0, 1, 2]

    def test_commit_on_a_failed_log_heals_first_in_seq_order(self, tmp_path):
        """A commit that finds the log failed heals before it writes: the
        parked lines and the buffered ones reach disk merged in seq order,
        and no ticket resolves before its line is written.  While the disk
        stays sick the commit parks its batch behind the earlier ones."""
        plane = FaultPlane()
        plane.arm(point="wal.append", kind="io", times=None)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        first = wal.append("mark", {"n": 1})
        assert first.wait(5.0) is False  # seq 1 parked
        unwaited = wal.append("mark", {"n": 2})
        third = wal.append("mark", {"n": 3})
        assert third.wait(5.0) is False  # heal failed: seqs 2-3 parked too
        assert wal.status()["parked_entries"] == 3
        buffered = wal.append("mark", {"n": 4})
        plane.clear()
        fifth = wal.append("mark", {"n": 5})
        assert not (first.done or unwaited.done or buffered.done)
        assert fifth.wait(5.0)  # heals, then commits
        assert all(t.done for t in (first, unwaited, third, buffered))
        assert not wal.failed and wal.healed_events == 1
        wal.close()
        assert [d["n"] for _, d in RecordWal.entries(wal.path)] == [1, 2, 3, 4, 5]

    def test_torn_group_commit_leader_write(self, tmp_path):
        """A torn write during the batch write of the waiter holding the
        I/O lock leaves a parseable prefix; ``RecordWal.repair`` drops the
        torn tail and recovery sees every earlier entry."""
        plane = FaultPlane()
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        assert wal.append("mark", {"n": 1}).wait(5.0)
        plane.arm(point="wal.append", kind="torn", times=1, fraction=0.5)
        ticket = wal.append("mark", {"n": 2})
        with pytest.raises(SimulatedCrash):
            # The waiter takes the I/O lock and performs the batch write
            # — the crash window under test.
            ticket.wait(5.0)
        # The file now ends in a torn fragment of entry 2.
        raw = open(wal.path, "rb").read()
        assert raw.decode().count("\n") >= 1
        dropped = RecordWal.repair(wal.path)
        assert dropped > 0
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 1})]

    def test_crash_unblocks_other_waiters_with_false(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.fsync", kind="crash", times=1)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        tickets = [wal.append("mark", {"n": 1}), wal.append("mark", {"n": 2})]
        outcomes = [None, None]

        def wait_on(index):
            try:
                outcomes[index] = tickets[index].wait(5.0)
            except SimulatedCrash:
                outcomes[index] = "crashed"

        waiters = [
            threading.Thread(target=wait_on, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in waiters:
            thread.start()
        for thread in waiters:
            thread.join(5.0)
        # Whichever waiter took the I/O lock first took the crash; the
        # other unblocked with False — nobody hangs on a dead log.
        assert sorted(outcomes, key=str) == [False, "crashed"]

    def test_append_after_crash_is_refused(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.append", kind="crash", times=1)
        wal = RecordWal(str(tmp_path / "w.wal"), fault_plane=plane)
        ticket = wal.append("mark", {"n": 1})  # buffered: nothing written yet
        with pytest.raises(SimulatedCrash):
            ticket.wait(5.0)
        with pytest.raises(ValueError):
            wal.append("mark", {"n": 2})


# ---------------------------------------------------------------------------
# snapshot-marker crash windows (group commit)
# ---------------------------------------------------------------------------


class TestSnapshotMarkerWindows:
    def test_pre_marker_failure_aborts_before_snapshot_write(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        assert _append(client, "m1.").status == 200
        snap = str(tmp_path / "snap.json")
        plane.arm(point="wal.append", kind="io", times=None)
        with pytest.raises(DurabilityError):
            warp.save(snap)
        # The snapshot must not exist: recovery could never tie a
        # truncated WAL to it without the marker.
        assert not os.path.exists(snap)
        plane.clear()
        assert warp.health.try_heal()
        warp.save(snap)
        assert os.path.exists(snap)

    def test_crash_between_marker_and_snapshot_write_recovers(self, tmp_path):
        """The documented crash window: the pre-write marker is durable
        but the snapshot file never lands.  Recovery ignores the dangling
        marker and replays the full log."""
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        assert _append(client, "m1.").status == 200
        runs_before = len(warp.graph.store.runs)
        snap = str(tmp_path / "snap.json")
        plane.arm(point="store.snapshot", kind="crash", times=1)
        with pytest.raises(SimulatedCrash):
            warp.save(snap)
        assert not os.path.exists(snap)
        warp.graph.store.wal._mark_crashed()
        loaded = WarpSystem.load(None, wal_path=warp.graph.store.wal.path)
        assert len(loaded.graph.store.runs) == runs_before
        loaded.graph.store.wal.close()

    def test_post_truncate_marker_failure_keeps_snapshot_usable(self, tmp_path):
        """Mismatch window on the other side: the WAL is truncated but
        the post-truncate marker cannot be journaled.  ``save`` surfaces
        the durability failure, yet the written snapshot + truncated WAL
        still load (replaying nothing)."""
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        assert _append(client, "m1.").status == 200
        runs_before = len(warp.graph.store.runs)
        snap = str(tmp_path / "snap.json")
        # Hit 1 is the pre-write marker (allowed through); every later
        # append — the post-truncate marker — fails.
        plane.arm(point="wal.append", kind="io", after=1, times=None)
        with pytest.raises(DurabilityError, match="post-truncate"):
            warp.save(snap)
        assert os.path.exists(snap)
        warp.graph.store.wal._mark_crashed()
        loaded = WarpSystem.load(snap, wal_path=warp.graph.store.wal.path)
        assert len(loaded.graph.store.runs) == runs_before
        loaded.graph.store.wal.close()


# ---------------------------------------------------------------------------
# degraded-mode serving + self-healing
# ---------------------------------------------------------------------------


class TestDegradedServing:
    def test_fsync_storm_degrades_to_read_only_then_self_heals(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        assert _append(client, "ok1.").status == 200
        # Budget: every failed write/probe burns 3 fsync hits (attempt +
        # _IO_RETRIES).  1 triggering write + 3 GET park-probes + 1 refused
        # write's heal-probe = 15 hits; the 16th probe succeeds.
        plane.arm(point="wal.fsync", kind="io", times=15)

        # First write under the storm: executed but never durable -> 503.
        refused = _append(client, "lost1.")
        assert refused.status == 503
        assert refused.headers.get("X-Warp-Degraded") == "durability"
        assert refused.headers.get("Retry-After")
        assert warp.health.mode == "read_only"
        assert warp.graph.store.relaxed_durability

        # Reads keep flowing while degraded (their journal entries park).
        for _ in range(3):
            assert _read(client).status == 200
        # Writes are refused up front while the log is still sick.
        blocked = _append(client, "lost2.")
        assert blocked.status == 503
        assert blocked.headers.get("X-Warp-Degraded") == "read-only"

        # The rule exhausts ("the disk recovers"); the next write probes,
        # heals the log, flushes the parked backlog, and succeeds.
        healed = _append(client, "ok2.")
        assert healed.status == 200
        assert warp.health.mode == "normal"
        assert warp.health.heals == 1
        assert not warp.graph.store.relaxed_durability
        wal = warp.graph.store.wal
        assert not wal.failed
        assert wal.sync(5.0)
        # Nothing acknowledged was lost; parked read-side entries made it.
        kinds = [kind for kind, _ in RecordWal.entries(wal.path)]
        assert kinds.count("run") == len(warp.graph.store.runs)

    def test_health_endpoint_and_admin_refusal_while_degraded(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)

        def admin(method, path, params=None):
            return warp.server.handle(
                HttpRequest(method=method, path=path, params=dict(params or {}))
            )

        healthy = admin("GET", "/warp/admin/health")
        assert healthy.status == 200
        doc = json.loads(healthy.body)
        assert doc["mode"] == "normal"
        assert doc["wal"]["failed"] is False
        assert doc["repair"] == {"active": False, "interrupted_jobs": 0}

        plane.arm(point="wal.fsync", kind="io", times=None)
        assert _append(client, "x.").status == 503
        degraded = admin("GET", "/warp/admin/health")
        assert degraded.status == 503
        doc = json.loads(degraded.body)
        assert doc["mode"] == "read_only"
        assert doc["wal"]["failed"] is True
        assert doc["wal"]["parked_entries"] >= 1
        assert doc["last_error"]

        # Mutating admin calls get a structured 503 with the health doc.
        spec = json.dumps({"kind": "cancel_client", "client_id": "bob-load"})
        refused = admin("POST", "/warp/admin/repair", {"spec": spec})
        assert refused.status == 503
        payload = json.loads(refused.body)
        assert payload["health"]["mode"] == "read_only"
        assert "read-only" in payload["error"]
        # Status polls still work while degraded.
        assert admin("GET", "/warp/admin/repair").status == 200

        plane.clear()
        assert _append(client, "y.").status == 200
        assert admin("GET", "/warp/admin/health").status == 200

    def test_fault_storm_crashes_zero_serving_threads(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        pool = ServerPool(warp.server, workers=4, queue_depth=64, fault_plane=plane)
        warp.serving_pool = pool
        plane.arm(point="wal.fsync", kind="io", times=None)
        # Deterministic entry into read-only before the concurrent storm.
        assert _append(client, "trigger.").status == 503
        assert warp.health.mode == "read_only"
        pending = []
        for index in range(30):
            if index % 3 == 0:
                request = client.request(
                    "POST", "/edit.php", {"title": PAGE, "append": f"\ns{index}."}
                )
            else:
                request = client.request("GET", "/edit.php", {"title": PAGE})
            pending.append(pool.submit(request))
        responses = [p.wait(10.0) for p in pending]
        stats = pool.stats()
        assert stats["alive_workers"] == 4
        reads = [r for i, r in enumerate(responses) if i % 3 != 0]
        assert all(r.status == 200 for r in reads)
        writes = [r for i, r in enumerate(responses) if i % 3 == 0]
        assert all(r.status == 503 for r in writes)
        assert all(
            r.headers.get("X-Warp-Degraded") == "read-only" for r in writes
        )
        # Storm over: the system self-heals on the next write.
        plane.clear()
        assert pool.handle(
            client.request("POST", "/edit.php", {"title": PAGE, "append": "\nafter."})
        ).status == 200
        assert warp.health.mode == "normal"
        assert pool.stats()["alive_workers"] == 4
        pool.close()


# ---------------------------------------------------------------------------
# repair jobs under faults
# ---------------------------------------------------------------------------


def _bob_runs(tmp_path, plane):
    warp, wiki, alice = _wiki_warp(tmp_path, plane)
    bob = LoadClient("bob", warp.server)
    assert bob.login("pw-bob").status == 200
    assert _append(bob, "bobwrite.").status == 200
    return warp, alice


class TestRepairUnderFaults:
    def test_transient_fault_is_retried_then_job_succeeds(self, tmp_path):
        plane = FaultPlane()
        warp, _ = _bob_runs(tmp_path, plane)
        plane.arm(point="repair.phase_started", kind="error", times=1)
        job = warp.repair.submit(CancelClientSpec(client_id="bob-load"))
        result = job.result(30.0)
        assert job.status == "done"
        assert not result.aborted
        assert any(event == "retrying" for event, _ in job.events)

    def test_retry_budget_exhaustion_fails_the_job(self, tmp_path):
        plane = FaultPlane()
        warp, _ = _bob_runs(tmp_path, plane)
        plane.arm(point="repair.phase_started", kind="error", times=None)
        job = warp.repair.submit(CancelClientSpec(client_id="bob-load"))
        assert job.wait(30.0)
        assert job.status == "failed"
        assert isinstance(job.error, InjectedFault)
        retries = [event for event, _ in job.events if event == "retrying"]
        assert len(retries) == jobs_mod._RETRIES
        # The job end was journaled: nothing reported as interrupted.
        assert warp.repair.interrupted_jobs() == []

    def test_post_switch_fault_settles_done_without_retry(self, tmp_path):
        """Regression: a transient fault firing *after* the generation
        switch (``repair.finalized``) leaves the repair committed, so a
        retry would re-apply the whole spec against already-repaired
        state and journal duplicate patch records.  The job settles as
        done-with-warning instead."""
        plane = FaultPlane()
        warp, _ = _bob_runs(tmp_path, plane)
        patches_before = len(warp.graph.patches)
        plane.arm(point="repair.finalized", kind="error", times=1)
        job = warp.repair.submit(
            PatchSpec(file="edit.php", exports=wiki_pages.make_edit())
        )
        assert job.wait(30.0)
        assert job.status == "done"
        result = job.result(5.0)
        assert result.ok and not result.aborted
        assert not any(event == "retrying" for event, _ in job.events)
        assert any(event == "post_commit_fault" for event, _ in job.events)
        # Exactly one patch record: the committed attempt did not re-run.
        assert len(warp.graph.patches) == patches_before + 1
        assert warp.repair.interrupted_jobs() == []

    def test_crash_mid_repair_is_reported_interrupted(self, tmp_path):
        plane = FaultPlane()
        warp, _ = _bob_runs(tmp_path, plane)
        plane.arm(point="repair.group_done", kind="crash", times=1)
        job = warp.repair.submit(CancelClientSpec(client_id="bob-load"))
        assert job.wait(30.0)
        assert job.status == "failed"
        assert "crashed mid-repair" in str(job.error)
        interrupted = warp.repair.interrupted_jobs()
        assert [item["job_id"] for item in interrupted] == [job.job_id]
        # ... and the report survives reload, because no end was journaled.
        warp.graph.store.wal._mark_crashed()
        loaded = WarpSystem.load(None, wal_path=warp.graph.store.wal.path)
        assert job.job_id in loaded.graph.store.pending_repair_jobs
        assert loaded.repair.acknowledge_interrupted(job.job_id)
        assert loaded.repair.interrupted_jobs() == []
        loaded.graph.store.wal.close()

    def test_crash_journaling_the_start_leaves_no_interrupted_job(self, tmp_path):
        """The process dies writing the job's start: the repair never
        began, so a reload reports nothing interrupted and repaired
        nothing."""
        plane = FaultPlane()
        warp, _ = _bob_runs(tmp_path, plane)
        plane.arm(point="wal.append", kind="crash", times=1)
        job = warp.repair.submit(CancelClientSpec(client_id="bob-load"))
        assert job.wait(30.0)
        assert job.status == "failed"
        assert "crashed before the repair started" in str(job.error)
        assert [event["point"] for event in plane.fired] == ["wal.append"]
        loaded = WarpSystem.load(None, wal_path=warp.graph.store.wal.path)
        assert loaded.graph.store.pending_repair_jobs == {}
        assert loaded.repair.interrupted_jobs() == []
        assert not any(run.canceled for run in loaded.graph.runs.values())
        loaded.graph.store.wal.close()


# ---------------------------------------------------------------------------
# gate / pool fault points
# ---------------------------------------------------------------------------


class TestPointInstrumentation:
    def test_gate_reapply_fault_leaves_entry_queued(self, tmp_path):
        plane = FaultPlane()
        warp, _, _ = _wiki_warp(tmp_path, plane)
        gate = warp.enable_online_repair()
        assert gate.faults is plane
        gate.active = True
        gate.queue.append("sentinel")
        plane.arm(point="gate.reapply", kind="error", times=1)
        with pytest.raises(InjectedError):
            gate.pop_next()
        # Nothing consumed: the drain retries and loses no queued request.
        assert gate.queue == ["sentinel"]
        assert gate.pop_next() == "sentinel"

    def test_pool_dispatch_fault_surfaces_to_waiter_not_worker(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        pool = ServerPool(warp.server, workers=2, fault_plane=plane)
        plane.arm(point="pool.dispatch", kind="error", times=1)
        pending = pool.submit(client.request("GET", "/edit.php", {"title": PAGE}))
        with pytest.raises(InjectedError):
            pending.wait(5.0)
        assert pool.stats()["alive_workers"] == 2
        assert pool.handle(
            client.request("GET", "/edit.php", {"title": PAGE})
        ).status == 200
        pool.close()

    def test_store_insert_run_fault_fires_before_mutation(self, tmp_path):
        plane = FaultPlane()
        warp, _, client = _wiki_warp(tmp_path, plane)
        runs_before = len(warp.graph.store.runs)
        plane.arm(point="store.insert_run", kind="error", times=1)
        with pytest.raises(InjectedError):
            _append(client, "never.")
        # Fired before any index was touched: store state is unchanged.
        assert len(warp.graph.store.runs) == runs_before
        assert _append(client, "after.").status == 200


# ---------------------------------------------------------------------------
# load-driver error classification
# ---------------------------------------------------------------------------


class TestLoadStatsClassification:
    def _response(self, status, headers=None):
        return HttpResponse(status=status, body="", headers=dict(headers or {}))

    def test_classify_by_degradation_headers(self):
        classify = LoadStats.classify
        assert classify(self._response(200)) is None
        assert (
            classify(self._response(503, {"X-Warp-Degraded": "read-only"}))
            == "503-degraded"
        )
        assert (
            classify(self._response(503, {"X-Warp-Overloaded": "queue"}))
            == "503-backpressure"
        )
        assert (
            classify(self._response(503, {"X-Warp-Suspended": "1"}))
            == "503-suspended"
        )
        assert classify(self._response(503)) == "503-other"
        assert classify(self._response(500)) == "500-server-error"
        assert classify(self._response(403)) is None

    def test_availability_summary_and_merge(self):
        stats = LoadStats()
        stats.note(self._response(200), 0.001)
        stats.note(self._response(200), 0.001)
        stats.note(self._response(503, {"X-Warp-Degraded": "read-only"}), 0.001)
        stats.note(self._response(503, {"X-Warp-Overloaded": "queue"}), 0.001)
        stats.note(self._response(500), 0.001)
        other = LoadStats()
        other.note(self._response(503, {"X-Warp-Degraded": "read-only"}), 0.001)
        stats.merge(other)
        assert stats.error_classes == {
            "503-degraded": 2,
            "503-backpressure": 1,
            "500-server-error": 1,
        }
        report = stats.availability()
        assert report["total"] == 6.0
        assert report["served_fraction"] == pytest.approx(2 / 6)
        assert report["degraded_fraction"] == pytest.approx(3 / 6)
        assert report["failed_fraction"] == pytest.approx(1 / 6)
