"""Randomized-but-seeded crash-recovery property (ISSUE 7 acceptance).

Each seed deterministically generates a fault schedule (faults across the
WAL, store, snapshot, repair and gate layers), drives a
live wiki workload against it, simulates process death, reloads from
disk, and checks the recovery invariants:

* no acknowledged write is lost, none is applied twice;
* store indexes, the action-history graph, and the versioned DB agree;
* a repair job interrupted by the crash is reported after reload;
* the reloaded system serves requests.

The default seed range matches the CI fault-matrix job; set
``FAULT_MATRIX_SEEDS`` (e.g. ``"1-200"`` or ``"3,7,19"``) to widen or
pin the sweep.  Schedules are pure functions of the seed, so any failure
reproduces exactly with ``run_schedule(generate_schedule(seed), dir)``.
"""

import json
import os

import pytest

from repro.faults.harness import generate_schedule, run_schedule

DEFAULT_SEEDS = range(1, 31)


def _seeds():
    spec = os.environ.get("FAULT_MATRIX_SEEDS", "").strip()
    if not spec:
        return list(DEFAULT_SEEDS)
    seeds = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            low, high = part.split("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


@pytest.mark.parametrize("seed", _seeds())
def test_crash_recovery_invariants(seed, tmp_path):
    schedule = generate_schedule(seed)
    report = run_schedule(schedule, str(tmp_path))
    assert report.ok, (
        f"seed {seed} violated recovery invariants: {report.violations}\n"
        f"schedule: {json.dumps(schedule)}\n"
        f"faults fired: {report.fired}\nnotes: {report.notes}"
    )


def test_crash_between_retain_and_the_next_save(tmp_path):
    # Saved and retained at one step, then killed mid-append: the log's gc
    # line trims the graph, and load trims the database at the horizon
    # the graph recovers, so the two agree.
    schedule = dict(
        generate_schedule(5),
        save_at=10,
        retain_at=10,
        repair_at=None,
        faults=[{"point": "wal.append", "kind": "crash", "after": 30, "times": 1}],
    )
    report = run_schedule(schedule, str(tmp_path))
    assert report.ok, report.violations
    assert report.crashed and report.saved and report.horizon is not None
    assert len(report.acked) > len(report.retired) > 0


def test_schedule_is_a_pure_function_of_the_seed(tmp_path):
    # The replay contract: the same seed yields the same schedule, and a
    # schedule serialized to JSON drives an identical run.
    schedule = generate_schedule(97)
    assert generate_schedule(97) == schedule
    first = run_schedule(schedule, str(tmp_path / "a"))
    second = run_schedule(json.dumps(schedule), str(tmp_path / "b"))
    assert first.ok and second.ok
    assert first.crashed == second.crashed
    assert first.acked == second.acked
    assert [f["point"] for f in first.fired] == [f["point"] for f in second.fired]


def test_report_serializes(tmp_path):
    report = run_schedule(generate_schedule(5), str(tmp_path))
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["seed"] == 5
    assert "violations" in doc and not doc["violations"]


def test_saved_schedule_with_a_durability_key_still_runs(tmp_path):
    # Schedules no longer draw a durability; one saved when they did runs
    # on the one commit path.
    schedule = generate_schedule(5)
    assert "durability" not in schedule
    schedule["durability"] = "always"
    assert run_schedule(schedule, str(tmp_path)).ok


def test_saved_schedule_with_a_response_cache_still_runs(tmp_path):
    # Seed 96 as schedules drew it while the response cache existed: cache
    # on, and a fault armed at its fill point.  It runs without a cache,
    # and a point nothing fires any more never fires.
    path = os.path.join(os.path.dirname(__file__), "fixtures", "schedule_response_cache.json")
    with open(path, "r", encoding="utf-8") as fh:
        schedule = json.load(fh)
    assert schedule["response_cache"] is True
    assert "response_cache" not in generate_schedule(schedule["seed"])
    report = run_schedule(schedule, str(tmp_path))
    assert report.ok, report.violations
    assert report.repair_status == "done"
    assert [event["point"] for event in report.fired] == ["wal.fsync", "wal.fsync"]


# ---------------------------------------------------------------------------
# coordinator crash mid-fan-out (repro.shard): the distributed analogue of
# the interrupted-job invariant — a coordinator that dies between shard
# dispatches must, after "reload" (a new coordinator over the same journal
# and workers), report the distributed job interrupted and resubmit it
# exactly once per shard.
# ---------------------------------------------------------------------------

from repro.faults.plane import FaultPlane, SimulatedCrash  # noqa: E402
from repro.http.message import HttpRequest  # noqa: E402
from repro.repair.api import CancelClientSpec  # noqa: E402
from repro.shard import ShardCluster  # noqa: E402
from repro.shard.coordinator import ShardCoordinator  # noqa: E402


def _shard_jobs(cluster, shard):
    response = cluster.handle(
        HttpRequest("GET", "/warp/admin/repair", params={"shard": str(shard)})
    )
    return json.loads(response.body)["jobs"]


def _deface_cluster(tmp_path):
    """2-shard local cluster with a cross-shard attack in place.  Tenants
    0 and 4 hash to different shards; the attacker hits both."""
    cluster = ShardCluster(
        2, str(tmp_path), transport="local", tenants=[0, 4],
        shared_users=["mallory"],
    )
    attacker_cookies = {}
    for tenant in (0, 4):
        attacker_cookies.clear()
        for method, path, params in (
            ("POST", "/login.php", {"wpName": "mallory", "wpPassword": "pw-mallory"}),
            ("POST", "/edit.php", {"title": f"tenant{tenant}_wiki",
                                   "append": f"\nDEFACED-t{tenant}"}),
        ):
            request = HttpRequest(
                method, path, params=params, cookies=dict(attacker_cookies),
                headers={"X-Warp-Tenant": f"tenant{tenant}",
                         "X-Warp-Client": "mallory-c"},
            )
            response = cluster.handle(request)
            assert response.status == 200, response.body
            for key, value in response.set_cookies.items():
                if value is None:
                    attacker_cookies.pop(key, None)
                else:
                    attacker_cookies[key] = value
    return cluster


def _assert_ground_truth_clean(cluster):
    for tenant in (0, 4):
        home = cluster.tenant_shards[tenant]
        text = cluster.workers[home].app.page_text(f"tenant{tenant}_wiki")
        assert text is not None and "DEFACED" not in text


def test_coordinator_crash_between_dispatches_resubmits_exactly_once(tmp_path):
    cluster = _deface_cluster(tmp_path)
    try:
        spec = CancelClientSpec(client_id="mallory-c")
        plane = FaultPlane()
        # First dispatch (one shard) succeeds; the coordinator "dies" at
        # the instant it picks the second target.
        plane.arm(point="shard.dispatch", kind="crash", after=1, times=1)
        crashed = cluster.new_coordinator(fault_plane=plane)
        with pytest.raises(SimulatedCrash):
            crashed.repair(spec)

        # One shard got a job, the other never heard about the repair.
        job_counts = sorted(len(_shard_jobs(cluster, s)) for s in (0, 1))
        assert job_counts == [0, 1]

        # "Reload": a fresh coordinator over the same journal + workers
        # reports the distributed job interrupted …
        reborn = cluster.new_coordinator(fault_plane=FaultPlane())
        interrupted = reborn.interrupted()
        assert len(interrupted) == 1
        record = interrupted[0]
        assert record["spec"] == spec.to_dict()
        dispatched = [s for s, info in record["shards"].items() if info.get("job_id")]
        assert len(dispatched) == 1

        # … and resubmit finishes it: the dispatched shard is adopted
        # (still exactly one job), the untouched shard is dispatched for
        # the first time (exactly one job).
        result = reborn.resubmit(record["dist_id"])
        assert result.ok, result.to_dict()
        for shard in (0, 1):
            assert len(_shard_jobs(cluster, shard)) == 1
        assert reborn.interrupted() == []
        _assert_ground_truth_clean(cluster)
    finally:
        cluster.close()


def test_coordinator_crash_before_merge_adopts_every_shard(tmp_path):
    cluster = _deface_cluster(tmp_path)
    try:
        spec = CancelClientSpec(client_id="mallory-c")
        plane = FaultPlane()
        # Both shards dispatch and settle; the crash hits at merge time.
        plane.arm(point="shard.merge", kind="crash", times=1)
        crashed = cluster.new_coordinator(fault_plane=plane)
        with pytest.raises(SimulatedCrash):
            crashed.repair(spec)
        assert all(len(_shard_jobs(cluster, s)) == 1 for s in (0, 1))

        reborn = cluster.new_coordinator(fault_plane=FaultPlane())
        interrupted = reborn.interrupted()
        assert len(interrupted) == 1
        result = reborn.resubmit(interrupted[0]["dist_id"])
        assert result.ok
        # Exactly-once: adoption, not re-dispatch.
        for shard in (0, 1):
            jobs = _shard_jobs(cluster, shard)
            assert len(jobs) == 1 and jobs[0]["status"] == "done"
        assert result.stats["runs_canceled"] > 0
        assert reborn.interrupted() == []
        _assert_ground_truth_clean(cluster)
    finally:
        cluster.close()


def test_unacknowledged_dispatch_reconciles_against_worker_journal(tmp_path):
    # The nastiest window: the journal holds the dispatch *intent* but the
    # crash hit before the 202 was journaled.  The worker may or may not
    # hold the job; resubmit must reconcile against the worker's own job
    # list instead of blindly dispatching a duplicate.
    cluster = _deface_cluster(tmp_path)
    try:
        spec = CancelClientSpec(client_id="mallory-c")
        coordinator = cluster.new_coordinator(fault_plane=FaultPlane())
        plan = coordinator.plan(spec)
        assert plan["targets"] == [0, 1]
        # Simulate the torn window by hand: journal start + intent for
        # shard 0, actually submit the job to the worker, then "die"
        # without journaling the 202.
        coordinator._journal(
            {"event": "start", "dist": "dist-99", "spec": spec.to_dict(),
             "targets": plan["targets"]}
        )
        coordinator._journal(
            {"event": "dispatching", "dist": "dist-99", "shard": 0}
        )
        status, payload = coordinator.clients[0].admin_json(
            "POST", "/warp/admin/repair", {"spec": json.dumps(spec.to_dict())}
        )
        assert status == 202

        reborn = cluster.new_coordinator(fault_plane=FaultPlane())
        record = [r for r in reborn.interrupted() if r["dist_id"] == "dist-99"]
        assert record and record[0]["shards"][0] == {"intent": True}
        result = reborn.resubmit("dist-99")
        assert result.ok
        assert result.per_shard[0].get("adopted")  # reconciled, not duplicated
        for shard in (0, 1):
            assert len(_shard_jobs(cluster, shard)) == 1
        _assert_ground_truth_clean(cluster)
    finally:
        cluster.close()


def test_reborn_coordinator_drops_a_torn_journal_tail(tmp_path):
    """A coordinator that died mid-append left a torn fragment.  The
    reborn coordinator must not glue its entries onto it: that line, and
    every entry after it, would be invisible to the next reader — which
    would then miss the repair started after the crash and reissue its
    dist id."""
    journal = str(tmp_path / "coordinator.journal")
    spec = CancelClientSpec(client_id="mallory-c").to_dict()

    def coordinator():
        return ShardCoordinator({0: None}, journal_path=journal)

    crashed = coordinator()
    crashed._journal({"event": "start", "dist": "dist-1", "spec": spec, "targets": [0]})
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"event": "dispatching", "dist": "dist-1", "sh')  # torn
    reborn = coordinator()
    reborn._journal({"event": "start", "dist": "dist-2", "spec": spec, "targets": [0]})
    reborn._journal({"event": "shard_done", "dist": "dist-2", "shard": 0, "status": "done"})

    reader = coordinator()
    assert [r["dist_id"] for r in reader.interrupted()] == ["dist-1", "dist-2"]
    assert reader.interrupted()[1]["shards"] == {0: {"status": "done"}}
    # The next repair this coordinator starts is dist-3.
    assert reader._dist_seq == 2


# ---------------------------------------------------------------------------
# text entries (snapshot formats 5 and 6): an entry precedes, in WAL order, every
# line that refers to it — under concurrency and at every crash point
# ---------------------------------------------------------------------------

import random  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import persistence_fixtures as fixtures  # noqa: E402
from repro.ahg.records import keyed_line  # noqa: E402
from repro.db.storage import Column, TableSchema  # noqa: E402
from repro.store.recordstore import RecordStore  # noqa: E402
from repro.store.wal import RecordWal  # noqa: E402
from repro.warp import WarpSystem  # noqa: E402


@pytest.fixture
def eager_thread_switches():
    """Hand the GIL over as often as the interpreter will, for the test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_sixteen_threads_first_using_one_text_journal_its_entry_first(
    tmp_path, eager_thread_switches
):
    """Round after round, every thread's run is the first to need the same
    new body, the same new SQL texts and the same new row payload, all at
    once, while another thread saves — and so starts a new segment — as fast
    as it can.  In the final segment each entry is written once, ahead of
    every line that refers to it; the snapshot and its WAL load as the live
    graph."""
    wal_path = str(tmp_path / "records.wal")
    snap_path = str(tmp_path / "warp.json")
    warp = WarpSystem(wal_path=wal_path, durability="none")
    warp.ttdb.create_table(
        TableSchema("t", (Column("k", "int"), Column("v")), partition_columns=("k",))
    )
    warp.ttdb.execute("INSERT INTO t (k, v) VALUES (?, ?)", (1, "one"))
    n_threads, n_rounds = 16, 6
    arrived = threading.Barrier(n_threads)

    def probe(ctx):
        round_ = ctx.param("round")
        ctx.query(f"SELECT v FROM t WHERE k = ? AND v <> ? -- round {round_}", (1, ctx.param("n")))
        ctx.query(f"SELECT v FROM t WHERE k = ? -- shared {round_}", (1,))  # one row for all
        arrived.wait(10.0)  # every run recorded before any is appended
        ctx.echo(f"<p>round {round_}: " + "the same new body, " * 12 + "</p>")

    warp.scripts.register("probe.php", {"handle": probe})
    warp.server.route("/probe.php", "probe.php")
    statuses, serving = [], True

    def request(n):
        for round_ in range(n_rounds):
            params = {"n": str(n), "round": str(round_)}
            statuses.append(warp.server.handle(HttpRequest("GET", "/probe.php", params=params)).status)

    def save():
        while serving:
            warp.save(snap_path)

    threads = [threading.Thread(target=request, args=(n,)) for n in range(n_threads)]
    saver = threading.Thread(target=save)
    saver.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    serving = False
    saver.join(60.0)
    assert not any(thread.is_alive() for thread in threads + [saver])
    warp.close()
    assert statuses == [200] * n_threads * n_rounds

    entries = fixtures.segment(snap_path, wal_path)
    assert fixtures.undefined_refs(entries) == []
    texts = [fixtures.entry_text(data) for kind, data in entries if kind == "text"]
    assert len(set(texts)) == len(texts)  # each once
    loaded = WarpSystem.load(snap_path, wal_path=wal_path)
    loaded.close()
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()
    assert loaded.graph.n_runs == n_threads * n_rounds
    shared = [
        run.json_text for run in loaded.graph.runs.values() if "shared" in run.queries[1].sql
    ]
    assert len(shared) == n_threads * n_rounds
    rows = {json.dumps(keyed_line("run", json.loads(text))["queries"][1][-2:]) for text in shared}
    assert len(rows) == n_rounds  # per round one SQL text and one payload, shared


def _variant(run_id, rng):
    """``golden_run()`` as run ``run_id``, its body, SQL texts and params
    drawn from small pools — so some lines first-use a text or a payload
    and some repeat one."""
    run = fixtures.golden_run()
    run.run_id = run_id
    run.response.body = f"<p>page {rng.randrange(4)}</p>"
    for query in run.queries:
        query.run_id = run_id
        query.sql = f"{query.sql} -- variant {rng.randrange(3)}"
        query.params = (f"p{rng.randrange(3)}",)
    return run


def test_every_crash_point_recovers_the_acked_prefix_with_every_id_defined(tmp_path):
    """Cut the log at every entry boundary and in the middle of every line:
    recovery keeps exactly the runs acknowledged before the cut, every id a
    recovered line refers to resolves, and a run appended after recovery
    that needs a text whose entry was cut off defines it again."""
    rng = random.Random(11)
    wal_path = str(tmp_path / "records.wal")
    store = RecordStore(wal=RecordWal(wal_path, durability="none"))
    acked = [(0, store.to_snapshot())]  # (bytes on disk, store) per ack
    for run_id in range(1, 13):
        store.add_run(_variant(run_id, rng))
        acked.append((os.path.getsize(wal_path), store.to_snapshot()))
        if run_id % 5 == 0:
            store.replace_run(run_id, _variant(run_id, rng))
            acked.append((os.path.getsize(wal_path), store.to_snapshot()))
    store.wal.close()
    with open(wal_path, "rb") as fh:
        data = fh.read()
    boundaries = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    cuts = boundaries + [(a + b) // 2 for a, b in zip(boundaries, boundaries[1:])]
    assert len(cuts) > 40
    for cut in sorted(cuts):
        path = str(tmp_path / f"cut-{cut}.wal")
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        recovered = fixtures.recover_store(wal_path=path)
        expected = [snapshot for size, snapshot in acked if size <= cut][-1]
        assert recovered.to_snapshot() == expected, cut
        for run in recovered.runs.values():
            line = keyed_line("run", json.loads(run.json_text))
            assert fixtures.text_refs("run", line) <= set(recovered.texts.by_id)
        # Every body and SQL text again: each must resolve in the reopened log.
        for run_id in range(101, 105):
            recovered.add_run(_variant(run_id, rng))
        recovered.wal.close()
        assert fixtures.undefined_refs(list(RecordWal.entries(path))) == []
        again = fixtures.recover_store(wal_path=path)
        again.wal.close()
        assert again.to_snapshot() == recovered.to_snapshot()


# ---------------------------------------------------------------------------
# visit entries nobody waits on (format 7): the next commit on the log writes
# them, so a crash loses only the ones no commit followed
# ---------------------------------------------------------------------------

from repro.workload.scenarios import WikiDeployment  # noqa: E402


def _browsing(tmp_path, plane):
    """A two-user wiki over a group-commit log, with ``states`` filled with
    the graph as it stood each time a run was acknowledged."""
    deployment = WikiDeployment(
        n_users=2, seed=1, wal_path=str(tmp_path / "records.wal"), fault_plane=plane
    )
    store = deployment.warp.graph
    states = []
    acknowledge = store.add_run

    def add_run(run):
        acknowledge(run)
        states.append(store.to_snapshot())

    store.add_run = add_run
    return deployment, states


def test_a_crash_on_the_commit_after_unwaited_visit_entries_loses_only_them(tmp_path, closing):
    """The commit that would have written a request's run, its visit and the
    deltas logged since the last acknowledged run dies before it writes:
    recovery holds every visit entry logged before that run, and nothing
    else is missing."""
    plane = FaultPlane()
    deployment, states = _browsing(tmp_path, plane)
    deployment.login("user1")
    browser = deployment.browser("user1")
    browser.open("http://wiki.test/edit.php?title=user1_notes")
    browser.type_into("textarea", "typed, never sent")  # events no run follows
    wal = deployment.warp.graph.wal
    assert wal.status()["buffered_entries"] > 0
    plane.arm(point="wal.append", kind="crash", times=1)
    with pytest.raises(SimulatedCrash):
        deployment.read_page("user1", "Projects")
    loaded = closing(WarpSystem.load(None, wal_path=wal.path))
    assert loaded.graph.to_snapshot() == states[-1]
    live = deployment.warp.graph.visits
    restored = loaded.graph.visits[("user1-browser", 3)]
    assert len(restored.events) < len(live[("user1-browser", 3)].events)
    assert ("user1-browser", 4) in live and ("user1-browser", 4) not in loaded.graph.visits


@pytest.mark.parametrize("where", ["before the write", "before the truncation"])
def test_a_crash_inside_a_save_after_unwaited_visit_entries_replays_each_once(
    tmp_path, monkeypatch, closing, where
):
    """Deltas nobody waited on, then a save that dies: its pre-write
    marker's wait wrote them.  Recovery — the earlier snapshot and the whole
    tail, or the new snapshot and nothing after its marker — applies each
    delta once."""
    deployment, _ = _browsing(tmp_path, FaultPlane())
    warp = deployment.warp
    deployment.login("user1")
    path = str(tmp_path / "warp.json")
    warp.save(path)
    deployment.read_page("user1", "Main_Page")
    browser = deployment.browser("user1")
    browser.open("http://wiki.test/edit.php?title=user1_notes")
    browser.type_into("textarea", "typed, never sent")
    assert warp.graph.wal.status()["buffered_entries"] > 0
    if where == "before the write":
        warp.graph.faults.arm(point="store.snapshot", kind="crash", times=1)
    else:

        def die(self):
            raise SimulatedCrash("died before the truncation")

        monkeypatch.setattr(RecordWal, "truncate", die)
    with pytest.raises(SimulatedCrash):
        warp.save(path)
    monkeypatch.undo()
    warp.graph.wal._mark_crashed()
    loaded = closing(WarpSystem.load(path, wal_path=warp.graph.wal.path))
    assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()
    events = loaded.graph.visits[("user1-browser", 4)].events
    assert [event.data["value"] for event in events] == ["typed, never sent"]
