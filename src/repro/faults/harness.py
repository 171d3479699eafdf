"""Randomized crash-recovery property harness (DESIGN.md "Failure model").

One *schedule* = one seeded experiment: build a WARP deployment with a
:class:`~repro.faults.plane.FaultPlane` armed from the schedule's JSON
fault list, drive a deterministic wiki workload against it (logins, page
appends carrying unique markers, reads, optionally a mid-drive repair and
a snapshot), then simulate process death, reload with
:meth:`~repro.warp.WarpSystem.load`, and check the recovery invariants:

1. **No acked write lost** — every append acknowledged with 200 appears
   exactly once among the recovered graph's run records.
2. **No write applied twice** — unacknowledged appends appear at most
   once, and no marker occurs twice in the recovered page text.
3. **Store / graph / version-store consistency** — the record store's
   secondary indexes agree with the run log, and every table's version
   chains pass :meth:`~repro.ttdb.timetravel.TimeTravelDB.integrity_errors`.
4. **Interrupted repair reported** — a repair the crash cut down is
   listed in the store's ``repair_jobs`` after reload.
5. **Recovery serves** — a probe request against the reloaded system
   succeeds.
6. **Retention agrees** — after a ``retain_at`` step (never drawn by
   :func:`generate_schedule`), graph and database agree on the horizon.

Recovery itself always runs fault-free (a reloaded system gets the inert
default plane): the property under test is that *whatever* state an
injected failure left on disk, recovery rebuilds a consistent deployment.

Determinism: schedules are generated from a seed, the workload is driven
sequentially from a seeded RNG, every WAL batch is committed by the
waiter that holds the log's I/O lock (the log starts no thread), and
degraded-mode transitions are probe-on-write.  Replaying a schedule
reproduces the same fault firings byte-for-byte.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.wiki.app import WikiApp
from repro.faults.plane import FaultPlane, SimulatedCrash
from repro.repair.api import CancelClientSpec
from repro.warp import WarpSystem
from repro.workload.loadgen import LoadClient

#: The page every schedule's appends target.
PAGE = "Sandbox"

#: Which fault kinds make sense at which points (a torn write needs a
#: payload to tear; repair/gate points sit above the I/O boundary).
_POINT_KINDS = {
    "wal.append": ("io", "disk_full", "error", "crash", "torn"),
    "wal.fsync": ("io", "disk_full", "crash", "torn"),
    "store.insert_run": ("error", "crash"),
    "store.snapshot": ("io", "disk_full", "error", "crash"),
    "ttdb.finalize_switch": ("error", "crash"),
    "repair.phase_started": ("error", "crash"),
    "repair.group_done": ("error", "crash"),
    "repair.finalized": ("error", "crash"),
    "gate.reapply": ("error",),
}

#: Points hit once per request (or more): ``after`` must clear the two
#: login appends so every schedule gets past client bootstrap.
_REQUEST_RATE_POINTS = ("wal.append", "wal.fsync", "store.insert_run")


def generate_schedule(seed: int) -> dict:
    """One reproducible fault schedule.  Biased toward WAL-level faults
    (every schedule exercises the journal; higher-level points ride
    along)."""
    rng = random.Random(seed)
    points = sorted(_POINT_KINDS)
    faults = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.55:
            point = rng.choice(("wal.append", "wal.fsync"))
        else:
            point = rng.choice(points)
        kind = rng.choice(_POINT_KINDS[point])
        after = (
            rng.randint(2, 28)
            if point in _REQUEST_RATE_POINTS
            else rng.randint(0, 3)
        )
        fault = {"point": point, "kind": kind, "after": after,
                 "times": rng.randint(1, 3)}
        if kind == "torn":
            fault["fraction"] = rng.choice((0.25, 0.5, 0.75))
        faults.append(fault)
    return {
        "seed": seed,
        "online_gate": rng.random() < 0.3,
        "repair_at": rng.randint(8, 20) if rng.random() < 0.6 else None,
        "save_at": rng.randint(6, 24) if rng.random() < 0.5 else None,
        "requests": 36,
        "faults": faults,
    }


@dataclass
class HarnessReport:
    """Everything one schedule run observed, plus the verdict."""

    seed: int
    schedule: dict
    writes: List[str] = field(default_factory=list)  # markers issued
    acked: List[str] = field(default_factory=list)  # markers 200-acked
    statuses: Dict[int, int] = field(default_factory=dict)
    crashed: bool = False
    degraded: bool = False
    saved: bool = False
    repair_status: Optional[str] = None
    fired: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    recovered_runs: int = 0
    horizon: Optional[int] = None  # a retain_at step's
    retired: List[str] = field(default_factory=list)  # acked before it

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "crashed": self.crashed,
            "degraded": self.degraded,
            "saved": self.saved,
            "repair_status": self.repair_status,
            "writes": len(self.writes),
            "acked": len(self.acked),
            "statuses": dict(self.statuses),
            "faults_fired": len(self.fired),
            "recovered_runs": self.recovered_runs,
            "violations": list(self.violations),
            "notes": list(self.notes),
        }


def run_schedule(schedule, workdir: str) -> HarnessReport:
    """Execute one schedule end-to-end (drive → crash → reload → check)."""
    if isinstance(schedule, str):
        schedule = json.loads(schedule)
    seed = int(schedule.get("seed", 0))
    os.makedirs(workdir, exist_ok=True)
    wal_path = os.path.join(workdir, f"wal-{seed}.jsonl")
    snap_path = os.path.join(workdir, f"snapshot-{seed}.json")
    for stale in (wal_path, snap_path):
        if os.path.exists(stale):
            os.remove(stale)

    plane = FaultPlane.from_schedule(schedule)
    report = HarnessReport(seed=seed, schedule=schedule)
    # A schedule saved when durability or a response cache was drawn
    # still carries the key; every schedule runs on the default group
    # commit, without a cache.
    warp = WarpSystem(wal_path=wal_path, fault_plane=plane)
    if schedule.get("online_gate"):
        warp.enable_online_repair()
    # Never hang a schedule on a sick log: a group commit that cannot
    # complete surfaces as DurabilityError within the timeout.
    warp.graph.durability_timeout = 5.0
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "pw-alice")
    wiki.seed_user("mallory", "pw-mallory")
    wiki.seed_page(PAGE, "seed text\n", "alice")
    clients = [LoadClient("alice", warp.server), LoadClient("mallory", warp.server)]

    interrupted_job_ids: List[str] = []
    try:
        _drive(warp, schedule, clients, report, snap_path, interrupted_job_ids)
    except SimulatedCrash:
        report.crashed = True
    report.saved = os.path.exists(snap_path)
    report.degraded = warp.health.durability_errors > 0
    report.fired = [dict(event) for event in plane.fired]

    # Process death: the old deployment's WAL handle is dead, its
    # unflushed buffer is gone, and nothing it held in memory survives.
    wal = warp.graph.wal
    if wal is not None:
        wal._mark_crashed()

    loaded, wiki2 = _reload(report, snap_path, wal_path)
    try:
        _check_invariants(report, loaded, wiki2, interrupted_job_ids)
    finally:
        loaded.close()
    return report


# -- the drive ---------------------------------------------------------------


def _drive(warp, schedule, clients, report, snap_path, interrupted_job_ids):
    for client in clients:
        response = client.login(f"pw-{client.name}")
        if response.status != 200:
            report.notes.append(f"login {client.name} -> {response.status}")
    rng = random.Random(report.seed * 7919 + 13)
    repair_at = schedule.get("repair_at")
    save_at = schedule.get("save_at")
    for step in range(int(schedule.get("requests", 36))):
        if save_at is not None and step == save_at:
            try:
                warp.save(snap_path)
            except SimulatedCrash:
                raise
            except Exception as exc:
                report.notes.append(f"save failed: {exc!r}")
        if repair_at is not None and step == repair_at:
            if _run_repair(warp, report, interrupted_job_ids):
                return
        if step == schedule.get("retain_at"):
            report.horizon = warp.clock.now()
            report.retired = list(report.acked)
            warp.retain(report.horizon)
        client = clients[step % len(clients)]
        if rng.random() < 0.6:
            marker = f"mk{report.seed}x{step}."
            report.writes.append(marker)
            request = client.request(
                "POST", "/edit.php", {"title": PAGE, "append": f"\n{marker}"}
            )
        else:
            marker = None
            path = "/index.php" if rng.random() < 0.5 else "/edit.php"
            request = client.request("GET", path, {"title": PAGE})
        try:
            response = client.send(request)
        except SimulatedCrash:
            raise
        except Exception as exc:
            # A handler-level injected error: the request failed, nothing
            # was acked.  A closed WAL means an earlier crash landed on
            # another thread (a repair job's commit) — stop driving, the
            # process is dead.
            report.notes.append(f"step {step}: {exc!r}")
            wal = warp.graph.wal
            if wal is not None and wal._closed:
                report.crashed = True
                return
            continue
        report.statuses[response.status] = (
            report.statuses.get(response.status, 0) + 1
        )
        if marker is not None and response.status == 200:
            report.acked.append(marker)


def _run_repair(warp, report, interrupted_job_ids) -> bool:
    """Submit the mid-drive repair; True when the crash killed it (the
    drive must stop — the process is dead)."""
    job = warp.repair.submit(CancelClientSpec(client_id="mallory-load"))
    job.wait(30.0)
    report.repair_status = job.status
    error = job.error
    if (
        job.status == "failed"
        and error is not None
        and "process crashed" in str(error)
    ):
        if "mid-repair" in str(error):
            interrupted_job_ids.append(job.job_id)
        report.crashed = True
        return True
    if error is not None:
        report.notes.append(f"repair {job.status}: {error!r}")
    return False


# -- recovery + invariants ---------------------------------------------------


def _reload(report, snap_path, wal_path):
    """Fault-free recovery: snapshot + WAL when a snapshot reached disk,
    WAL-only otherwise (the crash-before-first-save case, where the
    application is reinstalled from scratch on top of the replayed
    graph)."""
    if report.saved:
        loaded = WarpSystem.load(snap_path, wal_path=wal_path)
        wiki2 = WikiApp(loaded.ttdb, loaded.scripts, loaded.server)
        wiki2.register_code()
    else:
        loaded = WarpSystem.load(None, wal_path=wal_path)
        wiki2 = WikiApp(loaded.ttdb, loaded.scripts, loaded.server)
        wiki2.install()
        wiki2.seed_user("alice", "pw-alice")
        wiki2.seed_user("mallory", "pw-mallory")
        wiki2.seed_page(PAGE, "seed text\n", "alice")
    return loaded, wiki2


def _marker_count(store, marker: str) -> int:
    needle = f"\n{marker}"
    count = 0
    for run in store.runs.values():
        request = getattr(run, "request", None)
        if request is not None and request.params.get("append") == needle:
            count += 1
    return count


def _check_invariants(report, loaded, wiki2, interrupted_job_ids) -> None:
    store = loaded.graph
    report.recovered_runs = len(store.runs)
    violations = report.violations

    # 1 + 2: acked exactly once, unacked at most once — in the graph ...
    acked, retired = set(report.acked), set(report.retired)
    for marker in report.writes:
        count = _marker_count(store, marker)
        if marker in acked and count != 1 and not (count == 0 and marker in retired):
            violations.append(
                f"acked write {marker!r} appears {count} times in the "
                "recovered graph (must be exactly 1)"
            )
        elif marker not in acked and count > 1:
            violations.append(
                f"unacked write {marker!r} appears {count} times in the "
                "recovered graph (must be at most 1)"
            )
    # ... and in the recovered page text (the database is only as fresh
    # as the snapshot, so presence is not guaranteed — but duplication is
    # always a bug).
    text = wiki2.page_text(PAGE) or ""
    for marker in report.writes:
        if text.count(marker) > 1:
            violations.append(
                f"write {marker!r} applied {text.count(marker)} times to "
                "the recovered page text"
            )

    # 3a: store self-consistency.
    violations.extend(_store_violations(store))
    # 3b: version-store chain integrity.
    for problem in loaded.ttdb.integrity_errors():
        violations.append(f"version-store: {problem}")

    # 4: a repair the crash interrupted must be reported after reload.
    for job_id in interrupted_job_ids:
        if job_id not in store.repair_jobs.entries:
            violations.append(
                f"repair {job_id} was interrupted by the crash but is not "
                "reported in repair_jobs after reload"
            )

    # 5: the recovered system serves.
    probe = LoadClient("probe", loaded.server)
    response = probe.send(
        probe.request("GET", "/index.php", {"title": PAGE})
    )
    if response.status != 200:
        violations.append(
            f"post-recovery probe request failed with {response.status}"
        )

    # 6: the graph recovered the horizon, the database is trimmed at it.
    if report.horizon is not None and (
        store.horizon_ts != report.horizon or loaded.retain(report.horizon)
    ):
        violations.append(f"graph and database disagree on horizon {report.horizon}")


def _store_violations(store) -> List[str]:
    out: List[str] = []
    runs = store.runs
    order = store._run_order
    if len(set(order)) != len(order):
        out.append("store: duplicate run ids in run_order")
    if set(order) != set(runs):
        out.append("store: run_order and runs disagree")
    for key, run_id in store.request_map.items():
        if run_id not in runs:
            out.append(f"store: request_map {key} -> missing run {run_id}")
            break
    for (client_id, visit_id), ids in store._runs_by_visit.items():
        if any(run_id not in runs for run_id in ids):
            out.append(
                f"store: _runs_by_visit[{client_id},{visit_id}] references "
                "a missing run"
            )
            break
    for client_id, ids in store._client_runs.items():
        if any(run_id not in runs for run_id in ids):
            out.append(f"store: _client_runs[{client_id}] references a missing run")
            break
    touched = set()
    for bucket in store.touch.table_touchers.values():
        touched |= bucket
    for bucket in store.touch.key_touchers.values():
        touched |= bucket
    if not touched <= set(runs):
        out.append("store: touch index references missing runs")
    return out
