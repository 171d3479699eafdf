#!/usr/bin/env python3
"""Degraded-mode serving and self-healing recovery (ISSUE 7 tentpole).

A disk goes bad under a live wiki: every fsync starts failing.  WARP's
serving path must not crash and must not lie —

* the write that trips the fault is **not acknowledged** (503 with
  ``X-Warp-Degraded: durability``: it executed, but its history record
  never reached disk);
* the system flips to **read-only**: reads keep serving (their journal
  entries park in memory), writes get 503 + ``Retry-After`` +
  ``X-Warp-Degraded: read-only``;
* ``GET /warp/admin/health`` reports the degradation with the WAL's
  parked-entry backlog;
* when the disk recovers, the first write **probes, heals, and
  succeeds** — the parked backlog is flushed in seq order ahead of it,
  no operator action needed;
* a crash during a snapshot save is recovered by replaying the WAL:
  every acknowledged write survives.

Run:  python examples/degraded_mode.py       (exits non-zero on failure)
"""

import json
import os
import sys
import tempfile

from repro.apps.wiki import WikiApp
from repro.faults.plane import FaultPlane, SimulatedCrash
from repro.http.message import HttpRequest
from repro.warp import WarpSystem
from repro.workload.loadgen import LoadClient, LoadStats

PAGE = "Frontpage"
FAILURES = []


def check(label, condition):
    marker = "ok" if condition else "FAIL"
    print(f"  [{marker}] {label}")
    if not condition:
        FAILURES.append(label)


def health(warp):
    response = warp.server.handle(
        HttpRequest(method="GET", path="/warp/admin/health", params={})
    )
    return response.status, json.loads(response.body)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="warp-degraded-")
    wal_path = os.path.join(workdir, "warp.wal")
    plane = FaultPlane(seed=7)
    warp = WarpSystem(wal_path=wal_path, fault_plane=plane)
    warp.graph.store.durability_timeout = 5.0
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "alice-pw")
    wiki.seed_page(PAGE, "welcome\n", "alice")
    alice = LoadClient("alice", warp.server)
    stats = LoadStats()

    def post(marker):
        response = alice.send(
            alice.request("POST", "/edit.php", {"title": PAGE, "append": f"\n{marker}"})
        )
        stats.note(response, 0.0)
        return response

    def get():
        response = alice.send(alice.request("GET", "/edit.php", {"title": PAGE}))
        stats.note(response, 0.0)
        return response

    print("== healthy baseline ==")
    check("login succeeds", alice.login("alice-pw").status == 200)
    check("write acknowledged", post("before-the-storm.").status == 200)
    status, doc = health(warp)
    check("health is 200/normal", status == 200 and doc["mode"] == "normal")

    print("== the disk goes bad: every fsync fails ==")
    plane.arm(point="wal.fsync", kind="io", times=None)
    refused = post("never-acked.")
    check(
        "triggering write not acknowledged (503 durability)",
        refused.status == 503
        and refused.headers.get("X-Warp-Degraded") == "durability",
    )
    reads = [get() for _ in range(8)]
    check("reads keep serving (8/8 are 200)", all(r.status == 200 for r in reads))
    blocked = post("still-refused.")
    check(
        "writes refused up front (503 read-only + Retry-After)",
        blocked.status == 503
        and blocked.headers.get("X-Warp-Degraded") == "read-only"
        and blocked.headers.get("Retry-After") is not None,
    )
    status, doc = health(warp)
    check("health is 503/read_only", status == 503 and doc["mode"] == "read_only")
    check("health reports parked journal entries", doc["wal"]["parked_entries"] > 0)
    print(f"  health: {json.dumps({k: doc[k] for k in ('mode', 'last_error')})}")

    print("== the disk recovers: the next write self-heals ==")
    plane.clear()
    healed = post("after-the-storm.")
    check("first write after the fault heals and succeeds", healed.status == 200)
    status, doc = health(warp)
    check("health back to 200/normal", status == 200 and doc["mode"] == "normal")
    check("exactly one heal recorded", doc["heals"] == 1)
    wal = warp.graph.store.wal
    check("parked backlog flushed to disk", wal.sync(5.0) and not wal.failed)

    availability = stats.availability()
    print(
        "  availability: "
        f"served={availability['served_fraction']:.2f} "
        f"degraded={availability['degraded_fraction']:.2f} "
        f"failed={availability['failed_fraction']:.2f} "
        f"classes={stats.error_classes}"
    )
    check("no hard failures during the storm", availability["failed_fraction"] == 0)

    print("== crash during snapshot save, recover from disk ==")
    snap_path = os.path.join(workdir, "snap.json")
    warp.save(snap_path)
    check("baseline snapshot saved", os.path.exists(snap_path))
    check("write after the snapshot acknowledged", post("post-snapshot.").status == 200)
    runs_before = len(warp.graph.store.runs)
    plane.arm(point="store.snapshot", kind="crash", times=1)
    snap2_path = os.path.join(workdir, "snap2.json")
    try:
        warp.save(snap2_path)
        crashed = False
    except SimulatedCrash:
        crashed = True
    check("process crashed mid-save", crashed)
    check("no partial snapshot left behind", not os.path.exists(snap2_path))
    warp.graph.store.wal._mark_crashed()  # the rest of the process dies too

    reloaded = WarpSystem.load(snap_path, wal_path=wal_path)
    check(
        "every acknowledged write survives the crash (history graph)",
        len(reloaded.graph.store.runs) == runs_before,
    )
    post_snapshot_runs = [
        run
        for run in reloaded.graph.store.runs.values()
        if getattr(run, "request", None) is not None
        and run.request.params.get("append") == "\npost-snapshot."
    ]
    check("post-snapshot acked write recovered from the WAL", len(post_snapshot_runs) == 1)
    wiki2 = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
    wiki2.register_code()
    alice2 = LoadClient("alice", reloaded.server)
    probe = alice2.send(alice2.request("GET", "/index.php", {"title": PAGE}))
    check("reloaded system serves requests", probe.status == 200)
    body = probe.body
    check("acked edits present exactly once", body.count("before-the-storm.") == 1)
    check("healed write present exactly once", body.count("after-the-storm.") == 1)
    reloaded.close()

    print()
    if FAILURES:
        print(f"FAILED: {len(FAILURES)} check(s): {FAILURES}")
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
