"""Degraded-mode state machine and the ``/warp/admin/health`` payload.

Two modes, deterministic transitions (DESIGN.md "Failure model"):

``normal``
    Full service.
``read_only``
    Entered on the first durability failure (a journal entry that cannot
    reach disk — WAL write/fsync error, disk full, timed-out group
    commit).  Writes are refused with 503 + ``Retry-After`` +
    ``X-Warp-Degraded: read-only``; reads keep flowing, with the store in
    *relaxed durability* so read-side bookkeeping (the runs of reads,
    visit logs) parks in the WAL instead of raising.

Self-healing is **probe-on-write**: every refused write first attempts
``RecordWal.heal()`` — truncate torn garbage, replay the parked backlog
in seq order.  The first write after the fault
clears therefore both flushes the backlog and succeeds itself.  No
background thread: transitions happen only on request/admin activity, so
every fault schedule replays deterministically.

This sits below :class:`~repro.warp.WarpSystem` (which constructs it)
and above the store/WAL; it holds no locks while calling into them.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.http.message import HttpResponse


class HealthMonitor:
    """Owns the serving mode and renders the health document."""

    def __init__(self, warp) -> None:
        self._warp = warp
        self._lock = threading.Lock()
        self.mode = "normal"
        #: Logical-clock time the current degradation started (None when
        #: normal) — logical, not wall-clock, so schedules replay exactly.
        self.degraded_since: Optional[int] = None
        self.write_rejections = 0
        self.durability_errors = 0
        self.heals = 0
        self.last_error: Optional[str] = None
        # The admin table consults this monitor before a mutating row and
        # when a storage fault reaches the HTTP boundary.
        warp.server.admin.health = self
        warp.server.admin.add("GET", "/health", self._health_route)

    # -- transitions -----------------------------------------------------------

    def on_durability_error(self, exc: BaseException) -> None:
        """A mutation's journal entry could not be made durable: flip to
        read-only.  Called by the server's write path and by the WAL's
        ``on_degrade`` callback (which may fire from inside the WAL's I/O
        lock — this takes no WAL locks)."""
        with self._lock:
            self.durability_errors += 1
            self.last_error = repr(exc)
            if self.mode != "read_only":
                self.mode = "read_only"
                self.degraded_since = self._warp.clock.now()
            # Reads keep serving: their journal entries park instead of
            # raising, and heal() re-syncs them when the disk recovers.
            # Flipped inside the lock — mode and the store flag must move
            # together, or a racing heal could leave read_only serving
            # with strict durability (read-path bookkeeping would raise
            # DurabilityError instead of parking).
            self._warp.graph.relaxed_durability = True

    # The WAL reports degradation with the same payload.
    on_wal_degrade = on_durability_error

    def try_heal(self) -> bool:
        """Probe the disk; True when serving is (back to) normal."""
        graph = self._warp.graph
        wal = graph.wal
        if wal is not None and not wal.heal():
            return False
        with self._lock:
            if self.mode == "normal":
                return True
            self.mode = "normal"
            self.degraded_since = None
            self.heals += 1
            # Same locked section as the mode transition (see
            # on_durability_error): a concurrent durability error either
            # runs before this block (its relaxed=True is overwritten
            # along with its mode) or after (it re-degrades both).
            graph.relaxed_durability = False
        return True

    # -- serving policy --------------------------------------------------------

    def admit_write(self, request) -> Optional[HttpResponse]:
        """Called by the server before executing any non-GET request.
        None admits; otherwise the 503 the client should get.  Probes for
        healing first, so the system exits read-only on the first write
        after the fault clears."""
        if self.mode == "normal":
            return None
        if self.try_heal():
            return None
        with self._lock:
            self.write_rejections += 1
            detail = self.last_error or "durability failure"
        return HttpResponse(
            status=503,
            body=(
                "service degraded to read-only: the write-ahead log cannot "
                f"reach disk ({detail}); writes cannot be acknowledged. "
                "Reads keep serving; retry after the storage fault clears."
            ),
            headers={"Retry-After": "1", "X-Warp-Degraded": "read-only"},
        )

    # -- reporting -------------------------------------------------------------

    def _health_route(self, request):
        doc = self.to_dict()
        return (200 if doc["mode"] == "normal" else 503), doc

    def to_dict(self) -> dict:
        """The ``/warp/admin/health`` document: mode, WAL lag, last fault,
        and enough counters to see the degradation history."""
        warp = self._warp
        wal = warp.graph.wal
        with self._lock:
            doc = {
                "mode": self.mode,
                "degraded_since": self.degraded_since,
                "write_rejections": self.write_rejections,
                "durability_errors": self.durability_errors,
                "heals": self.heals,
                "last_error": self.last_error,
            }
        doc["unsynced_mutations"] = warp.graph.unsynced_mutations
        doc["wal"] = wal.status() if wal is not None else None
        doc["faults"] = warp.faults.status()
        doc["repair"] = {
            "active": warp.ttdb.repair_gen is not None,
            "interrupted_jobs": len(warp.graph.repair_jobs.entries),
        }
        return doc
