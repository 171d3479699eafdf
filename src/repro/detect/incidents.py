"""Incident lifecycle: flagged visits with blast-radius previews,
refreshed on demand (:meth:`IncidentManager.refresh_once`).

A flagged request opens an *incident* — one per suspect (client, visit)
pair; repeated flagged requests in the same visit merge into it.  Every
incident carries the derived :class:`~repro.repair.api.RepairSpec`
(cancel the suspect visit, or the whole client when no visit id was
presented), so the operator story is one hop: inspect the preview,
``POST .../repair``, done.

Incidents are durable: records live in :class:`RecordStore.incidents`,
journaled under the ``incident``/``incident_update`` WAL kinds, so they
survive ``save``/``load`` and crash recovery exactly like runs do.

Preview-refresh contract (the lock-starvation fix): ``refresh_once`` takes
the store lock **per incident** — snapshot the open ids, then for each
one acquire the lock, compute one plan, release, and only then move to
the next.  The lock is never held across the whole sweep, so live
writes interleave between plans instead of starving behind them; the
``detect.preview`` fault point fires *inside* the per-incident critical
section so a stall fault models exactly one slow plan.  A preview is
recomputed only when the graph grew since the last one (run-count
stamp), bounding WAL growth under a quiet graph.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.core.errors import RepairError, ReproError
from repro.core.ids import trailing_seq
from repro.faults.plane import FaultPlane, InjectedFault
from repro.faults.plane import active as _active_plane
from repro.http.routes import NotFound
from repro.repair.api import (
    CancelClientSpec,
    CancelVisitSpec,
    _compute_plan_locked,
    parse_spec,
)
from repro.repair.jobs import TERMINAL_STATUSES

from repro.detect.rules import DetectionResult

#: Incident statuses.  ``open`` and ``repairing`` previews keep
#: refreshing; ``resolved``/``dismissed`` are terminal.
OPEN_STATUSES = ("open", "repairing")


def _compact_preview(plan) -> dict:
    """The operator-facing subset of a RepairPlan — small enough to
    journal on every refresh."""
    return {
        "futile": plan.futile,
        "seed_runs": plan.seed_runs,
        "n_groups": plan.n_groups,
        "affected_runs": plan.affected_runs,
        "affected_clients": list(plan.affected_clients)[:8],
        "affected_partitions": plan.affected_partitions,
        "total_runs": plan.total_runs,
        "estimated_reexec_fraction": round(plan.estimated_reexec_fraction, 4),
    }


class IncidentManager:
    """Owns the incident records in the graph's store: opening, preview
    refresh, lifecycle transitions, and spec derivation."""

    def __init__(
        self, graph, ttdb, repair, table, fault_plane: Optional[FaultPlane] = None
    ):
        """``repair`` is the job manager the one-click repair submits to;
        the four incident rows (API.md §9) are mounted on ``table``."""
        self.graph = graph
        self.ttdb = ttdb
        self._repair = repair
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        self._open_lock = threading.Lock()
        table.add("GET", "/incidents", self._list_route)
        table.add("GET", "/incidents/<incident_id>", self._incident_route)
        table.add("POST", "/incidents/<incident_id>/repair", self._repair_route)
        table.add("POST", "/incidents/<incident_id>/dismiss", self._dismiss_route)

    @property
    def store(self):
        # Resolved through the graph on every use: ``restore_snapshot``
        # swaps the backing store object, and incidents must follow it.
        return self.graph.store

    # -- opening -------------------------------------------------------------

    def open_incident(self, result: DetectionResult, record) -> dict:
        """Open an incident for a flagged request's recorded run, or
        merge into the open incident already covering its visit."""
        client_id = record.client_id
        visit_id = record.visit_id
        reasons = sorted(set(result.reasons))
        with self._open_lock, self.store.lock:
            existing = self._open_for(client_id, visit_id)
            if existing is not None:
                merged = sorted(set(existing.get("reasons", ())) | set(reasons))
                run_ids = list(existing.get("run_ids", ()))
                if record.run_id not in run_ids:
                    run_ids.append(record.run_id)
                self.store.log_incident_update(
                    existing["incident_id"],
                    {
                        "score": max(existing.get("score", 0.0), result.score),
                        "reasons": merged,
                        "run_ids": run_ids,
                    },
                )
                return self.store.incidents[existing["incident_id"]]
            incident_id = f"inc-{self.store.next_incident_seq()}"
            entry = {
                "incident_id": incident_id,
                "ts": record.ts_start,
                "client_id": client_id,
                "visit_id": visit_id,
                "run_ids": [record.run_id],
                "path": record.request.path,
                "script": record.script,
                "score": result.score,
                "reasons": reasons,
                "status": "open",
                "spec": self._derive_spec(client_id, visit_id),
                "preview": None,
                "preview_stamp": None,
                "job_id": None,
            }
            self.store.log_incident(entry)
            return self.store.incidents[incident_id]

    def _open_for(self, client_id, visit_id) -> Optional[dict]:
        if client_id is None:
            return None
        for entry in self.store.incidents.values():
            if (
                entry.get("status") in OPEN_STATUSES
                and entry.get("client_id") == client_id
                and entry.get("visit_id") == visit_id
            ):
                return entry
        return None

    @staticmethod
    def _derive_spec(client_id, visit_id) -> Optional[dict]:
        if client_id is None:
            return None
        if visit_id:
            return CancelVisitSpec(
                client_id=client_id,
                visit_id=int(visit_id),
                initiated_by_admin=True,
            ).to_dict()
        return CancelClientSpec(client_id=client_id).to_dict()

    # -- queries -------------------------------------------------------------

    def get(self, incident_id: str) -> Optional[dict]:
        with self.store.lock:
            entry = self.store.incidents.get(incident_id)
            return dict(entry) if entry is not None else None

    def list(self, status: Optional[str] = None) -> List[dict]:
        with self.store.lock:
            entries = [
                dict(entry)
                for entry in self.store.incidents.values()
                if status is None or entry.get("status") == status
            ]
        entries.sort(key=lambda e: trailing_seq(e["incident_id"]))
        return entries

    def open_incidents(self) -> List[dict]:
        return [e for e in self.list() if e["status"] in OPEN_STATUSES]

    # -- lifecycle -----------------------------------------------------------

    def mark_repairing(self, incident_id: str, job_id: str) -> None:
        self.store.log_incident_update(
            incident_id, {"status": "repairing", "job_id": job_id}
        )

    def resolve(self, incident_id: str, ok: bool) -> None:
        self.store.log_incident_update(
            incident_id, {"status": "resolved" if ok else "open"}
        )

    def dismiss(self, incident_id: str) -> None:
        self.store.log_incident_update(incident_id, {"status": "dismissed"})

    # -- preview refresh -----------------------------------------------------

    def refresh_once(self, force: bool = False) -> int:
        """Refresh the blast-radius preview of every open incident.

        Returns how many previews were recomputed.  See the module
        docstring for the locking contract — the store lock is taken per
        incident, never across the sweep."""
        refreshed = 0
        for entry in self.open_incidents():
            incident_id = entry["incident_id"]
            spec_data = entry.get("spec")
            if not spec_data:
                continue
            stamp = len(self.store.runs)
            if not force and entry.get("preview_stamp") == stamp:
                continue
            try:
                spec = parse_spec(spec_data)
                with self.store.lock:
                    # The fault point sits inside the critical section:
                    # a "stall" rule here models one slow compute_plan
                    # holding the lock — the starvation scenario the
                    # per-incident acquisition bounds.
                    self.faults.fire("detect.preview", incident=incident_id)
                    plan = _compute_plan_locked(self.graph, self.ttdb, spec, None)
            except (ReproError, InjectedFault, OSError) as exc:
                self.store.log_incident_update(
                    incident_id, {"preview_error": str(exc)}
                )
                continue
            self.store.log_incident_update(
                incident_id,
                {
                    "preview": _compact_preview(plan),
                    "preview_stamp": stamp,
                    "preview_error": None,
                },
            )
            refreshed += 1
            # Releasing the lock is not enough: CPython lock release does
            # not hand off, so without a pause here the sweep barges
            # straight back in and a writer parked on the store lock
            # still waits out every plan.  A real (1 ms) sleep, not
            # sleep(0): a bare GIL yield lets the parked writer run only
            # most of the time (measured: ~1 sweep in 20 still barged).
            time.sleep(0.001)
        return refreshed

    def status(self) -> dict:
        with self.store.lock:
            counts: Dict[str, int] = {}
            for entry in self.store.incidents.values():
                counts[entry.get("status", "open")] = (
                    counts.get(entry.get("status", "open"), 0) + 1
                )
        return {"incidents": sum(counts.values()), "by_status": counts}

    # -- admin rows ------------------------------------------------------------

    def _list_route(self, request):
        if request.params.get("refresh"):
            self.refresh_once(force=bool(request.params.get("force")))
        entries = [
            self._reconciled(entry)
            for entry in self.list(status=request.params.get("status"))
        ]
        status = self.status()
        return 200, {
            "incidents": entries,
            "n_incidents": status["incidents"],
            "by_status": status["by_status"],
        }

    def _known(self, incident_id: str) -> dict:
        entry = self.get(incident_id)
        if entry is None:
            raise NotFound(f"unknown incident {incident_id!r}")
        return entry

    def _incident_route(self, request, incident_id: str):
        return 200, self._reconciled(self._known(incident_id))

    def _repair_route(self, request, incident_id: str):
        entry = self._reconciled(self._known(incident_id))
        job_id = entry.get("job_id")
        if entry.get("status") == "repairing" and job_id:
            # Idempotent: the suspect is already under repair.
            return 202, {
                "incident_id": incident_id,
                "job_id": job_id,
                "status": "repairing",
            }
        if not entry.get("spec"):
            raise RepairError(
                f"incident {incident_id!r} has no derivable repair "
                "spec (no client identity on the flagged request)"
            )
        job = self._repair.submit(parse_spec(entry["spec"]))
        self.mark_repairing(incident_id, job.job_id)
        return 202, {
            "incident_id": incident_id,
            "job_id": job.job_id,
            "status": job.status,
        }

    def _dismiss_route(self, request, incident_id: str):
        self._known(incident_id)
        self.dismiss(incident_id)
        return 200, {"incident_id": incident_id, "status": "dismissed"}

    def _reconciled(self, entry: dict) -> dict:
        """Lazy lifecycle reconciliation on read: an incident whose
        repair job reached a terminal state flips to ``resolved`` (job
        done) or back to ``open`` (job failed/aborted/canceled — the
        suspect damage is still there)."""
        if entry.get("status") != "repairing" or not entry.get("job_id"):
            return entry
        job = self._repair.get(entry["job_id"])
        if job is None or job.status not in TERMINAL_STATUSES:
            return entry
        self.resolve(entry["incident_id"], job.status == "done")
        return self.get(entry["incident_id"]) or entry
