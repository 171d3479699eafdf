"""Shard coordinator: request routing + distributed repair fan-out.

The coordinator is deliberately thin state-wise: workers own all durable
application state (each shard saves/loads its own snapshot + WAL), and
the coordinator owns only (a) the routing table and (b) a JSONL journal
of distributed-repair intents.  That journal is what makes the fan-out
crash-safe: every step is journaled *before* it is taken (dispatch
intent before the dispatch, the worker's job id right after the 202, the
merged outcome last), so a coordinator that dies mid-fan-out can be
rebuilt over the same workers and :meth:`ShardCoordinator.resubmit` the
interrupted repair **exactly once per shard** — shards whose jobs were
already dispatched are adopted by job id (workers are the source of
truth for job outcomes), never re-submitted.

Distributed repair protocol (DESIGN.md "Sharding"):

1. **Preview** — the spec is previewed on every shard over the ordinary
   ``/warp/admin/repair/preview`` wire; each shard plans it with the
   same partition-level planner a single deployment uses.  Databases
   are disjoint, so a shard whose preview finds no damaged runs provably
   has nothing to repair: the dispatch target set = shards with
   non-empty previews.  A client the previews of two or more shards
   list as affected is reported as a cross-shard *handoff*.
2. **Dispatch** — ``POST /warp/admin/repair`` per target (the PR 5 JSON
   wire protocol *is* the fan-out protocol), all dispatches first, then
   poll every job to a terminal state (shards repair concurrently).
3. **Merge** — per-shard ``RepairStats`` images are merged by summation
   (:func:`repro.repair.stats.merge_stats_dicts`); the distributed
   repair is ``ok`` only if every shard's job settled ``done``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.ids import trailing_seq
from repro.faults.plane import FaultPlane
from repro.faults.plane import active as _active_plane
from repro.http.message import HttpRequest, HttpResponse
from repro.http.routes import NotFound, RouteTable
from repro.repair.api import RepairSpec, parse_spec, spec_from_request
from repro.repair.jobs import TERMINAL_STATUSES
from repro.repair.stats import merge_stats_dicts
from repro.shard.routing import RoutingTable
from repro.shard.wire import ShardClient, ShardWireError

#: How often a dispatched job is polled, and how long it may take to settle.
_POLL_INTERVAL = 0.005
_POLL_TIMEOUT = 120.0


class DistributedRepairError(ReproError):
    """A distributed repair could not be planned, dispatched, or merged."""


@dataclass
class DistributedRepairResult:
    """Outcome of one coordinator-planned repair fan-out."""

    dist_id: str
    ok: bool
    status: str  # "done" | "partial" | "failed"
    #: shard -> {"job_id", "status", "stats", ...} for dispatched shards.
    per_shard: Dict[int, dict] = field(default_factory=dict)
    #: Merged RepairStats image (summation semantics; see stats module).
    stats: Dict[str, object] = field(default_factory=dict)
    #: The plan the fan-out was launched under: targets and handoffs.
    plan: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dist_id": self.dist_id,
            "ok": self.ok,
            "status": self.status,
            "per_shard": {
                str(shard): dict(info) for shard, info in self.per_shard.items()
            },
            "stats": dict(self.stats),
            "plan": dict(self.plan),
        }


class ShardCoordinator:
    """Routes requests to shard workers and fans repairs out over them."""

    def __init__(
        self,
        clients: Dict[int, ShardClient],
        routing: Optional[RoutingTable] = None,
        journal_path: Optional[str] = None,
        fault_plane: Optional[FaultPlane] = None,
    ) -> None:
        if not clients:
            raise ValueError("coordinator needs at least one shard client")
        self.clients: Dict[int, ShardClient] = dict(clients)
        self.routing = routing or RoutingTable(len(self.clients))
        self.journal_path = journal_path
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        self._journal_lock = threading.Lock()
        self._dist_lock = threading.Lock()
        self._dist_seq = 0
        #: dist_id -> latest known DistributedRepairResult (incl. async).
        self._results: Dict[str, DistributedRepairResult] = {}
        self._async_threads: Dict[str, threading.Thread] = {}
        #: The coordinator's own views, layered over the worker admin
        #: prefix; a path no row matches is forwarded to one worker.
        table = self.admin = RouteTable("/warp/admin")
        table.add("GET", "/shard/status", self._status_route)
        table.add("POST", "/shard/plan", self._plan_route)
        table.add("GET", "/shard/incidents", self._incidents_route)
        table.add("POST", "/shard/save", self._save_route)
        table.add("POST", "/shard/repair", self._repair_route)
        table.add("GET", "/shard/repair/<dist_id>", self._repair_status_route)
        table.add("POST", "/shard/repair/<dist_id>/resubmit", self._resubmit_route)
        table.miss = self._forward_to_shard
        if journal_path is not None and os.path.exists(journal_path):
            entries, intact = self._read_journal()
            # A coordinator that died mid-append left a torn fragment: cut
            # it before anything is appended, or the next entry would be
            # glued onto it and that line — and every line after it —
            # would never read back.
            os.truncate(journal_path, intact)
            for entry in entries:
                if entry.get("event") == "start":
                    self._dist_seq = max(
                        self._dist_seq, trailing_seq(str(entry.get("dist")))
                    )

    # -- request routing -----------------------------------------------------

    def shard_for(self, request: HttpRequest) -> int:
        return self.routing.shard_for_request(request)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request: coordinator admin surface, explicitly
        addressed worker admin, or data-plane forwarding by routing key.
        Forwarded requests are stamped with the target shard so the
        worker's 421 check catches a routing-table mismatch."""
        if self.admin.owns(request.path):
            return self.admin.dispatch(request)
        shard = self.shard_for(request)
        return self.clients[shard].request(request, shard)

    # -- planning ------------------------------------------------------------

    def plan(self, spec: RepairSpec) -> dict:
        """Per-shard previews, the dispatch set, and the cross-shard handoffs.

        ``targets`` is the set of shards whose preview found work:
        affected or seed runs, a futile walk, or rows a fix writes
        (``fix_rows`` — a fix on a row no recorded run touched is still
        work; a fix's partitions alone are not).  That set is *complete*: shard databases are disjoint, so data-flow
        taint cannot cross a shard boundary — the only cross-shard edge
        is a shared client identity, and a client's runs on shard S are
        found by S's own preview regardless of what the client did
        elsewhere.  ``handoffs`` reports that edge: each client the
        previews of two or more shards list as affected, with those
        shards.
        """
        spec.validate()
        spec_json = json.dumps(spec.to_dict())
        previews: Dict[int, dict] = {}
        targets: List[int] = []
        client_shards: Dict[str, List[int]] = {}
        for shard, client in sorted(self.clients.items()):
            status, payload = client.admin_json(
                "POST", "/warp/admin/repair/preview", {"spec": spec_json}
            )
            if status != 200:
                raise DistributedRepairError(
                    f"shard {shard} preview failed ({status}): {payload}"
                )
            previews[shard] = payload
            if (
                payload.get("affected_runs")
                or payload.get("seed_runs")
                or payload.get("futile")
                or payload.get("fix_rows")
            ):
                targets.append(shard)
            for affected in payload.get("affected_clients") or ():
                client_shards.setdefault(affected, []).append(shard)
        handoffs = [
            {"client": affected, "shards": shards}
            for affected, shards in sorted(client_shards.items())
            if len(shards) > 1
        ]
        return {"previews": previews, "targets": targets, "handoffs": handoffs}

    # -- the fan-out ---------------------------------------------------------

    def repair(self, spec: RepairSpec) -> DistributedRepairResult:
        """Plan, dispatch, and merge one distributed repair (synchronous)."""
        dist_id, plan = self._start(spec)
        result = self._drive(dist_id, spec, plan, resumed={})
        self._results[dist_id] = result
        return result

    def _start(self, spec: RepairSpec) -> Tuple[str, dict]:
        """Plan ``spec``, allocate its ``dist-N`` id and journal the start
        intent — the opening of the synchronous and asynchronous fan-out."""
        plan = self.plan(spec)
        with self._dist_lock:
            self._dist_seq += 1
            dist_id = f"dist-{self._dist_seq}"
        self._journal(
            {
                "event": "start",
                "dist": dist_id,
                "spec": spec.to_dict(),
                "targets": plan["targets"],
            }
        )
        return dist_id, plan

    def _drive(
        self,
        dist_id: str,
        spec: RepairSpec,
        plan: dict,
        resumed: Dict[int, dict],
    ) -> DistributedRepairResult:
        """Dispatch phase then merge phase.  ``resumed`` carries shards a
        previous coordinator incarnation already dealt with (shard ->
        journal info); they are adopted, not re-dispatched."""
        spec_json = json.dumps(spec.to_dict())
        per_shard: Dict[int, dict] = {}
        # Dispatch everything first so shards repair concurrently …
        for shard in plan["targets"]:
            client = self.clients.get(shard)
            if client is None:
                raise DistributedRepairError(f"no client for target shard {shard}")
            prior = resumed.get(shard)
            if prior and prior.get("job_id"):
                # Exactly-once: this shard's job already exists; adopt it.
                per_shard[shard] = {"job_id": prior["job_id"], "adopted": True}
                continue
            if prior and prior.get("intent") and not prior.get("job_id"):
                # Dispatch intent journaled but no 202 recorded: the crash
                # hit inside the dispatch window.  Reconcile against the
                # worker's job list before submitting a second job.
                existing = self._find_job_by_spec(client, spec)
                if existing is not None:
                    per_shard[shard] = {"job_id": existing, "adopted": True}
                    self._journal(
                        {
                            "event": "dispatched",
                            "dist": dist_id,
                            "shard": shard,
                            "job_id": existing,
                            "reconciled": True,
                        }
                    )
                    continue
            # The crash fault point sits *before* the intent journal entry
            # fires its dispatch, modelling a coordinator death at the
            # instant it picked the next target.
            self.faults.fire("shard.dispatch", dist=dist_id, shard=shard)
            self._journal(
                {"event": "dispatching", "dist": dist_id, "shard": shard}
            )
            status, payload = client.admin_json(
                "POST", "/warp/admin/repair", {"spec": spec_json}
            )
            if status != 202:
                per_shard[shard] = {"job_id": None, "status": "failed",
                                    "error": payload.get("error", str(status))}
                self._journal(
                    {
                        "event": "shard_done",
                        "dist": dist_id,
                        "shard": shard,
                        "status": "failed",
                        "error": per_shard[shard]["error"],
                    }
                )
                continue
            per_shard[shard] = {"job_id": payload["job_id"]}
            self._journal(
                {
                    "event": "dispatched",
                    "dist": dist_id,
                    "shard": shard,
                    "job_id": payload["job_id"],
                }
            )
        # … then poll each dispatched job to a terminal state.
        for shard, info in sorted(per_shard.items()):
            if info.get("job_id") is None or info.get("status") == "failed":
                continue
            job = self._poll_job(self.clients[shard], shard, info["job_id"])
            info.update(job)
            self._journal(
                {
                    "event": "shard_done",
                    "dist": dist_id,
                    "shard": shard,
                    "job_id": info["job_id"],
                    "status": info.get("status"),
                }
            )
        self.faults.fire("shard.merge", dist=dist_id)
        statuses = [info.get("status") for info in per_shard.values()]
        ok = bool(per_shard) and all(status == "done" for status in statuses)
        if not per_shard:
            # Nothing to dispatch: previews found no damage anywhere.
            status_word = "done"
            ok = True
        elif ok:
            status_word = "done"
        elif any(status == "done" for status in statuses):
            status_word = "partial"
        else:
            status_word = "failed"
        stats = merge_stats_dicts(
            {
                shard: info.get("stats") or {}
                for shard, info in per_shard.items()
                if isinstance(info.get("stats"), dict)
            }
        )
        result = DistributedRepairResult(
            dist_id=dist_id,
            ok=ok,
            status=status_word,
            per_shard=per_shard,
            stats=stats,
            plan={k: plan[k] for k in ("handoffs", "targets")},
        )
        self._journal(
            {
                "event": "end",
                "dist": dist_id,
                "ok": ok,
                "status": status_word,
                "stats": stats,
            }
        )
        return result

    def _poll_job(self, client: ShardClient, shard: int, job_id: str) -> dict:
        deadline = time.monotonic() + _POLL_TIMEOUT
        while time.monotonic() < deadline:
            status, payload = client.admin_json(
                "GET", f"/warp/admin/repair/{job_id}"
            )
            if status != 200:
                return {"status": "failed", "error": payload.get("error")}
            if payload.get("status") in TERMINAL_STATUSES:
                return {
                    "status": payload["status"],
                    "stats": (payload.get("result") or {}).get("stats")
                    or payload.get("stats"),
                    "error": payload.get("error"),
                }
            time.sleep(_POLL_INTERVAL)
        raise DistributedRepairError(
            f"shard {shard} job {job_id} did not settle within {_POLL_TIMEOUT}s"
        )

    def _find_job_by_spec(
        self, client: ShardClient, spec: RepairSpec
    ) -> Optional[str]:
        """Reconcile an un-acknowledged dispatch: does the worker already
        hold a job for this spec?  Workers journal jobs durably, so their
        list is the truth about whether the 202 was lost before or after
        the submit landed."""
        want = spec.describe()
        status, payload = client.admin_json("GET", "/warp/admin/repair")
        if status != 200:
            return None
        for job in payload.get("jobs", []):
            job_status, job_doc = client.admin_json(
                "GET", f"/warp/admin/repair/{job['job_id']}"
            )
            if job_status == 200 and job_doc.get("spec") == want:
                return job["job_id"]
        return None

    # -- crash recovery ------------------------------------------------------

    def interrupted(self) -> List[dict]:
        """Distributed repairs with a journaled start but no end — what a
        rebuilt coordinator must :meth:`resubmit`.  Mirrors the worker-side
        ``interrupted_jobs`` report."""
        started: Dict[str, dict] = {}
        for entry in self._read_journal()[0]:
            dist = entry.get("dist")
            event = entry.get("event")
            if event == "start":
                started[dist] = {
                    "dist_id": dist,
                    "spec": entry.get("spec"),
                    "targets": entry.get("targets", []),
                    "shards": {},
                }
            elif dist in started:
                record = started[dist]["shards"]
                shard = entry.get("shard")
                if event == "dispatching":
                    record.setdefault(shard, {})["intent"] = True
                elif event == "dispatched":
                    record.setdefault(shard, {})["job_id"] = entry.get("job_id")
                elif event == "shard_done":
                    record.setdefault(shard, {})["status"] = entry.get("status")
                elif event == "end":
                    started.pop(dist, None)
        return list(started.values())

    def resubmit(self, dist_id: str) -> DistributedRepairResult:
        """Finish an interrupted distributed repair, exactly once per
        shard: shards with a journaled job id are adopted (polled, never
        re-dispatched); a journaled intent without a job id is reconciled
        against the worker's own job list; untouched targets are
        dispatched for the first time."""
        matches = [r for r in self.interrupted() if r["dist_id"] == dist_id]
        if not matches:
            raise DistributedRepairError(
                f"no interrupted distributed repair {dist_id!r}"
            )
        record = matches[0]
        spec = parse_spec(record["spec"])
        plan = self.plan(spec)
        # The original target set is authoritative: repair targets what
        # was damaged at dispatch time (shards already repaired by the
        # first attempt now preview clean and must still be adopted).
        plan = dict(plan)
        plan["targets"] = sorted(
            set(record["targets"]) | set(plan["targets"])
        )
        result = self._drive(dist_id, spec, plan, resumed=record["shards"])
        self._results[dist_id] = result
        return result

    # -- coordinator admin rows (API.md §8) -----------------------------------

    def _status_route(self, request: HttpRequest):
        pings = {}
        for shard, client in sorted(self.clients.items()):
            try:
                pings[str(shard)] = client.ping()
            except ShardWireError as exc:
                pings[str(shard)] = {"ok": False, "error": str(exc)}
        return 200, {
            "n_shards": len(self.clients),
            "routing": self.routing.to_dict(),
            "shards": pings,
            "interrupted": self.interrupted(),
        }

    def _plan_route(self, request: HttpRequest):
        return 200, self.plan(spec_from_request(request))

    def _incidents_route(self, request: HttpRequest):
        """Union view over every worker's detector incidents; shard
        identity is stamped onto each entry so the operator can address
        the owning worker (?shard=N) for the repair click."""
        params = {
            key: request.params[key]
            for key in ("status", "refresh", "force")
            if key in request.params
        }
        incidents: List[dict] = []
        per_shard: Dict[str, dict] = {}
        for shard, client in sorted(self.clients.items()):
            status, payload = client.admin_json(
                "GET", "/warp/admin/incidents", params or None
            )
            if status != 200:
                per_shard[str(shard)] = {
                    "status": status,
                    "error": payload.get("error"),
                }
                continue
            entries = payload.get("incidents", [])
            for entry in entries:
                entry = dict(entry)
                entry["shard"] = shard
                incidents.append(entry)
            per_shard[str(shard)] = {
                "status": status,
                "incidents": len(entries),
            }
        return 200, {
            "incidents": incidents,
            "per_shard": per_shard,
            "n_incidents": len(incidents),
        }

    def _save_route(self, request: HttpRequest):
        if "shard" in request.params:
            # Addressed to one worker: its own row saves that shard alone.
            _, client = self._addressed(request)
            return client.admin_json("POST", "/warp/admin/shard/save")
        # Each worker writes its own snapshot, so all of them save at once:
        # the broadcast takes as long as the slowest shard, not their sum.
        shards = sorted(self.clients.items())
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            replies = pool.map(
                lambda item: item[1].admin_json("POST", "/warp/admin/shard/save"), shards
            )
            saved = {
                str(shard): {"status": status, **payload}
                for (shard, _), (status, payload) in zip(shards, replies)
            }
        return 200, {"saved": saved}

    def _repair_route(self, request: HttpRequest):
        spec = spec_from_request(request)
        if request.params.get("sync"):
            return 200, self.repair(spec).to_dict()
        return 202, {"dist_id": self._start_async(spec), "status": "running"}

    def _repair_status_route(self, request: HttpRequest, dist_id: str):
        result = self._results.get(dist_id)
        if result is not None:
            return 200, result.to_dict()
        thread = self._async_threads.get(dist_id)
        if thread is not None and thread.is_alive():
            return 200, {"dist_id": dist_id, "status": "running"}
        if any(record["dist_id"] == dist_id for record in self.interrupted()):
            return 200, {"dist_id": dist_id, "status": "interrupted"}
        raise NotFound(f"unknown distributed repair {dist_id!r}")

    def _resubmit_route(self, request: HttpRequest, dist_id: str):
        return 200, self.resubmit(dist_id).to_dict()

    def _forward_to_shard(self, request: HttpRequest) -> HttpResponse:
        """The table's miss path: everything else under ``/warp/admin`` is
        a worker's route.  Worker admin is shard-local — "list repair
        jobs" is a different question on every shard — so an explicit
        target is required (distributed views are the rows above)."""
        if request.params.get("shard") is None:
            if request.path.startswith("/warp/admin/shard/"):
                raise NotFound(f"unknown coordinator path {request.path}")
            raise ReproError(
                "admin requests through the coordinator need a 'shard' "
                "parameter (or use /warp/admin/shard/*)"
            )
        shard, client = self._addressed(request)
        return client.request(request, shard)

    def _addressed(self, request: HttpRequest) -> Tuple[int, ShardClient]:
        """The shard a request's ``shard`` parameter names, and its client."""
        raw = request.params.get("shard")
        try:
            shard = int(raw)
        except (TypeError, ValueError):
            raise ReproError(f"bad shard parameter {raw!r}") from None
        client = self.clients.get(shard)
        if client is None:
            raise NotFound(f"no shard {shard}")
        return shard, client

    def _start_async(self, spec: RepairSpec) -> str:
        dist_id, plan = self._start(spec)

        def run() -> None:
            try:
                self._results[dist_id] = self._drive(dist_id, spec, plan, {})
            except Exception:
                # The journal has the partial trail; status shows
                # "interrupted" and resubmit() finishes the job.
                pass

        thread = threading.Thread(target=run, name=f"dist-repair-{dist_id}")
        thread.daemon = True
        self._async_threads[dist_id] = thread
        thread.start()
        return dist_id

    # -- journal -------------------------------------------------------------

    def _journal(self, entry: dict) -> None:
        if self.journal_path is None:
            return
        with self._journal_lock:
            with open(self.journal_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def _read_journal(self) -> Tuple[List[dict], int]:
        """Every intact entry and the byte length of the intact prefix."""
        entries: List[dict] = []
        intact = 0
        if self.journal_path is None or not os.path.exists(self.journal_path):
            return entries, intact
        with open(self.journal_path, "rb") as fh:
            for line in fh:
                # A torn tail line (coordinator died mid-append) is not an
                # entry, same contract as the record WAL.
                if not line.endswith(b"\n"):
                    break
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    break
                intact += len(line)
        return entries, intact

    def close(self) -> None:
        for thread in self._async_threads.values():
            thread.join(timeout=5.0)
        for client in self.clients.values():
            try:
                client.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
