"""The logged web server (the paper's Apache + logging module).

Routes requests to entry scripts, records every run into the action
history graph, applies queued cookie invalidations (paper §5.3), surfaces
pending conflicts to returning clients (paper §5.4), and — while a repair
is underway — remembers which runs arrived concurrently so the repair
controller can re-apply them to the next generation at finalize (§4.3).

Every server holds one online-repair gate (:mod:`repro.repair.gate`):
during a repair whose plan is bounded, requests whose footprint is
disjoint from it are served from real concurrent threads while
conflicting ones are queued with a ticket; during one that cannot be
bounded, every request is served.  The brief generation-switch window
*drains* in-flight requests and blocks new arrivals on a condition
variable instead of 503ing them.
"""

from __future__ import annotations

import hmac
import threading
from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from repro.appserver.runtime import AppRuntime
from repro.core.errors import DurabilityError
from repro.http.message import HttpRequest, HttpResponse
from repro.http.routes import RouteTable
from repro.store.recordstore import RecordStore

if TYPE_CHECKING:
    from repro.repair.gate import RepairGate

#: How long a request waits for a generation switch to finish before
#: giving up with a 503 (the switch window is a handful of dictionary
#: operations; this bound only matters if the repair thread dies).
_SWITCH_WAIT_SECONDS = 10.0


class HttpServer:
    """Dispatches requests to application scripts and logs the runs."""

    def __init__(
        self,
        runtime: AppRuntime,
        graph: RecordStore,
        gate: "RepairGate",
        origin: str = "http://wiki.test",
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        #: Online-repair gate: queues what a bounded repair owns.
        self.gate = gate
        self.origin = origin
        self.routes: Dict[str, str] = {}
        #: Clients whose cookies must be deleted on next contact.
        self.cookie_invalidation: Set[str] = set()
        #: Optional hook returning the number of pending conflicts for a client.
        self.conflict_lookup: Optional[Callable[[str], int]] = None
        #: True while a repair is in progress.
        self.repair_active = False
        #: Runs that executed while a repair was in progress.
        self.pending_during_repair: List[int] = []
        self.suspended = False
        #: Toggle for recording (the "No WARP" baseline disables it).
        self.recording = True
        #: Privileged control-plane surface: each subsystem mounts its
        #: rows here (API.md §4) and requests the table owns are
        #: dispatched to it — never recorded, never gated, served even
        #: during a repair.
        self.admin = RouteTable("/warp/admin")
        #: When set, admin requests must carry it in X-Warp-Admin-Token.
        self.admin_token: Optional[str] = None
        #: Front-line detector (repro.detect.Detector); None scores
        #: nothing.  Flagged requests are still served — WARP's promise
        #: is recording + retroactive repair, not blocking — but they
        #: open an incident once recorded.
        self.detector = None
        #: Incident sink (repro.detect.IncidentManager) for flagged runs.
        self.incident_manager = None
        #: Degraded-mode state machine (repro.faults.health.HealthMonitor),
        #: installed by WarpSystem.  When set, non-GET requests are refused
        #: with 503 while the system is read-only, and durability failures
        #: on the recording path flip the mode instead of crashing the
        #: serving thread.
        self.health = None
        #: Switch-window drain bound (instance-level so tests can shrink it).
        self.switch_wait_seconds = _SWITCH_WAIT_SECONDS
        #: Requests currently executing (drained before a generation switch).
        self._in_flight = 0
        self._state_lock = threading.Lock()
        self._state_cond = threading.Condition(self._state_lock)

    def route(self, path: str, script_name: str) -> None:
        self.routes[path] = script_name

    def script_for(self, path: str) -> Optional[str]:
        return self.routes.get(path)

    # -- generation-switch window -------------------------------------------

    def begin_switch(self) -> None:
        """Block new arrivals and wait until in-flight requests drain, so
        the generation switch is atomic with respect to whole requests,
        not just single statements.  A request that fails to drain within
        the bound (a wedged script) raises instead of letting the switch
        proceed under a still-running request — the caller unwinds and the
        repair aborts cleanly."""
        with self._state_cond:
            self.suspended = True
            drained = self._state_cond.wait_for(
                lambda: self._in_flight == 0, timeout=self.switch_wait_seconds
            )
            if not drained:
                self.suspended = False
                self._state_cond.notify_all()
                raise RuntimeError(
                    f"{self._in_flight} request(s) still in flight after "
                    f"{self.switch_wait_seconds}s: refusing a non-atomic "
                    "generation switch"
                )

    def end_switch(self) -> None:
        with self._state_cond:
            self.suspended = False
            self._state_cond.notify_all()

    def _enter(self) -> bool:
        """Admit one request past the suspend window, waiting out a
        generation switch.  False when the switch never completed within
        the drain bound — a repair script is probably stuck and an
        operator must intervene."""
        with self._state_cond:
            if self.suspended and not self._state_cond.wait_for(
                lambda: not self.suspended, timeout=self.switch_wait_seconds
            ):
                return False
            self._in_flight += 1
            return True

    def _exit(self) -> None:
        with self._state_cond:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._state_cond.notify_all()

    # -- request handling ----------------------------------------------------

    def handle(
        self, request: HttpRequest, bypass_gate: bool = False
    ) -> HttpResponse:
        """Serve one request during normal operation.  ``bypass_gate`` is
        for the queue drain itself: a parked request being re-applied must
        not re-queue against the still-active gate."""
        if self.admin.owns(request.path):
            # Control plane: privileged, unrecorded, ungated — and served
            # outside the suspend window so status polls work mid-switch.
            # compare_digest keeps the comparison constant-time: the token
            # check is the only secret-bearing branch on the serving path,
            # and an early-exit `!=` would leak prefix length per probe.
            if self.admin_token is not None and not hmac.compare_digest(
                (request.headers.get("X-Warp-Admin-Token") or "").encode("utf-8"),
                self.admin_token.encode("utf-8"),
            ):
                return HttpResponse(
                    status=403, body="admin endpoints require X-Warp-Admin-Token"
                )
            return self.admin.dispatch(request)
        if not self._enter():
            # Wedged: the switch never completed within the drain bound.
            # Load generators should back off; an operator must look.
            return HttpResponse(
                status=503,
                body="repair generation switch did not complete within "
                f"{self.switch_wait_seconds}s — a repair script may be "
                "wedged; operator attention required",
                headers={"Retry-After": "30", "X-Warp-Suspended": "wedged"},
            )
        try:
            return self._handle(request, bypass_gate)
        finally:
            self._exit()

    def _handle(self, request: HttpRequest, bypass_gate: bool = False) -> HttpResponse:
        # Resolve the route before consuming a queued cookie invalidation:
        # a 404 never rebuilds the client's cookies, so it must not eat the
        # pending deletion either.
        script_name = self.script_for(request.path)
        if script_name is None:
            return HttpResponse(status=404, body=f"no route for {request.path}")

        # Front-line detection scores the routed request up front (the
        # rules only look at the request surface); flagged requests are
        # stamped, and their recorded runs open incidents.
        detector = self.detector
        detection = detector.score(request) if detector is not None else None
        flagged = detection is not None and detection.flagged

        # Degraded read-only mode: writes are refused before any side
        # effect (gate queueing included); reads flow on.  The health
        # monitor probes for healing first, so this is also the exit path
        # back to normal mode once the storage fault clears.
        health = self.health
        if health is not None and request.method != "GET":
            refusal = health.admit_write(request)
            if refusal is not None:
                return refusal

        # Online repair: a request whose footprint overlaps the partitions
        # (or clients) under repair is queued for ordered re-application
        # after the generation switch.  The check precedes every side
        # effect — a queued request consumes nothing.
        if self.gate.active and not bypass_gate:
            queued = self.gate.admit(script_name, request)
            if queued is not None:
                return queued

        client_id = request.client_id
        invalidated = client_id is not None and client_id in self.cookie_invalidation
        if invalidated:
            # Delete the diverged cookie: the request proceeds without it.
            request = request.copy()
            stale = dict(request.cookies)
            request.cookies.clear()
            self.cookie_invalidation.discard(client_id)

        pending_conflicts = 0
        if self.conflict_lookup is not None and client_id is not None:
            pending_conflicts = self.conflict_lookup(client_id)

        try:
            response, record = self.runtime.execute(script_name, request)
        except Exception:
            if invalidated:
                # The queued invalidation was consumed above but the diverged
                # cookie was never actually replaced on the client: re-queue
                # it so the deletion still happens on the next contact.
                self.cookie_invalidation.add(client_id)
            raise

        if invalidated:
            for name in stale:
                response.set_cookies.setdefault(name, None)
        if pending_conflicts:
            response.headers["X-Warp-Conflicts"] = str(pending_conflicts)
        if flagged:
            # Operator-visible flag stamp; load drivers use it to join
            # issued attacks against detector verdicts (precision/recall).
            response.headers["X-Warp-Flagged"] = "1"

        if self.recording:
            try:
                self.graph.add_run(record)
            except DurabilityError as exc:
                return self._durability_failure(exc)
            if self.repair_active:
                # add_run has released the store lock, so nothing
                # serializes concurrent handlers here: the append and its
                # re-check run under the state lock.
                with self._state_lock:
                    if self.repair_active:
                        self.pending_during_repair.append(record.run_id)
            if flagged and self.incident_manager is not None:
                try:
                    self.incident_manager.open_incident(detection, record)
                except DurabilityError as exc:
                    return self._durability_failure(exc)
        return response

    def _durability_failure(self, exc: DurabilityError) -> HttpResponse:
        """The run executed but its journal entry is not on disk: refuse
        to acknowledge it and flip serving to read-only.  The serving
        thread survives — this is the 503, not a crash."""
        if self.health is not None:
            self.health.on_durability_error(exc)
        return HttpResponse(
            status=503,
            body=(
                "request executed but its history record could not be made "
                f"durable ({exc}); not acknowledged — retry after the "
                "storage fault clears"
            ),
            headers={"Retry-After": "1", "X-Warp-Degraded": "durability"},
        )
