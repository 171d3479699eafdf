"""WarpSystem: one fully wired WARP deployment.

Bundles the clock, time-travel database, action history graph, script
store, application runtime, logged HTTP server, simulated network, and the
conflict queue; exposes the repair surface plus client-browser
construction.

This is the public API a downstream user programs against::

    warp = WarpSystem()
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    alice = warp.client("alice-laptop")
    alice.open("http://wiki.test/index.php?title=Main_Page")
    ...
    # Repair API (see API.md): declarative specs, async jobs,
    # dry-run previews, batched multi-intrusion repair.
    plan = warp.repair.preview(PatchSpec("login.php", exports=patched))
    job = warp.repair.submit(PatchSpec("login.php", exports=patched))
    result = job.result()

``warp.repair.submit(spec)`` is the only way a repair starts
(``.result()`` blocks for the outcome).  The full surface — spec JSON,
job lifecycle, progress events and the ``/warp/admin/repair`` HTTP
endpoints — is documented in API.md.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from typing import Callable, Dict, Optional

from repro.appserver.runtime import AppRuntime
from repro.appserver.scripts import ScriptStore
from repro.browser.browser import Browser, Network
from repro.browser.extension import WarpExtension
from repro.core.clock import LogicalClock
from repro.core.ids import IdAllocator, random_token
from repro.db.engine import create_database, resolve_backend, snapshot_backend
from repro.http.server import HttpServer
from repro.repair.conflicts import Conflict, ConflictQueue
from repro.core.errors import RepairError
from repro.core.serialize import decode_tree
from repro.faults.health import HealthMonitor
from repro.faults.plane import FaultPlane
from repro.faults.plane import active as _active_plane
from repro.http.message import HttpRequest, HttpResponse
from repro.repair.api import CancelVisitSpec
from repro.repair.controller import RepairController, RepairResult
from repro.repair.gate import RepairGate
from repro.repair.jobs import RepairJobManager
from repro.repair.replay import ReplayConfig
from repro.store.recordstore import RecordStore
from repro.store.snapshot import SnapshotReader, gc_paused
from repro.store.wal import RecordWal
from repro.ttdb.timetravel import TimeTravelDB


class WarpSystem:
    """A complete WARP deployment around one web application server."""

    def __init__(
        self,
        origin: str = "http://wiki.test",
        seed: int = 0,
        enabled: bool = True,
        replay_config: Optional[ReplayConfig] = None,
        wal_path: Optional[str] = None,
        admin_token: Optional[str] = None,
        durability: str = "group",
        fault_plane: Optional[FaultPlane] = None,
        db_backend: Optional[str] = None,
        db_path: Optional[str] = None,
    ) -> None:
        self.origin = origin
        self.enabled = enabled
        #: Deterministic fault injection (repro.faults): every instrumented
        #: layer in this deployment fires its fault points through this
        #: plane.  Defaults to the process-wide plane, which is inert
        #: unless a test arms rules on it.
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        #: Serving-path configuration (API.md "High-throughput serving").
        self.durability = durability
        self.clock = LogicalClock()
        self.ids = IdAllocator()
        self.rng = random.Random(seed)

        #: Storage engine selection (repro.db.engine): explicit argument,
        #: then the ``REPRO_DB_BACKEND`` environment variable, then the
        #: in-memory engine.  ``db_path`` picks where the SQLite engine
        #: makes its private scratch directory (the system temp directory
        #: without it); the files go with the engine, and recovery is the
        #: snapshot plus the WAL on either engine.
        self.db_backend = resolve_backend(db_backend)
        self.db_path = db_path
        self.database = create_database(
            self.db_backend, path=db_path, fault_plane=self.faults
        )
        self.ttdb = TimeTravelDB(
            self.database, self.clock, enabled=enabled, fault_plane=self.faults
        )
        self.graph = RecordStore(fault_plane=self.faults)
        self.scripts = ScriptStore()
        self.runtime = AppRuntime(
            self.scripts, self.ttdb, self.clock, self.ids, rng=self.rng
        )
        self.runtime.recording = enabled
        self.server = HttpServer(self.runtime, self.graph, origin=origin)
        self.server.recording = enabled
        self.network = Network()
        self.network.register(origin, self.server.handle)
        self.conflicts = ConflictQueue()
        self.server.conflict_lookup = self.conflicts.pending_count
        self.server.admin.add("GET", "/conflicts", self._conflicts_route)
        self.replay_config = replay_config if replay_config is not None else ReplayConfig()
        #: Repair API v2 (see API.md): ``warp.repair.submit(spec)`` /
        #: ``preview(spec)`` / ``register_patch(...)``; also the backing
        #: for the ``/warp/admin/repair`` HTTP endpoints.
        self.repair = RepairJobManager(self)
        self.server.admin_token = admin_token
        #: Degraded-mode state machine + ``/warp/admin/health`` payload
        #: (repro.faults.health).  The WAL reports durability failures to
        #: it directly, from inside the failing commit, so serving flips
        #: read-only on the fault itself — whichever waiter's commit hit
        #: it — not only when an acknowledged write's wait surfaces it.
        self.health = HealthMonitor(self)
        self.server.health = self.health
        if wal_path is not None:
            # Opening the log drops a torn never-acknowledged fragment: a log
            # holding only that has no recoverable data and must not block a
            # fresh start (load() needs a snapshot, so it cannot help there).
            self._open_log(wal_path)
            if os.path.getsize(wal_path):
                # A fresh system appending to a previous deployment's log
                # would interleave two histories; recovery is load()'s job.
                self.close()
                raise RepairError(
                    f"write-ahead log {wal_path!r} already contains entries — "
                    "recover with WarpSystem.load(snapshot_or_None, wal_path=...) "
                    "or remove the file"
                )
        #: Front-line detection (repro.detect), installed by
        #: :meth:`enable_detection`; inert (and zero-cost on the serve
        #: path) until then.
        self.detector = None
        self.incidents = None
        #: Script versions the persisted deployment had (set by ``load``);
        #: repair refuses to run until re-registered code catches up.
        self._expected_script_versions: Dict[str, int] = {}

    def _conflicts_route(self, request: HttpRequest):
        return 200, {"pending": [c.to_dict() for c in self.conflicts.pending()]}

    def _open_log(self, wal_path: str, intact_size: Optional[int] = None) -> None:
        """Open the deployment's write-ahead log with its own durability and
        fault plane, report the log's durability failures to the health
        monitor, and attach it to the store: the one place a deployment's
        log is opened.  ``intact_size`` is where a replay that just read
        the log found its intact prefix to end."""
        wal = RecordWal(wal_path, self.durability, self.faults, intact_size)
        wal.on_degrade = self.health.on_wal_degrade
        self.graph.wal = wal

    def close(self) -> None:
        """Release what the deployment holds open: its write-ahead log
        (committing what is buffered first) and the storage engine's
        connections.  A second call is harmless."""
        wal = self.graph.wal
        if wal is not None:
            wal.close()
        self.database.close()

    def enable_online_repair(self) -> RepairGate:
        """Install the partition-scoped write gate (repro.repair.gate):
        while a repair runs, requests whose footprint is disjoint from the
        repair are served live and conflicting ones are queued (202) and
        re-applied exactly once after the generation switch.  Without
        this, repairs keep the legacy behavior: serve everything live and
        re-apply affected runs at finalize."""
        self.server.gate = RepairGate(self.ttdb, self.graph)
        self.server.gate.faults = self.faults
        return self.server.gate

    def enable_detection(self):
        """Install the front-line detector (repro.detect): every routed
        request is scored against the default rule chain, flagged runs
        open WAL-journaled incidents, and ``/warp/admin/incidents`` exposes
        each suspect's blast-radius preview (``refresh=1`` recomputes it)
        with one-click repair."""
        from repro.detect import Detector, IncidentManager

        self.detector = Detector()
        self.incidents = IncidentManager(
            self.graph,
            self.ttdb,
            self.repair,
            self.server.admin,
            fault_plane=self.faults,
        )
        self.server.detector = self.detector
        self.server.incident_manager = self.incidents
        return self.detector

    # -- clients -----------------------------------------------------------------

    def client(
        self,
        name: Optional[str] = None,
        extension: bool = True,
        upload: bool = True,
    ) -> Browser:
        """A user's browser.  ``extension=False`` models a user without the
        WARP extension; ``upload=False`` models one whose extension attaches
        correlation headers but uploads no event logs (Table 4 ablations)."""
        if not extension:
            return Browser(self.network)
        client_id = name if name is not None else random_token(self.rng)
        # After a reload the rng may be rewound relative to the recorded
        # history; never hand a fresh browser a client id that already has
        # recorded visits (two users would merge under one id).
        while name is None and self.graph.last_visit_id(client_id) > 0:
            client_id = random_token(self.rng)
        ext = WarpExtension(client_id, self.graph, self.clock, upload=upload)
        browser = Browser(self.network, extension=ext)
        # A returning client (same id, new browser object — e.g. after a
        # system reload) must not reuse recorded visit ids: a fresh visit 1
        # would silently overwrite the stored visit 1.
        browser.resume_visits(self.graph.last_visit_id(client_id))
        return browser

    def register_site(self, origin: str, handler: Callable) -> None:
        """Add a third-party site (e.g. the attacker's) to the network."""
        self.network.register(origin, handler)

    # -- repair ------------------------------------------------------------------

    def _controller(self) -> RepairController:
        self._check_code_versions()
        controller = RepairController(
            ttdb=self.ttdb,
            graph=self.graph,
            scripts=self.scripts,
            runtime=self.runtime,
            server=self.server,
            network=self.network,
            conflicts=self.conflicts,
            clock=self.clock,
            ids=self.ids,
            replay_config=self.replay_config,
        )
        controller.faults = self.faults
        return controller

    # -- durability ---------------------------------------------------------------

    def retain(
        self,
        horizon_ts: Optional[int] = None,
        max_visits_per_client: Optional[int] = None,
    ) -> int:
        """Drop the runs, visits and row versions that ended before
        ``horizon_ts`` and each client's visit logs beyond
        ``max_visits_per_client`` (paper §4.2, §5.2); API.md §11."""
        if self.ttdb.repair_gen is not None:
            raise RepairError("cannot retain while a repair is in progress")
        dropped = 0
        if horizon_ts is not None:
            dropped += self.graph.gc(horizon_ts) + self.ttdb.gc(horizon_ts)
        if max_visits_per_client is not None:
            dropped += self.graph.enforce_client_quota(max_visits_per_client)
        return dropped

    def save(self, path: str) -> None:
        """Persist everything repair capability depends on: the action
        history graph's records, the versioned database, the generation
        counters, and the deterministic id/clock/rng state.

        Application *code* (script exports are Python callables) is not
        serialized — after :meth:`load`, re-register the same scripts and
        routes (e.g. ``WikiApp.register_code``) before serving or
        repairing.  Saving while a repair generation is active is refused:
        an in-flight repair does not survive a restart, it is re-run.

        The file is a format-7 snapshot (:mod:`repro.store.snapshot`):
        the state below is its header line, and the store appends the
        graph — pending state into the header, one line per record after
        it — under its lock.
        """
        if self.ttdb.repair_gen is not None:
            raise RepairError("cannot save while a repair is in progress")
        state = {
            "origin": self.origin,
            "enabled": self.enabled,
            "clock": self.clock.now(),
            "ids": self.ids.state_dict(),
            "rng_state": self.rng.getstate(),
            "ttdb": self.ttdb.state_dict(),
            "database": self.database.to_dict(),
            "routes": dict(self.server.routes),
            "script_versions": self._script_versions_for_save(),
            "conflicts": self.conflicts.state_list(),
            "cookie_invalidation": sorted(self.server.cookie_invalidation),
            # Repair configuration must survive reload: a deployment that
            # gated live traffic during repairs keeps doing so, and a
            # token-protected admin surface must not silently reopen.
            # (The snapshot already holds the full database — seeded user
            # passwords included — so the token adds no new secrecy tier.)
            "repair_config": {
                "online_gate": self.server.gate is not None,
                "admin_token": self.server.admin_token,
            },
            # The storage engine underneath survives reload too: a
            # deployment running on SQLite keeps running on SQLite (the
            # snapshot's database image is engine-portable JSON either
            # way, so this records policy, not data).
            "storage_config": {
                "backend": self.db_backend,
                "db_path": self.db_path,
            },
            # Detection survives reload: a deployment that was flagging
            # requests keeps flagging (incident records themselves travel
            # in the graph snapshot).
            "detection_config": {
                "enabled": self.detector is not None,
            },
            # Serving-path knobs survive reload the same way.
            "serving_config": {
                "durability": self.durability,
            },
        }
        self.graph.commit_snapshot(path, state)

    @classmethod
    def load(
        cls,
        path: Optional[str],
        replay_config: Optional[ReplayConfig] = None,
        wal_path: Optional[str] = None,
        **ctor_kwargs,
    ) -> "WarpSystem":
        """Reconstruct a persisted deployment in a fresh process.

        One body serves both cases; they differ only in where the
        configuration comes from.  With a snapshot at ``path`` its header
        configures the deployment, and ``ctor_kwargs`` are refused (a
        silently ignored override would be a debugging trap).  ``path=None``
        recovers from the WAL alone — the crash-before-first-save case —
        configured by ``ctor_kwargs`` as the constructor is (``durability``,
        ``fault_plane``, ``db_backend``/``db_path``, ...): database rows
        (whatever ``db_path`` holds), clock origin and counters start fresh,
        so the application must be reinstalled, not just re-registered.

        The snapshot's record lines, then the WAL entries journaled after
        it, are applied to the deployment's own store by one rule
        (:meth:`RecordStore.apply_logged`); the log is then opened for
        appends, once, with the deployment's settings.  The WAL restores
        the action history graph; database versions are only as fresh as
        the snapshot, trimmed at the graph's :meth:`retain` horizon.  Code is
        not serialized: the caller re-registers application scripts either
        way, and recorded routes are restored so dispatch works as soon as
        they exist again.

        The history is built with the cyclic collector paused
        (:func:`repro.store.snapshot.gc_paused`) and a snapshot's records
        are streamed in one line at a time.  A file that is not a format-7
        snapshot, or does not hold the records its header promises, and a
        WAL line this build does not write raise
        :class:`~repro.core.errors.ReproError` naming the file — an older
        format with the last commit that reads it (:mod:`repro.store.snapshot`).
        """
        if path is None and wal_path is None:
            raise RepairError("load needs a snapshot path, a wal_path, or both")
        if path is not None and ctor_kwargs:
            raise RepairError(
                "load from a snapshot takes its configuration from the "
                f"snapshot; unexpected overrides: {sorted(ctor_kwargs)}"
            )
        with gc_paused(), (nullcontext() if path is None else SnapshotReader(path)) as snapshot:
            state = {} if snapshot is None else snapshot.header
            if snapshot is not None:
                ctor_kwargs = {
                    "origin": state["origin"],
                    "enabled": state["enabled"],
                    "admin_token": state.get("repair_config", {}).get("admin_token"),
                    "db_backend": snapshot_backend(state),
                    "db_path": state["storage_config"]["db_path"],
                    "durability": state["serving_config"]["durability"],
                }
            warp = cls(replay_config=replay_config, **ctor_kwargs)
            if snapshot is not None:
                # The graph first: reading its record lines to the end is
                # what proves the file whole, and a refused snapshot must not
                # already have replaced the database.
                warp.graph.restore_snapshot(
                    state["graph"], snapshot.records(), state["ids"].get("text", 0)
                )
                warp.clock.restore(state["clock"])
                warp.ids.restore(state["ids"])
                warp.rng.setstate(decode_tree(state["rng_state"]))
                warp.database.restore(state["database"])
                warp.ttdb.restore_state(state["ttdb"])
            if wal_path is not None:
                intact_size = warp.graph.replay_wal(
                    wal_path, snapshot_id=state.get("snapshot_id")
                )
                warp._open_log(wal_path, intact_size)
            if warp.graph.horizon_ts:  # the database half of retain
                warp.ttdb.gc(warp.graph.horizon_ts)
            warp._sync_id_counters()
            warp._sync_clock()
            warp.server.routes.update(state.get("routes", {}))
            warp._expected_script_versions = dict(state.get("script_versions", {}))
            warp.conflicts.restore(state.get("conflicts", []))
            warp.server.cookie_invalidation.update(state.get("cookie_invalidation", ()))
            if state.get("repair_config", {}).get("online_gate"):
                warp.enable_online_repair()
            if state.get("detection_config", {}).get("enabled"):
                warp.enable_detection()
        return warp

    def _script_versions_for_save(self) -> Dict[str, int]:
        """Versions to persist: the live store's, floored by what a prior
        load expected — re-saving a loaded system before its code has been
        re-registered (or re-patched) must not erase the stale-code guard."""
        versions = dict(self._expected_script_versions)
        for name in self.scripts.names():
            versions[name] = max(versions.get(name, 0), self.scripts.version(name))
        return versions

    def _check_code_versions(self) -> None:
        """Refuse to repair until re-registered code matches the persisted
        deployment.  Re-execution uses the *current* exports; with scripts
        missing or at older versions (e.g. a pre-save patch not re-applied
        after load), repair would silently rebuild the timeline with the
        wrong — typically still-vulnerable — code."""
        for name, version in self._expected_script_versions.items():
            if not self.scripts.has(name):
                raise RepairError(
                    f"script {name!r} was registered in the persisted deployment "
                    "but is missing — re-register application code after load"
                )
            if self.scripts.version(name) < version:
                raise RepairError(
                    f"script {name!r} is at version {self.scripts.version(name)} "
                    f"but the persisted deployment had version {version} — "
                    "re-apply its patches before repairing"
                )

    def _sync_clock(self) -> None:
        """Advance the logical clock past every restored action — WAL
        replay restores records that postdate the snapshot's clock, and a
        reused timestamp would interleave new actions into the middle of
        the already-recorded timeline."""
        self.clock.restore(max(self.clock.now(), self.graph.max_ts))

    def _sync_id_counters(self) -> None:
        """Advance run/query id allocation past every restored record —
        WAL-replayed records postdate the snapshot's persisted counters,
        and a fresh id colliding with a restored one would silently
        overwrite that record in the graph."""
        self.ids.advance_to("run", max(self.graph.runs, default=0))
        self.ids.advance_to("query", self.graph.max_qid)

    # -- crash recovery of gate-queued requests ----------------------------------

    def recovered_queued_requests(self) -> list:
        """Requests the online gate queued before a crash and never
        re-applied (journaled via the WAL / snapshot), as ``(ticket,
        HttpRequest)`` in arrival order.  Empty in normal operation —
        finalize and abort both drain the queue."""
        pending = self.graph.gate_queue.entries
        return [
            (entry["ticket"], HttpRequest.from_dict(entry["request"]))
            for entry in sorted(
                pending.values(), key=lambda e: (e["ts"], e["ticket"])
            )
        ]

    def reapply_recovered_requests(self) -> Dict[int, HttpResponse]:
        """Serve every recovered queued request exactly once, in arrival
        order, against the current live generation; each application is
        journaled (``gate_apply``) so a crash-and-replay never duplicates
        one.  Call after re-registering application code."""
        responses: Dict[int, HttpResponse] = {}
        for ticket, request in self.recovered_queued_requests():
            try:
                responses[ticket] = self.server.handle(request)
            except Exception as exc:
                responses[ticket] = HttpResponse(
                    status=500,
                    body=f"script raised during recovered re-application: {exc!r}",
                )
            self.graph.gate_queue.close(ticket)
        return responses

    def resolve_conflict_by_cancel(self, conflict: Conflict) -> RepairResult:
        """The paper's conflict-resolution UI: cancel the conflicted visit.

        Allowed to cascade conflicts to other users because it resolves a
        conflict already reported to this user (§5.5)."""
        result = self.repair.submit(
            CancelVisitSpec(
                conflict.client_id,
                conflict.visit_id,
                initiated_by_admin=False,
                allow_conflicts=True,
            )
        ).result()
        # Canceling the visit moots every conflict queued against it, even
        # ones different repairs reported for the same visit.
        self.conflicts.resolve_visit(conflict.client_id, conflict.visit_id)
        return result
