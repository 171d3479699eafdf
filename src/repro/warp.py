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
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.ahg.graph import ActionHistoryGraph
from repro.appserver.runtime import AppRuntime
from repro.appserver.scripts import ScriptStore
from repro.browser.browser import Browser, Network
from repro.browser.extension import WarpExtension
from repro.core.clock import LogicalClock
from repro.core.ids import IdAllocator, random_token
from repro.db.engine import create_database, resolve_backend, snapshot_backend
from repro.http.cache import ResponseCache
from repro.http.server import HttpServer
from repro.repair.conflicts import Conflict, ConflictQueue
from repro.core.errors import DurabilityError, RepairError
from repro.core.serialize import decode_tree, encode_tree
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
from repro.store.wal import RecordWal, open_wal
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
        wal_rotate_bytes: Optional[int] = None,
        wal_rotate_snapshot: Optional[str] = None,
        response_cache: bool = False,
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
        self.wal_rotate_bytes = wal_rotate_bytes
        self._wal_options = {"durability": durability, "fault_plane": self.faults}
        self.clock = LogicalClock()
        self.ids = IdAllocator()
        self.rng = random.Random(seed)

        if wal_path is not None and os.path.exists(wal_path):
            # Drop a torn never-acknowledged fragment first: a log holding
            # only that has no recoverable data and must not block a fresh
            # start (load() needs a snapshot, so it cannot help there).
            RecordWal.repair(wal_path)
            if os.path.getsize(wal_path):
                # A fresh system appending to a previous deployment's log
                # would interleave two histories; recovery is load()'s job.
                raise RepairError(
                    f"write-ahead log {wal_path!r} already contains entries — "
                    "recover with WarpSystem.load(snapshot_or_None, wal_path=...) "
                    "or remove the file"
                )
        #: Storage engine selection (repro.db.engine): explicit argument,
        #: then the ``REPRO_DB_BACKEND`` environment variable, then the
        #: in-memory engine.  ``db_path`` points the SQLite engine at a
        #: data directory (reattaching to existing group files); without
        #: it the engine is backed by a self-cleaning temporary directory.
        self.db_backend = resolve_backend(db_backend)
        self.db_path = db_path
        self.database = create_database(
            self.db_backend, path=db_path, fault_plane=self.faults
        )
        self.ttdb = TimeTravelDB(
            self.database, self.clock, enabled=enabled, fault_plane=self.faults
        )
        self.graph = ActionHistoryGraph(
            RecordStore(
                wal=open_wal(wal_path, **self._wal_options),
                fault_plane=self.faults,
            )
        )
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
        self.response_cache: Optional[ResponseCache] = None
        if response_cache:
            self.response_cache = ResponseCache(self.runtime, self.graph)
            self.response_cache.faults = self.faults
            self.server.response_cache = self.response_cache
            # Invalidation fires at write-commit time, inside the TTDB
            # statement lock (see repro.http.cache's concurrency contract).
            self.ttdb.write_hook = self.response_cache.on_write
        self._rotate_lock = threading.Lock()
        self._rotate_snapshot_path = wal_rotate_snapshot
        self._arm_rotation(wal_path)
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
        self._wire_wal_health()
        #: Optional bounded ServerPool serving this deployment; set by the
        #: operator/benches so the health endpoint can report pool depth.
        self.serving_pool = None
        #: Front-line detection (repro.detect), installed by
        #: :meth:`enable_detection`; inert (and zero-cost on the serve
        #: path) until then.
        self.detector = None
        self.incidents = None
        self.preview_refresher = None
        self.detection_refresh_interval: Optional[float] = None
        #: Script versions the persisted deployment had (set by ``load``);
        #: repair refuses to run until re-registered code catches up.
        self._expected_script_versions: Dict[str, int] = {}
        #: Shard identity (repro.shard): set by ``load_or_create_shard``
        #: when this system is one shard of a multi-process deployment.
        self.shard_id: Optional[int] = None
        self.shard_snapshot_path: Optional[str] = None
        # What a coordinator asks a worker, over the same wire as every
        # other admin operation (API.md §8, worker-side routes).
        self.server.admin.add("GET", "/shard/info", self._shard_info_route)
        self.server.admin.add(
            "GET", "/shard/touch-summary", self._shard_touch_summary_route
        )
        self.server.admin.add("POST", "/shard/save", self._shard_save_route)

    def _conflicts_route(self, request: HttpRequest):
        return 200, {"pending": [c.to_dict() for c in self.conflicts.pending()]}

    def _shard_info_route(self, request: HttpRequest):
        return 200, {
            "shard_id": self.shard_id,
            "backend": self.db_backend,
            "n_runs": self.graph.n_runs,
            "pid": os.getpid(),
        }

    def _shard_touch_summary_route(self, request: HttpRequest):
        return 200, self.graph.store.touch_summary()

    def _shard_save_route(self, request: HttpRequest):
        path = request.params.get("path") or self.shard_snapshot_path
        if not path:
            raise RepairError("no snapshot path: not a shard and no 'path' param")
        self.save(path)
        return 200, {"saved": path}

    def _wire_wal_health(self) -> None:
        """Point the store's current WAL at the health monitor.  Called at
        construction and again after ``replay_wal`` replaces the WAL."""
        wal = self.graph.store.wal
        if wal is not None:
            wal.on_degrade = self.health.on_wal_degrade

    def _arm_rotation(self, wal_path: Optional[str]) -> None:
        """Install size-triggered WAL rotation: once the log grows past
        ``wal_rotate_bytes`` appended bytes, the next acknowledged mutation
        snapshots the whole system (which truncates the log) so reload
        never replays an unbounded WAL.  No-op without a bound."""
        if self.wal_rotate_bytes is None:
            return
        if self._rotate_snapshot_path is None:
            if wal_path is None:
                return
            self._rotate_snapshot_path = wal_path + ".snapshot.json"
        store = self.graph.store
        store.rotate_bytes = self.wal_rotate_bytes
        store.rotate_hook = self._rotate_wal

    def _rotate_wal(self) -> None:
        """Fired by the store after a mutation pushed the WAL past the
        rotation bound (outside every store lock).  Non-blocking: if a
        rotation is already running on another thread, or a repair is in
        progress (``save`` refuses then), this acknowledgement skips —
        the next one past the bound retries."""
        if not self._rotate_lock.acquire(blocking=False):
            return
        try:
            if self.ttdb.repair_gen is not None or self.server.repair_active:
                return
            try:
                self.save(self._rotate_snapshot_path)
            except (RepairError, DurabilityError, OSError):
                # A repair began between the check and the save, or the
                # snapshot could not be made durable (sick disk — the
                # health monitor handles the degradation); the next
                # acknowledged mutation retries the rotation.
                pass
        finally:
            self._rotate_lock.release()

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

    def enable_detection(
        self,
        rules=None,
        threshold: float = 1.0,
        refresh_interval: Optional[float] = None,
    ):
        """Install the front-line detector (repro.detect): every routed
        request is scored against the rule chain, flagged runs open
        WAL-journaled incidents, and ``/warp/admin/incidents`` exposes
        each suspect's continuously refreshed blast-radius preview with
        one-click repair.  ``refresh_interval`` starts the background
        :class:`~repro.detect.PreviewRefresher` (None = previews refresh
        on admin reads only).  Custom ``rules`` are code and — like
        application scripts — are not serialized; a reloaded deployment
        comes back with the default rule chain."""
        from repro.detect import Detector, IncidentManager, PreviewRefresher

        self.detector = Detector(rules=rules, threshold=threshold)
        self.incidents = IncidentManager(
            self.graph,
            self.ttdb,
            self.repair,
            self.server.admin,
            fault_plane=self.faults,
        )
        self.server.detector = self.detector
        self.server.incident_manager = self.incidents
        self.detection_refresh_interval = refresh_interval
        if refresh_interval is not None:
            self.preview_refresher = PreviewRefresher(
                self.incidents, interval=refresh_interval
            ).start()
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

    def save(self, path: str) -> None:
        """Persist everything repair capability depends on: the action
        history graph's records, the versioned database, the generation
        counters, and the deterministic id/clock/rng state.

        Application *code* (script exports are Python callables) is not
        serialized — after :meth:`load`, re-register the same scripts and
        routes (e.g. ``WikiApp.register_code``) before serving or
        repairing.  Saving while a repair generation is active is refused:
        an in-flight repair does not survive a restart, it is re-run.

        The file is a format-5 snapshot (:mod:`repro.store.snapshot`):
        the state below is its header line, and the store appends the
        graph — pending state into the header, one line per record after
        it — under its records stripe.
        """
        if self.ttdb.repair_gen is not None:
            raise RepairError("cannot save while a repair is in progress")
        state = {
            "origin": self.origin,
            "enabled": self.enabled,
            "clock": self.clock.now(),
            "ids": self.ids.state_dict(),
            "rng_state": encode_tree(self.rng.getstate()),
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
            # in the graph snapshot; custom rule *code* does not, same
            # contract as application scripts).
            "detection_config": {
                "enabled": self.detector is not None,
                "threshold": (
                    self.detector.threshold if self.detector is not None else 1.0
                ),
                "refresh_interval": self.detection_refresh_interval,
            },
            # Serving-path knobs survive reload the same way: a deployment
            # tuned for group commit + caching keeps that envelope.
            "serving_config": {
                "durability": self.durability,
                "wal_rotate_bytes": self.wal_rotate_bytes,
                "response_cache": self.response_cache is not None,
            },
        }
        self.graph.store.commit_snapshot(path, state)

    @classmethod
    def load(
        cls,
        path: Optional[str],
        replay_config: Optional[ReplayConfig] = None,
        wal_path: Optional[str] = None,
        **ctor_kwargs,
    ) -> "WarpSystem":
        """Reconstruct a persisted deployment in a fresh process.

        When ``wal_path`` is given, action records journaled after the
        snapshot are replayed on top of it (the write-ahead log restores
        the action history graph; database versions are only as fresh as
        the snapshot).  ``path=None`` recovers from the WAL alone — the
        crash-before-first-save case: the action history graph is rebuilt
        but database rows, clock origin and counters start fresh, so the
        application must be reinstalled, not just re-registered.  The
        caller must re-register application scripts either way (code is
        not serialized) — recorded routes are restored so request dispatch
        works as soon as the scripts exist again.

        ``ctor_kwargs`` configure the fresh system underneath WAL-only
        recovery (``path=None``) — e.g. ``db_backend``/``db_path`` for a
        shard's storage layout.  With a snapshot they are refused: the
        snapshot's own repair/storage/serving config wins, and a silently
        ignored override would be a debugging trap.

        The history is built with the cyclic collector paused
        (:func:`repro.store.snapshot.gc_paused`) and a snapshot's records
        are streamed in one line at a time.  A file that is not a format
        1, 2, 3 or 4 snapshot, or does not hold the records its header
        promises, raises :class:`~repro.core.errors.ReproError` naming it.
        """
        if path is None:
            if wal_path is None:
                raise RepairError("load needs a snapshot path, a wal_path, or both")
            warp = cls(replay_config=replay_config, **ctor_kwargs)
            with gc_paused():
                warp.graph.store.replay_wal(wal_path)
            warp._wire_wal_health()
            warp._sync_id_counters()
            warp._sync_clock()
            return warp
        if ctor_kwargs:
            raise RepairError(
                "load from a snapshot takes its configuration from the "
                f"snapshot; unexpected overrides: {sorted(ctor_kwargs)}"
            )
        with gc_paused(), SnapshotReader(path) as snapshot:
            return cls._from_snapshot(snapshot, replay_config, wal_path)

    @classmethod
    def _from_snapshot(
        cls,
        snapshot: SnapshotReader,
        replay_config: Optional[ReplayConfig],
        wal_path: Optional[str],
    ) -> "WarpSystem":
        state = snapshot.header
        serving = state.get("serving_config", {})
        storage = state.get("storage_config", {})
        # An older header may name the removed fsync-per-append policy or
        # null (the default then): both load on group commit.  Any other
        # value goes to the WAL as written, which refuses what it does not
        # know.
        durability = serving.get("durability")
        if durability in (None, "always"):
            durability = "group"
        warp = cls(
            origin=state["origin"],
            enabled=state["enabled"],
            replay_config=replay_config,
            db_backend=snapshot_backend(state),
            db_path=storage.get("db_path"),
            durability=durability,
            wal_rotate_bytes=serving.get("wal_rotate_bytes"),
            response_cache=serving.get("response_cache", False),
        )
        # The graph first: reading its record lines to the end is what
        # proves the file whole, and a refused snapshot must not already
        # have replaced the (possibly on-disk) database.
        warp.graph.restore_snapshot(
            state["graph"], snapshot.records(), state["ids"].get("text", 0)
        )
        warp.clock.restore(state["clock"])
        warp.ids.restore(state["ids"])
        warp.rng.setstate(decode_tree(state["rng_state"]))
        warp.database.restore(state["database"])
        warp.ttdb.restore_state(state["ttdb"])
        if wal_path is not None:
            warp.graph.store.replay_wal(
                wal_path,
                snapshot_id=state.get("snapshot_id"),
                wal_options=warp._wal_options,
            )
            warp._wire_wal_health()
            # Rotation saves into the file this deployment was loaded
            # from: the WAL is truncated against that save, and it is
            # the file the next start will be given.
            warp._rotate_snapshot_path = snapshot.path
            warp._arm_rotation(wal_path)
        warp._sync_id_counters()
        warp._sync_clock()
        warp.server.routes.update(state.get("routes", {}))
        warp._expected_script_versions = dict(state.get("script_versions", {}))
        warp.conflicts.restore(state.get("conflicts", []))
        warp.server.cookie_invalidation.update(state.get("cookie_invalidation", ()))
        repair_config = state.get("repair_config", {})
        if repair_config.get("online_gate"):
            warp.enable_online_repair()
        warp.server.admin_token = repair_config.get("admin_token")
        detection_config = state.get("detection_config", {})
        if detection_config.get("enabled"):
            warp.enable_detection(
                threshold=detection_config.get("threshold", 1.0),
                refresh_interval=detection_config.get("refresh_interval"),
            )
        return warp

    # -- per-shard persistence layout (repro.shard) --------------------------

    @staticmethod
    def shard_layout(root: str, shard_id: int) -> Dict[str, str]:
        """Canonical on-disk layout of one shard under a cluster root.
        Every path a shard persists lives in its own subdirectory, so
        shards never contend on files and a shard can be copied or wiped
        as a unit."""
        shard_dir = os.path.join(root, f"shard-{shard_id}")
        return {
            "dir": shard_dir,
            "snapshot": os.path.join(shard_dir, "snapshot.json"),
            "wal": os.path.join(shard_dir, "records.wal"),
            "db": os.path.join(shard_dir, "db"),
        }

    @classmethod
    def load_or_create_shard(
        cls, root: str, shard_id: int, **kwargs
    ) -> Tuple["WarpSystem", bool]:
        """Bring up one shard from its layout, recovering whatever state
        survived: snapshot (+WAL tail) -> full reload; WAL alone -> the
        crash-before-first-save recovery; neither -> a fresh system.

        Returns ``(warp, fresh)`` where ``fresh`` tells the application
        factory whether to install (create tables + seed) or merely
        re-register code over recovered data.  WAL-only recovery reports
        ``fresh=True`` because database rows start empty (see
        :meth:`load`) — the install re-creates them, and the replayed
        graph still supports repair.  ``kwargs`` configure fresh
        construction (storage backend, durability, admin token, ...);
        ``db_path`` defaults into the shard's layout so the SQLite engine
        lands inside the shard directory, and WAL rotation always saves
        to the layout's snapshot — the only one the next start looks for.
        """
        layout = cls.shard_layout(root, shard_id)
        os.makedirs(layout["dir"], exist_ok=True)
        kwargs.setdefault("db_path", layout["db"])
        snapshot_path, wal_path = layout["snapshot"], layout["wal"]
        if os.path.exists(snapshot_path):
            warp = cls.load(snapshot_path, wal_path=wal_path)
            fresh = False
        elif os.path.exists(wal_path) and os.path.getsize(wal_path):
            warp = cls.load(None, wal_path=wal_path, **kwargs)
            fresh = True
        else:
            warp = cls(wal_path=wal_path, **kwargs)
            fresh = True
        warp._rotate_snapshot_path = snapshot_path
        warp._arm_rotation(wal_path)
        warp.shard_id = shard_id
        warp.shard_snapshot_path = snapshot_path
        warp.server.shard_id = shard_id
        return warp, fresh

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
        self.clock.restore(max(self.clock.now(), self.graph.store.max_ts))

    def _sync_id_counters(self) -> None:
        """Advance run/query id allocation past every restored record —
        WAL-replayed records postdate the snapshot's persisted counters,
        and a fresh id colliding with a restored one would silently
        overwrite that record in the graph."""
        store = self.graph.store
        self.ids.advance_to("run", max(store.runs, default=0))
        self.ids.advance_to("query", store.max_qid)

    # -- crash recovery of gate-queued requests ----------------------------------

    def recovered_queued_requests(self) -> list:
        """Requests the online gate queued before a crash and never
        re-applied (journaled via the WAL / snapshot), as ``(ticket,
        HttpRequest)`` in arrival order.  Empty in normal operation —
        finalize and abort both drain the queue."""
        pending = self.graph.store.pending_gate_queue
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
            self.graph.store.log_gate_apply(ticket)
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
