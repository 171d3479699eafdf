"""Shard worker: one WarpSystem per process, serving wire frames.

A worker is bootstrapped from a JSON-serializable :class:`ShardConfig`
(so it can cross a ``spawn`` boundary): it builds — or reloads, from the
per-shard layout of :func:`shard_layout` (:func:`load_or_create_shard`)
— its own :class:`~repro.warp.WarpSystem` with whatever storage backend
``REPRO_DB_BACKEND``/``warp_kwargs`` select, installs the application via
an importable ``module:callable`` factory, and serves wire frames
(:mod:`repro.shard.wire`) either in-process (:class:`ShardWorker` used
directly through a :class:`~repro.shard.wire.LocalShardClient`) or from
a real process (:func:`worker_main` + :func:`spawn_worker`).  The
process reads each frame as the UTF-8 bytes of its JSON text
(``recv_bytes``; nothing it receives is unpickled) and answers the same
way; the request it serves is built from the dicts ``json.loads`` made,
and the reply carries the response's own fields.

The shard identity lives here, not in the WarpSystem underneath:
:meth:`ShardWorker.handle` refuses a request stamped for another shard
with a 421 (the routing contract's enforcement point), and the worker
mounts the one shard-only admin row, ``POST /warp/admin/shard/save``,
which snapshots into the layout.

The **application factory** contract: ``factory(warp, fresh, args)``
installs (``fresh=True``: create tables, register code, seed) or
re-registers (``fresh=False``: code only — the data came back from the
shard snapshot/WAL) the application, and returns the app object.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.errors import RepairError
from repro.http.message import HttpRequest, HttpResponse
from repro.shard.routing import SHARD_HEADER
from repro.warp import WarpSystem

#: Fixed authkey prefix; the per-cluster secret rides in ShardConfig.
_AUTH_PREFIX = b"repro-shard:"


def socket_address(data_dir: str, shard_id: int) -> str:
    """AF_UNIX socket path for one shard.  Unix socket paths are limited
    to ~107 bytes; deep pytest tmp dirs overflow that, so long paths fall
    back to a digest-named socket under /tmp (stable for the same shard
    directory, so parent and worker agree without coordination)."""
    path = os.path.join(data_dir, f"shard-{shard_id}", "wire.sock")
    if len(path) <= 90:
        return path
    digest = hashlib.sha1(path.encode("utf-8")).hexdigest()[:16]
    return f"/tmp/repro-shard-{digest}.sock"


def authkey_for(secret: str) -> bytes:
    return _AUTH_PREFIX + secret.encode("utf-8")


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


def load_or_create_shard(
    root: str, shard_id: int, **kwargs
) -> Tuple[WarpSystem, bool]:
    """Bring up one shard from its layout, recovering whatever state
    survived: snapshot (+WAL tail) -> full reload; WAL alone -> the
    crash-before-first-save recovery; neither -> a fresh system.

    Returns ``(warp, fresh)`` where ``fresh`` tells the application
    factory whether to install (create tables + seed) or merely
    re-register code over recovered data.  WAL-only recovery reports
    ``fresh=True`` because database rows start empty (see
    :meth:`WarpSystem.load`) — the install re-creates them, and the
    replayed graph still supports repair.  ``kwargs`` configure fresh
    construction (storage backend, durability, admin token, ...);
    ``db_path`` defaults into the shard's layout so the SQLite engine's
    scratch directory lands inside the shard directory; a later boot
    never reads it back — the snapshot and WAL are what it recovers.
    """
    layout = shard_layout(root, shard_id)
    os.makedirs(layout["dir"], exist_ok=True)
    kwargs.setdefault("db_path", layout["db"])
    snapshot_path, wal_path = layout["snapshot"], layout["wal"]
    if os.path.exists(snapshot_path):
        return WarpSystem.load(snapshot_path, wal_path=wal_path), False
    if os.path.exists(wal_path) and os.path.getsize(wal_path):
        return WarpSystem.load(None, wal_path=wal_path, **kwargs), True
    return WarpSystem(wal_path=wal_path, **kwargs), True


def resolve_factory(spec: str):
    """Import an application factory from its ``module:callable`` name."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not attr:
        raise ValueError(f"app factory must be 'module:callable', got {spec!r}")
    return getattr(importlib.import_module(module_name), attr)


@dataclass
class ShardConfig:
    """Everything one worker needs, JSON-serializable for spawn."""

    shard_id: int
    data_dir: str
    #: Importable ``module:callable`` application factory.
    app: str = "repro.shard.bootstrap:wiki_tenants"
    #: Opaque JSON arguments handed to the factory (e.g. tenant lists).
    app_args: dict = field(default_factory=dict)
    #: Passed through to the WarpSystem constructor (db_backend,
    #: durability, admin_token, ...).
    warp_kwargs: dict = field(default_factory=dict)
    #: Cluster wire secret (authkey material for the process transport).
    secret: str = "dev"

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "data_dir": self.data_dir,
            "app": self.app,
            "app_args": dict(self.app_args),
            "warp_kwargs": dict(self.warp_kwargs),
            "secret": self.secret,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardConfig":
        return cls(
            shard_id=int(data["shard_id"]),
            data_dir=data["data_dir"],
            app=data.get("app", "repro.shard.bootstrap:wiki_tenants"),
            app_args=dict(data.get("app_args") or {}),
            warp_kwargs=dict(data.get("warp_kwargs") or {}),
            secret=data.get("secret", "dev"),
        )


class ShardWorker:
    """One shard's WarpSystem + application, speaking wire frames."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.shard_id = config.shard_id
        self.snapshot_path = shard_layout(config.data_dir, config.shard_id)["snapshot"]
        self.warp, fresh = load_or_create_shard(
            config.data_dir, config.shard_id, **dict(config.warp_kwargs)
        )
        # What a coordinator asks a worker beyond the ordinary admin
        # surface, over the same wire (API.md §8, worker-side routes).
        self.warp.server.admin.add("POST", "/shard/save", self._save_route)
        factory = resolve_factory(config.app)
        self.app = factory(self.warp, fresh, dict(config.app_args))

    # -- request serving ---------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request.  One the coordinator stamped for a different
        shard is refused with 421 instead of executing, so a stale routing
        table cannot split one partition's history across two shards."""
        stamped = request.headers.get(SHARD_HEADER)
        if stamped is not None and stamped != str(self.shard_id):
            return HttpResponse(
                status=421,
                body=f"misdirected request: stamped for shard {stamped}, "
                f"this is shard {self.shard_id}",
                headers={SHARD_HEADER: str(self.shard_id)},
            )
        return self.warp.server.handle(request)

    def _save_route(self, request: HttpRequest):
        # The snapshot holds every table, the users' included: a client
        # must not choose where it is written.
        if "path" in request.params:
            raise RepairError("shard save takes no 'path': it writes the shard layout")
        self.warp.save(self.snapshot_path)
        return 200, {"saved": self.snapshot_path}

    def handle_frame(self, frame: dict) -> dict:
        """The wire protocol (one frame in, one reply out).  Shared by the
        local transport and the process accept loop, so both speak exactly
        the same protocol."""
        op = frame.get("op") if isinstance(frame, dict) else None
        if op == "ping":
            return {
                "ok": True,
                "shard": self.shard_id,
                "pid": os.getpid(),
                "n_runs": self.warp.graph.n_runs,
                "backend": self.warp.db_backend,
            }
        if op == "http":
            try:
                request = HttpRequest(**frame["request"])
            except (KeyError, TypeError) as exc:
                return {"ok": False, "error": f"malformed http frame: {exc!r}"}
            try:
                response = self.handle(request)
            except Exception as exc:
                # The worker must survive any handler failure; the caller
                # gets the error, the accept loop keeps serving.
                return {"ok": False, "error": repr(exc)}
            return {
                "ok": True,
                "response": {
                    "status": response.status,
                    "body": response.body,
                    "headers": response.headers,
                    "set_cookies": response.set_cookies,
                },
            }
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown wire op {op!r}"}


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------


def worker_main(config_json: str, address: str) -> None:
    """Process entry point (spawn-safe: arguments are plain strings).

    Builds the worker, binds the wire socket, and serves each accepted
    connection from its own thread until a ``shutdown`` frame arrives.
    """
    from multiprocessing.connection import Listener

    config = ShardConfig.from_dict(json.loads(config_json))
    worker = ShardWorker(config)
    stop = threading.Event()
    listener = Listener(
        address, family="AF_UNIX", authkey=authkey_for(config.secret)
    )

    def serve_connection(conn) -> None:
        try:
            while not stop.is_set():
                try:
                    raw = conn.recv_bytes()
                except (EOFError, OSError):
                    return
                try:
                    reply = worker.handle_frame(json.loads(raw))
                except ValueError as exc:  # not UTF-8 JSON text
                    reply = {"ok": False, "error": f"malformed frame: {exc!r}"}
                try:
                    conn.send_bytes(json.dumps(reply).encode())
                except (OSError, BrokenPipeError):
                    return
                if reply.get("bye"):
                    stop.set()
                    # Unblock accept() so the main loop can exit.  Closing
                    # the listener from this thread does not wake a thread
                    # already blocked in accept() on Linux; a throwaway
                    # connection does (its handshake fails, the loop sees
                    # ``stop`` and leaves).
                    try:
                        with socket.socket(socket.AF_UNIX) as waker:
                            waker.connect(address)
                    except OSError:
                        pass
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    threads = []
    try:
        while not stop.is_set():
            try:
                conn = listener.accept()
            except (OSError, EOFError):
                break  # the shutdown path's waker (its handshake fails)
            thread = threading.Thread(
                target=serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            threads.append(thread)
    finally:
        stop.set()
        try:
            listener.close()
        except OSError:
            pass
        # Connection threads are daemons blocked in recv() until their peer
        # hangs up; give them one shared second, not one each.
        deadline = time.monotonic() + 1.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))


def spawn_worker(config: ShardConfig):
    """Start one worker process (spawn context: a clean interpreter, no
    inherited locks from the parent's threads).  Returns ``(process,
    address)``; connect with :class:`~repro.shard.wire.ProcShardClient`,
    which retries until the worker's socket is up."""
    import multiprocessing

    address = socket_address(config.data_dir, config.shard_id)
    os.makedirs(os.path.dirname(address), exist_ok=True)
    if os.path.exists(address):
        os.unlink(address)  # stale socket from a previous run
    ctx = multiprocessing.get_context("spawn")
    process = ctx.Process(
        target=worker_main,
        args=(json.dumps(config.to_dict()), address),
        name=f"repro-shard-{config.shard_id}",
        daemon=True,
    )
    process.start()
    return process, address
