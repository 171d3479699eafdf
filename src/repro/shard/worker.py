"""Shard worker: one WarpSystem per process, serving wire frames.

A worker is bootstrapped from a JSON-serializable :class:`ShardConfig`
(so it can cross a ``spawn`` boundary): it builds — or reloads, using the
per-shard save/load layout in :meth:`repro.warp.WarpSystem.shard_layout`
— its own :class:`~repro.warp.WarpSystem` with whatever storage backend
``REPRO_DB_BACKEND``/``warp_kwargs`` select, installs the application via
an importable ``module:callable`` factory, and serves wire frames
(:mod:`repro.shard.wire`) either in-process (:class:`ShardWorker` used
directly through a :class:`~repro.shard.wire.LocalShardClient`) or from
a real process (:func:`worker_main` + :func:`spawn_worker`).

Worker mode on the serving stack:

* the worker's :class:`~repro.http.server.HttpServer` carries the shard
  identity and refuses mis-stamped requests with a 421 (the routing
  contract's enforcement point);
* an optional :class:`~repro.http.pool.ServerPool` bounds concurrent
  handling across connection threads (admission control: overload answers
  503 backpressure instead of unbounded queueing).

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
from typing import Optional

from repro.http.message import HttpRequest
from repro.http.pool import ServerPool
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
    #: >0 installs a ServerPool of that many threads (worker mode).
    pool_workers: int = 0

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "data_dir": self.data_dir,
            "app": self.app,
            "app_args": dict(self.app_args),
            "warp_kwargs": dict(self.warp_kwargs),
            "secret": self.secret,
            "pool_workers": self.pool_workers,
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
            pool_workers=int(data.get("pool_workers", 0)),
        )


class ShardWorker:
    """One shard's WarpSystem + application, speaking wire frames."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.shard_id = config.shard_id
        self.warp, fresh = WarpSystem.load_or_create_shard(
            config.data_dir, config.shard_id, **dict(config.warp_kwargs)
        )
        # Routing-contract enforcement: requests the coordinator stamped
        # for a different shard bounce with 421 instead of executing.
        self.warp.server.shard_id = config.shard_id
        factory = resolve_factory(config.app)
        self.app = factory(self.warp, fresh, dict(config.app_args))
        self.pool: Optional[ServerPool] = None
        if config.pool_workers > 0:
            self.pool = ServerPool(
                self.warp.server,
                workers=config.pool_workers,
                fault_plane=self.warp.faults,
            )
            self.warp.serving_pool = self.pool

    # -- request serving ---------------------------------------------------

    def handle(self, request: HttpRequest):
        if self.pool is not None:
            return self.pool.handle(request)
        return self.warp.server.handle(request)

    def handle_frame(self, frame: dict) -> dict:
        """The wire protocol (one frame in, one reply out).  Shared by the
        local transport and the process accept loop, so both speak exactly
        the same protocol."""
        op = frame.get("op")
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
                request = HttpRequest.from_dict(frame["request"])
            except (KeyError, TypeError, ValueError) as exc:
                return {"ok": False, "error": f"malformed http frame: {exc!r}"}
            try:
                response = self.handle(request)
            except Exception as exc:
                # The worker must survive any handler failure; the caller
                # gets the error, the accept loop keeps serving.
                return {"ok": False, "error": repr(exc)}
            return {"ok": True, "response": response.to_dict()}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown wire op {op!r}"}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


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
                    raw = conn.recv()
                except (EOFError, OSError):
                    return
                reply = worker.handle_frame(json.loads(raw))
                try:
                    conn.send(json.dumps(reply))
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
        worker.close()


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
