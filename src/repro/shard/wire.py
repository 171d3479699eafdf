"""Shard wire protocol: JSON frames carrying the HTTP message fields.

One protocol for everything: a frame is a JSON object with an ``op``:

* ``{"op": "http", "request": {...}}`` — serve one
  :class:`~repro.http.message.HttpRequest` (its ``method``, ``path``,
  ``params``, ``cookies`` and ``headers``) and answer ``{"ok": true,
  "response": {...}}`` (``status``, ``body``, ``headers``,
  ``set_cookies``).  Admin operations are not special ops — they are
  plain requests to the existing ``/warp/admin`` paths, so the admin
  JSON protocol *is* the repair fan-out protocol.
* ``{"op": "ping"}`` — liveness + shard identity.
* ``{"op": "shutdown"}`` — graceful worker exit.

On a socket a frame is the UTF-8 bytes of its JSON text, sent as one
``multiprocessing.connection`` message (``send_bytes``: a length prefix
and the bytes; nothing is pickled), so any peer that speaks that framing
and its authkey handshake can talk to a worker.  Each side builds the
frame from the message's own fields and builds the message from the
dicts ``json.loads`` made: one encode and one decode per hop, no copies.

Two transports implement the same :class:`ShardClient` interface:

* :class:`ProcShardClient` — a real ``multiprocessing.connection`` socket
  to a worker process;
* :class:`LocalShardClient` — an in-process worker, with every frame
  and reply still encoded to those bytes and parsed back, so tests
  exercise exactly what crosses the socket (no object sharing can sneak
  through).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Optional, Tuple

from repro.core.errors import ReproError
from repro.http.message import HttpRequest, HttpResponse
from repro.shard.routing import SHARD_HEADER


class ShardWireError(ReproError):
    """A frame could not be delivered or the worker refused it."""


class ShardClient:
    """One shard's client handle.  Subclasses implement :meth:`call`
    (one frame out, one reply back); everything else is shared."""

    def __init__(self, shard_id: int, admin_token: Optional[str] = None) -> None:
        self.shard_id = shard_id
        self.admin_token = admin_token

    # -- transport ---------------------------------------------------------

    def call(self, frame: dict) -> dict:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - transport-specific
        pass

    # -- protocol ----------------------------------------------------------

    def request(
        self, request: HttpRequest, shard: Optional[int] = None
    ) -> HttpResponse:
        """Serve ``request`` on this shard.  ``shard`` stamps the frame's
        headers with ``X-Warp-Shard`` (the worker's 421 check); the
        caller's request is never changed."""
        headers = request.headers
        if shard is not None:
            headers = {**headers, SHARD_HEADER: str(shard)}
        reply = self.call(
            {
                "op": "http",
                "request": {
                    "method": request.method,
                    "path": request.path,
                    "params": request.params,
                    "cookies": request.cookies,
                    "headers": headers,
                },
            }
        )
        if not reply.get("ok"):
            raise ShardWireError(
                f"shard {self.shard_id} refused request: {reply.get('error')}"
            )
        return HttpResponse(**reply["response"])

    def ping(self) -> dict:
        return self.call({"op": "ping"})

    def shutdown(self) -> dict:
        return self.call({"op": "shutdown"})

    def admin(
        self, method: str, path: str, params: Optional[dict] = None
    ) -> HttpResponse:
        """One control-plane request (the ``/warp/admin`` surface)."""
        headers = {}
        if self.admin_token is not None:
            headers["X-Warp-Admin-Token"] = self.admin_token
        return self.request(
            HttpRequest(method, path, params=params or {}, headers=headers),
            self.shard_id,
        )

    def admin_json(
        self, method: str, path: str, params: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """Admin request + JSON body decode: ``(status, payload)``."""
        response = self.admin(method, path, params)
        try:
            payload = json.loads(response.body)
        except (json.JSONDecodeError, TypeError):
            payload = {"error": response.body}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return response.status, payload


class LocalShardClient(ShardClient):
    """In-process transport that still crosses the wire encoding.

    Wraps a :class:`~repro.shard.worker.ShardWorker` living in this
    process (deterministic tests, the 1-worker bench arm).  Every frame
    and reply is encoded to the UTF-8 JSON bytes the process transport
    sends and parsed back from them, so what survives the wire and what
    types arrive are identical to the process transport."""

    def __init__(self, worker, admin_token: Optional[str] = None) -> None:
        super().__init__(worker.shard_id, admin_token=admin_token)
        self._worker = worker

    def call(self, frame: dict) -> dict:
        reply = self._worker.handle_frame(json.loads(json.dumps(frame).encode()))
        return json.loads(json.dumps(reply).encode())

    def clone(self) -> "LocalShardClient":
        # The in-process worker serves concurrent callers itself (the
        # HttpServer is thread-safe); nothing per-connection to duplicate.
        return self


class ProcShardClient(ShardClient):
    """Socket transport to a worker process.

    One connection, one lock: concurrent callers serialize on the socket.
    Drivers that want parallelism across threads :meth:`clone` a client
    per thread — each clone opens its own connection, and the worker
    serves connections from dedicated threads (that is where multi-core
    parallelism comes from)."""

    #: How long :meth:`connect` keeps retrying while a worker boots.
    CONNECT_TIMEOUT = 30.0

    def __init__(
        self,
        address: str,
        authkey: bytes,
        shard_id: int,
        admin_token: Optional[str] = None,
    ) -> None:
        super().__init__(shard_id, admin_token=admin_token)
        self.address = address
        self.authkey = authkey
        self._lock = threading.Lock()
        self._conn = self._connect()

    def _connect(self):
        from multiprocessing.connection import Client

        deadline = time.monotonic() + self.CONNECT_TIMEOUT
        last: Optional[BaseException] = None
        while time.monotonic() < deadline:
            try:
                return Client(self.address, family="AF_UNIX", authkey=self.authkey)
            except (OSError, EOFError) as exc:
                # The worker is still booting (socket not bound yet) or
                # mid-accept; retry until the deadline.
                last = exc
                time.sleep(0.02)
        raise ShardWireError(
            f"shard {self.shard_id} at {self.address!r} never came up: {last!r}"
        )

    def call(self, frame: dict) -> dict:
        data = json.dumps(frame).encode()
        with self._lock:
            try:
                self._conn.send_bytes(data)
                raw = self._conn.recv_bytes()
            except (OSError, EOFError) as exc:
                raise ShardWireError(
                    f"shard {self.shard_id} connection failed: {exc!r}"
                ) from exc
        return json.loads(raw)

    def clone(self) -> "ProcShardClient":
        """A fresh connection to the same worker (per-thread drivers)."""
        return ProcShardClient(
            self.address, self.authkey, self.shard_id, admin_token=self.admin_token
        )

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
