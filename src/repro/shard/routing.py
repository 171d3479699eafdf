"""Routing table: tenant/partition key -> shard index.

The routing contract (DESIGN.md "Sharding"):

* **data placement follows the data key, not the client** — a request is
  routed by the tenant it *acts on* (the ``X-Warp-Tenant`` header, else
  the ``title``/``tenant`` request parameter), falling back to the
  client-correlation header only for requests with no data key (logins);
* the mapping is **stable** — ``zlib.crc32`` of the key modulo the shard
  count, never Python's salted ``hash()``, so every coordinator process
  (and every restart) routes identically;
* explicit **pins** override the hash for operator-directed placement
  (hot-tenant isolation, migrations) and survive in the coordinator's
  journal via ``to_dict``/``from_dict``.

A request stamped with ``X-Warp-Shard`` by the coordinator is *checked*
by :meth:`repro.shard.worker.ShardWorker.handle` (421 on a mismatch) —
mis-routed writes are refused instead of silently splitting one logical
partition across two shards.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

from repro.http.message import HttpRequest

#: Header the coordinator consults first when extracting a routing key.
TENANT_HEADER = "X-Warp-Tenant"
#: Header the coordinator stamps on forwarded requests (worker-checked).
SHARD_HEADER = "X-Warp-Shard"


def default_route_key(request: HttpRequest) -> str:
    """Routing key of one request: tenant header, else the data key the
    request acts on (``tenant``/``title`` parameter), else the client
    correlation id, else the path (so unroutable requests still land
    deterministically *somewhere*)."""
    tenant = request.headers.get(TENANT_HEADER)
    if tenant:
        return tenant
    for param in ("tenant", "title"):
        value = request.params.get(param)
        if value:
            return str(value)
    client = request.client_id
    if client:
        return client
    return request.path


class RoutingTable:
    """Stable key -> shard mapping with explicit pin overrides."""

    def __init__(
        self, n_shards: int, pins: Optional[Dict[str, int]] = None
    ) -> None:
        if n_shards < 1:
            raise ValueError("routing table needs at least one shard")
        self.n_shards = n_shards
        self.pins: Dict[str, int] = {}
        for key, shard in (pins or {}).items():
            self.pin(key, shard)

    def pin(self, key: str, shard: int) -> None:
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"cannot pin {key!r} to shard {shard} (have {self.n_shards})"
            )
        self.pins[key] = shard

    def shard_of(self, key: str) -> int:
        pinned = self.pins.get(key)
        if pinned is not None:
            return pinned
        return zlib.crc32(str(key).encode("utf-8")) % self.n_shards

    def shard_for_request(self, request: HttpRequest) -> int:
        return self.shard_of(default_route_key(request))

    def to_dict(self) -> dict:
        return {"n_shards": self.n_shards, "pins": dict(self.pins)}

    @classmethod
    def from_dict(cls, data: dict) -> "RoutingTable":
        return cls(int(data["n_shards"]), pins=data.get("pins") or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(n_shards={self.n_shards}, pins={self.pins})"
