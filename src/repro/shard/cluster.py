"""ShardCluster: one-call bring-up of N workers plus a coordinator.

Two transports, one topology:

* ``transport="local"`` — every shard's :class:`ShardWorker` lives in
  this process behind a :class:`LocalShardClient` (frames still make a
  JSON round-trip).  Deterministic: tests can reach into ``.workers``
  to assert on ground truth, arm fault planes, or kill a coordinator.
* ``transport="proc"`` — each shard is a real spawned process serving
  an AF_UNIX socket (:func:`spawn_worker`); this is where multi-core
  scaling comes from.

Tenant placement is computed *up front* from the routing table: the
cluster asks the table which shard each ``tenant<t>`` key hashes to and
hands every worker exactly its tenants (plus the shared identities) in
``app_args`` — so data seeding and request routing agree by
construction.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.http.message import HttpRequest
from repro.shard.coordinator import ShardCoordinator
from repro.shard.routing import RoutingTable
from repro.shard.wire import LocalShardClient, ProcShardClient, ShardClient
from repro.shard.worker import (
    ShardConfig,
    ShardWorker,
    authkey_for,
    spawn_worker,
)


class ShardCluster:
    """N shard workers + a coordinator over them."""

    def __init__(
        self,
        n_shards: int,
        root: str,
        transport: str = "local",
        app: str = "repro.shard.bootstrap:wiki_tenants",
        tenants: Optional[List[int]] = None,
        shared_users: Optional[List[str]] = None,
        users_per_tenant: int = 2,
        warp_kwargs: Optional[dict] = None,
        admin_token: Optional[str] = None,
        secret: str = "dev",
        fault_plane=None,
    ) -> None:
        if transport not in ("local", "proc"):
            raise ValueError(f"transport must be 'local' or 'proc', got {transport!r}")
        self.n_shards = n_shards
        self.root = root
        self.transport = transport
        self.routing = RoutingTable(n_shards)
        warp_kwargs = dict(warp_kwargs or {})
        if admin_token is not None:
            warp_kwargs.setdefault("admin_token", admin_token)
        # Placement follows the routing table: tenant t lives wherever
        # the key "tenant<t>_wiki"'s routing key lands.  Requests carry
        # the tenant in X-Warp-Tenant or the page title, both of which
        # resolve to the same key family, so seeding and serving agree.
        placed: Dict[int, List[int]] = {shard: [] for shard in range(n_shards)}
        for tenant in tenants or []:
            shard = self.shard_of_tenant(tenant)
            # A request may carry the tenant header ("tenant3") or only
            # the page title ("tenant3_wiki"); pin both key spellings to
            # the same shard so they cannot hash apart.
            self.routing.pin(f"tenant{tenant}", shard)
            self.routing.pin(f"tenant{tenant}_wiki", shard)
            placed[shard].append(tenant)
        self.tenant_shards: Dict[int, int] = {
            tenant: shard
            for shard, members in placed.items()
            for tenant in members
        }
        self.configs: List[ShardConfig] = [
            ShardConfig(
                shard_id=shard,
                data_dir=root,
                app=app,
                app_args={
                    "tenants": placed[shard],
                    "users_per_tenant": users_per_tenant,
                    "shared_users": list(shared_users or []),
                },
                warp_kwargs=warp_kwargs,
                secret=secret,
            )
            for shard in range(n_shards)
        ]
        self.workers: List[ShardWorker] = []
        self.processes = []
        clients: Dict[int, ShardClient] = {}
        if transport == "local":
            for config in self.configs:
                worker = ShardWorker(config)
                self.workers.append(worker)
                clients[config.shard_id] = LocalShardClient(
                    worker, admin_token=admin_token
                )
        else:
            addresses = []
            for config in self.configs:
                process, address = spawn_worker(config)
                self.processes.append(process)
                addresses.append(address)
            for config, address in zip(self.configs, addresses):
                clients[config.shard_id] = ProcShardClient(
                    address,
                    authkey_for(secret),
                    config.shard_id,
                    admin_token=admin_token,
                )
        self.clients = clients
        self._fault_plane = fault_plane
        self.journal_path = os.path.join(root, "coordinator.journal")
        self.coordinator = self._make_coordinator()

    # -- topology ------------------------------------------------------------

    def shard_of_tenant(self, tenant: int) -> int:
        """Where tenant ``t`` lives.  Routes the same key the requests
        carry (the X-Warp-Tenant header value ``tenant<t>``)."""
        return self.routing.shard_of(f"tenant{tenant}")

    def _make_coordinator(self) -> ShardCoordinator:
        return ShardCoordinator(
            self.clients,
            routing=self.routing,
            journal_path=self.journal_path,
            fault_plane=self._fault_plane,
        )

    def new_coordinator(self, fault_plane=None) -> ShardCoordinator:
        """A *replacement* coordinator over the same workers and journal —
        the coordinator-crash story: coordinators are stateless modulo
        the journal, so recovery is construction plus
        :meth:`ShardCoordinator.interrupted` /
        :meth:`ShardCoordinator.resubmit`."""
        if fault_plane is not None:
            self._fault_plane = fault_plane
        self.coordinator = self._make_coordinator()
        return self.coordinator

    def handle(self, request: HttpRequest):
        return self.coordinator.handle(request)

    def close(self) -> None:
        for client in self.clients.values():
            try:
                client.shutdown()
            except Exception:
                pass
            try:
                client.close()
            except Exception:
                pass
        for worker in self.workers:  # local transport: the deployments are ours
            worker.warp.close()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
