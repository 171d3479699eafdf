"""Multi-process sharding: coordinator, workers, routing, repair fan-out.

The first seam out of one process (ROADMAP items 1 and 3): a
:class:`~repro.shard.coordinator.ShardCoordinator` routes requests by
tenant/partition key to N worker processes, each running its own
:class:`~repro.warp.WarpSystem` (either storage backend), and runs
distributed repair as a fan-out — per-shard
:class:`~repro.repair.api.RepairSpec` jobs dispatched over the existing
``/warp/admin`` JSON wire protocol to the shards whose own repair
preview finds damage, with the returned
:class:`~repro.repair.stats.RepairStats` merged into one report.  See
DESIGN.md "Sharding".
"""

from repro.shard.cluster import ShardCluster
from repro.shard.coordinator import (
    DistributedRepairError,
    DistributedRepairResult,
    ShardCoordinator,
)
from repro.shard.routing import RoutingTable, default_route_key
from repro.shard.wire import LocalShardClient, ProcShardClient, ShardClient
from repro.shard.worker import ShardConfig, ShardWorker, spawn_worker

__all__ = [
    "DistributedRepairError",
    "DistributedRepairResult",
    "LocalShardClient",
    "ProcShardClient",
    "RoutingTable",
    "ShardClient",
    "ShardCluster",
    "ShardConfig",
    "ShardCoordinator",
    "ShardWorker",
    "default_route_key",
    "spawn_worker",
]
