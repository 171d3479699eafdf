"""Distributed repair planning over merged per-shard touch summaries.

Each shard ships the coordinator a compact image of its
:class:`~repro.store.recordstore.TouchIndex` grouped by client
(:meth:`RecordStore.touch_summary`).  This module unions those images
into taint-connected **clusters spanning shards** — the distributed
analogue of repair-group discovery (repro.repair.clusters), with clients
as the connective tissue:

* within one shard, taint flows writer -> key -> reader exactly as the
  single-process planner propagates it;
* **across** shards the databases are disjoint, so data-flow taint
  physically cannot cross a shard boundary — the only cross-shard edge
  is a *client identity* active on both sides (the attacker logging into
  two tenants that hash to different shards).  That is the same escape
  the single-process planner counts when a key leaks out of a group
  (``escaped_keys``); here the escape *is* the
  shard-handoff edge, and the plan records it as a handoff so operators
  see which client stitched the shards together.

The planner is conservative in exactly one direction: it may place two
shards in one cluster that deeper replay would prove independent (extra
fan-out targets cost only a no-op preview), but a client/key edge the
union holds is never dropped.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, node):
        parent = self.parent.setdefault(node, node)
        if parent is node or parent == node:
            return node
        root = self.find(parent)
        self.parent[node] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _key_node(shard_id: int, key: List) -> Tuple:
    # Partition keys are per-shard: the same (table, column, value) on two
    # shards names two different rows in two different databases, so the
    # node carries the shard id.  Cross-shard joining happens only through
    # client nodes, which are global identities.
    return ("key", shard_id, tuple(key))


def merge_touch_summaries(
    summaries: Dict[int, dict],
) -> Dict[str, List[dict]]:
    """Union per-shard touch summaries into cross-shard taint clusters.

    Returns ``{"clusters": [...], "handoffs": [...]}``:

    * each cluster: ``{"clients": [...], "shards": [...], "n_keys": int}``
      — the clients whose runs are taint-connected and every shard any of
      them touched;
    * each handoff: ``{"client": ..., "shards": [...]}`` — a client
      active on more than one shard, i.e. the edge a cross-shard repair
      must follow (the plan's escape-routing report).
    """
    uf = _UnionFind()
    client_shards: Dict[str, set] = {}
    client_keys: Dict[str, int] = {}

    for shard_id, summary in sorted(summaries.items()):
        clients = (summary or {}).get("clients") or {}
        # Per-table connectivity within this shard: ALL-readers depend on
        # every writer of the table; full-table writers taint every
        # toucher.  Collect per-table participant clients first.
        table_writers: Dict[str, set] = {}
        table_all_readers: Dict[str, set] = {}
        for client_id, entry in clients.items():
            client_node = ("client", client_id)
            uf.find(client_node)
            client_shards.setdefault(client_id, set()).add(shard_id)
            for key in entry.get("writes") or []:
                uf.union(client_node, _key_node(shard_id, key))
                client_keys[client_id] = client_keys.get(client_id, 0) + 1
            for table in entry.get("tables_written") or []:
                table_writers.setdefault(table, set()).add(client_id)
            for table in entry.get("full_writes") or []:
                table_writers.setdefault(table, set()).add(client_id)
            for table in entry.get("all_reads") or []:
                table_all_readers.setdefault(table, set()).add(client_id)
        # Keyed readers join through the key node — but only when some
        # client *wrote* that key (two pure readers of the same key are
        # independent, mirroring TouchIndex's reader/writer asymmetry).
        written_keys = set()
        for client_id, entry in clients.items():
            for key in entry.get("writes") or []:
                written_keys.add(tuple(key))
        for client_id, entry in clients.items():
            client_node = ("client", client_id)
            for key in entry.get("reads") or []:
                if tuple(key) in written_keys:
                    uf.union(client_node, _key_node(shard_id, key))
        # ALL-readers of a table with at least one writer depend on all
        # of the table's writers.
        for table, readers in table_all_readers.items():
            writers = table_writers.get(table)
            if not writers:
                continue
            anchor = ("tall", shard_id, table)
            for client_id in readers | writers:
                uf.union(("client", client_id), anchor)

    # Collect clusters over client nodes only.
    clusters: Dict[object, dict] = {}
    for client_id, shards in client_shards.items():
        root = uf.find(("client", client_id))
        cluster = clusters.setdefault(
            root, {"clients": set(), "shards": set(), "n_keys": 0}
        )
        cluster["clients"].add(client_id)
        cluster["shards"].update(shards)
        cluster["n_keys"] += client_keys.get(client_id, 0)

    handoffs = [
        {"client": client_id, "shards": sorted(shards)}
        for client_id, shards in sorted(client_shards.items())
        if len(shards) > 1
    ]
    return {
        "clusters": sorted(
            (
                {
                    "clients": sorted(cluster["clients"]),
                    "shards": sorted(cluster["shards"]),
                    "n_keys": cluster["n_keys"],
                }
                for cluster in clusters.values()
            ),
            key=lambda c: c["clients"],
        ),
        "handoffs": handoffs,
    }
