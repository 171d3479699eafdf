"""Dependency-clustered repair groups.

The paper's central scaling claim (§8.5, Table 8) is that repair cost is
proportional to the *attack's footprint*, not the workload.  A single
global worklist gets most of the way there; what remains is to know
which actions the damage can reach without scanning the run log.

This module computes **taint-connected components** over the action
history graph: a union-find joining clients and ``(table,
partition-key)`` nodes through the queries that read/write them, walked
outward from the initial damage set through the record store's eagerly
maintained :class:`~repro.store.recordstore.TouchIndex`, so discovery is
O(component), never O(workload).  Each component becomes a
:class:`RepairGroup`: the coverage that tells an escape from a covered
key, plus the attribution row the group's work is counted on.  The
worklist itself (one heap, one set of run/visit state, one
``ModifiedPartitions``) belongs to the controller, and every candidate
lookup goes to the store's partition buckets, each built per key on its
first lookup from the same TouchIndex — O(runs touching the key), which
for a covered key is at most O(group).

Edges (the connectivity relation; an undirected over-approximation of the
time-directed dependencies repair actually follows):

* run ↔ its client (a browser's visits replay as one ordered history,
  and a conflict silences the whole client, §5.4);
* run that **writes** partition key K ↔ every run touching K, every
  ALL-partition reader of K's table, and every full-table writer;
* run that **reads** key K ↔ every writer of K and full-table writer of
  K's table (two mere readers of K are *not* joined — read-read sharing
  carries no taint);
* ALL-partition reader of table T ↔ every writer of T;
* full-table writer of T ↔ everything touching T.

**Coverage and escapes.**  A group records the partition keys its member
runs statically write (``covered_keys``); the component is closed over
them, so every run touching a covered key is a member.  Re-execution can
*escape* — write a key the original timeline never wrote (a repaired
page saved under a new title).  The lookup is the same either way; the
group counts the escape in its stats, the measure of how far repair
strayed from the statically planned footprint.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ahg.records import QueryRecord

PartitionKey = Tuple[str, str, object]

#: Per-group re-execution counters folded into ``RepairStats.groups``.
GROUP_COUNTER_FIELDS = (
    "visits_reexecuted",
    "runs_reexecuted",
    "runs_pruned",
    "runs_canceled",
    "queries_reexecuted",
)

class RepairGroup:
    """The coverage and attribution row of one taint component.

    ``run_ids is None`` means *global scope*: what the controller starts
    with (and keeps when clustering is off, and uses for runs in no
    component) — nothing is considered an escape.
    """

    def __init__(
        self,
        group_id: int,
        run_ids: Optional[Set[int]] = None,
        clients: Optional[Set[str]] = None,
        covered_keys: Optional[Set[PartitionKey]] = None,
        covered_tables: Optional[Set[str]] = None,
    ) -> None:
        self.group_id = group_id
        self.run_ids = run_ids
        self.clients: Set[str] = set(clients or ())
        self.covered_keys: Set[PartitionKey] = set(covered_keys or ())
        self.covered_tables: Set[str] = set(covered_tables or ())
        #: Damaged runs / fixed partitions assigned to this group.
        self.seed_runs: List[int] = []
        self.seed_keys: List[PartitionKey] = []
        self.first_damage_ts: int = 0

        # -- accounting -----------------------------------------------------
        self.counters: Dict[str, int] = {name: 0 for name in GROUP_COUNTER_FIELDS}
        #: Progress bookkeeping: worklist items queued in this scope and not
        #: yet run.  ``group_done`` fires the first time it returns to zero,
        #: and at most once (an escape may queue more afterwards).
        self.pending = 0
        self.done_emitted = False
        self.escaped_keys = 0
        self.seconds = 0.0

    @property
    def scoped(self) -> bool:
        return self.run_ids is not None

    def covers(self, key: PartitionKey) -> bool:
        return key in self.covered_keys or key[0] in self.covered_tables

    def queries_touching(
        self,
        graph,
        table: str,
        keys,
        since_ts: int,
        whole_table: bool = False,
    ) -> List[QueryRecord]:
        """Candidate queries for a modification, from the graph's partition
        buckets; a key outside the group's coverage counts as an escape."""
        if self.scoped:
            if whole_table:
                self.escaped_keys += table not in self.covered_tables
            else:
                self.escaped_keys += sum(not self.covers(key) for key in keys)
        return graph.queries_touching(table, keys, since_ts, whole_table)

    def describe(self) -> Dict[str, object]:
        """One JSON-friendly per-group stats row."""
        row: Dict[str, object] = {
            "group": self.group_id,
            "runs": len(self.run_ids) if self.run_ids is not None else None,
            "clients": len(self.clients),
            "seed_runs": len(self.seed_runs),
            "escaped_keys": self.escaped_keys,
            "seconds": round(self.seconds, 6),
        }
        row.update(self.counters)
        return row


class _Build:
    """A component under construction (mutable union-find payload)."""

    __slots__ = (
        "runs",
        "clients",
        "covered_keys",
        "covered_tables",
        "seed_runs",
        "seed_keys",
        "first_ts",
        "read_keys_done",
        "allfull_pulled",
        "fullw_pulled",
        "writers_pulled",
        "touchers_pulled",
    )

    def __init__(self) -> None:
        self.runs: Set[int] = set()
        self.clients: Set[str] = set()
        self.covered_keys: Set[PartitionKey] = set()
        self.covered_tables: Set[str] = set()
        self.seed_runs: List[int] = []
        self.seed_keys: List[PartitionKey] = []
        self.first_ts: float = float("inf")
        self.read_keys_done: Set[PartitionKey] = set()
        self.allfull_pulled: Set[str] = set()
        self.fullw_pulled: Set[str] = set()
        self.writers_pulled: Set[str] = set()
        self.touchers_pulled: Set[str] = set()

    def absorb(self, other: "_Build") -> None:
        self.runs |= other.runs
        self.clients |= other.clients
        self.covered_keys |= other.covered_keys
        self.covered_tables |= other.covered_tables
        self.seed_runs.extend(other.seed_runs)
        self.seed_keys.extend(other.seed_keys)
        self.first_ts = min(self.first_ts, other.first_ts)
        self.read_keys_done |= other.read_keys_done
        self.allfull_pulled |= other.allfull_pulled
        self.fullw_pulled |= other.fullw_pulled
        self.writers_pulled |= other.writers_pulled
        self.touchers_pulled |= other.touchers_pulled


class ClusteringFutile(Exception):
    """A component is about to swallow most of the workload: group-scoped
    repair would only duplicate the global index.  Callers should fall
    back to the global scope (distinct from the empty-damage case,
    where :func:`compute_repair_groups` returns ``[]``)."""


def compute_repair_groups(
    graph,
    run_seeds: Iterable[int] = (),
    futility_limit: Optional[int] = None,
    key_seed_groups: Iterable[Tuple[Iterable[PartitionKey], Iterable[str], int]] = (),
) -> List[RepairGroup]:
    """Partition the damage set into taint-connected repair groups.

    ``run_seeds`` are initially damaged run ids (a patched file's runs, a
    canceled visit's or client's runs); ``key_seed_groups`` are the
    partitions retroactive database fixes write directly, one ``(keys,
    full_tables, damage_ts)`` entry per statement, so two fixes touching
    unrelated partitions keep their own components (they still merge if
    taint connects them).

    Deterministic: groups come back ordered by earliest damage timestamp
    (ties by smallest seed run id), with members discovered by BFS whose
    visited sets make the result independent of expansion order.

    Raises :class:`ClusteringFutile` when clustering is pointless: a
    component's distinct membership (visited runs plus its deduplicated
    BFS frontier) exceeds ``futility_limit`` (default: half the workload,
    floored at 1024 so small deployments never bail).  One write to a
    partition whose table has thousands of ALL-partition readers trips
    this within a few expansions — the whole point is to detect
    "everything is connected" *without* paying for the full walk, and let
    the caller keep the global scope.  Returns ``[]`` only for an empty
    damage set.
    """
    touch = graph.touch
    if futility_limit is None:
        futility_limit = max(1024, len(graph.runs) // 2)
    builds: List[Optional[_Build]] = []
    parent: List[int] = []
    run_owner: Dict[int, int] = {}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> int:
        ra, rb = find(a), find(b)
        if ra == rb:
            return ra
        if len(builds[ra].runs) < len(builds[rb].runs):  # type: ignore[union-attr]
            ra, rb = rb, ra
        parent[rb] = ra
        builds[ra].absorb(builds[rb])  # type: ignore[union-attr]
        builds[rb] = None
        return ra

    def expand_write_key(build: _Build, key: PartitionKey, frontier: deque) -> None:
        if key in build.covered_keys:
            return
        build.covered_keys.add(key)
        frontier.extend(touch.touchers_of_key(key))
        table = key[0]
        if table not in build.allfull_pulled:
            build.allfull_pulled.add(table)
            build.fullw_pulled.add(table)
            frontier.extend(touch.all_readers_of_table(table))
            frontier.extend(touch.full_writers_of_table(table))

    def expand_read_key(build: _Build, key: PartitionKey, frontier: deque) -> None:
        if key in build.read_keys_done:
            return
        build.read_keys_done.add(key)
        frontier.extend(touch.writers_of_key(key))
        table = key[0]
        if table not in build.fullw_pulled:
            build.fullw_pulled.add(table)
            frontier.extend(touch.full_writers_of_table(table))

    def expand_all_read(build: _Build, table: str, frontier: deque) -> None:
        if table in build.writers_pulled:
            return
        build.writers_pulled.add(table)
        frontier.extend(touch.writers_of_table(table))

    def expand_full_write(build: _Build, table: str, frontier: deque) -> None:
        build.covered_tables.add(table)
        if table in build.touchers_pulled:
            return
        build.touchers_pulled.add(table)
        build.writers_pulled.add(table)
        build.allfull_pulled.add(table)
        build.fullw_pulled.add(table)
        frontier.extend(touch.touchers_of_table(table))

    def grow(root: int, frontier: deque) -> int:
        while frontier:
            root = find(root)
            build = builds[root]
            assert build is not None
            if len(build.runs) + len(frontier) > futility_limit:
                # The frontier holds duplicates and already-visited runs;
                # compact it (preserving order and cross-build merge
                # triggers) before deciding the component really is huge.
                compacted: List[int] = []
                fresh = 0
                seen: Set[int] = set()
                for rid in frontier:
                    if rid in seen:
                        continue
                    seen.add(rid)
                    owner = run_owner.get(rid)
                    if owner is None:
                        fresh += 1
                    elif find(owner) == root:
                        continue  # already a member: nothing left to do
                    compacted.append(rid)
                if len(build.runs) + fresh > futility_limit:
                    raise ClusteringFutile
                frontier.clear()
                frontier.extend(compacted)
                if not frontier:
                    break
            run_id = frontier.popleft()
            owner = run_owner.get(run_id)
            if owner is not None:
                owner_root = find(owner)
                if owner_root != root:
                    root = union(root, owner_root)
                continue
            run_owner[run_id] = root
            build.runs.add(run_id)
            run = graph.runs.get(run_id)
            if run is None:
                continue
            client_id = run.client_id
            if client_id is not None and client_id not in build.clients:
                build.clients.add(client_id)
                frontier.extend(r.run_id for r in graph.client_runs(client_id))
            for query in run.queries:
                table = query.table
                if query.full_table_write:
                    expand_full_write(build, table, frontier)
                for key in query.written_partitions:
                    expand_write_key(build, key, frontier)
                if query.read_set.is_all:
                    expand_all_read(build, table, frontier)
                else:
                    for column, value in query.read_set.keys():
                        expand_read_key(build, (table, column, value), frontier)
        return find(root)

    for run_id in run_seeds:
        run = graph.runs.get(run_id)
        seed_ts = run.ts_start if run is not None else 0
        owner = run_owner.get(run_id)
        if owner is not None:
            build = builds[find(owner)]
            assert build is not None
            build.seed_runs.append(run_id)
            build.first_ts = min(build.first_ts, seed_ts)
            continue
        build = _Build()
        build.seed_runs.append(run_id)
        build.first_ts = seed_ts
        builds.append(build)
        parent.append(len(builds) - 1)
        grow(len(builds) - 1, deque([run_id]))

    for stmt_keys, stmt_tables, stmt_ts in key_seed_groups:
        stmt_keys, stmt_tables = list(stmt_keys), list(stmt_tables)
        if not stmt_keys and not stmt_tables:
            continue
        build = _Build()
        build.seed_keys = stmt_keys
        build.first_ts = stmt_ts
        builds.append(build)
        root = len(builds) - 1
        parent.append(root)
        frontier: deque = deque()
        for key in stmt_keys:
            expand_write_key(build, key, frontier)
        for table in stmt_tables:
            expand_full_write(build, table, frontier)
        grow(root, frontier)

    finished = [
        builds[i]
        for i in range(len(builds))
        if builds[i] is not None and find(i) == i
    ]
    finished.sort(
        key=lambda b: (b.first_ts, min(b.seed_runs) if b.seed_runs else -1)
    )
    groups: List[RepairGroup] = []
    for index, build in enumerate(finished, start=1):
        group = RepairGroup(
            index,
            run_ids=build.runs,
            clients=build.clients,
            covered_keys=build.covered_keys,
            covered_tables=build.covered_tables,
        )
        group.seed_runs = build.seed_runs
        group.seed_keys = build.seed_keys
        group.first_damage_ts = 0 if build.first_ts == float("inf") else int(build.first_ts)
        groups.append(group)
    return groups
