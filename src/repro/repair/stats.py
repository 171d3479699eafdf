"""Repair statistics: re-execution counts and phase timing.

Mirrors the columns of the paper's Tables 7 and 8: how many page visits,
application runs and SQL queries were re-executed (out of the totals in
the workload), and where wall-clock time went — repair initialization,
action-history-graph loading, browser ("Firefox") re-execution, standalone
database query re-execution, application re-execution, and controller
overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List


class PhaseTimer:
    """Nested wall-clock accounting: inner phases don't double-count."""

    def __init__(self) -> None:
        self.buckets: Dict[str, float] = {}
        self._stack: List[List] = []  # [name, started_at, child_time]

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        name, started, child_time = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.buckets[name] = self.buckets.get(name, 0.0) + (elapsed - child_time)
        if self._stack:
            self._stack[-1][2] += elapsed

    def carve(self, seconds: float) -> None:
        """Take ``seconds``, measured and reported apart, out of the open
        phase's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def get(self, name: str) -> float:
        return self.buckets.get(name, 0.0)


@dataclass
class RepairStats:
    """Everything a Table 7/8 row needs."""

    visits_reexecuted: int = 0
    runs_reexecuted: int = 0
    runs_pruned: int = 0
    runs_canceled: int = 0
    queries_reexecuted: int = 0
    nondet_misses: int = 0
    conflicts: int = 0
    total_visits: int = 0
    total_runs: int = 0
    total_queries: int = 0
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    total_seconds: float = 0.0
    graph_seconds: float = 0.0
    #: Dependency-clustered repair (repro.repair.clusters): how many
    #: independent repair groups the damage set split into (0 = the
    #: monolithic global worklist), time spent discovering components,
    #: keys propagation reached outside the static footprint, and one
    #: counter row per group.
    n_groups: int = 0
    clusters_seconds: float = 0.0
    escaped_keys: int = 0
    groups: List[Dict[str, object]] = field(default_factory=list)
    #: Online-repair gate counters (repro.repair.gate): requests served
    #: live during the repair, queued with a ticket, re-applied after the
    #: switch, and apply-time script failures.  Empty without a gate.
    gate: Dict[str, int] = field(default_factory=dict)

    def breakdown(self) -> Dict[str, float]:
        """Named time buckets in the paper's Table 7 layout."""
        known = {
            "init": self.timer.get("init"),
            "graph": self.graph_seconds,
            "firefox": self.timer.get("firefox"),
            "db": self.timer.get("db"),
            "app": self.timer.get("app"),
        }
        accounted = sum(known.values())
        known["ctrl"] = max(0.0, self.total_seconds - accounted)
        known["total"] = self.total_seconds
        return known

    def to_dict(self) -> Dict[str, object]:
        """JSON image for the admin API and jobs journal."""
        return {
            "visits_reexecuted": self.visits_reexecuted,
            "runs_reexecuted": self.runs_reexecuted,
            "runs_pruned": self.runs_pruned,
            "runs_canceled": self.runs_canceled,
            "queries_reexecuted": self.queries_reexecuted,
            "nondet_misses": self.nondet_misses,
            "conflicts": self.conflicts,
            "total_visits": self.total_visits,
            "total_runs": self.total_runs,
            "total_queries": self.total_queries,
            "n_groups": self.n_groups,
            "clusters_seconds": round(self.clusters_seconds, 6),
            "escaped_keys": self.escaped_keys,
            "groups": [dict(row) for row in self.groups],
            "gate": dict(self.gate),
            "breakdown": {k: round(v, 6) for k, v in self.breakdown().items()},
        }

    def row(self) -> Dict[str, object]:
        """One bench-report row."""
        out: Dict[str, object] = {
            "visits": f"{self.visits_reexecuted} / {self.total_visits}",
            "runs": f"{self.runs_reexecuted} / {self.total_runs}",
            "queries": f"{self.queries_reexecuted} / {self.total_queries}",
            "conflicts": self.conflicts,
            "groups": self.n_groups,
        }
        out.update({k: round(v, 4) for k, v in self.breakdown().items()})
        return out


#: ``to_dict`` keys summed element-wise by :func:`merge_stats_dicts`.
_ADDITIVE_STAT_KEYS = (
    "visits_reexecuted",
    "runs_reexecuted",
    "runs_pruned",
    "runs_canceled",
    "queries_reexecuted",
    "nondet_misses",
    "conflicts",
    "total_visits",
    "total_runs",
    "total_queries",
    "n_groups",
    "clusters_seconds",
    "escaped_keys",
)


def merge_stats_dicts(per_shard: Dict[int, Dict[str, object]]) -> Dict[str, object]:
    """Merge per-shard ``RepairStats.to_dict()`` images into one
    distributed-repair report (repro.shard).

    Merge semantics (documented in DESIGN.md "Sharding"): counters and
    totals are **sums** — each shard re-executed a disjoint slice of a
    disjoint history, so addition double-counts nothing.  Time buckets
    are also sums (total machine-work), with wall-clock reported
    separately by the coordinator since shards repair concurrently.
    Group rows and gate counters keep their shard of origin so a merged
    report still answers "which shard did what".
    """
    merged: Dict[str, object] = {key: 0 for key in _ADDITIVE_STAT_KEYS}
    merged["groups"] = []
    merged["gate"] = {}
    merged["breakdown"] = {}
    merged["per_shard"] = sorted(per_shard)
    for shard_id in sorted(per_shard):
        stats = per_shard[shard_id]
        if not isinstance(stats, dict):
            continue
        for key in _ADDITIVE_STAT_KEYS:
            value = stats.get(key)
            if isinstance(value, (int, float)):
                merged[key] += value
        for row in stats.get("groups") or []:
            tagged = dict(row)
            tagged["shard"] = shard_id
            merged["groups"].append(tagged)
        for name, count in (stats.get("gate") or {}).items():
            key = f"shard{shard_id}.{name}"
            merged["gate"][key] = count
        for bucket, seconds in (stats.get("breakdown") or {}).items():
            if isinstance(seconds, (int, float)):
                merged["breakdown"][bucket] = round(
                    merged["breakdown"].get(bucket, 0.0) + seconds, 6
                )
    merged["clusters_seconds"] = round(merged["clusters_seconds"], 6)
    return merged
