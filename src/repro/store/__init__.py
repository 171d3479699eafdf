"""The action history graph (paper §2.1): the indexed record store.

An append-oriented store for WARP's recorded actions (application runs,
page visits, retroactive patches) with maintained secondary indexes — by
``(client_id, visit_id)``, by loaded source file, and by table/partition
key with time-ordered buckets — so the repair controller's dependency
questions are answered in O(log n + answers) instead of by scanning the
whole log.  An optional JSONL write-ahead log plus snapshots make the
store durable across process restarts.

This is the foundation the paper's §8.5 scaling claim rests on: repair
cost must follow the attack footprint, not the workload size, which is
only true if dependency lookups never touch unrelated records.
"""

from repro.store.recordstore import RecordStore, TouchIndex
from repro.store.wal import RecordWal

__all__ = ["RecordStore", "RecordWal", "TouchIndex"]
