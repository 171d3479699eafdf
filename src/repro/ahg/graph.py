"""The action history graph (paper §2.1) is the indexed record store.

Recording appends to :class:`repro.store.recordstore.RecordStore` and
repair queries it; this module keeps the paper's name for that one class.
"""

from repro.store.recordstore import PartitionKey, RecordStore

ActionHistoryGraph = RecordStore

__all__ = ["ActionHistoryGraph", "PartitionKey"]
