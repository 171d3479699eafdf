"""Action history graph (paper §2.1, borrowed from Retro).

Nodes represent parts of the system over time (database partitions, source
files, HTTP exchanges, browser page visits); actions (application runs,
SQL queries, browser events) carry input and output dependencies on those
nodes.  This package holds the record types; the graph itself is the
indexed record store (:class:`repro.store.recordstore.RecordStore`), which
the repair managers append to during normal execution and the repair
controller queries for what must be rolled back and re-executed.
"""

from repro.ahg.records import (
    AppRunRecord,
    EventRecord,
    NondetRecord,
    PatchRecord,
    QueryRecord,
    VisitRecord,
)

__all__ = [
    "AppRunRecord",
    "QueryRecord",
    "NondetRecord",
    "EventRecord",
    "VisitRecord",
    "PatchRecord",
]
