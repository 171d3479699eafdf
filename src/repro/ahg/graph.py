"""The action history graph, backed by the indexed record store.

During normal execution this is append-only.  During repair the controller
asks questions like "which runs loaded file F after time T?" and "which
recorded queries could read partition K after time T?"; those are answered
by :class:`repro.store.recordstore.RecordStore`'s secondary indexes
(partition-index construction is what the paper's Table 7 reports as
*Graph* loading time, and we time it the same way).

The graph is a thin facade: it owns no record state of its own.  A
restart restores its store in place, from a snapshot and the write-ahead
log (see :mod:`repro.store`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.ahg.records import (
    AppRunRecord,
    PatchRecord,
    QueryRecord,
    VisitRecord,
)
from repro.core.serialize import DecodeMemo

if TYPE_CHECKING:
    from repro.store.recordstore import RecordStore

PartitionKey = Tuple[str, str, object]

__all__ = ["ActionHistoryGraph", "PartitionKey"]


class ActionHistoryGraph:
    """All recorded actions, plus dependency indexes for repair."""

    def __init__(self, store: Optional["RecordStore"] = None) -> None:
        if store is None:
            # Imported lazily: the store imports the record types from this
            # package, so a module-level import here would make the import
            # order of `repro.store` vs `repro.ahg` matter.
            from repro.store.recordstore import RecordStore

            store = RecordStore()
        self.store = store

    # -- store delegation ------------------------------------------------------

    @property
    def runs(self) -> Dict[int, AppRunRecord]:
        return self.store.runs

    @property
    def visits(self) -> Dict[Tuple[str, int], VisitRecord]:
        return self.store.visits

    @property
    def patches(self) -> List[PatchRecord]:
        return self.store.patches

    @property
    def request_map(self) -> Dict[Tuple[str, int, int], int]:
        return self.store.request_map

    @property
    def graph_load_seconds(self) -> float:
        """Wall-clock seconds spent building indexes (Table 7 "Graph")."""
        return self.store.index_build_seconds

    @property
    def touch(self):
        """The store's partition-touch connectivity index (eagerly
        maintained); repair-group discovery walks components through it."""
        return self.store.touch

    # -- recording (normal execution) -----------------------------------------

    def add_run(self, run: AppRunRecord) -> None:
        self.store.add_run(run)

    def add_runs(self, runs: Iterable[AppRunRecord]) -> None:
        self.store.add_runs(runs)

    def add_visit(self, visit: VisitRecord) -> None:
        self.store.add_visit(visit)

    def log_visit_event(self, client_id: str, visit_id: int, event) -> None:
        """Journal one DOM event appended to an uploaded visit log."""
        self.store.log_visit_event(client_id, visit_id, event)

    def log_visit_request(self, client_id: str, visit_id: int, request_id: int) -> None:
        self.store.log_visit_request(client_id, visit_id, request_id)

    def log_visit_cookies(self, client_id: str, visit_id: int, cookies_after) -> None:
        self.store.log_visit_cookies(client_id, visit_id, cookies_after)

    def add_patch(self, patch: PatchRecord) -> None:
        self.store.add_patch(patch)

    # -- repair-time mutation ----------------------------------------------------

    def replace_run(self, run_id: int, record: AppRunRecord) -> Optional[AppRunRecord]:
        """Swap a run's record for its re-executed replacement (the graph
        then describes the repaired timeline, enabling follow-up repairs)."""
        return self.store.replace_run(run_id, record)

    def replace_runs(self, records: Iterable[AppRunRecord]) -> List[AppRunRecord]:
        """Swap each record's run for it, as one batch (a repair's
        results: one store lock hold, one journal wait)."""
        return self.store.replace_runs(records)

    def invalidate_partition_indexes(self) -> None:
        self.store.invalidate_partition_indexes()

    # -- statistics -------------------------------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self.store.runs)

    @property
    def n_visits(self) -> int:
        return len(self.store.visits)

    @property
    def n_queries(self) -> int:
        return self.store.query_count

    # -- lookups -----------------------------------------------------------------

    def runs_in_order(self) -> List[AppRunRecord]:
        return self.store.runs_in_order()

    def run_for_request(
        self, client_id: str, visit_id: int, request_id: int
    ) -> Optional[AppRunRecord]:
        return self.store.run_for_request(client_id, visit_id, request_id)

    def runs_of_visit(self, client_id: str, visit_id: int) -> List[AppRunRecord]:
        return self.store.runs_of_visit(client_id, visit_id)

    def visit_of_run(self, run: AppRunRecord) -> Optional[VisitRecord]:
        return self.store.visit_of_run(run)

    def client_visits(self, client_id: str) -> List[VisitRecord]:
        return self.store.client_visits(client_id)

    def client_runs(self, client_id: str) -> List[AppRunRecord]:
        return self.store.client_runs(client_id)

    def child_visits(self, client_id: str, visit_id: int) -> List[VisitRecord]:
        return self.store.child_visits(client_id, visit_id)

    def visit_and_descendants(self, client_id: str, visit_id: int) -> List[int]:
        """Canceling a page visit undoes all of its HTTP requests — which
        includes the navigations (form posts, link follows) its events
        caused, i.e. its descendant visits.  Shared by repair execution
        and the dry-run planner so both walk the same damage set.  The
        parent→children index makes this O(descendants), not O(client
        history) per level."""
        out = [visit_id]
        seen = {visit_id}
        frontier = [visit_id]
        while frontier:
            next_frontier = []
            for parent_id in frontier:
                for record in self.child_visits(client_id, parent_id):
                    if record.visit_id not in seen:
                        seen.add(record.visit_id)
                        out.append(record.visit_id)
                        next_frontier.append(record.visit_id)
            frontier = next_frontier
        return out

    def last_visit_id(self, client_id: str) -> int:
        return self.store.last_visit_id(client_id)

    def runs_loading_file(self, file: str, since_ts: int) -> List[AppRunRecord]:
        """Runs whose input dependencies include source file ``file`` at or
        after ``since_ts`` (retroactive patching, paper §3.2)."""
        return self.store.runs_loading_file(file, since_ts)

    def queries_touching(
        self,
        table: str,
        keys: Iterable[PartitionKey],
        since_ts: int,
        whole_table: bool = False,
        drained=None,
    ) -> List[QueryRecord]:
        """Candidate queries that may read or write the given partitions
        strictly after ``since_ts``, less what a repair's ``drained`` marks
        say it was handed already.  Callers re-check precisely."""
        return self.store.queries_touching(table, keys, since_ts, whole_table, drained)

    # -- durability -------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        return self.store.to_snapshot()

    def restore_snapshot(self, data: dict, records=(), last_text_id: int = 0) -> None:
        """Apply a snapshot's ``graph`` object and its stream of record
        lines to the store, each line by the rule WAL replay uses
        (:meth:`RecordStore.apply_logged`); one :class:`DecodeMemo` spans
        the build.  ``last_text_id`` is the header's ``ids.text``: the
        table's counter, which entries dropped since may have passed."""
        store = self.store
        store.texts.last_id = last_text_id
        memo = DecodeMemo(store.texts)
        for kind, item, text in records:
            store.apply_logged(kind, item, text, memo)
        for table in store.tables:
            for item in data.get(table.name, ()):
                table.apply(table.put_kind, item)
        if "retained" in data:
            store._restore_retained(data["retained"])
        # The snapshot holds exactly the entries its runs refer to, so the
        # next save need not re-read the run lines to find them.
        store._texts_exact = True
