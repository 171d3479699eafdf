"""Akkuş & Goel-style taint-tracking data recovery (the §8.4 baseline).

Their system works offline over request logs: the administrator identifies
the request(s) that triggered a corruption bug; taint then propagates
request-by-request — a request that *read* a tainted database row taints
every row it subsequently *wrote*.  The administrator then manually
inspects and reverts the flagged rows.

Two administrator-supplied knobs reduce over-approximation:

* **table-level whitelisting** — reads of whitelisted tables (e.g. access
  logs) do not propagate taint;
* the choice of **dependency policy** (we implement the row-dependency
  policy, their most precise one without false negatives on these bugs).

The output is a flagged row set to compare against ground truth:
``false_positives`` are legitimate rows the administrator would wrongly
revert; ``false_negatives`` are corrupted rows the analysis missed.
WARP needs neither the request identification nor the whitelist — only
the patch — and repairs exactly the corrupted rows (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.store.recordstore import RecordStore

Row = Tuple[str, int]  # (table, row_id)


@dataclass
class TaintReport:
    """Outcome of one taint analysis run."""

    flagged: Set[Row]
    corrupted: Set[Row]
    whitelist: FrozenSet[str]

    @property
    def false_positives(self) -> Set[Row]:
        return self.flagged - self.corrupted

    @property
    def false_negatives(self) -> Set[Row]:
        return self.corrupted - self.flagged

    @property
    def fp_count(self) -> int:
        return len(self.false_positives)

    @property
    def fn_count(self) -> int:
        return len(self.false_negatives)

    @property
    def requires_user_input(self) -> bool:
        """The baseline always needs the admin to identify the buggy
        request (and usually to whitelist tables)."""
        return True


class RowTaintScorer:
    """Reusable row-flagging core shared by the §8.4 baseline and the
    front-line detector (:mod:`repro.detect`).

    Stateless over its inputs: callers hand it an iterable of run
    records in timestamp order plus the suspect run ids, and it returns
    the tainted row set — seed writes of the suspects, then one forward
    pass where a run that *read* a tainted row taints every row it
    *wrote*.  The detector calls :meth:`run_writes` online (one run's
    immediate write footprint, no history walk) and :meth:`flag_rows`
    when it wants the propagated set for an incident summary."""

    def __init__(self, whitelist: Iterable[str] = ()) -> None:
        self.whitelist = frozenset(whitelist)

    def run_writes(self, run) -> Set[Row]:
        """Rows one run wrote (whitelist applied) — the O(queries)
        online signal for a freshly flagged request."""
        writes: Set[Row] = set()
        for query in run.queries:
            if query.is_write:
                writes |= self._writes(query)
        return writes

    def seed_rows(self, runs, suspect_ids: Set[int]) -> Set[Row]:
        """Everything the suspect runs wrote.  Whitelisted tables are
        excluded from the dependency analysis entirely."""
        tainted: Set[Row] = set()
        for run in runs:
            if run.run_id in suspect_ids:
                tainted |= self.run_writes(run)
        return tainted

    def propagate(self, runs, suspect_ids: Set[int], tainted: Set[Row]) -> Set[Row]:
        """Forward-in-time propagation: read-tainted requests taint their
        writes.  (A single forward pass suffices because requests only
        read rows written at earlier timestamps.)"""
        tainted = set(tainted)
        for run in runs:
            if run.run_id in suspect_ids:
                continue
            writes: List[Row] = []
            run_tainted = False
            for query in run.queries:
                if query.kind == "select" and query.table not in self.whitelist:
                    reads = {(query.table, rid) for rid in query.read_row_ids}
                    if reads & tainted:
                        run_tainted = True
                if query.is_write:
                    writes.extend(self._writes(query))
            # A tainted request taints everything it wrote.
            if run_tainted:
                tainted |= set(writes)
        return tainted

    def flag_rows(self, runs, suspect_ids: Iterable[int]) -> Set[Row]:
        """Seed + propagate in one call over a materialized run list."""
        suspects = set(suspect_ids)
        runs = list(runs)
        return self.propagate(runs, suspects, self.seed_rows(runs, suspects))

    def _writes(self, query) -> Set[Row]:
        if query.table in self.whitelist:
            return set()
        return set(query.written_row_ids)


class TaintAnalysis:
    """Offline row-level taint propagation over WARP's recorded log."""

    def __init__(self, graph: RecordStore, whitelist: Iterable[str] = ()) -> None:
        self.graph = graph
        self.whitelist = frozenset(whitelist)
        self.scorer = RowTaintScorer(whitelist)

    def analyze(self, buggy_run_ids: Iterable[int], corrupted: Set[Row]) -> TaintReport:
        tainted = self.scorer.flag_rows(self.graph.runs_in_order(), buggy_run_ids)
        return TaintReport(
            flagged=tainted, corrupted=set(corrupted), whitelist=self.whitelist
        )
