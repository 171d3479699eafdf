"""Append-oriented record store with maintained secondary indexes.

The store owns the primary record maps (runs, visits, patches) and every
index the repair controller's dependency questions need:

* ``(client_id, visit_id) -> run ids`` — ``runs_of_visit`` in O(answers);
* ``source file -> (ts_end, run_id)`` sorted by time — ``runs_loading_file``
  in O(log n + answers) via bisect;
* partition buckets of ``(ts, qid, query)`` kept in time order —
  ``queries_touching`` merges pre-sorted buckets with a heap and never
  re-sorts.

A partition bucket is built on its first lookup, per key, from exactly the
runs the eagerly maintained :class:`TouchIndex` lists for it, so a repair's
index cost follows the keys it reaches, not the table's history.  The build
time is accounted in ``index_build_seconds`` (the paper's Table 7 "Graph"
column: loading the action history graph is part of repair cost).  An
append updates only the buckets already built; everything else is
maintained eagerly at append time.

Mutations (``add_run``/``add_visit``/``add_patch``/``replace_run``/``gc``/
``enforce_client_quota``) are the public write API; when a
:class:`~repro.store.wal.RecordWal` is attached, each one is journaled so
the store can be rebuilt after a crash from snapshot + WAL replay.

The store owns the log's :class:`~repro.core.serialize.TextTable` (snapshot
format 5): a run is encoded against it under the records stripe, and the
``text`` entries the encoding defined are journaled just before the run's
line, so WAL order always puts an entry ahead of every line that refers to
it, however many threads first-use the same body, SQL text or row payload
at once.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import os
import threading
import time as _time
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.ahg.records import (
    AppRunRecord,
    EventRecord,
    PatchRecord,
    QueryRecord,
    VisitRecord,
    text_refs,
)
from repro.core.errors import DurabilityError, ReproError
from repro.core.ids import trailing_seq
from repro.core.serialize import UPGRADE_ROUTE, DecodeMemo, TextTable
from repro.faults.plane import FaultPlane
from repro.faults.plane import active as _active_plane
from repro.store.snapshot import FORMAT, SnapshotReader, gc_paused, write_snapshot
from repro.store.wal import CommitTicket, RecordWal, entry_line

PartitionKey = Tuple[str, str, object]

#: Sorts after any qid in a bucket entry ``(ts, qid, query)``.
_AFTER_ANY_QID = float("inf")

_EMPTY_SET: frozenset = frozenset()

_json_text = attrgetter("json_text")


# Which buckets a query belongs in: the key bucket of each of its written
# partitions and read keys, whatever the statement's kind, and its table's
# ALL bucket when ``in_all_bucket``.  A bucket built from the TouchIndex must
# find every query an append would have put in it, so ``TouchIndex.
# index_query`` / ``unindex_run``, the two helpers below and
# ``RecordStore._index_query`` all follow this rule.  Each spells it out for
# speed (deriving the TouchIndex from one shared key set cost 2.7x on the
# append path); ``test_indexed_lookups_match_naive_reference`` checks that
# they agree.


def in_all_bucket(query: QueryRecord) -> bool:
    """Whether a query is a candidate for every key of its table: its read
    set cannot be narrowed, or it writes the whole table."""
    return query.read_set.is_all or query.full_table_write


def touches_key(query: QueryRecord, key: PartitionKey) -> bool:
    """Whether ``key``'s bucket holds ``query``: it writes that partition or
    reads that key of its table."""
    return key in query.written_partitions or (
        key[0] == query.table and key[1:] in query.read_set.keys()
    )


def merge_bucket_tails(buckets, since_ts: int) -> List[QueryRecord]:
    """Distinct queries with ``ts > since_ts`` across pre-sorted
    ``(ts, qid, query)`` buckets, in timestamp order: bisect each bucket's
    tail, heap-merge, dedupe by qid — never a re-sort."""
    cut = (since_ts, _AFTER_ANY_QID)
    tails = []
    for bucket in buckets:
        start = bisect.bisect_right(bucket, cut)
        if start < len(bucket):
            tails.append(bucket[start:])
    seen: Set[int] = set()
    out: List[QueryRecord] = []
    for _, qid, query in heapq.merge(*tails):
        if qid not in seen:
            seen.add(qid)
            out.append(query)
    return out


class TouchIndex:
    """Partition-touch connectivity: which runs read/write which partitions.

    Maintained **eagerly** at append time (the paper's philosophy: pay
    during logging, not repair), so repair-group discovery
    (:mod:`repro.repair.clusters`) walks the taint-connected component of
    the damage set in O(component edges) — never a scan of the whole log.

    The asymmetry between readers and writers is deliberate: two runs that
    merely *read* the same partition are not dependent on each other, so
    readers are pulled into a component only through a writer of a key
    they read.  ``table_all`` holds the runs whose read set cannot be
    narrowed (ALL-readers): they depend on *every* writer of the table.
    """

    def __init__(self) -> None:
        #: key -> runs with a write query on that partition key.
        self.key_writers: Dict[PartitionKey, Set[int]] = {}
        #: key -> runs with any query reading or writing that key.
        self.key_touchers: Dict[PartitionKey, Set[int]] = {}
        #: table -> runs with any write on the table (keyed or full).
        self.table_writers: Dict[str, Set[int]] = {}
        #: table -> runs with any query on the table at all.
        self.table_touchers: Dict[str, Set[int]] = {}
        #: table -> runs with an ALL-partition read of the table.
        self.table_all: Dict[str, Set[int]] = {}
        #: table -> runs with a full-table write.
        self.table_fullw: Dict[str, Set[int]] = {}

    def index_query(self, query: QueryRecord, run_id: int) -> None:
        """List ``run_id`` under every key whose bucket holds the query —
        written partitions whatever the statement's kind, and read keys —
        and, when the query belongs in its table's ALL bucket, in
        ``table_all`` (an un-narrowable read) or ``table_fullw`` (a
        full-table write flag, again whatever the kind), which is what the
        store's buckets are built from."""
        table = query.table
        touchers = self.key_touchers
        self.table_touchers.setdefault(table, set()).add(run_id)
        if query.is_write:
            self.table_writers.setdefault(table, set()).add(run_id)
        for key in query.written_partitions:
            self.key_writers.setdefault(key, set()).add(run_id)
            touchers.setdefault(key, set()).add(run_id)
        if query.full_table_write:
            self.table_fullw.setdefault(table, set()).add(run_id)
        if query.read_set.is_all:
            self.table_all.setdefault(table, set()).add(run_id)
        for column, value in query.read_set.keys():
            touchers.setdefault((table, column, value), set()).add(run_id)

    def unindex_run(self, run: AppRunRecord) -> None:
        """Drop every edge contributed by ``run`` (gc, replace_run)."""
        run_id = run.run_id
        for query in run.queries:
            table = query.table
            self._discard(self.table_touchers, table, run_id)
            self._discard(self.table_writers, table, run_id)
            self._discard(self.table_all, table, run_id)
            self._discard(self.table_fullw, table, run_id)
            for key in query.written_partitions:
                self._discard(self.key_writers, key, run_id)
                self._discard(self.key_touchers, key, run_id)
            for column, value in query.read_set.keys():
                self._discard(self.key_touchers, (table, column, value), run_id)

    @staticmethod
    def _discard(buckets: Dict, key, run_id: int) -> None:
        bucket = buckets.get(key)
        if bucket is not None:
            bucket.discard(run_id)
            if not bucket:
                del buckets[key]

    # -- read API (used by repair-group discovery) -------------------------

    def writers_of_key(self, key: PartitionKey) -> Set[int]:
        return self.key_writers.get(key, _EMPTY_SET)

    def touchers_of_key(self, key: PartitionKey) -> Set[int]:
        return self.key_touchers.get(key, _EMPTY_SET)

    def writers_of_table(self, table: str) -> Set[int]:
        return self.table_writers.get(table, _EMPTY_SET)

    def touchers_of_table(self, table: str) -> Set[int]:
        return self.table_touchers.get(table, _EMPTY_SET)

    def all_readers_of_table(self, table: str) -> Set[int]:
        return self.table_all.get(table, _EMPTY_SET)

    def full_writers_of_table(self, table: str) -> Set[int]:
        return self.table_fullw.get(table, _EMPTY_SET)


class RecordStore:
    """Primary record maps plus the secondary indexes repair relies on."""

    def __init__(
        self,
        wal: Optional[RecordWal] = None,
        fault_plane: Optional[FaultPlane] = None,
    ) -> None:
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        self.runs: Dict[int, AppRunRecord] = {}
        #: Run ids in append order (replacement preserves position).
        self._run_order: List[int] = []
        self.visits: Dict[Tuple[str, int], VisitRecord] = {}
        self._client_visits: Dict[str, List[int]] = {}
        #: (client_id, visit_id, request_id) -> run_id
        self.request_map: Dict[Tuple[str, int, int], int] = {}
        self.patches: List[PatchRecord] = []
        #: Running total of recorded queries (kept so ``n_queries`` is O(1)).
        self.query_count = 0
        #: Highest timestamp and query id of any record ever inserted: what
        #: a reloaded deployment's clock and id counter must move past,
        #: kept here so a load need not walk the history again to find them.
        self.max_ts = 0
        self.max_qid = 0

        # -- eagerly maintained secondary indexes -----------------------------
        self._runs_by_visit: Dict[Tuple[str, int], List[int]] = {}
        #: file -> sorted [(ts_end, run_id), ...]
        self._runs_by_file: Dict[str, List[Tuple[int, int]]] = {}
        #: Highest visit id ever seen per client (survives gc/quota; a
        #: returning browser must never reuse a recorded visit id).
        self._client_visit_hwm: Dict[str, int] = {}
        #: (client_id, parent_visit_id) -> child visit ids — visit
        #: cancellation walks the navigation tree in O(descendants).
        self._visit_children: Dict[Tuple[str, int], List[int]] = {}
        #: client_id -> run ids in append order — cancel_client touches
        #: only the client's runs, not the whole workload.
        self._client_runs: Dict[str, List[int]] = {}

        #: Partition-touch connectivity (eager): repair-group discovery
        #: walks taint-connected components through these sets instead of
        #: scanning the run log.
        self.touch = TouchIndex()

        # -- partition buckets, each built on its first lookup ----------------
        #: Time-ordered ``(ts, qid, query)`` lists, keyed by what they hold:
        #: a ``(table, column, value)`` key's queries, a table's ALL bucket
        #: under ``(table,)`` and all of its queries under ``table``.
        self._buckets: Dict[object, List[Tuple[int, int, QueryRecord]]] = {}
        #: Wall-clock seconds spent building buckets (Table 7 "Graph"), and
        #: the queries those builds looked at.
        self.index_build_seconds = 0.0
        self.index_build_queries = 0

        #: Requests the online-repair gate queued but has not re-applied
        #: yet (ticket -> journaled entry); normally drained at finalize,
        #: non-empty only after a crash mid-repair.
        self.pending_gate_queue: Dict[int, dict] = {}
        self._applied_gate_tickets: Set[int] = set()

        #: Repair jobs that started but never recorded an end (job_id ->
        #: journaled entry).  Normally empty — every terminal status logs
        #: an end — so a survivor after reload means the process died
        #: mid-repair and the administrator should re-submit the spec
        #: (the aborted generation itself never becomes visible).
        self.pending_repair_jobs: Dict[str, dict] = {}
        self._ended_repair_jobs: Set[str] = set()

        #: Detector incidents by id — full lifecycle records (``open`` →
        #: ``repairing`` → ``resolved``/``dismissed``) carrying the
        #: suspect visit, derived repair spec, and last blast-radius
        #: preview.  Journaled (``incident``/``incident_update``) so a
        #: flagged visit's state survives save/load and crash recovery.
        self.incidents: Dict[str, dict] = {}

        # -- striped locking ---------------------------------------------------
        # Lock-order contract (DESIGN.md "Striped store locking"): writers
        # hold ``records`` for the whole mutation and take ``touch`` /
        # ``qindex`` nested inside it; a thread holding several stripes must
        # have acquired them in records → touch → qindex order (skipping
        # stripes is fine, acquiring backwards is not).  Readers take the
        # narrowest stripe covering every structure they read: TouchIndex
        # walks need only ``touch``, partition-bucket merges need ``records``
        # + ``qindex`` (a bucket build reads the TouchIndex and the runs,
        # which only ``records`` holders mutate).  Reentrant: replay/gc
        # call other mutators.
        self._records_lock = threading.RLock()
        self._touch_lock = threading.RLock()
        self._qindex_lock = threading.RLock()

        self.wal = wal
        #: The ``text`` entries of the current log segment (snapshot format
        #: 5): guarded by ``records``, rebuilt by every snapshot to exactly
        #: the entries its runs refer to.
        self.texts = TextTable()
        #: Whether every entry of ``texts`` is one a stored run refers to —
        #: so that a snapshot need not read the runs' lines to know which
        #: entries to write.  Dropped by whatever may leave an entry unused
        #: (runs removed, entries replayed), restored by the next snapshot.
        self._texts_exact = True
        #: Size-triggered rotation: when the WAL grows past ``rotate_bytes``
        #: appended bytes, ``rotate_hook`` is invoked (outside all store
        #: locks) after the triggering mutation commits.  The hook —
        #: installed by :class:`repro.warp.WarpSystem` — snapshots the
        #: deployment and truncates the log.
        self.rotate_bytes: Optional[int] = None
        self.rotate_hook = None
        #: Degraded read-only serving (health monitor): journal entries
        #: that cannot reach disk are parked in the WAL instead of raising
        #: — read-path bookkeeping (the runs of reads, visit logs) keeps
        #: flowing while writes are refused upstream.  ``_finish`` counts
        #: the entries it let through unsynced so the operator can see the
        #: exposure on the health endpoint.
        self.relaxed_durability = False
        #: Optional bound on how long ``_finish`` waits for a group commit
        #: before declaring the mutation non-durable.
        self.durability_timeout: Optional[float] = None
        self.unsynced_mutations = 0

    @property
    def lock(self) -> threading.RLock:
        """The store's primary (``records``) mutation lock, for read paths
        that must iterate runs/indexes consistently while request threads
        append (e.g. the repair-plan preview, which runs ungated during
        live traffic).  Every writer holds it for the whole mutation."""
        return self._records_lock

    def touch_summary(self) -> dict:
        """Compact, JSON-serializable image of the touch index grouped by
        client — what a shard ships to the coordinator so distributed
        repair can plan taint-connected clusters over the *union* of all
        shards' connectivity without shipping run logs.

        Partition keys travel as ``[table, column, value]`` triples;
        ``reads`` holds every touched key (writers included — the planner
        treats writes separately), ``all_reads``/``full_writes`` the
        tables with un-narrowable read/write sets.  Runs recorded without
        a client id cannot carry cross-shard taint (taint flows through
        client identity once databases are disjoint) and are skipped.
        """
        with self.lock:
            clients: Dict[str, dict] = {}

            def bucket(client_id: str) -> dict:
                return clients.setdefault(
                    client_id,
                    {
                        "runs": 0,
                        "writes": set(),
                        "reads": set(),
                        "all_reads": set(),
                        "full_writes": set(),
                        "tables_written": set(),
                    },
                )

            for client_id, run_ids in self._client_runs.items():
                if run_ids:
                    bucket(client_id)["runs"] = len(run_ids)
            touch = self.touch
            for field, index in (
                ("writes", touch.key_writers),
                ("reads", touch.key_touchers),
                ("all_reads", touch.table_all),
                ("full_writes", touch.table_fullw),
                ("tables_written", touch.table_writers),
            ):
                for key, run_ids in index.items():
                    for run_id in run_ids:
                        run = self.runs.get(run_id)
                        if run is not None and run.client_id is not None:
                            bucket(run.client_id)[field].add(key)
            return {
                "n_runs": len(self.runs),
                "clients": {
                    client_id: {
                        "runs": entry["runs"],
                        "writes": sorted(
                            (list(key) for key in entry["writes"]), key=repr
                        ),
                        "reads": sorted(
                            (list(key) for key in entry["reads"]), key=repr
                        ),
                        "all_reads": sorted(entry["all_reads"]),
                        "full_writes": sorted(entry["full_writes"]),
                        "tables_written": sorted(entry["tables_written"]),
                    }
                    for client_id, entry in clients.items()
                },
            }

    # -- commit plumbing ----------------------------------------------------

    def _finish(
        self, ticket: Optional[CommitTicket], relaxed: Optional[bool] = None
    ) -> None:
        """Wait (outside every stripe) until the mutation's journal entry
        is durable, then fire size-triggered rotation if the log has grown
        past its bound.  This wait is where the entry is written and where
        concurrent writers share one fsync; the stripes are never held
        across it.

        A False from ``wait`` — timed-out group commit, closed log, or a
        write parked behind a disk failure — means the entry is NOT on
        disk: the mutation must not be acknowledged, so this raises
        :class:`DurabilityError` (unless the store is in relaxed mode,
        where the health monitor has already flipped serving read-only
        and parked entries will be re-synced by ``heal``).

        ``relaxed`` is the caller's snapshot of ``relaxed_durability``
        taken *before* journaling.  The WAL's degrade callback fires from
        inside the failing commit, so by the time the triggering
        mutation's wait returns False the live flag is already True —
        reading it here would falsely acknowledge the very write that
        broke the log.  Degradation only excuses mutations that started
        after it."""
        if ticket is None:
            return
        if relaxed is None:
            relaxed = self.relaxed_durability
        if not ticket.wait(self.durability_timeout):
            self.unsynced_mutations += 1
            if not relaxed:
                wal = self.wal
                detail = "group commit timed out or log closed"
                if wal is not None and wal.last_error is not None:
                    detail = repr(wal.last_error)
                raise DurabilityError(
                    f"journal entry did not reach disk ({detail}); "
                    "mutation applied in memory but not acknowledged"
                )
        wal = self.wal
        if (
            self.rotate_hook is not None
            and wal is not None
            and self.rotate_bytes is not None
            and wal.appended_bytes >= self.rotate_bytes
        ):
            self.rotate_hook()

    # ------------------------------------------------------------------ writes

    def add_run(self, run: AppRunRecord) -> None:
        # Snapshot relaxed mode before journaling: this is the write-ack
        # path, and the append below may itself be the one that trips the
        # WAL into the failed state (see _finish).
        relaxed = self.relaxed_durability
        self._finish(self._add_run_nowait(run), relaxed)

    def _add_run_nowait(self, run: AppRunRecord) -> Optional[CommitTicket]:
        with self._records_lock:
            self._insert_run(run)
            # Encoded once — the text is the WAL line's data now, the
            # snapshot line's later — under the stripe, so the text entries
            # it defines are journaled before any line using them, and after
            # the insert, so an entry is never defined for a run not stored.
            if self.wal is not None:
                self._encode(run)
            run.payloads = None  # encoded or not: a stored run refers into no cache
            # Journaled under the records stripe so WAL order equals store
            # order; the fsync wait happens in _finish, outside every lock.
            if self.wal is not None:
                return self._journal_run("run", run.json_text)
        return None

    def _encode(self, run: AppRunRecord) -> None:
        """Give ``run`` its text, and its body the table's copy: one string
        per distinct body, live as after a reload (and a save's lookup of
        it finds the very key).  Caller holds ``records``."""
        run.json_text = run.encode(self.texts)
        run.response.body = self.texts.shared(run.response.body)

    def _journal_run(self, kind: str, text: str) -> CommitTicket:
        """Append a run line and, first, the ``text`` entries its encoding
        defined.  Caller holds ``records``."""
        for ident in self.texts.take_fresh():
            self.wal.append("text", text=self.texts.entry(ident))
        return self.wal.append(kind, text=text)

    def _insert_run(self, run: AppRunRecord) -> None:
        self.faults.fire("store.insert_run", run_id=run.run_id)
        self.runs[run.run_id] = run
        self._run_order.append(run.run_id)
        self.query_count += len(run.queries)
        key = run.browser_key()
        if key is not None:
            self._runs_by_visit.setdefault(key, []).append(run.run_id)
            self._note_visit_id(run.client_id, run.visit_id)
            if run.request_id is not None:
                self.request_map[key + (run.request_id,)] = run.run_id
        if run.client_id is not None:
            self._client_runs.setdefault(run.client_id, []).append(run.run_id)
        self._index_run_files(run)
        self._note_high_water(run)
        with self._touch_lock:
            for query in run.queries:
                self.touch.index_query(query, run.run_id)
        # Keep the buckets built so far fresh; one built later finds the
        # run through the TouchIndex.  Tested outside ``qindex``: a bucket
        # is only built under ``records``, which this holds.
        if self._buckets:
            with self._qindex_lock:
                for query in run.queries:
                    self._index_query(query)

    def _note_high_water(self, run: AppRunRecord) -> None:
        ts, qid = max(self.max_ts, run.ts_end), self.max_qid
        for query in run.queries:
            if query.ts > ts:
                ts = query.ts
            if query.qid > qid:
                qid = query.qid
        self.max_ts, self.max_qid = ts, qid

    def add_runs(self, runs: Iterable[AppRunRecord]) -> None:
        """Bulk append: journal every run, wait once on the last ticket —
        under group commit a whole batch shares one fsync."""
        relaxed = self.relaxed_durability
        last = None
        for run in runs:
            ticket = self._add_run_nowait(run)
            if ticket is not None:
                last = ticket
        self._finish(last, relaxed)

    def add_visit(self, visit: VisitRecord) -> None:
        ticket = None
        with self._records_lock:
            self.visits[(visit.client_id, visit.visit_id)] = visit
            self.max_ts = max(self.max_ts, visit.ts)
            self._client_visits.setdefault(visit.client_id, []).append(visit.visit_id)
            self._note_visit_id(visit.client_id, visit.visit_id)
            if visit.parent_visit is not None:
                self._visit_children.setdefault(
                    (visit.client_id, visit.parent_visit), []
                ).append(visit.visit_id)
            if self.wal is not None:
                ticket = self.wal.append("visit", visit.to_dict())
        self._finish(ticket)

    # The extension keeps appending to an uploaded visit's record (events,
    # request ids, cookie snapshots) while the visit is live; it shares the
    # record object with the store, so these methods journal the *delta*
    # only — re-journaling the whole record per DOM event would make WAL
    # volume quadratic in the visit's event count.  Replay re-applies each
    # delta onto the base "visit" entry (or onto the snapshot's copy).

    def log_visit_event(self, client_id: str, visit_id: int, event: EventRecord) -> None:
        if self.wal is not None and (client_id, visit_id) in self.visits:
            self._finish(
                self.wal.append(
                    "visit_event",
                    {"client_id": client_id, "visit_id": visit_id, "event": event.to_dict()},
                )
            )

    def log_visit_request(self, client_id: str, visit_id: int, request_id: int) -> None:
        if self.wal is not None and (client_id, visit_id) in self.visits:
            self._finish(
                self.wal.append(
                    "visit_request",
                    {"client_id": client_id, "visit_id": visit_id, "request_id": request_id},
                )
            )

    def log_visit_cookies(self, client_id: str, visit_id: int, cookies_after) -> None:
        if self.wal is not None and (client_id, visit_id) in self.visits:
            self._finish(
                self.wal.append(
                    "visit_cookies",
                    {
                        "client_id": client_id,
                        "visit_id": visit_id,
                        "cookies_after": {k: dict(v) for k, v in cookies_after.items()},
                    },
                )
            )

    def mark_run_canceled(self, run_id: int) -> None:
        """Record that repair canceled (undid) this run — journaled so the
        cancellation survives recovery."""
        ticket = None
        with self._records_lock:
            run = self.runs.get(run_id)
            if run is None or run.canceled:
                return
            run.canceled = True
            # The one in-place mutation of an appended run, hence the one
            # place its kept text goes stale; the next save re-encodes it.
            run.json_text = None
            if self.wal is not None:
                ticket = self.wal.append("cancel_run", {"run_id": run_id})
        self._finish(ticket)

    def add_patch(self, patch: PatchRecord) -> None:
        ticket = None
        with self._records_lock:
            self.patches.append(patch)
            self.max_ts = max(self.max_ts, patch.apply_ts)
            if self.wal is not None:
                ticket = self.wal.append("patch", patch.to_dict())
        self._finish(ticket)

    # ------------------------------------------------------------------ gate queue

    def log_gate_queue(self, ticket: int, ts: int, request: dict) -> None:
        """Journal a request the online-repair gate queued; it must survive
        a crash until ``log_gate_apply`` records its re-application."""
        wal_ticket = None
        with self._records_lock:
            entry = {"ticket": ticket, "ts": ts, "request": request}
            self.pending_gate_queue[ticket] = entry
            if self.wal is not None:
                wal_ticket = self.wal.append("gate_queue", entry)
        self._finish(wal_ticket)

    def next_gate_ticket(self) -> int:
        """First ticket number not yet used by a queued or applied gate
        entry (tickets must stay unique across crash recovery)."""
        with self._records_lock:
            highest = max(self.pending_gate_queue, default=0)
            highest = max(highest, max(self._applied_gate_tickets, default=0))
            return highest + 1

    def log_gate_apply(self, ticket: int) -> None:
        """Journal that a queued request was re-applied (exactly once)."""
        wal_ticket = None
        with self._records_lock:
            if ticket in self._applied_gate_tickets:
                return
            self._applied_gate_tickets.add(ticket)
            self.pending_gate_queue.pop(ticket, None)
            if self.wal is not None:
                wal_ticket = self.wal.append("gate_apply", {"ticket": ticket})
        self._finish(wal_ticket)

    # ------------------------------------------------------------------ repair jobs

    def log_repair_job_start(self, job_id: str, spec: dict, ts: int) -> None:
        """Journal that a repair job began executing; it stays pending
        until :meth:`log_repair_job_end` so an interrupted job is visible
        after recovery."""
        ticket = None
        with self._records_lock:
            entry = {"job_id": job_id, "spec": spec, "ts": ts}
            self.pending_repair_jobs[job_id] = entry
            if self.wal is not None:
                ticket = self.wal.append("job_start", entry)
        self._finish(ticket)

    def log_repair_job_end(self, job_id: str, status: str) -> None:
        """Journal a job's terminal status (exactly once)."""
        ticket = None
        with self._records_lock:
            if job_id in self._ended_repair_jobs:
                return
            self._ended_repair_jobs.add(job_id)
            self.pending_repair_jobs.pop(job_id, None)
            if self.wal is not None:
                ticket = self.wal.append("job_end", {"job_id": job_id, "status": status})
        self._finish(ticket)

    def next_repair_job_seq(self) -> int:
        """First job sequence number not used by a pending or ended job
        (ids must stay unique across crash recovery)."""
        with self._records_lock:
            used = itertools.chain(self.pending_repair_jobs, self._ended_repair_jobs)
            return max(map(trailing_seq, used), default=0) + 1

    # ------------------------------------------------------------------ incidents

    def log_incident(self, entry: dict) -> None:
        """Journal a new detector incident (full record upsert).  The
        entry must carry ``incident_id``; everything else (suspect visit,
        rule, derived spec, preview) is opaque to the store."""
        ticket = None
        relaxed = self.relaxed_durability  # before journaling, as add_run
        with self._records_lock:
            self.incidents[entry["incident_id"]] = dict(entry)
            if self.wal is not None:
                ticket = self.wal.append("incident", entry)
        self._finish(ticket, relaxed)

    def log_incident_update(self, incident_id: str, fields: dict) -> None:
        """Journal a partial update (status flip, refreshed preview)
        merged over the stored incident.  Unknown ids are ignored — an
        update can race a snapshot that never saw the incident."""
        ticket = None
        relaxed = self.relaxed_durability  # before journaling, as add_run
        with self._records_lock:
            record = self.incidents.get(incident_id)
            if record is None:
                return
            record.update(fields)
            if self.wal is not None:
                ticket = self.wal.append(
                    "incident_update",
                    {"incident_id": incident_id, "fields": fields},
                )
        self._finish(ticket, relaxed)

    def next_incident_seq(self) -> int:
        """First incident sequence number not used by any recorded
        incident (ids must stay unique across crash recovery)."""
        with self._records_lock:
            return max(map(trailing_seq, self.incidents), default=0) + 1

    def replace_run(self, run_id: int, record: AppRunRecord) -> Optional[AppRunRecord]:
        """Swap the stored record for ``run_id`` with ``record`` in place.

        The caller must have already given ``record`` the old run's
        identity (run id, browser correlation, timestamps); the store
        keeps the run's position in append order and refreshes the
        file index.  Partition buckets referencing the old record stay
        stale until :meth:`invalidate_partition_indexes` — callers batch
        replacements and invalidate once.  Returns the old record, or
        None if ``run_id`` is unknown.
        """
        ticket = None
        with self._records_lock:
            old = self.runs.get(run_id)
            if old is None:
                return None
            if record.run_id != run_id:
                raise ValueError(
                    f"replacement record has run_id {record.run_id}, expected {run_id}"
                )
            self.runs[run_id] = record
            record.payloads = None
            self._texts_exact = False  # the old record's texts may go unused
            self.query_count += len(record.queries) - len(old.queries)
            self._unindex_run_files(old)
            self._index_run_files(record)
            self._note_high_water(record)
            with self._touch_lock:
                self.touch.unindex_run(old)
                for query in record.queries:
                    self.touch.index_query(query, run_id)
            if self.wal is not None:
                self._encode(record)
                ticket = self._journal_run("replace_run", record.json_text)
        self._finish(ticket)
        return old

    def invalidate_partition_indexes(self) -> None:
        """Drop the partition buckets (records changed under them); the
        next ``queries_touching`` rebuilds the ones it asks for."""
        with self._qindex_lock:
            self._buckets.clear()

    # ------------------------------------------------------------------ lookups

    def runs_in_order(self) -> List[AppRunRecord]:
        return [self.runs[run_id] for run_id in self._run_order]

    def run_for_request(
        self, client_id: str, visit_id: int, request_id: int
    ) -> Optional[AppRunRecord]:
        run_id = self.request_map.get((client_id, visit_id, request_id))
        return self.runs.get(run_id) if run_id is not None else None

    def runs_of_visit(self, client_id: str, visit_id: int) -> List[AppRunRecord]:
        ids = self._runs_by_visit.get((client_id, visit_id), [])
        return [self.runs[run_id] for run_id in ids]

    def visit_of_run(self, run: AppRunRecord) -> Optional[VisitRecord]:
        key = run.browser_key()
        if key is None:
            return None
        return self.visits.get(key)

    def client_visits(self, client_id: str) -> List[VisitRecord]:
        ids = self._client_visits.get(client_id, [])
        return [self.visits[(client_id, visit_id)] for visit_id in ids]

    def client_runs(self, client_id: str) -> List[AppRunRecord]:
        """All runs this client's browser issued, in append order."""
        ids = self._client_runs.get(client_id, [])
        return [self.runs[run_id] for run_id in ids]

    def child_visits(self, client_id: str, visit_id: int) -> List[VisitRecord]:
        """Visits whose ``parent_visit`` is ``visit_id`` (navigations the
        parent page's events caused), in recording order."""
        ids = self._visit_children.get((client_id, visit_id), [])
        return [
            self.visits[(client_id, child_id)]
            for child_id in ids
            if (client_id, child_id) in self.visits
        ]

    def last_visit_id(self, client_id: str) -> int:
        """Highest visit id ever recorded for this client (0 if none)."""
        return self._client_visit_hwm.get(client_id, 0)

    def _note_visit_id(self, client_id, visit_id) -> None:
        if client_id is None or visit_id is None:
            return
        if visit_id > self._client_visit_hwm.get(client_id, 0):
            self._client_visit_hwm[client_id] = visit_id

    def _unlink_child(self, visit: VisitRecord) -> None:
        if visit.parent_visit is None:
            return
        key = (visit.client_id, visit.parent_visit)
        children = self._visit_children.get(key)
        if children is not None:
            if visit.visit_id in children:
                children.remove(visit.visit_id)
            if not children:
                del self._visit_children[key]

    def runs_loading_file(self, file: str, since_ts: int) -> List[AppRunRecord]:
        """Runs whose input dependencies include source file ``file`` with
        ``ts_end >= since_ts``, in ts_end order (retroactive patching,
        paper §3.2)."""
        bucket = self._runs_by_file.get(file, [])
        start = bisect.bisect_left(bucket, (since_ts,))
        return [self.runs[run_id] for _, run_id in bucket[start:]]

    # ------------------------------------------------------------------ partition index

    def queries_touching(
        self,
        table: str,
        keys: Iterable[PartitionKey],
        since_ts: int,
        whole_table: bool = False,
    ) -> List[QueryRecord]:
        """Candidate queries that may read or write the given partitions
        strictly after ``since_ts``, in timestamp order.  Buckets are kept
        time-ordered, so this is a heap merge of pre-sorted runs of
        answers — no per-call sort.  Callers re-check precisely.

        Takes ``records`` before ``qindex`` (lock-order contract): a bucket
        build reads the TouchIndex and the runs, and acquiring records
        *after* qindex would deadlock against a writer holding records."""
        with self._records_lock, self._qindex_lock:
            if whole_table:
                buckets = [self._bucket(table)]
            else:
                buckets = [self._bucket(key) for key in keys]
                buckets.append(self._bucket((table,)))
            return merge_bucket_tails(buckets, since_ts)

    def _bucket(self, name) -> List[Tuple[int, int, QueryRecord]]:
        """The bucket ``name`` (a partition key, ``(table,)`` or ``table``),
        built on first use from the queries of exactly the runs the
        TouchIndex lists for it, then sorted once."""
        bucket = self._buckets.get(name)
        if bucket is not None:
            return bucket
        started = _time.perf_counter()
        touch = self.touch
        if isinstance(name, str):
            run_ids = touch.touchers_of_table(name)
            wanted = lambda query: query.table == name
        elif len(name) == 1:
            table = name[0]
            run_ids = touch.all_readers_of_table(table) | touch.full_writers_of_table(table)
            wanted = lambda query: query.table == table and in_all_bucket(query)
        else:
            run_ids = touch.touchers_of_key(name)
            wanted = lambda query: touches_key(query, name)
        bucket = []
        for run_id in run_ids:
            queries = self.runs[run_id].queries
            self.index_build_queries += len(queries)
            bucket += [(query.ts, query.qid, query) for query in queries if wanted(query)]
        bucket.sort()
        self._buckets[name] = bucket
        self.index_build_seconds += _time.perf_counter() - started
        return bucket

    def _index_query(self, query: QueryRecord) -> None:
        """Insert one query, in order, into the buckets already built."""
        table = query.table
        names = {table, *query.written_partitions}
        names.update([(table,) + k for k in query.read_set.keys()])
        if in_all_bucket(query):
            names.add((table,))
        entry = (query.ts, query.qid, query)
        for name in names:
            bucket = self._buckets.get(name)
            if bucket is not None:
                bisect.insort(bucket, entry)

    # ------------------------------------------------------------------ file index

    def _index_run_files(self, run: AppRunRecord) -> None:
        for file in run.loaded_files:
            bisect.insort(self._runs_by_file.setdefault(file, []), (run.ts_end, run.run_id))

    def _unindex_run_files(self, run: AppRunRecord) -> None:
        for file in run.loaded_files:
            bucket = self._runs_by_file.get(file)
            if bucket is None:
                continue
            pos = bisect.bisect_left(bucket, (run.ts_end, run.run_id))
            if pos < len(bucket) and bucket[pos] == (run.ts_end, run.run_id):
                bucket.pop(pos)
            if not bucket:
                del self._runs_by_file[file]

    # ------------------------------------------------------------------ quota / gc

    def enforce_client_quota(self, max_visits_per_client: int) -> int:
        """Each client's uploaded browser log has its own storage quota, so
        one client cannot monopolize log space or evict other users' recent
        entries (paper §5.2).  Oldest visit logs beyond the quota are
        dropped in one pass per client (their server-side run records
        remain)."""
        ticket = None
        with self._records_lock:
            dropped, ticket = self._enforce_client_quota(max_visits_per_client)
        self._finish(ticket)
        return dropped

    def _enforce_client_quota(
        self, max_visits_per_client: int
    ) -> Tuple[int, Optional[CommitTicket]]:
        dropped = 0
        for client_id, visit_ids in self._client_visits.items():
            excess = len(visit_ids) - max_visits_per_client
            if excess <= 0:
                continue
            victims = set(
                sorted(visit_ids, key=lambda vid: self.visits[(client_id, vid)].ts)[
                    :excess
                ]
            )
            for visit_id in victims:
                self._unlink_child(self.visits.pop((client_id, visit_id)))
            visit_ids[:] = [vid for vid in visit_ids if vid not in victims]
            dropped += len(victims)
        ticket = None
        if dropped and self.wal is not None:
            ticket = self.wal.append(
                "quota", {"max_visits_per_client": max_visits_per_client}
            )
        return dropped, ticket

    def gc(self, horizon_ts: int) -> int:
        """Drop runs and visits that ended before ``horizon_ts``.

        Single pass over the run log plus a single pass over visits; visit
        liveness ("does any run of this visit survive?") is answered from
        the ``(client, visit)`` index instead of rescanning all runs.
        """
        ticket = None
        with self._records_lock:
            removed, ticket = self._gc(horizon_ts)
        self._finish(ticket)
        return removed

    def _gc(self, horizon_ts: int) -> Tuple[int, Optional[CommitTicket]]:
        removed = 0
        keep_order: List[int] = []
        dead_runs: List[AppRunRecord] = []
        for run_id in self._run_order:
            run = self.runs[run_id]
            if run.ts_end < horizon_ts:
                dead_runs.append(run)
            else:
                keep_order.append(run_id)
        self._run_order = keep_order
        if dead_runs:
            self._texts_exact = False
        dead_runs_by_client: Dict[str, Set[int]] = {}
        for run in dead_runs:
            removed += 1
            del self.runs[run.run_id]
            self.query_count -= len(run.queries)
            self._unindex_run_files(run)
            with self._touch_lock:
                self.touch.unindex_run(run)
            if run.client_id is not None:
                dead_runs_by_client.setdefault(run.client_id, set()).add(run.run_id)
            key = run.browser_key()
            if key is not None:
                ids = self._runs_by_visit.get(key)
                if ids is not None:
                    ids.remove(run.run_id)
                    if not ids:
                        del self._runs_by_visit[key]
                if run.request_id is not None:
                    map_key = key + (run.request_id,)
                    if self.request_map.get(map_key) == run.run_id:
                        del self.request_map[map_key]
        for client_id, gone in dead_runs_by_client.items():
            ids = self._client_runs.get(client_id, [])
            ids[:] = [run_id for run_id in ids if run_id not in gone]
            if not ids:
                self._client_runs.pop(client_id, None)

        dead_by_client: Dict[str, Set[int]] = {}
        for key, visit in list(self.visits.items()):
            if visit.ts < horizon_ts and not self._runs_by_visit.get(key):
                del self.visits[key]
                self._unlink_child(visit)
                dead_by_client.setdefault(visit.client_id, set()).add(visit.visit_id)
                removed += 1
        for client_id, gone in dead_by_client.items():
            ids = self._client_visits.get(client_id, [])
            ids[:] = [vid for vid in ids if vid not in gone]
            if not ids:
                self._client_visits.pop(client_id, None)

        # Partition buckets may reference dropped queries; rebuild lazily.
        self.invalidate_partition_indexes()
        ticket = None
        if removed and self.wal is not None:
            ticket = self.wal.append("gc", {"horizon_ts": horizon_ts})
        return removed, ticket

    # ------------------------------------------------------------------ durability

    def _pending_snapshot(self) -> dict:
        """The non-record state a snapshot carries (queued gate requests,
        interrupted repair jobs, incidents).  Caller holds ``records``."""
        pending = {}
        if self.pending_gate_queue:
            pending["gate_queue"] = [
                self.pending_gate_queue[ticket]
                for ticket in sorted(self.pending_gate_queue)
            ]
        if self.pending_repair_jobs:
            pending["repair_jobs"] = [
                self.pending_repair_jobs[job_id]
                for job_id in sorted(self.pending_repair_jobs)
            ]
        if self.incidents:
            pending["incidents"] = [
                self.incidents[incident_id] for incident_id in sorted(self.incidents)
            ]
        return pending

    def to_snapshot(self) -> dict:
        """Image of all primary records as one plain-JSON dict (indexes
        are derived state and are rebuilt on load).  This is the view
        tests and tools compare; :meth:`commit_snapshot` persists the same
        content without ever building it."""
        with self._records_lock:
            snapshot = {
                "runs": [self.runs[run_id].to_dict() for run_id in self._run_order],
                "visits": [visit.to_dict() for visit in self.visits.values()],
                "patches": [patch.to_dict() for patch in self.patches],
            }
            snapshot.update(self._pending_snapshot())
            return snapshot

    @classmethod
    def from_snapshot(
        cls,
        data: dict,
        wal: Optional[RecordWal] = None,
        records: Iterable[Tuple[str, dict, Optional[str]]] = (),
        last_text_id: int = 0,
    ) -> "RecordStore":
        """Build a store from a snapshot's ``graph`` object plus its
        stream of ``(kind, data, text)`` record lines, inserting one record
        at a time: visits come first, then text entries, then runs, then
        patches; one :class:`DecodeMemo` spans the build.  ``last_text_id``
        is the header's ``ids.text``: the table's counter, which entries
        dropped since may have passed."""
        store = cls()
        store.texts.last_id = last_text_id
        memo = DecodeMemo(store.texts)
        for kind, item, text in records:
            if kind == "run":
                store.add_run(AppRunRecord.from_dict(item, text, memo))
            elif kind == "visit":
                store.add_visit(VisitRecord.from_dict(item, memo))
            elif kind == "patch":
                store.add_patch(PatchRecord.from_dict(item))
            elif kind == "text":
                store.texts.define(item["id"], item["text"])
            else:
                raise ReproError(f"snapshot holds a record of unknown kind {kind!r}")
        for item in data.get("gate_queue", ()):
            store.pending_gate_queue[item["ticket"]] = item
        for item in data.get("repair_jobs", ()):
            store.pending_repair_jobs[item["job_id"]] = item
        for item in data.get("incidents", ()):
            store.incidents[item["incident_id"]] = dict(item)
        store.wal = wal
        return store

    def save_snapshot(self, path: str) -> None:
        """Write a snapshot; the attached WAL (if any) is truncated since
        the snapshot now covers everything it journaled."""
        self.commit_snapshot(path, {})

    def _snapshot_texts(self) -> List[int]:
        """Give every run its text — a run that has none yet (appended
        without a WAL, canceled since)
        is encoded now — and return the ids of exactly the text entries
        the runs refer to, in order.  Caller holds ``records``."""
        runs = self.runs.values()
        for run in runs:
            if run.json_text is None:
                self._encode(run)
        if self._texts_exact:
            return sorted(self.texts.by_id)
        # Read off the kept lines (one C parse each), not re-encoded: a save
        # after gc, replace_run or a replay visits each line of the history.
        used = set()
        for line in map(json.loads, map(_json_text, runs)):
            used.update(text_refs(line))
        return sorted(used)

    def _record_lines(self, text_ids: List[int]) -> Iterator[str]:
        """Every record as its snapshot line: visits, the text entries
        ``text_ids``, then the runs, each spliced from the text kept since
        it was appended — its bytes are written once — then patches."""
        for visit in self.visits.values():
            yield entry_line("visit", visit.encode())
        for ident in text_ids:
            yield entry_line("text", self.texts.entry(ident))
        for run_id in self._run_order:
            yield entry_line("run", self.runs[run_id].json_text)
        for patch in self.patches:
            yield entry_line("patch", patch.encode())

    def commit_snapshot(self, path: str, payload: dict) -> str:
        """Write a format-5 snapshot (:mod:`repro.store.snapshot`) — the
        header is ``payload`` plus a fresh ``snapshot_id``, the text-id
        counter (``ids.text``), the pending state and the record counts,
        the lines are the records — under the
        marker pairing protocol: the id is journaled before the write
        and again after the WAL truncation, so ``replay_wal`` can refuse a
        WAL truncated against a different snapshot and a crash anywhere in
        between replays nothing the snapshot already covers.  The id
        carries a random nonce — two saves of identical-looking state must
        never share an id, or a crash between the second save's pre-write
        marker and its snapshot write would make recovery skip entries
        that only the *first* snapshot (still on disk) lacks.

        Runs under the records stripe so no mutation can journal between
        the pre-write marker and the truncation — an entry landing in that
        window would be dropped by the truncate without being in the
        snapshot (this is what makes mid-traffic WAL rotation safe) — and
        the records are read under the same hold, so the file is exactly
        the store the markers bracket.  The pre-write marker is waited
        durable *before* the snapshot file is written: under group commit,
        a crash after the snapshot lands but before the marker reaches
        disk would otherwise leave a WAL whose tail predates the snapshot
        with no marker tying them together, and recovery would refuse the
        pair."""
        with self._records_lock:
            snapshot_id = (
                f"{len(self._run_order)}-{len(self.visits)}-{os.urandom(8).hex()}"
            )
            if self.wal is not None:
                marker = self.wal.append(
                    "snapshot_marker", {"snapshot_id": snapshot_id}
                )
                if not marker.wait(self.durability_timeout):
                    # A snapshot whose pre-write marker is not on disk must
                    # not be written: recovery could not tie the truncated
                    # WAL to it.  Abort before touching the snapshot file.
                    raise DurabilityError(
                        "snapshot marker did not reach the log; snapshot aborted"
                    )
            self.faults.fire("store.snapshot", path=path)
            text_ids = self._snapshot_texts()
            header = {
                "version": FORMAT,
                **payload,
                "ids": {**payload.get("ids", {}), "text": self.texts.last_id},
                "snapshot_id": snapshot_id,
                "graph": self._pending_snapshot(),
                "records": {
                    "visit": len(self.visits),
                    "text": len(text_ids),
                    "run": len(self._run_order),
                    "patch": len(self.patches),
                },
            }
            write_snapshot(path, header, self._record_lines(text_ids))
            # The file holds a new segment's entries: the table follows only
            # now, so a failed write leaves every entry the WAL still needs.
            self.texts.keep(text_ids)
            self._texts_exact = True
            if self.wal is not None:
                self.wal.truncate()
                # Waited durable so the truncated WAL is never observable
                # without the marker tying it to this snapshot.  truncate()
                # resets a failed log, so a False here is a fresh failure:
                # the snapshot file is already written and valid, but the
                # caller must know the log is sick again.
                marker = self.wal.append(
                    "snapshot_marker", {"snapshot_id": snapshot_id}
                )
                if not marker.wait(self.durability_timeout):
                    raise DurabilityError(
                        "post-truncate snapshot marker did not reach the log"
                    )
        return snapshot_id

    @classmethod
    def recover(
        cls, snapshot_path: Optional[str] = None, wal_path: Optional[str] = None
    ) -> "RecordStore":
        """Rebuild a store from the last snapshot plus WAL replay."""
        with gc_paused():
            snapshot_id = None
            if snapshot_path is not None and os.path.exists(snapshot_path):
                with SnapshotReader(snapshot_path) as snapshot:
                    header = snapshot.header
                    store = cls.from_snapshot(
                        header["graph"],
                        records=snapshot.records(),
                        last_text_id=header.get("ids", {}).get("text", 0),
                    )
                snapshot_id = header.get("snapshot_id")
            else:
                store = cls()
            if wal_path is not None:
                store.replay_wal(wal_path, snapshot_id=snapshot_id)
        return store

    def replay_wal(
        self,
        wal_path: str,
        snapshot_id: Optional[str] = None,
        wal_options: Optional[dict] = None,
    ) -> int:
        """Replay journaled entries onto this store, then attach the WAL
        for future appends (attachment must come last so replayed entries
        are not re-journaled).  ``wal_options`` are passed to the fresh
        :class:`RecordWal` (its durability survives a reload).
        Returns the number of entries applied.

        ``snapshot_id`` ties replay to the snapshot the store was built
        from: ``save`` journals a ``snapshot_marker`` both before writing
        the snapshot and after truncating the log, so (a) a WAL truncated
        against a *different* snapshot is a hard error instead of a silent
        mismatched merge, and (b) a crash between snapshot write and WAL
        truncation replays only the entries after the marker — the ones
        the snapshot does not already contain.
        """
        # One decoding pass: the read that yields the entries also finds
        # where the intact prefix ends, which is all the attach needs.
        entries, intact_size = RecordWal.read(wal_path)
        start = 0
        marker_indexes = [
            index for index, (_, kind, _, _) in enumerate(entries) if kind == "snapshot_marker"
        ]
        if snapshot_id is not None and marker_indexes:
            matching = [
                index
                for index in marker_indexes
                if entries[index][2].get("snapshot_id") == snapshot_id
            ]
            if not matching:
                raise ReproError(
                    f"write-ahead log {wal_path!r} was truncated against a "
                    "different snapshot than the one being loaded"
                )
            start = matching[-1] + 1
        applied = 0
        memo = DecodeMemo(self.texts)
        for number, kind, data, text in entries[start:]:
            if kind == "snapshot_marker":
                continue
            try:
                self.apply_logged(kind, data, text, memo)
            except ReproError as exc:
                raise ReproError(f"write-ahead log {wal_path!r} line {number}: {exc}") from None
            applied += 1
        self.wal = RecordWal(wal_path, intact_size=intact_size, **(wal_options or {}))
        return applied

    def apply_logged(
        self, kind: str, data: dict, text: Optional[str] = None, memo: Optional[DecodeMemo] = None
    ) -> None:
        """Replay one WAL entry.  Replay must be idempotent: a crash
        between snapshot write and WAL truncation leaves entries in the
        log that the snapshot already covers.  ``text`` is the JSON ``data``
        was decoded from (a run keeps it), ``memo`` the replay's."""
        memo = memo or DecodeMemo(self.texts)
        if kind == "text":
            # The line that refers to it may be torn off, or skipped.
            self.texts.define(data["id"], data["text"])
            self._texts_exact = False
        elif kind == "run":
            record = AppRunRecord.from_dict(data, text, memo)
            if record.run_id not in self.runs:
                self.add_run(record)
        elif kind == "visit":
            # Upsert: over a snapshot that already holds the visit, replay
            # resets it to the base record and the delta entries that
            # follow rebuild the accumulated state — convergent either way.
            record = VisitRecord.from_dict(data, memo)
            key = (record.client_id, record.visit_id)
            if key in self.visits:
                self.visits[key] = record
            else:
                self.add_visit(record)
        elif kind == "visit_event":
            record = self.visits.get((data["client_id"], data["visit_id"]))
            if record is not None:
                record.events.append(EventRecord.from_dict(data["event"], memo))
        elif kind == "visit_request":
            record = self.visits.get((data["client_id"], data["visit_id"]))
            if record is not None:
                record.request_ids.append(data["request_id"])
        elif kind == "visit_cookies":
            record = self.visits.get((data["client_id"], data["visit_id"]))
            if record is not None:
                record.cookies_after = {
                    k: dict(v) for k, v in data["cookies_after"].items()
                }
        elif kind == "cancel_run":
            self.mark_run_canceled(data["run_id"])
        elif kind == "patch":
            record = PatchRecord.from_dict(data)
            if not any(
                p.file == record.file
                and p.new_version == record.new_version
                and p.apply_ts == record.apply_ts
                for p in self.patches
            ):
                self.add_patch(record)
        elif kind == "replace_run":
            record = AppRunRecord.from_dict(data, text, memo)
            if self.replace_run(record.run_id, record) is None:
                self.add_run(record)
        elif kind == "quota":
            self.enforce_client_quota(data["max_visits_per_client"])
        elif kind == "gc":
            self.gc(data["horizon_ts"])
        elif kind == "gate_queue":
            # Idempotent: re-replaying over a snapshot that already applied
            # (or already holds) the ticket must not resurrect/duplicate it.
            ticket = data["ticket"]
            if ticket not in self._applied_gate_tickets:
                self.pending_gate_queue.setdefault(ticket, data)
        elif kind == "gate_apply":
            self._applied_gate_tickets.add(data["ticket"])
            self.pending_gate_queue.pop(data["ticket"], None)
        elif kind == "job_start":
            # Idempotent: re-replay must not resurrect an ended job.
            job_id = data["job_id"]
            if job_id not in self._ended_repair_jobs:
                self.pending_repair_jobs.setdefault(job_id, data)
        elif kind == "job_end":
            self._ended_repair_jobs.add(data["job_id"])
            self.pending_repair_jobs.pop(data["job_id"], None)
        elif kind == "incident":
            # Upsert + chronological merge converge on re-replay over a
            # snapshot that already holds the incident.
            self.incidents[data["incident_id"]] = dict(data)
        elif kind == "incident_update":
            record = self.incidents.get(data["incident_id"])
            if record is not None:
                record.update(data["fields"])
        else:
            # No build writes it; builds with the response cache wrote one
            # more kind, for a hit.
            raise ReproError(f"an entry of unknown kind {kind!r}; {UPGRADE_ROUTE}")
