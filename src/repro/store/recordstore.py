"""The action history graph (paper §2.1): an append-oriented record store
with maintained secondary indexes.

During normal execution recording appends to it; during repair the
controller asks it questions like "which runs loaded file F after time T?"
and "which recorded queries could read partition K after time T?".  The
store owns the primary record maps (runs, visits, patches) and every index
those questions need:

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
maintained eagerly at append time.  A repair's lookups share drain marks,
so a bucket hands each entry to one repair once: a key the repair
rewrites k times costs its tail once, not k times.

Mutations (``add_run``/``add_visit``/``add_patch``/``replace_runs``/``gc``/
``enforce_client_quota``, the graph half of ``WarpSystem.retain``) are
the public write API; when a
:class:`~repro.store.wal.RecordWal` is attached, each one is journaled so
the store can be rebuilt after a crash from snapshot + WAL replay
(``WarpSystem.load``: the snapshot's record lines, then the WAL tail,
each applied to the deployment's own store by
:meth:`RecordStore.apply_logged`).  Side state that must outlive the process
too — the gate queue, repair jobs, incidents — lives in three instances of
one :class:`JournaledTable`.

The store owns the log's :class:`~repro.core.serialize.TextTable` (snapshot
format 7): a run, a visit or a visit's delta is encoded against it under the
store lock, and the ``text`` entries the encoding defined are journaled just
before its line, so WAL order always puts an entry ahead of every line that
refers to it, however many threads first-use the same body, SQL text, row
payload, client id, URL or xpath at once.
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
    DELTA_ROWS,
    AppRunRecord,
    EventRecord,
    PatchRecord,
    QueryRecord,
    VisitRecord,
    decode_delta,
    encode_delta,
    text_refs,
    visit_text_refs,
)
from repro.core.errors import DurabilityError, ReproError
from repro.core.ids import trailing_seq
from repro.core.serialize import UPGRADE_ROUTE, DecodeMemo, TextTable
from repro.faults.plane import FaultPlane
from repro.faults.plane import active as _active_plane
from repro.store.snapshot import FORMAT, write_snapshot
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
# index_query`` / ``_edges``, the two helpers below and
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


#: One repair's drain marks: bucket name -> ``(bucket, length, mark)``,
#: the bucket list and its length when it had handed over every entry
#: with ``ts > mark``.  See :meth:`RecordStore.queries_touching`.
DrainMarks = Dict[object, Tuple[list, int, int]]


def merge_bucket_tails(
    named_buckets, since_ts: int, drained: DrainMarks
) -> List[QueryRecord]:
    """Distinct queries with ``ts > since_ts`` across pre-sorted
    ``(ts, qid, query)`` buckets, less what ``drained`` marks as handed
    over, in timestamp order: bisect each bucket's undrained tail,
    heap-merge, dedupe by qid — never a re-sort."""
    tails = []
    for name, bucket in named_buckets:
        size = end = len(bucket)
        held = drained.get(name)
        if held is not None and held[0] is bucket and held[1] == size:
            if since_ts >= held[2]:
                continue
            end = bisect.bisect_right(bucket, (held[2], _AFTER_ANY_QID))
        drained[name] = (bucket, size, since_ts)
        start = bisect.bisect_right(bucket, (since_ts, _AFTER_ANY_QID))
        if start < end:
            tails.append(bucket[start:end])
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

    @staticmethod
    def _edges(run: AppRunRecord) -> Set[Tuple[str, object]]:
        """``(index, key)`` of every set :meth:`index_query` lists ``run``
        in, the index named by its attribute."""
        edges: Set[Tuple[str, object]] = set()
        add = edges.add
        for query in run.queries:
            table = query.table
            add(("table_touchers", table))
            if query.is_write:
                add(("table_writers", table))
            for key in query.written_partitions:
                add(("key_writers", key))
                add(("key_touchers", key))
            if query.full_table_write:
                add(("table_fullw", table))
            if query.read_set.is_all:
                add(("table_all", table))
            for column, value in query.read_set.keys():
                add(("key_touchers", (table, column, value)))
        return edges

    def unindex_run(self, run: AppRunRecord) -> None:
        """Drop every edge contributed by ``run`` (gc)."""
        for name, key in self._edges(run):
            self._discard(getattr(self, name), key, run.run_id)

    def reindex_run(self, old: AppRunRecord, new: AppRunRecord) -> None:
        """Move one run's edges from its ``old`` record to its ``new`` one
        (a repair's replacement), touching only the sets that differ."""
        run_id = new.run_id
        before, after = self._edges(old), self._edges(new)
        for name, key in before - after:
            self._discard(getattr(self, name), key, run_id)
        for name, key in after - before:
            getattr(self, name).setdefault(key, set()).add(run_id)

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


class JournaledTable:
    """Keyed side state that must outlive the process — the online gate's
    queued requests, repair jobs, detector incidents — journaled through
    the store's WAL and carried in its snapshot header under ``name``.

    ``put`` stores an entry under its ``key`` field, ``update`` merges
    fields over a stored entry and ``close`` drops one for good, each
    journaled under the table's WAL kind for it.  Live mutations and
    replay go through :meth:`apply`, so replaying a log over a snapshot
    that already holds its entries converges."""

    def __init__(self, store, name, key, put_kind, close_kind=None, update_kind=None):
        self.store, self.name, self.key = store, name, key
        self.put_kind, self.close_kind = put_kind, close_kind
        self.update_kind = update_kind
        self.kinds = tuple(k for k in (put_kind, close_kind, update_kind) if k)
        self.entries: Dict[object, dict] = {}
        self._closed: Set[object] = set()

    def put(self, **entry) -> None:
        self._journal(self.put_kind, entry)

    def update(self, key, **fields) -> None:
        self._journal(self.update_kind, {self.key: key, "fields": fields})

    def close(self, key, **data) -> None:
        self._journal(self.close_kind, {self.key: key, **data})

    def next_seq(self) -> int:
        """First sequence number no stored or closed key uses (ids must
        stay unique across crash recovery)."""
        with self.store.lock:
            used = itertools.chain(self.entries, self._closed)
            return max((trailing_seq(str(key)) for key in used), default=0) + 1

    def apply(self, kind: str, data: dict) -> bool:
        """The one replay rule: a closed key never reopens, and an update
        to an unknown key (one a snapshot never saw) is ignored.  Returns
        whether ``data`` changed anything."""
        key = data[self.key]
        if key in self._closed:
            return False
        if kind == self.close_kind:
            self._closed.add(key)
            self.entries.pop(key, None)
        elif kind == self.put_kind:
            self.entries[key] = dict(data)
        else:
            entry = self.entries.get(key)
            if entry is None:
                return False
            entry.update(data["fields"])
        return True

    def _journal(self, kind: str, data: dict) -> None:
        store = self.store
        # Snapshot relaxed mode before journaling, as add_run: the append
        # below may be the one that trips the WAL into the failed state.
        relaxed = store.relaxed_durability
        ticket = None
        with store.lock:
            if not self.apply(kind, data):
                return
            if store.wal is not None:
                ticket = store.wal.append(kind, data)
        store._finish(ticket, relaxed)


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
        #: Running total of recorded queries (kept so reading it is O(1)).
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
        #: What retention dropped, for ``repro.repair.api.check_retained``:
        #: the horizon, each trimmed client's last visit id when trimmed,
        #: and the files the dropped runs loaded.
        self.horizon_ts = 0
        self.trimmed_clients: Dict[str, int] = {}
        self.dropped_files: Set[str] = set()
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
        #: yet, by ticket; normally drained at finalize, non-empty only
        #: after a crash mid-repair.
        self.gate_queue = JournaledTable(
            self, "gate_queue", "ticket", "gate_queue", close_kind="gate_apply"
        )
        #: Repair jobs that started but never ended, by job id: a survivor
        #: after reload means the process died mid-repair, and the
        #: administrator should re-submit the spec.
        self.repair_jobs = JournaledTable(
            self, "repair_jobs", "job_id", "job_start", close_kind="job_end"
        )
        #: Detector incidents by id — full lifecycle records (``open`` →
        #: ``repairing`` → ``resolved``/``dismissed``) carrying the
        #: suspect visit, derived repair spec, and last blast-radius
        #: preview; they never close.
        self.incidents = JournaledTable(
            self, "incidents", "incident_id", "incident", update_kind="incident_update"
        )
        #: In snapshot header order.
        self.tables = (self.gate_queue, self.repair_jobs, self.incidents)
        self._table_of_kind = {
            kind: table for table in self.tables for kind in table.kinds
        }

        #: The store's one mutation lock.  Every writer holds it for the
        #: whole mutation; a read path that must see runs and indexes
        #: consistently while request threads append (the repair-plan
        #: preview, which runs ungated during live traffic) takes it too.
        #: Reentrant: replay/gc call other mutators.
        self.lock = threading.RLock()

        self.wal = wal
        #: The ``text`` entries of the current log segment (snapshot format
        #: 7): guarded by ``records``, rebuilt by every snapshot to exactly
        #: the entries its runs and visits refer to.
        self.texts = TextTable()
        #: Whether every entry of ``texts`` is one a stored run or visit
        #: refers to — so that a snapshot need not read the runs' lines to
        #: know which entries to write.  A visit only ever gains references
        #: (its jars are inline).  Dropped by whatever may leave an entry
        #: unused (runs or visits removed, entries replayed), restored by the
        #: next snapshot.
        self._texts_exact = True
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

    # -- commit plumbing ----------------------------------------------------

    def _finish(
        self, ticket: Optional[CommitTicket], relaxed: Optional[bool] = None
    ) -> None:
        """Wait (outside the store lock) until the mutation's journal entry
        is durable.  This wait is where the entry is written and where
        concurrent writers share one fsync; the lock is never held
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

    # ------------------------------------------------------------------ writes

    def add_run(self, run: AppRunRecord) -> None:
        # Snapshot relaxed mode before journaling: this is the write-ack
        # path, and the append below may itself be the one that trips the
        # WAL into the failed state (see _finish).
        relaxed = self.relaxed_durability
        self._finish(self._add_run_nowait(run), relaxed)

    def _add_run_nowait(self, run: AppRunRecord) -> Optional[CommitTicket]:
        with self.lock:
            self._insert_run(run)
            # Encoded once — the text is the WAL line's data now, the
            # snapshot line's later — under the lock, so the text entries
            # it defines are journaled before any line using them, and after
            # the insert, so an entry is never defined for a run not stored.
            if self.wal is not None:
                self._encode(run)
            run.payloads = None  # encoded or not: a stored run refers into no cache
            # Journaled under the store lock so WAL order equals store
            # order; the fsync wait happens in _finish, outside every lock.
            if self.wal is not None:
                return self._journal_line("run", run.json_text)
        return None

    def _encode(self, run: AppRunRecord) -> None:
        """Give ``run`` its text, and its body the table's copy: one string
        per distinct body, live as after a reload (and a save's lookup of
        it finds the very key).  Caller holds ``records``."""
        run.json_text = run.encode(self.texts)
        run.response.body = self.texts.shared(run.response.body)

    def _journal_line(self, kind: str, text: str) -> CommitTicket:
        """Append a run or visit line and, first, the ``text`` entries its
        encoding defined.  Caller holds ``records``."""
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
        for query in run.queries:
            self.touch.index_query(query, run.run_id)
        # Keep the buckets built so far fresh; one built later finds the
        # run through the TouchIndex.
        if self._buckets:
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

    # A visit and its deltas are appended without a wait: the extension
    # uploads its log with the requests it makes, so the request's run is
    # the unit of durability.  The next commit on the log — that run's, a
    # ``sync``, a save's pre-write marker or ``close`` — writes them, WAL
    # order making a later wait cover every earlier line; a crash loses
    # only the lines no commit followed.

    def add_visit(self, visit: VisitRecord) -> None:
        with self.lock:
            self.visits[(visit.client_id, visit.visit_id)] = visit
            self.max_ts = max(self.max_ts, visit.ts)
            self._client_visits.setdefault(visit.client_id, []).append(visit.visit_id)
            self._note_visit_id(visit.client_id, visit.visit_id)
            if visit.parent_visit is not None:
                self._visit_children.setdefault(
                    (visit.client_id, visit.parent_visit), []
                ).append(visit.visit_id)
            if self.wal is not None:
                self._journal_line("visit", visit.encode(self.texts))

    # The extension keeps appending to an uploaded visit's record (events,
    # request ids, cookie snapshots) while the visit is live; it shares the
    # record object with the store, so these methods journal the *delta*
    # only — re-journaling the whole record per DOM event would make WAL
    # volume quadratic in the visit's event count.  Replay re-applies each
    # delta onto the base "visit" entry (or onto the snapshot's copy).

    def log_visit_event(self, client_id: str, visit_id: int, event: EventRecord) -> None:
        self._log_visit_delta("visit_event", client_id, visit_id, event)

    def log_visit_request(self, client_id: str, visit_id: int, request_id: int) -> None:
        self._log_visit_delta("visit_request", client_id, visit_id, request_id)

    def log_visit_cookies(self, client_id: str, visit_id: int, cookies_after) -> None:
        self._log_visit_delta("visit_cookies", client_id, visit_id, cookies_after)

    def _log_visit_delta(self, kind: str, client_id: str, visit_id: int, delta) -> None:
        # Encoded now, so the live record may go on changing; under the lock,
        # so the text entries it defines are journaled ahead of it.
        with self.lock:
            if self.wal is not None and (client_id, visit_id) in self.visits:
                text = encode_delta(kind, client_id, visit_id, delta, self.texts)
                self._journal_line(kind, text)

    def add_patch(self, patch: PatchRecord) -> None:
        ticket = None
        with self.lock:
            self.patches.append(patch)
            self.max_ts = max(self.max_ts, patch.apply_ts)
            if self.wal is not None:
                ticket = self.wal.append("patch", text=patch.encode())
        self._finish(ticket)

    def replace_run(self, run_id: int, record: AppRunRecord) -> Optional[AppRunRecord]:
        """:meth:`replace_runs` for one record that must carry ``run_id``;
        returns the old record, or None if ``run_id`` is unknown."""
        if record.run_id != run_id:
            raise ValueError(
                f"replacement record has run_id {record.run_id}, expected {run_id}"
            )
        replaced = self.replace_runs([record])
        return replaced[0] if replaced else None

    def replace_runs(self, records: Iterable[AppRunRecord]) -> List[AppRunRecord]:
        """Swap each stored run for the record carrying its run id, in
        place: one lock hold for the batch and one wait, on its last
        journal line — under group commit the batch shares one fsync.

        The caller must have already given each record the old run's
        identity (run id, browser correlation, timestamps); the store
        keeps the run's position in append order and refreshes the file
        and touch indexes.  Partition buckets referencing an old record
        stay stale until :meth:`invalidate_partition_indexes` — callers
        invalidate once, after the batch.  Returns the replaced records;
        a record whose run id the store does not hold is skipped.
        """
        relaxed = self.relaxed_durability
        replaced: List[AppRunRecord] = []
        ticket = None
        with self.lock:
            for record in records:
                run_id = record.run_id
                old = self.runs.get(run_id)
                if old is None:
                    continue
                self.runs[run_id] = record
                record.payloads = None
                self._texts_exact = False  # the old record's texts may go unused
                self.query_count += len(record.queries) - len(old.queries)
                self._unindex_run_files(old)
                self._index_run_files(record)
                self._note_high_water(record)
                self.touch.reindex_run(old, record)
                replaced.append(old)
                if self.wal is not None:
                    self._encode(record)
                    ticket = self._journal_line("replace_run", record.json_text)
        self._finish(ticket, relaxed)
        return replaced

    def invalidate_partition_indexes(self) -> None:
        """Drop the partition buckets (records changed under them); the
        next ``queries_touching`` rebuilds the ones it asks for."""
        with self.lock:
            self._buckets.clear()

    # ------------------------------------------------------------------ lookups

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def store(self) -> "RecordStore":
        """This store.  Kept only for ``benchmarks/e2e/lifecycle.py``,
        which reads the log as ``.store.wal`` of ``WarpSystem.graph``, a
        spelling from before the graph and the store were one object;
        nothing else may use it."""
        return self

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

    def visit_and_descendants(self, client_id: str, visit_id: int) -> List[int]:
        """Canceling a page visit undoes all of its HTTP requests — which
        includes the navigations (form posts, link follows) its events
        caused, i.e. its descendant visits.  Shared by repair execution
        and the dry-run planner so both walk the same damage set, in
        O(descendants) through the parent→children index."""
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
        drained: Optional[DrainMarks] = None,
    ) -> List[QueryRecord]:
        """Candidate queries that may read or write the given partitions
        strictly after ``since_ts``, in timestamp order.  Buckets are kept
        time-ordered, so this is a heap merge of pre-sorted runs of
        answers — no per-call sort.  Callers re-check precisely.  Under
        the store lock: a bucket build reads the TouchIndex and the runs.

        ``drained`` is one repair's drain marks, shared by all of its
        lookups: a bucket hands over only entries in ``(since_ts, mark]``,
        where ``mark`` is the lowest ``since_ts`` it answered before, and
        nothing when ``since_ts >= mark`` — so a repair, which queues every
        candidate it is handed, pays each bucket entry once.  An append
        into the bucket, or its rebuild after ``invalidate_partition_indexes``
        or ``gc``, voids the mark.  Without ``drained`` the lookup is a
        repair's first: the full answer."""
        if drained is None:
            drained = {}
        with self.lock:
            names = [table] if whole_table else [*keys, (table,)]
            named = [(name, self._bucket(name)) for name in names]
            return merge_bucket_tails(named, since_ts, drained)

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
        dropped, ticket = 0, None
        with self.lock:
            for client_id, visit_ids in self._client_visits.items():
                excess = len(visit_ids) - max_visits_per_client
                if excess <= 0:
                    continue
                oldest = sorted(visit_ids, key=lambda vid: self.visits[(client_id, vid)].ts)
                victims = set(oldest[:excess])
                for visit_id in victims:
                    self._unlink_child(self.visits.pop((client_id, visit_id)))
                visit_ids[:] = [vid for vid in visit_ids if vid not in victims]
                dropped += len(victims)
                self.trimmed_clients[client_id] = self.last_visit_id(client_id)
            if dropped:
                self._texts_exact = False  # the dropped visits' texts may go unused
            if dropped and self.wal is not None:
                ticket = self.wal.append(
                    "quota", {"max_visits_per_client": max_visits_per_client}
                )
        self._finish(ticket)
        return dropped

    def gc(self, horizon_ts: int) -> int:
        """Drop runs and visits that ended before ``horizon_ts``.

        Single pass over the run log plus a single pass over visits; visit
        liveness ("does any run of this visit survive?") is answered from
        the ``(client, visit)`` index instead of rescanning all runs.
        """
        ticket = None
        with self.lock:
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
                self.dropped_files.update(run.loaded_files)
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
                self.trimmed_clients[client_id] = self.last_visit_id(client_id)

            dead_by_client: Dict[str, Set[int]] = {}
            for key, visit in list(self.visits.items()):
                if visit.ts < horizon_ts and not self._runs_by_visit.get(key):
                    del self.visits[key]
                    self._unlink_child(visit)
                    dead_by_client.setdefault(visit.client_id, set()).add(visit.visit_id)
                    removed += 1
                    self._texts_exact = False
            for client_id, gone in dead_by_client.items():
                ids = self._client_visits.get(client_id, [])
                ids[:] = [vid for vid in ids if vid not in gone]
                if not ids:
                    self._client_visits.pop(client_id, None)
                self.trimmed_clients[client_id] = self.last_visit_id(client_id)

            # Partition buckets may reference dropped queries; rebuild lazily.
            self.invalidate_partition_indexes()
            # Journaled whenever the horizon moves: the database half trims at it.
            if (removed or horizon_ts > self.horizon_ts) and self.wal is not None:
                ticket = self.wal.append("gc", {"horizon_ts": horizon_ts})
            self.horizon_ts = max(self.horizon_ts, horizon_ts)
        self._finish(ticket)
        return removed

    # ------------------------------------------------------------------ durability

    def _pending_snapshot(self) -> dict:
        """The non-record state a snapshot carries: each journaled table's
        entries in key order, and what retention dropped once it has run.
        Caller holds ``records``."""
        pending = {
            table.name: [table.entries[key] for key in sorted(table.entries)]
            for table in self.tables
            if table.entries
        }
        if self.horizon_ts or self.trimmed_clients:
            pending["retained"] = {
                "horizon_ts": self.horizon_ts,
                "clients": dict(sorted(self.trimmed_clients.items())),
                "files": sorted(self.dropped_files),
            }
        return pending

    def to_snapshot(self) -> dict:
        """Image of all primary records as one plain-JSON dict (indexes
        are derived state and are rebuilt on load).  This is the view
        tests and tools compare; :meth:`commit_snapshot` persists the same
        content without ever building it."""
        with self.lock:
            snapshot = {
                "runs": [self.runs[run_id].to_dict() for run_id in self._run_order],
                "visits": [visit.to_dict() for visit in self.visits.values()],
                "patches": [patch.to_dict() for patch in self.patches],
            }
            snapshot.update(self._pending_snapshot())
            return snapshot

    def _snapshot_texts(self) -> Tuple[List[int], List[str]]:
        """Encode every visit as it stands, and give every run its text — a
        run that has none yet (appended or replaced without a WAL) is
        encoded now; return the ids of exactly the text entries the
        runs and visits refer to, in order, and the visits' rows.  Caller
        holds ``records``."""
        visits = [visit.encode(self.texts) for visit in self.visits.values()]
        runs = self.runs.values()
        for run in runs:
            if run.json_text is None:
                self._encode(run)
        if self._texts_exact:
            return sorted(self.texts.by_id), visits
        # Read off the kept lines (one C parse each), not re-encoded: a save
        # after gc, replace_run or a replay visits each line of the history.
        used = set()
        for line in map(json.loads, map(_json_text, runs)):
            used.update(text_refs(line))
        for row in map(json.loads, visits):
            used.update(visit_text_refs(row))
        return sorted(used), visits

    def _record_lines(self, text_ids: List[int], visits: List[str]) -> Iterator[str]:
        """Every record as its snapshot line: the text entries ``text_ids``,
        the ``visits`` rows, then the runs, each spliced from the text kept
        since it was appended — its bytes are written once — then patches."""
        for ident in text_ids:
            yield entry_line("text", self.texts.entry(ident))
        for row in visits:
            yield entry_line("visit", row)
        for run_id in self._run_order:
            yield entry_line("run", self.runs[run_id].json_text)
        for patch in self.patches:
            yield entry_line("patch", patch.encode())

    def commit_snapshot(self, path: str, payload: dict) -> str:
        """Write a format-7 snapshot (:mod:`repro.store.snapshot`) — the
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

        Runs under the store lock so no mutation can journal between
        the pre-write marker and the truncation — an entry landing in that
        window would be dropped by the truncate without being in the
        snapshot (this is what makes a save under live traffic safe) — and
        the records are read under the same hold, so the file is exactly
        the store the markers bracket.  The pre-write marker is waited
        durable *before* the snapshot file is written: under group commit,
        a crash after the snapshot lands but before the marker reaches
        disk would otherwise leave a WAL whose tail predates the snapshot
        with no marker tying them together, and recovery would refuse the
        pair."""
        with self.lock:
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
            text_ids, visits = self._snapshot_texts()
            header = {
                "version": FORMAT,
                **payload,
                "ids": {**payload.get("ids", {}), "text": self.texts.last_id},
                "snapshot_id": snapshot_id,
                "graph": self._pending_snapshot(),
                "records": {
                    "text": len(text_ids),
                    "visit": len(visits),
                    "run": len(self._run_order),
                    "patch": len(self.patches),
                },
            }
            write_snapshot(path, header, self._record_lines(text_ids, visits))
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

    def restore_snapshot(self, data: dict, records=(), last_text_id: int = 0) -> None:
        """Apply a snapshot's ``graph`` object and its stream of record
        lines, each line by the rule WAL replay uses (:meth:`apply_logged`);
        one :class:`DecodeMemo` spans the build.  ``last_text_id`` is the
        header's ``ids.text``: the table's counter, which entries dropped
        since may have passed."""
        self.texts.last_id = last_text_id
        memo = DecodeMemo(self.texts)
        for kind, item, text in records:
            self.apply_logged(kind, item, text, memo)
        for table in self.tables:
            for item in data.get(table.name, ()):
                table.apply(table.put_kind, item)
        retained = data.get("retained")
        if retained is not None:
            self.horizon_ts = max(self.horizon_ts, retained["horizon_ts"])
            for client_id, mark in retained["clients"].items():
                self._note_visit_id(client_id, mark)
                self.trimmed_clients.setdefault(client_id, mark)
            self.dropped_files.update(retained["files"])
        # The snapshot holds exactly the entries its runs refer to, so the
        # next save need not re-read the run lines to find them.
        self._texts_exact = True

    def replay_wal(self, wal_path: str, snapshot_id: Optional[str] = None) -> int:
        """Apply the entries journaled in the log at ``wal_path`` to this
        store, each by :meth:`apply_logged` (so nothing is re-journaled:
        the deployment attaches its log afterwards), and return the byte
        length of the log's intact prefix, for the log opened next.

        ``snapshot_id`` ties replay to the snapshot the store was built
        from: ``save`` journals a ``snapshot_marker`` both before writing
        the snapshot and after truncating the log, so (a) a WAL truncated
        against a *different* snapshot is a hard error instead of a silent
        mismatched merge, and (b) a crash between snapshot write and WAL
        truncation replays only the entries after the marker — the ones
        the snapshot does not already contain.
        """
        # One decoding pass: the read that yields the entries also finds
        # where the intact prefix ends, which is all the log's opening needs.
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
        memo = DecodeMemo(self.texts)
        for number, kind, data, text in entries[start:]:
            if kind == "snapshot_marker":
                continue
            try:
                self.apply_logged(kind, data, text, memo)
            except ReproError as exc:
                raise ReproError(f"write-ahead log {wal_path!r} line {number}: {exc}") from None
        return intact_size

    def apply_logged(
        self, kind: str, data: dict, text: Optional[str] = None, memo: Optional[DecodeMemo] = None
    ) -> None:
        """Apply one journaled entry: a WAL line, or a snapshot's record
        line (the same bytes).  Replay must be idempotent: a crash
        between snapshot write and WAL truncation leaves entries in the
        log that the snapshot already covers.  ``text`` is the JSON ``data``
        was decoded from (a run keeps it), ``memo`` the replay's."""
        memo = memo or DecodeMemo(self.texts)
        if kind == "text":
            # The line that refers to it may be torn off, or skipped.
            memo.define(data, text)
            self._texts_exact = False
        elif kind == "run":
            record = AppRunRecord.from_dict(data, text, memo)
            if record.run_id not in self.runs:
                self.add_run(record)
        elif kind == "visit":
            # Upsert: over a snapshot that already holds the visit, replay
            # resets it to the base record and the delta entries that
            # follow rebuild the accumulated state — convergent either way.
            record = VisitRecord.from_row(data, memo)
            key = (record.client_id, record.visit_id)
            if key in self.visits:
                self.visits[key] = record
            else:
                self.add_visit(record)
        elif kind in DELTA_ROWS:
            key, delta = decode_delta(kind, data, memo)
            record = self.visits.get(key)
            if record is not None and kind == "visit_cookies":
                record.cookies_after = delta
            elif record is not None:
                (record.events if kind == "visit_event" else record.request_ids).append(delta)
        elif kind == "patch":
            record = PatchRecord.from_dict(data)
            if record not in self.patches:
                self.add_patch(record)
        elif kind == "replace_run":
            record = AppRunRecord.from_dict(data, text, memo)
            if self.replace_run(record.run_id, record) is None:
                self.add_run(record)
        elif kind == "quota":
            self.enforce_client_quota(data["max_visits_per_client"])
        elif kind == "gc":
            self.gc(data["horizon_ts"])
        elif kind in self._table_of_kind:
            self._table_of_kind[kind].apply(kind, data)
        else:
            # No build writes it: builds up to 37f403a journaled a repair's
            # cancels as ``cancel_run``, and builds with the response cache
            # wrote one more kind, for a hit.
            raise ReproError(f"an entry of unknown kind {kind!r}; {UPGRADE_ROUTE}")
