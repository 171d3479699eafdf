"""Dependency-invalidated response cache for the serving hot path.

A cacheable GET run's read footprint (the per-query ``ReadSet``s computed
by the PR 2 planner) is the entry's invalidation key: a committed write
invalidates exactly the cached entries whose footprint intersects its
written partitions, under the same partition-intersection semantics the
online-repair gate uses (``ModifiedPartitions.affects``).  Everything else
— responses to POSTs, non-200s, runs with nondeterminism or set-cookies —
is never cached, so a hit can be served as a *replayed run*: same response
body, same read sets and result snapshots, fresh run/query identity (see
:func:`repro.ahg.records.replay_clone`).

Concurrency contract (what makes a hit exactly as good as a miss):

* Invalidation runs at **write-commit time**, inside the time-travel DB's
  statement lock (``TimeTravelDB.write_hook``), not at end of request.
* A hit validates the entry and draws its clone timestamps **under that
  same statement lock** (:meth:`begin_hit`).  Any write committed before
  the hit's critical section has already invalidated the entry (→ miss);
  any write committed after it postdates the clone's timestamps, exactly
  as if an uncached read had executed just before the write.
* A fill races writes that commit *during* the miss's execution and would
  find nothing in the cache to invalidate.  ``put`` therefore takes the
  write-sequence token the server drew before executing and re-checks the
  record's footprint against every write committed since (``_recent``);
  an intersecting write — or a token too old to verify — refuses the fill.

Lock order: the TTDB statement lock is taken *outside* the cache lock
(the write hook fires under it; ``begin_hit`` takes it explicitly).  The
cache lock never wraps any other lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Set, Tuple

from repro.ahg.records import AppRunRecord, replay_clone
from repro.faults.plane import active as _active_plane
from repro.http.message import HttpRequest

#: How many committed writes ``put`` can look back across; a fill whose
#: token predates the window is refused (never served stale).
_RECENT_WRITES = 256
#: Cached responses held before the least recently used is evicted.
_MAX_ENTRIES = 1024


class _Entry:
    __slots__ = ("key", "record", "index_keys", "tables")

    def __init__(
        self,
        key: Tuple,
        record: AppRunRecord,
        index_keys: Set[Tuple[str, str, object]],
        tables: Set[str],
    ) -> None:
        self.key = key
        self.record = record
        #: Every (table, column, value) constraint appearing in any read
        #: disjunct — the entry is registered under each in ``_by_key``.
        self.index_keys = index_keys
        #: Tables this run read (for full-table / ALL-partition writes).
        self.tables = tables


class _Write:
    """One committed write statement, as the invalidation path sees it."""

    __slots__ = ("table", "keys", "full_table")

    def __init__(
        self, table: str, keys: frozenset, full_table: bool
    ) -> None:
        self.table = table
        #: ``{(column, value), ...}`` written partition constraints.
        self.keys = {(col, val) for (_t, col, val) in keys}
        self.full_table = full_table

    def intersects(self, record: AppRunRecord) -> bool:
        """Partition-intersection against a run's read footprint; the same
        classification as ``ModifiedPartitions.affects`` with the timestamp
        dimension collapsed (any intersecting write is newer than any
        cached entry, and for fills the token already bounds the window).
        A conjunctive disjunct only matches if *all* its constraints were
        written — one row carries keys for each partition column, so a
        single statement's key set satisfies this for the rows it touched.
        """
        for query in record.queries:
            read_set = query.read_set
            if read_set.table != self.table:
                continue
            if self.full_table:
                return True
            if read_set.is_all:
                if self.keys:
                    return True
                continue
            for disjunct in read_set.disjuncts or ():
                if not disjunct:
                    if self.keys:
                        return True
                    continue
                if all(constraint in self.keys for constraint in disjunct):
                    return True
        return False


class ResponseCache:
    """LRU response cache keyed by ``(script, method, path, params, cookies)``
    and invalidated by partition-level write dependencies."""

    def __init__(self, runtime, graph) -> None:
        self.runtime = runtime
        self.graph = graph
        self.faults = _active_plane()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: (table, column, value) -> entry keys whose footprint constrains it.
        self._by_key: Dict[Tuple[str, str, object], Set[Tuple]] = {}
        #: table -> entry keys with an ALL-partition read of that table.
        self._all_readers: Dict[str, Set[Tuple]] = {}
        #: table -> every entry key reading the table (full-table writes).
        self._by_table: Dict[str, Set[Tuple]] = {}
        #: Monotone count of committed writes; ``put`` tokens index into it.
        self._write_seq = 0
        self._recent: "deque[Tuple[int, _Write]]" = deque(maxlen=_RECENT_WRITES)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.refused_fills = 0

    # -- keying ----------------------------------------------------------------

    @staticmethod
    def key_for(script_name: str, request: HttpRequest) -> Tuple:
        return (script_name,) + request.key()

    # -- hit path --------------------------------------------------------------

    def begin_hit(
        self, script_name: str, request: HttpRequest
    ) -> Optional[Tuple[AppRunRecord, int]]:
        """Look up, validate, and clone in one atomic step; returns the
        replayed run (response attached) plus the base run id the graph
        should journal the clone against, or ``None`` on a miss.

        Runs under the TTDB statement lock so validation and the clone's
        timestamps are atomic against write commits (see module docstring).
        The clone draws identity in exactly the order an uncached execution
        would — ts_start, run id, then per query (ts, qid) — so sequential
        cached and uncached runs produce identical id/timestamp streams.
        """
        runtime = self.runtime
        with runtime.ttdb.statement_lock:
            base = self._lookup(script_name, request)
            if base is None:
                return None
            # Batched identity draw: per-counter value sequences are
            # identical to the uncached interleaving (ts_start, run id,
            # then per-query ts/qid) because each counter's values are
            # consecutive either way; batching just takes each lock once.
            n_queries = len(base.queries)
            ts_start = runtime.clock.tick_many(1 + n_queries)
            run_id = runtime.ids.next("run")
            first_qid = runtime.ids.next_many("query", n_queries) if n_queries else 1
            ts_list = list(range(ts_start + 1, ts_start + 1 + n_queries))
            qids = list(range(first_qid, first_qid + n_queries))
        clone = replay_clone(
            base,
            run_id=run_id,
            ts_start=ts_start,
            qids=qids,
            ts_list=ts_list,
            request=request,
        )
        return clone, base.run_id

    def _lookup(
        self, script_name: str, request: HttpRequest
    ) -> Optional[AppRunRecord]:
        key = (script_name,) + request.key()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            base = entry.record
            # The template must still be the live graph record: replaced,
            # gc'd or canceled runs make the entry unservable, as does a
            # code patch to any file the run loaded.
            if self.graph.runs.get(base.run_id) is not base or base.canceled:
                self._evict(entry)
                self.misses += 1
                return None
            scripts = self.runtime.scripts
            for name, version in base.loaded_files.items():
                if not scripts.has(name) or scripts.version(name) != version:
                    self._evict(entry)
                    self.misses += 1
                    return None
            self._entries.move_to_end(key)
            self.hits += 1
            return base

    # -- fill path -------------------------------------------------------------

    def write_token(self) -> int:
        """Drawn by the server before executing a request; ``put`` uses it
        to detect writes that committed during the execution."""
        return self._write_seq

    @staticmethod
    def cacheable(record: AppRunRecord) -> bool:
        return (
            record.response.status == 200
            and not record.response.set_cookies
            and not record.nondet
            and not any(query.is_write for query in record.queries)
        )

    def put(
        self, script_name: str, request: HttpRequest, record: AppRunRecord, token: int
    ) -> bool:
        """Cache a just-executed run.  Refused if any write committed since
        ``token`` intersects the run's read footprint (the run may have
        read pre-write data) or if the token has aged out of the window."""
        # Fired before any cache mutation: an injected failure leaves the
        # cache untouched and the served response unaffected (the server
        # swallows fill errors).
        self.faults.fire("cache.fill", script=script_name)
        key = (script_name,) + request.key()
        index_keys: Set[Tuple[str, str, object]] = set()
        tables: Set[str] = set()
        for query in record.queries:
            read_set = query.read_set
            tables.add(read_set.table)
            for disjunct in read_set.disjuncts or ():
                for col, val in disjunct:
                    index_keys.add((read_set.table, col, val))
        with self._lock:
            if token < self._write_seq:
                oldest_verifiable = (
                    self._recent[0][0] if self._recent else self._write_seq
                )
                if token < oldest_verifiable - 1:
                    self.refused_fills += 1
                    return False
                for seq, write in self._recent:
                    if seq > token and write.intersects(record):
                        self.refused_fills += 1
                        return False
            old = self._entries.get(key)
            if old is not None:
                self._evict(old)
            entry = _Entry(key, record, index_keys, tables)
            self._entries[key] = entry
            for full in index_keys:
                self._by_key.setdefault(full, set()).add(key)
            for table in tables:
                self._by_table.setdefault(table, set()).add(key)
            for query in record.queries:
                read_set = query.read_set
                if read_set.is_all or any(
                    not disjunct for disjunct in read_set.disjuncts or ()
                ):
                    self._all_readers.setdefault(read_set.table, set()).add(key)
            while len(self._entries) > _MAX_ENTRIES:
                self._evict(next(iter(self._entries.values())))
        return True

    # -- invalidation ----------------------------------------------------------

    def on_write(self, result) -> None:
        """TTDB write-commit hook (fires under the statement lock).

        ``result`` is the statement's ``TTResult``; its written partitions
        select candidate entries from the inverted indexes, and each
        candidate is confirmed with the precise conjunctive-disjunct test
        before eviction.
        """
        write = _Write(
            result.result.table,
            result.result.written_partitions,
            result.full_table_write,
        )
        with self._lock:
            self._write_seq += 1
            self._recent.append((self._write_seq, write))
            if not self._entries:
                return
            candidates: Set[Tuple] = set()
            if write.full_table:
                candidates |= self._by_table.get(write.table, set())
            else:
                for col, val in write.keys:
                    candidates |= self._by_key.get((write.table, col, val), set())
                candidates |= self._all_readers.get(write.table, set())
            for key in candidates:
                entry = self._entries.get(key)
                if entry is not None and write.intersects(entry.record):
                    self._evict(entry)
                    self.invalidations += 1

    # -- maintenance -----------------------------------------------------------

    def _evict(self, entry: _Entry) -> None:
        self._entries.pop(entry.key, None)
        for full in entry.index_keys:
            keys = self._by_key.get(full)
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._by_key[full]
        for table in entry.tables:
            for index in (self._by_table, self._all_readers):
                keys = index.get(table)
                if keys is not None:
                    keys.discard(entry.key)
                    if not keys:
                        del index[table]

    def flush(self) -> int:
        """Drop every entry (repair transitions, generation switches, gc)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._by_key.clear()
            self._all_readers.clear()
            self._by_table.clear()
            return count

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "refused_fills": self.refused_fills,
            }

    def __len__(self) -> int:
        return len(self._entries)
