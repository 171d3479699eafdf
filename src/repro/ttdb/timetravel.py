"""The time-travel database facade (paper §4).

``TimeTravelDB`` is what application code talks to.  During normal
execution every statement is stamped with a fresh logical timestamp and
runs in the *current* generation; rich results (read partitions, written
row IDs, result snapshots) are returned so the application runtime can log
them as dependencies.  During repair, statements are re-executed *at their
original historical timestamps* in the *next* generation.

``enabled=False`` gives the "No WARP" baseline used by Table 6: plain
in-place execution with no versioning and no dependency information.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.clock import INFINITY, LogicalClock
from repro.core.errors import RepairError
from repro.core.serialize import exact_key
from repro.faults.plane import active as _active_plane
from repro.db.executor import ExecContext, Executor, QueryResult
from repro.db.planner import ExecPlan
from repro.db.storage import Database, Table, TableSchema
from repro.db.storage import RowVersion
from repro.ttdb.partitions import ReadSet, ReadSetPlan
from repro.ttdb.rollback import rollback_row as _rollback_row

#: Statement-cache bounds: entry count (LRU-evicted) and the largest
#: result (rows) worth pinning — big scans are cheap to re-run relative
#: to the memory they would hold live.
_STMT_CACHE_MAX = 2048
_STMT_CACHE_MAX_ROWS = 8

#: The scope of a read: nothing to make atomic.
_READ = nullcontext()

#: Partition-key value types the write side tracks
#: (``TableSchema.partition_keys``): reads constrained to anything else
#: must fall back to the table-level any-write counter.
_SCALAR = (str, int, float, bool)


def _validation_keys(read_set: ReadSet) -> Tuple[object, ...]:
    """The write-counter keys whose stability proves a cached SELECT is
    still current.  Narrowed reads validate against their partition keys
    — invalidation on *any* constrained key is a superset of the
    ``affects`` rule (which requires a write to match every constraint in
    some disjunct), so this can only produce spurious misses, never stale
    hits.  ALL-partition reads, empty disjuncts and non-scalar constraint
    values validate against the table's any-write counter, which every
    write bumps."""
    table = read_set.table
    disjuncts = read_set.disjuncts
    if not disjuncts:  # None (reads everything) or () — be conservative
        return (table,)
    keys: List[object] = []
    for disjunct in disjuncts:
        if not disjunct:  # unconstrained branch reads everything
            return (table,)
        for column, value in disjunct:
            if value is not None and not isinstance(value, _SCALAR):
                return (table,)
            keys.append((table, column, value))
    return tuple(keys)


class RepairJournal:
    """Versions touched by an active repair generation (paper §4.3).

    ``created`` are versions whose ``start_gen`` was set into the repair
    generation (new writes, re-homed originals); ``fenced`` are versions
    whose ``end_gen`` was clamped to the live generation (preserved
    copies, rollback exclusions).  ``abort_repair`` undoes exactly these,
    making abort O(repair footprint) instead of O(database)."""

    __slots__ = ("created", "fenced")

    def __init__(self) -> None:
        self.created: List[Tuple[Table, RowVersion]] = []
        self.fenced: List[Tuple[Table, RowVersion]] = []

    def note_created(self, table: Table, version: RowVersion) -> None:
        self.created.append((table, version))

    def note_fenced(self, table: Table, version: RowVersion) -> None:
        self.fenced.append((table, version))


class RecordedPayload:
    """What every hit on one statement-cache entry records alike, built once
    (DESIGN.md "Recording path"): ``fields`` — a ``QueryRecord``'s constructor
    arguments after the four that say which query it is — filled by whoever
    records the entry first, and ``text``, those fields' share of the run's
    line, filled by the first ``AppRunRecord.encode`` that needs it.  The
    entry, and the results and runs in flight, are all that refer to it."""

    __slots__ = ("fields", "text")

    def __init__(self) -> None:
        self.fields = self.text = None


@dataclass
class TTResult:
    """One executed statement plus everything dependency tracking needs."""

    sql: str
    params: Tuple[object, ...]
    ts: int
    gen: int
    result: QueryResult
    read_set: ReadSet
    #: True when a write had no WHERE clause (modifies the whole table).
    full_table_write: bool = False
    #: Set on a SELECT the statement cache holds (the miss that filled the
    #: entry and every hit on it): the entry's recording payload.
    payload: Optional[RecordedPayload] = None

    @property
    def rows(self) -> Optional[List[dict]]:
        return self.result.rows

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def is_write(self) -> bool:
        return self.result.kind != "select"

    def one(self) -> Optional[dict]:
        """First result row or None (SELECT convenience)."""
        if self.result.rows:
            return self.result.rows[0]
        return None

    def scalar(self):
        """Sole value of the first row (aggregate convenience)."""
        row = self.one()
        if row is None:
            return None
        return next(iter(row.values()))


class TimeTravelDB:
    """Versioned, generation-aware execution over :class:`Database`."""

    def __init__(
        self,
        database: Database,
        clock: LogicalClock,
        enabled: bool = True,
        fault_plane=None,
    ) -> None:
        self.database = database
        self.clock = clock
        self.enabled = enabled
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        self.executor = Executor(database, versioned=enabled)
        self.current_gen = 0
        self.repair_gen: Optional[int] = None
        #: Count of statements executed (all modes), for metrics.
        self.statements_executed = 0
        #: Ablation switch: with partition analysis off, every query reads
        #: ALL partitions of its table (whole-table dependencies).
        self.partition_analysis = True
        #: Versions created/fenced by the active repair generation; makes
        #: ``abort_repair`` O(repair footprint).
        self._journal: Optional[RepairJournal] = None
        #: Serializes statement execution and generation transitions so
        #: concurrent request threads can hammer the live generation while
        #: a repair writes the next one.  Statement-granular: a run's
        #: queries may interleave with other runs' (as on a real server);
        #: recorded per-query timestamps preserve the actual order for
        #: repair-time re-execution.
        self._lock = threading.RLock()
        #: Read-through SELECT cache: a repeated ``(sql, params)`` read (the
        #: same type for type, see ``_execute_select``)
        #: whose *read partitions* have not been written since (write
        #: counters per partition key, checked under the statement lock)
        #: replays the cached rows/snapshot at a fresh timestamp instead
        #: of re-executing.  Observably identical to re-execution — no
        #: write touched a partition the read depends on, so the visible
        #: version set is the same — and recorded identically (same
        #: snapshot, read rows, read set; fresh ts).  Reads that cannot be
        #: narrowed (ALL-partition, non-scalar constraint values) fall
        #: back to the per-table any-write counter.  Only normal execution
        #: of a versioned (``enabled``) database uses the cache; repair
        #: re-execution always runs for real.
        self._stmt_cache: "OrderedDict[Tuple[str, bytes], Tuple[TTResult, int, int, Tuple, Tuple[int, ...]]]" = (
            OrderedDict()
        )
        #: Write counters: a table name keys "any write to the table"; a
        #: ``(table, column, value)`` partition key counts writes whose
        #: written partitions include it.
        self._write_counts: Dict[object, int] = {}

    @property
    def backend(self) -> str:
        """Identifier of the storage engine underneath (``"python"``,
        ``"sqlite"``); recorded in :meth:`state_dict` for diagnostics."""
        return getattr(self.database, "backend", "python")

    # -- schema ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.database.create_table(schema)

    def schema(self, table: str) -> TableSchema:
        return self.database.table(table).schema

    # -- normal execution --------------------------------------------------------

    def prepare(self, sql: str) -> ExecPlan:
        """The prepared statement for ``sql`` — parse, plan, ``is_write``,
        target table and the partition read-set template — from the
        executor's plan cache: one dict lookup by statement text, one
        bound, one ``ddl_epoch`` rule.  The template is attached here
        because ``repro.db`` cannot import this layer."""
        plan = self.executor.prepare(sql)
        if plan.read_plan is None:
            plan.read_plan = ReadSetPlan(plan.stmt, self.schema(plan.table))
        return plan

    def execute(self, sql: str, params: Sequence[object] = ()) -> TTResult:
        """Execute one statement in the current generation, now."""
        plan = self.prepare(sql)
        if self.enabled and not plan.is_write:
            return self._execute_select(plan, sql, tuple(params))
        ts = self.clock.tick()
        ctx = ExecContext(
            ts=ts, gen=self.current_gen, current_gen=self.current_gen, repair=False
        )
        return self._run(plan, sql, tuple(params), ctx)

    # -- statement cache ---------------------------------------------------------

    def _execute_select(
        self, plan: ExecPlan, sql: str, params: Tuple[object, ...]
    ) -> TTResult:
        """Serve a normal-execution SELECT through the statement cache.

        The timestamp is drawn *inside* the lock (uncached execution draws
        it just before acquiring the lock), so a cached read observes the
        same visible version set a re-execution at that timestamp would:
        the write counters prove no write touching a partition the read
        depends on committed between the cached execution and now.

        The key is type-exact — ``1``, ``1.0`` and ``True`` are three entries:
        a hit returns, and records, the entry's ``params`` — and total: a
        parameter needs no hash, and a statement with one that cannot be
        keyed at all (marshal refuses it) runs uncached.
        """
        try:
            key = (sql, exact_key(params))
        except ValueError:
            key = None
        with self._lock:
            counts = self._write_counts
            cached = self._stmt_cache.get(key)
            if cached is not None:
                entry, gen, epoch, vkeys, versions = cached
                if (
                    gen == self.current_gen
                    and epoch == self.database.ddl_epoch
                    and versions == tuple(map(counts.get, vkeys))
                ):
                    self._stmt_cache.move_to_end(key)
                    self.statements_executed += 1
                    return self._replay_select(entry, self.clock.tick())
                del self._stmt_cache[key]
            ctx = ExecContext(
                ts=self.clock.tick(),
                gen=self.current_gen,
                current_gen=self.current_gen,
                repair=False,
            )
            tt_result = self._run_locked(plan, sql, params, ctx)
            result = tt_result.result
            small = result.rows is not None and len(result.rows) <= _STMT_CACHE_MAX_ROWS
            if key is not None and result.ok and small:
                tt_result.payload = RecordedPayload()
                vkeys = _validation_keys(tt_result.read_set)
                self._stmt_cache[key] = (
                    self._replay_select(tt_result, tt_result.ts),
                    ctx.gen,
                    self.database.ddl_epoch,
                    vkeys,
                    tuple(map(counts.get, vkeys)),
                )
                if len(self._stmt_cache) > _STMT_CACHE_MAX:
                    self._stmt_cache.popitem(last=False)
            return tt_result

    @staticmethod
    def _replay_select(entry: TTResult, ts: int) -> TTResult:
        """A fresh TTResult sharing ``entry``'s immutable payload.  Rows
        are copied dict-by-dict: scripts receive (and may mutate) the row
        dicts, so the cached copy must stay pristine."""
        source = entry.result
        result = QueryResult(
            "select",
            source.table,
            [dict(row) for row in source.rows],
            source.rowcount,
            read_row_ids=source.read_row_ids,
        )
        result._snapshot = source.snapshot()
        return TTResult(
            entry.sql, entry.params, ts, entry.gen, result, entry.read_set, payload=entry.payload
        )

    def _flush_statement_cache(self) -> None:
        """Drop every cached SELECT.  Called around anything that changes
        visibility outside the write counters (generation
        transitions, row rollback, gc, state restore) — the counters make
        these flushes redundant in most cases, but the cache must stay
        correct even if a future path forgets to bump one."""
        self._stmt_cache.clear()

    def execute_script(self, sql: str, params: Sequence[object] = ()) -> List[TTResult]:
        """Execute a semicolon-separated batch (the SQL-injection vector).

        A parameterised API would never expose this, which is exactly the
        point: vulnerable application code that builds SQL by string
        concatenation routes through here, so a piggybacked statement in
        user input really executes.
        """
        results = []
        for piece in split_statements(sql):
            results.append(self.execute(piece, params))
        return results

    # -- repair execution ---------------------------------------------------------

    def execute_at(
        self,
        sql: str,
        params: Sequence[object],
        ts: int,
        forced_row_ids: Tuple[int, ...] = (),
    ) -> TTResult:
        """Re-execute a statement at historical time ``ts`` in the repair
        generation (paper §4.4: 'the query always executes in the next
        generation')."""
        if self.repair_gen is None:
            raise RepairError("no repair generation is active")
        ctx = ExecContext(
            ts=ts,
            gen=self.repair_gen,
            current_gen=self.current_gen,
            repair=True,
            forced_row_ids=forced_row_ids,
            journal=self._journal,
        )
        return self._run(self.prepare(sql), sql, tuple(params), ctx)

    def matching_row_ids(self, sql: str, params: Sequence[object], ts: int) -> Tuple[int, ...]:
        """Row IDs a write's WHERE clause selects at (ts, repair_gen), for
        two-phase re-execution of multi-row writes (paper §4.2)."""
        if self.repair_gen is None:
            raise RepairError("no repair generation is active")
        plan = self.prepare(sql)
        if plan.kind == "insert":
            return ()
        ctx = ExecContext(
            ts=ts,
            gen=self.repair_gen,
            current_gen=self.current_gen,
            repair=True,
            journal=self._journal,
        )
        with self._lock:
            rows = self.executor.matching_rows(plan, tuple(params), ctx)
        return tuple(version.row_id for version in rows)

    def write_row_count(self, sql: str, params: Sequence[object], ts: int) -> int:
        """How many rows the write ``sql`` writes at ``ts`` in the live
        generation: an INSERT's VALUES rows, or the rows its WHERE clause
        matches.  Read-only, and the clock does not tick (a repair
        preview's estimate of a retroactive fix)."""
        plan = self.prepare(sql)
        if plan.kind == "insert":
            return len(plan.insert_rows)
        with self._lock:
            ctx = ExecContext(ts=ts, gen=self.current_gen, current_gen=self.current_gen)
            return len(self.executor.matching_rows(plan, tuple(params), ctx))

    def peek(self, sql: str, params: Sequence[object] = ()) -> TTResult:
        """Execute a read-only statement at the current time in the current
        generation *without* advancing the clock or counting as workload.

        Used by the online-repair gate to resolve request-derived values
        (e.g. the session's user) before deciding whether to serve a
        request; a probe must not perturb the logical timeline.
        """
        plan = self.prepare(sql)
        if plan.is_write:
            raise RepairError("peek only executes read-only statements")
        ctx = ExecContext(
            ts=self.clock.now(),
            gen=self.current_gen,
            current_gen=self.current_gen,
            repair=False,
        )
        with self._lock:
            result = self.executor.execute(plan, tuple(params), ctx)
        return TTResult(
            sql=sql,
            params=tuple(params),
            ts=ctx.ts,
            gen=ctx.gen,
            result=result,
            read_set=ReadSet(plan.table, disjuncts=None),
        )

    def _run(
        self, plan: ExecPlan, sql: str, params: Tuple[object, ...], ctx: ExecContext
    ) -> TTResult:
        with self._lock:
            return self._run_locked(plan, sql, params, ctx)

    def _run_locked(
        self, plan: ExecPlan, sql: str, params: Tuple[object, ...], ctx: ExecContext
    ) -> TTResult:
        if self.partition_analysis:
            read_set = plan.read_plan.instantiate(params)
        else:
            read_set = ReadSet(plan.table, disjuncts=None)
        with self._atomic() if plan.is_write else _READ:
            result = self.executor.execute(plan, params, ctx)
        self.statements_executed += 1
        if result.kind != "select":
            # Any write (normal or repair — the latter is conservative but
            # cheap) bumps the table's any-write counter plus one counter
            # per written partition key, staling exactly the cached
            # SELECTs whose read partitions it could have changed.
            counts = self._write_counts
            table = result.table
            counts[table] = counts.get(table, 0) + 1
            for key in result.written_partitions:
                counts[key] = counts.get(key, 0) + 1
        return TTResult(
            sql=sql,
            params=params,
            ts=ctx.ts,
            gen=ctx.gen,
            result=result,
            read_set=read_set,
            full_table_write=plan.full_table_write,
        )

    @contextmanager
    def _atomic(self):
        """One write's version mutations, all or none: the engine's
        :meth:`~repro.db.storage.Database.atomic` scope, and with it the
        repair journal's notes of versions the scope created or fenced — a
        rolled-back version must not be discarded or unfenced by an abort
        (its id may be a live version's).  Caller holds the statement lock."""
        journal = self._journal
        if journal is None:
            with self.database.atomic():
                yield
            return
        created, fenced = len(journal.created), len(journal.fenced)
        try:
            with self.database.atomic():
                yield
        except BaseException:
            del journal.created[created:], journal.fenced[fenced:]
            raise

    # -- generations -----------------------------------------------------------------

    def begin_repair(self) -> int:
        """Fork the next repair generation (paper §4.3)."""
        with self._lock:
            if self.repair_gen is not None:
                raise RepairError("a repair generation is already active")
            if not self.enabled:
                raise RepairError("time-travel is disabled; repair is impossible")
            self.repair_gen = self.current_gen + 1
            self._journal = RepairJournal()
            self._flush_statement_cache()
            return self.repair_gen

    def finalize_repair(self) -> None:
        """Atomically switch the repaired generation live.  The lock makes
        the switch atomic with respect to in-flight statements: no
        statement observes a half-switched generation pair."""
        # Fired before the switch: an injected crash here models dying at
        # the commit point, leaving the repair generation invisible (the
        # paper's all-or-nothing repair contract).
        self.faults.fire("ttdb.finalize_switch")
        with self._lock:
            if self.repair_gen is None:
                raise RepairError("no repair generation is active")
            self.current_gen = self.repair_gen
            self.repair_gen = None
            self._journal = None
            self._flush_statement_cache()

    def integrity_errors(self, max_errors: int = 20) -> List[str]:
        """Version-store consistency sweep across every table, evaluated
        at the current generation (see :meth:`Table.integrity_errors`).
        The crash-recovery harness runs this after every reload; an empty
        list is the "store ≡ graph ≡ version-store" invariant's
        version-store leg."""
        errors: List[str] = []
        with self._lock:
            gen = self.current_gen
            for name, table in self.database.tables.items():
                remaining = max_errors - len(errors)
                if remaining <= 0:
                    break
                errors.extend(table.integrity_errors(gen, remaining, name))
        return errors

    def abort_repair(self) -> None:
        """Discard the repair generation, restoring the pre-repair state.

        Every mutation repair makes is reversible by construction: versions
        created during repair carry ``start_gen == repair_gen`` (dropped),
        and versions fenced away from the repair generation carry
        ``end_gen == current_gen`` (re-extended) — the live generation never
        observes either.  The repair journal records exactly those versions,
        so abort is O(repair footprint), not a scan of every version of
        every table.
        """
        with self._lock:
            self._abort_repair_locked()

    def _abort_repair_locked(self) -> None:
        if self.repair_gen is None:
            raise RepairError("no repair generation is active")
        with self.database.atomic():
            for table, version in self._journal.created:
                table.discard_version(version)
            for table, version in self._journal.fenced:
                table.unfence_version(version, self.current_gen)
        self.repair_gen = None
        self._journal = None
        self._flush_statement_cache()

    # -- persistence ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Generation counters and execution accounting (the database's row
        versions are persisted separately by :class:`Database`).  An active
        repair generation is never persisted: an in-flight repair does not
        survive a crash, it is simply re-run (its versions are fenced into
        the never-finalized generation and invisible to the live one)."""
        return {
            "current_gen": self.current_gen,
            "statements_executed": self.statements_executed,
            "partition_analysis": self.partition_analysis,
            "db_backend": self.backend,
        }

    def restore_state(self, state: dict) -> None:
        self.current_gen = state["current_gen"]
        self.statements_executed = state["statements_executed"]
        self.partition_analysis = state.get("partition_analysis", True)
        self.repair_gen = None
        self._journal = None
        self._flush_statement_cache()

    # -- rollback -------------------------------------------------------------------

    def rollback_row(self, table_name: str, row_id: int, ts: int) -> Set[Tuple]:
        """Roll ``row_id`` back to just before ``ts`` in the repair gen."""
        if self.repair_gen is None:
            raise RepairError("rollback requires an active repair generation")
        table = self.database.table(table_name)
        with self._lock, self._atomic():
            self._flush_statement_cache()
            return _rollback_row(
                table, row_id, ts, self.current_gen, self.repair_gen, self._journal
            )

    # -- maintenance ------------------------------------------------------------------

    def gc(self, horizon_ts: int) -> int:
        """Drop row versions unreachable from ``horizon_ts`` onwards, plus
        versions stranded in superseded generations (paper §4.2)."""
        removed = 0
        with self._lock, self.database.atomic():
            self._flush_statement_cache()
            for table in self.database.tables.values():
                removed += table.gc_superseded(self.current_gen)
                removed += table.gc(horizon_ts)
        return removed

    def total_versions(self) -> int:
        return self.database.total_versions()


def split_statements(sql: str) -> List[str]:
    """Split a batch on top-level semicolons, honouring string literals."""
    pieces: List[str] = []
    current: List[str] = []
    in_string = False
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if in_string:
            current.append(ch)
            if ch == "'":
                if i + 1 < n and sql[i + 1] == "'":
                    current.append("'")
                    i += 1
                else:
                    in_string = False
        elif ch == "'":
            in_string = True
            current.append(ch)
        elif ch == ";":
            piece = "".join(current).strip()
            if piece and not piece.startswith("--"):
                pieces.append(piece)
            current = []
        else:
            current.append(ch)
        i += 1
    piece = "".join(current).strip()
    if piece and not piece.startswith("--"):
        pieces.append(piece)
    return pieces
