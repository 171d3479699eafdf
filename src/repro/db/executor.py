"""Statement execution against the versioned storage.

The executor implements the query-rewriting semantics of paper §4.4
directly on :class:`repro.db.storage.Table` version chains:

* reads are restricted to versions visible at ``(ts, gen)``;
* normal-execution writes close the old version at ``ts`` and open a new
  one in the executing generation;
* repair-mode writes first preserve a copy of each modified row for the
  *current* generation, so the live application keeps an unchanged view
  while repair rewrites history in the *next* generation (§4.3).

It also supports a *plain* mode (``versioned=False``) used by the
"No WARP" baseline in Table 6: updates mutate rows in place and nothing is
versioned, which is what a stock database would do.

The executor runs prepared statements and nothing else:
:meth:`Executor.prepare` turns SQL text into a cached, compiled
:class:`repro.db.planner.ExecPlan` and :meth:`Executor.execute` runs one.
The tree-walking reference it is held to lives on the test side
(``tests/naive_executor.py``, a subclass sharing only the write plumbing
below); ``tests/test_executor_property.py`` proves result, dependency
(read sets included) and version-store parity between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.clock import INFINITY
from repro.db.planner import MISSING, ExecPlan, build_plan, sort_key
from repro.db.sql.parser import parse
from repro.db.storage import Database, RowVersion, Table, order_key

PartitionKey = Tuple[str, str, object]  # (table, column, value)

#: Plan-cache bound; unique statement texts (e.g. injected SQL built by
#: string concatenation) must not grow the cache without limit.
_PLAN_CACHE_MAX = 4096


@dataclass
class ExecContext:
    """Where/when a statement executes.

    ``gen`` is the generation the statement runs in; ``current_gen`` is the
    live generation (they differ only during repair); ``repair`` marks
    repair-mode writes which must preserve current-generation copies.
    ``forced_row_ids`` makes INSERT re-execution reuse the original rows'
    IDs so identical re-executions compare equal (paper §4.2).
    ``journal`` (set for repair-context execution) records created/fenced
    versions so ``abort_repair`` is O(repair footprint).
    """

    ts: int
    gen: int
    current_gen: int
    repair: bool = False
    forced_row_ids: Tuple[int, ...] = ()
    journal: Optional[object] = field(default=None, repr=False)


@dataclass
class QueryResult:
    """Outcome of one statement, rich enough for dependency tracking."""

    kind: str  # 'select' | 'insert' | 'update' | 'delete'
    table: str
    rows: Optional[List[Dict[str, object]]] = None
    rowcount: int = 0
    affected_row_ids: Tuple[int, ...] = ()
    inserted_row_ids: Tuple[int, ...] = ()
    #: Logical rows a SELECT examined (row-level read dependencies; used by
    #: the taint-tracking baseline of §8.4).
    read_row_ids: Tuple[int, ...] = ()
    ok: bool = True
    error: Optional[str] = None
    written_partitions: FrozenSet[PartitionKey] = frozenset()

    def snapshot(self) -> Tuple:
        """Canonical comparable form (paper: 'produces results different
        from the original execution').  Memoized: callers snapshot at
        record time, before scripts can mutate the returned row dicts, and
        the recording pipeline asks more than once per statement."""
        cached = self.__dict__.get("_snapshot")
        if cached is not None:
            return cached
        if self.kind == "select":
            assert self.rows is not None
            value = (
                "select",
                self.ok,
                tuple(tuple(sorted(row.items())) for row in self.rows),
            )
        else:
            value = (
                "write",
                self.kind,
                self.ok,
                self.rowcount,
                tuple(sorted(self.affected_row_ids)),
                tuple(sorted(self.inserted_row_ids)),
            )
        self._snapshot = value
        return value


class Executor:
    """Executes prepared statements against a :class:`Database`."""

    def __init__(self, database: Database, versioned: bool = True) -> None:
        self.database = database
        self.versioned = versioned
        self._plan_cache: Dict[str, ExecPlan] = {}

    # -- dispatch -------------------------------------------------------------

    def execute(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> QueryResult:
        """Run the prepared statement ``plan`` (from :meth:`prepare`)."""
        kind = getattr(plan, "kind", None)
        if kind == "select":
            return self._select(plan, params, ctx)
        if kind == "insert":
            return self._insert(plan, params, ctx)
        if kind == "update":
            return self._update(plan, params, ctx)
        if kind == "delete":
            return self._delete(plan, params, ctx)
        raise TypeError(
            "Executor.execute runs a prepared statement (Executor.prepare(sql)), "
            f"not {type(plan).__name__}"
        )

    def prepare(self, sql: str) -> ExecPlan:
        """The prepared statement for ``sql``: parsed and planned once per
        statement text, one dict lookup thereafter.  A statement whose
        parsing or planning raises is never cached.

        Callers need not hold the statement lock: the cache is a plain
        dict whose get / set / clear are each atomic under the GIL and a
        plan is immutable once built (``read_plan`` is attached whole and
        is the same whoever attaches it), so the worst a race does is
        build one text's plan twice or overshoot the bound by a thread."""
        epoch = self.database.ddl_epoch
        plan = self._plan_cache.get(sql)
        if plan is None or plan.epoch != epoch:
            stmt = parse(sql)
            plan = build_plan(stmt, self.database.table(stmt.table), epoch)
            if len(self._plan_cache) >= _PLAN_CACHE_MAX:
                self._plan_cache.clear()
            self._plan_cache[sql] = plan
        return plan

    # -- visibility -----------------------------------------------------------

    def _visible(self, table: Table, ctx: ExecContext):
        if self.versioned:
            yield from table.visible_rows(ctx.ts, ctx.gen)
        else:
            yield from table.plain_rows()

    def _version_of(self, table: Table, row_id: int, ctx: ExecContext):
        if self.versioned:
            return table.visible_version(row_id, ctx.ts, ctx.gen)
        chain = table.row_versions(row_id)
        return chain[0] if chain else None

    # -- access paths -----------------------------------------------------------

    def _matching(
        self, table: Table, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> List[RowVersion]:
        """Rows ``plan``'s WHERE clause selects at (ts, gen), in row-ID
        order."""
        fetch = getattr(table, "fetch_plan", None)
        if fetch is not None:
            # SQL-lowering engines fetch matched rows natively (lowered
            # WHERE plus visibility in one query).
            matched, _ = fetch(plan, params, ctx, self.versioned, False)
            return matched
        candidates = self._plan_candidates(table, plan, params)
        if candidates is not None:
            return self._match_candidates(table, candidates, plan, params, ctx)
        return self._plan_scan(table, plan, params, ctx)

    def _plan_candidates(
        self, table: Table, plan: ExecPlan, params: Sequence[object]
    ) -> Optional[set]:
        """Candidate row IDs from the best index probe, or None to scan."""
        best = None
        for column, getter in plan.eq_probes:
            value = getter(params)
            if value is MISSING:
                continue
            rows = table.candidate_row_ids(column, value)
            if rows is None:
                continue
            if best is None or len(rows) < len(best):
                best = rows
        if best is not None:
            return best
        if plan.range_probe is not None:
            column, lo_getter, lo_incl, hi_getter, hi_incl = plan.range_probe
            lo = hi = None
            if lo_getter is not None:
                lo = lo_getter(params)
                if lo is MISSING or lo is None:
                    return None
            if hi_getter is not None:
                hi = hi_getter(params)
                if hi is MISSING or hi is None:
                    return None
            return table.range_candidate_row_ids(column, lo, lo_incl, hi, hi_incl)
        return None

    def _match_candidates(
        self, table, candidates, plan: ExecPlan, params, ctx
    ) -> List[RowVersion]:
        pred = plan.pred
        matched = []
        for row_id in sorted(candidates):
            version = self._version_of(table, row_id, ctx)
            if version is not None and (pred is None or pred(version.data, params)):
                matched.append(version)
        return matched

    def _plan_scan(self, table, plan: ExecPlan, params, ctx) -> List[RowVersion]:
        pred = plan.pred
        if pred is None:
            return list(self._visible(table, ctx))
        return [
            version
            for version in self._visible(table, ctx)
            if pred(version.data, params)
        ]

    def _ordered_matched(
        self, table: Table, plan: ExecPlan, params, ctx
    ) -> Optional[List[RowVersion]]:
        """Matched rows already in ORDER BY order, via the ordered value
        index; equal-sort-key groups are merged and walked in row-ID order,
        so the result matches a stable sort of the row-ID-ordered scan.

        Deliberately no early termination at LIMIT: ``read_row_ids`` must
        list *every* matched row (row-level read dependencies for the
        taint baseline), so the traversal's win is skipping the sort, not
        the scan."""
        column, descending = plan.order_index
        groups = table.ordered_groups(column, descending)
        if groups is None:
            return None
        pred = plan.pred
        matched = []
        for group_key, row_ids in groups:
            for row_id in row_ids:
                version = self._version_of(table, row_id, ctx)
                if version is None:
                    continue
                if order_key(version.data.get(column)) != group_key:
                    continue  # stale index entry: row moved to another value
                if pred is None or pred(version.data, params):
                    matched.append(version)
        return matched

    # -- SELECT ---------------------------------------------------------------

    def _select(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> QueryResult:
        stmt = plan.stmt
        table = self.database.table(plan.table)
        pre_sorted = False
        fetch = getattr(table, "fetch_plan", None)
        if fetch is not None:
            matched, pre_sorted = fetch(
                plan,
                params,
                ctx,
                self.versioned,
                bool(stmt.order_by) and not stmt.is_aggregate,
            )
        else:
            candidates = self._plan_candidates(table, plan, params)
            if candidates is not None:
                matched = self._match_candidates(table, candidates, plan, params, ctx)
            elif plan.order_index is not None and not stmt.is_aggregate:
                ordered = self._ordered_matched(table, plan, params, ctx)
                if ordered is not None:
                    matched = ordered
                    pre_sorted = True
                else:
                    matched = self._plan_scan(table, plan, params, ctx)
            else:
                matched = self._plan_scan(table, plan, params, ctx)

        if stmt.is_aggregate:
            datas = [version.data for version in matched]
            row: Dict[str, object] = {}
            for name, agg_fn in plan.agg_items:
                row[name] = agg_fn(datas, params)
            return QueryResult(
                kind="select",
                table=stmt.table,
                rows=[row],
                rowcount=1,
                read_row_ids=tuple(version.row_id for version in matched),
            )

        if stmt.order_by and not pre_sorted:
            sort_items = plan.sort_items
            matched.sort(
                key=lambda v: tuple(
                    sort_key(fn(v.data, params), descending)
                    for fn, descending in sort_items
                )
            )

        rows: List[Dict[str, object]] = []
        if stmt.is_star:
            for version in matched:
                rows.append(dict(version.data))
        else:
            select_items = plan.select_items
            for version in matched:
                data = version.data
                rows.append({name: fn(data, params) for name, fn in select_items})

        if stmt.distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                key = tuple(sorted(row.items()))
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
            rows = unique_rows
        if stmt.offset:
            rows = rows[stmt.offset :]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return QueryResult(
            kind="select",
            table=stmt.table,
            rows=rows,
            rowcount=len(rows),
            read_row_ids=tuple(version.row_id for version in matched),
        )

    # -- INSERT ---------------------------------------------------------------

    def _insert(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> QueryResult:
        table = self.database.table(plan.table)
        columns = table.schema.columns
        new_rows: List[Dict[str, object]] = []
        for row_builder in plan.insert_rows:
            data = {col.name: None for col in columns}
            for column, value_fn in row_builder:
                data[column] = value_fn({}, params)
            new_rows.append(data)
        return self._store_inserts(table, new_rows, ctx)

    def _store_inserts(
        self, table: Table, new_rows: List[Dict[str, object]], ctx: ExecContext
    ) -> QueryResult:
        schema = table.schema
        # Uniqueness among rows visible *now* (plus the batch itself).
        for index, data in enumerate(new_rows):
            violated = table.unique_conflict(data, ctx.ts, ctx.gen)
            if violated is None:
                violated = _batch_conflict(schema.unique_keys, new_rows, index)
            if violated is not None:
                return QueryResult(
                    kind="insert",
                    table=schema.name,
                    ok=False,
                    error=f"unique constraint {violated} violated",
                )

        inserted = []
        partitions = set()
        for index, data in enumerate(new_rows):
            if index < len(ctx.forced_row_ids):
                row_id = ctx.forced_row_ids[index]
                table.note_row_id(row_id)
            else:
                row_id = table.allocate_row_id(data)
            # AUTO INCREMENT semantics: surface the allocated ID through the
            # designated row-ID column when the application left it NULL.
            id_column = schema.row_id_column
            if id_column is not None and data.get(id_column) is None:
                data[id_column] = row_id
            if self.versioned:
                version = RowVersion(
                    row_id,
                    data,
                    start_ts=ctx.ts,
                    end_ts=INFINITY,
                    start_gen=ctx.gen,
                    end_gen=INFINITY,
                )
            else:
                version = RowVersion(row_id, data, start_ts=0)
            table.add_version(version)
            if ctx.repair and ctx.journal is not None:
                ctx.journal.note_created(table, version)
            inserted.append(row_id)
            partitions |= schema.partition_keys(data)
        return QueryResult(
            kind="insert",
            table=schema.name,
            rowcount=len(inserted),
            inserted_row_ids=tuple(inserted),
            written_partitions=frozenset(partitions),
        )

    # -- UPDATE ---------------------------------------------------------------

    def _update(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> QueryResult:
        table = self.database.table(plan.table)
        assignments = plan.assignments
        updates: List[Tuple[RowVersion, Dict[str, object]]] = []
        for version in self._matching(table, plan, params, ctx):
            new_data = dict(version.data)
            for column, value_fn in assignments:
                new_data[column] = value_fn(version.data, params)
            updates.append((version, new_data))
        # When no assignment writes a partition (resp. indexed) column, the
        # old and new rows have identical partition keys (index entries), so
        # one computation covers both — observably identical, half the work.
        return self._store_updates(
            table,
            updates,
            ctx,
            partitions_once=not plan.touches_partitions,
            index_new_data=plan.touches_indexed,
        )

    def _store_updates(
        self,
        table: Table,
        updates: List[Tuple[RowVersion, Dict[str, object]]],
        ctx: ExecContext,
        partitions_once: bool,
        index_new_data: bool,
    ) -> QueryResult:
        schema = table.schema
        # Uniqueness check before mutating anything.
        for version, new_data in updates:
            violated = table.unique_conflict(
                new_data, ctx.ts, ctx.gen, exclude_row_id=version.row_id
            )
            if violated is not None:
                return QueryResult(
                    kind="update",
                    table=schema.name,
                    ok=False,
                    error=f"unique constraint {violated} violated",
                )

        partitions = set()
        affected = []
        for version, new_data in updates:
            if partitions_once:
                partitions |= schema.partition_keys(new_data)
            else:
                partitions |= schema.partition_keys(version.data)
                partitions |= schema.partition_keys(new_data)
            affected.append(version.row_id)
            if not self.versioned:
                table.set_plain_data(version, new_data, reindex=index_new_data)
                continue
            self._supersede(table, version, ctx)
            replacement = RowVersion(
                version.row_id,
                new_data,
                start_ts=ctx.ts,
                end_ts=INFINITY,
                start_gen=ctx.gen,
                end_gen=INFINITY,
            )
            table.add_version(replacement, index_data=index_new_data)
            if ctx.repair and ctx.journal is not None:
                ctx.journal.note_created(table, replacement)
        return QueryResult(
            kind="update",
            table=schema.name,
            rowcount=len(affected),
            affected_row_ids=tuple(affected),
            written_partitions=frozenset(partitions),
        )

    # -- DELETE ---------------------------------------------------------------

    def _delete(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> QueryResult:
        table = self.database.table(plan.table)
        return self._store_deletes(
            table, self._matching(table, plan, params, ctx), ctx
        )

    def _store_deletes(
        self, table: Table, matched: List[RowVersion], ctx: ExecContext
    ) -> QueryResult:
        partitions = set()
        affected = []
        for version in matched:
            partitions |= table.schema.partition_keys(version.data)
            affected.append(version.row_id)
            if not self.versioned:
                table.remove_version(version)
                continue
            self._supersede(table, version, ctx)
        return QueryResult(
            kind="delete",
            table=table.schema.name,
            rowcount=len(affected),
            affected_row_ids=tuple(affected),
            written_partitions=frozenset(partitions),
        )

    # -- repair support -----------------------------------------------------------

    def matching_rows(
        self, plan: ExecPlan, params: Sequence[object], ctx: ExecContext
    ) -> List[RowVersion]:
        """Rows the prepared statement's WHERE clause selects at (ts, gen)
        — used by two-phase write re-execution to find the *new* matching
        row IDs (§4.2), through the plan normal execution uses."""
        return self._matching(self.database.table(plan.table), plan, params, ctx)

    # -- write plumbing ---------------------------------------------------------

    def _supersede(self, table: Table, version: RowVersion, ctx: ExecContext) -> None:
        """End ``version`` at ``ctx.ts`` in the executing generation.

        In repair mode this is the §4.4 dance: matching rows that are still
        visible to the live (current) generation get a preserved copy so
        concurrent normal execution keeps seeing them, and the version being
        modified is re-homed into the repair generation before being closed.
        """
        if ctx.repair and version.start_gen <= ctx.current_gen:
            preserved = version.copy()
            preserved.end_gen = ctx.current_gen
            table.add_version(preserved)
            table.rehome_version(version, ctx.gen)
            if ctx.journal is not None:
                ctx.journal.note_fenced(table, preserved)
                ctx.journal.note_created(table, version)
        table.close_version(version, ctx.ts)


def _batch_conflict(
    unique_keys: Tuple[Tuple[str, ...], ...],
    new_rows: List[Dict[str, object]],
    index: int,
) -> Optional[Tuple[str, ...]]:
    """Check row ``index`` against earlier rows of the same INSERT batch."""
    data = new_rows[index]
    for key in unique_keys:
        candidate = tuple(data.get(col) for col in key)
        if any(value is None for value in candidate):
            continue
        for other in new_rows[:index]:
            if tuple(other.get(col) for col in key) == candidate:
                return key
    return None
