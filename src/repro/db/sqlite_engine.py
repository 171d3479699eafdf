"""SQLite (WAL-mode) storage engine behind the :mod:`repro.db.engine` seam.

Versioned rows live in *shadow tables*: one SQLite table per application
table with the WARP interval columns (``__start_ts``/``__end_ts`` half-open
time, ``__start_gen``/``__end_gen`` closed generations, paper §4.2) plus
one untyped shadow column per schema column and a ``__data`` JSON blob.
The blob is the fidelity source of truth — shadow columns exist so WHERE /
ORDER BY / projections can run inside SQLite (:mod:`repro.db.sql.lower`);
whenever a column has ever stored a value the shadow representation would
misrepresent (huge ints, NaN, non-scalars), lowering consults the per-
column :class:`~repro.db.sql.lower.ColumnState` flags and falls back to
materializing rows and re-checking with the compiled Python predicate.

``__vid INTEGER PRIMARY KEY AUTOINCREMENT`` is the engine-private version
identity stamped into :attr:`RowVersion.vid` at materialization time.
AUTOINCREMENT (never reuse a rowid) is load-bearing: repair abort replays
journaled discards/unfences keyed by vid, and a reused id would let an
abort clobber an unrelated version.  All interval/generation mutations
write through by vid *and* update the materialized object's attributes, so
the executor/repair/rollback code observes the same state it would on the
in-memory engine.

Files: one WAL-mode SQLite file per *partition group* (by default one
group per table; a ``groups`` mapping can coalesce tables) under the
engine's directory.  With no directory given the engine uses a
self-cleaning temporary directory — hermetic for tests — and with one it
reattaches to existing files via the ``__warp_meta`` table (schema,
row-id counter, lowering flags), which is flushed by ``checkpoint()`` /
``to_dict()`` / ``close()``.

Writes are atomic per operation: the time-travel layer runs each write
statement, row rollback, repair abort and gc inside :meth:`SqliteEngine.
atomic`, one transaction per group file it touches — one commit instead of
one per engine statement, and a failure anywhere inside rolls the files
back and restores the tables' counters, so a statement either happened or
did not.  ``execute_many`` (bulk loads) and DDL go through the same scope.

Fault points (see :mod:`repro.faults.plane`): ``sqlite.exec`` fires before
every statement the engine executes, ``sqlite.commit`` before a
checkpoint — so schedules can inject I/O errors or crashes at the SQL
boundary exactly like they do at the WAL's.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import tempfile
import threading
import weakref
from contextlib import contextmanager
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.clock import INFINITY
from repro.core.errors import StorageError
from repro.db.sql.lower import (
    ColumnState,
    bindable,
    render_order,
    render_where,
    warp_desc_cmp,
    warp_like,
)
from repro.db.storage import RowVersion, TableSchema
from repro.faults.plane import active as _active_plane

#: Interval/identity columns every shadow table carries, in SELECT order.
_BASE_COLS = "__vid, __row_id, __start_ts, __end_ts, __start_gen, __end_gen"

#: Visibility at (ts, gen): [start_ts, end_ts) half-open, [start_gen,
#: end_gen] closed — binds (ts, ts, gen, gen).
_VIS_SQL = (
    "__start_ts <= ? AND __end_ts > ? AND __start_gen <= ? AND __end_gen >= ?"
)

_DELETE_CHUNK = 500
_BULK_CHUNK = 20000

#: Winner order for non-versioned ("plain") reads: the memory engine's
#: ``chain[0]`` — lowest start_ts, earliest inserted on ties.
_PLAIN_WINNER = "__start_ts ASC, __vid ASC"

#: What a table keeps in Python about its rows, restored when an
#: ``atomic`` scope rolls the file back.
_COUNTERS = ("version_count", "_next_row_id", "_max_ts", "_open_seq", "_multi_open")
_counters = attrgetter(*_COUNTERS)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _release(conns: dict, directory: str, persistent: bool) -> None:
    """Engine finalizer — must not reference the engine itself."""
    for conn in list(conns.values()):
        try:
            conn.close()
        except Exception:
            pass
    conns.clear()
    if not persistent:
        import shutil

        shutil.rmtree(directory, ignore_errors=True)


def _json_encode(data: dict) -> str:
    # default=str keeps inserts of exotic values working (the column's
    # ``lossy`` flag already forces Python evaluation for them).
    return json.dumps(data, default=str)


class SqliteTable:
    """One application table's version store inside a group file."""

    #: Capability flag: build_plan attaches lowering artifacts
    #: (plan.lowered / lowered_order / referenced) for this table.
    sql_lowering = True

    def __init__(self, engine: "SqliteEngine", schema: TableSchema, group: str):
        self.engine = engine
        self.schema = schema
        self.group = group
        self.version_count = 0
        self._next_row_id = 1
        #: Highest recorded timestamp — reads at or after it can only see
        #: open versions (mirrors the memory engine's ``_max_ts``).
        self._max_ts = 0
        #: Monotone "became open" counter; assigned on insert-open and on
        #: reopen.  Replicates the memory engine's ``_live`` list order,
        #: which decides the winner when a row anomalously has more than
        #: one open visible version (duplicate forced row IDs).
        self._open_seq = 0
        #: Sticky: some row has (or once had) more than one simultaneously
        #: open version — duplicate forced-row-id inserts, repair's
        #: preserved copies, rollback re-extends.  Until then a row has at
        #: most one visible version at any (ts, gen), so WHERE filters may
        #: run before winner selection; once set, filtered fetches pick
        #: each row's visibility winner first (window query).
        self._multi_open = False
        self._sql_name = f'"t_{_safe_name(schema.name)}"'
        #: Column name -> (shadow ident, monotone lowering flags).
        self._states: Dict[str, ColumnState] = {
            col.name: ColumnState(f'"c{index}"')
            for index, col in enumerate(schema.columns)
        }
        self._columns = [col.name for col in schema.columns]
        #: Same set the in-memory engine indexes: the planner consults it
        #: when extracting access paths and ``_index_ddl`` indexes it.
        indexed = set(schema.partition_columns)
        for key in schema.unique_keys:
            indexed.update(key)
        if schema.row_id_column:
            indexed.add(schema.row_id_column)
        self._indexed_columns = indexed
        idents = ", ".join(self._states[name].ident for name in self._columns)
        placeholders = ", ".join("?" for _ in range(7 + len(self._columns)))
        self._insert_sql = (
            f"INSERT INTO {self._sql_name} (__row_id, __start_ts, __end_ts, "
            f"__start_gen, __end_gen, __data"
            + (f", {idents}" if idents else "")
            + f", __open_seq) VALUES ({placeholders})"
        )
        self._full_cols = f"{_BASE_COLS}, __data"

    # -- DDL / meta ------------------------------------------------------------

    def _create_ddl(self) -> List[str]:
        shadow = "".join(
            f", {self._states[name].ident}" for name in self._columns
        )
        return [
            f"CREATE TABLE IF NOT EXISTS {self._sql_name} ("
            "__vid INTEGER PRIMARY KEY AUTOINCREMENT, "
            "__row_id INTEGER NOT NULL, "
            "__start_ts INTEGER NOT NULL, "
            "__end_ts INTEGER NOT NULL, "
            "__start_gen INTEGER NOT NULL, "
            "__end_gen INTEGER NOT NULL, "
            "__open_seq INTEGER NOT NULL DEFAULT 0, "
            f"__data TEXT NOT NULL{shadow})"
        ]

    def _index_ddl(self) -> List[str]:
        """Idempotent index list, mirroring the memory engine's access
        paths: beside the two bookkeeping indexes, the open versions by
        row id (its ``_live`` map) and one index per ``_indexed_columns``
        member's shadow column (its equality index).  ``__end_ts`` rides
        along so a current read seeks straight to the open versions
        however long the matching rows' history is."""
        specs = {
            "row": "(__row_id, __start_ts)",
            "endgen": "(__end_gen)",
            "open": f"(__row_id) WHERE __end_ts = {INFINITY}",
        }
        for name in self._columns:
            if name in self._indexed_columns:
                ident = self._states[name].ident
                specs[ident.strip('"')] = f"({ident}, __end_ts)"
        base = _safe_name(self.schema.name)
        return [
            f'CREATE INDEX IF NOT EXISTS "ix_{base}_{suffix}" '
            f"ON {self._sql_name} {spec}"
            for suffix, spec in specs.items()
        ]

    def _meta_dict(self) -> dict:
        return {
            "group": self.group,
            "schema": self.schema.to_dict(),
            "next_row_id": self._next_row_id,
            "version_count": self.version_count,
            "max_ts": self._max_ts,
            "open_seq": self._open_seq,
            "multi_open": self._multi_open,
            "flags": {
                name: state.to_list() for name, state in self._states.items()
            },
        }

    def _load_meta(self, meta: dict) -> None:
        self._next_row_id = meta["next_row_id"]
        self.version_count = meta["version_count"]
        self._max_ts = meta.get("max_ts", 0)
        self._open_seq = meta.get("open_seq", 0)
        self._multi_open = meta.get("multi_open", False)
        for name, flags in meta.get("flags", {}).items():
            state = self._states.get(name)
            if state is not None:
                state.load_list(flags)

    # -- value encoding ----------------------------------------------------------

    def _encode_value(self, name: str, value):
        """Shadow representation of ``value``, updating the column's
        monotone flags so lowering knows what it can trust."""
        state = self._states[name]
        if value is None:
            return None
        if isinstance(value, bool):
            state.has_bool = True
            state.ranks.add(1)
            return int(value)
        if isinstance(value, int):
            state.ranks.add(1)
            if -(2**63) <= value <= 2**63 - 1:
                return value
            state.lossy = True
            return str(value)
        if isinstance(value, float):
            if value != value:
                state.has_nan = True
                return None
            state.ranks.add(1)
            return value
        if isinstance(value, str):
            state.ranks.add(2)
            return value
        state.lossy = True
        state.ranks.add(2)
        try:
            return str(value)
        except Exception:
            return "<unrepresentable>"

    def _encode_row(self, version: RowVersion) -> tuple:
        data = version.data
        return (
            version.row_id,
            version.start_ts,
            version.end_ts,
            version.start_gen,
            version.end_gen,
            _json_encode(data),
            *(self._encode_value(name, data.get(name)) for name in self._columns),
        )

    def _materialize(
        self, row: tuple, proj_names: Optional[List[str]] = None
    ) -> RowVersion:
        if proj_names is None:
            data = json.loads(row[6])
        else:
            # Projection pushdown: every projected column is faithful, so
            # shadow values ARE the stored values — no JSON parse.
            data = dict(zip(proj_names, row[6:]))
        version = RowVersion(row[1], data, row[2], row[3], row[4], row[5])
        version.vid = row[0]
        return version

    # -- execution plumbing ------------------------------------------------------

    def _exec(self, sql: str, binds: Sequence[object] = ()):
        return self.engine.execute(self.group, sql, binds)

    # -- row id management -------------------------------------------------------

    def allocate_row_id(self, data: Dict[str, object]) -> int:
        column = self.schema.row_id_column
        if column is not None:
            value = data.get(column)
            if isinstance(value, int) and value > 0:
                self._next_row_id = max(self._next_row_id, value + 1)
                return value
        row_id = self._next_row_id
        self._next_row_id += 1
        return row_id

    def note_row_id(self, row_id: int) -> None:
        if row_id + 1 > self._next_row_id:
            self._next_row_id = row_id + 1

    # -- version plumbing --------------------------------------------------------

    def _note_added(self, start_ts: int, end_ts: int) -> int:
        """Track ``_max_ts``/``_open_seq`` for a new version, returning the
        open-sequence number to store (0 for already-closed versions)."""
        if end_ts == INFINITY:
            self._open_seq += 1
            seq = self._open_seq
        else:
            seq = 0
            if end_ts > self._max_ts:
                self._max_ts = end_ts
        if start_ts > self._max_ts:
            self._max_ts = start_ts
        return seq

    def _check_multi_open(self, row_id: int) -> None:
        if self._multi_open:
            return
        (count,) = self._exec(
            f"SELECT COUNT(*) FROM {self._sql_name} "
            f"WHERE __row_id = ? AND __end_ts = {INFINITY}",
            (row_id,),
        ).fetchone()
        if count > 1:
            self._multi_open = True

    def add_version(self, version: RowVersion, index_data: bool = True) -> None:
        seq = self._note_added(version.start_ts, version.end_ts)
        cursor = self._exec(self._insert_sql, (*self._encode_row(version), seq))
        version.vid = cursor.lastrowid
        self.version_count += 1
        if seq:
            self._check_multi_open(version.row_id)

    def close_version(self, version: RowVersion, end_ts: int) -> None:
        self._exec(
            f"UPDATE {self._sql_name} SET __end_ts = ? WHERE __vid = ?",
            (end_ts, version.vid),
        )
        version.end_ts = end_ts
        if end_ts != INFINITY and end_ts > self._max_ts:
            self._max_ts = end_ts

    def reopen_version(self, version: RowVersion) -> None:
        if version.end_ts != INFINITY:
            self._open_seq += 1
            self._exec(
                f"UPDATE {self._sql_name} SET __end_ts = ?, __open_seq = ? "
                "WHERE __vid = ?",
                (INFINITY, self._open_seq, version.vid),
            )
            version.end_ts = INFINITY
            self._check_multi_open(version.row_id)

    def remove_version(self, version: RowVersion) -> None:
        cursor = self._exec(
            f"DELETE FROM {self._sql_name} WHERE __vid = ?", (version.vid,)
        )
        if cursor.rowcount:
            self.version_count -= 1

    def replace_data(self, version: RowVersion, new_data: Dict[str, object]) -> None:
        sets = ", ".join(
            f"{self._states[name].ident} = ?" for name in self._columns
        )
        binds = [
            *(self._encode_value(name, new_data.get(name)) for name in self._columns),
            _json_encode(new_data),
            version.vid,
        ]
        prefix = f"SET {sets}, " if sets else "SET "
        self._exec(
            f"UPDATE {self._sql_name} {prefix}__data = ? WHERE __vid = ?", binds
        )
        version.data = new_data

    def set_plain_data(
        self, version: RowVersion, new_data: Dict[str, object], reindex: bool = True
    ) -> None:
        # The reindex fast-path flag is an in-memory-index concern; shadow
        # columns and lowering flags must always be kept current.
        self.replace_data(version, new_data)

    def rehome_version(self, version: RowVersion, start_gen: int) -> None:
        self._exec(
            f"UPDATE {self._sql_name} SET __start_gen = ? WHERE __vid = ?",
            (start_gen, version.vid),
        )
        version.start_gen = start_gen

    def fence_version(self, version: RowVersion, end_gen: int) -> None:
        self._exec(
            f"UPDATE {self._sql_name} SET __end_gen = ? WHERE __vid = ?",
            (end_gen, version.vid),
        )
        version.end_gen = end_gen

    def unfence_version(self, version: RowVersion, if_end_gen: int) -> None:
        cursor = self._exec(
            f"UPDATE {self._sql_name} SET __end_gen = ? "
            "WHERE __vid = ? AND __end_gen = ?",
            (INFINITY, version.vid, if_end_gen),
        )
        if cursor.rowcount:
            version.end_gen = INFINITY

    def discard_version(self, version: RowVersion) -> bool:
        cursor = self._exec(
            f"DELETE FROM {self._sql_name} WHERE __vid = ?", (version.vid,)
        )
        if cursor.rowcount:
            self.version_count -= 1
            return True
        return False

    def gc_superseded(self, current_gen: int) -> int:
        cursor = self._exec(
            f"DELETE FROM {self._sql_name} WHERE __end_gen < ?", (current_gen,)
        )
        removed = cursor.rowcount
        self.version_count -= removed
        return removed

    # -- visibility --------------------------------------------------------------

    def _select_cols(self, proj_names: Optional[List[str]] = None) -> str:
        if proj_names is None:
            return self._full_cols
        idents = "".join(f", {self._states[name].ident}" for name in proj_names)
        return f"{_BASE_COLS}{idents}"

    def _fetch(
        self,
        where_sql: Optional[str],
        binds: Sequence[object],
        order_sql: str,
        proj_names: Optional[List[str]] = None,
    ) -> List[RowVersion]:
        cols = self._select_cols(proj_names)
        sql = f"SELECT {cols} FROM {self._sql_name}"
        if where_sql:
            sql += f" WHERE {where_sql}"
        sql += f" ORDER BY {order_sql}"
        rows = self._exec(sql, binds).fetchall()
        return [self._materialize(row, proj_names) for row in rows]

    @staticmethod
    def _dedupe(versions: List[RowVersion]) -> List[RowVersion]:
        """Keep the first fetched version of each logical row — the fetch
        order encodes which version wins (see ``_vis``)."""
        seen: set = set()
        out = []
        for version in versions:
            if version.row_id in seen:
                continue
            seen.add(version.row_id)
            out.append(version)
        return out

    def _vis(self, ts: int, gen: int) -> Tuple[str, tuple, str]:
        """``(where, binds, winner_order)`` replicating the memory
        engine's two read paths exactly.  At or after the newest recorded
        timestamp only open versions can be visible and the *earliest
        opened* gen-covering one wins (``_live`` list order); historical
        reads walk the chain back from the highest ``start_ts`` (ties:
        latest inserted)."""
        if ts >= self._max_ts:
            return (
                f"__end_ts = {INFINITY} AND __start_gen <= ? AND __end_gen >= ?",
                (gen, gen),
                "__open_seq ASC",
            )
        return (_VIS_SQL, (ts, ts, gen, gen), "__start_ts DESC, __vid DESC")

    def visible_rows(self, ts: int, gen: int) -> Iterator[RowVersion]:
        where, binds, winner = self._vis(ts, gen)
        fetched = self._fetch(where, binds, f"__row_id ASC, {winner}")
        return iter(self._dedupe(fetched))

    def visible_version(self, row_id: int, ts: int, gen: int) -> Optional[RowVersion]:
        where, binds, winner = self._vis(ts, gen)
        rows = self._exec(
            f"SELECT {self._full_cols} FROM {self._sql_name} "
            f"WHERE __row_id = ? AND {where} "
            f"ORDER BY {winner} LIMIT 1",
            (row_id, *binds),
        ).fetchall()
        if not rows:
            return None
        return self._materialize(rows[0])

    def row_versions(self, row_id: int) -> List[RowVersion]:
        return self._fetch(
            "__row_id = ?", (row_id,), "__start_ts ASC, __vid ASC"
        )

    def all_versions(self) -> Iterator[RowVersion]:
        return iter(
            self._fetch(None, (), "__row_id ASC, __start_ts ASC, __vid ASC")
        )

    def plain_rows(self) -> Iterator[RowVersion]:
        # chain[0] per row: lowest start_ts, earliest inserted on ties.
        fetched = self._fetch(None, (), f"__row_id ASC, {_PLAIN_WINNER}")
        return iter(self._dedupe(fetched))

    # -- access paths -------------------------------------------------------------

    def candidate_row_ids(self, column: str, value) -> Optional[set]:
        return None  # no in-memory equality index: fetch_plan is the path

    def fetch_plan(
        self,
        plan,
        params: Sequence[object],
        ctx,
        versioned: bool,
        want_order: bool,
    ) -> Tuple[List[RowVersion], bool]:
        """Matched rows for a compiled plan, straight from SQLite.

        Lowers WHERE (superset or exact), visibility, ORDER BY and the
        projection into one query; anything unlowerable falls back to the
        compiled Python predicate over materialized rows.  Returns
        ``(matched, pre_sorted)``; when not pre-sorted, rows are in row-ID
        order exactly like every other access path.
        """
        states = self._states
        where_sql, where_binds, exact = render_where(plan.lowered, params, states)
        need_recheck = plan.pred is not None and not exact

        order_sql = None
        if want_order and plan.lowered_order is not None and not need_recheck:
            # A non-exact prefilter re-checks rows with the Python
            # predicate; doing that in row-ID order keeps which-row-raises
            # behavior identical to the naive scan, so ORDER BY pushdown
            # only engages when the WHERE is exact.
            order_sql = render_order(plan.lowered_order, states)
        pre_sorted = order_sql is not None

        if versioned:
            vis_where, vis_binds, winner = self._vis(ctx.ts, ctx.gen)
        else:
            vis_where, vis_binds, winner = None, (), _PLAIN_WINNER
        #: While no row has ever had two open versions, each row has at
        #: most one visible version, so the lowered WHERE may filter
        #: before winner selection.  Once ``_multi_open`` is set it must
        #: filter winners only — a matching superseded version must not
        #: resurface (same contract the memory engine gets from checking
        #: only ``_visible_in_chain``'s pick).
        winner_first = self._multi_open and where_sql is not None

        proj_names = None
        if plan.referenced is not None:
            names = [name for name in plan.referenced if name in states]
            if all(states[name].faithful() for name in names):
                # Columns referenced but absent from the schema stay absent
                # from the partial dicts — the compiled closures raise the
                # same "unknown column" the full dict would produce.
                proj_names = names

        if pre_sorted or winner_first:
            # Window query: pick each row's visibility winner first, then
            # filter / sort — deduping or filtering in any other order
            # would pick the wrong version when a row has several visible
            # ones.
            cols = self._select_cols(proj_names)
            inner = [vis_where] if vis_where else []
            outer = ["__rn = 1"]
            binds: List[object] = list(vis_binds)
            if where_sql is not None:
                if winner_first:
                    # Only rows with a visible version satisfying the WHERE
                    # can have a winner that does: partition those rows
                    # (each with all its visible versions), not the table.
                    inner.append(
                        f"__row_id IN (SELECT __row_id FROM {self._sql_name} "
                        f"WHERE {' AND '.join(inner + [f'({where_sql})'])})"
                    )
                    outer.append(f"({where_sql})")
                    binds.extend((*vis_binds, *where_binds))
                else:
                    inner.append(where_sql)
                binds.extend(where_binds)
            order = (
                f"{order_sql}, __row_id ASC" if pre_sorted else "__row_id ASC"
            )
            sql = (
                f"SELECT {cols} FROM (SELECT *, ROW_NUMBER() OVER "
                f"(PARTITION BY __row_id ORDER BY {winner}) AS __rn "
                f"FROM {self._sql_name}"
                + (f" WHERE {' AND '.join(inner)}" if inner else "")
                + f") WHERE {' AND '.join(outer)} ORDER BY {order}"
            )
            rows = self._exec(sql, binds).fetchall()
            matched = [self._materialize(row, proj_names) for row in rows]
        else:
            clauses = []
            binds = []
            if vis_where:
                clauses.append(vis_where)
                binds.extend(vis_binds)
            if where_sql is not None:
                clauses.append(where_sql)
                binds.extend(where_binds)
            fetched = self._fetch(
                " AND ".join(clauses) if clauses else None,
                binds,
                f"__row_id ASC, {winner}",
                proj_names,
            )
            matched = self._dedupe(fetched)
        if need_recheck:
            pred = plan.pred
            matched = [v for v in matched if pred(v.data, params)]
        return matched, pre_sorted

    # -- uniqueness ---------------------------------------------------------------

    def unique_conflict(
        self,
        data: Dict[str, object],
        ts: int,
        gen: int,
        exclude_row_id: Optional[int] = None,
    ) -> Optional[Tuple[str, ...]]:
        for key in self.schema.unique_keys:
            candidate = tuple(data.get(col) for col in key)
            if any(value is None for value in candidate):
                continue
            if all(bindable(value) for value in candidate):
                # Shadow-column prefilter: when the true stored value
                # equals the candidate, the shadow value is SQL-equal to
                # the bind (huge/NaN/non-scalar candidates are unbindable
                # and take the scan path), so this finds a superset of the
                # candidate rows.  Only each row's *visibility winner* is
                # then checked — a matching non-winner version must not
                # conflict (same contract as the memory engine's probe).
                where, vis_binds, _ = self._vis(ts, gen)
                clauses = [where]
                binds: List[object] = list(vis_binds)
                for col, value in zip(key, candidate):
                    clauses.append(f"{self._states[col].ident} = ?")
                    binds.append(value)
                row_ids = [
                    row[0]
                    for row in self._exec(
                        f"SELECT DISTINCT __row_id FROM {self._sql_name} "
                        f"WHERE {' AND '.join(clauses)}",
                        binds,
                    ).fetchall()
                ]
                versions = (
                    self.visible_version(row_id, ts, gen) for row_id in row_ids
                )
            else:
                versions = self.visible_rows(ts, gen)
            for version in versions:
                if version is None:
                    continue
                if exclude_row_id is not None and version.row_id == exclude_row_id:
                    continue
                if tuple(version.data.get(col) for col in key) == candidate:
                    return key
        return None

    # -- maintenance --------------------------------------------------------------

    def gc(self, horizon_ts: int) -> int:
        """Same policy as the in-memory engine: drop versions that ended
        before the horizon, never a row's only remaining version (the
        survivor is the first-maximal ``end_ts`` among the dropped)."""
        doomed: List[int] = []
        rows = self._exec(
            f"SELECT __vid, __row_id, __end_ts FROM {self._sql_name} "
            "WHERE __row_id IN ("
            f"SELECT __row_id FROM {self._sql_name} "
            "GROUP BY __row_id HAVING COUNT(*) > 1) "
            "ORDER BY __row_id ASC, __start_ts ASC, __vid ASC"
        ).fetchall()
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        for vid, row_id, end_ts in rows:
            by_row.setdefault(row_id, []).append((vid, end_ts))
        for chain in by_row.values():
            dropped = [
                (vid, end_ts)
                for vid, end_ts in chain
                if end_ts < horizon_ts and end_ts != INFINITY
            ]
            if not dropped:
                continue
            if len(dropped) == len(chain):
                survivor = max(dropped, key=lambda item: item[1])
                dropped.remove(survivor)
            doomed.extend(vid for vid, _ in dropped)
        for start in range(0, len(doomed), _DELETE_CHUNK):
            chunk = doomed[start : start + _DELETE_CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            self._exec(
                f"DELETE FROM {self._sql_name} WHERE __vid IN ({placeholders})",
                chunk,
            )
        self.version_count -= len(doomed)
        return len(doomed)

    def integrity_errors(
        self, gen: int, budget: int = 20, label: str = ""
    ) -> List[str]:
        """The same chain invariants the in-memory engine sweeps (minus its
        private live-map check, which has no analogue here)."""
        errors: List[str] = []
        name = label or self.schema.name
        rows = self._exec(
            f"SELECT __row_id, __start_ts, __end_ts, __start_gen, __end_gen "
            f"FROM {self._sql_name} ORDER BY __row_id ASC, __start_ts ASC"
        ).fetchall()
        index = 0
        total = len(rows)
        while index < total and len(errors) < budget:
            row_id = rows[index][0]
            stop = index
            while stop < total and rows[stop][0] == row_id:
                stop += 1
            chain = rows[index:stop]
            index = stop
            visible = sorted(
                (
                    (start_ts, end_ts)
                    for _, start_ts, end_ts, start_gen, end_gen in chain
                    if start_gen <= gen <= end_gen
                ),
            )
            open_count = sum(1 for _, end_ts in visible if end_ts == INFINITY)
            if open_count > 1:
                errors.append(
                    f"{name}: row {row_id} has {open_count} open "
                    f"versions visible in gen {gen}"
                )
            for a, b in zip(visible, visible[1:]):
                if a[0] < a[1] and b[0] < b[1] and b[0] < a[1]:
                    errors.append(
                        f"{name}: row {row_id} overlapping versions "
                        f"[{a[0]},{a[1]}) and [{b[0]},{b[1]}) in gen {gen}"
                    )
            for _, start_ts, end_ts, _, _ in chain:
                if end_ts != INFINITY and start_ts > end_ts:
                    errors.append(
                        f"{name}: row {row_id} inverted interval "
                        f"[{start_ts},{end_ts})"
                    )
        return errors[:budget]

    # -- persistence --------------------------------------------------------------

    def bulk_load(self, versions: Sequence[Sequence[object]]) -> None:
        """Load ``[row_id, data, start_ts, end_ts, start_gen, end_gen]``
        tuples (the persisted shape) in chunked transactions — the path
        ``restore`` uses for millions of rows."""
        chunk: List[tuple] = []
        for row_id, data, start_ts, end_ts, start_gen, end_gen in versions:
            version = RowVersion(
                row_id, dict(data), start_ts, end_ts, start_gen, end_gen
            )
            seq = self._note_added(start_ts, end_ts)
            chunk.append((*self._encode_row(version), seq))
            if len(chunk) >= _BULK_CHUNK:
                self._flush_chunk(chunk)
                chunk = []
        if chunk:
            self._flush_chunk(chunk)
        # Built once over the loaded rows when the table came without them
        # (``restore``) instead of maintained per insert; a no-op otherwise.
        self.engine._run_ddl(self.group, self._index_ddl())
        if not self._multi_open:
            row = self._exec(
                f"SELECT 1 FROM {self._sql_name} WHERE __end_ts = {INFINITY} "
                "GROUP BY __row_id HAVING COUNT(*) > 1 LIMIT 1"
            ).fetchone()
            if row is not None:
                self._multi_open = True

    def _flush_chunk(self, chunk: List[tuple]) -> None:
        self.engine.execute_many(self.group, self._insert_sql, chunk)
        self.version_count += len(chunk)

    def to_dict(self) -> dict:
        versions = [
            [v.row_id, v.data, v.start_ts, v.end_ts, v.start_gen, v.end_gen]
            for v in self.all_versions()
        ]
        return {
            "schema": self.schema.to_dict(),
            "next_row_id": self._next_row_id,
            "versions": versions,
        }


class SqliteEngine:
    """Database-shaped engine storing every table in WAL-mode SQLite."""

    backend = "sqlite"

    def __init__(
        self,
        path: Optional[str] = None,
        fault_plane=None,
        groups: Optional[Dict[str, str]] = None,
    ) -> None:
        self.tables: Dict[str, SqliteTable] = {}
        self.ddl_epoch = 0
        self.faults = fault_plane if fault_plane is not None else _active_plane()
        #: Table name -> partition-group name (default: its own group).
        self._groups = dict(groups or {})
        self.persistent = path is not None
        if path is None:
            self._dir = tempfile.mkdtemp(prefix="repro-sqlite-")
        else:
            os.makedirs(path, exist_ok=True)
            self._dir = path
        self.path = self._dir
        self._conns: Dict[str, sqlite3.Connection] = {}
        #: Connections are shared across request threads
        #: (check_same_thread=False).  The lock makes connection setup, a
        #: statement with the lastrowid / rowcount its cursor captures, and
        #: a whole BEGIN…COMMIT atomic.  Callers fetch from the returned
        #: cursor *outside* it, which is safe because SQLite runs
        #: serialized (``sqlite3.threadsafety == 3``: every API call takes
        #: the connection mutex) and each cursor is its own statement;
        #: isolating one statement's reads from another thread's write is
        #: ``TimeTravelDB.statement_lock``'s job, as on the memory engine.
        self._lock = threading.RLock()
        #: Connections holding a transaction of the open ``atomic`` scope
        #: (None outside one).  Only the thread holding ``_lock`` — which
        #: the scope holds throughout — reads or writes it.
        self._scope: Optional[List[sqlite3.Connection]] = None
        self._finalizer = weakref.finalize(
            self, _release, self._conns, self._dir, self.persistent
        )
        if self.persistent:
            self._attach_existing()

    # -- connections -------------------------------------------------------------

    def _connect(self, group: str) -> sqlite3.Connection:
        conn = self._conns.get(group)
        if conn is None:
            file_path = os.path.join(self._dir, f"{_safe_name(group)}.sqlite")
            conn = sqlite3.connect(
                file_path,
                check_same_thread=False,
                isolation_level=None,  # autocommit; WAL makes writes durable
                cached_statements=256,
            )
            conn.create_function("warp_like", 2, warp_like, deterministic=True)
            conn.create_collation("warp_desc", warp_desc_cmp)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS __warp_meta "
                "(key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conns[group] = conn
        return conn

    def execute(self, group: str, sql: str, binds: Sequence[object] = ()):
        self.faults.fire("sqlite.exec", op=sql.split(None, 1)[0])
        with self._lock:
            return self._joined(group).execute(sql, tuple(binds))

    def execute_many(self, group: str, sql: str, rows: List[tuple]) -> None:
        self.faults.fire("sqlite.exec", op="INSERT", rows=len(rows))
        with self.atomic():
            self._joined(group).executemany(sql, rows)

    def _run_ddl(self, group: str, statements: Sequence[str]) -> None:
        """One commit per table, however many indexes it carries."""
        with self.atomic():
            for ddl in statements:
                self.execute(group, ddl)

    def _joined(self, group: str) -> sqlite3.Connection:
        """``group``'s connection, in the open scope's transaction if there
        is a scope (begun by the scope's first statement on the file).
        Caller holds ``_lock``."""
        conn = self._connect(group)
        if self._scope is not None and not conn.in_transaction:
            conn.execute("BEGIN")
            self._scope.append(conn)
        return conn

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """All of the scope's statements or none: each group file it
        touches is one transaction, committed when the scope ends and
        rolled back — with every table's counters — when anything inside
        raises (a fault, a crash, a caller's error).  Holds the engine lock
        throughout; a scope opened inside another joins it."""
        with self._lock:
            if self._scope is not None:
                yield
                return
            saved = [(table, _counters(table)) for table in self.tables.values()]
            self._scope = opened = []
            try:
                yield
                for conn in opened:
                    conn.execute("COMMIT")
            except BaseException:
                for conn in opened:
                    try:
                        conn.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass
                for table, values in saved:
                    for name, value in zip(_COUNTERS, values):
                        setattr(table, name, value)
                raise
            finally:
                self._scope = None

    # -- attach / meta ------------------------------------------------------------

    def _attach_existing(self) -> None:
        for filename in sorted(os.listdir(self._dir)):
            if not filename.endswith(".sqlite"):
                continue
            group_key = filename[: -len(".sqlite")]
            conn = self._connect(group_key)
            rows = conn.execute(
                "SELECT key, value FROM __warp_meta WHERE key LIKE 'table:%'"
            ).fetchall()
            for _, value in rows:
                meta = json.loads(value)
                schema = TableSchema.from_dict(meta["schema"])
                if schema.name in self.tables:
                    continue
                group = meta.get("group", schema.name)
                self._groups.setdefault(schema.name, group)
                # The file was discovered under its sanitized name; alias
                # the logical group to the same connection.
                self._conns.setdefault(group, conn)
                table = SqliteTable(self, schema, group)
                table._load_meta(meta)
                self.tables[schema.name] = table
                # Directories written before the column indexes existed
                # gain them on first open; a no-op afterwards.
                self._run_ddl(group, table._index_ddl())
        if self.tables:
            self.ddl_epoch += 1

    def _write_meta(self, table: SqliteTable) -> None:
        with self._lock:
            self._connect(table.group).execute(
                "INSERT INTO __warp_meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (f"table:{table.schema.name}", json.dumps(table._meta_dict())),
            )

    def checkpoint(self) -> None:
        """Flush table metadata (row-id counters, lowering flags) and
        truncate each group file's WAL — the durability point for
        file-backed deployments (``to_dict``/``close`` call it too)."""
        self.faults.fire("sqlite.commit")
        with self._lock:
            for table in self.tables.values():
                self._write_meta(table)
            for conn in self._conns.values():
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        with self._lock:
            try:
                self.checkpoint()
            finally:
                for conn in self._conns.values():
                    try:
                        conn.close()
                    except Exception:
                        pass
                self._conns.clear()

    # -- DDL ----------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> SqliteTable:
        return self._create(schema, indexed=True)

    def _create(self, schema: TableSchema, indexed: bool) -> SqliteTable:
        if schema.name in self.tables:
            raise StorageError(f"table {schema.name!r} already exists")
        group = self._groups.get(schema.name, schema.name)
        table = SqliteTable(self, schema, group)
        ddl = table._create_ddl()
        self._run_ddl(group, ddl + table._index_ddl() if indexed else ddl)
        self.tables[schema.name] = table
        self._write_meta(table)
        self.ddl_epoch += 1
        return table

    def table(self, name: str) -> SqliteTable:
        try:
            return self.tables[name]
        except KeyError:
            raise StorageError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def drop_table(self, name: str) -> None:
        table = self.tables.pop(name, None)
        if table is None:
            raise StorageError(f"no such table {name!r}")
        self.execute(table.group, f"DROP TABLE IF EXISTS {table._sql_name}")
        self.execute(
            table.group, "DELETE FROM __warp_meta WHERE key = ?", (f"table:{name}",)
        )
        self.ddl_epoch += 1

    # -- whole-database operations -------------------------------------------------

    def total_versions(self) -> int:
        return sum(table.version_count for table in self.tables.values())

    def gc(self, horizon_ts: int) -> int:
        return sum(table.gc(horizon_ts) for table in self.tables.values())

    # -- persistence ----------------------------------------------------------------

    def to_dict(self) -> dict:
        state = {"tables": [table.to_dict() for table in self.tables.values()]}
        self.checkpoint()
        return state

    def restore(self, data: dict) -> None:
        """Rebuild every table from a persisted image (engine-portable
        JSON shape shared with the in-memory engine)."""
        for name in list(self.tables):
            self.drop_table(name)
        for item in data["tables"]:
            schema = TableSchema.from_dict(item["schema"])
            table = self._create(schema, indexed=False)  # bulk_load indexes
            table.bulk_load(item["versions"])
            table._next_row_id = item["next_row_id"]
            self._write_meta(table)
        self.ddl_epoch += 1
