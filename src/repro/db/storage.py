"""Versioned row storage — the substrate under the time-travel database.

Every logical row is a chain of :class:`RowVersion` objects.  A version is
valid for the half-open time interval ``[start_ts, end_ts)`` and the closed
generation interval ``[start_gen, end_gen]`` (paper §4.2–§4.4).  "Current"
versions have ``end_ts == INFINITY``; versions not yet superseded in any
repair generation have ``end_gen == INFINITY``.

The storage layer knows nothing about SQL or repair; it provides version
visibility, row-ID indexing and uniqueness bookkeeping.  Query rewriting
semantics live in :mod:`repro.ttdb.timetravel`; plain (non-versioned)
execution for the "No WARP" baseline lives in the executor.

Access paths (used by the query planner in :mod:`repro.db.planner`):

* per-row version chains are kept **sorted by ``start_ts``**, so
  ``visible_version`` bisects to the candidate versions instead of
  scanning the whole chain;
* a **live-version map** tracks the open versions (``end_ts == INFINITY``)
  of every row, so reads at the current time (``ts >= max recorded
  timestamp``) never rescan dead history — all version closes/reopens
  must therefore go through :meth:`Table.close_version` /
  :meth:`Table.reopen_version`;
* the equality ``_value_index`` additionally maintains a lazily built
  **ordered** list of its distinct values per column, enabling range
  scans and index-ordered traversal (``ORDER BY``).  Index entries are
  purged when the last version carrying a value is removed
  (``remove_version`` / ``gc``), so the index is bounded by live+retained
  history instead of growing forever under churn.
"""

from __future__ import annotations

import bisect
import contextlib
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.clock import INFINITY
from repro.core.errors import StorageError

_START_TS = operator.attrgetter("start_ts")


def order_key(value) -> Tuple[int, object]:
    """Total order across None/bool/int/float/str — the single source of
    truth shared by ORDER BY sort keys (:func:`repro.db.planner.sort_key`)
    and the ordered value index; both must sort identically."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def descending_order_key(rank: int, key) -> Tuple[int, object]:
    """Descending transform of an :func:`order_key` pair.

    Strings are inverted by negating each character's code point — which
    is *not* the reverse of the ascending order for prefix pairs (''
    sorts before 'z' descending) — so index traversal and in-memory sorts
    agree on the same quirk by construction."""
    if rank == 2:
        return (-2, tuple(-ord(ch) for ch in key))
    return (-rank, -key)


@dataclass(frozen=True)
class Column:
    """A column definition.  Types are advisory (the engine is dynamic)."""

    name: str
    type: str = "text"  # 'text' | 'int' | 'float' | 'bool'


@dataclass(frozen=True)
class TableSchema:
    """Schema plus the WARP annotations from §4.1.

    ``row_id_column`` names an application column whose value is assigned
    once at row creation and never overwritten; if ``None``, WARP manages a
    synthetic row ID transparently (the paper's extra ``row_id`` column).
    ``partition_columns`` drive fine-grained read-dependency analysis.
    ``unique_keys`` are enforced among *currently visible* rows only, which
    mirrors the paper's trick of extending unique indexes with
    ``end_ts``/``end_gen`` (§6).
    """

    name: str
    columns: Tuple[Column, ...]
    row_id_column: Optional[str] = None
    partition_columns: Tuple[str, ...] = ()
    unique_keys: Tuple[Tuple[str, ...], ...] = ()

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def has_column(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)

    def partition_keys(self, data: Dict[str, object]) -> set:
        """The (table, column, value) partition keys a concrete row belongs to."""
        keys = set()
        for column in self.partition_columns:
            value = data.get(column)
            if isinstance(value, (str, int, float, bool)) or value is None:
                keys.add((self.name, column, value))
        return keys

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [[col.name, col.type] for col in self.columns],
            "row_id_column": self.row_id_column,
            "partition_columns": list(self.partition_columns),
            "unique_keys": [list(key) for key in self.unique_keys],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSchema":
        return cls(
            name=data["name"],
            columns=tuple(Column(name, type) for name, type in data["columns"]),
            row_id_column=data.get("row_id_column"),
            partition_columns=tuple(data.get("partition_columns", ())),
            unique_keys=tuple(tuple(key) for key in data.get("unique_keys", ())),
        )


class RowVersion:
    """One immutable-ish version of a logical row.

    ``data`` maps column name to value.  ``row_id`` is WARP's stable name
    for the logical row (paper §4.1); all versions of the same logical row
    share it.
    """

    __slots__ = ("row_id", "data", "start_ts", "end_ts", "start_gen", "end_gen", "vid")

    def __init__(
        self,
        row_id: int,
        data: Dict[str, object],
        start_ts: int,
        end_ts: int = INFINITY,
        start_gen: int = 0,
        end_gen: int = INFINITY,
    ) -> None:
        self.row_id = row_id
        self.data = data
        self.start_ts = start_ts
        self.end_ts = end_ts
        self.start_gen = start_gen
        self.end_gen = end_gen
        #: Engine-private version identity.  The in-memory engine relies on
        #: object identity and leaves this None; the SQLite engine stamps the
        #: shadow-table rowid here so materialized versions can be mutated
        #: and discarded by key across statements.
        self.vid = None

    def visible(self, ts: int, gen: int) -> bool:
        return (
            self.start_ts <= ts < self.end_ts
            and self.start_gen <= gen <= self.end_gen
        )

    def visible_in_gen(self, gen: int) -> bool:
        return self.start_gen <= gen <= self.end_gen

    def copy(self) -> "RowVersion":
        return RowVersion(
            self.row_id,
            dict(self.data),
            self.start_ts,
            self.end_ts,
            self.start_gen,
            self.end_gen,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end_ts = "inf" if self.end_ts == INFINITY else self.end_ts
        end_gen = "inf" if self.end_gen == INFINITY else self.end_gen
        return (
            f"RowVersion(row_id={self.row_id}, ts=[{self.start_ts},{end_ts}), "
            f"gen=[{self.start_gen},{end_gen}], data={self.data})"
        )


class Table:
    """All versions of all rows of one table, indexed by row ID."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.versions: Dict[int, List[RowVersion]] = {}
        self._next_row_id = 1
        #: Versions created/affected per timestamp are found by scanning;
        #: the table keeps a count for storage accounting.
        self.version_count = 0
        #: Sorted row IDs (kept incrementally; scans yield row-ID order).
        self._sorted_ids: List[int] = []
        #: Open versions (end_ts == INFINITY) per row — the fast path for
        #: reads at the current time.  Maintained by add/close/reopen/remove.
        self._live: Dict[int, List[RowVersion]] = {}
        #: Highest finite timestamp (start or end) ever recorded.  A read at
        #: ``ts >= _max_ts`` can only see open versions.
        self._max_ts = 0
        #: Equality index: column -> value -> row IDs that currently (or in
        #: retained history) carry that value.  Over-approximate by design —
        #: stale entries are filtered by the visibility/WHERE checks — but
        #: bounded: entries are purged when the last version carrying a
        #: value is removed.
        indexed = set(schema.partition_columns)
        for key in schema.unique_keys:
            indexed.update(key)
        if schema.row_id_column:
            indexed.add(schema.row_id_column)
        self._indexed_columns = indexed
        self._value_index: Dict[str, Dict[object, set]] = {
            column: {} for column in indexed
        }
        #: Lazily built sorted (rank, key, value) triples per column, for
        #: range predicates and index-ordered traversal.
        self._ordered: Dict[str, List[Tuple[int, object, object]]] = {}
        #: Columns that ever carried an unhashable or NaN value: the ordered
        #: access paths are disabled for them (the equality index already
        #: skips such values, so candidate sets would be incomplete).
        self._unorderable: Set[str] = set()
        #: Distinct order-key ranks seen per column (never shrinks).  Range
        #: scans are only taken when every indexed value is NULL or of the
        #: bound's rank, so an index range can never skip a row the naive
        #: scan would have raised a type error on.
        self._value_ranks: Dict[str, Set[int]] = {column: set() for column in indexed}

    # -- row id management ---------------------------------------------------

    def allocate_row_id(self, data: Dict[str, object]) -> int:
        """Pick the row ID for a new logical row.

        Uses the schema's designated row-ID column when its value is a
        usable integer-like key; otherwise allocates a synthetic ID.
        """
        column = self.schema.row_id_column
        if column is not None:
            value = data.get(column)
            if isinstance(value, int) and value > 0:
                self._next_row_id = max(self._next_row_id, value + 1)
                return value
        row_id = self._next_row_id
        self._next_row_id += 1
        return row_id

    # -- version plumbing ------------------------------------------------------

    def add_version(self, version: RowVersion, index_data: bool = True) -> None:
        """Insert a version into its row's chain.

        ``index_data=False`` is a planner fast path for updates whose
        assignments touch no indexed column: the superseded version of the
        same row stays in the chain and already carries identical indexed
        values, so every index entry this version needs provably exists.
        """
        row_id = version.row_id
        chain = self.versions.get(row_id)
        if chain is None:
            self.versions[row_id] = [version]
            bisect.insort(self._sorted_ids, row_id)
        elif version.start_ts >= chain[-1].start_ts:
            chain.append(version)
        else:
            bisect.insort(chain, version, key=_START_TS)
        self.version_count += 1
        if version.end_ts == INFINITY:
            open_versions = self._live.get(row_id)
            if open_versions is None:
                self._live[row_id] = [version]
            else:
                open_versions.append(version)
        elif version.end_ts > self._max_ts:
            self._max_ts = version.end_ts
        if version.start_ts > self._max_ts:
            self._max_ts = version.start_ts
        if index_data:
            self._index_version_data(version.data, row_id)

    def close_version(self, version: RowVersion, end_ts: int) -> None:
        """Set ``end_ts`` on an open version, keeping the live map honest."""
        if version.end_ts == INFINITY and end_ts != INFINITY:
            open_versions = self._live.get(version.row_id)
            if open_versions is not None:
                for index, candidate in enumerate(open_versions):
                    if candidate is version:
                        open_versions.pop(index)
                        break
                # An emptied list is kept for reuse by the row's next
                # version (supersede→add churn would otherwise allocate a
                # list per update).
        version.end_ts = end_ts
        if end_ts != INFINITY and end_ts > self._max_ts:
            self._max_ts = end_ts

    def reopen_version(self, version: RowVersion) -> None:
        """Re-extend a closed version to ``INFINITY`` (repair rollback)."""
        if version.end_ts != INFINITY:
            version.end_ts = INFINITY
            open_versions = self._live.get(version.row_id)
            if open_versions is None:
                self._live[version.row_id] = [version]
            else:
                open_versions.append(version)

    def remove_version(self, version: RowVersion) -> None:
        chain = self.versions.get(version.row_id, [])
        chain.remove(version)
        self.version_count -= 1
        if version.end_ts == INFINITY:
            open_versions = self._live.get(version.row_id)
            if open_versions is not None:
                for index, candidate in enumerate(open_versions):
                    if candidate is version:
                        open_versions.pop(index)
                        break
        if not chain:
            del self.versions[version.row_id]
            self._live.pop(version.row_id, None)
            index = self._sorted_ids
            pos = bisect.bisect_left(index, version.row_id)
            if pos < len(index) and index[pos] == version.row_id:
                index.pop(pos)
        self._unindex_version(version, chain)

    def replace_data(self, version: RowVersion, new_data: Dict[str, object]) -> None:
        """In-place data swap (plain/non-versioned mode only): reindex the
        new values and purge old ones the row no longer carries."""
        old_data = version.data
        version.data = new_data
        self._index_version_data(new_data, version.row_id)
        chain = self.versions.get(version.row_id, [])
        self._purge_stale_values(old_data, version.row_id, chain)

    # -- engine seam -----------------------------------------------------------
    #
    # Everything above the storage layer mutates version state only through
    # the methods below (plus add/close/reopen/remove/replace above).  They
    # are trivial attribute writes here; the SQLite engine overrides them
    # with write-through updates keyed by ``RowVersion.vid`` so the same
    # executor/repair/rollback code drives either backend.

    def note_row_id(self, row_id: int) -> None:
        """Record an externally chosen row ID so future synthetic
        allocations never collide with it (forced-ID inserts)."""
        if row_id + 1 > self._next_row_id:
            self._next_row_id = row_id + 1

    def rehome_version(self, version: RowVersion, start_gen: int) -> None:
        """Move a version's start into ``start_gen`` (repair supersede)."""
        version.start_gen = start_gen

    def fence_version(self, version: RowVersion, end_gen: int) -> None:
        """Cap a version's generation interval at ``end_gen``."""
        version.end_gen = end_gen

    def unfence_version(self, version: RowVersion, if_end_gen: int) -> None:
        """Undo a fence: re-extend ``end_gen`` to INFINITY, but only when it
        still equals ``if_end_gen`` (abort must not clobber later fences)."""
        if version.end_gen == if_end_gen:
            version.end_gen = INFINITY

    def discard_version(self, version: RowVersion) -> bool:
        """Remove a version if it is still present (repair abort).  Returns
        whether anything was removed; idempotent by design."""
        chain = self.versions.get(version.row_id)
        if chain is not None and any(v is version for v in chain):
            self.remove_version(version)
            return True
        return False

    def gc_superseded(self, current_gen: int) -> int:
        """Drop every version fenced strictly before ``current_gen`` —
        history no surviving generation can see (post-finalize GC)."""
        removed = 0
        for version in list(self.all_versions()):
            if version.end_gen < current_gen:
                self.remove_version(version)
                removed += 1
        return removed

    def plain_rows(self) -> Iterator[RowVersion]:
        """Non-versioned ("No WARP" baseline) scan: the first version of
        every row chain, in row-ID order."""
        for row_id in self._sorted_ids:
            chain = self.versions.get(row_id)
            if chain:
                yield chain[0]

    def set_plain_data(
        self, version: RowVersion, new_data: Dict[str, object], reindex: bool = True
    ) -> None:
        """Plain-mode in-place update.  ``reindex=False`` is the planner
        fast path for assignments that touch no indexed column."""
        if reindex:
            self.replace_data(version, new_data)
        else:
            version.data = new_data

    # -- equality / ordered index ----------------------------------------------

    def _index_version_data(self, data: Dict[str, object], row_id: int) -> None:
        for column in self._indexed_columns:
            value = data.get(column)
            try:
                bucket = self._value_index[column]
                rows = bucket.get(value)
                if rows is None:
                    bucket[value] = {row_id}
                    self._note_new_value(column, value)
                else:
                    rows.add(row_id)
            except TypeError:
                # Unhashable value: not indexed; ordered paths unsafe.
                self._unorderable.add(column)
                self._ordered.pop(column, None)

    def _note_new_value(self, column: str, value) -> None:
        rank, key = order_key(value)
        if value != value:  # NaN: unsortable, unfindable — poison ordering
            self._unorderable.add(column)
            self._ordered.pop(column, None)
            return
        self._value_ranks[column].add(rank)
        ordered = self._ordered.get(column)
        if ordered is not None:
            try:
                bisect.insort(ordered, (rank, key, value), key=_RANK_KEY)
            except TypeError:  # pragma: no cover - defensive
                self._unorderable.add(column)
                del self._ordered[column]

    def _unindex_version(
        self, version: RowVersion, remaining_chain: List[RowVersion]
    ) -> None:
        self._purge_stale_values(version.data, version.row_id, remaining_chain)

    def _purge_stale_values(
        self, data: Dict[str, object], row_id: int, chain: List[RowVersion]
    ) -> None:
        """Drop ``row_id`` from index entries for values no surviving
        version of the row carries any more."""
        for column in self._indexed_columns:
            value = data.get(column)
            try:
                rows = self._value_index[column].get(value)
            except TypeError:
                continue
            if rows is None:
                continue
            still_carried = False
            for other in chain:
                if other.data.get(column) == value:
                    still_carried = True
                    break
            if still_carried:
                continue
            rows.discard(row_id)
            if not rows:
                del self._value_index[column][value]
                self._drop_ordered_value(column, value)

    def _drop_ordered_value(self, column: str, value) -> None:
        ordered = self._ordered.get(column)
        if ordered is None:
            return
        rank, key = order_key(value)
        pos = bisect.bisect_left(ordered, (rank, key), key=_RANK_KEY)
        while pos < len(ordered) and ordered[pos][0] == rank and ordered[pos][1] == key:
            stored = ordered[pos][2]
            if stored is value or stored == value:
                ordered.pop(pos)
                return
            pos += 1

    def candidate_row_ids(self, column: str, value) -> Optional[set]:
        """Row IDs that may currently carry ``column == value`` (superset),
        or None when the column is not indexed."""
        if column not in self._indexed_columns:
            return None
        try:
            return self._value_index[column].get(value, set())
        except TypeError:
            return None

    def _ordered_list(self, column: str):
        if column in self._unorderable or column not in self._indexed_columns:
            return None
        ordered = self._ordered.get(column)
        if ordered is None:
            triples = []
            for value in self._value_index[column]:
                if value != value:  # NaN slipped in before ordering was asked
                    self._unorderable.add(column)
                    return None
                rank, key = order_key(value)
                triples.append((rank, key, value))
            try:
                triples.sort(key=_RANK_KEY)
            except TypeError:  # pragma: no cover - defensive
                self._unorderable.add(column)
                return None
            self._ordered[column] = ordered = triples
        return ordered

    def range_candidate_row_ids(
        self,
        column: str,
        lo,
        lo_inclusive: bool,
        hi,
        hi_inclusive: bool,
    ) -> Optional[set]:
        """Row IDs that may satisfy a range predicate on ``column``
        (superset), or None when an index range scan would be unsound.

        Soundness: the scan is only taken when every indexed value is NULL
        or has the same order-key rank as the bounds — so the range
        comparison *on this column* can never silently skip a row it would
        have raised on (incomparable types).  Rows it excludes are never
        evaluated at all, so *other* WHERE conjuncts that would raise on
        them cannot — the same caveat the equality index has always had.
        """
        if lo is None and hi is None:
            return None
        bound = lo if lo is not None else hi
        brank, _ = order_key(bound)
        if brank == 0:
            return None
        if lo is not None and hi is not None and order_key(hi)[0] != brank:
            return None
        ranks = self._value_ranks.get(column)
        if ranks is None or not ranks <= {0, brank}:
            return None
        ordered = self._ordered_list(column)
        if ordered is None:
            return None
        if lo is None:
            start = bisect.bisect_left(ordered, brank, key=_rank_only)
        else:
            probe = (brank, order_key(lo)[1])
            if lo_inclusive:
                start = bisect.bisect_left(ordered, probe, key=_RANK_KEY)
            else:
                start = bisect.bisect_right(ordered, probe, key=_RANK_KEY)
        if hi is None:
            stop = bisect.bisect_right(ordered, brank, key=_rank_only)
        else:
            probe = (brank, order_key(hi)[1])
            if hi_inclusive:
                stop = bisect.bisect_right(ordered, probe, key=_RANK_KEY)
            else:
                stop = bisect.bisect_left(ordered, probe, key=_RANK_KEY)
        out: set = set()
        bucket = self._value_index[column]
        for index in range(start, stop):
            out |= bucket[ordered[index][2]]
        return out

    def ordered_groups(self, column: str, descending: bool):
        """Index-ordered traversal: ``[(order_key, sorted_row_ids), ...]``
        with equal-key values merged (so traversal order matches a stable
        sort of a row-ID-ordered scan), or None when unavailable."""
        ordered = self._ordered_list(column)
        if ordered is None:
            return None
        bucket = self._value_index[column]
        groups = []
        index = 0
        total = len(ordered)
        while index < total:
            rank, key, value = ordered[index]
            ids = bucket[value]
            stop = index + 1
            while stop < total and ordered[stop][0] == rank and ordered[stop][1] == key:
                ids = ids | bucket[ordered[stop][2]]
                stop += 1
            groups.append(((rank, key), sorted(ids)))
            index = stop
        if descending:
            # Matches ORDER BY ... DESC sort keys exactly rather than
            # simply reversing the ascending order.
            groups.sort(key=lambda group: descending_order_key(*group[0]))
        return groups

    # -- visibility --------------------------------------------------------------

    def row_versions(self, row_id: int) -> List[RowVersion]:
        return self.versions.get(row_id, [])

    def all_versions(self) -> Iterator[RowVersion]:
        for chain in self.versions.values():
            yield from chain

    def visible_rows(self, ts: int, gen: int) -> Iterator[RowVersion]:
        """Iterate versions visible at ``(ts, gen)`` in row-ID order."""
        if ts >= self._max_ts:
            # Fast path: nothing recorded after ts, so only open versions
            # can be visible — skip dead history entirely.
            live = self._live
            for row_id in self._sorted_ids:
                open_versions = live.get(row_id)
                if not open_versions:
                    continue
                for version in open_versions:
                    if version.start_gen <= gen <= version.end_gen:
                        yield version
                        break  # at most one version of a row is visible
            return
        for row_id in self._sorted_ids:
            version = _visible_in_chain(self.versions[row_id], ts, gen)
            if version is not None:
                yield version

    def integrity_errors(
        self, gen: int, budget: int = 20, label: str = ""
    ) -> List[str]:
        """Version-chain invariant sweep (crash-recovery harness).

        For every logical row, among the versions visible in generation
        ``gen``: at most one may be open (``end_ts == INFINITY``), and the
        non-empty ``[start_ts, end_ts)`` intervals must not overlap — a
        duplicate apply of the same journaled write manifests as exactly
        such an overlap.  The ``_live`` fast-path map must also agree with
        the chains.  Returns up to ``budget`` human-readable findings
        (empty = consistent)."""
        errors: List[str] = []
        name = label or self.schema.name
        for row_id, chain in self.versions.items():
            if len(errors) >= budget:
                break
            visible = sorted(
                (v for v in chain if v.visible_in_gen(gen)),
                key=lambda v: (v.start_ts, v.end_ts),
            )
            open_versions = [v for v in visible if v.end_ts == INFINITY]
            if len(open_versions) > 1:
                errors.append(
                    f"{name}: row {row_id} has {len(open_versions)} open "
                    f"versions visible in gen {gen}"
                )
            for a, b in zip(visible, visible[1:]):
                if (
                    a.start_ts < a.end_ts
                    and b.start_ts < b.end_ts
                    and b.start_ts < a.end_ts
                ):
                    errors.append(
                        f"{name}: row {row_id} overlapping versions "
                        f"[{a.start_ts},{a.end_ts}) and [{b.start_ts},{b.end_ts}) "
                        f"in gen {gen}"
                    )
            for v in chain:
                if v.end_ts != INFINITY and v.start_ts > v.end_ts:
                    errors.append(
                        f"{name}: row {row_id} inverted interval "
                        f"[{v.start_ts},{v.end_ts})"
                    )
            chain_open = {id(v) for v in chain if v.end_ts == INFINITY}
            live_open = {id(v) for v in self._live.get(row_id, ())}
            if chain_open != live_open:
                errors.append(
                    f"{name}: row {row_id} live map out of sync with chain "
                    f"({len(live_open)} live vs {len(chain_open)} open)"
                )
        return errors[:budget]

    def visible_version(self, row_id: int, ts: int, gen: int) -> Optional[RowVersion]:
        if ts >= self._max_ts:
            for version in self._live.get(row_id, ()):
                if version.start_gen <= gen <= version.end_gen:
                    return version
            return None
        chain = self.versions.get(row_id)
        if chain is None:
            return None
        return _visible_in_chain(chain, ts, gen)

    # -- uniqueness ------------------------------------------------------------

    def unique_conflict(
        self,
        data: Dict[str, object],
        ts: int,
        gen: int,
        exclude_row_id: Optional[int] = None,
    ) -> Optional[Tuple[str, ...]]:
        """Return the violated unique key if inserting ``data`` at (ts, gen)
        would collide with a visible row, else None."""
        for key in self.schema.unique_keys:
            candidate = tuple(data.get(col) for col in key)
            if any(value is None for value in candidate):
                continue
            rows = self.candidate_row_ids(key[0], candidate[0])
            if rows is not None:
                versions = (
                    self.visible_version(row_id, ts, gen) for row_id in rows
                )
            else:
                versions = self.visible_rows(ts, gen)
            for version in versions:
                if version is None:
                    continue
                if exclude_row_id is not None and version.row_id == exclude_row_id:
                    continue
                existing = tuple(version.data.get(col) for col in key)
                if existing == candidate:
                    return key
        return None

    def gc(self, horizon_ts: int) -> int:
        """Drop versions that ended before ``horizon_ts`` (paper §4.2).

        Never drops a row's only remaining version.  Returns the number of
        versions removed; value-index entries for dropped versions are
        purged.
        """
        removed = 0
        for row_id in list(self.versions):
            chain = self.versions[row_id]
            if len(chain) <= 1:
                continue
            keep: List[RowVersion] = []
            dropped: List[RowVersion] = []
            for version in chain:
                if version.end_ts >= horizon_ts or version.end_ts == INFINITY:
                    keep.append(version)
                else:
                    dropped.append(version)
            if not keep:
                survivor = max(dropped, key=lambda v: v.end_ts)
                dropped.remove(survivor)
                keep = [survivor]
            if not dropped:
                continue
            removed += len(dropped)
            self.version_count -= len(dropped)
            self.versions[row_id] = keep
            for version in dropped:
                # Dropped versions have finite end_ts, so the live map is
                # untouched; only the value index needs purging.
                self._unindex_version(version, keep)
        return removed

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        versions = [
            [v.row_id, v.data, v.start_ts, v.end_ts, v.start_gen, v.end_gen]
            for chain in self.versions.values()
            for v in chain
        ]
        return {
            "schema": self.schema.to_dict(),
            "next_row_id": self._next_row_id,
            "versions": versions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        table = cls(TableSchema.from_dict(data["schema"]))
        for row_id, row_data, start_ts, end_ts, start_gen, end_gen in data["versions"]:
            table.add_version(
                RowVersion(row_id, dict(row_data), start_ts, end_ts, start_gen, end_gen)
            )
        table._next_row_id = data["next_row_id"]
        return table


def _RANK_KEY(triple):
    return (triple[0], triple[1])


def _rank_only(triple):
    return triple[0]


def _visible_in_chain(
    chain: List[RowVersion], ts: int, gen: int
) -> Optional[RowVersion]:
    """Visible version in a start_ts-sorted chain: bisect to the last
    version starting at or before ``ts``, then walk back to the one whose
    interval and generation both cover the read."""
    pos = bisect.bisect_right(chain, ts, key=_START_TS)
    for index in range(pos - 1, -1, -1):
        version = chain[index]
        if ts < version.end_ts and version.start_gen <= gen <= version.end_gen:
            return version
    return None


class Database:
    """A named collection of tables.

    This class doubles as the reference implementation of the storage-engine
    contract (see :mod:`repro.db.engine`): everything the layers above need
    from a backend is exactly the public surface of ``Database`` + ``Table``.
    """

    #: Engine identifier recorded in snapshots (``repro.db.engine`` registers
    #: alternate backends under other names).
    backend = "python"

    def __init__(self) -> None:
        self.tables: Dict[str, Table] = {}
        #: Bumped on any DDL (create/drop/restore); cached query plans and
        #: read-set templates are invalidated by comparing against it.
        self.ddl_epoch = 0

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise StorageError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        self.ddl_epoch += 1
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise StorageError(f"no such table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise StorageError(f"no such table {name!r}")
        del self.tables[name]
        self.ddl_epoch += 1

    def total_versions(self) -> int:
        return sum(table.version_count for table in self.tables.values())

    def gc(self, horizon_ts: int) -> int:
        return sum(table.gc(horizon_ts) for table in self.tables.values())

    def atomic(self) -> contextlib.AbstractContextManager:
        """The scope in which one write statement, row rollback, repair
        abort or gc applies all of its version mutations or none (the
        engine contract, :mod:`repro.db.engine`).  Empty here: the executor
        evaluates everything before it mutates, and a mutation of Python
        objects cannot fail halfway on I/O.  The SQLite engine makes it one
        transaction per group file."""
        return _NO_SCOPE

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"tables": [table.to_dict() for table in self.tables.values()]}

    def restore(self, data: dict) -> None:
        """Rebuild all tables in place from a persisted image, so objects
        holding a reference to this database observe the restored state."""
        self.tables.clear()
        for item in data["tables"]:
            table = Table.from_dict(item)
            self.tables[table.schema.name] = table
        self.ddl_epoch += 1


_NO_SCOPE = contextlib.nullcontext()
