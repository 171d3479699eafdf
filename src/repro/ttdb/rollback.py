"""Row-level rollback inside a repair generation (paper §4.2).

Rolling back row R to time T means: in the repair (next) generation, R's
history after T never happened.  Versions that started at or after T are
excluded from the next generation; the version valid just before T is
re-extended to ``∞``.  The current generation's view must stay untouched
(§4.3), so versions shared with the live generation are never mutated in a
way the live generation can observe — they are either re-homed with a
preserved copy or fenced off by ``end_gen``.

All ``end_ts`` changes go through :meth:`Table.close_version` /
:meth:`Table.reopen_version` so the table's live-version map stays exact,
and every created/fenced version is reported to the repair journal (when
given) so ``abort_repair`` can undo the repair in O(footprint).
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.core.clock import INFINITY
from repro.db.storage import RowVersion, Table


def rollback_row(
    table: Table,
    row_id: int,
    ts: int,
    current_gen: int,
    repair_gen: int,
    journal=None,
) -> Set[Tuple[str, str, object]]:
    """Roll back ``row_id`` to just before ``ts`` in ``repair_gen``.

    Returns the set of partition keys whose contents changed as a result
    (used to drive re-execution of dependent queries).
    """
    schema = table.schema
    touched: Set[Tuple[str, str, object]] = set()
    chain = list(table.row_versions(row_id))
    if not chain:
        return touched

    survivors = []
    for version in chain:
        if not version.visible_in_gen(repair_gen):
            continue
        if version.start_ts >= ts:
            _exclude_from_gen(table, version, current_gen, repair_gen, journal)
            touched |= schema.partition_keys(version.data)
        else:
            survivors.append(version)

    if not survivors:
        return touched

    latest = max(survivors, key=lambda v: v.end_ts)
    if latest.end_ts == INFINITY:
        return touched
    # Re-extend the latest surviving version to "current" in the repair
    # generation without disturbing the live generation's view of it.
    if latest.visible_in_gen(current_gen):
        extended = latest.copy()
        extended.start_gen = repair_gen
        extended.end_ts = INFINITY
        table.fence_version(latest, min(latest.end_gen, current_gen))
        table.add_version(extended)
        if journal is not None:
            journal.note_created(table, extended)
            journal.note_fenced(table, latest)
    else:
        table.reopen_version(latest)
    touched |= schema.partition_keys(latest.data)
    return touched


def _exclude_from_gen(
    table: Table, version: RowVersion, current_gen: int, repair_gen: int, journal
) -> None:
    if version.start_gen >= repair_gen:
        # Created during this repair: it can simply be discarded.
        table.remove_version(version)
    else:
        table.fence_version(version, current_gen)
        if journal is not None:
            journal.note_fenced(table, version)
