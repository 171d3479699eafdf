"""Pluggable storage engines — the seam under the time-travel database.

The reproduction originally hard-wired the pure-Python version-chain store
(:mod:`repro.db.storage`).  This module names the contract that store was
implicitly defining, so alternate backends — notably the SQLite WAL-mode
engine in :mod:`repro.db.sqlite_engine` — can slot in underneath the
executor, the time-travel layer, repair, and persistence without any of
those layers changing.

Engine contract
===============

A storage engine is a ``Database``-shaped object:

``backend``
    Stable identifier string recorded in snapshots (``"python"``,
    ``"sqlite"``).
``tables`` / ``ddl_epoch`` / ``create_table`` / ``table`` / ``has_table``
    / ``drop_table`` / ``total_versions`` / ``gc`` / ``to_dict`` /
    ``restore``
    DDL and whole-database operations, exactly as on
    :class:`repro.db.storage.Database`.  ``to_dict``/``restore`` use the
    backend-independent JSON shape, so snapshots are portable across
    engines.
``atomic()``
    A context manager: the version mutations made inside it — one write
    statement, row rollback, repair abort or gc, as the time-travel layer
    scopes them — all happen or none do, and the engine's counters
    (``version_count`` and the like) say which.  Empty on the memory
    engine, which cannot fail halfway; one transaction per group file on
    SQLite, rolled back on any exception.

Each table it returns is a ``Table``-shaped object providing:

* **version plumbing** — ``add_version``, ``close_version``,
  ``reopen_version``, ``remove_version``, ``replace_data``, plus the
  mutation seam used by repair/rollback/abort: ``note_row_id``,
  ``rehome_version``, ``fence_version``, ``unfence_version``,
  ``discard_version``, ``gc_superseded``, ``set_plain_data``;
* **visibility** — ``visible_rows``, ``visible_version``,
  ``row_versions``, ``all_versions``, ``plain_rows``;
* **access paths** — ``candidate_row_ids`` (may return None: "no index,
  scan"), and optionally ``range_candidate_row_ids`` / ``ordered_groups``
  (the in-memory engine's ordered value index) or ``fetch_plan`` (the
  SQLite engine's SQL-lowering fast path; see
  :mod:`repro.db.sql.lower`);
* **bookkeeping** — ``allocate_row_id``, ``unique_conflict``, ``gc``,
  ``integrity_errors``, ``version_count``, ``schema``, ``to_dict``.

Mutators receive the same :class:`repro.db.storage.RowVersion` objects the
reads returned.  The in-memory engine keys everything on object identity;
the SQLite engine stamps ``RowVersion.vid`` with the shadow-table rowid at
materialization time and keys write-through updates on it, which is why
all generation/interval mutations above the storage layer must go through
the seam methods rather than poking attributes.

Backend selection
=================

:func:`create_database` resolves the backend from an explicit argument or
the ``REPRO_DB_BACKEND`` environment variable (default ``"python"``), so
every test suite and bench can be pointed at either engine without code
changes.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.errors import StorageError
from repro.db.storage import Database

#: Environment knob consulted when no explicit backend is requested.
BACKEND_ENV = "REPRO_DB_BACKEND"

#: Default engine when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "python"


class PyMemoryEngine(Database):
    """The original pure-Python version-chain store, now one engine among
    several.  Deliberately adds nothing: :class:`repro.db.storage.Database`
    *is* the reference implementation of the engine contract, and the
    40-seed planned≡naive property suite pins its behavior."""

    backend = "python"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a backend choice: explicit argument wins, then the
    ``REPRO_DB_BACKEND`` environment variable, then ``"python"``."""
    choice = backend
    if choice is None:
        choice = os.environ.get(BACKEND_ENV)
    choice = (choice or DEFAULT_BACKEND).strip().lower()
    if choice not in ("python", "sqlite"):
        raise StorageError(
            f"unknown storage backend {choice!r} (expected 'python' or 'sqlite')"
        )
    return choice


def create_database(
    backend: Optional[str] = None,
    path: Optional[str] = None,
    fault_plane=None,
):
    """Instantiate a storage engine.

    ``path`` only matters for file-backed engines: the SQLite engine puts
    its WAL-mode database files there (and reattaches to existing ones);
    when omitted it uses a self-cleaning temporary directory, which keeps
    every existing suite hermetic under ``REPRO_DB_BACKEND=sqlite``.
    ``fault_plane`` lets the deterministic fault-injection plane intercept
    the engine's I/O boundary (see ``sqlite.exec`` / ``sqlite.commit`` in
    :mod:`repro.faults.plane`).
    """
    choice = resolve_backend(backend)
    if choice == "python":
        return PyMemoryEngine()
    from repro.db.sqlite_engine import SqliteEngine

    return SqliteEngine(path=path, fault_plane=fault_plane)


def snapshot_backend(state: dict, default: Optional[str] = None) -> str:
    """Backend recorded in a persisted system snapshot.

    Pre-engine snapshots carry no ``storage_config``; they were produced
    by the in-memory store but restore cleanly into any engine, so the
    caller's default (usually the environment) wins for them.
    """
    config = state.get("storage_config") or {}
    recorded = config.get("backend")
    if recorded is None:
        return resolve_backend(default)
    return resolve_backend(recorded)
