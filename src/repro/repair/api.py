"""Repair API: declarative repair specs and dry-run plans.

The paper's administrator "initiates repair by selecting the offending
actions" (§2.1).  This module is the declarative half of that act — a
spec names the actions, ``warp.repair.submit(spec)`` is the one way a
repair starts:

* a :class:`RepairSpec` hierarchy — :class:`PatchSpec`,
  :class:`CancelVisitSpec`, :class:`CancelClientSpec`, :class:`DbFixSpec`
  — with JSON round-trip (``to_dict``/``from_dict``/:func:`parse_spec`),
  so a repair can be described, stored, journaled, and POSTed over the
  admin HTTP surface;
* :class:`RepairBatch`, which composes N intrusions into **one**
  generation pass (the controller unions the damage sets, runs cluster
  discovery once, and re-executes each affected action at most once —
  see :meth:`repro.repair.controller.RepairController.repair_batch`);
* :class:`RepairPlan` and :func:`compute_plan` — the dry-run preview:
  taint-connected components, affected clients/partitions, estimated
  re-execution counts, and whether the clustering futility bailout would
  trip, computed **read-only** from the record store's
  :class:`~repro.store.recordstore.TouchIndex` — no repair generation is
  created and nothing is mutated;
* :func:`derive_damage` — what each member of a spec damages directly
  (runs, canceled visits, a fix's symbolic partitions), the one
  derivation the preview and the repair both plan components from, so a
  preview reports the plan the repair runs.

Specs are *descriptions*, not handles: submit one via
``warp.repair.submit(spec)`` (:mod:`repro.repair.jobs`) to get an
observable :class:`~repro.repair.jobs.RepairJob`.

A note on patches: script exports are Python callables and cannot ride in
JSON.  A :class:`PatchSpec` therefore carries either in-process
``exports`` *or* a ``patch_name`` resolved against the job manager's
registered patch catalog (``warp.repair.register_patch``) at execution
time — the catalog is how an operator drives a patch repair over HTTP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import RepairError, SqlError
from repro.repair.clusters import (
    ClusteringFutile,
    compute_repair_groups,
)

__all__ = [
    "RepairSpec",
    "PatchSpec",
    "CancelVisitSpec",
    "CancelClientSpec",
    "DbFixSpec",
    "RepairBatch",
    "RepairPlan",
    "parse_spec",
    "spec_from_request",
    "Damage",
    "derive_damage",
    "check_retained",
    "damage_seeds",
    "compute_plan",
]


#: kind string -> spec class, filled by ``_register``.
_SPEC_KINDS: Dict[str, type] = {}


def _register(cls: type) -> type:
    _SPEC_KINDS[cls.kind] = cls  # type: ignore[attr-defined]
    return cls


class RepairSpec:
    """Base class: one declarative description of a repair to perform."""

    kind: str = "?"

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "RepairSpec":
        """Rebuild any spec from its JSON image (dispatches on ``kind``)."""
        return parse_spec(data)

    def describe(self) -> dict:
        """JSON-safe summary — always serializable, even for specs whose
        ``to_dict`` raises (in-process patch exports); used by the jobs
        journal and status endpoints."""
        return self.to_dict()

    def validate(self) -> None:
        """Raise :class:`RepairError` when the spec is malformed."""


@_register
@dataclass
class PatchSpec(RepairSpec):
    """Retroactively apply a security patch to the past (paper §3).

    Exactly one of ``exports`` (in-process: the patched script's callables)
    or ``patch_name`` (resolved against the registered patch catalog at
    execution time) must be provided.  Only the ``patch_name`` form is
    JSON-serializable.
    """

    file: str
    exports: Optional[Dict] = None
    patch_name: Optional[str] = None
    apply_ts: int = 0
    kind = "patch"

    def validate(self) -> None:
        if not isinstance(self.file, str) or not isinstance(
            self.patch_name, (str, type(None))
        ):
            raise RepairError("PatchSpec file and patch_name must be strings")
        if (self.exports is None) == (self.patch_name is None):
            raise RepairError(
                "PatchSpec needs exactly one of exports (in-process) or "
                "patch_name (registered catalog)"
            )
        if not self.file and self.patch_name is None:
            # A catalog patch supplies its own target file.
            raise RepairError("PatchSpec needs a target file")

    def to_dict(self) -> dict:
        if self.patch_name is None:
            raise RepairError(
                "PatchSpec with raw exports is not JSON-serializable — "
                "register the patch (warp.repair.register_patch) and "
                "reference it by patch_name"
            )
        return {
            "kind": self.kind,
            "file": self.file,
            "patch_name": self.patch_name,
            "apply_ts": self.apply_ts,
        }

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "file": self.file,
            "patch_name": self.patch_name,
            "apply_ts": self.apply_ts,
            "inline_exports": self.exports is not None,
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "PatchSpec":
        # ``file`` is optional for catalog patches (the registration
        # supplies the target file).
        return cls(
            file=data.get("file", ""),
            patch_name=data.get("patch_name"),
            apply_ts=int(data.get("apply_ts", 0)),
        )


@_register
@dataclass
class CancelVisitSpec(RepairSpec):
    """Undo one recorded page visit and its descendants (paper §5.5)."""

    client_id: str
    visit_id: int
    initiated_by_admin: bool = True
    allow_conflicts: bool = False
    kind = "cancel_visit"

    def validate(self) -> None:
        if (
            not isinstance(self.client_id, str)
            or not self.client_id
            or int(self.visit_id) <= 0
        ):
            raise RepairError("CancelVisitSpec needs a client_id and visit_id")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "client_id": self.client_id,
            "visit_id": self.visit_id,
            "initiated_by_admin": self.initiated_by_admin,
            "allow_conflicts": self.allow_conflicts,
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "CancelVisitSpec":
        return cls(
            client_id=data["client_id"],
            visit_id=int(data["visit_id"]),
            initiated_by_admin=data.get("initiated_by_admin", True),
            allow_conflicts=data.get("allow_conflicts", False),
        )


@_register
@dataclass
class CancelClientSpec(RepairSpec):
    """Undo every recorded action of one client (paper §2)."""

    client_id: str
    kind = "cancel_client"

    def validate(self) -> None:
        if not isinstance(self.client_id, str) or not self.client_id:
            raise RepairError("CancelClientSpec needs a client_id")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "client_id": self.client_id}

    @classmethod
    def _from_dict(cls, data: dict) -> "CancelClientSpec":
        return cls(client_id=data["client_id"])


@_register
@dataclass
class DbFixSpec(RepairSpec):
    """Retroactively fix past database state (paper §2), repairing
    everything that depended on it."""

    sql: str
    params: Tuple = ()
    ts: int = 0
    kind = "db_fix"

    def __post_init__(self) -> None:
        self.params = tuple(self.params)

    def validate(self) -> None:
        if not isinstance(self.sql, str) or not self.sql:
            raise RepairError("DbFixSpec needs a SQL statement")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sql": self.sql,
            "params": list(self.params),
            "ts": self.ts,
        }

    @classmethod
    def _from_dict(cls, data: dict) -> "DbFixSpec":
        return cls(
            sql=data["sql"],
            params=tuple(data.get("params", ())),
            ts=int(data.get("ts", 0)),
        )


@_register
@dataclass
class RepairBatch(RepairSpec):
    """N intrusions repaired in one generation pass.

    The controller computes the **union** damage set across all member
    specs, runs cluster discovery once, and re-executes each affected
    action at most once — instead of once per attack, which is what N
    sequential repairs cost (each one pays its own generation switch,
    graph merge, and overlapping re-executions).
    """

    specs: List[RepairSpec] = field(default_factory=list)
    kind = "batch"

    def __post_init__(self) -> None:
        # Flatten nested batches: a batch of batches is just one pass.
        flat: List[RepairSpec] = []
        for spec in self.specs:
            if isinstance(spec, RepairBatch):
                flat.extend(spec.specs)
            else:
                flat.append(spec)
        self.specs = flat

    def validate(self) -> None:
        if not self.specs:
            raise RepairError("RepairBatch needs at least one spec")
        for spec in self.specs:
            spec.validate()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "specs": [spec.to_dict() for spec in self.specs]}

    def describe(self) -> dict:
        return {"kind": self.kind, "specs": [spec.describe() for spec in self.specs]}

    @classmethod
    def _from_dict(cls, data: dict) -> "RepairBatch":
        return cls(specs=[parse_spec(item) for item in data.get("specs", ())])


def parse_spec(data: dict) -> RepairSpec:
    """Rebuild a spec from its JSON image.  Raises RepairError on an
    unknown kind or a malformed payload — every malformation, including a
    non-dict body or a non-string ``kind``, must surface as RepairError so
    the admin HTTP surface answers a structured 400, never a 500."""
    if not isinstance(data, dict):
        raise RepairError(
            f"repair spec must be a JSON object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str):
        # A list/dict kind would TypeError out of the registry lookup.
        raise RepairError(
            "repair spec 'kind' must be a string, got "
            f"{type(kind).__name__}"
        )
    cls = _SPEC_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(_SPEC_KINDS))
        raise RepairError(f"unknown repair spec kind {kind!r} (known: {known})")
    try:
        spec = cls._from_dict(data)  # type: ignore[attr-defined]
    except RepairError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise RepairError(f"malformed {kind!r} spec: {exc!r}") from exc
    spec.validate()
    return spec


def spec_from_request(request) -> RepairSpec:
    """The spec an admin request carries in its JSON ``spec`` parameter
    (worker and coordinator admin surfaces alike)."""
    raw = request.params.get("spec")
    if raw is None:
        raise RepairError("missing 'spec' parameter (JSON-encoded repair spec)")
    try:
        return parse_spec(json.loads(raw))
    except (TypeError, ValueError, RecursionError) as exc:
        # A JSONDecodeError is a ValueError, a non-text parameter a
        # TypeError, and hostile nesting exhausts the stack in either step.
        raise RepairError(f"spec is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# dry-run preview
# ---------------------------------------------------------------------------


@dataclass
class RepairPlan:
    """A cheap pre-repair impact estimate (no mutations, no generation).

    Computed from the eagerly maintained partition-touch connectivity
    index, so the cost is O(damage component), never a log scan.  The
    run/visit counts are the taint-connected component membership — an
    *upper bound* on what repair will re-execute (pruning §5.3 and
    affects-gating typically re-execute less), and the same quantity the
    futility bailout reasons about.
    """

    kind: str
    #: Would the clustering futility bailout trip?  (The repair still
    #: runs — monolithically — but its cost tracks the workload, not the
    #: attack footprint.)
    futile: bool = False
    #: Seed damage: directly attacked/canceled runs, a fix's partitions.
    seed_runs: int = 0
    seed_partitions: List[List[object]] = field(default_factory=list)
    #: Rows the batch's fixes write at their ``ts`` in the live
    #: generation: an INSERT's VALUES rows, the rows an UPDATE or DELETE
    #: WHERE matches — work even when no recorded run touched them.
    fix_rows: int = 0
    #: Taint-connected components (empty when futile).
    n_groups: int = 0
    groups: List[Dict[str, object]] = field(default_factory=list)
    #: Union membership over all components.
    affected_runs: int = 0
    affected_clients: List[str] = field(default_factory=list)
    affected_partitions: int = 0
    sample_partitions: List[List[object]] = field(default_factory=list)
    #: Workload totals, for "how much of the site does this touch".
    total_runs: int = 0
    total_visits: int = 0
    total_queries: int = 0

    @property
    def estimated_reexec_fraction(self) -> float:
        if not self.total_runs:
            return 0.0
        bound = self.total_runs if self.futile else self.affected_runs
        return bound / self.total_runs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "futile": self.futile,
            "seed_runs": self.seed_runs,
            "seed_partitions": [list(key) for key in self.seed_partitions],
            "fix_rows": self.fix_rows,
            "n_groups": self.n_groups,
            "groups": [dict(row) for row in self.groups],
            "affected_runs": self.affected_runs,
            "affected_clients": list(self.affected_clients),
            "affected_partitions": self.affected_partitions,
            "sample_partitions": [list(key) for key in self.sample_partitions],
            "total_runs": self.total_runs,
            "total_visits": self.total_visits,
            "total_queries": self.total_queries,
            "estimated_reexec_fraction": round(self.estimated_reexec_fraction, 4),
        }


#: How many concrete partition keys a plan lists verbatim.
_PLAN_KEY_SAMPLE = 16

PartitionKey = Tuple[str, str, object]


@dataclass
class Damage:
    """What one member spec damages directly, derived read-only by
    :func:`derive_damage`."""

    spec: RepairSpec
    #: Recorded runs: the runs that loaded a patched file (the patch
    #: itself is not applied), a canceled visit's and its descendants'
    #: runs, every run of a canceled client.
    runs: List[int] = field(default_factory=list)
    #: ``(client_id, visit_id)`` of every canceled visit.
    visits: List[Tuple[str, int]] = field(default_factory=list)
    #: A database fix's partitions and full tables, derived symbolically.
    keys: List[PartitionKey] = field(default_factory=list)
    full_tables: List[str] = field(default_factory=list)


def derive_damage(graph, ttdb, spec: RepairSpec) -> List[Damage]:
    """The direct damage of each member of ``spec`` (a batch is
    flattened), read from the graph's indexes and the statement's plan
    without mutating anything.  The one derivation both the preview
    (:func:`compute_plan`) and the repair
    (``RepairController.repair_batch``) seed components from, so the plan
    a preview reports is the plan the repair runs.

    A database fix's partitions are derived **symbolically** from the
    statement — WHERE-clause equality constraints on partition columns,
    an INSERT's partition-column values — not by executing it.  Keys its
    execution writes beyond them count as its group's escapes.
    """
    check_retained(graph, spec)
    members = spec.specs if isinstance(spec, RepairBatch) else [spec]
    return [_member_damage(graph, ttdb, member) for member in members]


def check_retained(graph, spec: RepairSpec) -> None:
    """Raise :class:`RepairError` when a member of ``spec`` directly damages
    history ``WarpSystem.retain`` dropped (API.md §11): repairing it would
    undo only what is left and report success."""
    store = graph.store
    horizon = store.horizon_ts
    for member in spec.specs if isinstance(spec, RepairBatch) else [spec]:
        if isinstance(member, PatchSpec):
            dropped = member.apply_ts < horizon and member.file in store.dropped_files
        elif isinstance(member, DbFixSpec):
            dropped = member.ts < horizon
        elif isinstance(member, CancelVisitSpec):
            dropped = (member.client_id, member.visit_id) not in store.visits and (
                member.visit_id <= store.trimmed_clients.get(member.client_id, 0)
            )
        else:
            dropped = getattr(member, "client_id", None) in store.trimmed_clients
        if dropped:
            raise RepairError(
                f"{member.kind} spec reaches history that retention dropped (horizon {horizon})"
            )


def _member_damage(graph, ttdb, spec: RepairSpec) -> Damage:
    damage = Damage(spec)
    if isinstance(spec, PatchSpec):
        damage.runs = [
            run.run_id for run in graph.runs_loading_file(spec.file, spec.apply_ts)
        ]
    elif isinstance(spec, CancelVisitSpec):
        for visit_id in graph.visit_and_descendants(spec.client_id, spec.visit_id):
            damage.visits.append((spec.client_id, visit_id))
            damage.runs.extend(
                run.run_id for run in graph.runs_of_visit(spec.client_id, visit_id)
            )
    elif isinstance(spec, CancelClientSpec):
        damage.runs = [run.run_id for run in graph.client_runs(spec.client_id)]
        damage.visits = [
            (spec.client_id, visit.visit_id)
            for visit in graph.client_visits(spec.client_id)
        ]
    elif isinstance(spec, DbFixSpec):
        damage.keys, damage.full_tables = _fix_partitions(ttdb, spec)
    else:
        raise RepairError(
            f"cannot repair spec of kind {getattr(spec, 'kind', '?')!r}"
        )
    return damage


def _fix_partitions(ttdb, spec: DbFixSpec) -> Tuple[List, List[str]]:
    try:
        plan = ttdb.prepare(spec.sql)
    except SqlError as exc:
        raise RepairError(f"cannot plan db fix: {exc}") from exc
    if not plan.is_write:
        raise RepairError("DbFixSpec must be a write statement")
    keys: List[PartitionKey] = []
    full_tables: List[str] = []
    table = plan.table
    if plan.kind == "insert":
        partition_cols = set(ttdb.schema(table).partition_columns)
        for row in plan.insert_rows:
            for column, value_fn in row:
                if column not in partition_cols:
                    continue
                try:
                    keys.append((table, column, value_fn({}, spec.params)))
                except SqlError:
                    # Not computable without a row (a missing
                    # parameter, a column reference): whole table.
                    full_tables.append(table)
    else:
        read = plan.read_plan.instantiate(spec.params)
        if read.is_all:
            full_tables.append(table)
        else:
            for disjunct in read.disjuncts:
                for column, value in disjunct:
                    keys.append((table, column, value))
    return sorted(set(keys), key=repr), sorted(set(full_tables))


def damage_seeds(damage: List[Damage]) -> Tuple[List[int], List[Tuple]]:
    """``(run_seeds, key_seed_groups)`` for
    :func:`~repro.repair.clusters.compute_repair_groups`: every damaged
    run, and one ``(keys, full_tables, ts)`` group per database fix."""
    run_seeds = [run_id for member in damage for run_id in member.runs]
    key_seed_groups = [
        (member.keys, member.full_tables, member.spec.ts)
        for member in damage
        if isinstance(member.spec, DbFixSpec)
    ]
    return run_seeds, key_seed_groups


def compute_plan(graph, ttdb, spec: RepairSpec) -> RepairPlan:
    """Dry-run a spec: what would this repair touch?

    Strictly read-only — no repair generation, no script patching, no
    statement execution, no graph mutation (the acceptance test asserts
    the version-store and graph dumps are byte-identical before/after).
    """
    spec.validate()
    # The admin surface serves previews ungated during live traffic;
    # hold the store's lock so the component walk never iterates an
    # index a request thread is resizing.  Reentrant, read-only, and
    # O(component) — request threads stall at most briefly.
    with graph.store.lock:
        return _compute_plan_locked(graph, ttdb, spec)


def _compute_plan_locked(graph, ttdb, spec: RepairSpec) -> RepairPlan:
    plan = RepairPlan(
        kind=spec.kind,
        total_runs=graph.n_runs,
        total_visits=graph.n_visits,
        total_queries=graph.n_queries,
    )
    damage = derive_damage(graph, ttdb, spec)
    run_seeds, key_groups = damage_seeds(damage)
    plan.seed_runs = len(set(run_seeds))
    seed_keys: List = []
    for keys, full_tables, _ts in key_groups:
        seed_keys.extend(keys)
        seed_keys.extend((table, "*", "*") for table in full_tables)
    plan.seed_partitions = [list(key) for key in seed_keys[:_PLAN_KEY_SAMPLE]]
    plan.fix_rows = sum(
        ttdb.write_row_count(member.spec.sql, member.spec.params, member.spec.ts)
        for member in damage
        if isinstance(member.spec, DbFixSpec)
    )
    if not run_seeds and not key_groups:
        return plan
    try:
        groups = compute_repair_groups(
            graph, run_seeds=run_seeds, key_seed_groups=key_groups
        )
    except ClusteringFutile:
        plan.futile = True
        plan.affected_runs = graph.n_runs
        plan.affected_clients = sorted(
            {
                run.client_id
                for run in graph.runs.values()
                if run.client_id is not None
            }
        )
        return plan
    plan.n_groups = len(groups)
    all_clients: set = set()
    all_keys: set = set()
    affected = 0
    for group in groups:
        affected += len(group.run_ids or ())
        all_clients |= group.clients
        all_keys |= group.covered_keys
        plan.groups.append(
            {
                "group": group.group_id,
                "runs": len(group.run_ids or ()),
                "clients": sorted(group.clients),
                "partitions": len(group.covered_keys),
                "tables": sorted(group.covered_tables),
                "seed_runs": len(group.seed_runs),
                "first_damage_ts": group.first_damage_ts,
            }
        )
    plan.affected_runs = affected
    plan.affected_clients = sorted(all_clients)
    plan.affected_partitions = len(all_keys)
    plan.sample_partitions = [
        list(key) for key in sorted(all_keys, key=repr)[:_PLAN_KEY_SAMPLE]
    ]
    return plan
