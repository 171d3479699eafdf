"""The repair controller (paper §2.1, §3–§5, borrowed from Retro).

Repair is a time-ordered worklist over three kinds of items:

* **query records** — re-executed standalone at their original timestamps
  in the repair generation; a result that differs from the recorded
  snapshot escalates to the owning application run / page visit;
* **application runs** — re-executed through the application runtime with
  the recorded HTTP request and nondeterminism log (used when no browser
  log exists, and for requests that arrived during repair);
* **page visits** — replayed in a server-side browser clone, with request
  matching, equivalence pruning, and cancellation of requests that the
  repaired page no longer issues.

All re-execution happens at original logical timestamps inside the repair
generation, so the live generation keeps serving traffic untouched until
``finalize`` atomically switches generations (§4.3).

There is one worklist: one heap in global ``(ts, seq)`` order, one set of
run / visit state, one ``ModifiedPartitions``, and one partition index —
the store's, whose buckets are built per key on first lookup.  What is
**dependency-clustered** (:mod:`repro.repair.clusters`) is the accounting:
the initial damage set — :func:`repro.repair.api.derive_damage`, the
derivation the preview reports, so a preview's components are the
repair's — is split into taint-connected components before anything
executes, and each heap entry carries the component (*scope*) its run
belongs to, which counts the item's work and the keys it escapes to.
Discovery is always attempted; when it is futile
(:class:`~repro.repair.clusters.ClusteringFutile`) every entry runs in
global scope — the fallback the equivalence property test forces as its
reference.  Both pop the same items in the same order.
"""

from __future__ import annotations

import bisect
import heapq
import time as _time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ahg.records import (
    AppRunRecord,
    EventRecord,
    PatchRecord,
    QueryRecord,
    VisitRecord,
)
from repro.appserver.nondet import NondetReplayer
from repro.appserver.runtime import AppRuntime
from repro.appserver.scripts import ScriptStore
from repro.browser.browser import Network
from repro.core.clock import LogicalClock
from repro.core.errors import RepairCanceled, RepairError
from repro.core.ids import IdAllocator
from repro.faults.plane import active as _active_plane
from repro.http.message import HttpRequest, HttpResponse
from repro.http.server import HttpServer
from repro.repair.api import (
    CancelVisitSpec,
    Damage,
    DbFixSpec,
    PatchSpec,
    RepairBatch,
    damage_seeds,
    derive_damage,
)
from repro.repair.clusters import (
    ClusteringFutile,
    RepairGroup,
    compute_repair_groups,
)
from repro.repair.conflicts import Conflict, ConflictQueue
from repro.repair.replay import BrowserReplayer, ReplayConfig
from repro.repair.stats import RepairStats
from repro.store.recordstore import DrainMarks, RecordStore
from repro.ttdb.partitions import ModifiedPartitions
from repro.ttdb.timetravel import TimeTravelDB, TTResult, split_statements


@dataclass
class RepairResult:
    """Outcome of one repair."""

    ok: bool
    aborted: bool
    stats: RepairStats
    conflicts: List[Conflict]

    def to_dict(self) -> dict:
        """JSON image for the admin API and jobs journal."""
        return {
            "ok": self.ok,
            "aborted": self.aborted,
            "stats": self.stats.to_dict(),
            "conflicts": [conflict.to_dict() for conflict in self.conflicts],
        }


class RepairQueryRunner:
    """Query runner used when re-executing an application run.

    Matches issued statements to the original run's query log (same SQL
    text, in order); matched statements re-execute at their original
    timestamps, unmatched ones at the current cursor.  Original write
    queries that are never re-issued are undone afterwards.
    """

    def __init__(self, controller: "RepairController", original: AppRunRecord) -> None:
        self._controller = controller
        self._orig = original.queries
        self._matched = [False] * len(self._orig)
        self._cursor = 0
        self._ts_cursor = original.ts_start
        #: Unmatched original indexes by SQL text (each list stays sorted);
        #: _find is a dict hit plus a bisect instead of a wraparound rescan
        #: of the whole query log per issued statement (O(n²) for runs with
        #: many queries).
        self._unmatched_by_sql: Dict[str, List[int]] = {}
        for index, query in enumerate(self._orig):
            self._unmatched_by_sql.setdefault(query.sql, []).append(index)

    def run(self, sql: str, params: Tuple[object, ...], seq: int) -> TTResult:
        index = self._find(sql)
        if index is not None:
            self._matched[index] = True
            self._cursor = index + 1
            original: Optional[QueryRecord] = self._orig[index]
            ts = original.ts
            self._ts_cursor = ts
        else:
            original = None
            ts = self._ts_cursor
        return self._controller.reexec_statement(sql, params, ts, original)

    def run_script(self, sql: str) -> List[TTResult]:
        return [self.run(piece, (), -1) for piece in split_statements(sql)]

    def _find(self, sql: str) -> Optional[int]:
        """First unmatched original with this SQL at or after the cursor,
        else (wraparound) the earliest unmatched one before it."""
        candidates = self._unmatched_by_sql.get(sql)
        if not candidates:
            return None
        pos = bisect.bisect_left(candidates, self._cursor)
        if pos >= len(candidates):
            pos = 0
        return candidates.pop(pos)

    def undo_unmatched(self) -> None:
        for index, query in enumerate(self._orig):
            if not self._matched[index] and query.is_write:
                self._controller.undo_query(query)


class RepairController:
    """Coordinates one repair from initiation to finalize."""

    def __init__(
        self,
        ttdb: TimeTravelDB,
        graph: RecordStore,
        scripts: ScriptStore,
        runtime: AppRuntime,
        server: HttpServer,
        network: Network,
        conflicts: ConflictQueue,
        clock: LogicalClock,
        ids: IdAllocator,
        replay_config: Optional[ReplayConfig] = None,
    ) -> None:
        self.ttdb = ttdb
        self.graph = graph
        self.scripts = scripts
        self.runtime = runtime
        self.server = server
        self.network = network
        self.conflicts = conflicts
        self.clock = clock
        self.ids = ids
        self.replayer = BrowserReplayer(self, replay_config)
        #: Fault plane (repro.faults); WarpSystem points this at its own.
        self.faults = _active_plane()

        #: Every partition this repair modified (affects-gating of queued
        #: queries, finalize-time input-change checks, pruning).
        self.mods = ModifiedPartitions()
        self.stats = RepairStats()
        #: The worklist: ``(ts, seq, scope, kind, payload)`` in global
        #: timestamp order, and the state of everything it has touched.
        self._heap: List[Tuple[int, int, RepairGroup, str, object]] = []
        self._heap_seq = 0
        self._run_state: Dict[int, str] = {}
        self._visit_state: Dict[Tuple[str, int], str] = {}
        self._scheduled_qids: Set[int] = set()
        #: The store's drain marks for this repair's lookups: each bucket
        #: hands an entry over once, and every entry handed over lands in
        #: ``_scheduled_qids``.
        self._drained: DrainMarks = {}
        self._counted_visits: Set[Tuple[str, int]] = set()
        #: Clients whose replay hit a conflict (paper §5.4).
        self._conflicted_clients: Set[str] = set()
        #: Scopes.  Until an entry point plans clusters there is only
        #: the global scope, which is also what futile clustering keeps
        #: throughout and what a run in no component gets.
        self._global = RepairGroup(0)
        self._groups: List[RepairGroup] = [self._global]
        #: Scope of the item being processed: which coverage its lookups
        #: escape from and whose counters ``_bump`` feeds.
        self._g: RepairGroup = self._global
        #: Which scope a run / client's items are queued in (filled by
        #: _plan_groups from the computed groups).
        self._run_home: Dict[int, RepairGroup] = {}
        self._client_home: Dict[str, RepairGroup] = {}
        self._replacements: Dict[int, AppRunRecord] = {}
        self._new_runs: List[AppRunRecord] = []
        self._active = False
        #: Conflicts already pending when this repair began (queued for
        #: users who have not logged in yet): never resolved, never counted,
        #: and never a reason to abort an unrelated user undo.
        self._prior_conflict_ids: Set[int] = set()
        #: Ablation switches (see DESIGN.md / benchmarks/bench_ablations.py).
        #: §3.3 calls nondeterminism replay "strictly an optimization";
        #: pruning is the §5.3 identical-request short-circuit.
        self.use_nondet_replay = True
        self.use_pruning = True
        #: Optional hook invoked after each worklist item (used by the
        #: concurrent-repair benchmark to interleave live traffic).
        self.step_hook: Optional[Callable[[], None]] = None
        #: Progress listeners (repro.repair.jobs): called with
        #: ``(event, payload)`` for phase_started / groups_planned /
        #: group_done / conflict_found / finalized / aborted.  A raising
        #: listener is ignored — observability must not break a repair.
        self.listeners: List[Callable[[str, Dict[str, object]], None]] = []
        #: Cooperative cancel flag (RepairJob.cancel): checked between
        #: worklist items; when set the controller raises RepairCanceled,
        #: which unwinds through the abort path.
        self.cancel_requested = False
        #: Set when a failure escaped *after* the generation switch
        #: committed (repair.finalized fault point, gate-drain error): the
        #: repaired state is live, so re-running the spec would apply it
        #: twice — the job manager settles instead of retrying.
        self.post_switch_failure = False

    def _emit(self, event: str, **payload) -> None:
        # Phase boundaries are fault points: an injected failure here
        # models the repair worker dying between phases, and unwinds
        # through repair_batch's abort/unwind path like any other error
        # (listeners below stay unable to break a repair).
        self.faults.fire("repair." + event)
        for listener in self.listeners:
            try:
                listener(event, payload)
            except Exception:
                pass

    # ------------------------------------------------------------------ entry points

    def repair_batch(self, specs) -> RepairResult:
        """Run a repair: N intrusions in **one** generation pass.  The
        only way a repair starts — ``warp.repair.submit(spec)`` ends here,
        a single spec as a batch of one.

        The member specs' damage comes from
        :func:`repro.repair.api.derive_damage`, the derivation the preview
        reports, and its union seeds cluster discovery once, before
        anything executes: the plan a preview shows is the plan the repair
        runs, and every affected action re-executes *at most once* — N
        sequential repairs would pay N generation switches, N graph
        merges, and re-execute any action reached by several attacks once
        per attack.

        Then, in order: database fixes execute with ordinary propagation,
        each in the scope of the component its symbolic keys seeded (keys
        the execution writes beyond that component's coverage are its
        escapes and widen the gate); canceled visits/clients have their
        runs undone; patches' damaged runs escalate.  A run both canceled
        and patched stays canceled.  If any cancel spec is a non-admin
        undo, the §5.5 guard applies: conflicts created for *other*
        clients abort the batch.

        ``PatchSpec``s must arrive with ``exports`` materialized — the
        job manager resolves ``patch_name`` through its catalog first.
        """
        batch = RepairBatch(specs=list(specs))
        if not batch.specs:
            raise RepairError("repair batch needs at least one spec")
        started = _time.perf_counter()
        graph_before = self.graph.index_build_seconds
        self._begin()
        #: Patches installed by this batch's staging, as (file, version,
        #: apply_ts).  Their durable PatchRecords are journaled only on
        #: commit, and an abort/cancel pops the staged versions — an
        #: aborted batch must leave code *and* records untouched, not
        #: just the repair generation.
        staged_patches: List[Tuple[str, int, int]] = []
        try:
            self.stats.timer.push("init")
            damage = derive_damage(self.graph, self.ttdb, batch)
            escalate_runs: List[int] = []
            cancels: List[Damage] = []
            fixes: List[Damage] = []
            undo_guards: Set[str] = set()
            for member in damage:
                spec = member.spec
                if isinstance(spec, DbFixSpec):
                    fixes.append(member)
                elif isinstance(spec, PatchSpec):
                    if spec.exports is None:
                        raise RepairError(
                            f"PatchSpec for {spec.file!r} has no exports — "
                            "resolve patch_name through the job manager's "
                            "registered patch catalog before execution"
                        )
                    new_version = self.scripts.patch(spec.file, spec.exports)
                    staged_patches.append((spec.file, new_version, spec.apply_ts))
                    escalate_runs.extend(member.runs)
                else:
                    cancels.append(member)
                    if isinstance(spec, CancelVisitSpec) and not (
                        spec.initiated_by_admin or spec.allow_conflicts
                    ):
                        undo_guards.add(spec.client_id)
            self._plan_groups(*damage_seeds(damage))
            for member in fixes:
                fix = member.spec
                self._g = self._fix_scope(member)
                self.reexec_statement(fix.sql, fix.params, fix.ts, original=None)
            for member in cancels:
                self.server.gate.note_client(member.spec.client_id)
            # Cancels before escalations: a run that is both canceled and
            # patch-damaged stays canceled (matching sequential repairs,
            # where the cancel's undo wins regardless of order because a
            # canceled run is never re-executed).
            for member in cancels:
                for run_id in member.runs:
                    run = self.graph.runs.get(run_id)
                    if run is None:
                        continue
                    self._g = self._run_home.get(run_id, self._global)
                    self.cancel_run(run)
                for key in member.visits:
                    self._visit_state[key] = "canceled"
            for run_id in escalate_runs:
                self._escalate(run_id)
            self.stats.timer.pop()
            self._process()
            if undo_guards:
                created = self._repair_conflicts()
                others = {
                    c.client_id for c in created if c.client_id not in undo_guards
                }
                if others:
                    self._revert_staged_patches(staged_patches)
                    self._abort()
                    return self._result(
                        started, graph_before, aborted=True, conflicts=created
                    )
            # Commit point: the retroactive patches really happened —
            # journal their durable records just before the switch.
            for file, new_version, apply_ts in staged_patches:
                self.graph.add_patch(
                    PatchRecord(
                        file=file, new_version=new_version, apply_ts=apply_ts
                    )
                )
            self._finalize()
        except Exception:
            # Pre-switch failures (raising scripts, cancel) roll the whole
            # batch back, staged code versions included; a post-switch
            # failure is already committed and keeps them.
            pre_switch = self.ttdb.repair_gen is not None
            self.post_switch_failure = not pre_switch
            self._unwind_failed_repair()
            if pre_switch:
                self._revert_staged_patches(staged_patches)
            raise
        return self._result(started, graph_before, aborted=False)

    def _revert_staged_patches(
        self, staged_patches: List[Tuple[str, int, int]]
    ) -> None:
        for file, new_version, _apply_ts in reversed(staged_patches):
            self.scripts.revert_patch(file, new_version)

    def _fix_scope(self, fix: Damage) -> RepairGroup:
        """The component a database fix's symbolic keys seeded: the one
        whose coverage holds them (each fix seeded one build, so the first
        match is its own); the global scope when they seeded none."""
        for group in self._groups:
            if group.scoped and (
                any(map(group.covers, fix.keys))
                or any(table in group.covered_tables for table in fix.full_tables)
            ):
                return group
        return self._global

    def _result(
        self,
        started: float,
        graph_before: float,
        aborted: bool,
        conflicts: Optional[List[Conflict]] = None,
    ) -> RepairResult:
        self.stats.total_seconds = _time.perf_counter() - started
        self.stats.graph_seconds = self.graph.index_build_seconds - graph_before
        self.stats.total_visits = len(self.graph.visits)
        self.stats.total_runs = self.graph.n_runs
        self.stats.total_queries = self.graph.query_count
        # Repair-scoped conflict accounting: only conflicts *this* repair
        # created count (and, for an aborted undo, the list captured before
        # the abort resolved them) — stale conflicts queued by an earlier
        # repair belong to that repair's report, not this one's.
        repair_conflicts = (
            list(conflicts) if conflicts is not None else self._repair_conflicts()
        )
        self.stats.conflicts = len(repair_conflicts)
        attributed = 0
        scoped_any = False
        for group in self._groups:
            if not group.scoped:
                continue
            scoped_any = True
            row = group.describe()
            row["conflicts"] = sum(
                1 for c in repair_conflicts if c.client_id in group.clients
            )
            attributed += row["conflicts"]
            self.stats.groups.append(row)
            self.stats.escaped_keys += group.escaped_keys
        self.stats.gate = asdict(self.server.gate.stats)
        orphan = self._global
        if scoped_any and (attributed < len(repair_conflicts) or any(orphan.counters.values())):
            # Work in no component — runs and clients reached only through
            # escaped propagation, §4.3 re-applied arrivals, a fix whose
            # keys seeded no component — gets one row, so the per-group
            # fold-in still reconciles with the repair-wide stats.
            row = {"group": 0, "orphan": True, "seconds": round(orphan.seconds, 6)}
            row.update(orphan.counters)
            row["conflicts"] = len(repair_conflicts) - attributed
            self.stats.groups.append(row)
        return RepairResult(
            ok=not aborted,
            aborted=aborted,
            stats=self.stats,
            conflicts=repair_conflicts,
        )

    # ------------------------------------------------------------------ lifecycle

    def _begin(self) -> None:
        if self._active:
            raise RepairError("repair already in progress")
        self._emit("phase_started", phase="init")
        self.ttdb.begin_repair()
        self.server.repair_active = True
        self.server.pending_during_repair = []
        self._active = True
        # Conflicts pending from earlier repairs are out of scope for this
        # one: they must survive an abort and never trigger one.
        self._prior_conflict_ids = {id(c) for c in self.conflicts.pending()}
        # Unscoped until the damage components are planned: the gate
        # serves every request, since nothing has been modified yet.
        self.server.gate.begin()

    def _repair_conflicts(self) -> List[Conflict]:
        """Unresolved conflicts created by *this* repair."""
        return [
            c
            for c in self.conflicts.pending()
            if id(c) not in self._prior_conflict_ids
        ]

    def _plan_groups(self, run_seeds=(), key_seed_groups=()) -> List[RepairGroup]:
        """Split the damage set into repair groups.

        Always returns at least one group; when clustering is futile (or
        the damage set empty) that is the controller's global scope."""
        run_seeds = list(run_seeds)
        key_seed_groups = list(key_seed_groups)
        groups: List[RepairGroup] = []
        futile = False
        if run_seeds or key_seed_groups:
            started = _time.perf_counter()
            try:
                groups = compute_repair_groups(
                    self.graph, run_seeds=run_seeds, key_seed_groups=key_seed_groups
                )
            except ClusteringFutile:
                # The damage component spans most of the workload: keep the
                # global scope.
                futile = True
            self.stats.clusters_seconds += _time.perf_counter() - started
        if not groups:
            self._global.seed_runs.extend(run_seeds)
            groups = [self._global]
        else:
            self._groups = groups
            self.stats.n_groups = len(groups)
            for group in groups:
                for run_id in group.run_ids or ():
                    self._run_home[run_id] = group
                for client_id in group.clients:
                    self._client_home[client_id] = group
        # Scope the gate to the plan; an unscoped group leaves it serving
        # everything, and finalize re-applies what the repair changed.
        self.server.gate.set_scope(groups)
        self._emit("groups_planned", n_groups=self.stats.n_groups, futile=futile)
        return groups

    def _process(self) -> None:
        self._emit("phase_started", phase="process")
        while self._heap:
            if self.cancel_requested:
                raise RepairCanceled("repair job canceled by administrator")
            _, _, scope, kind, payload = heapq.heappop(self._heap)
            self._g = scope
            started = _time.perf_counter()
            try:
                if kind == "query":
                    self._process_query(payload)
                elif kind == "run":
                    self._process_run(payload)
                elif kind == "visit":
                    self._process_visit(payload)
                if self.step_hook is not None:
                    self.step_hook()
            finally:
                scope.seconds += _time.perf_counter() - started
            scope.pending -= 1
            self._emit_group_done(scope)
        # Progress contract: exactly one group_done per scoped group per
        # repair — including groups that never had an item queued.
        for group in self._groups:
            self._emit_group_done(group)

    def _emit_group_done(self, group: RepairGroup) -> None:
        if not group.scoped or group.done_emitted or group.pending:
            return
        group.done_emitted = True
        self._emit(
            "group_done",
            group=group.group_id,
            counters=dict(group.counters),
            seconds=round(group.seconds, 6),
        )

    def _finalize(self) -> None:
        self._emit("phase_started", phase="finalize")
        # Briefly suspend: new arrivals block and in-flight requests
        # drain, so the pending re-application below sees a stable run
        # list and the switch is atomic per-request.
        self.server.begin_switch()
        try:
            # Re-apply requests that arrived while repair was running
            # (§4.3), in global scope (they are new traffic, not members
            # of any damage component).  Contract: re-application happens
            # in arrival-timestamp order — the list is appended by request
            # threads, so list order carries no guarantee.
            self._g = self._global
            pending = [
                run
                for run in (
                    self.graph.runs.get(run_id)
                    for run_id in list(self.server.pending_during_repair)
                )
                if run is not None
            ]
            pending.sort(key=lambda run: (run.ts_start, run.run_id))
            for run in pending:
                if self._run_state.get(run.run_id) in ("done", "canceled"):
                    continue
                if self._inputs_changed(run):
                    self._reexec_run(run, run.request, conflict_on_change=False)
            # Switch generations and fold the repaired records back in.
            self.ttdb.finalize_repair()
            self._merge_replacements()
            self.server.repair_active = False
            self._active = False
        finally:
            self.server.end_switch()
        for client_id in self.replayer.diverged_clients:
            self.server.cookie_invalidation.add(client_id)
        # Queued requests re-apply against the repaired, now-live
        # generation — each exactly once, in arrival order.
        self._drain_gate_queue()
        self._emit("finalized", generation=self.ttdb.current_gen)

    def _unwind_failed_repair(self) -> None:
        """A raising script propagates out of the entry point: abort the
        half-mutated repair generation (so the live state is untouched and
        a retry with fixed code simply works) and unwind the server flags —
        otherwise live traffic queues behind a dead repair and every later
        ``begin_repair`` fails with "already active"."""
        self.server.end_switch()
        if self.ttdb.repair_gen is not None:
            self._abort()
        else:
            # The failure happened after the generation switch (finalize):
            # nothing to abort, just release the flags and serve the queue.
            self.server.repair_active = False
            self._active = False
            self._drain_gate_queue()

    def _abort(self) -> None:
        self.ttdb.abort_repair()
        # Resolve only the conflicts this repair created: stale conflicts
        # queued for users who have not logged in yet belong to an earlier,
        # *finalized* repair and must survive.
        for conflict in self._repair_conflicts():
            self.conflicts.resolve(conflict)
        self.server.repair_active = False
        self._active = False
        # Requests queued behind the aborted repair still deserve service —
        # the live generation they now run against was never touched.
        self._drain_gate_queue()
        self._emit("aborted")

    def _drain_gate_queue(self) -> None:
        """Serve every request the gate queued, in arrival order, exactly
        once.  A queued script that raises is recorded as a 500 on its
        ticket and consumed — it must not wedge the finalize path or
        starve the tickets behind it.  The gate stays active until the
        queue is empty (see ``RepairGate.pop_next``), so the drain runs
        ungated."""
        gate = self.server.gate
        while True:
            entry = gate.pop_next()
            if entry is None:
                return
            try:
                response = self.server.handle(entry.request, bypass_gate=True)
            except Exception as exc:
                gate.record_failed(
                    entry, f"script raised during queued re-application: {exc!r}"
                )
                continue
            gate.record_applied(entry, response)

    def _merge_replacements(self) -> None:
        """Fold re-executed and canceled runs back into the graph so it
        describes the repaired timeline (enables follow-up repairs), as one
        batch — one store lock hold, one journal wait — on commit only."""
        canceled = dict.fromkeys(
            run_id for run_id, state in self._run_state.items() if state == "canceled"
        )
        records = []
        for old_id, new_record in self._replacements.items():
            old = self.graph.runs.get(old_id)
            if old is None:
                continue
            new_record.run_id = old_id
            for query in new_record.queries:
                query.run_id = old_id
            new_record.client_id = old.client_id
            new_record.visit_id = old.visit_id
            new_record.request_id = old.request_id
            new_record.ts_start = old.ts_start
            new_record.ts_end = max(old.ts_end, new_record.ts_end)
            new_record.canceled = old_id in canceled
            records.append(new_record)
        for run_id in canceled:
            old = self.graph.runs.get(run_id)
            if old is not None and not old.canceled and run_id not in self._replacements:
                records.append(replace(old, canceled=True, json_text=None))
        self.graph.replace_runs(records)
        self.graph.add_runs(self._new_runs)
        if self._replacements:
            self.graph.invalidate_partition_indexes()

    # ------------------------------------------------------------------ scheduling

    def _bump(self, name: str, n: int = 1) -> None:
        """Increment a re-execution counter on the shared stats and on the
        active group's fold-in row."""
        setattr(self.stats, name, getattr(self.stats, name) + n)
        counters = self._g.counters
        if name in counters:
            counters[name] += n

    def _schedule(self, ts: int, kind: str, payload) -> None:
        """Queue an item in its run's (a visit: its client's) component
        scope; a run in no component gets the global scope."""
        if kind == "visit":
            scope = self._client_home.get(payload.client_id, self._global)
        else:
            scope = self._run_home.get(payload.run_id, self._global)
        scope.pending += 1
        self._heap_seq += 1
        heapq.heappush(self._heap, (ts, self._heap_seq, scope, kind, payload))

    def _escalate(self, run_id: int) -> None:
        """A run's inputs (or outputs) changed: queue it for re-execution,
        at the browser level when a client-side log exists."""
        run = self.graph.runs.get(run_id)
        if run is None or self._run_state.get(run_id) in (
            "queued",
            "done",
            "canceled",
        ):
            return
        visit = self.graph.visit_of_run(run)
        if run.client_id in self._conflicted_clients:
            # §5.4: after a conflict, this browser is no longer replayed —
            # its requests are assumed unchanged, so affected runs
            # re-execute server-side with the recorded request.
            self._run_state[run_id] = "queued"
            self._schedule(run.ts_start, "run", run)
            return
        if visit is not None:
            # Replay must start at the visit whose *events* generated this
            # request: a form POST's parameters come from replaying the
            # parent form page's DOM events (that is how merged text and
            # fresh CSRF tokens flow into the re-executed request).
            for candidate in self._replay_chain(visit):
                key = (candidate.client_id, candidate.visit_id)
                state = self._visit_state.get(key)
                if state == "queued":
                    return
                if state is None:
                    self._visit_state[key] = "queued"
                    self._schedule(candidate.ts, "visit", candidate)
                    return
            # Entire chain already replayed: fall through to the run level.
        self._run_state[run_id] = "queued"
        self._schedule(run.ts_start, "run", run)

    def _replay_chain(self, visit: VisitRecord) -> List[VisitRecord]:
        """Ancestors of ``visit`` whose events drive its navigation, topmost
        first, ending with ``visit`` itself."""
        chain = [visit]
        current = visit
        while current.parent_visit is not None:
            parent = self.graph.visits.get((visit.client_id, current.parent_visit))
            if parent is None or not parent.events:
                break
            chain.append(parent)
            current = parent
        chain.reverse()
        return chain

    def note_visit_replayed(self, client_id: str, visit_id: int) -> None:
        """Called by the replay session when a visit gets mapped into a
        clone: its standalone queue entry (if any) must become a no-op."""
        key = (client_id, visit_id)
        self._visit_state[key] = "done"
        if key not in self._counted_visits:
            self._counted_visits.add(key)
            self._bump("visits_reexecuted")

    # ------------------------------------------------------------------ worklist items

    def _process_query(self, query: QueryRecord) -> None:
        if self._run_state.get(query.run_id) in ("queued", "done", "canceled"):
            return
        run = self.graph.runs.get(query.run_id)
        if run is None or run.canceled:
            return
        if run.client_id is not None and self._visit_state.get(
            (run.client_id, run.visit_id)
        ) in (
            "queued",
            "done",
            "conflict",
            "canceled",
        ):
            return
        affected = self.mods.affects(query.read_set, query.ts) or (
            query.is_write
            and self.mods.affects_keys(
                query.table, query.written_partitions, query.ts
            )
        )
        if not affected:
            return
        self.stats.timer.push("db")
        result = self.reexec_statement(query.sql, query.params, query.ts, query)
        self.stats.timer.pop()
        if result.result.snapshot() != query.snapshot:
            self._escalate(query.run_id)

    def _process_run(self, run: AppRunRecord) -> None:
        if self._run_state.get(run.run_id) in ("done", "canceled"):
            return
        already_conflicted = run.client_id in self._conflicted_clients
        self._reexec_run(run, run.request, conflict_on_change=not already_conflicted)

    def _process_visit(self, visit: VisitRecord) -> None:
        key = (visit.client_id, visit.visit_id)
        if self._visit_state.get(key) == "done":
            return
        if visit.client_id in self._conflicted_clients:
            return
        self._visit_state[key] = "done"
        self.stats.timer.push("firefox")
        self.replayer.replay_visit(visit)
        self.stats.timer.pop()

    # ------------------------------------------------------------------ query re-execution

    def reexec_statement(
        self,
        sql: str,
        params: Tuple[object, ...],
        ts: int,
        original: Optional[QueryRecord],
    ) -> TTResult:
        """Re-execute one statement at historical time ``ts``.

        Writes use two-phase re-execution (§4.2): find the rows the new
        WHERE clause matches, roll back original ∪ new rows to just before
        ``ts``, then execute.
        """
        self._bump("queries_reexecuted")
        plan = self.ttdb.prepare(sql)
        if not plan.is_write:
            return self.ttdb.execute_at(sql, params, ts)

        table = plan.table
        targets: Set[Tuple[str, int]] = set()
        forced: Tuple[int, ...] = ()
        if original is not None:
            targets |= set(original.written_row_ids)
            if original.kind == "insert":
                forced = tuple(rid for _, rid in original.written_row_ids)
        if plan.kind != "insert":
            for row_id in self.ttdb.matching_row_ids(sql, params, max(ts - 1, 0)):
                targets.add((table, row_id))
        touched = set()
        for target_table, row_id in targets:
            touched |= self.ttdb.rollback_row(target_table, row_id, ts)
        result = self.ttdb.execute_at(sql, params, ts, forced_row_ids=forced)
        keys = touched | set(result.result.written_partitions)
        if original is not None:
            keys |= set(original.written_partitions)
        self._note_modification(table, keys, ts, whole_table=result.full_table_write)
        return result

    def undo_query(self, query: QueryRecord) -> None:
        """Roll back one original write that the repaired run never issued."""
        touched = set()
        for table, row_id in query.written_row_ids:
            touched |= self.ttdb.rollback_row(table, row_id, query.ts)
        touched |= set(query.written_partitions)
        self._note_modification(query.table, touched, query.ts, query.full_table_write)

    def cancel_run(self, run: AppRunRecord) -> None:
        """Undo every write of a canceled request (paper §5.4, §5.5)."""
        if self._run_state.get(run.run_id) == "canceled":
            return
        self._run_state[run.run_id] = "canceled"
        self._bump("runs_canceled")
        for query in run.queries:
            if query.is_write:
                self.undo_query(query)

    def _note_modification(
        self, table: str, keys, ts: int, whole_table: bool = False
    ) -> None:
        if whole_table:
            self.mods.record_all(table, ts)
        if keys:
            self.mods.record(table, keys, ts)
        if not keys and not whole_table:
            return
        # Re-execution (a retroactive fix's included) may write beyond the
        # planned scope: widen the gate so new traffic conflicts with the
        # freshly repaired partitions too.
        self.server.gate.note_modification(table, keys, whole_table)
        self._propagate(table, keys, ts, whole_table)

    def _propagate(self, table: str, keys, ts: int, whole_table: bool) -> None:
        """Queue every recorded query the modification may affect, each at
        most once per repair.  The store's buckets answer in every scope, so
        the candidates are the same with or without groups, and the drain
        marks keep a bucket from handing over again what it already has.
        The buckets a lookup builds are timed as Table 7's "Graph", so that
        time is taken out of the phase the lookup ran in."""
        built = self.graph.index_build_seconds
        candidates = self._g.queries_touching(
            self.graph, table, keys, ts, whole_table, self._drained
        )
        self.stats.timer.carve(self.graph.index_build_seconds - built)
        for query in candidates:
            if query.qid not in self._scheduled_qids:
                self._scheduled_qids.add(query.qid)
                self._schedule(query.ts, "query", query)

    # ------------------------------------------------------------------ run re-execution

    def _reexec_run(
        self,
        run: AppRunRecord,
        request: HttpRequest,
        conflict_on_change: bool,
    ) -> HttpResponse:
        self.stats.timer.push("app")
        script_name = self.server.script_for(request.path)
        if script_name is None:
            self._run_state[run.run_id] = "done"
            self.stats.timer.pop()
            return HttpResponse(status=404, body=f"no route for {request.path}")
        if self.use_nondet_replay:
            nondet = NondetReplayer(run.nondet, self.runtime.nondet_source)
        else:
            nondet = NondetReplayer([], self.runtime.nondet_source)
        runner = RepairQueryRunner(self, run)
        try:
            response, record = self.runtime.execute(
                script_name,
                request,
                query_runner=runner,
                nondet=nondet,
                ts_start=run.ts_start,
            )
        except Exception as exc:
            # A script that raises mid-repair must not leave the run marked
            # "done" over a half-mutated generation: record the failure as
            # a conflict for the affected user and re-raise so the caller
            # can abort the repair generation cleanly.
            self._run_state[run.run_id] = "failed"
            self.stats.timer.pop()
            self.report_conflict_for_run(
                run, f"script raised during repair re-execution: {exc!r}"
            )
            raise
        self._run_state[run.run_id] = "done"
        runner.undo_unmatched()
        self._bump("runs_reexecuted")
        self.stats.nondet_misses += nondet.misses
        self._replacements[run.run_id] = record
        self.stats.timer.pop()

        if response.key() != run.response.key() and conflict_on_change:
            # The browser that received this response cannot be replayed
            # (no client-side log): inform the user via a queued conflict.
            if run.client_id is not None:
                self.report_conflict_for_run(
                    run, "response changed but no browser log is available"
                )
        return response

    def _exec_new_run(self, request: HttpRequest, ts: int) -> HttpResponse:
        """Execute a request the original timeline never saw (a replayed
        page navigated somewhere new)."""
        script_name = self.server.script_for(request.path)
        if script_name is None:
            return HttpResponse(status=404, body=f"no route for {request.path}")
        self.stats.timer.push("app")
        empty = AppRunRecord(
            run_id=0,
            ts_start=ts,
            ts_end=ts,
            script=script_name,
            loaded_files={},
            request=request,
            response=HttpResponse(),
        )
        runner = RepairQueryRunner(self, empty)
        response, record = self.runtime.execute(
            script_name, request, query_runner=runner, ts_start=ts
        )
        self._bump("runs_reexecuted")
        self._new_runs.append(record)
        self.stats.timer.pop()
        return response

    # ------------------------------------------------------------------ replay transport

    def handle_replay_request(
        self, session, origin: str, request: HttpRequest
    ) -> HttpResponse:
        """Requests issued by the server-side re-execution browser."""
        if origin != self.server.origin:
            # Third-party origins (the attacker's site) are fetched live.
            return self.network.request(origin, request)
        clone_visit_id = request.visit_id or 0
        run, ts = session.match_request(clone_visit_id, request)
        if run is None:
            return self._exec_new_run(request, ts)
        state = self._run_state.get(run.run_id)
        if state == "done":
            replacement = self._replacements.get(run.run_id)
            return replacement.response if replacement else run.response
        if state == "canceled":
            return HttpResponse(status=410, body="request was canceled by repair")
        if (
            self.use_pruning
            and request.key() == run.request.key()
            and not self._inputs_changed(run)
        ):
            # Prune: identical request with unchanged inputs (§5.3).
            self._run_state[run.run_id] = "done"
            self._bump("runs_pruned")
            return run.response
        return self._reexec_run(run, request, conflict_on_change=False)

    def _inputs_changed(self, run: AppRunRecord) -> bool:
        for file, version in run.loaded_files.items():
            if self.scripts.version(file) != version:
                return True
        for query in run.queries:
            if self.mods.affects(query.read_set, query.ts):
                return True
            if query.is_write and self.mods.affects_keys(
                query.table, query.written_partitions, query.ts
            ):
                return True
        return False

    # ------------------------------------------------------------------ conflicts

    def report_conflict(self, visit: VisitRecord, event: EventRecord, reason: str) -> None:
        # ignore_ids: a stale conflict from an earlier repair for the same
        # visit must not mask this repair's own conflict (the new one
        # drives this repair's abort check and result).
        self.conflicts.add(
            Conflict(
                client_id=visit.client_id,
                visit_id=visit.visit_id,
                url=visit.url,
                reason=reason,
                event_desc=f"{event.etype} on {event.xpath}",
            ),
            ignore_ids=self._prior_conflict_ids,
        )
        self._visit_state[(visit.client_id, visit.visit_id)] = "conflict"
        self._conflicted_clients.add(visit.client_id)
        self._emit(
            "conflict_found",
            client_id=visit.client_id,
            visit_id=visit.visit_id,
            reason=reason,
        )

    def report_conflict_for_run(self, run: AppRunRecord, reason: str) -> None:
        self.conflicts.add(
            Conflict(
                client_id=run.client_id or "?",
                visit_id=run.visit_id or 0,
                url=run.request.path,
                reason=reason,
            ),
            ignore_ids=self._prior_conflict_ids,
        )
        if run.client_id is not None:
            self._conflicted_clients.add(run.client_id)
        self._emit(
            "conflict_found",
            client_id=run.client_id or "?",
            visit_id=run.visit_id or 0,
            reason=reason,
        )
