"""Repair Job API v2: specs, jobs, previews, batches, and the admin HTTP
surface.

Acceptance coverage (ISSUE 5):

* spec JSON round-trip for every kind, including nested batches;
* ``preview()`` provably mutates nothing — version-store and graph dumps
  are byte-identical before/after;
* a ``RepairBatch`` of a multi-intrusion attack set re-executes each
  affected action at most once, in ONE generation pass, and matches the
  final state of sequential repairs;
* job lifecycle: status transitions, progress events, blocking result,
  cooperative cancel (queued and running), FIFO execution;
* the jobs journal: an interrupted job is reported after reload;
* the ``/warp/admin/*`` endpoints, including token auth and mid-repair
  availability.
"""

import functools
import json
import threading

import pytest

from repro.apps.wiki import WikiApp, patch_for
from repro.core.errors import RepairCanceled, RepairError
from repro.http.message import HttpRequest
from repro.repair.api import (
    CancelClientSpec,
    CancelVisitSpec,
    DbFixSpec,
    PatchSpec,
    RepairBatch,
    compute_plan,
    parse_spec,
)
from repro.repair.clusters import compute_repair_groups
from repro.repair.controller import RepairController
from repro.repair.jobs import RepairJobManager
from repro.warp import WarpSystem
from repro.workload.scenarios import (
    WIKI,
    WikiDeployment,
    run_multi_tenant_scenario,
    run_scenario,
)

from test_online_repair import _canonical_db

def dumps(warp):
    """Byte-comparable dumps of the version store and the graph."""
    return (
        json.dumps(warp.database.to_dict(), sort_keys=True, default=repr),
        json.dumps(warp.graph.to_snapshot(), sort_keys=True, default=repr),
    )


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------


class TestSpecSerialization:
    def test_round_trip_all_kinds(self):
        specs = [
            PatchSpec(file="login.php", patch_name="csrf-fix", apply_ts=7),
            CancelVisitSpec(
                client_id="c1", visit_id=3, initiated_by_admin=False,
                allow_conflicts=True,
            ),
            CancelClientSpec(client_id="attacker-box"),
            DbFixSpec(sql="UPDATE users SET password = ? WHERE name = ?",
                      params=("pw", "alice"), ts=12),
        ]
        batch = RepairBatch(specs=list(specs))
        for spec in specs + [batch]:
            wire = json.loads(json.dumps(spec.to_dict()))
            rebuilt = parse_spec(wire)
            assert rebuilt == spec
            assert rebuilt.to_dict() == spec.to_dict()

    def test_nested_batches_flatten(self):
        inner = RepairBatch(specs=[CancelClientSpec("a"), CancelClientSpec("b")])
        outer = RepairBatch(specs=[inner, CancelClientSpec("c")])
        assert [spec.client_id for spec in outer.specs] == ["a", "b", "c"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(RepairError, match="unknown repair spec kind"):
            parse_spec({"kind": "frobnicate"})

    def test_malformed_spec_rejected(self):
        with pytest.raises(RepairError, match="malformed"):
            parse_spec({"kind": "cancel_visit", "client_id": "c1"})  # no visit_id

    def test_inline_exports_not_serializable(self):
        spec = PatchSpec(file="x.php", exports={"handle": lambda ctx: None})
        with pytest.raises(RepairError, match="not JSON-serializable"):
            spec.to_dict()
        # describe() is always JSON-safe (the jobs journal depends on it).
        assert json.dumps(spec.describe())

    def test_patch_spec_needs_exactly_one_source(self):
        with pytest.raises(RepairError):
            PatchSpec(file="x.php").validate()
        with pytest.raises(RepairError):
            PatchSpec(file="x.php", exports={}, patch_name="both").validate()

    def test_empty_batch_rejected(self):
        with pytest.raises(RepairError):
            RepairBatch(specs=[]).validate()


# ---------------------------------------------------------------------------
# dry-run preview
# ---------------------------------------------------------------------------


class TestPreview:
    def test_preview_mutates_nothing(self):
        """Acceptance: version-store and graph dumps byte-identical
        before/after, for every spec kind."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=2
        )
        warp = outcome.warp
        visit = next(iter(warp.graph.client_visits(outcome.attacker_client)))
        specs = [
            PatchSpec(file="edit.php", exports={"x": 1}),
            CancelVisitSpec(
                client_id=outcome.attacker_client, visit_id=visit.visit_id
            ),
            CancelClientSpec(client_id=outcome.attacker_client),
            DbFixSpec(
                sql="UPDATE pagecontent SET old_text = ? WHERE title = ?",
                params=("x", outcome.tenant_page(0)),
                ts=5,
            ),
        ]
        specs.append(RepairBatch(specs=list(specs)))
        before = dumps(warp)
        gen_before = (warp.ttdb.current_gen, warp.ttdb.repair_gen)
        clock_before = warp.clock.now()
        script_versions = {
            name: warp.scripts.version(name) for name in warp.scripts.names()
        }
        for spec in specs:
            plan = warp.repair.preview(spec)
            assert plan.to_dict()["kind"] == spec.kind
        assert dumps(warp) == before
        assert (warp.ttdb.current_gen, warp.ttdb.repair_gen) == gen_before
        assert warp.clock.now() == clock_before
        assert script_versions == {
            name: warp.scripts.version(name) for name in warp.scripts.names()
        }

    def test_preview_reports_components_and_clients(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=4, users_per_tenant=2, attacked_tenants=1, seed=1
        )
        warp = outcome.warp
        plan = warp.repair.preview(CancelClientSpec(outcome.attacker_client))
        # The attacker only touched tenant 0: one component, holding the
        # attacker and tenant 0's users.
        assert plan.n_groups == 1
        assert outcome.attacker_client in plan.affected_clients
        tenant0 = {f"{user}-browser" for user in outcome.tenant_users[0]}
        assert tenant0 <= set(plan.affected_clients)
        other = {
            f"{user}-browser"
            for tenant in (1, 2, 3)
            for user in outcome.tenant_users[tenant]
        }
        assert not (other & set(plan.affected_clients))
        assert 0 < plan.affected_runs < plan.total_runs
        assert plan.affected_partitions > 0
        assert not plan.futile
        assert 0.0 < plan.estimated_reexec_fraction < 1.0

    def test_preview_patch_splits_per_tenant(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=4
        )
        plan = outcome.warp.repair.preview(
            PatchSpec(file="edit.php", exports={"x": 1})
        )
        # Every tenant edits only its own page: one component per tenant
        # (the attacker rides with the attacked tenant's component).
        assert plan.n_groups == 3

    def test_preview_reports_futility(self, monkeypatch):
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=3)
        warp = outcome.warp
        spec = PatchSpec(file="special_block.php", exports={"x": 1})
        before = dumps(warp)
        monkeypatch.setattr(
            "repro.repair.api.compute_repair_groups",
            functools.partial(compute_repair_groups, futility_limit=3),
        )
        plan = compute_plan(warp.graph, warp.ttdb, spec)
        assert plan.futile
        assert plan.affected_runs == plan.total_runs
        assert plan.estimated_reexec_fraction == 1.0
        assert dumps(warp) == before  # the bailed-out walk mutated nothing

    def test_preview_estimate_bounds_actual_repair(self):
        """The component membership is an upper bound on what repair
        actually re-executes."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=6
        )
        warp = outcome.warp
        plan = warp.repair.preview(CancelClientSpec(outcome.attacker_client))
        result = warp.repair.submit(CancelClientSpec(outcome.attacker_client)).result()
        touched = (
            result.stats.runs_reexecuted
            + result.stats.runs_pruned
            + result.stats.runs_canceled
        )
        assert touched <= plan.affected_runs

    def test_preview_db_fix_seed_partitions(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=7)
        plan = outcome.warp.repair.preview(
            DbFixSpec(
                sql="UPDATE pagecontent SET old_text = ? WHERE title = ?",
                params=("x", outcome.tenant_page(0)),
                ts=5,
            )
        )
        assert ["pagecontent", "title", outcome.tenant_page(0)] in plan.seed_partitions
        assert plan.n_groups == 1

    def test_preview_refuses_an_unknown_patch_name(self):
        """Preview resolves a spec as submit does: an unregistered
        ``patch_name`` is a RepairError (a 400 over HTTP), not an empty
        plan."""
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=7)
        warp = outcome.warp
        spec = PatchSpec(file="edit.php", patch_name="nosuch")
        with pytest.raises(RepairError, match="unknown patch 'nosuch'"):
            warp.repair.preview(spec)
        response = _admin(
            warp, "POST", "/warp/admin/repair/preview", spec=json.dumps(spec.to_dict())
        )
        assert response.status == 400
        assert "nosuch" in json.loads(response.body)["error"]

    def test_preview_rejects_read_only_db_fix(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=7)
        with pytest.raises(RepairError, match="write statement"):
            outcome.warp.repair.preview(
                DbFixSpec(sql="SELECT * FROM pagecontent", ts=5)
            )


# ---------------------------------------------------------------------------
# property: the preview is the plan the repair runs
# ---------------------------------------------------------------------------

#: Per case: the re-execution counters (visits, runs and queries
#: re-executed, runs canceled, runs pruned), as measured when the repair
#: still seeded a fix from its executed keys.  Components set scope, never
#: the worklist, so seeding from the preview's derivation must not move
#: them.
PREVIEW_CASES = {
    "reflected-xss": (9, 9, 47, 3, 0),
    "stored-xss": (11, 11, 55, 3, 0),
    "csrf": (29, 29, 142, 0, 0),
    "clickjacking": (50, 50, 188, 0, 0),
    "sql-injection": (10, 10, 84, 0, 0),
    "acl-error": (1, 2, 10, 1, 0),
    "fix-keyed": (6, 6, 37, 0, 0),
    "fix-rename": (6, 6, 37, 0, 0),
    "fix-nonpartition": (0, 0, 1, 0, 0),
    "fix-unrecorded-key-twice": (0, 0, 2, 0, 0),
}

FIX_PROBES = {
    "fix-keyed": "UPDATE pagecontent SET old_text = ? WHERE title = ?",
    "fix-rename": "UPDATE pagecontent SET title = ? WHERE title = ?",
    # password is no partition column: symbolically, the whole table.
    "fix-nonpartition": "UPDATE users SET password = ? WHERE password = ?",
}


def _preview_case(case):
    if case == "fix-unrecorded-key-twice":
        # Two fixes of a partition key no recorded run touches: nothing in
        # the history joins them, the key they share does.
        outcome = run_multi_tenant_scenario(2, 1, seed=1)
        sql = "UPDATE users SET password = ? WHERE name = 'ghost'"
        return outcome, RepairBatch([DbFixSpec(sql, ["x"], ts=1), DbFixSpec(sql, ["x"], ts=1)])
    if case in FIX_PROBES:
        outcome = run_multi_tenant_scenario(
            n_tenants=4, users_per_tenant=2, attacked_tenants=1, seed=1
        )
        page = outcome.tenant_page(0)
        params = {
            "fix-keyed": ("fixed", page),
            "fix-rename": (page + "_moved", page),
            "fix-nonpartition": ("zz", "pw-t0_user1"),
        }[case]
        ts = outcome.warp.clock.now() // 3
        return outcome, DbFixSpec(FIX_PROBES[case], params, ts=ts)
    outcome = run_scenario(case, n_users=10, n_victims=3, seed=1)
    if case == "acl-error":
        return outcome, CancelVisitSpec(outcome.admin_client, outcome.acl_grant_visit)
    info = patch_for(case)
    return outcome, PatchSpec(info.file, exports=info.build())


@pytest.mark.parametrize("case", list(PREVIEW_CASES))
def test_preview_is_the_plan_the_repair_runs(case):
    outcome, spec = _preview_case(case)
    plan = outcome.warp.repair.preview(spec)
    result = outcome.warp.repair.submit(spec).result()
    stats = result.stats
    assert result.ok
    assert stats.n_groups == plan.n_groups >= 1
    assert [row["runs"] for row in stats.groups if not row.get("orphan")] == [
        row["runs"] for row in plan.groups
    ]
    assert (
        stats.visits_reexecuted,
        stats.runs_reexecuted,
        stats.queries_reexecuted,
        stats.runs_canceled,
        stats.runs_pruned,
    ) == PREVIEW_CASES[case]
    # The renamed title is a key no recorded run wrote: the fix's own
    # escape, one more than the repair's re-execution finds.
    assert stats.escaped_keys == {"csrf": 25, "fix-rename": 2}.get(case, 0)
    if case == "fix-unrecorded-key-twice":
        # One component, billed with both fixes' statements.
        assert [(row["queries_reexecuted"], row.get("orphan")) for row in stats.groups] == [
            (2, None)
        ]


# ---------------------------------------------------------------------------
# batched multi-intrusion repair
# ---------------------------------------------------------------------------


def _stage_two_intrusions(seed):
    """One deployment, two independent intrusions: a stored-XSS payload
    (springs on victims) AND a direct defacement of Main_Page by the
    attacker's browser."""
    outcome = run_scenario("stored-xss", n_users=5, n_victims=2, seed=seed)
    deployment = outcome.deployment
    deployment.append_to_page("attacker", "Main_Page", "\nDEFACED-BY-HAND")
    defaced_form_visit = deployment.browser("attacker").current.parent_visit
    # A bystander keeps editing the defaced page afterwards.
    witness = outcome.bystanders[-1]
    deployment.append_to_page(witness, "Main_Page", f"\nwitness-{witness}")
    return outcome, defaced_form_visit, witness


class TestRepairBatch:
    def test_batch_matches_sequential_final_state(self):
        """Acceptance: a batch over the multi-intrusion set matches the
        final state of sequential repairs, in ONE generation pass, with
        each affected action re-executed at most once."""
        spec_info = patch_for("stored-xss")
        seed = 11

        # -- sequential reference: patch, then cancel the defacement.
        ref, ref_visit, witness = _stage_two_intrusions(seed)
        assert ref.warp.repair.submit(
            PatchSpec(spec_info.file, exports=spec_info.build())
        ).result().ok
        assert ref.warp.repair.submit(
            CancelVisitSpec(ref.deployment.client_id("attacker"), ref_visit)
        ).result().ok
        assert ref.warp.ttdb.current_gen == 2

        # -- batch: both intrusions in one pass, with re-execution counted
        # per run to prove at-most-once.
        batch_outcome, batch_visit, _ = _stage_two_intrusions(seed)
        assert batch_visit == ref_visit
        reexec_counts = {}
        original = RepairController._reexec_run

        def counting(self, run, request, conflict_on_change):
            reexec_counts[run.run_id] = reexec_counts.get(run.run_id, 0) + 1
            return original(self, run, request, conflict_on_change)

        RepairController._reexec_run = counting
        try:
            result = batch_outcome.warp.repair.submit(
                RepairBatch(
                    specs=[
                        PatchSpec(file=spec_info.file, exports=spec_info.build()),
                        CancelVisitSpec(
                            client_id=batch_outcome.deployment.client_id("attacker"),
                            visit_id=batch_visit,
                        ),
                    ]
                )
            ).result()
        finally:
            RepairController._reexec_run = original
        assert result.ok
        assert batch_outcome.warp.ttdb.current_gen == 1  # ONE pass

        # Each affected action re-executed at most once.
        assert reexec_counts and max(reexec_counts.values()) == 1

        # Final state matches the sequential reference.
        assert _canonical_db(batch_outcome.warp) == _canonical_db(ref.warp)
        wiki = batch_outcome.wiki
        assert "DEFACED-BY-HAND" not in wiki.page_text("Main_Page")
        assert f"witness-{witness}" in wiki.page_text("Main_Page")
        for victim in batch_outcome.victims:
            assert "xss-attack-line" not in wiki.page_text(f"{victim}_notes")
            assert batch_outcome.legit_appends[victim] in wiki.page_text(
                f"{victim}_notes"
            )

    def test_batch_cheaper_than_sequential_reexecution(self):
        """The union pass re-executes no more than the sequential total
        (overlapping actions re-execute once instead of once per attack)."""
        spec_info = patch_for("stored-xss")
        ref, ref_visit, _ = _stage_two_intrusions(21)
        first = ref.warp.repair.submit(
            PatchSpec(spec_info.file, exports=spec_info.build())
        ).result()
        second = ref.warp.repair.submit(
            CancelVisitSpec(ref.deployment.client_id("attacker"), ref_visit)
        ).result()
        sequential_total = (
            first.stats.runs_reexecuted
            + first.stats.visits_reexecuted
            + second.stats.runs_reexecuted
            + second.stats.visits_reexecuted
        )
        batch_outcome, batch_visit, _ = _stage_two_intrusions(21)
        result = batch_outcome.warp.repair.submit(
            RepairBatch(
                specs=[
                    PatchSpec(file=spec_info.file, exports=spec_info.build()),
                    CancelVisitSpec(
                        client_id=batch_outcome.deployment.client_id("attacker"),
                        visit_id=batch_visit,
                    ),
                ]
            )
        ).result()
        batch_total = (
            result.stats.runs_reexecuted + result.stats.visits_reexecuted
        )
        assert batch_total <= sequential_total

    def test_batch_of_disjoint_cancel_visits_multi_tenant(self):
        """k defacements across tenant-disjoint pages: one batch pass
        undoes all of them and every tenant's legit edits survive."""
        outcome = run_multi_tenant_scenario(
            n_tenants=4, users_per_tenant=2, attacked_tenants=3, seed=9
        )
        warp = outcome.warp
        attacker = outcome.attacker_client
        # The attacker's defacement form visits, one per attacked tenant.
        defacements = [
            visit.visit_id
            for visit in warp.graph.client_visits(attacker)
            if "edit.php" in visit.url and visit.parent_visit is None
        ]
        assert len(defacements) == 3
        result = warp.repair.submit(
            RepairBatch(
                specs=[
                    CancelVisitSpec(client_id=attacker, visit_id=visit_id)
                    for visit_id in defacements
                ]
            )
        ).result()
        assert result.ok
        assert warp.ttdb.current_gen == 1
        # The three defacements share the attacker's browser, so taint
        # joins the attacked tenants into one component (run <-> client).
        assert result.stats.n_groups == 1
        for tenant in range(4):
            text = outcome.wiki.page_text(outcome.tenant_page(tenant))
            assert "DEFACED" not in text
            for user in outcome.tenant_users[tenant]:
                assert outcome.legit_appends[user] in text

    def test_batch_of_db_fixes_keeps_separate_components(self):
        """Two fixes on unrelated partitions seed separate groups (the
        key_seed_groups path), unlike one merged statement group."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=13
        )
        warp = outcome.warp

        def created_ts(page):
            """Just after the run that created the tenant page."""
            return next(
                run.ts_end + 1
                for run in warp.graph.runs_in_order()
                if any(
                    query.is_write
                    and ("pagecontent", "title", page) in query.written_partitions
                    for query in run.queries
                )
            )

        result = warp.repair.submit(
            RepairBatch(
                specs=[
                    DbFixSpec(
                        sql="UPDATE pagecontent SET old_text = ? WHERE title = ?",
                        params=("fixed-zero", outcome.tenant_page(0)),
                        ts=created_ts(outcome.tenant_page(0)),
                    ),
                    DbFixSpec(
                        sql="UPDATE pagecontent SET old_text = ? WHERE title = ?",
                        params=("fixed-one", outcome.tenant_page(1)),
                        ts=created_ts(outcome.tenant_page(1)),
                    ),
                ]
            )
        ).result()
        assert result.ok
        assert result.stats.n_groups == 2
        # The untouched tenant kept its history entirely.
        assert "post-" in outcome.wiki.page_text(outcome.tenant_page(2))

    def test_empty_batch_refused_at_submit(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1)
        with pytest.raises(RepairError):
            outcome.warp.repair.submit(RepairBatch(specs=[]))

    def test_nested_submit_from_repair_context_fails_fast(self):
        """Regression: ``submit(...).result()`` called from a step hook on
        the job's worker thread must raise, never deadlock on the FIFO
        queue."""
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=14)
        warp = outcome.warp
        spec_info = patch_for("stored-xss")
        nested_error = []

        def nested_submit():
            if not nested_error:
                try:
                    warp.repair.submit(CancelClientSpec("nobody-browser")).result()
                except RepairError as exc:
                    nested_error.append(exc)

        make_controller = warp._controller

        def hooked_controller():
            controller = make_controller()
            controller.step_hook = nested_submit
            return controller

        warp._controller = hooked_controller
        result = warp.repair.submit(
            PatchSpec(file=spec_info.file, exports=spec_info.build())
        ).result(timeout=30)
        assert result.ok
        assert "already in progress" in str(nested_error[0])

    def test_aborted_batch_reverts_staged_patch(self):
        """Regression: an aborted batch (§5.5 guard) must leave no
        half-applied script version and no orphaned PatchRecord."""
        outcome = run_scenario(
            "stored-xss", n_users=5, n_victims=2, seed=19, victim_upload=False
        )
        warp = outcome.warp
        # A non-admin undo of the attack-planting visit changes the
        # log-less victims' responses -> conflicts for *other* clients ->
        # the §5.5 guard aborts the batch.
        attacker_client = outcome.deployment.client_id("attacker")
        plant_visit = max(
            visit.visit_id
            for visit in warp.graph.client_visits(attacker_client)
            if "special_block.php" in visit.url
        )
        spec_info = patch_for("stored-xss")
        version_before = warp.scripts.version(spec_info.file)
        patches_before = len(warp.graph.patches)
        result = warp.repair.submit(
            RepairBatch(
                specs=[
                    PatchSpec(file=spec_info.file, exports=spec_info.build()),
                    CancelVisitSpec(
                        client_id=attacker_client,
                        visit_id=plant_visit,
                        initiated_by_admin=False,
                    ),
                ]
            )
        ).result()
        assert result.aborted and not result.ok
        assert result.conflicts
        assert warp.scripts.version(spec_info.file) == version_before
        assert len(warp.graph.patches) == patches_before
        # The rollback is complete: a later admin repair starts from a
        # clean slate (no stale version, no orphaned record) and works.
        redo = warp.repair.submit(
            PatchSpec(spec_info.file, exports=spec_info.build())
        ).result()
        assert redo.ok
        assert warp.scripts.version(spec_info.file) == version_before + 1
        assert len(warp.graph.patches) == patches_before + 1

    def test_failed_batch_reverts_staged_patch(self):
        """A raising (broken) patch is popped again on unwind: current
        traffic keeps the last good code, no PatchRecord is journaled."""
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=17)
        warp = outcome.warp
        version_before = warp.scripts.version("special_block.php")
        patches_before = len(warp.graph.patches)

        def broken(ctx):
            raise RuntimeError("boom")

        job = warp.repair.submit(
            PatchSpec(file="special_block.php", exports={"handle": broken})
        )
        with pytest.raises(RuntimeError, match="boom"):
            job.result()
        assert warp.scripts.version("special_block.php") == version_before
        assert len(warp.graph.patches) == patches_before

    def test_failed_batch_unwinds_cleanly(self):
        """A raising script inside a batch aborts the generation and a
        retry with fixed code works (mirrors the single-spec contract)."""
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=17)
        warp = outcome.warp

        def broken(ctx):
            raise RuntimeError("boom")

        job = warp.repair.submit(
            RepairBatch(
                specs=[PatchSpec(file="special_block.php", exports={"handle": broken})]
            )
        )
        with pytest.raises(RuntimeError, match="boom"):
            job.result()
        assert job.status == "failed"
        assert warp.ttdb.repair_gen is None
        assert not warp.server.repair_active
        # Retry with the real patch succeeds.
        spec_info = patch_for("stored-xss")
        assert warp.repair.submit(
            PatchSpec(spec_info.file, exports=spec_info.build())
        ).result().ok


# ---------------------------------------------------------------------------
# job lifecycle
# ---------------------------------------------------------------------------


class TestRepairJobs:
    def test_submit_result_raises_when_recording_disabled(self):
        """The job's failure reaches the blocking caller."""
        warp = WarpSystem(enabled=False)
        with pytest.raises(RepairError):
            warp.repair.submit(
                PatchSpec("x.php", exports={"handle": lambda ctx: None})
            ).result()

    def test_job_lifecycle_and_events(self):
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=2)
        spec_info = patch_for("stored-xss")
        seen = []
        job = outcome.warp.repair.submit(
            PatchSpec(file=spec_info.file, exports=spec_info.build())
        )
        job.subscribe(lambda event, payload: seen.append(event))
        result = job.result(timeout=30)
        assert result.ok
        assert job.status == "done"
        assert job.finished
        events = [event for event, _ in job.events]
        assert "finalized" in events
        assert ("phase_started") in events
        phases = [
            payload["phase"]
            for event, payload in job.events
            if event == "phase_started"
        ]
        assert phases == ["init", "process", "finalize"]
        assert "groups_planned" in events
        progress = job.progress()
        assert progress["status"] == "done"
        assert progress["runs_reexecuted"] == result.stats.runs_reexecuted
        # to_dict is JSON-clean.
        assert json.dumps(job.to_dict())

    def test_group_done_fires_exactly_once_per_group(self):
        """Progress contract: one group_done per scoped component."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=5
        )
        from repro.apps.wiki.pages import make_edit

        # Re-registering edit.php unchanged exercises one group per tenant.
        job = outcome.warp.repair.submit(
            PatchSpec(file="edit.php", exports=make_edit())
        )
        result = job.result(timeout=30)
        assert result.ok and result.stats.n_groups == 3
        done_groups = [
            payload["group"]
            for event, payload in job.events
            if event == "group_done"
        ]
        assert sorted(done_groups) == [1, 2, 3]
        assert job.progress()["groups_done"] == 3

    def test_progress_restarts_with_a_retried_attempt(self):
        """A transient fault after the worklist drained (the finalize phase
        boundary) makes the manager re-run the spec on a fresh controller:
        progress must describe the attempt that finished, not the sum of
        both (it used to report groups_done 6 of n_groups 3)."""
        from repro.apps.wiki.pages import make_edit
        from repro.faults.plane import FaultPlane

        plane = FaultPlane()
        outcome = run_multi_tenant_scenario(
            n_tenants=3,
            users_per_tenant=2,
            attacked_tenants=1,
            seed=12,
            fault_plane=plane,
        )
        plane.arm(point="repair.phase_started", kind="error", after=2, times=1)
        job = outcome.warp.repair.submit(
            PatchSpec(file="edit.php", exports=make_edit())
        )
        assert job.result(timeout=30).ok
        assert job.status == "done"
        assert [event for event, _ in job.events].count("retrying") == 1
        progress = job.progress()
        assert progress["groups_done"] == progress["n_groups"] == 3

    def test_conflict_found_event(self):
        """A repair that queues a conflict emits conflict_found."""
        outcome = run_scenario(
            "stored-xss", n_users=4, n_victims=1, seed=2, victim_upload=False
        )
        spec_info = patch_for("stored-xss")
        job = outcome.warp.repair.submit(
            PatchSpec(file=spec_info.file, exports=spec_info.build())
        )
        result = job.result(timeout=30)
        assert result.conflicts  # no browser log -> conflict
        conflict_events = [
            payload for event, payload in job.events if event == "conflict_found"
        ]
        assert conflict_events
        assert conflict_events[0]["client_id"]
        assert conflict_events[0]["reason"]

    def test_cancel_running_job_aborts_and_retry_works(self):
        outcome = run_scenario("stored-xss", n_users=5, n_victims=2, seed=4)
        warp = outcome.warp
        spec_info = patch_for("stored-xss")
        job = warp.repair.submit(
            PatchSpec(file=spec_info.file, exports=spec_info.build())
        )

        def on_event(event, payload):
            if event == "groups_planned":
                job.cancel()

        job.subscribe(on_event)
        # Subscribe may race the worker past planning; a late cancel can
        # still land before the worklist drains or after it finished.
        job.wait(30)
        if job.status == "canceled":
            with pytest.raises(RepairCanceled):
                job.result()
            assert warp.ttdb.repair_gen is None
            assert warp.ttdb.current_gen == 0  # generation discarded
            assert not warp.server.repair_active
            # The attack is still there; a fresh repair succeeds.
            result = warp.repair.submit(
                PatchSpec(spec_info.file, exports=spec_info.build())
            ).result()
            assert result.ok
            assert warp.ttdb.current_gen == 1
        else:
            # The job outran the cancel: it must have completed normally.
            assert job.status == "done"

    def test_cancel_queued_job(self, monkeypatch):
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=6)
        warp = outcome.warp
        spec_info = patch_for("stored-xss")
        started = threading.Event()
        release = threading.Event()
        original = RepairJobManager._execute

        def slow(self, job):
            started.set()
            assert release.wait(30)
            return original(self, job)

        monkeypatch.setattr(RepairJobManager, "_execute", slow)
        first = warp.repair.submit(
            PatchSpec(file=spec_info.file, exports=spec_info.build())
        )
        assert started.wait(30)
        second = warp.repair.submit(CancelClientSpec("nobody-browser"))
        assert second.status == "queued"
        assert second.cancel()
        assert second.status == "canceled"
        with pytest.raises(RepairCanceled):
            second.result(timeout=5)
        release.set()
        assert first.result(timeout=30).ok
        # The canceled job never executed: no job_start journaled for it.
        assert second.job_id not in warp.graph.repair_jobs.entries

    def test_jobs_run_fifo(self, monkeypatch):
        """Two quick jobs submitted back-to-back execute in order."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=1, attacked_tenants=2, seed=5
        )
        warp = outcome.warp
        attacker = outcome.attacker_client
        order = []
        original = RepairJobManager._execute

        def tracking(self, job):
            order.append(job.job_id)
            return original(self, job)

        monkeypatch.setattr(RepairJobManager, "_execute", tracking)
        defacements = [
            visit.visit_id
            for visit in warp.graph.client_visits(attacker)
            if "edit.php" in visit.url and visit.parent_visit is None
        ]
        jobs = [
            warp.repair.submit(
                CancelVisitSpec(client_id=attacker, visit_id=visit_id)
            )
            for visit_id in defacements
        ]
        for job in jobs:
            assert job.result(timeout=30).ok
        assert order == [job.job_id for job in jobs]
        assert warp.repair.jobs() == jobs

    def test_cancel_finished_job_returns_false(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=3)
        job = outcome.warp.repair.submit(
            CancelClientSpec(outcome.attacker_client)
        )
        job.result(timeout=30)
        assert not job.cancel()

    def test_unknown_patch_name_fails_fast(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=3)
        with pytest.raises(RepairError, match="unknown patch"):
            outcome.warp.repair.submit(
                PatchSpec(file="edit.php", patch_name="never-registered")
            )

    def test_registered_patch_resolves(self):
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=8)
        warp = outcome.warp
        spec_info = patch_for("stored-xss")
        warp.repair.register_patch("sxss", spec_info.file, spec_info.build())
        assert warp.repair.patch_names() == ["sxss"]
        job = warp.repair.submit(PatchSpec(file="", patch_name="sxss"))
        assert job.result(timeout=30).ok
        for victim in outcome.victims:
            assert "xss-attack-line" not in outcome.wiki.page_text(
                f"{victim}_notes"
            )


# ---------------------------------------------------------------------------
# jobs journal: interrupted jobs survive reload
# ---------------------------------------------------------------------------


class TestJobsJournal:
    def test_completed_job_leaves_no_pending_entry(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=4)
        warp = outcome.warp
        warp.repair.submit(CancelClientSpec(outcome.attacker_client)).result()
        assert warp.graph.repair_jobs.entries == {}
        assert warp.repair.interrupted_jobs() == []

    def test_interrupted_job_reported_after_reload(self, tmp_path, closing):
        """A job journaled as started but never ended (the process died
        mid-repair) is reported by the reloaded deployment."""
        wal_path = str(tmp_path / "records.wal")
        warp = closing(WarpSystem(wal_path=wal_path))
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_user("alice", "pw")
        alice = warp.client("alice-laptop")
        alice.open(f"{WIKI}/index.php?title=Main_Page")
        # Simulate the crash: the job start hits the WAL, the end never does.
        spec = CancelClientSpec("alice-laptop")
        warp.graph.repair_jobs.put(
            job_id="job-1", spec=spec.describe(), ts=warp.clock.now()
        )

        recovered = closing(WarpSystem.load(None, wal_path=wal_path))
        reports = recovered.repair.interrupted_jobs()
        assert [entry["job_id"] for entry in reports] == ["job-1"]
        assert reports[0]["spec"] == spec.describe()
        # New job ids never collide with the interrupted one.
        assert recovered.graph.repair_jobs.next_seq() == 2
        # Acknowledge clears the report durably.
        assert recovered.repair.acknowledge_interrupted("job-1")
        assert recovered.repair.interrupted_jobs() == []
        again = closing(WarpSystem.load(None, wal_path=wal_path))
        assert again.repair.interrupted_jobs() == []

    def test_job_ids_do_not_repeat_after_save_and_reload(self, tmp_path, closing):
        """A snapshot keeps only open jobs, so ids come from the ``job``
        counter its header carries (and from the jobs the WAL replays): a
        finished ``job-1`` is not handed out again, and an incident saved
        as repairing under it does not resolve when a later, unrelated
        job finishes."""
        wal_path = str(tmp_path / "records.wal")
        path = str(tmp_path / "snapshot.json")
        warp = closing(WikiDeployment(n_users=2, seed=1, wal_path=wal_path).warp)
        first = warp.repair.submit(CancelClientSpec("nobody"))
        first.result()
        assert first.job_id == "job-1"
        warp.enable_detection()
        warp.graph.incidents.put(
            incident_id="inc-1", ts=warp.clock.now(), status="repairing", job_id="job-1"
        )
        warp.save(path)

        reloaded = closing(WarpSystem.load(path, wal_path=wal_path))
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        second = reloaded.repair.submit(CancelClientSpec("nobody"))
        second.result()
        assert second.job_id == "job-2"
        incident = reloaded.server.handle(
            HttpRequest("GET", "/warp/admin/incidents/inc-1")
        )
        assert json.loads(incident.body)["status"] == "repairing"
        # job-2 finished after the snapshot: only the WAL knows it.
        again = closing(WarpSystem.load(path, wal_path=wal_path))
        WikiApp(again.ttdb, again.scripts, again.server).register_code()
        third = again.repair.submit(CancelClientSpec("nobody"))
        third.result()
        assert third.job_id == "job-3"

    def test_interrupted_job_survives_snapshot_round_trip(self, tmp_path):
        warp = WarpSystem()
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        warp.graph.repair_jobs.put(job_id="job-3", spec={"kind": "batch"}, ts=7)
        path = str(tmp_path / "warp.json")
        warp.save(path)
        reloaded = WarpSystem.load(path)
        assert [e["job_id"] for e in reloaded.repair.interrupted_jobs()] == ["job-3"]


# ---------------------------------------------------------------------------
# the admin HTTP surface
# ---------------------------------------------------------------------------


def _admin(warp, method, path, token=None, **params):
    headers = {}
    if token is not None:
        headers["X-Warp-Admin-Token"] = token
    return warp.server.handle(
        HttpRequest(method, path, params=params, headers=headers)
    )


def _wait_terminal(warp, job_id, token=None, tries=500):
    import time

    for _ in range(tries):
        doc = json.loads(
            _admin(warp, "GET", f"/warp/admin/repair/{job_id}", token=token).body
        )
        if doc["status"] in ("done", "failed", "aborted", "canceled"):
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never settled")


class TestAdminHttpSurface:
    def test_full_repair_over_http(self):
        """Acceptance: an end-to-end repair driven purely over the
        /warp/admin/repair endpoints."""
        outcome = run_scenario("stored-xss", n_users=5, n_victims=2, seed=7)
        warp = outcome.warp
        spec_info = patch_for("stored-xss")
        warp.repair.register_patch("sxss", spec_info.file, spec_info.build())
        spec_json = json.dumps(
            {"kind": "patch", "file": spec_info.file, "patch_name": "sxss"}
        )

        # Preview first (what-if), then submit, then poll to completion.
        preview = _admin(warp, "POST", "/warp/admin/repair/preview", spec=spec_json)
        assert preview.status == 200
        plan = json.loads(preview.body)
        assert plan["kind"] == "patch" and plan["seed_runs"] > 0

        submitted = _admin(warp, "POST", "/warp/admin/repair", spec=spec_json)
        assert submitted.status == 202
        job_id = json.loads(submitted.body)["job_id"]

        doc = _wait_terminal(warp, job_id)
        assert doc["status"] == "done"
        assert doc["result"]["ok"]
        assert doc["result"]["stats"]["runs_reexecuted"] > 0
        assert any(e["event"] == "finalized" for e in doc["events"])

        listing = json.loads(_admin(warp, "GET", "/warp/admin/repair").body)
        assert {"job_id": job_id, "status": "done"} in listing["jobs"]

        for victim in outcome.victims:
            assert "xss-attack-line" not in outcome.wiki.page_text(
                f"{victim}_notes"
            )

    def test_job_preview_endpoint(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=2)
        warp = outcome.warp
        spec_json = json.dumps(
            {"kind": "cancel_client", "client_id": outcome.attacker_client}
        )
        job_id = json.loads(
            _admin(warp, "POST", "/warp/admin/repair", spec=spec_json).body
        )["job_id"]
        _wait_terminal(warp, job_id)
        plan = json.loads(
            _admin(warp, "GET", f"/warp/admin/repair/{job_id}/preview").body
        )
        assert plan["kind"] == "cancel_client"

    def test_conflicts_endpoint(self):
        outcome = run_scenario(
            "stored-xss", n_users=4, n_victims=1, seed=2, victim_upload=False
        )
        result = outcome.repair()
        assert result.conflicts
        listing = json.loads(_admin(outcome.warp, "GET", "/warp/admin/conflicts").body)
        assert len(listing["pending"]) == len(result.conflicts)
        assert listing["pending"][0]["client_id"] == result.conflicts[0].client_id

    def test_cancel_endpoint(self):
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=5)
        warp = outcome.warp
        spec_json = json.dumps(
            {"kind": "cancel_client", "client_id": outcome.attacker_client}
        )
        job_id = json.loads(
            _admin(warp, "POST", "/warp/admin/repair", spec=spec_json).body
        )["job_id"]
        response = _admin(warp, "POST", f"/warp/admin/repair/{job_id}/cancel")
        assert response.status == 200
        doc = _wait_terminal(warp, job_id)
        assert doc["status"] in ("canceled", "done")

    def test_error_paths(self):
        warp = WarpSystem()
        assert _admin(warp, "GET", "/warp/admin/nope").status == 404
        assert _admin(warp, "GET", "/warp/admin/repair/job-99").status == 404
        assert _admin(warp, "POST", "/warp/admin/repair").status == 400  # no spec
        assert (
            _admin(warp, "POST", "/warp/admin/repair", spec="{not json").status == 400
        )
        assert (
            _admin(
                warp, "POST", "/warp/admin/repair", spec='{"kind": "nope"}'
            ).status
            == 400
        )
        assert _admin(warp, "PUT", "/warp/admin/repair").status == 405
        assert _admin(warp, "POST", "/warp/admin/conflicts").status == 405
        job = warp.repair.submit(CancelClientSpec("nobody-browser"))
        job.wait(timeout=30)
        preview = f"/warp/admin/repair/{job.job_id}/preview"
        assert _admin(warp, "POST", preview).status == 405
        # Admin paths are control plane: not recorded as runs.
        assert warp.graph.n_runs == 0

    def test_admin_token_enforced(self):
        warp = WarpSystem(admin_token="s3cret")
        assert _admin(warp, "GET", "/warp/admin/repair").status == 403
        assert _admin(warp, "GET", "/warp/admin/repair", token="wrong").status == 403
        assert _admin(warp, "GET", "/warp/admin/repair", token="s3cret").status == 200

    def test_admin_token_survives_reload(self, tmp_path):
        """Regression: a token-protected admin surface must not silently
        reopen after save/load."""
        warp = WarpSystem(admin_token="s3cret")
        WikiApp(warp.ttdb, warp.scripts, warp.server).install()
        path = str(tmp_path / "warp.json")
        warp.save(path)
        reloaded = WarpSystem.load(path)
        assert _admin(reloaded, "GET", "/warp/admin/repair").status == 403
        assert (
            _admin(reloaded, "GET", "/warp/admin/repair", token="s3cret").status
            == 200
        )

    def test_admin_surface_reports_bad_statements_as_400(self):
        """Regression: a StorageError from a bogus fix statement must come
        back as a JSON 400, not crash the serving thread."""
        outcome = run_multi_tenant_scenario(n_tenants=2, users_per_tenant=1, seed=1)
        bad = json.dumps(
            {"kind": "db_fix", "sql": "UPDATE nosuch SET x = 1 WHERE id = 1", "ts": 5}
        )
        response = _admin(outcome.warp, "POST", "/warp/admin/repair/preview", spec=bad)
        assert response.status == 400
        assert "nosuch" in json.loads(response.body)["error"]

    def test_admin_status_served_during_repair(self):
        """The control plane stays reachable while a repair runs (the
        whole point of the async redesign)."""
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1, seed=9)
        warp = outcome.warp
        statuses = []

        def poll():
            statuses.append(_admin(warp, "GET", "/warp/admin/repair").status)

        controller = warp._controller()
        controller.step_hook = poll
        spec_info = patch_for("stored-xss")
        result = controller.repair_batch(
            [PatchSpec(spec_info.file, exports=spec_info.build())]
        )
        assert result.ok
        assert statuses and all(status == 200 for status in statuses)


# ---------------------------------------------------------------------------
# satellite: repair configuration survives save/load
# ---------------------------------------------------------------------------


class TestRepairConfigPersistence:
    def test_gate_survives_reload_and_still_gates(self, tmp_path):
        """Regression (ISSUE 5 satellite): save with the online gate
        enabled -> load -> repair still gates."""
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=1, attacked_tenants=1, seed=3
        )
        warp = outcome.warp
        warp.enable_online_repair()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        assert reloaded.server.gate is not None
        # And a repair actually gates: gate counters appear in the stats.
        result = reloaded.repair.submit(
            CancelClientSpec(outcome.attacker_client)
        ).result()
        assert result.ok
        assert result.stats.gate  # populated only when a gate is installed

    def test_default_config_round_trips(self, tmp_path):
        warp = WarpSystem()
        WikiApp(warp.ttdb, warp.scripts, warp.server).install()
        path = str(tmp_path / "warp.json")
        warp.save(path)
        reloaded = WarpSystem.load(path)
        assert reloaded.server.gate is None


# ---------------------------------------------------------------------------
# satellite: drain-timeout 503s are self-describing
# ---------------------------------------------------------------------------


class TestSuspend503:
    def test_switch_window_503_is_transient_with_retry_after(self):
        warp = WarpSystem()
        WikiApp(warp.ttdb, warp.scripts, warp.server).install()
        warp.server.suspended = True
        response = warp.server.handle(HttpRequest("GET", "/index.php"))
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert response.headers["X-Warp-Suspended"] == "switch"
        assert "generation switch window" in response.body

    def test_wedged_switch_503_is_distinguishable(self):
        warp = WarpSystem()
        WikiApp(warp.ttdb, warp.scripts, warp.server).install()
        warp.enable_online_repair()
        warp.server.suspended = True  # and never cleared: wedged
        warp.server.switch_wait_seconds = 0.05
        response = warp.server.handle(HttpRequest("GET", "/index.php"))
        assert response.status == 503
        assert response.headers["X-Warp-Suspended"] == "wedged"
        assert int(response.headers["Retry-After"]) > 1
        assert "wedged" in response.body


# ---------------------------------------------------------------------------
# satellite (ISSUE 9): malformed specs answer a structured 400, never a 500
# ---------------------------------------------------------------------------


class TestSpecParseHardening:
    """Every malformed spec posted to /warp/admin/repair must come back
    as a JSON 400 — a 500 means an exception class escaped parse_spec."""

    BAD_SPECS = [
        "[1, 2, 3]",  # non-dict: array
        "42",  # non-dict: number
        "null",  # non-dict: null
        '"cancel_client"',  # non-dict: bare string
        '{"kind": "nope"}',  # unknown kind
        '{"kind": {"a": 1}}',  # unhashable kind (dict) — was a TypeError/500
        '{"kind": ["cancel_client"]}',  # unhashable kind (list)
        '{"kind": 7}',  # non-string kind
        "{}",  # missing kind
        '{"kind": "cancel_visit"}',  # missing required fields
        '{"kind": "cancel_visit", "client_id": "c1", "visit_id": "xyz"}',
        '{"kind": "cancel_client"}',  # missing client_id
        '{"kind": "db_fix"}',  # missing sql
        '{"kind": "db_fix", "sql": "UPDATE t SET x=1", "params": 9}',
        '{"kind": "patch"}',  # neither exports nor patch_name
        '{"kind": "batch"}',  # empty batch
        '{"kind": "batch", "specs": 5}',  # non-list members
        '{"kind": "batch", "specs": [{"kind": "nope"}]}',  # bad member
    ]

    @pytest.mark.parametrize("raw", BAD_SPECS)
    def test_submit_answers_400(self, raw):
        warp = WarpSystem()
        for path in ("/warp/admin/repair", "/warp/admin/repair/preview"):
            response = _admin(warp, "POST", path, spec=raw)
            assert response.status == 400, (path, raw, response.body)
            assert "error" in json.loads(response.body)
        # Control plane: nothing recorded, no job admitted.
        assert warp.graph.n_runs == 0
        assert warp.repair.jobs() == []

    def test_parse_spec_raises_repair_error_only(self):
        for raw in self.BAD_SPECS:
            with pytest.raises(RepairError):
                parse_spec(json.loads(raw))


# ---------------------------------------------------------------------------
# satellite (ISSUE 9): admin-token comparison is constant-time
# ---------------------------------------------------------------------------


class TestAdminTokenTiming:
    def test_wrong_token_and_missing_token_403(self):
        warp = WarpSystem(admin_token="s3cret")
        assert _admin(warp, "GET", "/warp/admin/repair").status == 403
        assert _admin(warp, "GET", "/warp/admin/repair", token="").status == 403
        assert _admin(warp, "GET", "/warp/admin/repair", token="s3cre").status == 403
        assert (
            _admin(warp, "GET", "/warp/admin/repair", token="s3cret-x").status == 403
        )
        assert _admin(warp, "GET", "/warp/admin/repair", token="s3cret").status == 200

    def test_comparison_is_constant_time_by_construction(self):
        """The token check must go through hmac.compare_digest — an
        early-exit ``!=`` leaks the matching prefix length per probe."""
        import inspect

        from repro.http.server import HttpServer

        source = inspect.getsource(HttpServer.handle)
        assert "compare_digest" in source
        assert "!= self.admin_token" not in source


# ---------------------------------------------------------------------------
# satellite (ISSUE 9): a plain Exception escaping after the generation
# switch must not mis-settle the job as failed (double-apply bait)
# ---------------------------------------------------------------------------


from repro.faults.plane import FaultPlane as _FaultPlane


class _PlainFailurePlane(_FaultPlane):
    """Raises a *plain* RuntimeError (not an InjectedFault) at one point:
    models a non-injected bug — a listener-adjacent data structure blowing
    up, a broken metrics hook — escaping the entry after the commit."""

    def __init__(self, point):
        super().__init__()
        self._point = point

    def fire(self, point, **context):
        if point == self._point:
            raise RuntimeError(f"plain failure at {point}")
        super().fire(point, **context)


class TestPostSwitchPlainFailure:
    def test_plain_exception_after_switch_settles_done(self):
        """Failing before the ISSUE 9 fix: the repair committed (generation
        switched) but a plain RuntimeError escaping afterwards settled the
        job as ``failed`` — inviting the admin to re-submit a spec whose
        retroactive effect would then apply twice.  The job must settle
        ``done`` with a post_commit_fault event, exactly like the injected/
        storage fault kinds already did."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=1, attacked_tenants=1, seed=11
        )
        warp = outcome.warp
        warp.faults = _PlainFailurePlane("repair.finalized")
        job = warp.repair.submit(
            CancelClientSpec(client_id=outcome.attacker_client)
        )
        job.wait(30)
        assert job.status == "done", repr(job.error)
        assert job.result().ok
        assert any(event == "post_commit_fault" for event, _ in job.events)
        # The repaired state really is live: the defacement is gone.
        for tenant in outcome.attacked:
            text = outcome.wiki.page_text(outcome.tenant_page(tenant)) or ""
            assert "DEFACED" not in text
        # And the journal shows a completed job, not an interrupted one.
        assert warp.repair.interrupted_jobs() == []

    def test_cancellation_still_wins_pre_switch(self):
        """The audit's other half: RepairCanceled is never swallowed into
        the post-switch settle — a cancel honored before the switch always
        lands the job in ``canceled``."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=1, attacked_tenants=1, seed=12
        )
        warp = outcome.warp
        job = warp.repair.submit(
            CancelClientSpec(client_id=outcome.attacker_client)
        )
        job.cancel()
        job.wait(30)
        assert job.status in ("canceled", "done")
        if job.status == "canceled":
            with pytest.raises(RepairCanceled):
                job.result()
