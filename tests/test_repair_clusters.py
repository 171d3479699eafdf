"""Dependency-clustered repair groups and the repair-scoped conflict
lifecycle.

Covers the three bugfixes of this change (each was observable on main):

* a *stale* conflict queued by an earlier repair for a user who has not
  logged in yet must neither abort a later unrelated user undo nor be
  silently resolved by that undo's abort;
* an aborted user undo must report the conflicts that caused the abort
  (``result.conflicts`` / ``stats.conflicts``), not an empty list;
* a script that raises mid-repair must not leave its run permanently
  "done" over a half-mutated generation, and a queued cookie
  invalidation must survive a script error during normal serving;

plus the clustering machinery itself: component discovery over the
partition-touch index, group-scoped repair on the multi-tenant workload,
and the equivalence property — clustered repair is observably identical
to the monolithic reference worklist.
"""

import random
import time

import pytest

from repro.apps.wiki import WikiApp
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec, CancelVisitSpec, DbFixSpec, PatchSpec
from repro.repair.clusters import (
    GROUP_COUNTER_FIELDS,
    ClusteringFutile,
    compute_repair_groups,
)
from repro.store import recordstore
from repro.warp import WarpSystem
from repro.workload.loadgen import make_load_clients
from repro.workload.scenarios import (
    WIKI,
    WikiDeployment,
    run_multi_tenant_scenario,
    run_scenario,
)

# ---------------------------------------------------------------------------
# satellite 1: repair-scoped conflict lifecycle
# ---------------------------------------------------------------------------


def _entangle(deployment, user_a, user_b, page="Projects"):
    """user_a edits a shared page; user_b edits that content, so undoing
    user_a's visit conflicts with user_b's replay.  Returns a's visit."""
    deployment.edit_page(user_a, page, "CONTENT FROM A\nsecond line")
    visit_a = deployment.browser(user_a).current.parent_visit
    browser_b = deployment.browser(user_b)
    visit = browser_b.open(f"{WIKI}/edit.php?title={page}")
    current = visit.document.select("textarea").value
    browser_b.type_into(
        "textarea", current.replace("CONTENT FROM A", "CONTENT FROM A (better)")
    )
    browser_b.click("input[name=save]")
    return visit_a


@pytest.fixture
def deployment():
    d = WikiDeployment(n_users=4)
    for user in d.users:
        d.login(user)
    return d


class TestStaleConflictScoping:
    def test_stale_conflict_does_not_abort_unrelated_user_undo(self, deployment):
        """Repair 1 (admin) leaves a conflict pending for user1, who never
        logs in.  Repair 2 — user3 undoing their own isolated edit — used
        to abort because the abort check looked at *all* pending conflicts."""
        user_a, user_b, bystander = (
            deployment.users[0],
            deployment.users[1],
            deployment.users[3],
        )
        visit_a = _entangle(deployment, user_a, user_b)
        first = deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a)
        ).result()
        stale = deployment.warp.conflicts.pending(deployment.client_id(user_b))
        assert stale, "admin undo should have queued a conflict for user_b"

        deployment.append_to_page(bystander, f"{bystander}_notes", "\noops")
        form_visit = deployment.browser(bystander).current.parent_visit
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(bystander),
                form_visit,
                initiated_by_admin=False,
            )
        ).result()
        assert result.ok and not result.aborted
        assert "oops" not in deployment.wiki.page_text(f"{bystander}_notes")
        # The unrelated undo neither resolved nor counted the stale conflict.
        assert deployment.warp.conflicts.pending(deployment.client_id(user_b)) == stale
        assert result.stats.conflicts == 0
        assert result.conflicts == []

    def test_aborted_undo_keeps_stale_conflicts_pending(self, deployment):
        """An aborting user undo resolves only its *own* conflicts; a stale
        conflict for a user who has not logged in yet must survive."""
        user_a, user_b = deployment.users[0], deployment.users[1]
        user_c, user_d = deployment.users[2], deployment.users[3]
        visit_a = _entangle(deployment, user_a, user_b)
        deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a)
        ).result()
        stale = deployment.warp.conflicts.pending(deployment.client_id(user_b))
        assert stale

        visit_c = _entangle(deployment, user_c, user_d, page="Standup")
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user_c),
                visit_c,
                initiated_by_admin=False,
            )
        ).result()
        assert result.aborted
        # The stale conflict is untouched; the aborted repair's own conflict
        # was resolved (it never happened).
        assert deployment.warp.conflicts.pending(deployment.client_id(user_b)) == stale
        assert not deployment.warp.conflicts.pending(deployment.client_id(user_d))

    def test_stale_conflict_for_same_visit_does_not_mask_new_one(self, deployment):
        """A stale conflict from an earlier repair for the same (client,
        visit) must not swallow a genuinely new conflict: the new one has
        to drive this repair's abort check and result."""
        from repro.repair.conflicts import Conflict

        user_a, user_b = deployment.users[0], deployment.users[1]
        visit_a = _entangle(deployment, user_a, user_b)
        # B's conflicting visit will be the edit form whose input replays.
        visit_b = deployment.browser(user_b).current.parent_visit
        # An earlier repair (e.g. before a restart) left a conflict pending
        # for exactly that (client, visit); B never logged in to resolve it.
        stale = Conflict(
            client_id=deployment.client_id(user_b),
            visit_id=visit_b,
            url="/edit.php",
            reason="left by an earlier repair",
        )
        deployment.warp.conflicts.add(stale)
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user_a),
                visit_a,
                initiated_by_admin=False,
            )
        ).result()
        assert result.aborted, "the new conflict must abort the user undo"
        assert result.conflicts and all(c is not stale for c in result.conflicts)
        assert {c.client_id for c in result.conflicts} == {
            deployment.client_id(user_b)
        }
        # The stale conflict is still pending; this repair's own conflict
        # was resolved by the abort.
        assert deployment.warp.conflicts.pending(
            deployment.client_id(user_b)
        ) == [stale]

    def test_resolve_by_cancel_clears_all_conflicts_of_the_visit(self, deployment):
        """Canceling a conflicted visit moots every conflict queued against
        it, even when two repairs each reported one."""
        user_a, user_b = deployment.users[0], deployment.users[1]
        visit_a = _entangle(deployment, user_a, user_b)
        deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a)
        ).result()
        conflicts = deployment.warp.conflicts.pending(deployment.client_id(user_b))
        assert conflicts
        deployment.warp.resolve_conflict_by_cancel(conflicts[0])
        assert not deployment.warp.conflicts.pending(deployment.client_id(user_b))

    def test_aborted_undo_reports_its_conflicts(self, deployment):
        """``_result`` after an abort used to report the *post-resolution*
        pending set: zero conflicts for a repair that aborted because of
        them."""
        user_a, user_b = deployment.users[0], deployment.users[1]
        visit_a = _entangle(deployment, user_a, user_b)
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user_a),
                visit_a,
                initiated_by_admin=False,
            )
        ).result()
        assert result.aborted
        assert result.conflicts, "the conflicts that caused the abort must be reported"
        assert result.stats.conflicts == len(result.conflicts)
        assert {c.client_id for c in result.conflicts} == {
            deployment.client_id(user_b)
        }
        # ...but they are resolved in the queue: the repair never happened.
        assert not deployment.warp.conflicts.pending()


# ---------------------------------------------------------------------------
# satellite 2: a script that raises mid-repair
# ---------------------------------------------------------------------------


@pytest.fixture
def warp():
    system = WarpSystem(origin=WIKI)
    wiki = WikiApp(system.ttdb, system.scripts, system.server)
    wiki.install()
    wiki.seed_user("alice", "pw")
    wiki.seed_page("P", "original", owner="alice")
    system._wiki = wiki
    return system


def _edit_without_browser_log(warp, text):
    warp.ttdb.execute(
        "INSERT INTO sessions (sess_token, user_name) VALUES (?, ?)",
        ("tok-alice", "alice"),
    )
    return warp.server.handle(
        HttpRequest(
            "POST",
            "/edit.php",
            params={"title": "P", "wpTextbox": text},
            cookies={"sess": "tok-alice"},
        )
    )


class TestRaisingScriptMidRepair:
    def test_run_not_marked_done_and_abort_restores_state(self, warp):
        _edit_without_browser_log(warp, "edited")
        run = warp.graph.runs_in_order()[-1]

        def exploding(ctx):
            raise RuntimeError("boom mid-repair")

        controller = warp._controller()
        controller._begin()
        warp.scripts.patch("edit.php", {"handle": exploding})
        with pytest.raises(RuntimeError, match="boom mid-repair"):
            controller._reexec_run(run, run.request, conflict_on_change=False)
        # The run is not "done": a retry (or a fresh repair after abort)
        # would still re-execute it.
        assert controller._run_state.get(run.run_id) == "failed"
        # The failure surfaced as a conflict for the affected user.
        assert any(
            "raised during repair" in c.reason for c in controller._repair_conflicts()
        )
        # The phase-timer stack unwound cleanly.
        assert controller.stats.timer._stack == []
        # Abort restores the pre-repair world.
        controller.ttdb.abort_repair()
        assert warp._wiki.page_text("P") == "edited"

    def test_whole_repair_raises_and_is_abortable(self, warp):
        _edit_without_browser_log(warp, "edited")

        def exploding(ctx):
            raise RuntimeError("patched script is broken")

        with pytest.raises(RuntimeError, match="patched script is broken"):
            warp.repair.submit(
                PatchSpec("edit.php", exports={"handle": exploding})
            ).result()
        # The failed repair aborted its generation and unwound the server
        # flags: live state untouched, traffic served normally, and a
        # retry with fixed code simply works.
        assert not warp.server.repair_active
        assert not warp.server.suspended
        assert warp.ttdb.repair_gen is None
        assert not warp.conflicts.pending()
        assert warp._wiki.page_text("P") == "edited"
        from repro.apps.wiki.pages import make_edit

        retry = warp.repair.submit(PatchSpec("edit.php", exports=make_edit())).result()
        assert retry.ok
        assert warp._wiki.page_text("P") == "edited"


# ---------------------------------------------------------------------------
# satellite 3: cookie invalidation survives a script error
# ---------------------------------------------------------------------------


class TestCookieInvalidationOnError:
    def test_queued_invalidation_survives_script_error(self, warp):
        def exploding(ctx):
            raise RuntimeError("script died")

        warp.scripts.register("broken.php", {"handle": exploding})
        warp.server.route("/broken.php", "broken.php")
        warp.server.cookie_invalidation.add("c1")
        request = HttpRequest(
            "GET",
            "/broken.php",
            cookies={"sess": "stale-token"},
            headers={"X-Warp-Client": "c1", "X-Warp-Visit": "1", "X-Warp-Request": "1"},
        )
        with pytest.raises(RuntimeError, match="script died"):
            warp.server.handle(request)
        # The queued invalidation was not consumed by the failed request.
        assert "c1" in warp.server.cookie_invalidation
        # ...nor by a request that never reaches a script at all.
        response = warp.server.handle(
            HttpRequest("GET", "/no-such-route", cookies={"sess": "stale-token"},
                        headers={"X-Warp-Client": "c1"})
        )
        assert response.status == 404
        assert "c1" in warp.server.cookie_invalidation
        # A successful later request does consume it.
        warp.server.handle(
            HttpRequest(
                "GET",
                "/index.php",
                params={"title": "P"},
                cookies={"sess": "stale-token"},
                headers={
                    "X-Warp-Client": "c1",
                    "X-Warp-Visit": "2",
                    "X-Warp-Request": "1",
                },
            )
        )
        assert "c1" not in warp.server.cookie_invalidation


# ---------------------------------------------------------------------------
# clustering: component discovery and group-scoped repair
# ---------------------------------------------------------------------------


class TestComponentDiscovery:
    def test_tenants_form_independent_components(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=5
        )
        graph = outcome.warp.graph
        seeds = [run.run_id for run in graph.runs_in_order()]
        groups = compute_repair_groups(graph, run_seeds=seeds)
        # One component per tenant; the attacker joins the attacked tenant.
        assert len(groups) == outcome.n_tenants
        clients_by_group = [group.clients for group in groups]
        attacked_page_clients = {
            f"{user}-browser" for user in outcome.tenant_users[0]
        } | {outcome.attacker_client}
        assert attacked_page_clients in clients_by_group
        # Groups partition the runs: no run in two components.
        all_runs = [rid for group in groups for rid in group.run_ids]
        assert len(all_runs) == len(set(all_runs))

    def test_readers_do_not_merge_through_shared_reads(self):
        """Two tenants whose runs read the same never-written partition
        (e.g. the i18n language row, the acl '*' principal) stay separate."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=1, attacked_tenants=1, seed=6
        )
        graph = outcome.warp.graph
        t0 = graph.client_runs(f"{outcome.tenant_users[0][0]}-browser")
        t1 = graph.client_runs(f"{outcome.tenant_users[1][0]}-browser")
        groups = compute_repair_groups(
            graph, run_seeds=[t0[0].run_id, t1[0].run_id]
        )
        assert len(groups) == 2

    def test_all_reader_merges_with_table_writers(self):
        """A run whose read set is ALL (index.php's sitestats COUNT) is
        soundly pulled into the component of any pagecontent writer."""
        deployment = WikiDeployment(n_users=2)
        user_a, user_b = deployment.users
        deployment.login(user_a)
        deployment.login(user_b)
        deployment.append_to_page(user_a, f"{user_a}_notes", "\nmine")
        deployment.read_page(user_b, "Main_Page")  # ALL-read of pagecontent
        graph = deployment.warp.graph
        seed = graph.client_runs(deployment.client_id(user_a))[-1].run_id
        groups = compute_repair_groups(graph, run_seeds=[seed])
        assert len(groups) == 1
        assert deployment.client_id(user_b) in groups[0].clients

    def test_futility_bailout_when_component_spans_workload(self):
        """When the damage component is about to swallow the workload
        (everyone ALL-reads pagecontent through index.php), discovery bails
        out in O(frontier) instead of walking everything."""
        deployment = WikiDeployment(n_users=3)
        for user in deployment.users:
            deployment.login(user)
            deployment.read_page(user, "Main_Page")  # ALL-read
            deployment.append_to_page(user, f"{user}_notes", "\nhi")
        graph = deployment.warp.graph
        seeds = [run.run_id for run in graph.runs_in_order()]
        with pytest.raises(ClusteringFutile):
            compute_repair_groups(graph, run_seeds=seeds, futility_limit=4)
        # Empty damage is a distinct, non-futile outcome.
        assert compute_repair_groups(graph, run_seeds=[]) == []

    def test_futile_clustering_falls_back_to_monolithic_repair(self):
        """A repair whose component spans the workload still heals fully
        through the global worklist (stats.n_groups stays 0)."""
        from repro.workload.scenarios import run_scenario

        outcome = run_scenario("stored-xss", n_users=6, n_victims=2)
        graph = outcome.warp.graph
        seeds = [run.run_id for run in graph.runs_in_order()]
        # The attack scenario's workload is one component (page views
        # ALL-read pagecontent): at the default limit floor this small
        # deployment clusters fine, but force Table-8 proportions.
        with pytest.raises(ClusteringFutile):
            compute_repair_groups(graph, run_seeds=seeds, futility_limit=6)
        result = outcome.repair()
        assert result.ok
        for victim in outcome.victims:
            assert "xss-attack-line" not in outcome.wiki.page_text(
                f"{victim}_notes"
            )

    def test_touch_index_survives_replace_and_gc(self, tmp_path):
        """The eager touch index stays consistent under replace_runs/gc:
        discovery from a fresh seed matches a rebuilt-from-scratch store."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=1, attacked_tenants=1, seed=7
        )
        warp = outcome.warp
        outcome.repair()  # merges replacements through replace_runs
        graph = warp.graph
        from persistence_fixtures import recover_store

        path = str(tmp_path / "warp.json")
        warp.save(path)
        rebuilt = recover_store(snapshot_path=path)
        for key, runs in graph.touch.key_writers.items():
            assert rebuilt.touch.key_writers.get(key) == runs, key
        for key, runs in rebuilt.touch.key_touchers.items():
            assert graph.touch.key_touchers.get(key) == runs, key
        assert graph.touch.table_writers == rebuilt.touch.table_writers
        assert graph.touch.table_all == rebuilt.touch.table_all


class TestGroupedRepairOnMultiTenant:
    def test_attack_repair_heals_only_attacked_tenant_state(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=4, users_per_tenant=2, attacked_tenants=2, seed=11
        )
        for tenant in outcome.attacked:
            assert "DEFACED" in outcome.wiki.page_text(outcome.tenant_page(tenant))
        result = outcome.repair()
        assert result.ok
        for tenant in range(outcome.n_tenants):
            text = outcome.wiki.page_text(outcome.tenant_page(tenant))
            assert "DEFACED" not in text
        for user, extra in outcome.legit_appends.items():
            tenant = int(user.split("_")[0][1:])
            assert extra in outcome.wiki.page_text(outcome.tenant_page(tenant))

    def test_patch_repair_forms_one_group_per_tenant(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=12
        )
        result = outcome.repair_by_patch()
        assert result.ok
        assert result.stats.n_groups == 3
        assert len(result.stats.groups) == 3
        folded = sum(row["runs_reexecuted"] for row in result.stats.groups)
        assert folded == result.stats.runs_reexecuted
        # Progress contract under interleaving: the groups' items share one
        # heap, and each group still reports done exactly once.
        job = outcome.warp.repair.jobs()[-1]
        done = [p["group"] for event, p in job.events if event == "group_done"]
        assert sorted(done) == [1, 2, 3]
        progress = job.progress()
        assert progress["groups_done"] == progress["n_groups"] == 3

    def test_escaped_modification_routes_to_home_group(self):
        """A modification outside the active group's static footprint is
        (a) recorded in the repair's one gating state and (b) its affected
        queries are queued in their *home* group's scope — never evaluated
        against a foreign group's index."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=1, attacked_tenants=1, seed=21
        )
        warp = outcome.warp
        controller = warp._controller()
        controller._begin()
        seeds = [run.run_id for run in warp.graph.runs_in_order()]
        groups = controller._plan_groups(run_seeds=seeds)
        assert len(groups) == 2
        g_a, g_b = groups
        foreign_page = outcome.tenant_page(1)
        foreign_key = ("pagecontent", "title", foreign_page)
        assert foreign_key not in g_a.covered_keys
        assert foreign_key in g_b.covered_keys
        controller._g = g_a
        controller._note_modification("pagecontent", {foreign_key}, ts=1)
        # Routed: every touched query is queued in B's scope, not A's.
        assert controller._heap
        for _, _, scope, _, payload in controller._heap:
            assert scope is g_b
            assert payload.run_id in g_b.run_ids
        # The gating state B's queries consult knows the modification.
        assert controller.mods.affects_keys("pagecontent", [foreign_key], ts=10)
        assert g_a.escaped_keys == 1
        controller.ttdb.abort_repair()

    def test_retroactive_db_fix_clusters_from_fix_partitions(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=1, attacked_tenants=1, seed=13
        )
        warp = outcome.warp
        page = outcome.tenant_page(0)
        # Fix "as of" the moment tenant 0's page was created.
        created = next(
            run
            for run in warp.graph.runs_in_order()
            if any(
                query.is_write
                and ("pagecontent", "title", page) in query.written_partitions
                for query in run.queries
            )
        )
        result = warp.repair.submit(
            DbFixSpec(
                "UPDATE pagecontent SET old_text = ? WHERE title = ?",
                ("rewritten from the past", page),
                ts=created.ts_end + 1,
            )
        ).result()
        assert result.ok
        assert result.stats.n_groups == 1
        # The fix statement runs in the component its symbolic keys seeded:
        # its work is on that group's row (no orphan row), and the fold-in
        # still reconciles.
        (row,) = result.stats.groups
        assert row["group"] == 1 and not row.get("orphan")
        assert row["queries_reexecuted"] == result.stats.queries_reexecuted >= 1
        for name in GROUP_COUNTER_FIELDS:
            folded = sum(row[name] for row in result.stats.groups)
            assert folded == getattr(result.stats, name), name
        assert "rewritten from the past" in outcome.wiki.page_text(page)
        # The untouched tenants' pages kept their full edit history.
        for tenant in (1, 2):
            assert "post-" in outcome.wiki.page_text(outcome.tenant_page(tenant))


class TestIndexCostFollowsDamage:
    """The store builds a partition bucket per key on its first lookup, so
    what a repair indexes follows the keys it reaches, not the history."""

    def test_inspected_queries_do_not_grow_with_unrelated_tenants(self):
        inspected = {}
        for n_tenants in (2, 16):
            outcome = run_multi_tenant_scenario(
                n_tenants=n_tenants, users_per_tenant=2, attacked_tenants=1, seed=1
            )
            store = outcome.warp.graph
            assert store.index_build_queries == 0
            assert outcome.repair().ok
            inspected[n_tenants] = store.index_build_queries
        assert inspected[2] > 0
        assert inspected[16] == inspected[2]

    def test_lookups_hand_over_each_bucket_entry_once(self, monkeypatch):
        """Undoing a defacement re-executes every later edit of the page; a
        key the repair rewrites k times must not have its bucket's tail
        walked k times, so the candidates grow with the history, not with
        its square."""
        handed = {}
        for n_pairs in (50, 100):
            deployment = WikiDeployment(n_users=0, seed=1)
            deployment.wiki.seed_page("News", "news", owner="admin")
            mallory, alice = make_load_clients(
                deployment.wiki, deployment.warp.server, ["mallory", "alice"]
            )
            edit = {"title": "News", "append": "\nDEFACED."}
            assert mallory.send(mallory.request("POST", "/edit.php", edit)).status == 200
            for i in range(n_pairs):
                edit = {"title": "News", "append": f"\nline {i}."}
                assert alice.send(alice.request("POST", "/edit.php", edit)).status == 200
                view = alice.request("GET", "/edit.php", {"title": "News"})
                assert alice.send(view).status == 200

            store = deployment.warp.graph
            lookup = store.queries_touching
            counts = []

            def spy_lookup(*args):
                candidates = lookup(*args)
                counts.append(len(candidates))
                return candidates

            monkeypatch.setattr(store, "queries_touching", spy_lookup)
            result = deployment.warp.repair.submit(CancelClientSpec("mallory-load")).result()
            assert result.ok
            stats = result.stats
            assert (stats.runs_reexecuted, stats.queries_reexecuted) == (2 * n_pairs, 14 * n_pairs)
            text = deployment.wiki.page_text("News")
            assert "DEFACED" not in text and f"line {n_pairs - 1}." in text
            handed[n_pairs] = sum(counts)
        assert handed[100] <= 2.2 * handed[50], handed

    def test_rebuild_after_invalidation_builds_only_reached_keys(self, monkeypatch):
        outcome = run_multi_tenant_scenario(
            n_tenants=4, users_per_tenant=2, attacked_tenants=1, seed=3
        )
        store = outcome.warp.graph
        assert outcome.repair().ok
        assert store._buckets == {}  # finalize dropped them

        reached = set()
        lookup = store.queries_touching

        def spy_lookup(table, keys, since_ts, whole_table=False, drained=None):
            keys = list(keys)
            reached.update([table] if whole_table else [*keys, (table,)])
            return lookup(table, keys, since_ts, whole_table, drained)

        built = []
        invalidate = store.invalidate_partition_indexes

        def spy_invalidate():
            built.append(set(store._buckets))
            invalidate()

        monkeypatch.setattr(store, "queries_touching", spy_lookup)
        monkeypatch.setattr(store, "invalidate_partition_indexes", spy_invalidate)
        victim = outcome.tenant_users[2][0]
        spec = CancelClientSpec(outcome.deployment.client_id(victim))
        assert outcome.warp.repair.submit(spec).result().ok
        assert built and built[0] == reached
        pages = {outcome.tenant_page(t) for t in range(outcome.n_tenants)}
        reached_pages = {name[2] for name in reached if len(name) == 3} & pages
        assert reached_pages == {outcome.tenant_page(2)}
        assert len(reached) < len(store.touch.key_touchers) // 2

    def test_breakdown_sums_to_total_when_the_index_builds_in_init(self, monkeypatch):
        """Canceling the attacker's client undoes its writes during init,
        so the first bucket builds run inside that phase; "graph" must not
        be counted in it a second time."""
        outcome = run_multi_tenant_scenario(
            n_tenants=2, users_per_tenant=2, attacked_tenants=1, seed=1
        )
        touches_key = recordstore.touches_key

        def slow_touches_key(query, key):
            time.sleep(0.001)
            return touches_key(query, key)

        monkeypatch.setattr(recordstore, "touches_key", slow_touches_key)
        breakdown = outcome.repair().stats.breakdown()
        total = breakdown.pop("total")
        assert breakdown["graph"] > 0.05
        assert all(seconds >= 0 for seconds in breakdown.values()), breakdown
        assert sum(breakdown.values()) == pytest.approx(total), breakdown


# ---------------------------------------------------------------------------
# property: clustered repair ≡ monolithic repair
# ---------------------------------------------------------------------------


def _stage(seed, rng_shape):
    return run_multi_tenant_scenario(
        n_tenants=rng_shape["tenants"],
        users_per_tenant=rng_shape["users"],
        attacked_tenants=rng_shape["attacked"],
        edits_per_user=rng_shape["edits"],
        seed=seed,
    )


def _run_repair(outcome, kind):
    # "patch" forces the patch repair; anything else is the scenario's own.
    result = outcome.repair_by_patch() if kind == "patch" else outcome.repair()
    # The raw snapshot, qids included: both modes pop the same items in the
    # same order, so re-execution allocates the same ids.
    state = {
        "db": outcome.warp.database.to_dict(),
        "graph": outcome.warp.graph.to_snapshot(),
        "counts": (
            result.stats.visits_reexecuted,
            result.stats.runs_reexecuted,
            result.stats.queries_reexecuted,
            result.stats.runs_canceled,
            result.stats.conflicts,
        ),
    }
    return result, state


@pytest.mark.parametrize("case", [*range(8), "csrf"])
def test_clustered_repair_identical_to_monolithic(case, futile_clustering, monkeypatch):
    if case == "csrf":
        # The escaping input: replayed victims write keys the original
        # timeline never wrote, and reach runs that are in no component.
        shape, kind = "csrf, 8 users, 3 victims", "scenario"
    else:
        rng = random.Random(case * 7919 + 13)
        shape = {
            "tenants": rng.randint(2, 4),
            "users": rng.randint(1, 2),
            "edits": rng.randint(1, 2),
        }
        shape["attacked"] = rng.randint(1, shape["tenants"])
        kind = rng.choice(["cancel", "patch"])

    results, states = {}, {}
    for mode in ("off", "sequential"):
        outcome = (
            run_scenario("csrf", n_users=8, n_victims=3)
            if case == "csrf"
            else _stage(case, shape)
        )
        results[mode], states[mode] = _run_repair(outcome, kind)
        # The reference arm ran with discovery forced futile (n_groups 0);
        # the second arm clusters for real.
        assert (results[mode].stats.n_groups == 0) == (mode == "off")
        monkeypatch.undo()

    stats = results["sequential"].stats
    assert stats.n_groups >= 1
    # The multi-tenant generator never writes outside a tenant's static
    # footprint (a statement about that generator, not the property).
    assert (stats.escaped_keys > 0) == (case == "csrf")
    # The per-group fold-in reconciles with or without escapes.
    for name in GROUP_COUNTER_FIELDS:
        assert sum(row[name] for row in stats.groups) == getattr(stats, name), name
    for part in ("counts", "db", "graph"):
        assert states["sequential"][part] == states["off"][part], (
            f"{kind} repair ({shape}): clustered {part} diverged from the "
            "monolithic reference"
        )
