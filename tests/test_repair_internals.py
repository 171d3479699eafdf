"""Unit-level tests of repair machinery: two-phase write re-execution,
query undo, run cancellation, input-change detection, and the merge of
repaired runs back into the action history graph."""

import os

import pytest

from repro.apps.wiki import WikiApp
from repro.http.message import HttpRequest
from repro.store.wal import RecordWal
from repro.warp import WarpSystem

WIKI = "http://wiki.test"


@pytest.fixture
def warp():
    system = WarpSystem(origin=WIKI)
    wiki = WikiApp(system.ttdb, system.scripts, system.server)
    wiki.install()
    wiki.seed_user("alice", "pw")
    wiki.seed_page("P", "original", owner="alice")
    system._wiki = wiki
    return system


def server_request(warp, path, params, cookies=None, client=None, visit=1, req=1):
    headers = {}
    if client:
        headers = {
            "X-Warp-Client": client,
            "X-Warp-Visit": str(visit),
            "X-Warp-Request": str(req),
        }
    return warp.server.handle(
        HttpRequest("POST", path, params=params, cookies=cookies or {}, headers=headers)
    )


def login_session(warp, name):
    result = warp.ttdb.execute(
        "INSERT INTO sessions (sess_token, user_name) VALUES (?, ?)",
        (f"tok-{name}", name),
    )
    return f"tok-{name}"


class TestTwoPhaseReexecution:
    def test_reexec_write_restores_and_reapplies(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "P", "wpTextbox": "edited"},
            cookies={"sess": token},
        )
        run = warp.graph.runs_in_order()[-1]
        update = next(q for q in run.queries if q.kind == "update")

        controller = warp._controller()
        controller._begin()
        result = controller.reexec_statement(
            update.sql, update.params, update.ts, update
        )
        assert result.result.snapshot() == update.snapshot
        controller.ttdb.finalize_repair()
        assert warp._wiki.page_text("P") == "edited"

    def test_reexec_with_different_params_changes_row(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "P", "wpTextbox": "edited"},
            cookies={"sess": token},
        )
        run = warp.graph.runs_in_order()[-1]
        update = next(q for q in run.queries if q.kind == "update")
        controller = warp._controller()
        controller._begin()
        new_params = tuple(
            "merged text" if p == "edited" else p for p in update.params
        )
        controller.reexec_statement(update.sql, new_params, update.ts, update)
        controller.ttdb.finalize_repair()
        assert warp._wiki.page_text("P") == "merged text"

    def test_undo_query_rolls_back_written_rows(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "P", "wpTextbox": "vandalism"},
            cookies={"sess": token},
        )
        run = warp.graph.runs_in_order()[-1]
        update = next(q for q in run.queries if q.kind == "update")
        controller = warp._controller()
        controller._begin()
        controller.undo_query(update)
        controller.ttdb.finalize_repair()
        assert warp._wiki.page_text("P") == "original"

    def test_cancel_run_undoes_all_writes(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "NewPage", "wpTextbox": "created"},
            cookies={"sess": token},
        )
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        controller.cancel_run(run)
        assert not run.canceled  # recorded on commit
        controller._finalize()
        assert warp._wiki.page_text("NewPage") is None
        assert warp.graph.runs[run.run_id].canceled

    def test_cancel_run_is_idempotent(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "P", "wpTextbox": "x"},
            cookies={"sess": token},
        )
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        controller.cancel_run(run)
        controller.cancel_run(run)
        assert controller.stats.runs_canceled == 1
        controller.ttdb.abort_repair()


class TestInputsChanged:
    def test_unchanged_run(self, warp):
        server_request(warp, "/index.php", {"title": "P"})
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        assert not controller._inputs_changed(run)
        controller.ttdb.abort_repair()

    def test_patched_file_changes_inputs(self, warp):
        server_request(warp, "/index.php", {"title": "P"})
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        warp.scripts.patch("index.php", {"handle": lambda ctx: None})
        assert controller._inputs_changed(run)
        controller.ttdb.abort_repair()

    def test_modified_read_partition_changes_inputs(self, warp):
        server_request(warp, "/index.php", {"title": "P"})
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        first_query_ts = run.queries[0].ts
        controller.mods.record(
            "pagecontent", {("pagecontent", "title", "P")}, ts=first_query_ts
        )
        assert controller._inputs_changed(run)
        controller.ttdb.abort_repair()

    def test_unrelated_partition_does_not_change_inputs(self, warp):
        server_request(warp, "/index.php", {"title": "P"})
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        controller.mods.record(
            "pagecontent", {("pagecontent", "title", "Unrelated")}, ts=1
        )
        # The view also runs an ALL-partition sitestats query, so table
        # modifications do affect it; restrict the check to a table the
        # run never touches.
        controller.mods.record("blocks", {("blocks", "ip", "9.9.9.9")}, ts=1)
        changed = controller._inputs_changed(run)
        assert changed  # because of the ALL-reader sitestats query
        controller.ttdb.abort_repair()


class TestGraphMerge:
    def test_replacement_preserves_run_identity(self, warp):
        token = login_session(warp, "alice")
        server_request(
            warp, "/edit.php", {"title": "P", "wpTextbox": "v1"},
            cookies={"sess": token}, client="c1", visit=3, req=1,
        )
        run = warp.graph.runs_in_order()[-1]
        old_id = run.run_id
        old_ts = run.ts_start
        controller = warp._controller()
        controller._begin()
        controller._reexec_run(run, run.request, conflict_on_change=False)
        controller._finalize()
        merged = warp.graph.runs[old_id]
        assert merged.run_id == old_id
        assert merged.ts_start == old_ts
        assert merged.client_id == "c1"
        assert warp.graph.run_for_request("c1", 3, 1).run_id == old_id

    def test_merge_is_one_journal_wait(self, tmp_path, monkeypatch):
        """Under group durability a repair folds its re-executed runs back
        as one batch: their ``replace_run`` lines share one fsync."""
        wal_path = str(tmp_path / "records.wal")
        system = WarpSystem(origin=WIKI, wal_path=wal_path, durability="group")
        try:
            wiki = WikiApp(system.ttdb, system.scripts, system.server)
            wiki.install()
            wiki.seed_user("alice", "pw")
            wiki.seed_page("P", "original", owner="alice")
            token = login_session(system, "alice")
            for n in range(5):
                server_request(
                    system, "/edit.php", {"title": "P", "wpTextbox": f"v{n}"},
                    cookies={"sess": token},
                )
            runs = system.graph.runs_in_order()[-5:]
            controller = system._controller()
            controller._begin()
            for run in runs:
                controller._reexec_run(run, run.request, conflict_on_change=False)
            fsyncs = []
            fsync = os.fsync
            monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or fsync(fd))
            controller._finalize()
            monkeypatch.undo()
        finally:
            system.close()
        kinds = [kind for kind, _ in RecordWal.entries(wal_path)]
        assert kinds.count("replace_run") == len(runs)
        assert len(fsyncs) == 1

    def test_repair_stats_counts(self, warp):
        server_request(warp, "/index.php", {"title": "P"})
        run = warp.graph.runs_in_order()[-1]
        controller = warp._controller()
        controller._begin()
        controller._reexec_run(run, run.request, conflict_on_change=False)
        assert controller.stats.runs_reexecuted == 1
        assert controller.stats.queries_reexecuted == len(run.queries)
        controller.ttdb.abort_repair()


class TestReplayChain:
    def test_chain_climbs_through_event_parents(self, warp):
        browser = warp.client("chain-client")
        browser.open(f"{WIKI}/login.php")
        browser.type_into("input[name=wpName]", "alice")
        browser.type_into("input[name=wpPassword]", "pw")
        post_visit = browser.submit("#loginform")
        post_run = warp.graph.run_for_request("chain-client", post_visit.visit_id, 1)
        controller = warp._controller()
        visit_record = warp.graph.visit_of_run(post_run)
        chain = controller._replay_chain(visit_record)
        # topmost first: the login form visit, then the POST result visit.
        assert [v.visit_id for v in chain] == [
            post_visit.parent_visit,
            post_visit.visit_id,
        ]

    def test_chain_stops_at_parent_without_events(self, warp):
        browser = warp.client("chain2")
        first = browser.open(f"{WIKI}/index.php?title=P")
        second = browser.click("#editlink")
        controller = warp._controller()
        record = warp.graph.visits[("chain2", second.visit_id)]
        chain = controller._replay_chain(record)
        # The view visit has a click event, so it is included.
        assert chain[0].visit_id == first.visit_id
