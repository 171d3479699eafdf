"""Durability: a persisted WarpSystem keeps its repair capability.

The acceptance bar (ISSUE 1): a deployment saved to disk and reloaded in
a *fresh process* must run a retroactive patch and produce the same
``RepairStats`` counters as the original in-memory instance.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.apps.wiki.app import WikiApp
from repro.apps.wiki.common import make_common
from repro.repair.api import CancelClientSpec, CancelVisitSpec, PatchSpec
from repro.store.snapshot import read_snapshot_header
from repro.warp import WarpSystem

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

COUNTERS = (
    "visits_reexecuted",
    "runs_reexecuted",
    "runs_pruned",
    "runs_canceled",
    "queries_reexecuted",
    "nondet_misses",
    "conflicts",
    "total_visits",
    "total_runs",
    "total_queries",
)


def counters(result):
    return {name: getattr(result.stats, name) for name in COUNTERS}


def build_workload(wal_path=None):
    """A small wiki deployment with browsing, editing and login traffic."""
    warp = WarpSystem(wal_path=wal_path)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "alicepw")
    wiki.seed_user("bob", "bobpw", admin=True)
    wiki.seed_page("Home", "welcome", "bob", editors=["alice"])
    wiki.seed_page("News", "nothing yet", "bob")

    alice = warp.client("alice-laptop")
    alice.open("http://wiki.test/login.php")
    alice.type_into("input[name=wpName]", "alice")
    alice.type_into("input[name=wpPassword]", "alicepw")
    alice.submit("#loginform")
    alice.open("http://wiki.test/index.php?title=Home")
    alice.open("http://wiki.test/edit.php?title=Home")
    alice.type_into("textarea", "welcome, edited by alice")
    alice.submit("form")

    bob = warp.client("bob-desktop")
    bob.open("http://wiki.test/index.php?title=News")
    bob.open("http://wiki.test/index.php?title=Home")
    return warp, wiki


CHILD_SCRIPT = """
import json, sys
from repro.warp import WarpSystem
from repro.apps.wiki.app import WikiApp
from repro.apps.wiki.common import make_common
from repro.repair.api import PatchSpec

warp = WarpSystem.load(sys.argv[1])
wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
wiki.register_code()
result = warp.repair.submit(
    PatchSpec("common.php", exports=make_common(send_frame_options=True))
).result()
names = %r
print(json.dumps({name: getattr(result.stats, name) for name in names}))
""" % (COUNTERS,)


class TestWarpSystemPersistence:
    def test_reloaded_system_repairs_identically_in_fresh_process(self, tmp_path):
        warp, _ = build_workload()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        original = warp.repair.submit(
            PatchSpec("common.php", exports=make_common(send_frame_options=True))
        ).result()
        assert original.ok

        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT, path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip()) == counters(original)

    def test_reloaded_system_repairs_identically_in_process(self, tmp_path):
        warp, _ = build_workload()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        wiki2 = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
        wiki2.register_code()

        original = warp.repair.submit(
            PatchSpec("common.php", exports=make_common(send_frame_options=True))
        ).result()
        again = reloaded.repair.submit(
            PatchSpec("common.php", exports=make_common(send_frame_options=True))
        ).result()
        assert counters(again) == counters(original)
        # The repaired database state matches too.
        assert wiki2.page_text("Home") == "welcome, edited by alice"

    def test_reloaded_system_keeps_serving_and_recording(self, tmp_path):
        warp, _ = build_workload()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        runs_before = reloaded.graph.n_runs
        carol = reloaded.client("carol-phone")
        carol.open("http://wiki.test/index.php?title=News")
        assert reloaded.graph.n_runs == runs_before + 1
        # Fresh run ids do not collide with restored ones.
        assert len(set(reloaded.graph.runs)) == reloaded.graph.n_runs

    def test_wal_restores_post_snapshot_actions(self, tmp_path, closing):
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        path = str(tmp_path / "warp.json")
        warp.save(path)  # snapshot truncates the WAL

        eve = warp.client("eve-tablet")
        eve.open("http://wiki.test/index.php?title=Home")
        n_total = warp.graph.n_runs

        reloaded = closing(WarpSystem.load(path, wal_path=wal_path))
        assert reloaded.graph.n_runs == n_total
        assert ("eve-tablet", 1) in reloaded.graph.visits

        # Regression: id allocation must continue past WAL-replayed records
        # (which postdate the snapshot's persisted counters) — a colliding
        # fresh run id would silently overwrite a restored record.
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        frank = reloaded.client("frank-laptop")
        frank.open("http://wiki.test/index.php?title=Home")
        assert reloaded.graph.n_runs == n_total + 1
        assert len(set(reloaded.graph.runs)) == reloaded.graph.n_runs

    def test_wal_preserves_visit_logs_accumulated_after_upload(self, tmp_path, closing):
        """Events, request ids and cookie snapshots accumulate on the visit
        record after add_visit; crash recovery must see the full log."""
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        live = warp.graph.visits[("alice-laptop", 1)]
        assert live.events and live.request_ids  # the login page interaction

        # Crash without ever saving a snapshot: recover from the WAL alone.
        from persistence_fixtures import recover_store

        store = recover_store(wal_path=wal_path)
        closing(store.wal)
        restored = store.visits[("alice-laptop", 1)]
        assert [e.etype for e in restored.events] == [e.etype for e in live.events]
        assert restored.request_ids == live.request_ids
        assert restored.cookies_after == live.cookies_after

    def test_cookie_snapshots_are_journaled_on_change_and_replay_equal(
        self, tmp_path, closing
    ):
        """The extension journals a visit's jar when it changed, not each
        time it looked: a browser scenario reloaded from snapshot + WAL
        tail holds every visit's cookies exactly as the live store does."""
        from repro.store.wal import RecordWal
        from repro.workload.scenarios import run_scenario

        wal_path = str(tmp_path / "records.wal")
        path = str(tmp_path / "warp.json")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        warp.save(path)
        # The WAL tail: bob logs in (the jar changes) and browses on (it
        # does not).  Beside it a whole attack scenario, recovered from its
        # WAL alone.
        csrf_wal = str(tmp_path / "csrf.wal")
        outcome = run_scenario(
            "csrf", n_users=3, n_victims=1, wal_path=csrf_wal, durability="none"
        )
        closing(outcome.warp)
        bob = warp.client("bob-desktop")
        bob.open("http://wiki.test/login.php")
        bob.type_into("input[name=wpName]", "bob")
        bob.type_into("input[name=wpPassword]", "bobpw")
        bob.submit("#loginform")
        bob.open("http://wiki.test/index.php?title=Home")
        bob.open("http://wiki.test/edit.php?title=News")
        bob.type_into("textarea", "news, by bob")
        bob.submit("form")

        for live, snapshot, wal in (
            (warp, path, wal_path),
            (outcome.warp, None, csrf_wal),
        ):
            live.graph.wal.sync()
            jars = {}
            for kind, data in RecordWal.entries(wal):
                if kind == "visit_cookies":
                    key = (data["client_id"], data["visit_id"])
                    assert jars.get(key) != data["cookies_after"], "a repeated jar"
                    jars[key] = data["cookies_after"]
            assert jars
            reloaded = closing(WarpSystem.load(snapshot, wal_path=wal))
            assert set(reloaded.graph.visits) == set(live.graph.visits)
            for key, visit in live.graph.visits.items():
                restored = reloaded.graph.visits[key]
                assert restored.cookies_before == visit.cookies_before, key
                assert restored.cookies_after == visit.cookies_after, key
            assert any(v.cookies_after != v.cookies_before for v in live.graph.visits.values())

    def test_wal_preserves_cancellations(self, tmp_path, closing):
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        result = warp.repair.submit(CancelVisitSpec("bob-desktop", 1)).result()
        assert result.ok and result.stats.runs_canceled > 0

        from persistence_fixtures import recover_store

        store = recover_store(wal_path=wal_path)
        closing(store.wal)
        canceled = [r.run_id for r in store.runs.values() if r.canceled]
        assert canceled == [
            r.run_id for r in warp.graph.runs.values() if r.canceled
        ]

    def test_returning_client_does_not_reuse_visit_ids(self, tmp_path):
        warp, _ = build_workload()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        old_visit = reloaded.graph.visits[("alice-laptop", 1)]
        alice_again = reloaded.client("alice-laptop")
        alice_again.open("http://wiki.test/index.php?title=News")
        # The restored visit 1 is untouched; the new visit got a fresh id.
        assert reloaded.graph.visits[("alice-laptop", 1)] is old_visit
        new_ids = [v.visit_id for v in reloaded.graph.client_visits("alice-laptop")]
        assert len(new_ids) == len(set(new_ids))
        assert max(new_ids) > 1

    def test_fresh_system_refuses_dirty_wal(self, tmp_path):
        from repro.core.errors import RepairError

        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)  # leaves entries in the log
        warp.close()
        with pytest.raises(RepairError, match="already contains entries"):
            WarpSystem(wal_path=wal_path)

    def test_resave_before_reregistering_keeps_version_guard(self, tmp_path):
        from repro.core.errors import RepairError

        warp, _ = build_workload()
        assert warp.repair.submit(
            PatchSpec("common.php", exports=make_common(send_frame_options=True))
        ).result().ok
        p1 = str(tmp_path / "one.json")
        warp.save(p1)

        loaded = WarpSystem.load(p1)
        p2 = str(tmp_path / "two.json")
        loaded.save(p2)  # checkpoint before any code was re-registered

        final = WarpSystem.load(p2)
        WikiApp(final.ttdb, final.scripts, final.server).register_code()
        with pytest.raises(RepairError, match="re-apply"):
            final.repair.submit(CancelClientSpec("bob-desktop")).result()

    def test_conflicts_and_cookie_invalidation_survive_reload(self, tmp_path):
        from repro.repair.conflicts import Conflict

        warp, _ = build_workload()
        warp.conflicts.add(
            Conflict(client_id="alice-laptop", visit_id=2, url="/edit.php", reason="merge failed")
        )
        warp.server.cookie_invalidation.add("alice-laptop")
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        pending = reloaded.conflicts.pending("alice-laptop")
        assert [c.reason for c in pending] == ["merge failed"]
        assert "alice-laptop" in reloaded.server.cookie_invalidation
        # The queued deletion still happens on the client's next contact.
        alice = reloaded.client("alice-laptop")
        visit = alice.open("http://wiki.test/index.php?title=Home")
        assert "alice-laptop" not in reloaded.server.cookie_invalidation
        assert visit.response.headers.get("X-Warp-Conflicts") == "1"

    def test_clock_advances_past_wal_replayed_records(self, tmp_path, closing):
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        path = str(tmp_path / "warp.json")
        warp.save(path)
        eve = warp.client("eve-tablet")
        eve.open("http://wiki.test/index.php?title=Home")
        ts_live = warp.clock.now()

        reloaded = closing(WarpSystem.load(path, wal_path=wal_path))
        assert reloaded.clock.now() >= ts_live
        # New actions timestamp strictly after everything recorded.
        assert reloaded.clock.tick() > max(
            r.ts_end for r in reloaded.graph.runs.values()
        )

    def test_unnamed_client_tokens_do_not_collide_after_reload(self, tmp_path, closing):
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        path = str(tmp_path / "warp.json")
        warp.save(path)
        anon = warp.client()  # token drawn after the save rewound state
        anon.open("http://wiki.test/index.php?title=Home")

        reloaded = closing(WarpSystem.load(path, wal_path=wal_path))
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        anon_again = reloaded.client()  # rng rewound: would re-draw same token
        assert anon_again.extension.client_id != anon.extension.client_id

    def test_load_refuses_wal_truncated_against_other_snapshot(self, tmp_path, closing):
        from repro.core.errors import ReproError

        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        p1 = str(tmp_path / "one.json")
        warp.save(p1)
        eve = warp.client("eve-tablet")
        eve.open("http://wiki.test/index.php?title=Home")
        p2 = str(tmp_path / "two.json")
        warp.save(p2)  # truncates the WAL against snapshot two

        with pytest.raises(ReproError, match="different snapshot"):
            WarpSystem.load(p1, wal_path=wal_path)
        reloaded = closing(WarpSystem.load(p2, wal_path=wal_path))
        assert reloaded.graph.n_runs == warp.graph.n_runs

    def test_crash_between_snapshot_and_truncate_replays_nothing_twice(
        self, tmp_path, monkeypatch, closing
    ):
        from repro.store.wal import RecordWal

        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        closing(warp)
        warp.save(str(tmp_path / "one.json"))
        eve = warp.client("eve-tablet")
        eve.open("http://wiki.test/index.php?title=Home")

        def crash(self):
            raise RuntimeError("simulated crash before truncate")

        monkeypatch.setattr(RecordWal, "truncate", crash)
        p2 = str(tmp_path / "two.json")
        with pytest.raises(RuntimeError):
            warp.save(p2)
        monkeypatch.undo()

        reloaded = closing(WarpSystem.load(p2, wal_path=wal_path))
        assert reloaded.graph.n_runs == warp.graph.n_runs
        for key, visit in warp.graph.visits.items():
            assert len(reloaded.graph.visits[key].events) == len(visit.events)
            assert reloaded.graph.visits[key].request_ids == visit.request_ids

    def test_save_refuses_mid_repair(self, tmp_path):
        warp, _ = build_workload()
        warp.ttdb.begin_repair()
        with pytest.raises(Exception):
            warp.save(str(tmp_path / "warp.json"))

    def test_snapshot_ids_unique_even_for_identical_state(self, tmp_path):
        """Regression: a crash between a repeat-save's pre-write marker and
        its snapshot write must not make recovery skip entries the on-disk
        (older) snapshot lacks — ids carry a nonce, never repeating."""
        warp, _ = build_workload()
        p1, p2 = str(tmp_path / "one.json"), str(tmp_path / "two.json")
        warp.save(p1)
        warp.save(p2)  # no state change in between
        ids = {read_snapshot_header(p)["snapshot_id"] for p in (p1, p2)}
        assert len(ids) == 2

    def test_snapshotless_load_recovers_action_log_from_wal(self, tmp_path):
        """Crash before the first save: the journaled action history is
        recoverable with load(None, wal_path=...)."""
        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        n_runs, n_visits = warp.graph.n_runs, len(warp.graph.visits)

        recovered = WarpSystem.load(None, wal_path=wal_path)
        assert recovered.graph.n_runs == n_runs
        assert len(recovered.graph.visits) == n_visits
        # Counters and clock continue past the recovered records.
        assert recovered.clock.now() >= max(
            r.ts_end for r in recovered.graph.runs.values()
        )
        assert recovered.ids.peek("run") == max(recovered.graph.runs)
        recovered.close()
        warp.close()

    def test_snapshotless_load_opens_the_log_with_its_own_settings(self, tmp_path):
        """WAL-only recovery takes its configuration from its keywords, the
        log's included: the recovered deployment appends with the
        durability and fault plane it was given, not the defaults."""
        from repro.faults.plane import FaultPlane
        from repro.http.message import HttpRequest

        wal_path = str(tmp_path / "records.wal")
        warp, _ = build_workload(wal_path=wal_path)
        warp.close()
        plane = FaultPlane()
        recovered = WarpSystem.load(
            None, wal_path=wal_path, durability="none", fault_plane=plane
        )
        wal = recovered.graph.wal
        assert recovered.durability == wal.durability == "none"
        assert wal.faults is plane
        assert wal.on_degrade == recovered.health.on_wal_degrade
        # The next recorded request reaches the log through that plane.
        wiki = WikiApp(recovered.ttdb, recovered.scripts, recovered.server)
        wiki.install()
        wiki.seed_page("Home", "welcome", "bob")
        rule = plane.arm(point="wal.append", kind="io", times=1)
        read = HttpRequest("GET", "/index.php", params={"title": "Home"})
        assert recovered.server.handle(read).status == 200
        assert rule.fired == 1
        assert wal.retried_writes == 1 and not wal.failed
        recovered.close()

    def test_torn_only_wal_does_not_block_fresh_start(self, tmp_path, closing):
        wal_path = str(tmp_path / "records.wal")
        with open(wal_path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "run", "da')  # crash during the very first append
        warp = closing(WarpSystem(wal_path=wal_path))  # must not raise
        assert warp.graph.n_runs == 0

    def test_crash_between_switch_and_queue_drain_loses_no_queued_request(
        self, tmp_path, monkeypatch, closing
    ):
        """Crash injection for the online-repair gate: the process dies
        after the generation switch but before ``repair_active`` clearing
        finished its work (the queued-request drain).  Recovery must see
        every queued request exactly once — journaled ``gate_queue``
        entries with no matching ``gate_apply`` — and re-application after
        reload must not duplicate one, even across repeated WAL replays."""
        from repro.repair.controller import RepairController
        from repro.workload.loadgen import LoadClient, make_load_clients

        wal_path = str(tmp_path / "records.wal")
        warp, wiki = build_workload(wal_path=wal_path)
        closing(warp)
        attacker = LoadClient("attacker-lc", warp.server)
        wiki.seed_user("attacker-lc", "pw-attacker-lc")
        assert attacker.login("pw-attacker-lc").status == 200
        assert attacker.send(
            attacker.request(
                "POST", "/edit.php", {"title": "News", "append": "\nDEFACED."}
            )
        ).status == 200
        (bystander,) = make_load_clients(wiki, warp.server, ["bys"])
        snapshot = str(tmp_path / "warp.json")
        warp.save(snapshot)

        queued_tickets = []

        def hook():
            if not queued_tickets:
                response = bystander.send(
                    bystander.request(
                        "POST", "/edit.php", {"title": "News", "append": "\nrecover-me."}
                    )
                )
                assert response.status == 202
                queued_tickets.append(int(response.headers["X-Warp-Queued"]))

        # The crash: the drain (the tail of repair_active clearing) never
        # runs — the generation switch itself completed.
        monkeypatch.setattr(
            RepairController, "_drain_gate_queue", lambda self: None
        )
        controller = warp._controller()
        controller.step_hook = hook
        result = controller.repair_batch([CancelClientSpec(attacker.client_id)])
        assert result.ok and queued_tickets
        assert warp.graph.gate_queue.entries  # journaled, undrained
        monkeypatch.undo()

        # Fresh process: recover snapshot + WAL.
        reloaded = closing(WarpSystem.load(snapshot, wal_path=wal_path))
        WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server).register_code()
        recovered = reloaded.recovered_queued_requests()
        assert [ticket for ticket, _ in recovered] == queued_tickets
        # The database is only as fresh as the snapshot: re-run the repair,
        # then re-apply the recovered queue exactly once.
        assert reloaded.repair.submit(CancelClientSpec(attacker.client_id)).result().ok
        responses = reloaded.reapply_recovered_requests()
        assert responses[queued_tickets[0]].status == 200
        text = WikiApp(
            reloaded.ttdb, reloaded.scripts, reloaded.server
        ).page_text("News")
        assert "DEFACED." not in text
        assert text.count("recover-me.") == 1
        assert reloaded.graph.gate_queue.entries == {}
        assert reloaded.recovered_queued_requests() == []

        # WAL replay stays idempotent through the gate entries: another
        # recovery sees the ticket consumed, never re-pending.
        again = closing(WarpSystem.load(snapshot, wal_path=wal_path))
        assert again.recovered_queued_requests() == []

    def test_snapshotless_crash_recovers_gate_queue_exactly_once(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 5 satellite: the *snapshotless* crash path combined with
        the gate queue.  The process dies mid-repair before the first
        ``save`` ever happened — recovery is ``load(None, wal_path=...)``
        — and the journaled queued request must surface through
        ``recovered_queued_requests`` and re-apply exactly once, across
        repeated WAL replays."""
        from repro.repair.controller import RepairController
        from repro.workload.loadgen import LoadClient, make_load_clients

        wal_path = str(tmp_path / "records.wal")
        warp, wiki = build_workload(wal_path=wal_path)
        attacker = LoadClient("attacker-lc", warp.server)
        wiki.seed_user("attacker-lc", "pw-attacker-lc")
        assert attacker.login("pw-attacker-lc").status == 200
        assert attacker.send(
            attacker.request(
                "POST", "/edit.php", {"title": "News", "append": "\nDEFACED."}
            )
        ).status == 200

        (bystander,) = make_load_clients(wiki, warp.server, ["bys"])
        queued_tickets = []

        def hook():
            if not queued_tickets:
                response = bystander.send(
                    bystander.request(
                        "POST",
                        "/edit.php",
                        {"title": "News", "append": "\nrecover-me."},
                    )
                )
                assert response.status == 202
                queued_tickets.append(int(response.headers["X-Warp-Queued"]))

        # The crash: the queue drain never runs, and no snapshot exists.
        monkeypatch.setattr(
            RepairController, "_drain_gate_queue", lambda self: None
        )
        controller = warp._controller()
        controller.step_hook = hook
        assert controller.repair_batch([CancelClientSpec(attacker.client_id)]).ok
        assert queued_tickets
        assert warp.graph.gate_queue.entries
        monkeypatch.undo()

        # Fresh process, WAL only: the action log is rebuilt but the
        # database starts empty — the application is *reinstalled*.
        recovered = WarpSystem.load(None, wal_path=wal_path)
        wiki2 = WikiApp(recovered.ttdb, recovered.scripts, recovered.server)
        wiki2.install()
        entries = recovered.recovered_queued_requests()
        assert [ticket for ticket, _ in entries] == queued_tickets
        assert entries[0][1].params["append"] == "\nrecover-me."

        responses = recovered.reapply_recovered_requests()
        assert set(responses) == set(queued_tickets)
        # Exactly once: the ticket is journaled applied and never re-pends.
        assert recovered.graph.gate_queue.entries == {}
        assert recovered.recovered_queued_requests() == []
        assert recovered.reapply_recovered_requests() == {}

        # Idempotent across another full WAL replay.
        again = WarpSystem.load(None, wal_path=wal_path)
        assert again.recovered_queued_requests() == []
        assert again.graph.gate_queue.entries == {}
        for deployment in (warp, recovered, again):
            deployment.close()

    def test_repair_refuses_until_code_is_reregistered(self, tmp_path):
        from repro.core.errors import RepairError

        warp, _ = build_workload()
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        # No register_code(): repairing would re-execute with missing code.
        with pytest.raises(RepairError, match="missing"):
            reloaded.repair.submit(
                PatchSpec("common.php", exports=make_common(send_frame_options=True))
            ).result()

    def test_repair_refuses_stale_script_versions_after_load(self, tmp_path):
        from repro.core.errors import RepairError

        warp, _ = build_workload()
        patched = warp.repair.submit(
            PatchSpec("common.php", exports=make_common(send_frame_options=True))
        ).result()
        assert patched.ok
        path = str(tmp_path / "warp.json")
        warp.save(path)

        reloaded = WarpSystem.load(path)
        wiki2 = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
        wiki2.register_code()  # baseline code only: common.php back at v0
        with pytest.raises(RepairError, match="re-apply"):
            reloaded.repair.submit(CancelClientSpec("bob-desktop")).result()
        # Re-applying the pre-save patch restores repair capability.
        reloaded.scripts.patch("common.php", make_common(send_frame_options=True))
        assert reloaded.repair.submit(CancelClientSpec("bob-desktop")).result().ok


class TestCommitsPerRecordedRun:
    """At the shipped ``durability="group"`` a recorded run costs one fsync:
    its own commit, which also writes the visit and the deltas the extension
    logged before it (nothing waits on those)."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return calls

    def test_a_headerless_drive_fsyncs_once_per_run(self, tmp_path, closing, fsyncs):
        from repro.workload.loadgen import make_load_clients
        from repro.workload.scenarios import WikiDeployment

        deployment = WikiDeployment(n_users=2, seed=1, wal_path=str(tmp_path / "records.wal"))
        warp = closing(deployment.warp)
        clients = make_load_clients(deployment.wiki, warp.server, deployment.users)
        runs, calls = warp.graph.n_runs, len(fsyncs)
        for index in range(24):
            client = clients[index % 2]
            page = f"{client.name}_notes"
            params = {"title": page} if index % 3 else {"title": page, "append": f"\n{index}."}
            request = client.request("GET" if index % 3 else "POST", "/edit.php", params)
            assert client.send(request).status == 200
        assert warp.graph.n_runs - runs == 24
        assert (len(fsyncs) - calls) / (warp.graph.n_runs - runs) == 1.0

    def test_a_browser_scenario_fsyncs_about_once_per_run(self, tmp_path, closing, fsyncs):
        from repro.workload.scenarios import run_scenario

        outcome = run_scenario(
            "csrf", n_users=20, n_victims=2, seed=1, wal_path=str(tmp_path / "records.wal")
        )
        warp = closing(outcome.warp)
        assert len(warp.graph.visits) > 0 and warp.graph.wal.durability == "group"
        warp.close()  # writes the deltas the last run did not
        assert len(fsyncs) / warp.graph.n_runs <= 1.05
