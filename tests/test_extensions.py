"""Tests for the paper's extension features: UI conflict functions (§5.4),
per-client log quotas (§5.2), client-wide undo and retroactive credential
fixes (§2)."""

import pytest

from repro.ahg.records import VisitRecord
from repro.repair.api import CancelClientSpec, DbFixSpec
from repro.repair.replay import ReplayConfig
from repro.workload.scenarios import WIKI, WikiDeployment


class TestUiConflictFunction:
    def test_ui_conflict_flags_changed_displayed_data(self):
        """The paper's banking example: the page replays fine, but the
        application decides the displayed data changed materially."""

        def balance_changed(old_body, new_body):
            if old_body != new_body and "pagebody" in new_body:
                return "displayed page content changed"
            return None

        deployment = WikiDeployment(
            n_users=3,
            replay_config=ReplayConfig(ui_conflict_fn=balance_changed),
        )
        victim = deployment.users[0]
        attacker = deployment.login("attacker")
        attacker.open(f"{WIKI}/special_block.php?ip=5.5.5.5")
        attacker.type_into(
            "input[name=reason]",
            "<script>var u = doc_text('#username');"
            "http_post('/edit.php', {'title': u + '_notes', 'append': ' DEFACED'});"
            "</script>",
        )
        attacker.click("input[name=report]")
        deployment.login(victim)
        deployment.browser(victim).open(f"{WIKI}/special_block.php?ip=5.5.5.5")
        # The victim then *views* the defaced page: replay will show them
        # different content after repair — the UI conflict function fires.
        deployment.read_page(victim, f"{victim}_notes")
        result = deployment.patch("stored-xss")
        assert result.ok
        reasons = [c.reason for c in result.conflicts]
        assert any("UI conflict" in reason for reason in reasons)

    def test_no_ui_conflict_without_function(self):
        deployment = WikiDeployment(n_users=3)
        victim = deployment.users[0]
        attacker = deployment.login("attacker")
        attacker.open(f"{WIKI}/special_block.php?ip=5.5.5.5")
        attacker.type_into(
            "input[name=reason]",
            "<script>var u = doc_text('#username');"
            "http_post('/edit.php', {'title': u + '_notes', 'append': ' DEFACED'});"
            "</script>",
        )
        attacker.click("input[name=report]")
        deployment.login(victim)
        deployment.browser(victim).open(f"{WIKI}/special_block.php?ip=5.5.5.5")
        deployment.read_page(victim, f"{victim}_notes")
        result = deployment.patch("stored-xss")
        assert result.ok and not result.conflicts


class TestClientLogQuota:
    def test_quota_drops_oldest_visits(self):
        deployment = WikiDeployment(n_users=2)
        user = deployment.users[0]
        deployment.login(user)
        for _ in range(8):
            deployment.read_page(user, "Main_Page")
        graph = deployment.warp.graph
        client = deployment.client_id(user)
        before = len(graph.client_visits(client))
        dropped = graph.enforce_client_quota(max_visits_per_client=4)
        assert dropped == before - 4
        remaining = graph.client_visits(client)
        assert len(remaining) == 4
        # The newest logs are the ones kept.
        assert remaining == sorted(remaining, key=lambda v: v.ts)

    def test_quota_isolates_clients(self):
        """A chatty client's logs never evict another client's entries."""
        deployment = WikiDeployment(n_users=2)
        chatty, quiet = deployment.users[0], deployment.users[1]
        deployment.login(quiet)
        deployment.read_page(quiet, "Main_Page")
        deployment.login(chatty)
        for _ in range(10):
            deployment.read_page(chatty, "Main_Page")
        graph = deployment.warp.graph
        graph.enforce_client_quota(max_visits_per_client=3)
        assert len(graph.client_visits(deployment.client_id(quiet))) >= 2


class TestCancelClient:
    def test_all_actions_of_attacker_undone(self):
        deployment = WikiDeployment(n_users=3)
        deployment.login("attacker")
        attacker = deployment.browser("attacker")
        deployment.append_to_page("attacker", "Main_Page", "\nspam one")
        deployment.append_to_page("attacker", "Projects", "\nspam two")
        user = deployment.users[0]
        deployment.login(user)
        deployment.append_to_page(user, f"{user}_notes", "\nlegit")

        result = deployment.warp.repair.submit(
            CancelClientSpec(deployment.client_id("attacker"))
        ).result()
        assert result.ok
        assert "spam one" not in deployment.wiki.page_text("Main_Page")
        assert "spam two" not in deployment.wiki.page_text("Projects")
        assert "legit" in deployment.wiki.page_text(f"{user}_notes")


class TestRetroactiveDbFix:
    def test_retroactive_password_change_invalidates_later_logins(self):
        """Paper §2: retroactively changing a stolen password undoes the
        attacker's later logins (at the risk of undoing legitimate ones)."""
        deployment = WikiDeployment(n_users=2)
        warp = deployment.warp
        leak_ts = warp.clock.now()

        # The "attacker" logs in with the stolen credentials and vandalises.
        thief = warp.client("thief-browser")
        thief.open(f"{WIKI}/login.php")
        thief.type_into("input[name=wpName]", "user1")
        thief.type_into("input[name=wpPassword]", "pw-user1")
        thief.submit("#loginform")
        deployment.browsers["thief-browser"] = thief
        visit = thief.open(f"{WIKI}/edit.php?title=Main_Page")
        thief.type_into("textarea", "stolen-credentials vandalism")
        thief.click("input[name=save]")
        assert deployment.wiki.page_text("Main_Page") == "stolen-credentials vandalism"

        # Retroactively rotate the password as of the leak time.
        result = warp.repair.submit(
            DbFixSpec(
                "UPDATE users SET password = ? WHERE name = ?",
                ("rotated-password", "user1"),
                ts=leak_ts + 1,
            )
        ).result()
        assert result.ok
        # The thief's login re-executes with the rotated password, fails,
        # and the vandalism unravels.
        assert deployment.wiki.page_text("Main_Page") == "welcome to the wiki"
        rows = warp.ttdb.execute(
            "SELECT password FROM users WHERE name = 'user1'"
        ).one()
        assert rows["password"] == "rotated-password"
