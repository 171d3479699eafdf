"""Tests for the WarpSystem facade: clients, repair entry points,
concurrent-repair re-application, repeated repairs, and log GC."""

import json

import pytest

from repro.apps.wiki import WikiApp, patch_for
from repro.repair.api import CancelVisitSpec, PatchSpec
from repro.warp import WarpSystem
from repro.workload.scenarios import WIKI, WikiDeployment, run_scenario


class TestClients:
    def test_named_client_gets_stable_id(self):
        warp = WarpSystem()
        browser = warp.client("laptop-1")
        assert browser.extension.client_id == "laptop-1"

    def test_anonymous_client_gets_random_id(self):
        warp = WarpSystem()
        a = warp.client()
        b = warp.client()
        assert a.extension.client_id != b.extension.client_id

    def test_extensionless_client(self):
        warp = WarpSystem()
        browser = warp.client(extension=False)
        assert browser.extension is None

    def test_disabled_system_rejects_repair(self):
        warp = WarpSystem(enabled=False)
        from repro.core.errors import RepairError

        with pytest.raises(RepairError):
            warp.repair.submit(
                PatchSpec("x.php", exports={"handle": lambda ctx: None})
            ).result()


class TestRepeatedRepairs:
    def test_two_sequential_patches(self):
        """After one repair finalizes, the merged graph supports another."""
        outcome = run_scenario("stored-xss", n_users=6, n_victims=2)
        first = outcome.repair()
        assert first.ok
        assert outcome.warp.ttdb.current_gen == 1
        # A second, unrelated retroactive patch over the repaired history.
        spec = patch_for("clickjacking")
        second = outcome.warp.repair.submit(
            PatchSpec(spec.file, exports=spec.build())
        ).result()
        assert second.ok
        assert outcome.warp.ttdb.current_gen == 2
        # The first repair's effect persists through the second.
        for victim in outcome.victims:
            assert "xss-attack-line" not in outcome.wiki.page_text(
                f"{victim}_notes"
            )

    def test_patch_then_admin_undo(self):
        deployment = WikiDeployment(n_users=4)
        user = deployment.users[0]
        deployment.login(user)
        deployment.append_to_page(user, f"{user}_notes", "\nkeep me")
        spec = patch_for("clickjacking")
        assert deployment.warp.repair.submit(
            PatchSpec(spec.file, exports=spec.build())
        ).result().ok
        browser = deployment.browser(user)
        form_visit = browser.current.parent_visit
        result = deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user), form_visit)
        ).result()
        assert result.ok
        assert "keep me" not in deployment.wiki.page_text(f"{user}_notes")


class TestConcurrentRepair:
    def test_mid_repair_requests_served_and_reapplied(self):
        outcome = run_scenario("csrf", n_users=10, n_victims=2)
        deployment = outcome.deployment
        live_user = deployment.users[-1]
        served = []

        def live_traffic():
            if len(served) == 3:
                deployment.append_to_page(
                    live_user, "Main_Page", "\nmid-repair edit"
                )
            visit = deployment.browser(live_user).open(
                f"{WIKI}/index.php?title=Main_Page"
            )
            served.append(visit.response.status)

        controller = outcome.warp._controller()
        controller.step_hook = live_traffic
        spec = patch_for("csrf")
        result = controller.repair_batch([PatchSpec(spec.file, exports=spec.build())])
        assert result.ok
        assert served and all(status == 200 for status in served)
        assert "mid-repair edit" in outcome.wiki.page_text("Main_Page")

    def test_generation_switch_after_repair(self):
        outcome = run_scenario("stored-xss", n_users=4, n_victims=1)
        assert outcome.warp.ttdb.current_gen == 0
        outcome.repair()
        assert outcome.warp.ttdb.current_gen == 1
        assert outcome.warp.ttdb.repair_gen is None
        assert not outcome.warp.server.repair_active
        assert not outcome.warp.server.suspended


class TestGarbageCollection:
    def test_gc_trims_versions_and_log(self):
        deployment = WikiDeployment(n_users=3)
        user = deployment.users[0]
        deployment.login(user)
        for index in range(6):
            deployment.edit_page(user, f"{user}_notes", f"rev {index}")
        warp = deployment.warp
        versions_before = warp.ttdb.total_versions()
        runs_before = warp.graph.n_runs
        horizon = warp.clock.now() + 1
        removed_versions = warp.ttdb.gc(horizon)
        removed_records = warp.graph.gc(horizon)
        assert removed_versions > 0
        assert removed_records > 0
        assert warp.ttdb.total_versions() < versions_before
        assert warp.graph.n_runs < runs_before
        # The current state is untouched by GC.
        assert deployment.wiki.page_text(f"{user}_notes") == "rev 5"

    def test_repair_still_works_within_retained_window(self):
        deployment = WikiDeployment(n_users=3)
        user = deployment.users[0]
        deployment.login(user)
        deployment.read_page(user, "Main_Page")
        horizon = deployment.warp.clock.now() + 1
        deployment.warp.ttdb.gc(horizon)
        deployment.warp.graph.gc(horizon)
        # Attack + repair entirely after the GC horizon.
        attacker = deployment.login("attacker")
        attacker.open(f"{WIKI}/special_block.php?ip=1.2.3.4")
        attacker.type_into(
            "input[name=reason]",
            "<script>var u = doc_text('#username');"
            "http_post('/edit.php', {'title': u + '_notes', 'append': 'XSS'});"
            "</script>",
        )
        attacker.click("input[name=report]")
        deployment.browser(user).open(f"{WIKI}/special_block.php?ip=1.2.3.4")
        assert "XSS" in deployment.wiki.page_text(f"{user}_notes")
        result = deployment.patch("stored-xss")
        assert result.ok
        assert "XSS" not in deployment.wiki.page_text(f"{user}_notes")


class TestMetricsModule:
    def test_storage_report_shapes(self, tmp_path):
        from repro.workload.metrics import storage_report

        deployment = WikiDeployment(n_users=2)
        deployment.login(deployment.users[0])
        deployment.read_page(deployment.users[0], "Main_Page")
        report = storage_report(deployment)
        assert report.browser_kb > 0
        assert report.app_kb > 0
        assert report.db_kb > 0
        assert report.total_kb == pytest.approx(
            report.browser_kb + report.app_kb + report.db_kb
        )
        assert report.gb_per_day(10.0) > 0
        # It sizes what the store writes: raw, the three logs are exactly
        # the record lines of a snapshot of the same deployment — the text
        # entries included, each once ...
        path = str(tmp_path / "warp.json")
        deployment.warp.save(path)
        with open(path, "rb") as fh:
            header, lines = fh.read().split(b"\n", 1)
        n_texts = json.loads(header)["records"]["text"]
        assert n_texts > 0
        graph = deployment.warp.graph
        assert lines.count(b"\n") == graph.n_visits + n_texts + graph.n_runs
        assert set(report.raw_bytes) == {"browser", "app", "db"}
        assert sum(report.raw_bytes.values()) == len(lines)
        # ... and compressed (record by record, like the paper) they are smaller.
        assert 0 < report.total_kb * 1024 * report.n_visits < len(lines)

    def test_overhead_report(self):
        from repro.workload.metrics import measure_overhead

        report = measure_overhead("read", n_visits=40)
        assert report.no_warp_rate > 0
        assert report.warp_rate > 0
        assert report.storage is not None
