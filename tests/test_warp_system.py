"""Tests for the WarpSystem facade: clients, repair entry points,
concurrent-repair re-application, repeated repairs, and retention."""

import json
import os

import pytest

from repro.apps.wiki import WikiApp, patch_for
from repro.core.errors import RepairError
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec, CancelVisitSpec, DbFixSpec, PatchSpec
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
    def test_mid_repair_requests_served_and_reapplied(self, futile_clustering):
        # An unbounded plan: the gate serves every mid-repair request, and
        # finalize re-applies them.  A bounded one would queue the edit of
        # the page the repair rewrites (tests/test_online_repair.py).
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
        assert warp.retain(horizon) > 0
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
        deployment.warp.retain(horizon)
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


XSS_REASON = (
    "<script>var u = doc_text('#username');"
    "http_post('/edit.php', {'title': u + '_notes', 'append': 'XSS'});"
    "</script>"
)

BACKENDS = pytest.mark.parametrize("backend", ["python", "sqlite"])


def _xss_past_the_horizon(closing, backend, **warp_kwargs):
    """The stored XSS, planted and viewed, then retention at ``now + 1``:
    every run of the attack is older than the horizon."""
    deployment = WikiDeployment(n_users=3, db_backend=backend, **warp_kwargs)
    closing(deployment.warp)
    user = deployment.users[0]
    deployment.login(user)
    attacker = deployment.login("attacker")
    attacker.open(f"{WIKI}/special_block.php?ip=1.2.3.4")
    attacker.type_into("input[name=reason]", XSS_REASON)
    attacker.click("input[name=report]")
    deployment.browser(user).open(f"{WIKI}/special_block.php?ip=1.2.3.4")
    assert "XSS" in deployment.wiki.page_text(f"{user}_notes")
    return deployment


def _past_horizon_specs(warp):
    spec = patch_for("stored-xss")
    warp.repair.register_patch("stored-xss", spec.file, spec.build())
    return [
        PatchSpec(spec.file, patch_name="stored-xss"),
        CancelClientSpec("attacker-browser"),
    ]


def _assert_refused(warp, spec):
    with pytest.raises(RepairError, match="retention dropped"):
        warp.repair.preview(spec)
    with pytest.raises(RepairError, match="retention dropped"):
        warp.repair.submit(spec)
    response = warp.server.handle(
        HttpRequest(
            "POST", "/warp/admin/repair", params={"spec": json.dumps(spec.to_dict())}
        )
    )
    assert response.status == 400, response.body
    assert "retention dropped" in response.body


class TestRetention:
    @BACKENDS
    def test_repair_reaching_past_the_horizon_is_refused(self, backend, closing):
        deployment = _xss_past_the_horizon(closing, backend)
        warp = deployment.warp
        assert warp.retain(warp.clock.now() + 1) > 0
        victim_notes = f"{deployment.users[0]}_notes"
        for spec in _past_horizon_specs(warp):
            graph_before = json.dumps(warp.graph.to_snapshot(), sort_keys=True)
            db_before = json.dumps(warp.database.to_dict(), sort_keys=True)
            _assert_refused(warp, spec)
            assert warp.repair.jobs() == []
            assert "XSS" in deployment.wiki.page_text(victim_notes)
            assert json.dumps(warp.graph.to_snapshot(), sort_keys=True) == graph_before
            assert json.dumps(warp.database.to_dict(), sort_keys=True) == db_before

    def test_refusal_covers_fixes_and_dropped_visits(self, closing):
        deployment = _xss_past_the_horizon(closing, "python")
        warp = deployment.warp
        horizon = warp.clock.now() + 1
        warp.retain(horizon)
        fix = "UPDATE blocks SET reason = ? WHERE ip = ?"
        for spec in (
            DbFixSpec(fix, ("cleaned", "1.2.3.4"), ts=horizon - 1),
            CancelVisitSpec("attacker-browser", 2),
        ):
            with pytest.raises(RepairError, match="retention dropped"):
                warp.repair.preview(spec)
        # Damage after the horizon is covered in full.
        warp.repair.preview(DbFixSpec(fix, ("cleaned", "1.2.3.4"), ts=horizon))

    def test_quota_trims_only_visit_logs(self, closing):
        deployment = _xss_past_the_horizon(closing, "python")
        warp = deployment.warp
        client = deployment.client_id(deployment.users[0])
        visits = [visit.visit_id for visit in warp.graph.client_visits(client)]
        assert warp.retain(max_visits_per_client=1) > 0
        assert warp.graph.horizon_ts == 0
        with pytest.raises(RepairError, match="retention dropped"):
            warp.repair.preview(CancelVisitSpec(client, visits[0]))
        warp.repair.preview(CancelVisitSpec(client, visits[-1]))

    def test_visit_high_water_mark_survives_reload(self, tmp_path, closing):
        deployment = _xss_past_the_horizon(closing, "python")
        warp = deployment.warp
        assert warp.graph.last_visit_id("attacker-browser") == 4
        warp.retain(warp.clock.now() + 1)
        assert warp.graph.client_visits("attacker-browser") == []
        path = str(tmp_path / "warp.json")
        warp.save(path)
        loaded = closing(WarpSystem.load(path))
        assert loaded.graph.last_visit_id("attacker-browser") == 4
        WikiApp(loaded.ttdb, loaded.scripts, loaded.server).register_code()
        browser = loaded.client("attacker-browser")
        assert browser.open(f"{WIKI}/index.php?title=Main_Page").visit_id == 5

    @BACKENDS
    @pytest.mark.parametrize("saved_after", [True, False])
    def test_retention_survives_save_load_and_wal_replay(
        self, backend, saved_after, tmp_path, closing
    ):
        path, wal_path = str(tmp_path / "warp.json"), str(tmp_path / "records.wal")
        deployment = _xss_past_the_horizon(closing, backend, wal_path=wal_path)
        warp = deployment.warp
        if not saved_after:
            warp.save(path)  # the retain below reaches only the log
        warp.retain(warp.clock.now() + 1)
        if saved_after:
            warp.save(path)
        loaded = closing(WarpSystem.load(path, wal_path=wal_path))
        assert loaded.ttdb.total_versions() == warp.ttdb.total_versions()
        assert loaded.graph.to_snapshot() == warp.graph.to_snapshot()
        for spec in _past_horizon_specs(loaded):
            _assert_refused(loaded, spec)


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
        assert lines.count(b"\n") == len(graph.visits) + n_texts + graph.n_runs
        assert set(report.raw_bytes) == {"browser", "app", "db"}
        assert sum(report.raw_bytes.values()) == len(lines)
        # ... and compressed (record by record, like the paper) they are smaller.
        assert 0 < report.total_kb * 1024 * report.n_visits < len(lines)

    def test_layer_bytes_sum_to_the_journaled_bytes(self, tmp_path):
        """Each ``text`` entry is billed to one log, once: the three logs'
        raw bytes are exactly what the store journaled — every run line and
        every entry, among them the row payloads the database log pays."""
        from repro.ahg.records import keyed_line
        from repro.store.wal import decode_line
        from repro.workload.loadgen import make_load_clients
        from repro.workload.metrics import record_log_texts

        wal_path = str(tmp_path / "records.wal")
        deployment = WikiDeployment(n_users=0, seed=5, wal_path=wal_path, durability="none")
        wiki, warp = deployment.wiki, deployment.warp
        wiki.seed_page("P", "seed\n", owner="admin")
        clients = make_load_clients(wiki, warp.server, ["u", "v"])
        for index in range(6):
            client = clients[index % 2]
            params = {"title": "P"} if index % 3 else {"title": "P", "append": f"\n{index}."}
            method = "GET" if index % 3 else "POST"
            assert client.send(client.request(method, "/edit.php", params)).status == 200
        wal = warp.graph.wal
        wal.sync()
        raw = dict.fromkeys(("browser", "app", "db"), 0)
        entries, rows = {}, []
        for layer, text in record_log_texts(warp.graph):
            raw[layer] += len(text.encode("utf-8"))
            kind, data, _ = decode_line(text) if text.startswith("{") else (None, None, None)
            if kind == "text":
                entries[data["id"]] = layer
            elif kind is None:
                rows.append((layer, text))
        assert sum(raw.values()) == wal.appended_bytes
        # A run line's queries member is the database log; the row around it
        # is the application log.
        runs = warp.graph.runs_in_order()
        lines = [keyed_line("run", json.loads(run.json_text)) for run in runs]
        compact = (",", ":")
        assert rows == [("db", json.dumps(line["queries"], separators=compact) + ",") for line in lines]
        texts = warp.graph.texts.by_id
        payloads = [ident for ident in entries if texts[ident].startswith("[")]
        assert payloads and all(entries[ident] == "db" for ident in payloads)
        wal.close()

    def test_overhead_report(self):
        from repro.workload.metrics import measure_overhead

        report = measure_overhead("read", n_visits=40)
        assert report.no_warp_rate > 0
        assert report.warp_rate > 0
        assert report.storage is not None


@pytest.mark.parametrize("backend", ["python", "sqlite"])
def test_close_releases_the_log_and_the_engine(tmp_path, backend):
    """``close`` commits and closes the deployment's log and releases
    the engine's connections; a second call changes nothing."""
    from repro.http.message import HttpRequest

    wal_path = str(tmp_path / "records.wal")
    warp = WarpSystem(wal_path=wal_path, durability="none", db_backend=backend)
    WikiApp(warp.ttdb, warp.scripts, warp.server).install()
    read = HttpRequest("GET", "/index.php", params={"title": "Home"})
    assert warp.server.handle(read).status == 200
    warp.close()
    size = os.path.getsize(wal_path)
    warp.close()
    assert os.path.getsize(wal_path) == size > 0
    if backend == "sqlite":
        assert not os.path.exists(warp.database.path)
    recovered = WarpSystem.load(None, wal_path=wal_path)
    assert recovered.graph.n_runs == warp.graph.n_runs == 1
    recovered.close()
