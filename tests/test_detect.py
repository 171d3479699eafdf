"""Front-line detection (repro.detect) and the attack corpus
(repro.workload.attackgen): rule verdicts, the incident lifecycle over
the admin HTTP surface, durable incidents across save/load and crash
recovery, the preview-refresh locking contract, the loadgen attacker
mix, and the shard coordinator's union incidents view.

The acceptance spine is :class:`TestCorpus`: every generated scenario —
six attack classes crossed with app/tenant shapes — must detect, show
corruption, repair through the incident → preview → job path, and
recover the ground truth exactly.
"""

import json
import random
import threading
import time

import pytest

from repro.apps.wiki.app import WikiApp
from repro.detect import (
    AclSelfGrantRule,
    Detector,
    IncidentManager,
    ParamShapeRule,
    SessionMisuseRule,
    default_rules,
)
from repro.faults.plane import FaultPlane
from repro.http.message import CLIENT_HEADER, HttpRequest
from repro.shard import ShardCluster
from repro.shard.routing import TENANT_HEADER
from repro.warp import WarpSystem
from repro.workload.attackgen import (
    APP_SHAPES,
    ATTACK_CLASSES,
    INJECTION_CLASSES,
    TAUTOLOGY_PAYLOAD,
    UNION_PAYLOAD,
    describe_corpus,
    generate_corpus,
    run_scenario_end_to_end,
)
from repro.workload.loadgen import LoadClient, LoadGen, LoadStats

PAGE = "Sandbox"


def _req(method="GET", path="/index.php", params=None, cookies=None, client="c1"):
    return HttpRequest(
        method,
        path,
        params=dict(params or {}),
        cookies=dict(cookies or {}),
        headers={CLIENT_HEADER: client},
    )


def _detect_warp(plane=None, **kwargs):
    warp = WarpSystem(fault_plane=plane, **kwargs)
    warp.enable_detection()
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    for user, page in (("alice", PAGE), ("bob", "Workshop")):
        wiki.seed_user(user, f"pw-{user}")
        wiki.seed_page(page, "seed\n", user)
    clients = {}
    for user in ("alice", "bob"):
        client = LoadClient(user, warp.server)
        assert client.login(f"pw-{user}").status == 200
        clients[user] = client
    return warp, wiki, clients


def _inject(client, payload=TAUTOLOGY_PAYLOAD):
    return client.send(
        client.request("GET", "/special_maintenance.php", {"thelang": payload})
    )


def _admin(warp, method, path, **params):
    return warp.server.handle(HttpRequest(method, path, params=params))


def _admin_json(warp, method, path, **params):
    response = _admin(warp, method, path, **params)
    return response.status, json.loads(response.body)


# ---------------------------------------------------------------------------
# rule verdicts
# ---------------------------------------------------------------------------


class TestRules:
    def test_benign_request_is_not_flagged(self):
        detector = Detector()
        result = detector.score(
            _req(params={"title": "Main_Page", "append": "hello world"})
        )
        assert not result.flagged
        assert result.score == 0.0

    @pytest.mark.parametrize(
        "payload,reason",
        [
            (TAUTOLOGY_PAYLOAD, "injection:tautology"),
            (UNION_PAYLOAD, "injection:union"),
            ("en'; DELETE FROM users; --", "injection:piggyback"),
        ],
    )
    def test_injection_signatures_flag(self, payload, reason):
        result = Detector().score(_req(params={"thelang": payload}))
        assert result.flagged
        assert reason in result.reasons

    def test_cookie_values_are_scanned_too(self):
        result = Detector().score(_req(cookies={"lang": TAUTOLOGY_PAYLOAD}))
        assert result.flagged
        assert any(
            f.param == "cookie:lang" for f in result.findings
        ), result.findings

    def test_shape_anomalies_alone_stay_sub_threshold(self):
        detector = Detector(rules=[ParamShapeRule()])
        result = detector.score(_req(params={"q": "a'b;c"}))
        assert result.score == pytest.approx(0.6)
        assert not result.flagged

    def test_session_theft_flags_second_browser(self):
        detector = Detector()
        first = detector.score(_req(client="victim-c", cookies={"sess": "tok1"}))
        assert not first.flagged  # binds tok1 -> victim-c
        stolen = detector.score(_req(client="evil-c", cookies={"sess": "tok1"}))
        assert stolen.flagged
        assert "session:theft" in stolen.reasons
        again = detector.score(_req(client="victim-c", cookies={"sess": "tok1"}))
        assert not again.flagged  # the owner keeps using it freely

    def test_csrf_relogin_under_old_session_flags(self):
        detector = Detector()
        detector.score(
            _req(
                "POST",
                "/login.php",
                params={"wpName": "victim"},
                cookies={"sess": "s1"},
                client="victim-c",
            )
        )
        forged = detector.score(
            _req(
                "POST",
                "/login.php",
                params={"wpName": "attacker"},
                cookies={"sess": "s1"},
                client="victim-c",
            )
        )
        assert forged.flagged
        assert "session:csrf-login" in forged.reasons

    def test_acl_self_grant_over_stolen_session_flags(self):
        detector = Detector()
        # The attacker's browser is known to own the "mallory" account...
        detector.score(
            _req("POST", "/login.php", params={"wpName": "mallory"}, client="evil-c")
        )
        # ...the admin's session binds to the admin's browser...
        detector.score(_req(client="admin-c", cookies={"sess": "admsess"}))
        # ...and the grant rides the stolen session toward mallory.
        grant = detector.score(
            _req(
                "POST",
                "/acl.php",
                params={"action": "grant", "user": "mallory", "title": "Secret"},
                cookies={"sess": "admsess"},
                client="evil-c",
            )
        )
        assert grant.flagged
        assert "acl:self-grant" in grant.reasons
        assert "session:theft" in grant.reasons

    def test_acl_self_grant_over_own_session_is_sub_threshold(self):
        detector = Detector(rules=[SessionMisuseRule(), AclSelfGrantRule()])
        detector.score(
            _req("POST", "/login.php", params={"wpName": "mallory"}, client="evil-c")
        )
        detector.score(_req(client="evil-c", cookies={"sess": "own"}))
        grant = detector.score(
            _req(
                "POST",
                "/acl.php",
                params={"action": "grant", "user": "mallory", "title": "Pub"},
                cookies={"sess": "own"},
                client="evil-c",
            )
        )
        assert grant.score == pytest.approx(0.6)
        assert not grant.flagged

    def test_detector_counts_and_status(self):
        detector = Detector()
        detector.score(_req(params={"q": "benign"}))
        detector.score(_req(params={"q": TAUTOLOGY_PAYLOAD}))
        status = detector.status()
        assert status["scored"] == 2
        assert status["flagged"] == 1
        assert status["rules"] == [rule.name for rule in default_rules()]


# ---------------------------------------------------------------------------
# incident lifecycle over the admin HTTP surface
# ---------------------------------------------------------------------------


class TestIncidentPipeline:
    @pytest.mark.parametrize("option", [{"threshold": 1.5}, {"rules": []}])
    def test_enable_detection_takes_no_options(self, option):
        """The deployment detector runs the default rule chain at the one
        threshold: neither is settable."""
        with pytest.raises(TypeError):
            WarpSystem().enable_detection(**option)

    def test_incidents_route_404_without_detection(self):
        warp = WarpSystem()
        status, payload = _admin_json(warp, "GET", "/warp/admin/incidents")
        assert status == 404
        assert "/warp/admin/incidents" in payload["error"]  # unmounted = unknown

    def test_flagged_requests_open_and_merge_incidents(self):
        warp, _, clients = _detect_warp()
        response = _inject(clients["alice"])
        assert response.headers.get("X-Warp-Flagged") == "1"
        _inject(clients["alice"], UNION_PAYLOAD)  # same client, same (None) visit
        _inject(clients["bob"])
        entries = warp.incidents.list()
        assert len(entries) == 2
        merged = next(e for e in entries if e["client_id"] == "alice-load")
        assert len(merged["run_ids"]) == 2
        assert "injection:tautology" in merged["reasons"]
        assert "injection:union" in merged["reasons"]
        # Headerless load traffic presents no visit id, so the derived
        # spec falls back to cancelling the whole suspect client.
        assert merged["spec"]["kind"] == "cancel_client"

    def test_refresh_param_materializes_previews(self):
        warp, _, clients = _detect_warp()
        _inject(clients["alice"])
        status, payload = _admin_json(
            warp, "GET", "/warp/admin/incidents", refresh="1", force="1"
        )
        assert status == 200
        assert payload["n_incidents"] == 1
        preview = payload["incidents"][0]["preview"]
        assert preview is not None
        assert preview["affected_runs"] >= 1
        assert 0.0 <= preview["estimated_reexec_fraction"] <= 1.0

    def test_preview_skips_unchanged_graph_and_force_overrides(self):
        warp, _, clients = _detect_warp()
        _inject(clients["alice"])
        assert warp.incidents.refresh_once() == 1
        assert warp.incidents.refresh_once() == 0  # run-count stamp unchanged
        assert warp.incidents.refresh_once(force=True) == 1

    def test_one_click_repair_resolves_incident(self):
        warp, wiki, clients = _detect_warp()
        _inject(clients["alice"])
        incident_id = warp.incidents.list()[0]["incident_id"]
        status, accepted = _admin_json(
            warp, "POST", f"/warp/admin/incidents/{incident_id}/repair"
        )
        assert status == 202
        job_id = accepted["job_id"]
        for _ in range(500):
            _, job = _admin_json(warp, "GET", f"/warp/admin/repair/{job_id}")
            if job["status"] in ("done", "failed", "aborted", "canceled"):
                break
            time.sleep(0.01)
        assert job["status"] == "done"
        _, entry = _admin_json(
            warp, "GET", f"/warp/admin/incidents/{incident_id}"
        )
        assert entry["status"] == "resolved"
        assert warp.incidents.open_incidents() == []

    def test_dismiss_closes_without_repair(self):
        warp, _, clients = _detect_warp()
        _inject(clients["alice"])
        incident_id = warp.incidents.list()[0]["incident_id"]
        status, payload = _admin_json(
            warp, "POST", f"/warp/admin/incidents/{incident_id}/dismiss"
        )
        assert status == 200
        assert payload["status"] == "dismissed"
        assert warp.incidents.open_incidents() == []

    def test_unknown_incident_404(self):
        warp, _, _ = _detect_warp()
        status, _ = _admin_json(warp, "GET", "/warp/admin/incidents/inc-999")
        assert status == 404


# ---------------------------------------------------------------------------
# durable incidents: save/load and crash recovery
# ---------------------------------------------------------------------------


class TestIncidentDurability:
    def test_incidents_and_previews_survive_save_load(self, tmp_path):
        warp, _, clients = _detect_warp(wal_path=str(tmp_path / "wal.jsonl"))
        _inject(clients["alice"])
        assert warp.incidents.refresh_once(force=True) == 1
        before = warp.incidents.list()
        snap = str(tmp_path / "snap.json")
        warp.save(snap)

        reloaded = WarpSystem.load(snap, wal_path=str(tmp_path / "wal.jsonl"))
        # detection_config travels in the snapshot: the detector and the
        # incident manager come back without any caller wiring.
        assert reloaded.detector is not None
        after = reloaded.incidents.list()
        assert [e["incident_id"] for e in after] == [
            e["incident_id"] for e in before
        ]
        assert after[0]["preview"] == before[0]["preview"]
        assert after[0]["reasons"] == before[0]["reasons"]
        # The reloaded manager is live: previews keep refreshing and the
        # detector keeps flagging new traffic.
        assert reloaded.incidents.refresh_once(force=True) == 1
        wiki = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
        wiki.register_code()
        evil = LoadClient("bob", reloaded.server)
        assert evil.login("pw-bob").status == 200
        _inject(evil)
        assert len(reloaded.incidents.list()) == 2

    def test_incidents_survive_crash_reload_from_wal(self, tmp_path):
        plane = FaultPlane()
        warp, _, clients = _detect_warp(
            plane=plane, wal_path=str(tmp_path / "wal.jsonl")
        )
        _inject(clients["alice"])
        _inject(clients["bob"], UNION_PAYLOAD)
        before = warp.incidents.list()
        assert len(before) == 2
        warp.graph.store.wal._mark_crashed()

        reloaded = WarpSystem.load(None, wal_path=str(tmp_path / "wal.jsonl"))
        # WAL-only recovery carries no snapshot config, so detection is
        # re-armed by the operator — over the replayed incident records.
        assert reloaded.detector is None
        assert sorted(reloaded.graph.store.incidents.entries) == sorted(
            e["incident_id"] for e in before
        )
        reloaded.enable_detection()
        after = {e["incident_id"]: e for e in reloaded.incidents.list()}
        for entry in before:
            survivor = after[entry["incident_id"]]
            assert survivor["status"] == "open"
            assert survivor["reasons"] == entry["reasons"]
            assert survivor["spec"] == entry["spec"]


# ---------------------------------------------------------------------------
# the preview-refresh locking contract (no store-lock across the sweep)
# ---------------------------------------------------------------------------


class TestPreviewLockContract:
    def test_slow_plan_does_not_starve_writes_across_sweep(self, tmp_path):
        """Regression for the lock contract: refresh_once takes the store
        lock per incident, so a live write slots in between two slow
        plans instead of waiting out the whole sweep."""
        plane = FaultPlane()
        warp, _, clients = _detect_warp(plane=plane)
        _inject(clients["alice"])
        _inject(clients["bob"])
        assert len(warp.incidents.open_incidents()) == 2
        # Two stalled plans, 0.4s each: a sweep-wide lock would pin the
        # store for ~0.8s; per-incident locking releases at ~0.4s.
        plane.arm(point="detect.preview", kind="stall", times=2, fraction=0.4)

        done = {}

        def sweep():
            done["refreshed"] = warp.incidents.refresh_once(force=True)
            done["sweep_end"] = time.perf_counter()

        refresher = threading.Thread(target=sweep)
        refresher.start()
        time.sleep(0.1)  # inside the first stalled plan
        issued = time.perf_counter()
        response = clients["alice"].send(
            clients["alice"].request(
                "POST", "/edit.php", {"title": PAGE, "append": "\ninterleaved"}
            )
        )
        write_done = time.perf_counter()
        refresher.join()
        assert response.status == 200
        assert done["refreshed"] == 2
        # The write finished before the sweep did — impossible if the
        # lock were held across both plans — and waited at most one
        # stalled plan, not two.
        assert write_done < done["sweep_end"]
        assert write_done - issued < 0.65, f"write waited {write_done - issued:.2f}s"

    def test_stalled_plan_is_an_error_not_a_wedge(self):
        """A plan that *fails* (fault kind error) is captured on the
        incident and the sweep moves on."""
        plane = FaultPlane()
        warp, _, clients = _detect_warp(plane=plane)
        _inject(clients["alice"])
        plane.arm(point="detect.preview", kind="error", times=1)
        assert warp.incidents.refresh_once(force=True) == 0
        entry = warp.incidents.list()[0]
        assert entry["preview_error"]
        # Next sweep recovers and clears the error.
        assert warp.incidents.refresh_once(force=True) == 1
        assert warp.incidents.list()[0]["preview_error"] is None


# ---------------------------------------------------------------------------
# the attack corpus: coverage, determinism, exact recovery
# ---------------------------------------------------------------------------

CORPUS = generate_corpus(seed=0)


class TestCorpus:
    def test_corpus_coverage(self):
        assert len(CORPUS) >= 20
        assert len(ATTACK_CLASSES) >= 6
        assert {s.attack_class for s in CORPUS} == set(ATTACK_CLASSES)
        assert {s.app_shape for s in CORPUS} == set(APP_SHAPES)
        assert set(INJECTION_CLASSES) <= set(ATTACK_CLASSES)
        assert len({s.name for s in CORPUS}) == len(CORPUS)

    def test_generator_is_deterministic_per_seed(self):
        assert describe_corpus(5) == describe_corpus(5)
        assert describe_corpus(5) != describe_corpus(6)
        assert [s.describe() for s in generate_corpus(seed=0)] == [
            s.describe() for s in CORPUS
        ]

    @pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
    def test_scenario_recovers_exactly_through_incident_path(self, scenario):
        report = run_scenario_end_to_end(scenario)
        assert report["errors"] == [], "\n".join(report["errors"])
        assert report["incidents"] >= 1


# ---------------------------------------------------------------------------
# loadgen attacker mix
# ---------------------------------------------------------------------------


class TestLoadgenAttackMix:
    def test_invalid_rate_rejected(self):
        client = LoadClient("x", None)
        with pytest.raises(ValueError):
            LoadGen([client], ["P"], attack_rate=1.5)
        with pytest.raises(ValueError):
            LoadGen([client], ["P"], attack_rate=-0.1)

    def test_zero_rate_issues_no_attacks(self):
        warp, _, clients = _detect_warp()
        gen = LoadGen([clients["alice"]], [PAGE], seed=3)
        stats = LoadStats()
        rng = random.Random(1)
        for _ in range(30):
            gen.issue(rng, stats)
        assert stats.attacks == []
        summary = stats.detection_summary()
        assert summary["attacks"] == 0
        assert summary["false_positives"] == 0
        assert summary["recall"] == 1.0 and summary["precision"] == 1.0

    def test_attack_mix_joins_markers_against_flag_stamps(self):
        warp, _, clients = _detect_warp()
        gen = LoadGen(
            [clients["alice"], clients["bob"]],
            [PAGE, "Workshop"],
            seed=3,
            attack_rate=0.25,
        )
        stats = LoadStats()
        rng = random.Random(7)
        for _ in range(150):
            gen.issue(rng, stats)
        summary = stats.detection_summary()
        assert summary["attacks"] > 0
        assert len(stats.attacks) == summary["attacks"]
        assert summary["recall"] == 1.0, summary
        assert summary["precision"] == 1.0, summary
        assert summary["false_positives"] == 0
        # The flagged stream landed as incidents (merged per client).
        assert warp.incidents.status()["incidents"] >= 1

    def test_attack_payloads_are_state_safe(self):
        """The mixed-in payloads must not corrupt the site: benign write
        markers still land exactly once and pages carry no payload."""
        warp, wiki, clients = _detect_warp()
        gen = LoadGen([clients["alice"]], [PAGE], seed=5, attack_rate=0.3)
        stats = LoadStats()
        rng = random.Random(2)
        for _ in range(80):
            gen.issue(rng, stats)
        text = wiki.page_text(PAGE)
        for marker, page in stats.writes:
            assert text.count(marker) == 1, (marker, page)
        assert "UNION" not in text


# ---------------------------------------------------------------------------
# shard coordinator union view
# ---------------------------------------------------------------------------


class TestShardIncidentsUnion:
    # crc32 spreads 0 and 4 over the two shards (see RoutingTable).
    TENANTS = [0, 4]

    def test_union_view_stamps_owning_shard(self, tmp_path):
        cluster = ShardCluster(
            2,
            str(tmp_path),
            transport="local",
            tenants=self.TENANTS,
            shared_users=["mallory"],
        )
        try:
            for worker in cluster.workers:
                worker.warp.enable_detection()
            for tenant in self.TENANTS:
                response = cluster.handle(
                    HttpRequest(
                        "GET",
                        "/special_maintenance.php",
                        params={"thelang": TAUTOLOGY_PAYLOAD},
                        headers={
                            CLIENT_HEADER: "mallory-c",
                            TENANT_HEADER: f"tenant{tenant}",
                        },
                    )
                )
                assert response.headers.get("X-Warp-Flagged") == "1"
            response = cluster.handle(
                HttpRequest(
                    "GET",
                    "/warp/admin/shard/incidents",
                    params={"refresh": "1", "force": "1"},
                )
            )
            assert response.status == 200
            payload = json.loads(response.body)
            assert payload["n_incidents"] == 2
            assert {entry["shard"] for entry in payload["incidents"]} == {0, 1}
            for entry in payload["incidents"]:
                assert entry["preview"] is not None
            assert {
                shard: view["incidents"]
                for shard, view in payload["per_shard"].items()
            } == {"0": 1, "1": 1}
        finally:
            cluster.close()

    def test_union_view_reports_detectionless_workers(self, tmp_path):
        cluster = ShardCluster(
            2,
            str(tmp_path),
            transport="local",
            tenants=self.TENANTS,
        )
        try:
            cluster.workers[0].warp.enable_detection()
            response = cluster.handle(
                HttpRequest("GET", "/warp/admin/shard/incidents")
            )
            payload = json.loads(response.body)
            assert payload["n_incidents"] == 0
            assert payload["per_shard"]["0"]["status"] == 200
            assert payload["per_shard"]["1"]["status"] == 404
        finally:
            cluster.close()
