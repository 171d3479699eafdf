"""Multi-process sharding (repro.shard): routing, wire, planning,
fan-out repair, and the single-process equivalence acceptance.

The equivalence property (ISSUE 9 acceptance): a cross-shard attack
repaired by the coordinator's fan-out recovers every tenant's ground
truth **identically** to the same workload + attack + repair run on one
unsharded WarpSystem.  Both arms replay the exact same request sequence
(deterministic per seed), so any divergence is the sharding layer's
fault, not the workload's.
"""

import json
import os
import random
import threading
import time

import pytest

import persistence_fixtures as fixtures
from repro.apps.wiki.app import WikiApp
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec, DbFixSpec, RepairBatch, parse_spec
from repro.repair.stats import merge_stats_dicts
from repro.shard import (
    LocalShardClient,
    RoutingTable,
    ShardCluster,
    ShardConfig,
    ShardWorker,
    default_route_key,
)
from repro.shard.routing import SHARD_HEADER, TENANT_HEADER
from repro.shard.wire import ProcShardClient, ShardWireError
from repro.shard.worker import (
    authkey_for,
    load_or_create_shard,
    shard_layout,
    spawn_worker,
)
from repro.store.snapshot import read_snapshot_header
from repro.warp import WarpSystem

# Tenant numbers chosen so crc32 spreads them over 2 shards: 0,1 -> one
# shard, 4,5 -> the other (see RoutingTable.shard_of).
TENANTS = [0, 1, 4, 5]
ATTACKER = "mallory"


# ---------------------------------------------------------------------------
# driving helpers
# ---------------------------------------------------------------------------


class Session:
    """Cookie-jar session against any .handle(request) facade."""

    def __init__(self, name, target):
        self.name = name
        self.target = target
        self.cookies = {}

    def send(self, method, path, tenant=None, **params):
        headers = {"X-Warp-Client": f"{self.name}-c"}
        if tenant is not None:
            headers[TENANT_HEADER] = f"tenant{tenant}"
        request = HttpRequest(
            method, path, params=params, cookies=dict(self.cookies), headers=headers
        )
        response = self.target.handle(request)
        for key, value in response.set_cookies.items():
            if value is None:
                self.cookies.pop(key, None)
            else:
                self.cookies[key] = value
        return response

    def login(self, tenant, user=None):
        user = user or self.name
        self.cookies = {}
        response = self.send(
            "POST", "/login.php", tenant, wpName=user, wpPassword=f"pw-{user}"
        )
        assert response.status == 200, response.body
        return response


def page_text(target, tenant):
    request = HttpRequest(
        "GET",
        "/index.php",
        params={"title": f"tenant{tenant}_wiki"},
        headers={TENANT_HEADER: f"tenant{tenant}"},
    )
    return target.handle(request).body


def generate_workload(seed, tenants=TENANTS, edits_per_user=2):
    """Deterministic request plan: per tenant, each user logs in and
    appends; the attacker then logs into every tenant and defaces it.
    Each client's stream visits tenants in contiguous blocks (one login
    per block), so the single cookie jar never straddles two shards."""
    rng = random.Random(seed)
    plan = []  # (client, "login"|"edit", tenant, text)
    for tenant in tenants:
        for index in (1, 2):
            user = f"t{tenant}_user{index}"
            plan.append((user, "login", tenant, None))
            for edit in range(edits_per_user):
                plan.append(
                    (user, "edit", tenant, f"edit-{user}-{rng.randrange(1000)}")
                )
    for tenant in rng.sample(tenants, len(tenants)):
        plan.append((ATTACKER, "login", tenant, None))
        plan.append((ATTACKER, "edit", tenant, f"DEFACED-t{tenant}"))
    return plan


def apply_workload(target, plan):
    sessions = {}
    for client, op, tenant, text in plan:
        session = sessions.setdefault(client, Session(client, target))
        if op == "login":
            session.login(tenant)
        else:
            response = session.send(
                "POST",
                "/edit.php",
                tenant,
                title=f"tenant{tenant}_wiki",
                append=f"\n{text}",
            )
            assert response.status == 200, response.body


def single_process_system():
    """The unsharded reference arm: one WarpSystem hosting every tenant,
    seeded through the same factory the workers use."""
    from repro.shard.bootstrap import wiki_tenants

    warp = WarpSystem()
    wiki = wiki_tenants(
        warp,
        True,
        {"tenants": TENANTS, "users_per_tenant": 2, "shared_users": [ATTACKER]},
    )
    return warp, wiki


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_mapping_is_stable_and_in_range(self):
        table = RoutingTable(4)
        for key in ("tenant0", "alice-c", "/index.php", "tenant123_wiki"):
            shard = table.shard_of(key)
            assert 0 <= shard < 4
            assert table.shard_of(key) == shard  # stable

    def test_pins_override_and_validate(self):
        table = RoutingTable(2, pins={"hot": 1})
        assert table.shard_of("hot") == 1
        table.pin("hot", 0)
        assert table.shard_of("hot") == 0
        with pytest.raises(ValueError):
            table.pin("x", 2)
        with pytest.raises(ValueError):
            RoutingTable(0)

    def test_round_trips_through_json(self):
        table = RoutingTable(3, pins={"a": 2})
        twin = RoutingTable.from_dict(json.loads(json.dumps(table.to_dict())))
        assert twin.n_shards == 3 and twin.shard_of("a") == 2

    def test_route_key_precedence(self):
        # tenant header > tenant/title param > client id > path
        def key(headers=None, params=None):
            return default_route_key(
                HttpRequest("GET", "/p", params=params or {}, headers=headers or {})
            )

        assert key({TENANT_HEADER: "tenant7"}, {"title": "x"}) == "tenant7"
        assert key(params={"title": "pageX"}) == "pageX"
        assert key({"X-Warp-Client": "c9"}) == "c9"
        assert key() == "/p"

    def test_cluster_pins_title_and_header_keys_together(self, tmp_path):
        cluster = ShardCluster(
            2, str(tmp_path), transport="local", tenants=TENANTS
        )
        try:
            for tenant in TENANTS:
                assert cluster.routing.shard_of(
                    f"tenant{tenant}"
                ) == cluster.routing.shard_of(f"tenant{tenant}_wiki")
            placed = set(cluster.tenant_shards.values())
            assert placed == {0, 1}  # the chosen tenants really spread
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# wire + worker
# ---------------------------------------------------------------------------


class TestWireAndWorker:
    @pytest.fixture
    def make_worker(self, tmp_path, closing):
        """A worker over ``tmp_path``, its deployment closed at teardown."""

        def make(shard_id=0, tenants=(0,)):
            worker = ShardWorker(
                ShardConfig(
                    shard_id=shard_id,
                    data_dir=str(tmp_path),
                    app_args={"tenants": list(tenants), "shared_users": [ATTACKER]},
                )
            )
            closing(worker.warp)
            return worker

        return make

    def test_frames_round_trip_json(self, make_worker):
        worker = make_worker()
        client = LocalShardClient(worker)
        ping = client.ping()
        assert ping["ok"] and ping["shard"] == 0
        response = client.request(
            HttpRequest(
                "GET",
                "/index.php",
                params={"title": "tenant0_wiki"},
                headers={TENANT_HEADER: "tenant0"},
            )
        )
        assert response.status == 200
        assert "tenant 0" in response.body

    def test_unknown_op_and_handler_errors_stay_on_the_wire(self, make_worker):
        worker = make_worker()
        client = LocalShardClient(worker)
        assert not worker.handle_frame({"op": "nope"})["ok"]
        assert not worker.handle_frame({"op": "http"})["ok"]
        # A handler exception becomes an error reply, not a dead worker.
        worker.warp.server.routes.clear()
        del worker.warp.server.routes  # force an attribute error inside handle

        with pytest.raises(ShardWireError):
            client.request(HttpRequest("GET", "/index.php"))
        assert client.ping()["ok"]  # still serving

    def test_misrouted_request_answers_421(self, make_worker):
        worker = make_worker(shard_id=1)
        client = LocalShardClient(worker)
        wrong = HttpRequest(
            "GET",
            "/index.php",
            params={"title": "tenant0_wiki"},
            headers={SHARD_HEADER: "0"},
        )
        response = client.request(wrong)
        assert response.status == 421
        assert response.headers[SHARD_HEADER] == "1"
        right = HttpRequest(
            "GET",
            "/index.php",
            params={"title": "tenant0_wiki"},
            headers={SHARD_HEADER: "1"},
        )
        assert client.request(right).status == 200

    def test_misrouted_write_is_refused_before_it_records(self, make_worker):
        worker = make_worker(shard_id=1)
        client = LocalShardClient(worker)
        text_before = page_text(worker, 0)
        runs_before = worker.warp.graph.n_runs
        wrong = HttpRequest(
            "POST",
            "/edit.php",
            params={"title": "tenant0_wiki", "append": "\nmisrouted"},
            headers={SHARD_HEADER: "0", TENANT_HEADER: "tenant0"},
        )
        assert client.request(wrong).status == 421
        # Refused at the worker, before the server: no run was recorded
        # and the page is untouched.
        assert worker.warp.graph.n_runs == runs_before
        assert page_text(worker, 0) == text_before
        assert "misrouted" not in text_before

    def test_worker_reload_keeps_data(self, make_worker):
        worker = make_worker()
        client = LocalShardClient(worker)
        session = Session("t0_user1", worker)
        session.login(0)
        session.send(
            "POST", "/edit.php", 0, title="tenant0_wiki", append="\npersisted"
        )
        status, payload = client.admin_json("POST", "/warp/admin/shard/save")
        assert status == 200 and payload["saved"].endswith("snapshot.json")

        reborn = make_worker()
        assert "persisted" in page_text(reborn, 0)
        assert LocalShardClient(reborn).ping()["shard"] == 0

    def test_a_sqlite_shard_restarts_from_its_wal_alone(self, tmp_path, closing):
        """A SQLite shard that dies before its first save boots again from
        its WAL: the second boot installs into a database of its own (the
        first boot's files are never read back) and its replayed graph
        holds every run the first boot acknowledged."""
        config = ShardConfig(
            shard_id=0,
            data_dir=str(tmp_path),
            app_args={"tenants": [0], "shared_users": [ATTACKER]},
            warp_kwargs={"db_backend": "sqlite"},
        )
        first = ShardWorker(config)
        session = Session("t0_user1", first)
        session.login(0)
        response = session.send(
            "POST", "/edit.php", 0, title="tenant0_wiki", append="\nbefore the crash"
        )
        assert response.status == 200
        acknowledged = set(first.warp.graph.runs)
        first.warp.graph.wal._mark_crashed()

        reborn = ShardWorker(config)
        closing(reborn.warp)
        assert reborn.warp.database.backend == "sqlite"
        assert reborn.warp.database.path != first.warp.database.path
        assert acknowledged <= set(reborn.warp.graph.runs)
        assert Session("t0_user1", reborn).login(0).status == 200

    def test_config_written_by_the_previous_commit_still_loads(self):
        """``ShardConfig.to_dict`` of PR 16 carried two keys that are gone
        (the server pool's size and queue depth): ``from_dict`` must keep
        ignoring them."""
        path = os.path.join(os.path.dirname(__file__), "fixtures", "shard_config_pr16.json")
        with open(path, "r", encoding="utf-8") as fh:
            written = json.load(fh)
        config = ShardConfig.from_dict(written)
        kept = config.to_dict()
        assert len(set(written) - set(kept)) == 2
        assert kept == {key: written[key] for key in kept}

    def test_a_save_mid_traffic_keeps_the_shard_history(self, tmp_path, closing):
        """Writes before and after a shard save: the next start reloads the
        snapshot plus the WAL tail behind it as the live graph, and every
        text id the snapshot and that tail refer to resolves within them
        (one segment of snapshot format 5)."""
        config = ShardConfig(
            shard_id=0,
            data_dir=str(tmp_path),
            app_args={"tenants": [0], "shared_users": [ATTACKER]},
        )
        layout = shard_layout(str(tmp_path), 0)

        def assert_ids_resolve(warp):
            assert fixtures.undefined_refs(fixtures.segment(layout["snapshot"], layout["wal"])) == []
            store = warp.graph
            for run in store.runs.values():
                if run.json_text is not None:
                    refs = fixtures.text_refs("run", json.loads(run.json_text))
                    assert refs <= set(store.texts.by_id)

        def serve_around_a_save(worker):
            closing(worker.warp)
            session = Session("t0_user1", worker)
            session.login(0)
            for i in range(24):
                if i == 12:
                    status, _ = LocalShardClient(worker).admin_json(
                        "POST", "/warp/admin/shard/save"
                    )
                    assert status == 200
                response = session.send(
                    "POST", "/edit.php", 0, title="tenant0_wiki", append=f"\nsave{i}"
                )
                assert response.status == 200
            saved_runs = read_snapshot_header(layout["snapshot"])["records"]["run"]
            assert 0 < saved_runs < worker.warp.graph.n_runs
            assert_ids_resolve(worker.warp)
            return worker.warp.graph.to_snapshot()

        live = serve_around_a_save(ShardWorker(config))
        reborn = ShardWorker(config)
        assert reborn.warp.graph.to_snapshot() == live
        live = serve_around_a_save(reborn)
        warp, fresh = load_or_create_shard(config.data_dir, 0)
        closing(warp)
        assert fresh is False
        assert warp.graph.to_snapshot() == live
        assert_ids_resolve(warp)

    def test_a_wal_only_reboot_keeps_the_shard_settings(self, tmp_path, closing):
        """A shard that crashed before its first save reboots from its WAL
        alone with the keywords it boots with: the log it appends to keeps
        their durability."""
        root = str(tmp_path)
        warp, fresh = load_or_create_shard(root, 0, durability="none")
        assert fresh and warp.graph.wal.durability == "none"
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.install()
        wiki.seed_page("Home", "welcome", "admin")
        read = HttpRequest("GET", "/index.php", params={"title": "Home"})
        assert warp.server.handle(read).status == 200
        warp.close()
        assert not os.path.exists(shard_layout(root, 0)["snapshot"])

        reborn, fresh = load_or_create_shard(root, 0, durability="none")
        closing(reborn)
        assert fresh and reborn.graph.n_runs == warp.graph.n_runs == 1
        assert reborn.durability == reborn.graph.wal.durability == "none"


# ---------------------------------------------------------------------------
# merging per-shard repair stats
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_merge_stats_sums_and_tags_origin(self):
        a = {"runs_canceled": 2, "conflicts": 1, "groups": [{"runs": 2}],
             "gate": {"queued": 3}, "breakdown": {"total": 1.0}}
        b = {"runs_canceled": 1, "conflicts": 0, "groups": [],
             "gate": {}, "breakdown": {"total": 0.5}}
        merged = merge_stats_dicts({0: a, 1: b})
        assert merged["runs_canceled"] == 3
        assert merged["conflicts"] == 1
        assert merged["groups"] == [{"runs": 2, "shard": 0}]
        assert merged["gate"] == {"shard0.queued": 3}
        assert merged["breakdown"]["total"] == 1.5
        assert merged["per_shard"] == [0, 1]


# ---------------------------------------------------------------------------
# coordinator behavior over a live local cluster
# ---------------------------------------------------------------------------


@pytest.fixture
def cluster(tmp_path):
    cluster = ShardCluster(
        2,
        str(tmp_path),
        transport="local",
        tenants=TENANTS,
        shared_users=[ATTACKER],
    )
    yield cluster
    cluster.close()


def deface(cluster, tenants=TENANTS):
    attacker = Session(ATTACKER, cluster)
    for tenant in tenants:
        attacker.login(tenant)
        attacker.send(
            "POST",
            "/edit.php",
            tenant,
            title=f"tenant{tenant}_wiki",
            append=f"\nDEFACED-t{tenant}",
        )


class TestCoordinator:
    def test_routes_by_tenant_and_stamps_shard(self, cluster):
        apply_workload(cluster, generate_workload(3))
        # Tenants landed on the shard the routing table says, and only
        # there (disjoint databases).
        for tenant in TENANTS:
            home = cluster.tenant_shards[tenant]
            for shard, worker in enumerate(cluster.workers):
                text = worker.app.page_text(f"tenant{tenant}_wiki")
                if shard == home:
                    assert text is not None
                else:
                    assert text is None

    def test_forwarding_leaves_the_callers_request_alone(self, cluster):
        """The shard stamp rides on the frame: the worker sees it, and the
        request the caller handed in is exactly as it was."""
        home = cluster.tenant_shards[0]
        request = HttpRequest(
            "GET",
            "/index.php",
            params={"title": "tenant0_wiki"},
            cookies={"sess": "nobody"},
            headers={TENANT_HEADER: "tenant0", "X-Warp-Client": "reader-c"},
        )
        admin = HttpRequest("GET", "/warp/admin/repair", params={"shard": str(home)})
        before = [request.copy(), admin.copy()]
        assert cluster.handle(request).status == 200
        assert cluster.handle(admin).status == 200
        assert [request, admin] == before
        assert SHARD_HEADER not in request.headers | admin.headers
        runs = cluster.workers[home].warp.graph.runs
        served = runs[max(runs)].request
        assert served.params == request.params and served.cookies == request.cookies
        assert served.headers == {**request.headers, SHARD_HEADER: str(home)}

    def test_admin_forwarding_needs_explicit_shard(self, cluster):
        response = cluster.handle(HttpRequest("GET", "/warp/admin/repair"))
        assert response.status == 400
        response = cluster.handle(
            HttpRequest("GET", "/warp/admin/repair", params={"shard": "1"})
        )
        assert response.status == 200
        assert json.loads(response.body)["jobs"] == []
        response = cluster.handle(
            HttpRequest("GET", "/warp/admin/repair", params={"shard": "9"})
        )
        assert response.status == 404

    def test_worker_shard_routes_reachable_through_coordinator(self, cluster):
        # A worker mounts /warp/admin/shard/save under the same prefix as
        # the coordinator's own views; an explicit shard parameter must
        # reach the worker, not the coordinator's broadcast of that name.
        for shard in (0, 1):
            response = cluster.handle(
                HttpRequest(
                    "POST", "/warp/admin/shard/save", params={"shard": str(shard)}
                )
            )
            assert response.status == 200, response.body
            saved = json.loads(response.body)["saved"]
            assert saved == shard_layout(cluster.root, shard)["snapshot"]
            assert os.path.exists(saved)
        # The identity and touch-summary rows are gone from the workers:
        # ``ping`` carries the identity, the previews plan the repair.
        for path in ("/warp/admin/shard/info", "/warp/admin/shard/touch-summary"):
            response = cluster.handle(HttpRequest("GET", path, params={"shard": "0"}))
            assert response.status == 404, path
            response = cluster.handle(HttpRequest("GET", path))
            assert response.status == 404, path

    def test_status_reports_every_shard(self, cluster):
        response = cluster.handle(HttpRequest("GET", "/warp/admin/shard/status"))
        doc = json.loads(response.body)
        assert doc["n_shards"] == 2
        assert set(doc["shards"]) == {"0", "1"}
        assert all(ping["ok"] for ping in doc["shards"].values())
        response = cluster.handle(HttpRequest("POST", "/warp/admin/shard/status"))
        assert response.status == 405

    def test_save_broadcast_saves_every_shard_at_once(self, cluster):
        """Each worker writes its own snapshot, so the broadcast runs the
        saves side by side: neither passes the barrier until both are in."""
        apply_workload(cluster, generate_workload(4))
        barrier = threading.Barrier(len(cluster.workers), timeout=10)
        for worker in cluster.workers:

            def save(path, save=worker.warp.save):
                barrier.wait()
                save(path)

            worker.warp.save = save
        response = cluster.handle(HttpRequest("POST", "/warp/admin/shard/save"))
        assert response.status == 200, response.body
        saved = json.loads(response.body)["saved"]
        assert sorted(saved) == ["0", "1"]
        for reply in saved.values():
            assert reply["status"] == 200
            assert read_snapshot_header(reply["saved"])["records"]["run"] > 0

    def test_plan_targets_only_damaged_shards(self, cluster):
        apply_workload(cluster, generate_workload(5))
        spec = CancelClientSpec(client_id=f"{ATTACKER}-c")
        plan = cluster.coordinator.plan(spec)
        assert plan["targets"] == [0, 1]
        assert plan["handoffs"] == [
            {"client": f"{ATTACKER}-c", "shards": [0, 1]}
        ]
        # A client confined to one shard targets one shard.
        one = cluster.coordinator.plan(CancelClientSpec(client_id="t0_user1-c"))
        assert one["targets"] == [cluster.tenant_shards[0]]

    def test_handoffs_come_from_the_previews(self, cluster):
        """A handoff is a client the previews of two shards both list as
        affected.  A DB fix on one tenant's page damages one shard only,
        so it has none — although the attacker is active on both."""
        apply_workload(cluster, generate_workload(5))
        spec = DbFixSpec(
            sql="UPDATE pagecontent SET old_text = ? WHERE title = ?",
            params=["x", "tenant0_wiki"],
            ts=1,
        )
        plan = cluster.coordinator.plan(spec)
        home = cluster.tenant_shards[0]
        assert f"{ATTACKER}-c" in plan["previews"][home]["affected_clients"]
        assert plan["previews"][1 - home]["affected_clients"] == []
        assert plan["handoffs"] == []
        # The other shard's preview has the fix's partitions and nothing
        # else — no run, no row — so it is no target.
        assert plan["targets"] == [home]
        assert set(plan) == {"previews", "targets", "handoffs"}

    def test_fix_on_a_row_no_run_touched_stays_a_target(self, cluster):
        """A fix that writes a seeded row no recorded run touched has no
        affected runs, but it is still work: its shard's ``fix_rows``
        keeps it a target, and the repair applies the fix there only."""
        apply_workload(cluster, generate_workload(5, tenants=[4, 5]))
        home = cluster.tenant_shards[0]
        warp = cluster.workers[home].warp
        spec = DbFixSpec(
            sql="UPDATE users SET password = ? WHERE name = ?",
            params=["rotated", "t0_user1"],
            ts=warp.clock.now(),
        )
        plan = cluster.coordinator.plan(spec)
        preview = plan["previews"][home]
        assert (preview["affected_runs"], preview["seed_runs"]) == (0, 0)
        assert preview["fix_rows"] == 1
        assert plan["previews"][1 - home]["fix_rows"] == 0
        assert plan["targets"] == [home]
        result = cluster.coordinator.repair(spec)
        assert result.ok and sorted(result.per_shard) == [home]
        row = warp.ttdb.execute(
            "SELECT password FROM users WHERE name = 't0_user1'"
        ).one()
        assert row["password"] == "rotated"

    def test_fanout_repairs_every_shard(self, cluster):
        apply_workload(cluster, generate_workload(7))
        result = cluster.coordinator.repair(
            CancelClientSpec(client_id=f"{ATTACKER}-c")
        )
        assert result.ok and result.status == "done"
        assert sorted(result.per_shard) == [0, 1]
        assert result.stats["runs_canceled"] > 0
        for tenant in TENANTS:
            assert "DEFACED" not in page_text(cluster, tenant)
        # The dispatch rode the ordinary jobs API: one job per shard.
        for shard in (0, 1):
            response = cluster.handle(
                HttpRequest(
                    "GET", "/warp/admin/repair", params={"shard": str(shard)}
                )
            )
            assert len(json.loads(response.body)["jobs"]) == 1

    def test_clean_spec_dispatches_nothing(self, cluster):
        apply_workload(cluster, generate_workload(9))
        result = cluster.coordinator.repair(
            CancelClientSpec(client_id="nobody-c")
        )
        assert result.ok and result.per_shard == {}

    def test_malformed_spec_is_a_400_through_the_coordinator(self, cluster):
        for raw in ('{"kind": "nope"}', "[1,2]", '{"kind": 3}'):
            response = cluster.handle(
                HttpRequest(
                    "POST", "/warp/admin/shard/repair", params={"spec": raw}
                )
            )
            assert response.status == 400, raw
            assert "error" in json.loads(response.body)

    def test_async_repair_endpoint(self, cluster):
        apply_workload(cluster, generate_workload(11))
        spec = json.dumps(CancelClientSpec(client_id=f"{ATTACKER}-c").to_dict())
        response = cluster.handle(
            HttpRequest("POST", "/warp/admin/shard/repair", params={"spec": spec})
        )
        assert response.status == 202
        dist_id = json.loads(response.body)["dist_id"]
        cluster.coordinator._async_threads[dist_id].join(timeout=60)
        response = cluster.handle(
            HttpRequest("GET", f"/warp/admin/shard/repair/{dist_id}")
        )
        doc = json.loads(response.body)
        assert doc["status"] == "done" and doc["ok"]
        response = cluster.handle(
            HttpRequest("POST", f"/warp/admin/shard/repair/{dist_id}")
        )
        assert response.status == 405


# ---------------------------------------------------------------------------
# the acceptance property: sharded == single-process, per seed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_cross_shard_repair_matches_single_process(seed, tmp_path):
    plan = generate_workload(seed, edits_per_user=2)
    spec = CancelClientSpec(client_id=f"{ATTACKER}-c")

    # Arm 1: one unsharded system.
    warp, wiki = single_process_system()
    apply_workload(warp.server, plan)
    single_result = warp.repair.submit(spec).result(timeout=60)
    assert single_result.ok
    single_pages = {t: wiki.page_text(f"tenant{t}_wiki") for t in TENANTS}

    # Arm 2: the same requests through a 2-shard cluster.
    cluster = ShardCluster(
        2, str(tmp_path), transport="local", tenants=TENANTS,
        shared_users=[ATTACKER],
    )
    try:
        apply_workload(cluster, plan)
        dist = cluster.coordinator.repair(spec)
        assert dist.ok, dist.to_dict()
        for tenant in TENANTS:
            home = cluster.tenant_shards[tenant]
            sharded = cluster.workers[home].app.page_text(f"tenant{tenant}_wiki")
            assert sharded == single_pages[tenant], (
                f"seed {seed} tenant {tenant}: sharded repair diverged"
            )
            assert "DEFACED" not in (sharded or "")
        assert dist.stats["runs_canceled"] == single_result.stats.runs_canceled
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# real processes (spawn) — one smoke, kept small
# ---------------------------------------------------------------------------


def test_process_transport_end_to_end(tmp_path):
    cluster = ShardCluster(
        2,
        str(tmp_path),
        transport="proc",
        tenants=[0, 4],
        shared_users=[ATTACKER],
    )
    try:
        pings = {shard: client.ping() for shard, client in cluster.clients.items()}
        pids = {ping["pid"] for ping in pings.values()}
        assert len(pids) == 2  # really two processes
        assert all(ping["ok"] for ping in pings.values())

        deface(cluster, tenants=[0, 4])
        result = cluster.coordinator.repair(
            CancelClientSpec(client_id=f"{ATTACKER}-c")
        )
        assert result.ok
        assert sorted(result.per_shard) == [0, 1]
        for tenant in (0, 4):
            assert "DEFACED" not in page_text(cluster, tenant)
    finally:
        started = time.perf_counter()
        cluster.close()
        closing_s = time.perf_counter() - started
    # A clean shutdown wakes each worker's accept loop instead of waiting
    # out the 10 s join (closing a listener does not wake accept()).
    assert closing_s < 2.0
    assert [process.exitcode for process in cluster.processes] == [0, 0]


def wire_conversation(cluster):
    """Log in, append non-ASCII text, read it back and log out through the
    coordinator, with headers beyond the routing ones: each response as
    the transport delivered it."""
    headers = {
        TENANT_HEADER: "tenant0",
        "X-Warp-Client": "t0_user1-c",
        "X-Note": "caf\u00e9 \u2603",
    }
    login = cluster.handle(
        HttpRequest(
            "POST",
            "/login.php",
            params={"wpName": "t0_user1", "wpPassword": "pw-t0_user1"},
            headers=headers,
        )
    )
    cookies = {"sess": login.set_cookies["sess"]}
    steps = [
        ("POST", "/edit.php", {"title": "tenant0_wiki", "append": "\n\u00e7a \u2603 \U0001d11e"}),
        ("GET", "/index.php", {"title": "tenant0_wiki"}),
        ("GET", "/logout.php", {}),
    ]
    responses = [login]
    for method, path, params in steps:
        request = HttpRequest(method, path, params=params, cookies=cookies, headers=headers)
        responses.append(cluster.handle(request))
    return responses


def test_local_and_process_transports_answer_alike(tmp_path):
    """The in-process transport encodes every frame to the same bytes the
    socket carries, so both deliver the same responses: non-ASCII text,
    and a cookie deletion (``None``) included."""
    replies = {}
    for transport in ("local", "proc"):
        cluster = ShardCluster(
            2, str(tmp_path / transport), transport=transport, tenants=[0, 4]
        )
        try:
            replies[transport] = [
                (r.status, r.body, r.headers, r.set_cookies)
                for r in wire_conversation(cluster)
            ]
        finally:
            cluster.close()
    assert replies["local"] == replies["proc"]
    login, edit, read, logout = replies["proc"]
    assert login[3]["sess"] and logout[3] == {"sess": None}
    assert edit[0] == 200 and "\u00e7a \u2603 \U0001d11e" in read[1]


def test_a_worker_speaks_json_bytes_to_a_raw_connection(tmp_path):
    """The wire is the UTF-8 JSON text of each frame with a length prefix,
    nothing pickled: a bare connection that sends those bytes gets JSON
    bytes back, and bytes that are not JSON get an error reply, not a
    dropped connection."""
    from multiprocessing.connection import Client

    config = ShardConfig(shard_id=0, data_dir=str(tmp_path), app_args={"tenants": [0]})
    process, address = spawn_worker(config)
    client = ProcShardClient(address, authkey_for(config.secret), 0)  # waits for boot
    try:
        with Client(address, family="AF_UNIX", authkey=authkey_for(config.secret)) as raw:
            raw.send_bytes(b'{"op":"ping"}')
            reply = json.loads(raw.recv_bytes().decode("utf-8"))
            assert reply["ok"] and reply["shard"] == 0 and reply["pid"] == process.pid
            for garbage in (b"\x80 not json", b"[1]", b'{"op":"http","request":[]}'):
                raw.send_bytes(garbage)
                assert json.loads(raw.recv_bytes())["ok"] is False
            raw.send_bytes(b'{"op":"ping"}')
            assert json.loads(raw.recv_bytes())["ok"]
    finally:
        client.shutdown()
        client.close()
        process.join(timeout=10.0)
    assert process.exitcode == 0
