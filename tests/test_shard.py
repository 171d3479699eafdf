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
import time

import pytest

import persistence_fixtures as fixtures
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec, RepairBatch, parse_spec
from repro.repair.stats import merge_stats_dicts
from repro.shard import (
    LocalShardClient,
    RoutingTable,
    ShardCluster,
    ShardConfig,
    ShardWorker,
    default_route_key,
)
from repro.shard.plan import merge_touch_summaries
from repro.shard.routing import SHARD_HEADER, TENANT_HEADER
from repro.shard.wire import ShardWireError
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
    def make_worker(self, tmp_path, shard_id=0, tenants=(0,)):
        return ShardWorker(
            ShardConfig(
                shard_id=shard_id,
                data_dir=str(tmp_path),
                app_args={"tenants": list(tenants), "shared_users": [ATTACKER]},
            )
        )

    def test_frames_round_trip_json(self, tmp_path):
        worker = self.make_worker(tmp_path)
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

    def test_unknown_op_and_handler_errors_stay_on_the_wire(self, tmp_path):
        worker = self.make_worker(tmp_path)
        client = LocalShardClient(worker)
        assert not worker.handle_frame({"op": "nope"})["ok"]
        assert not worker.handle_frame({"op": "http"})["ok"]
        # A handler exception becomes an error reply, not a dead worker.
        worker.warp.server.routes.clear()
        del worker.warp.server.routes  # force an attribute error inside handle

        with pytest.raises(ShardWireError):
            client.request(HttpRequest("GET", "/index.php"))
        assert client.ping()["ok"]  # still serving

    def test_misrouted_request_answers_421(self, tmp_path):
        worker = self.make_worker(tmp_path, shard_id=1)
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

    def test_worker_reload_keeps_data(self, tmp_path):
        worker = self.make_worker(tmp_path)
        client = LocalShardClient(worker)
        session = Session("t0_user1", worker)
        session.login(0)
        session.send(
            "POST", "/edit.php", 0, title="tenant0_wiki", append="\npersisted"
        )
        status, payload = client.admin_json("POST", "/warp/admin/shard/save")
        assert status == 200 and payload["saved"].endswith("snapshot.json")
        worker.close()

        reborn = self.make_worker(tmp_path)
        assert "persisted" in page_text(reborn, 0)
        assert reborn.warp.shard_id == 0
        status, info = LocalShardClient(reborn).admin_json(
            "GET", "/warp/admin/shard/info"
        )
        assert status == 200 and info["shard_id"] == 0

    def test_config_written_by_the_previous_commit_still_loads(self):
        """``ShardConfig.to_dict`` of PR 16 carried one more key (the pool
        queue depth, now ``ServerPool``'s own default): ``from_dict`` must
        keep ignoring it."""
        path = os.path.join(os.path.dirname(__file__), "fixtures", "shard_config_pr16.json")
        with open(path, "r", encoding="utf-8") as fh:
            written = json.load(fh)
        config = ShardConfig.from_dict(written)
        kept = config.to_dict()
        assert len(set(written) - set(kept)) == 1
        assert kept == {key: written[key] for key in kept}

    def test_wal_rotation_keeps_the_shard_history(self, tmp_path):
        """Regression: rotation saved beside the WAL, where the next start
        never looks — the truncated log alone then came back as a fresh
        shard and the app factory reinstalled over the data.  Each rotation
        starts a segment of text entries (snapshot format 4): every id the
        snapshot and the WAL after it refer to resolves within them."""
        config = ShardConfig(
            shard_id=0,
            data_dir=str(tmp_path),
            app_args={"tenants": [0], "shared_users": [ATTACKER]},
            warp_kwargs={"wal_rotate_bytes": 4096},
        )
        layout = WarpSystem.shard_layout(str(tmp_path), 0)
        snapshot = layout["snapshot"]

        def assert_ids_resolve(warp):
            assert fixtures.undefined_refs(fixtures.segment(snapshot, layout["wal"])) == []
            store = warp.graph.store
            for run in store.runs.values():
                if run.json_text is not None:
                    refs = fixtures.text_refs("run", json.loads(run.json_text))
                    assert refs <= set(store.texts.by_id)

        def serve_past_the_bound(worker):
            before = worker.warp.graph.n_runs
            session = Session("t0_user1", worker)
            session.login(0)
            for i in range(24):
                response = session.send(
                    "POST", "/edit.php", 0, title="tenant0_wiki", append=f"\nrot{i}"
                )
                assert response.status == 200
            assert os.path.exists(snapshot), "traffic never triggered rotation"
            assert read_snapshot_header(snapshot)["records"]["run"] > before
            worker.close()
            assert_ids_resolve(worker.warp)
            return worker.warp.graph.n_runs

        n_runs = serve_past_the_bound(ShardWorker(config))
        # The second start takes the snapshot branch, which must keep
        # rotating into the layout too.
        reborn = ShardWorker(config)
        assert reborn.warp.graph.n_runs == n_runs
        n_runs = serve_past_the_bound(reborn)
        warp, fresh = WarpSystem.load_or_create_shard(
            config.data_dir, 0, **config.warp_kwargs
        )
        assert fresh is False
        assert warp.graph.n_runs == n_runs
        assert_ids_resolve(warp)


# ---------------------------------------------------------------------------
# touch summaries + union planning
# ---------------------------------------------------------------------------


class TestPlanning:
    def test_touch_summary_shape(self, tmp_path):
        worker = TestWireAndWorker().make_worker(tmp_path)
        session = Session("t0_user1", worker)
        session.login(0)
        session.send("POST", "/edit.php", 0, title="tenant0_wiki", append="\nhi")
        summary = worker.warp.graph.store.touch_summary()
        json.dumps(summary)  # must be wire-safe
        assert summary["n_runs"] >= 2
        entry = summary["clients"]["t0_user1-c"]
        assert entry["runs"] >= 2
        assert ["pagecontent", "title", "tenant0_wiki"] in entry["writes"]
        assert entry["tables_written"]

    def test_touch_summary_is_the_document_the_runs_describe(self):
        """The summary, byte for byte, recomputed from ``store.runs``
        alone: per client (in first-appearance order) its run count, the
        keys it wrote, every key it touched, and the tables it read or
        wrote whole / wrote at all."""
        from repro.workload.scenarios import run_multi_tenant_scenario

        outcome = run_multi_tenant_scenario(
            n_tenants=3, users_per_tenant=2, attacked_tenants=1, seed=4
        )
        store = outcome.warp.graph.store
        clients = {}
        for run in store.runs.values():
            if run.client_id is None:
                continue
            entry = clients.setdefault(
                run.client_id,
                {
                    "runs": 0,
                    "writes": set(),
                    "reads": set(),
                    "all_reads": set(),
                    "full_writes": set(),
                    "tables_written": set(),
                },
            )
            entry["runs"] += 1
            for query in run.queries:
                if query.is_write:
                    entry["tables_written"].add(query.table)
                    entry["writes"] |= set(query.written_partitions)
                    entry["reads"] |= set(query.written_partitions)
                    if query.full_table_write:
                        entry["full_writes"].add(query.table)
                if query.read_set.is_all:
                    entry["all_reads"].add(query.table)
                else:
                    entry["reads"] |= {
                        (query.table, column, value)
                        for column, value in query.read_set.keys()
                    }
        expected = {
            "n_runs": len(store.runs),
            "clients": {
                client_id: {
                    "runs": entry["runs"],
                    "writes": sorted((list(k) for k in entry["writes"]), key=repr),
                    "reads": sorted((list(k) for k in entry["reads"]), key=repr),
                    "all_reads": sorted(entry["all_reads"]),
                    "full_writes": sorted(entry["full_writes"]),
                    "tables_written": sorted(entry["tables_written"]),
                }
                for client_id, entry in clients.items()
            },
        }
        assert len(expected["clients"]) > 3
        assert all(entry["writes"] for entry in expected["clients"].values())
        assert json.dumps(store.touch_summary()) == json.dumps(expected)

    def test_union_joins_shards_only_through_shared_clients(self):
        summaries = {
            0: {
                "clients": {
                    "mallory-c": {
                        "runs": 2,
                        "writes": [["pagecontent", "title", "p0"]],
                        "reads": [["pagecontent", "title", "p0"]],
                        "all_reads": [],
                        "full_writes": [],
                        "tables_written": ["pagecontent"],
                    },
                    "alice-c": {
                        "runs": 1,
                        "writes": [],
                        "reads": [["pagecontent", "title", "p0"]],
                        "all_reads": [],
                        "full_writes": [],
                        "tables_written": [],
                    },
                }
            },
            1: {
                "clients": {
                    "mallory-c": {
                        "runs": 1,
                        "writes": [["pagecontent", "title", "p1"]],
                        "reads": [],
                        "all_reads": [],
                        "full_writes": [],
                        "tables_written": ["pagecontent"],
                    },
                    "bob-c": {
                        "runs": 1,
                        "writes": [["pagecontent", "title", "q1"]],
                        "reads": [],
                        "all_reads": [],
                        "full_writes": [],
                        "tables_written": ["pagecontent"],
                    },
                }
            },
        }
        plan = merge_touch_summaries(summaries)
        by_clients = {tuple(c["clients"]): c for c in plan["clusters"]}
        # alice read what mallory wrote on shard 0; mallory also wrote on
        # shard 1 -> one cluster spanning both shards.
        joined = by_clients[("alice-c", "mallory-c")]
        assert joined["shards"] == [0, 1]
        # bob wrote an unrelated key on shard 1: independent cluster.
        assert by_clients[("bob-c",)]["shards"] == [1]
        assert plan["handoffs"] == [{"client": "mallory-c", "shards": [0, 1]}]

    def test_pure_readers_of_the_same_key_stay_independent(self):
        reader = {
            "runs": 1,
            "writes": [],
            "reads": [["pagecontent", "title", "p"]],
            "all_reads": [],
            "full_writes": [],
            "tables_written": [],
        }
        plan = merge_touch_summaries(
            {0: {"clients": {"r1-c": dict(reader), "r2-c": dict(reader)}}}
        )
        assert len(plan["clusters"]) == 2  # no writer, no edge

    def test_all_reader_joins_table_writers(self):
        summaries = {
            0: {
                "clients": {
                    "writer-c": {
                        "runs": 1,
                        "writes": [["pagecontent", "title", "p"]],
                        "reads": [],
                        "all_reads": [],
                        "full_writes": [],
                        "tables_written": ["pagecontent"],
                    },
                    "counter-c": {
                        "runs": 1,
                        "writes": [],
                        "reads": [],
                        "all_reads": ["pagecontent"],
                        "full_writes": [],
                        "tables_written": [],
                    },
                }
            }
        }
        plan = merge_touch_summaries(summaries)
        assert len(plan["clusters"]) == 1
        assert plan["clusters"][0]["clients"] == ["counter-c", "writer-c"]

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
        # The workers mount /warp/admin/shard/{info,touch-summary} under
        # the same prefix as the coordinator's own views; an explicit
        # shard parameter must reach the worker, not 404 in the shadow.
        for shard in (0, 1):
            response = cluster.handle(
                HttpRequest(
                    "GET", "/warp/admin/shard/info", params={"shard": str(shard)}
                )
            )
            assert response.status == 200, response.body
            info = json.loads(response.body)
            assert info["shard_id"] == shard and info["pid"] > 0
        response = cluster.handle(
            HttpRequest(
                "GET", "/warp/admin/shard/touch-summary", params={"shard": "0"}
            )
        )
        assert response.status == 200
        assert "clients" in json.loads(response.body)
        # Without the parameter the coordinator's own 404 still applies.
        response = cluster.handle(HttpRequest("GET", "/warp/admin/shard/info"))
        assert response.status == 404

    def test_status_reports_every_shard(self, cluster):
        response = cluster.handle(HttpRequest("GET", "/warp/admin/shard/status"))
        doc = json.loads(response.body)
        assert doc["n_shards"] == 2
        assert set(doc["shards"]) == {"0", "1"}
        assert all(ping["ok"] for ping in doc["shards"].values())
        response = cluster.handle(HttpRequest("POST", "/warp/admin/shard/status"))
        assert response.status == 405

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
        pool_workers=2,
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
