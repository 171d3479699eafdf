"""The admin surface as data: one route table (repro.http.routes).

Every check here is driven from ``table.routes()`` on three
deployments — a plain ``WarpSystem``, one with detection enabled, and a
2-shard ``local`` coordinator — so a row mounted tomorrow is covered
without a new test, and API.md cannot drift from what is mounted.
"""

import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.wiki.app import WikiApp
from repro.faults.plane import FaultPlane
from repro.http.message import HttpRequest, HttpResponse
from repro.http.routes import RouteTable
from repro.shard import ShardCluster
from repro.warp import WarpSystem

METHODS = ("GET", "POST", "PUT", "DELETE")
TAUTOLOGY = "' OR 1=1 --"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _wiki_warp(detect=False, **kwargs):
    warp = WarpSystem(**kwargs)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "pw")
    wiki.seed_page("Home", "hi\n", "alice")
    if detect:
        warp.enable_detection()
    # One recorded (and, with detection on, flagged) request, so ids in
    # the patterns below can name something real.
    response = warp.server.handle(
        HttpRequest(
            "GET",
            "/index.php",
            params={"title": "Home", "q": TAUTOLOGY},
            headers={"X-Warp-Client": "mallory"},
        )
    )
    assert response.status == 200
    return warp


class Deployment:
    """One admin surface under test: where requests go in, the table that
    serves them, and how many runs its history holds."""

    def __init__(self, name, handle, table, warps, ids):
        self.name = name
        self.handle = handle
        self.table = table
        self.warps = warps
        #: capture name -> an id that exists on this deployment
        self.ids = ids

    def n_runs(self):
        return sum(warp.graph.n_runs for warp in self.warps)

    def concrete(self, pattern):
        """``pattern`` with each capture naming a real object, or junk."""
        return re.sub(
            r"<(\w+)>", lambda m: self.ids.get(m.group(1), "nope-0"), pattern
        )


@pytest.fixture(scope="module")
def deployments(tmp_path_factory):
    plain = _wiki_warp()
    detecting = _wiki_warp(detect=True)
    cluster = ShardCluster(
        2,
        str(tmp_path_factory.mktemp("cluster")),
        transport="local",
        tenants=[0, 1, 4, 5],
    )
    out = {}
    for name, warp in (("plain", plain), ("detecting", detecting)):
        spec = json.dumps({"kind": "cancel_client", "client_id": "nobody"})
        response = warp.server.handle(
            HttpRequest("POST", "/warp/admin/repair", params={"spec": spec})
        )
        ids = {"job_id": json.loads(response.body)["job_id"]}
        warp.repair.get(ids["job_id"]).wait(timeout=30)
        if warp.incidents is not None:
            ids["incident_id"] = warp.incidents.list()[0]["incident_id"]
        out[name] = Deployment(name, warp.server.handle, warp.server.admin, [warp], ids)
    out["coordinator"] = Deployment(
        "coordinator",
        cluster.handle,
        cluster.coordinator.admin,
        [worker.warp for worker in cluster.workers],
        {},
    )
    yield out
    for deployment in out.values():
        for warp in deployment.warps:
            for job in warp.repair.jobs():
                job.wait(timeout=30)
    cluster.close()


def _json_body(response):
    assert response.headers.get("Content-Type") == "application/json", response.body
    return json.loads(response.body)


# ---------------------------------------------------------------------------
# every mounted row, under every method
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["plain", "detecting", "coordinator"])
def test_every_row_answers_its_method_and_405s_the_others(deployments, name):
    deployment = deployments[name]
    routes = deployment.table.routes()
    assert routes
    before = deployment.n_runs()
    by_path = {}
    for method, pattern in routes:
        by_path.setdefault(pattern, set()).add(method)
    for pattern, mounted in by_path.items():
        path = deployment.concrete(pattern)
        for method in METHODS:
            response = deployment.handle(HttpRequest(method, path))
            payload = _json_body(response)
            if method in mounted:
                assert response.status != 405, (method, path, payload)
            else:
                assert response.status == 405, (method, path, payload)
                assert response.headers["Allow"] == ", ".join(sorted(mounted))
                assert "error" in payload
    # Control plane: nothing above was recorded.
    assert deployment.n_runs() == before


def test_route_counts(deployments):
    assert len(deployments["plain"].table.routes()) == 11
    assert len(deployments["detecting"].table.routes()) == 15
    assert len(deployments["coordinator"].table.routes()) == 7


def test_known_ids_answer_200(deployments):
    deployment = deployments["detecting"]
    for method, pattern in deployment.table.routes():
        if method == "GET" and "<" in pattern:
            response = deployment.handle(
                HttpRequest("GET", deployment.concrete(pattern))
            )
            assert response.status == 200, (pattern, response.body)


# ---------------------------------------------------------------------------
# API.md is the table
# ---------------------------------------------------------------------------


def test_api_md_lists_exactly_the_mounted_rows(deployments):
    with open(os.path.join(REPO, "API.md"), encoding="utf-8") as fh:
        text = fh.read()
    documented = sorted(
        (method, re.sub(r"<\w+>", "<id>", path))
        for path, method in re.findall(
            r"^\| `(/warp/admin[^`]*)` \| (GET|POST|PUT|DELETE) \|", text, re.M
        )
    )
    # The detecting worker mounts everything the plain one does; the
    # coordinator's `POST /shard/save` shadows the worker's, and API.md
    # lists it once in each table.
    assert set(deployments["plain"].table.routes()) <= set(
        deployments["detecting"].table.routes()
    )
    mounted = sorted(
        (method, re.sub(r"<\w+>", "<id>", path))
        for name in ("detecting", "coordinator")
        for method, path in deployments[name].table.routes()
    )
    assert documented == mounted
    assert len(mounted) == 22


# ---------------------------------------------------------------------------
# the table itself
# ---------------------------------------------------------------------------


class TestRouteTable:
    def _table(self):
        table = RouteTable("/warp/admin")
        table.add("GET", "/things/<thing_id>", lambda req, thing: (200, {"id": thing}))
        table.add("POST", "/things/new", lambda req: (202, {"made": True}))
        return table

    def test_owns_matches_at_a_segment_boundary(self):
        table = self._table()
        assert table.owns("/warp/admin")
        assert table.owns("/warp/admin/")
        assert table.owns("/warp/admin/things/7")
        assert not table.owns("/warp/administer.php")
        assert not table.owns("/warp/admi")
        assert not table.owns("/index.php")

    def test_literal_segment_beats_capture(self):
        table = self._table()
        made = table.dispatch(HttpRequest("POST", "/warp/admin/things/new"))
        assert made.status == 202
        # `/things/new` is the POST row, not thing_id == "new".
        wrong = table.dispatch(HttpRequest("GET", "/warp/admin/things/new"))
        assert wrong.status == 405 and wrong.headers["Allow"] == "POST"
        got = table.dispatch(HttpRequest("GET", "/warp/admin/things/7/"))
        assert got.status == 200 and json.loads(got.body) == {"id": "7"}

    def test_unknown_path_is_404_and_miss_overrides(self):
        table = self._table()
        assert table.dispatch(HttpRequest("GET", "/warp/admin/nope")).status == 404
        assert table.dispatch(HttpRequest("GET", "/warp/admin")).status == 404
        table.miss = lambda request: HttpResponse(status=418, body="forwarded")
        assert table.dispatch(HttpRequest("GET", "/warp/admin/nope")).status == 418

    def test_handler_exceptions_are_mapped(self):
        table = self._table()

        def boom(request):
            raise ValueError("bug")

        table.add("GET", "/boom", boom)
        response = table.dispatch(HttpRequest("GET", "/warp/admin/boom"))
        assert response.status == 500
        assert "bug" in json.loads(response.body)["error"]


# ---------------------------------------------------------------------------
# satellite fixes
# ---------------------------------------------------------------------------


def test_script_beside_the_admin_prefix_is_reachable(tmp_path):
    """`/warp/administer.php` is an application path, not an admin one:
    served without the token, and recorded like any other run."""
    warp = WarpSystem(admin_token="s3cret")
    warp.scripts.register("administer.php", {"handle": lambda ctx: ctx.echo("hello")})
    warp.server.route("/warp/administer.php", "administer.php")
    response = warp.server.handle(HttpRequest("GET", "/warp/administer.php"))
    assert response.status == 200 and "hello" in response.body
    assert warp.graph.n_runs == 1
    assert warp.server.handle(HttpRequest("GET", "/warp/admin/repair")).status == 403
    # Same through the coordinator: forwarded by routing key, not held
    # for a `shard` parameter.
    cluster = ShardCluster(2, str(tmp_path), transport="local", tenants=[0, 4])
    try:
        response = cluster.handle(HttpRequest("GET", "/warp/administer.php"))
        assert response.status == 404 and "no route" in response.body
    finally:
        cluster.close()


def _durable_warp(tmp_path, detect=False):
    plane = FaultPlane()
    warp = _wiki_warp(
        detect=detect, wal_path=str(tmp_path / "records.wal"), fault_plane=plane
    )
    return warp, plane


def test_unknown_admin_path_while_degraded_is_404(tmp_path):
    warp, plane = _durable_warp(tmp_path)
    plane.arm(point="wal.fsync", kind="io", times=None)
    edit = HttpRequest("POST", "/edit.php", params={"title": "Home", "append": "x"})
    assert warp.server.handle(edit).status == 503
    assert warp.health.mode == "read_only"
    response = warp.server.handle(HttpRequest("POST", "/warp/admin/nope"))
    assert response.status == 404
    # ... while a mounted mutating row is refused with the health document,
    refused = warp.server.handle(HttpRequest("POST", "/warp/admin/repair"))
    assert refused.status == 503
    assert _json_body(refused)["health"]["mode"] == "read_only"
    # ... and cancel, the one degraded_ok row, is not (unknown job: 404).
    cancel = warp.server.handle(HttpRequest("POST", "/warp/admin/repair/job-9/cancel"))
    assert cancel.status == 404


def test_sick_log_on_shard_save_is_503_not_400(tmp_path):
    warp, plane = _durable_warp(tmp_path)
    plane.arm(point="wal.append", kind="io", times=None)
    save = HttpRequest(
        "POST", "/warp/admin/shard/save", params={"path": str(tmp_path / "s.json")}
    )
    response = warp.server.handle(save)
    assert response.status == 503
    assert response.headers["Retry-After"] == "1"
    payload = _json_body(response)
    assert "did not reach the log" in payload["error"]
    assert payload["health"]["mode"] == "read_only"
    assert warp.health.mode == "read_only"
    plane.clear()
    assert warp.server.handle(save).status == 200  # probe-on-write heals
    assert warp.health.mode == "normal"


def test_io_fault_writing_the_snapshot_is_503_not_500(tmp_path):
    warp, plane = _durable_warp(tmp_path)
    plane.arm(point="store.snapshot", kind="io", times=None)
    save = HttpRequest(
        "POST", "/warp/admin/shard/save", params={"path": str(tmp_path / "s.json")}
    )
    response = warp.server.handle(save)
    assert response.status == 503
    payload = _json_body(response)
    assert "InjectedIOError" in payload["error"] and "health" in payload
    plane.clear()
    assert warp.server.handle(save).status == 200
    assert warp.health.mode == "normal"


def test_incident_transition_that_breaks_the_log_is_not_acknowledged(tmp_path):
    warp, plane = _durable_warp(tmp_path, detect=True)
    incident_id = warp.incidents.list()[0]["incident_id"]
    plane.arm(point="wal.fsync", kind="io", times=None)
    response = warp.server.handle(
        HttpRequest("POST", f"/warp/admin/incidents/{incident_id}/dismiss")
    )
    assert response.status == 503, response.body
    assert warp.health.mode == "read_only"
    # Degradation excuses only what starts after it: bookkeeping that
    # begins while read-only parks instead of raising.
    warp.incidents.resolve(incident_id, ok=False)


# ---------------------------------------------------------------------------
# fuzzed admin input (ROADMAP item 4: hostile admin JSON)
# ---------------------------------------------------------------------------

VALID_SPECS = [
    json.dumps({"kind": "cancel_client", "client_id": "nobody"}),
    json.dumps({"kind": "cancel_visit", "client_id": "mallory", "visit_id": 1}),
    json.dumps({"kind": "db_fix", "sql": "UPDATE page SET text = 'x' WHERE 1 = 0"}),
    json.dumps(
        {"kind": "batch", "specs": [{"kind": "cancel_client", "client_id": "n"}]}
    ),
]
HOSTILE_SPECS = (
    [spec[: len(spec) // 2] for spec in VALID_SPECS]  # truncated JSON
    + ["[" * 5000, '{"kind":"batch","specs":[' * 700, "{" * 40 + "}" * 40]
    + ['{"kind": 7}', '{"kind": "cancel_visit", "client_id": [], "visit_id": {}}']
    + ['{"kind": "db_fix", "sql": 5, "params": "x"}', "null", "1e999", '"\\ud800"']
    + [  # wrong types where a string or an integer belongs
        '{"kind": "cancel_client", "client_id": [1]}',
        '{"kind": "cancel_client", "client_id": {"a": 1}}',
        '{"kind": "cancel_visit", "client_id": ["x"], "visit_id": 1}',
        '{"kind": "cancel_visit", "client_id": "c", "visit_id": 1e999}',
        '{"kind": "patch", "patch_name": ["p"]}',
        '{"kind": "patch", "patch_name": "p", "file": 5}',
        '{"kind": "patch", "patch_name": "p", "apply_ts": "soon"}',
        '{"kind": "db_fix", "sql": "UPDATE page SET x = 1", "ts": "soon"}',
        '{"kind": "db_fix", "sql": "UPDATE page SET x = 1", "ts": [1]}',
        '{"kind": "db_fix", "sql": "DROP TABLE page", "params": [[1], {"a": 2}]}',
    ]
)
OK_STATUSES = {200, 202, 400, 403, 404, 405, 503}

KNOWN_IDS = ["job-1", "inc-1", "dist-1"]
_junk = st.one_of(
    st.sampled_from(KNOWN_IDS + ["job-999999", "..", "", "<id>", "0", "preview"]),
    st.text(max_size=12),
)
_wild = st.one_of(
    st.text(max_size=20), st.integers(), st.lists(st.integers(), max_size=2)
)
_params = st.fixed_dictionaries(
    {},
    optional={
        "spec": st.one_of(st.sampled_from(VALID_SPECS + HOSTILE_SPECS), _wild),
        "shard": st.one_of(st.sampled_from(["0", "1", "9", "-1", "x", ""]), _wild),
        "status": st.one_of(st.sampled_from(["open", "dismissed", "?"]), _wild),
    },
)


@st.composite
def _admin_requests(draw, routes):
    """Three in four aim at a mounted row (ids junk or real, usually its
    own method); the rest are free text under the prefix."""
    method = draw(st.sampled_from(METHODS))
    if draw(st.integers(0, 3)):
        own, pattern = draw(st.sampled_from(routes))
        path = re.sub(r"<\w+>", lambda m: draw(_junk), pattern)
        if draw(st.integers(0, 3)):
            method = own
    else:
        path = "/warp/admin/" + "/".join(draw(st.lists(_junk, max_size=4)))
    return HttpRequest(method, path, params=draw(_params))


def _check_answer(deployment, request):
    response = deployment.handle(request)
    assert response.status in OK_STATUSES, (request, response.body)
    _json_body(response)
    health = deployment.handle(
        HttpRequest("GET", "/warp/admin/health", params={"shard": "0"})
    )
    assert health.status == 200 and _json_body(health)["mode"] == "normal"
    return response.status


@pytest.mark.parametrize("name", ["plain", "detecting", "coordinator"])
def test_fuzzed_admin_requests_answer_json_and_never_raise(deployments, name):
    deployment = deployments[name]
    routes = sorted(
        {route for each in deployments.values() for route in each.table.routes()}
    )
    before = deployment.n_runs()

    # Every spec text at every row that parses one, then the random draw.
    seen = set()
    for method, pattern in deployment.table.routes():
        if method == "POST" and "<" not in pattern:
            for spec in VALID_SPECS + HOSTILE_SPECS:
                request = HttpRequest(method, pattern, params={"spec": spec})
                seen.add(_check_answer(deployment, request))
    assert {200, 202, 400} <= seen

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_admin_requests(routes))
    def check(request):
        _check_answer(deployment, request)

    check()
    assert deployment.n_runs() == before
