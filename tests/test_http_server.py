"""Unit tests for the logged HTTP server: routing, cookie invalidation,
conflict surfacing, suspension, and repair-concurrent bookkeeping."""

import pytest

from repro.apps.wiki import WikiApp
from repro.http.message import HttpRequest, build_url, parse_url
from repro.warp import WarpSystem

WIKI = "http://wiki.test"


@pytest.fixture
def warp():
    system = WarpSystem(origin=WIKI)
    wiki = WikiApp(system.ttdb, system.scripts, system.server)
    wiki.install()
    wiki.seed_user("alice", "pw")
    wiki.seed_page("Main_Page", "hello", owner="alice")
    return system


def request(path, **kwargs):
    return HttpRequest("GET", path, **kwargs)


class TestUrlHandling:
    def test_parse_absolute(self):
        origin, path, params = parse_url("http://wiki.test/edit.php?title=A&x=1")
        assert origin == "http://wiki.test"
        assert path == "/edit.php"
        assert params == {"title": "A", "x": "1"}

    def test_parse_relative(self):
        origin, path, params = parse_url("/index.php?title=B")
        assert origin == ""
        assert path == "/index.php"

    def test_build_roundtrip(self):
        url = build_url(WIKI, "/index.php", {"title": "My Page"})
        _, path, params = parse_url(url)
        assert params["title"] == "My Page"

    def test_request_key_ignores_headers(self):
        a = HttpRequest("GET", "/p", params={"x": "1"}, headers={"X-Warp-Client": "a"})
        b = HttpRequest("GET", "/p", params={"x": "1"}, headers={"X-Warp-Client": "b"})
        assert a.key() == b.key()


class TestRouting:
    def test_routed_request_served(self, warp):
        response = warp.server.handle(request("/index.php", params={"title": "Main_Page"}))
        assert response.status == 200
        assert "hello" in response.body

    def test_unrouted_request_404(self, warp):
        assert warp.server.handle(request("/nope.php")).status == 404

    def test_runs_recorded_in_graph(self, warp):
        before = warp.graph.n_runs
        warp.server.handle(request("/index.php", params={"title": "Main_Page"}))
        assert warp.graph.n_runs == before + 1

    def test_recording_can_be_disabled(self, warp):
        warp.server.recording = False
        before = warp.graph.n_runs
        warp.server.handle(request("/index.php", params={"title": "Main_Page"}))
        assert warp.graph.n_runs == before


class TestSuspension:
    def test_suspended_server_returns_503(self, warp):
        # A switch that never ends within the drain bound is wedged.
        warp.server.suspended = True
        warp.server.switch_wait_seconds = 0.05
        response = warp.server.handle(request("/index.php"))
        assert response.status == 503
        assert response.headers["X-Warp-Suspended"] == "wedged"

    def test_resumes_after_suspension(self, warp):
        warp.server.suspended = True
        warp.server.suspended = False
        assert warp.server.handle(
            request("/index.php", params={"title": "Main_Page"})
        ).status == 200


class TestCookieInvalidation:
    def test_queued_invalidation_strips_and_deletes_cookie(self, warp):
        warp.server.cookie_invalidation.add("client-1")
        req = request(
            "/index.php",
            params={"title": "Main_Page"},
            cookies={"sess": "stale-token"},
            headers={"X-Warp-Client": "client-1", "X-Warp-Visit": "1", "X-Warp-Request": "1"},
        )
        response = warp.server.handle(req)
        assert response.set_cookies.get("sess", "kept") is None
        # One-shot: the next request is untouched.
        assert "client-1" not in warp.server.cookie_invalidation

    def test_other_clients_unaffected(self, warp):
        warp.server.cookie_invalidation.add("client-1")
        req = request(
            "/index.php",
            params={"title": "Main_Page"},
            cookies={"sess": "tok"},
            headers={"X-Warp-Client": "client-2", "X-Warp-Visit": "1", "X-Warp-Request": "1"},
        )
        response = warp.server.handle(req)
        assert "sess" not in response.set_cookies


class TestConflictSurfacing:
    def test_pending_conflict_advertised_in_header(self, warp):
        from repro.repair.conflicts import Conflict

        warp.conflicts.add(Conflict("client-9", 4, "/edit.php", "target gone"))
        req = request(
            "/index.php",
            params={"title": "Main_Page"},
            headers={"X-Warp-Client": "client-9", "X-Warp-Visit": "2", "X-Warp-Request": "1"},
        )
        response = warp.server.handle(req)
        assert response.headers.get("X-Warp-Conflicts") == "1"

    def test_no_header_without_conflicts(self, warp):
        req = request(
            "/index.php",
            params={"title": "Main_Page"},
            headers={"X-Warp-Client": "clean", "X-Warp-Visit": "1", "X-Warp-Request": "1"},
        )
        assert "X-Warp-Conflicts" not in warp.server.handle(req).headers


class TestRepairConcurrency:
    def test_pending_runs_tracked_during_repair(self, warp):
        warp.server.repair_active = True
        warp.server.pending_during_repair = []
        warp.server.handle(request("/index.php", params={"title": "Main_Page"}))
        assert len(warp.server.pending_during_repair) == 1

    def test_not_tracked_outside_repair(self, warp):
        warp.server.handle(request("/index.php", params={"title": "Main_Page"}))
        assert warp.server.pending_during_repair == []
