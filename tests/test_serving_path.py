"""The high-throughput serving path (PR 6).

Unit and integration coverage for the three tentpole layers and their
satellites:

* group-commit WAL semantics: commit tickets, batching by the waiter
  that holds the I/O lock, truncate/close interaction with the buffer,
  torn-tail repair;
* the per-partition statement cache: hits are indistinguishable from
  re-execution, invalidation is partition-precise, every visibility
  transition flushes;
* the dependency-invalidated response cache: keying, partition-precise
  invalidation, script-patch eviction, token-guarded fills;
* striped record-store locking loses no append under 16 real threads;
* the bounded ``ServerPool`` (backpressure 503s, clean close);
* identity batching (``tick_many`` / ``next_many``) equals repeated
  single draws;
* size-triggered WAL rotation under live traffic reloads identically;
* serving-path knobs persist through ``save``/``load``.
"""

import os
import threading
import time

import pytest

from repro.ahg.records import AppRunRecord
from repro.apps.wiki.app import WikiApp
from repro.core.clock import LogicalClock
from repro.core.ids import IdAllocator
from repro.db.storage import Column, Database, TableSchema
from repro.faults.plane import FaultPlane
from repro.http.message import HttpRequest, HttpResponse
from repro.http.pool import ServerPool
from repro.repair.api import CancelClientSpec
from repro.store.snapshot import read_snapshot_header
from repro.store.wal import RecordWal
from repro.ttdb.timetravel import TimeTravelDB
from repro.warp import WarpSystem
from repro.workload.loadgen import make_load_clients
from repro.workload.scenarios import WikiDeployment


# ---------------------------------------------------------------------------
# group-commit WAL
# ---------------------------------------------------------------------------


class TestGroupCommitWal:
    def test_none_mode_skips_fsync_but_still_logs(self, tmp_path):
        plane = FaultPlane()
        plane.arm(point="wal.fsync", kind="error", times=None)
        wal = RecordWal(str(tmp_path / "n.wal"), durability="none", fault_plane=plane)
        assert wal.append("mark", {"n": 1}).wait(5.0)
        wal.append("mark", {"n": 2})
        wal.close()
        assert plane.fired == []
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 1}), ("mark", {"n": 2})]

    def test_group_ticket_resolves_on_wait(self, tmp_path):
        wal = RecordWal(str(tmp_path / "g.wal"), durability="group")
        ticket = wal.append("mark", {"n": 1})
        assert ticket.wait(5.0)
        assert ticket.done
        assert wal.is_durable(ticket.seq)
        # Durable means readable by an independent recovery right now.
        assert ("mark", {"n": 1}) in list(RecordWal.entries(wal.path))
        wal.close()

    def test_group_sync_covers_everything_appended(self, tmp_path):
        wal = RecordWal(str(tmp_path / "s.wal"), durability="group")
        tickets = [wal.append("mark", {"n": i}) for i in range(10)]
        assert wal.sync(5.0)
        assert all(t.done for t in tickets)
        assert [d["n"] for _, d in RecordWal.entries(wal.path)] == list(range(10))
        wal.close()

    def test_unwaited_entry_is_written_by_the_next_commit_and_close(self, tmp_path):
        threads_before = set(threading.enumerate())
        wal = RecordWal(str(tmp_path / "u.wal"))
        unwaited = wal.append("mark", {"n": 1})
        assert not unwaited.done
        assert list(RecordWal.entries(wal.path)) == []  # append never writes
        assert wal.append("mark", {"n": 2}).wait(5.0)
        assert unwaited.done  # the next waiter's commit took it along
        last = wal.append("mark", {"n": 3})  # nobody waits on this one
        assert set(threading.enumerate()) <= threads_before  # no flusher
        wal.close()
        assert last.done
        assert [d["n"] for _, d in RecordWal.entries(wal.path)] == [1, 2, 3]

    def test_concurrent_committers_share_batches_in_seq_order(self, tmp_path):
        wal = RecordWal(str(tmp_path / "c.wal"), durability="group")
        n_threads, per_thread = 8, 25
        failures = []

        def commit(worker):
            for i in range(per_thread):
                ticket = wal.append("mark", {"w": worker, "i": i})
                if not ticket.wait(10.0):
                    failures.append((worker, i))

        threads = [
            threading.Thread(target=commit, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        entries = list(RecordWal.entries(wal.path))
        assert len(entries) == n_threads * per_thread
        # Per-thread order is preserved (the file is in append/seq order).
        for w in range(n_threads):
            mine = [d["i"] for _, d in entries if d["w"] == w]
            assert mine == list(range(per_thread))
        wal.close()

    def test_waiter_behind_a_commit_that_missed_its_entry(self, tmp_path):
        """An entry appended after the commit ahead of it took the buffer
        is written by its own waiter as soon as that commit releases the
        I/O lock.  The waiter must neither sleep to its timeout nor wait
        for a background thread to notice the entry: every commit runs on
        a thread that is waiting for it."""
        wal = RecordWal(str(tmp_path / "q.wal"), durability="group")
        committers = []
        first_committed = threading.Event()
        commit = wal._commit_buffer

        def commit_then_pause_in_first():
            committers.append(threading.current_thread().name)
            commit()
            if threading.current_thread().name == "first":
                first_committed.set()
                time.sleep(0.1)  # still holding the I/O lock

        wal._commit_buffer = commit_then_pause_in_first
        first = wal.append("mark", {"n": 1})
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(first=first.wait(5.0)), name="first"
        )
        thread.start()
        assert first_committed.wait(5.0)
        second = wal.append("mark", {"n": 2})  # the buffer was already taken
        started = time.monotonic()
        assert second.wait(3.0)
        assert time.monotonic() - started < 2.0
        thread.join(5.0)
        assert not thread.is_alive() and outcome["first"]
        assert set(committers) == {"first", threading.current_thread().name}
        wal.close()
        assert [d["n"] for _, d in RecordWal.entries(wal.path)] == [1, 2]

    def test_truncate_drops_buffer_and_resolves_tickets(self, tmp_path):
        wal = RecordWal(str(tmp_path / "t.wal"), durability="group")
        ticket = wal.append("mark", {"n": 1})
        wal.truncate()
        # The entry was intentionally discarded; waiters must not hang.
        assert ticket.wait(1.0)
        assert list(RecordWal.entries(wal.path)) == []
        after = wal.append("mark", {"n": 2})
        assert after.wait(5.0)
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 2})]
        wal.close()

    def test_close_drains_buffer(self, tmp_path):
        wal = RecordWal(str(tmp_path / "d.wal"), durability="group")
        wal.append("mark", {"n": 1})
        wal.close()
        assert list(RecordWal.entries(wal.path)) == [("mark", {"n": 1})]

    def test_torn_tail_repaired_and_never_replayed(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        wal = RecordWal(path)
        wal.append("mark", {"n": 1})
        wal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "mark", "data": {"n": 2}')  # no newline: torn
        assert list(RecordWal.entries(path)) == [("mark", {"n": 1})]
        removed = RecordWal.repair(path)
        assert removed > 0
        # Re-opening repairs too, so appends never follow a torn fragment.
        wal2 = RecordWal(path)
        wal2.append("mark", {"n": 3})
        wal2.close()
        assert list(RecordWal.entries(path)) == [
            ("mark", {"n": 1}),
            ("mark", {"n": 3}),
        ]


# ---------------------------------------------------------------------------
# per-partition statement cache
# ---------------------------------------------------------------------------


def make_ttdb():
    db = Database()
    tt = TimeTravelDB(db, LogicalClock(), enabled=True)
    tt.create_table(
        TableSchema(
            name="pages",
            columns=(Column("page_id", "int"), Column("title"), Column("body")),
            row_id_column="page_id",
            partition_columns=("title",),
        )
    )
    return tt


def spy_executions(tt):
    """Count how many SELECTs actually hit the executor (misses); cache
    hits bypass ``_run_locked`` entirely."""
    counter = {"n": 0}
    inner = tt._run_locked

    def wrapped(stmt, sql, params, ctx):
        if sql.lstrip().upper().startswith("SELECT"):
            counter["n"] += 1
        return inner(stmt, sql, params, ctx)

    tt._run_locked = wrapped
    return counter


class TestStatementCache:
    def test_hit_equals_reexecution(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')")
        executions = spy_executions(tt)
        first = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        second = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert executions["n"] == 1, "second SELECT must be served from cache"
        assert second.rows == first.rows == [{"body": "v1"}]
        assert second.read_set == first.read_set
        assert second.ts > first.ts, "a hit still draws a fresh timestamp"
        assert second.result.snapshot() == first.result.snapshot()

    def test_invalidation_is_partition_precise(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'a1')")
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (2, 'B', 'b1')")
        tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        tt.execute("SELECT body FROM pages WHERE title = ?", ("B",))
        executions = spy_executions(tt)
        # A write to partition B must not invalidate the cached A read...
        tt.execute("UPDATE pages SET body = 'b2' WHERE title = 'B'")
        res_a = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert executions["n"] == 0, "write to B invalidated the cached A read"
        assert res_a.rows == [{"body": "a1"}]
        # ...but it must invalidate the cached B read.
        res_b = tt.execute("SELECT body FROM pages WHERE title = ?", ("B",))
        assert executions["n"] == 1
        assert res_b.rows == [{"body": "b2"}]

    def test_full_table_write_invalidates_everything(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'a1')")
        tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        executions = spy_executions(tt)
        tt.execute("UPDATE pages SET body = 'flat'")
        res = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert executions["n"] == 1
        assert res.rows == [{"body": "flat"}]

    def test_unpartitioned_read_invalidated_by_any_table_write(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'a1')")
        assert tt.execute("SELECT COUNT(*) FROM pages").scalar() == 1
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (2, 'B', 'b1')")
        assert tt.execute("SELECT COUNT(*) FROM pages").scalar() == 2

    def test_cached_rows_isolated_from_caller_mutation(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')")
        first = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        first.rows[0]["body"] = "tampered"
        second = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert second.rows == [{"body": "v1"}]

    def test_generation_switch_flushes(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')")
        tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        tt.begin_repair()
        assert not tt._stmt_cache
        tt.execute_at(
            "UPDATE pages SET body = 'repaired' WHERE title = 'A'",
            (),
            ts=tt.clock.tick(),
        )
        tt.finalize_repair()
        assert not tt._stmt_cache
        res = tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert res.rows == [{"body": "repaired"}]

    def test_rollback_and_gc_flush(self):
        tt = make_ttdb()
        tt.execute("INSERT INTO pages (page_id, title, body) VALUES (1, 'A', 'v1')")
        tt.execute("SELECT body FROM pages WHERE title = ?", ("A",))
        assert tt._stmt_cache
        tt.gc(tt.clock.now())
        assert not tt._stmt_cache

    def test_oversized_results_not_cached(self):
        tt = make_ttdb()
        for i in range(20):
            tt.execute(
                "INSERT INTO pages (page_id, title, body) VALUES "
                f"({i}, 'T{i}', 'x')"
            )
        executions = spy_executions(tt)
        tt.execute("SELECT * FROM pages")
        tt.execute("SELECT * FROM pages")
        assert executions["n"] == 2, "a 20-row result must not be cached"


# ---------------------------------------------------------------------------
# identity batching
# ---------------------------------------------------------------------------


class TestIdentityBatching:
    def test_tick_many_equals_repeated_ticks(self):
        a, b = LogicalClock(), LogicalClock()
        singles = [a.tick() for _ in range(5)]
        first = b.tick_many(5)
        assert list(range(first, first + 5)) == singles
        assert a.now() == b.now()
        # Interleaving batched and single draws stays strictly monotone.
        assert b.tick() == singles[-1] + 1

    def test_next_many_equals_repeated_next(self):
        a, b = IdAllocator(), IdAllocator()
        singles = [a.next("q") for _ in range(4)]
        first = b.next_many("q", 4)
        assert list(range(first, first + 4)) == singles
        assert a.peek("q") == b.peek("q")
        assert b.next("q") == singles[-1] + 1

    def test_batched_draws_reject_non_positive_counts(self):
        with pytest.raises(ValueError):
            LogicalClock().tick_many(0)
        with pytest.raises(ValueError):
            IdAllocator().next_many("q", 0)


# ---------------------------------------------------------------------------
# response cache
# ---------------------------------------------------------------------------


def _cached_wiki(**kwargs):
    kwargs.setdefault("response_cache", True)
    return WikiDeployment(n_users=2, seed=5, **kwargs)


class TestResponseCache:
    def _serve(self, deployment, client, method, path, params, append=None):
        request = HttpRequest(
            method,
            path,
            params=dict(params),
            cookies=dict(client.cookies),
            headers={"X-Warp-Client": f"{client.name}-load"},
        )
        return client.send(request)

    def _deploy(self, **kwargs):
        deployment = _cached_wiki(**kwargs)
        clients = make_load_clients(
            deployment.wiki, deployment.warp.server, ["c0", "c1"]
        )
        return deployment, clients

    def test_repeat_get_is_a_hit_with_identical_bytes(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        first = self._serve(
            deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"}
        )
        second = self._serve(
            deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"}
        )
        assert first.status == second.status == 200
        assert first.key() == second.key()
        stats = cache.stats()
        assert stats["hits"] >= 1
        # The hit was journaled as a real run: the graph grew.
        runs = deployment.warp.graph.runs
        assert len(runs) >= 2

    def test_key_includes_params_and_cookies(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        # Different params: not a hit for the same script.
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Projects"})
        # Different cookies (another session): not a hit either.
        self._serve(deployment, clients[1], "GET", "/edit.php", {"title": "Main_Page"})
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 3

    def test_write_invalidates_only_its_partition(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Projects"})
        before = len(cache)
        assert before == 2
        response = self._serve(
            deployment,
            clients[0],
            "POST",
            "/edit.php",
            {"title": "Projects", "append": "\nmore."},
        )
        assert response.status == 200
        # The Projects entry died; Main_Page survived and still hits.
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        assert cache.stats()["hits"] == 1
        fresh = self._serve(
            deployment, clients[0], "GET", "/edit.php", {"title": "Projects"}
        )
        assert "more." in fresh.body
        assert cache.stats()["invalidations"] >= 1

    def test_script_patch_evicts_cached_entries(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        assert len(cache) == 1
        scripts = deployment.warp.scripts
        scripts.patch("edit.php", dict(scripts.exports("edit.php")))
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        assert cache.stats()["hits"] == 0

    def test_repair_flushes_and_bypasses_the_cache(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        self._serve(deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"})
        assert len(cache) == 1
        deployment.login("attacker")
        deployment.append_to_page("attacker", "Main_Page", "\nSPAM")
        result = deployment.warp.repair.submit(
            CancelClientSpec(deployment.client_id("attacker"))
        ).result()
        assert result.ok
        assert len(cache) == 0, "repair must flush the response cache"
        fresh = self._serve(
            deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"}
        )
        assert "SPAM" not in fresh.body

    def test_post_responses_never_cached(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        self._serve(
            deployment,
            clients[0],
            "POST",
            "/edit.php",
            {"title": "Main_Page", "append": "\nx."},
        )
        assert len(cache) == 0

    def test_stale_fill_token_refused(self):
        deployment, clients = self._deploy()
        cache = deployment.warp.response_cache
        response = self._serve(
            deployment, clients[0], "GET", "/edit.php", {"title": "Main_Page"}
        )
        assert response.status == 200
        # Re-filling with a token older than an intersecting write refuses.
        token = cache.write_token()
        self._serve(
            deployment,
            clients[0],
            "POST",
            "/edit.php",
            {"title": "Main_Page", "append": "\ny."},
        )
        get_record = None
        for record in deployment.warp.graph.runs.values():
            if record.request.method == "GET" and cache.cacheable(record):
                get_record = record
        assert get_record is not None
        assert not cache.put(
            "edit.php", get_record.request, get_record, token
        ), "a fill racing an intersecting write must be refused"
        assert cache.stats()["refused_fills"] >= 1


# ---------------------------------------------------------------------------
# sequential cached ≡ uncached (identity parity)
# ---------------------------------------------------------------------------


class TestCachedIdentityParity:
    def test_sequential_cached_run_ids_match_uncached(self):
        """With no concurrency, a cached deployment's id/timestamp streams
        are *byte-identical* to an uncached one's — hits draw identity in
        exactly the order an uncached execution would."""

        def drive(response_cache):
            deployment = WikiDeployment(
                n_users=1, seed=9, response_cache=response_cache
            )
            (client,) = make_load_clients(
                deployment.wiki, deployment.warp.server, ["c0"]
            )
            responses = []
            for step in range(12):
                if step % 4 == 3:
                    request = HttpRequest(
                        "POST",
                        "/edit.php",
                        params={"title": "Main_Page", "append": f"\nstep{step}."},
                        cookies=dict(client.cookies),
                        headers={"X-Warp-Client": "c0-load"},
                    )
                else:
                    request = HttpRequest(
                        "GET",
                        "/edit.php",
                        params={"title": "Main_Page"},
                        cookies=dict(client.cookies),
                        headers={"X-Warp-Client": "c0-load"},
                    )
                responses.append(client.send(request).key())
            graph = deployment.warp.graph.to_snapshot()
            clock = deployment.warp.clock.now()
            ids = deployment.warp.ids.state_dict()
            return responses, graph, clock, ids

        cached = drive(True)
        uncached = drive(False)
        assert cached[0] == uncached[0], "responses diverged"
        assert cached[2] == uncached[2], "clock diverged"
        assert cached[3] == uncached[3], "id counters diverged"
        assert cached[1] == uncached[1], "graph records diverged"


# ---------------------------------------------------------------------------
# ServerPool backpressure
# ---------------------------------------------------------------------------


class _StubServer:
    """Blocks every request on an event; counts entries."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)
        self.served = 0
        self._lock = threading.Lock()

    def handle(self, request):
        self.entered.release()
        self.release.wait(10.0)
        with self._lock:
            self.served += 1
        return HttpResponse(status=200, body="ok")


class TestServerPool:
    def test_serves_through_workers(self):
        deployment = WikiDeployment(n_users=1, seed=3)
        pool = ServerPool(deployment.warp.server, workers=2, queue_depth=8)
        try:
            (client,) = make_load_clients(deployment.wiki, pool, ["c0"])
            response = client.send(
                HttpRequest(
                    "GET",
                    "/edit.php",
                    params={"title": "Main_Page"},
                    cookies=dict(client.cookies),
                    headers={"X-Warp-Client": "c0-load"},
                )
            )
            assert response.status == 200
        finally:
            pool.close()

    def test_full_queue_sheds_load_with_503(self):
        stub = _StubServer()
        pool = ServerPool(stub, workers=1, queue_depth=1)
        try:
            blocked = pool.submit(HttpRequest("GET", "/x", params={}))
            assert stub.entered.acquire(timeout=5.0), "worker never picked up"
            queued = pool.submit(HttpRequest("GET", "/x", params={}))
            shed = pool.submit(HttpRequest("GET", "/x", params={}))
            overflow = shed.wait(1.0)
            assert overflow.status == 503
            stub.release.set()
            assert blocked.wait(5.0).status == 200
            assert queued.wait(5.0).status == 200
        finally:
            stub.release.set()
            pool.close()

    def test_close_is_idempotent_and_stops_workers(self):
        stub = _StubServer()
        stub.release.set()
        pool = ServerPool(stub, workers=2, queue_depth=4)
        pool.close()
        pool.close()


# ---------------------------------------------------------------------------
# striped store locks under contention (16 threads)
# ---------------------------------------------------------------------------


class TestStripedLocksUnderContention:
    def test_sixteen_threads_lose_no_append(self, tmp_path, monkeypatch):
        # With a WAL, so that every append encodes its run — under the records
        # stripe, where the text entries it defines are journaled ahead of
        # every line that uses them (snapshot format 5).
        deployment = WikiDeployment(n_users=0, seed=41, wal_path=str(tmp_path / "records.wal"))
        wiki, warp = deployment.wiki, deployment.warp
        stripe, encode, under_stripe = warp.graph.store.lock, AppRunRecord.encode, []

        def observed_encode(run, texts=None):
            under_stripe.append(stripe._is_owned())
            return encode(run, texts)

        monkeypatch.setattr(AppRunRecord, "encode", observed_encode)
        n_threads, per_thread = 16, 6
        for worker in range(n_threads):
            wiki.seed_user(f"w{worker}", f"pw-w{worker}")
            wiki.seed_page(f"P{worker}", f"page {worker}", owner=f"w{worker}")
        clients = make_load_clients(
            wiki, warp.server, [f"w{worker}" for worker in range(n_threads)]
        )
        errors = []

        def hammer(client, worker):
            try:
                for i in range(per_thread):
                    response = client.send(
                        HttpRequest(
                            "POST",
                            "/edit.php",
                            params={"title": f"P{worker}", "append": f"\nm{i}."},
                            cookies=dict(client.cookies),
                            headers={"X-Warp-Client": f"{client.name}-load"},
                        )
                    )
                    if response.status != 200:
                        errors.append((worker, i, response.status))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append((worker, repr(exc)))

        threads = [
            threading.Thread(target=hammer, args=(client, worker))
            for worker, client in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(under_stripe) >= n_threads * per_thread and all(under_stripe)
        bodies = {}
        for worker in range(n_threads):
            res = warp.ttdb.execute(
                "SELECT old_text FROM pagecontent WHERE title = ?", (f"P{worker}",)
            )
            bodies[f"P{worker}"] = res.rows[0]["old_text"]
            for i in range(per_thread):
                assert f"m{i}." in bodies[f"P{worker}"], (
                    f"lost append m{i} on P{worker}"
                )


# ---------------------------------------------------------------------------
# rotation under live traffic + serving-config persistence
# ---------------------------------------------------------------------------


def post_appends(client, count):
    """``count`` acknowledged appends to Main_Page through ``client``."""
    for i in range(count):
        response = client.send(
            HttpRequest(
                "POST",
                "/edit.php",
                params={"title": "Main_Page", "append": f"\nrot{i}."},
                cookies=dict(client.cookies),
                headers={"X-Warp-Client": "c0-load"},
            )
        )
        assert response.status == 200


class TestRotationAndPersistence:
    def test_rotation_mid_traffic_reloads_identically(self, tmp_path):
        wal_path = str(tmp_path / "serve.wal")
        snapshot = str(tmp_path / "serve.snapshot.json")
        deployment = WikiDeployment(
            n_users=1,
            seed=13,
            wal_path=wal_path,
            wal_rotate_bytes=4096,
            wal_rotate_snapshot=snapshot,
            durability="group",
        )
        (client,) = make_load_clients(deployment.wiki, deployment.warp.server, ["c0"])
        post_appends(client, 24)
        assert os.path.exists(snapshot), "traffic never triggered rotation"
        wal = deployment.warp.graph.store.wal
        assert wal.sync(5.0)
        reloaded = WarpSystem.load(snapshot, wal_path=wal_path)
        live = deployment.warp.graph.to_snapshot()
        assert reloaded.graph.to_snapshot() == live
        assert reloaded.durability == "group"

    def test_reloaded_deployment_rotates_into_the_file_it_loaded(self, tmp_path):
        wal_path = str(tmp_path / "serve.wal")
        snapshot = str(tmp_path / "serve.snapshot.json")
        deployment = WikiDeployment(
            n_users=1,
            seed=13,
            wal_path=wal_path,
            wal_rotate_bytes=4096,
            wal_rotate_snapshot=snapshot,
        )
        deployment.warp.save(snapshot)
        deployment.warp.graph.store.wal.close()
        saved_id = read_snapshot_header(snapshot)["snapshot_id"]

        reloaded = WarpSystem.load(snapshot, wal_path=wal_path)
        wiki = WikiApp(reloaded.ttdb, reloaded.scripts, reloaded.server)
        wiki.register_code()
        (client,) = make_load_clients(wiki, reloaded.server, ["c0"])
        post_appends(client, 40)
        assert read_snapshot_header(snapshot)["snapshot_id"] != saved_id, (
            "traffic never rotated into the loaded snapshot"
        )
        assert not os.path.exists(wal_path + ".snapshot.json")
        live = reloaded.graph.to_snapshot()
        reloaded.graph.store.wal.close()
        again = WarpSystem.load(snapshot, wal_path=wal_path)
        assert again.graph.to_snapshot() == live

    def test_serving_config_round_trips(self, tmp_path):
        snapshot = str(tmp_path / "cfg.json")
        warp = WarpSystem(
            seed=7,
            durability="none",
            wal_rotate_bytes=1 << 20,
            response_cache=True,
        )
        warp.save(snapshot)
        reloaded = WarpSystem.load(snapshot)
        assert reloaded.durability == "none"
        assert reloaded.wal_rotate_bytes == 1 << 20
        assert reloaded.response_cache is not None
