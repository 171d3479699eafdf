"""Online repair under live load: the partition-scoped write gate.

Covers the tentpole and its satellites:

* footprint learning and gate classification (served vs queued);
* a mid-repair request to an untouched partition is served, one to a
  repaired partition is queued (202 + ticket) and visibly re-applied
  exactly once after the generation switch;
* a queued request whose script raises is consumed as a 500 and does not
  wedge the finalize path;
* ``pending_during_repair`` re-application follows the arrival-ts order
  contract regardless of list order;
* the deterministic interleaving property: online repair with live
  traffic produces the same final version store, graph records
  (canonically renumbered), re-execution counts and response bytes as
  quiesced repair followed by the same traffic in the induced serial
  order — across ≥20 seeds;
* every request of those interleavings, whether served, queued or issued
  after the repair, is recorded as exactly one run with the response its
  client saw;
* a real-thread stress smoke: 8 threads hammering the deployment during
  a repair, with every write applied exactly once and no 503s.
"""

import random
import threading
import time

import pytest

from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec
from repro.repair.gate import RepairGate
from repro.workload.loadgen import LoadClient, LoadGen, make_load_clients
from repro.workload.scenarios import run_multi_tenant_scenario

from schedutil import CoopSchedule, scripted_ops

# ---------------------------------------------------------------------------
# staging
# ---------------------------------------------------------------------------


def _stage(seed, n_tenants=3, users=1, edits=1, n_load_clients=None):
    """A multi-tenant deployment plus logged-in load clients (one per
    tenant by default, pinned to that tenant's page)."""
    outcome = run_multi_tenant_scenario(
        n_tenants=n_tenants,
        users_per_tenant=users,
        attacked_tenants=1,
        edits_per_user=edits,
        seed=seed,
    )
    warp = outcome.warp
    names = [f"lg{i}" for i in range(n_load_clients or n_tenants)]
    clients_list = make_load_clients(outcome.wiki, warp.server, names)
    clients = {c.name: c for c in clients_list}
    cookies = {c.name: dict(c.cookies) for c in clients_list}
    pages = [outcome.tenant_page(t) for t in range(n_tenants)]
    return outcome, clients, cookies, pages, names


def _request(name, cookies, page, append=None, marker=""):
    if append is not None:
        return HttpRequest(
            "POST",
            "/edit.php",
            params={"title": page, "append": append},
            cookies=dict(cookies[name]),
            headers={"X-Warp-Client": f"{name}-load"},
        )
    return HttpRequest(
        "GET",
        "/edit.php",
        params={"title": page, "marker": marker},
        cookies=dict(cookies[name]),
        headers={"X-Warp-Client": f"{name}-load"},
    )


# ---------------------------------------------------------------------------
# gate classification regressions
# ---------------------------------------------------------------------------


class TestGateClassification:
    def test_untouched_partition_served_during_repair(self):
        outcome, clients, cookies, pages, names = _stage(seed=11)
        warp = outcome.warp
        warp.enable_online_repair()
        statuses = []

        def hook():
            if len(statuses) < 3:
                response = clients["lg1"].send(
                    _request("lg1", cookies, pages[1], marker=f"v{len(statuses)}")
                )
                statuses.append(response.status)

        controller = warp._controller()
        controller.step_hook = hook
        result = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
        assert result.ok
        assert statuses and all(status == 200 for status in statuses)
        assert result.stats.gate["served"] >= len(statuses)

    def test_repaired_partition_queued_then_reapplied_exactly_once(self):
        outcome, clients, cookies, pages, names = _stage(seed=12)
        warp = outcome.warp
        gate = warp.enable_online_repair()
        tickets = []

        def hook():
            if not tickets:
                # The attacked tenant's page is owned by the repair.
                response = clients["lg0"].send(
                    _request("lg0", cookies, pages[0], append="\nqueued-mark.")
                )
                assert response.status == 202
                tickets.append(int(response.headers["X-Warp-Queued"]))

        controller = warp._controller()
        controller.step_hook = hook
        result = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
        assert result.ok and tickets
        # Re-applied exactly once, after the switch, onto the repaired text.
        text = outcome.wiki.page_text(pages[0])
        assert text.count("queued-mark.") == 1
        assert "DEFACED" not in text
        applied = gate.response_for(tickets[0])
        assert applied is not None and applied.status == 200
        assert result.stats.gate["queued"] == 1
        assert result.stats.gate["applied"] == 1
        # The queue is journaled and fully consumed.
        assert warp.graph.store.pending_gate_queue == {}

    def test_queued_script_raise_does_not_wedge_finalize(self):
        outcome, clients, cookies, pages, names = _stage(seed=13)
        warp = outcome.warp
        gate = warp.enable_online_repair()

        def explode(ctx):
            raise RuntimeError("boom at re-application time")

        warp.scripts.register("boom.php", {"handle": explode})
        warp.server.route("/boom.php", "boom.php")
        tickets = []

        def hook():
            if not tickets:
                # Unknown footprint -> conservatively queued.
                boom = clients["lg1"].send(
                    HttpRequest(
                        "GET",
                        "/boom.php",
                        cookies=dict(cookies["lg1"]),
                        headers={"X-Warp-Client": "lg1-load"},
                    )
                )
                assert boom.status == 202
                tickets.append(int(boom.headers["X-Warp-Queued"]))
                # A well-behaved queued request behind the exploding one.
                good = clients["lg0"].send(
                    _request("lg0", cookies, pages[0], append="\nafter-boom.")
                )
                assert good.status == 202
                tickets.append(int(good.headers["X-Warp-Queued"]))

        controller = warp._controller()
        controller.step_hook = hook
        result = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
        assert result.ok, "a raising queued script must not wedge finalize"
        boom_response = gate.response_for(tickets[0])
        assert boom_response.status == 500
        good_response = gate.response_for(tickets[1])
        assert good_response.status == 200
        assert outcome.wiki.page_text(pages[0]).count("after-boom.") == 1
        assert result.stats.gate["apply_errors"] == 1
        assert not gate.active
        # The server keeps serving normally afterwards.
        after = clients["lg1"].send(_request("lg1", cookies, pages[1], marker="post"))
        assert after.status == 200

    def test_second_repair_reports_fresh_gate_counters(self):
        """Gate stats are per-repair: a long-lived deployment's second
        repair must not fold the first one's served/queued counts into its
        RepairResult (regression: GateStats survived across begin())."""
        outcome, clients, cookies, pages, names = _stage(seed=18)
        warp = outcome.warp
        warp.enable_online_repair()

        def hook():
            clients["lg1"].send(_request("lg1", cookies, pages[1], marker="a"))

        controller = warp._controller()
        controller.step_hook = hook
        first = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
        assert first.ok and first.stats.gate["served"] > 0

        # Second repair: a quiet one (no traffic at all).
        victim = outcome.tenant_users[1][0]
        second = warp.repair.submit(CancelClientSpec(f"{victim}-browser")).result()
        assert second.ok
        assert second.stats.gate == {
            "served": 0,
            "queued": 0,
            "applied": 0,
            "apply_errors": 0,
        }

    def test_global_policy_queues_disjoint_requests(self, futile_clustering):
        """An unscoped (monolithic) worklist cannot be bounded, so the
        gate owns the whole application and queues every request."""
        outcome, clients, cookies, pages, names = _stage(seed=14)
        warp = outcome.warp
        warp.enable_online_repair()
        statuses = []

        def hook():
            if len(statuses) < 2:
                response = clients["lg1"].send(
                    _request("lg1", cookies, pages[1], marker="g")
                )
                statuses.append(response.status)

        controller = warp._controller()
        controller.step_hook = hook
        result = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
        assert result.ok
        assert statuses and all(status == 202 for status in statuses)
        assert result.stats.gate["served"] == 0
        assert result.stats.gate["applied"] == result.stats.gate["queued"]

    def test_no_footprint_means_conservative(self):
        outcome, clients, cookies, pages, names = _stage(seed=15)
        warp = outcome.warp
        gate = warp.enable_online_repair()
        gate.begin()
        gate.set_scope([])  # empty plan -> own everything
        assert gate._conflict("never-recorded.php", HttpRequest("GET", "/x")) is not None
        gate.active = False

    def test_footprint_template_resolves_wiki_sources(self):
        """The learned edit.php template must resolve: title from the
        request param, the session row from the cookie, the cache key
        affix, and the page's current editor through a probe."""
        outcome, clients, cookies, pages, names = _stage(seed=16)
        warp = outcome.warp
        gate = RepairGate(warp.ttdb, warp.graph)
        predicted = gate.footprints.predict(
            "edit.php", _request("lg1", cookies, pages[1], append="\nx.")
        )
        assert predicted is not None
        read_tables = {table for table, _ in predicted.read_disjuncts}
        assert "pagecontent" in read_tables and "sessions" in read_tables
        assert ("pagecontent", "title", pages[1]) in predicted.write_keys
        # The parser-cache DELETE never matched a row in this staging, so
        # there is no *written* key to learn — but its WHERE clause still
        # resolves through the affix template and gates the partition.
        cache_disjuncts = [
            constraints
            for table, constraints in predicted.read_disjuncts
            if table == "objectcache"
        ]
        assert any(
            ("cache_key", f"page:{pages[1]}") in constraints
            for constraints in cache_disjuncts
        )
        # The probe recovered the page's current editor; the session lookup
        # recovered the load client's user name.
        editors = {
            key[2] for key in predicted.write_keys if key[:2] == ("pagecontent", "editor")
        }
        assert editors, "editor partition keys must be predicted, not dynamic"
        assert ("pagecontent", "editor") not in predicted.dynamic_columns


    def test_symbolic_reads_come_from_the_prepared_statement(self, statement_analyses):
        """Gate unchanged: the token disjuncts the gate reads off each
        statement's own read-set template equal an independent symbolic
        analysis (``read_partitions`` over fresh tokens, what the gate ran
        privately before), predicted footprints are equal for a fixed set
        of requests, and a second ``gate.begin()`` re-analyses nothing."""
        import types

        from repro.db.sql.parser import parse
        from repro.repair.gate import FootprintIndex
        from repro.ttdb.partitions import ParamToken, read_partitions

        outcome, clients, cookies, pages, names = _stage(seed=16, users=2, edits=2)
        warp = outcome.warp

        def shape(disjuncts):
            # Tokens are identity-equal only: compare them by slot index.
            if disjuncts is None:
                return None
            return [
                tuple(
                    (column, ("?", value.index) if isinstance(value, ParamToken) else value)
                    for column, value in disjunct
                )
                for disjunct in disjuncts
            ]

        def oracle(query):
            flag = types.SimpleNamespace(unsafe=False)
            tokens = tuple(ParamToken(i, flag) for i in range(len(query.params)))
            schema = warp.ttdb.schema(query.table)
            symbolic = read_partitions(parse(query.sql), tokens, schema)
            if flag.unsafe or symbolic.disjuncts is None:
                return None
            return [tuple(sorted(d, key=repr)) for d in symbolic.disjuncts]

        class OracleIndex(FootprintIndex):
            def _symbolic_reads(self, query):
                return oracle(query)

        by_sql = {}
        for run in warp.graph.runs.values():
            for query in run.queries:
                by_sql.setdefault(query.sql, query)
        assert len(by_sql) > 5
        index = FootprintIndex(warp.graph, warp.ttdb)
        templated = 0
        for query in by_sql.values():
            got = index._symbolic_reads(query)
            assert shape(got) == shape(oracle(query)), query.sql
            templated += bool(got) and any(
                isinstance(value, ParamToken) for d in got for _, value in d
            )
        assert templated > 0

        requests = [
            ("edit.php", _request("lg1", cookies, pages[1], append="\nx.")),
            ("edit.php", _request("lg0", cookies, pages[0], marker="m")),
            ("login.php", HttpRequest("GET", "/login.php", cookies=dict(cookies["lg2"]))),
        ]
        reference = OracleIndex(warp.graph, warp.ttdb)
        def canon(predicted):
            return (
                sorted(predicted.read_disjuncts, key=repr),
                predicted.write_keys,
                predicted.dynamic_columns,
                predicted.tables_all,
            )

        for script, request in requests:
            got = index.predict(script, request)
            assert got is not None
            assert canon(got) == canon(reference.predict(script, request))

        del statement_analyses[:]
        gate = warp.enable_online_repair()
        for _ in range(2):
            gate.begin()
            for script, request in requests:
                gate.footprints.predict(script, request)
        gate.active = False
        assert statement_analyses == []
        warp.ttdb.prepare("SELECT * FROM pagecontent WHERE title = 'unseen'")
        assert statement_analyses == ["plan", "template"]


# ---------------------------------------------------------------------------
# pending_during_repair ordering contract (satellite)
# ---------------------------------------------------------------------------


class TestPendingReapplicationOrder:
    def test_reapplied_in_arrival_ts_order_even_if_list_is_shuffled(self):
        """The §4.3 re-application pass must follow arrival-ts order: the
        list is appended by request threads, so list order carries no
        guarantee.  Two appends to one page re-applied out of order would
        resurrect the first append's text over the second's."""
        outcome, clients, cookies, pages, names = _stage(seed=17)
        warp = outcome.warp  # no gate: legacy serve-everything mode
        controller = warp._controller()
        controller._begin()
        try:
            # Damage the attacked tenant's partition so mid-repair edits to
            # it have changed inputs.
            atk_runs = warp.graph.client_runs(outcome.attacker_client)
            controller._plan_groups(run_seeds=[run.run_id for run in atk_runs])
            for run in atk_runs:
                controller.cancel_run(run)
            before = len(warp.graph.runs)
            first = clients["lg0"].send(
                _request("lg0", cookies, pages[0], append="\nfirst.")
            )
            second = clients["lg0"].send(
                _request("lg0", cookies, pages[0], append="\nsecond.")
            )
            assert first.status == 200 and second.status == 200
            assert len(controller.server.pending_during_repair) == 2
            # Adversarial list order (arrival order reversed).
            controller.server.pending_during_repair.reverse()
            reexecuted = []
            original = controller._reexec_run

            def spy(run, request, conflict_on_change):
                reexecuted.append(run.run_id)
                return original(run, request, conflict_on_change)

            controller._reexec_run = spy
            controller._finalize()
        except BaseException:
            controller._unwind_failed_repair()
            raise
        run_ids = sorted(reexecuted)
        assert reexecuted == run_ids, "re-application must follow arrival ts order"
        assert len(reexecuted) == 2
        text = outcome.wiki.page_text(pages[0])
        assert text.index("first.") < text.index("second.")
        assert text.count("first.") == 1 and text.count("second.") == 1


# ---------------------------------------------------------------------------
# the interleaving equivalence property (satellite 1)
# ---------------------------------------------------------------------------


def _canonical_graph(graph):
    """Graph snapshot with run ids and qids renumbered canonically: online
    traffic interleaves id allocation with repair re-execution, so raw ids
    differ from the quiesced reference while the records are identical.
    Runs are matched by (ts_start, script, request key) — unique because
    every live run ticks the clock at least once."""
    snapshot = graph.to_snapshot()
    snapshot["runs"].sort(
        key=lambda run: (run["ts_start"], run["script"], repr(sorted(run["request"].items())))
    )
    run_map, qid_map = {}, {}
    for run in snapshot["runs"]:
        run_map.setdefault(run["run_id"], len(run_map) + 1)
        run["run_id"] = run_map[run["run_id"]]
        for query in run["queries"]:
            qid_map.setdefault(query["qid"], len(qid_map) + 1)
            query["qid"] = qid_map[query["qid"]]
            query["run_id"] = run["run_id"]
    snapshot["visits"].sort(key=lambda v: (v["client_id"], v["visit_id"]))
    return snapshot


def _canonical_db(warp):
    """Version-store dump with generation numbers normalized to *final-
    generation visibility*.  A write served live during repair carries the
    pre-switch generation while the quiesced reference's identical write
    carries the post-switch one; both are visible in the final generation
    and in every later one, which is the observable that matters.  Fenced
    versions (dead in the final generation) normalize to invisible in both
    stores."""
    dump = warp.database.to_dict()
    final_gen = warp.ttdb.current_gen
    for table in dump["tables"]:
        for version in table["versions"]:
            start_gen, end_gen = version[4], version[5]
            version[4] = None
            version[5] = start_gen <= final_gen <= end_gen
        table["versions"].sort(key=repr)
    return dump


def _counts(result):
    return (
        result.stats.visits_reexecuted,
        result.stats.runs_reexecuted,
        result.stats.queries_reexecuted,
        result.stats.runs_canceled,
        result.stats.conflicts,
    )


def _online_run(seed):
    rng = random.Random(seed * 6151 + 7)
    shape = {"n_tenants": rng.randint(2, 4), "users": 1, "edits": rng.randint(1, 2)}
    outcome, clients, cookies, pages, names = _stage(seed, **shape)
    warp = outcome.warp
    warp.enable_online_repair()
    ops = scripted_ops(
        random.Random(seed * 31 + 1), names, pages, n_ops=24, cookies=cookies
    )
    schedule = CoopSchedule(seed * 17 + 3, ops, clients)
    controller = warp._controller()
    controller.step_hook = schedule.hook
    result = controller.repair_batch([CancelClientSpec(outcome.attacker_client)])
    schedule.drain()
    responses = {}
    for op in schedule.served:
        responses[op.index] = op.response.key()
    gate = warp.server.gate
    for op in schedule.queued:
        applied = gate.response_for(op.ticket)
        assert applied is not None, "every queued op must be re-applied"
        responses[op.index] = applied.key()
    return shape, outcome, result, schedule, responses


def _reference_run(seed, shape, serialization):
    outcome, clients, cookies, pages, names = _stage(seed, **shape)
    result = outcome.warp.repair.submit(
        CancelClientSpec(outcome.attacker_client)
    ).result()
    responses = {}
    for op in serialization:
        response = clients[op.client_name].send(op.request.copy())
        responses[op.index] = response.key()
    return outcome, result, responses


@pytest.mark.parametrize("seed", range(20))
def test_online_repair_equivalent_to_quiesced(seed):
    shape, online, online_result, schedule, online_responses = _online_run(seed)
    assert online_result.ok
    # The serialization contract this equivalence is stated over.
    serialization = schedule.serialization()
    assert len(serialization) == 24
    ref, ref_result, ref_responses = _reference_run(seed, shape, serialization)
    assert ref_result.ok

    assert _counts(online_result) == _counts(ref_result), "re-execution counts diverged"
    assert online_responses == ref_responses, "a served response diverged"
    assert _canonical_db(online.warp) == _canonical_db(ref.warp), (
        "final version stores diverged"
    )
    assert _canonical_graph(online.warp.graph) == _canonical_graph(ref.warp.graph), (
        "graph records diverged"
    )
    # Every ticket was consumed exactly once.
    assert online.warp.graph.store.pending_gate_queue == {}
    gate_stats = online_result.stats.gate
    assert gate_stats["applied"] == gate_stats["queued"]


@pytest.mark.parametrize("seed", range(20))
def test_every_online_request_is_one_recorded_run(seed):
    """Served live, queued by the gate or issued after the repair, every
    request of the interleaving ran its script once: the load clients'
    runs in the final graph are exactly the scripted ops, each with the
    response its client saw."""
    _, outcome, result, schedule, responses = _online_run(seed)
    assert result.ok
    ops = schedule.serialization()
    names = {f"{op.client_name}-load" for op in ops}

    def entry(request, response_key):
        return (
            request.headers["X-Warp-Client"],
            request.method,
            sorted(request.params.items()),
            response_key,
        )

    issued = sorted(entry(op.request, responses[op.index]) for op in ops)
    runs = [
        run
        for run in outcome.warp.graph.runs.values()
        if run.request.path == "/edit.php"
        and run.request.headers.get("X-Warp-Client") in names
    ]
    recorded = sorted(entry(run.request, run.response.key()) for run in runs)
    assert recorded == issued
    assert all(run.queries and not run.canceled for run in runs)


# ---------------------------------------------------------------------------
# real-thread stress smoke (CI satellite)
# ---------------------------------------------------------------------------


class TestThreadStress:
    def test_eight_threads_during_repair_no_losses_no_503(self):
        outcome = run_multi_tenant_scenario(
            n_tenants=16, users_per_tenant=1, attacked_tenants=1, seed=77
        )
        warp = outcome.warp
        warp.enable_online_repair()
        clients = make_load_clients(
            outcome.wiki, warp.server, [f"lg{i}" for i in range(16)]
        )
        pages = [outcome.tenant_page(t) for t in range(16)]
        gen = LoadGen(clients, pages, seed=99)
        stop = threading.Event()
        box = {}

        def drive():
            box["stats"] = gen.run_threads(8, duration=1.5, stop=stop)

        loader = threading.Thread(target=drive)
        loader.start()
        time.sleep(0.03)
        result = warp.repair.submit(CancelClientSpec(outcome.attacker_client)).result()
        stop.set()
        loader.join()
        stats = box["stats"]
        assert result.ok
        assert stats.total > 0
        assert stats.rejected == 0, "the gate must not 503 anything"
        assert stats.errors == 0
        gate_stats = result.stats.gate
        assert gate_stats["applied"] == gate_stats["queued"]
        # Every write landed exactly once (queued ones after the switch).
        text = {page: outcome.wiki.page_text(page) for page in pages}
        for marker, page in stats.writes:
            assert text[page].count(marker) == 1, (marker, page)
        assert "DEFACED" not in text[pages[0]]
        # The deployment is fully operational post-repair.
        after = clients[3].send(clients[3].request("GET", "/edit.php", {"title": pages[3]}))
        assert after.status == 200
