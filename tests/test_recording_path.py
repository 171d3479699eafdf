"""The recording path: a statement-cache hit is recorded by reference.

A cached SELECT's payload — the ``QueryRecord`` fields every hit records
alike, and their share of the run's line as text — is one object per cache
entry (``RecordedPayload``): the results of the entry carry it, the runtime
builds each hit's query from it, ``AppRunRecord.encode`` splices its text.
These tests pin what must not change for that (the line's bytes: a spliced
line equals a walked one, through served traffic, invalidation, script-side
mutation and cancellation) and the two cache-key defects found on the way
(``(True,)`` hitting ``(1,)``'s entry; an unhashable parameter escaping
``HttpServer.handle``).  The generated-run property (``encode() ==
json.dumps(to_wire())``) is ``test_snapshot_format.py::test_encode_is_the_dump_of_to_wire``.
"""

import json
from decimal import Decimal

import pytest

from repro.core.serialize import COMPACT
from repro.db.storage import Column, TableSchema
from repro.http.message import HttpRequest
from repro.repair.api import CancelClientSpec
from repro.warp import WarpSystem
from repro.workload.loadgen import make_load_clients
from repro.workload.scenarios import WikiDeployment


def walked(run, warp) -> str:
    """``run``'s line encoded from scratch against ``warp``'s text table:
    the tree walk, no fragment."""
    return json.dumps(run.to_wire(warp.graph.store.texts), separators=COMPACT)


def wal_run_texts(path):
    """The ``data`` text of every ``run`` line in the WAL at ``path``."""
    prefix, texts = '{"kind":"run","data":', []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(prefix):
                texts.append(line.rstrip("\n")[len(prefix) : -1])
    return texts


@pytest.fixture
def kv(tmp_path):
    """A deployment with one table ``t(k, v)`` — ``k`` its partition column —
    and ``/probe.php``, which runs the handler the test hangs on it."""
    warp = WarpSystem(wal_path=str(tmp_path / "records.wal"))
    warp.ttdb.create_table(
        TableSchema("t", (Column("k", "int"), Column("v")), partition_columns=("k",))
    )
    warp.ttdb.create_table(TableSchema("plain", (Column("k", "int"), Column("v"))))
    for table in ("t", "plain"):
        warp.ttdb.execute(f"INSERT INTO {table} (k, v) VALUES (?, ?)", (1, "one"))
        warp.ttdb.execute(f"INSERT INTO {table} (k, v) VALUES (?, ?)", (2, "two"))
    warp.scripts.register("probe.php", {"handle": lambda ctx: warp.probe(ctx)})
    warp.server.route("/probe.php", "probe.php")
    warp.get = lambda **params: warp.server.handle(
        HttpRequest("GET", "/probe.php", params={k: str(v) for k, v in params.items()})
    )
    yield warp
    warp.graph.store.wal.close()


SELECT_V = "SELECT v FROM t WHERE k = ?"


# ---------------------------------------------------------------------------
# the statement cache's key
# ---------------------------------------------------------------------------


class TestCacheKey:
    LOOK_ALIKES = {"int": 1, "bool": True, "float": 1.0}

    def test_look_alike_params_are_three_entries(self, kv):
        tt = kv.ttdb
        for value in self.LOOK_ALIKES.values():
            result = tt.execute(SELECT_V, (value,))
            assert result.rows == [{"v": "one"}]
            assert type(result.params[0]) is type(value)
        assert len(tt._stmt_cache) == 3
        for value in self.LOOK_ALIKES.values():  # now as hits
            assert type(tt.execute(SELECT_V, (value,)).params[0]) is type(value)
        assert len({id(entry[0].payload) for entry in tt._stmt_cache.values()}) == 3

    def test_each_runs_line_says_what_its_script_passed(self, kv):
        kv.probe = lambda ctx: ctx.echo(
            str(ctx.query(SELECT_V, (self.LOOK_ALIKES[ctx.param("as")],)))
        )
        order = ["int", "bool", "float", "float", "int", "bool"]  # misses, then hits
        for name in order:
            assert kv.get(**{"as": name}).status == 200
        lines = [json.loads(text) for text in wal_run_texts(kv.graph.store.wal.path)]
        written = [line["queries"][0][3] for line in lines[-len(order) :]]
        assert [repr(params) for params in written] == [
            repr([self.LOOK_ALIKES[name]]) for name in order
        ]

    @pytest.mark.parametrize("param", [[1], {"a": 1}, (1, [2])], ids=repr)
    def test_param_without_a_hash_is_served(self, kv, param):
        """``TypeError: unhashable type`` used to leave ``_execute_select``,
        pass ``AppRuntime.execute``'s handler and ``HttpServer.handle``."""
        kv.probe = lambda ctx: ctx.echo(
            repr(ctx.query("SELECT v FROM plain WHERE k = ? OR k = ?", (param, ctx.param("k"))))
        )
        for _ in range(2):  # a miss, then a hit on the same key
            response = kv.get(k=1)
            assert response.status == 200 and response.body == "[]"
        run = kv.graph.runs_in_order()[-1]
        assert run.queries[0].params[0] == param and run.json_text == walked(run, kv)

    def test_param_that_cannot_be_keyed_runs_uncached(self, kv):
        tt = kv.ttdb
        before = len(tt._stmt_cache)
        for _ in range(2):
            result = tt.execute("SELECT v FROM plain WHERE k = ?", (Decimal(1),))
            assert result.rows == [{"v": "one"}] and result.payload is None
        assert len(tt._stmt_cache) == before


# ---------------------------------------------------------------------------
# one payload per cache entry, referenced — and never stale
# ---------------------------------------------------------------------------


class TestPayloadSharing:
    def test_hits_share_the_entrys_payload(self, kv):
        def probe(ctx):
            ctx.query(SELECT_V, (1,))
            ctx.query(SELECT_V, (1,))

        kv.probe = probe
        for _ in range(2):
            kv.get()
        first, second = kv.graph.runs_in_order()[-2:]
        queries = first.queries + second.queries
        for name in ("sql", "params", "read_set", "snapshot", "read_row_ids"):
            assert len({id(getattr(query, name)) for query in queries}) == 1, name
        assert len({query.qid for query in queries}) == 4
        assert [query.ts for query in queries] == sorted({query.ts for query in queries})
        (entry,) = [
            entry for (sql, _), entry in kv.ttdb._stmt_cache.items() if sql == SELECT_V
        ]
        payload = entry[0].payload
        assert payload.fields[1] is queries[0].params
        for run in (first, second):
            assert run.payloads is None  # a stored run refers into no cache
            assert run.json_text == walked(run, kv)
            assert run.json_text.count(payload.text) == 2

    def test_write_between_identical_selects_yields_a_fresh_payload(self, kv):
        seen = []

        def probe(ctx):
            first = ctx.query_result(SELECT_V, (1,))
            if ctx.param("write"):
                ctx.query("UPDATE t SET v = ? WHERE k = ?", (ctx.param("write"), 1))
            second = ctx.query_result(SELECT_V, (1,))
            seen.append((first.payload, second.payload))
            ctx.echo(f"{first.rows[0]['v']} {second.rows[0]['v']}")

        kv.probe = probe
        bodies = [kv.get().body, kv.get(write="uno").body, kv.get().body]
        assert bodies == ["one one", "one uno", "uno uno"]
        (old, same), (hit, fresh), (later, again) = seen
        assert old is same is hit and fresh is later is again and old is not fresh
        assert '"one"' in old.text and '"uno"' in fresh.text and '"one"' not in fresh.text
        for run in kv.graph.runs_in_order()[-3:]:
            assert run.json_text == walked(run, kv)
        stale_run = kv.graph.runs_in_order()[-2]
        assert [query.snapshot[2] for query in stale_run.queries if not query.is_write] == [
            ((("v", "one"),),),
            ((("v", "uno"),),),
        ]
        # A write to another partition invalidates nothing.
        kv.ttdb.execute("UPDATE t SET v = ? WHERE k = ?", ("zwei", 2))
        assert kv.ttdb.execute(SELECT_V, (1,)).payload is fresh

    def test_script_mutating_returned_rows_does_not_reach_the_payload(self, kv):
        def probe(ctx):
            rows = ctx.query(SELECT_V, (1,))
            ctx.echo(rows[0]["v"])
            rows[0]["v"] = "defaced"
            rows.append({"v": "extra"})

        kv.probe = probe
        assert [kv.get().body for _ in range(3)] == ["one"] * 3  # the miss, two hits
        for run in kv.graph.runs_in_order()[-3:]:
            assert "defaced" not in run.json_text and run.json_text == walked(run, kv)
            assert run.queries[0].snapshot == ("select", True, ((("v", "one"),),))

    def test_canceled_run_is_reencoded_in_full(self, kv, tmp_path):
        kv.probe = lambda ctx: ctx.query(SELECT_V, (1,))
        for _ in range(3):
            kv.get()
        store = kv.graph.store
        run = kv.graph.runs_in_order()[-1]
        kept = run.json_text
        store.mark_run_canceled(run.run_id)
        assert run.json_text is None and run.payloads is None
        path = str(tmp_path / "snapshot.json")
        kv.save(path)
        assert run.json_text == walked(run, kv) == kept[:-1] + ',"canceled":true}'
        reloaded = WarpSystem.load(path)
        again = reloaded.graph.store.runs[run.run_id]
        assert again.canceled and again.json_text == run.json_text == again.encode(reloaded.graph.store.texts)

    def test_a_run_with_fifty_nondet_calls_numbers_them_per_function(self, kv):
        def probe(ctx):
            for i in range(60):
                ctx.rand() if i % 3 else ctx.time()

        kv.probe = probe
        kv.get()
        run = kv.graph.runs_in_order()[-1]
        assert len(run.nondet) == 60
        for func, count in (("time", 20), ("rand", 40)):
            assert [n.seq for n in run.nondet if n.func == func] == list(range(count))
        assert run.json_text == walked(run, kv)


# ---------------------------------------------------------------------------
# served traffic: the WAL is what encoding every run from scratch gives
# ---------------------------------------------------------------------------


def test_wal_of_served_traffic_equals_walked_lines(tmp_path):
    """Headerless wiki traffic with hits, misses and writes interleaved: every
    ``run`` line in the WAL is byte for byte its stored run walked from
    scratch — no fragment involved, a stored run holds none.  Still so for
    what a repair replaces, and a reload re-encodes to the same bytes."""
    wal_path = str(tmp_path / "records.wal")
    deployment = WikiDeployment(n_users=0, seed=23, wal_path=wal_path)
    wiki, warp = deployment.wiki, deployment.warp
    names = [f"w{i}" for i in range(4)]
    for name in names:
        wiki.seed_user(name, f"pw-{name}")
        wiki.seed_page(f"P-{name}", f"page of {name}\n", owner=name)
    clients = make_load_clients(wiki, warp.server, names)
    for step in range(6):
        for index, client in enumerate(clients):
            for method in ("GET", "GET", "POST", "GET")[: 2 + (step + index) % 3]:
                params = {"title": f"P-{names[index]}"}
                if method == "POST":
                    params["append"] = f"\nedit {step}."
                assert client.send(client.request(method, "/edit.php", params)).status == 200
    store = warp.graph.store
    store.wal.sync()
    lines = {json.loads(text)["run_id"]: text for text in wal_run_texts(wal_path)}
    assert len(lines) == len(store.runs) > 60
    for run_id, run in store.runs.items():
        assert run.payloads is None
        assert lines[run_id] == run.json_text == walked(run, warp)
    kept_texts = [
        entry[0].payload.text for entry in warp.ttdb._stmt_cache.values() if entry[0].payload.text
    ]
    spliced = sum(text.count(kept) for kept in kept_texts for text in lines.values())
    assert spliced > 50  # the traffic did hit the statement cache

    assert warp.repair.submit(CancelClientSpec(f"{names[0]}-load")).result().ok
    for run in store.runs.values():
        assert run.json_text is None or run.json_text == walked(run, warp)
    snapshot = str(tmp_path / "snapshot.json")
    warp.save(snapshot)
    store.wal.close()
    reloaded = WarpSystem.load(snapshot)
    texts = reloaded.graph.store.texts
    for run_id, run in reloaded.graph.store.runs.items():
        assert run.encode(texts) == run.json_text == store.runs[run_id].json_text
        assert run.json_text == walked(run, reloaded)
