"""Property test: indexed lookups == naive linear-scan reference.

A seeded-random workload of runs, visits and queries (interleaved with
mutations: replace_run, gc, quota enforcement) is applied to both the
indexed :class:`RecordStore` and a deliberately naive reference that
answers every question by scanning everything.  Every supported lookup
must return exactly the same records.
"""

import random

from repro.ahg.records import AppRunRecord, QueryRecord, VisitRecord
from repro.http.message import HttpRequest, HttpResponse
from repro.store.recordstore import RecordStore
from repro.ttdb.partitions import ReadSet

TABLES = ("pages", "acl", "users")
TITLES = ("A", "B", "C", "D", "E")
FILES = ("index.php", "edit.php", "login.php", "common.php")
CLIENTS = ("c1", "c2", "c3")


class NaiveReference:
    """The seed implementation's semantics, as plain linear scans."""

    def __init__(self):
        self.runs = []
        self.visits = {}
        self.visit_order = []

    def add_run(self, run):
        self.runs.append(run)

    def add_visit(self, visit):
        self.visits[(visit.client_id, visit.visit_id)] = visit
        self.visit_order.append((visit.client_id, visit.visit_id))

    def replace_run(self, run_id, record):
        for index, run in enumerate(self.runs):
            if run.run_id == run_id:
                self.runs[index] = record
                return

    def gc(self, horizon_ts):
        self.runs = [r for r in self.runs if r.ts_end >= horizon_ts]
        live = {(r.client_id, r.visit_id) for r in self.runs}
        for key in list(self.visits):
            if self.visits[key].ts < horizon_ts and key not in live:
                del self.visits[key]
                self.visit_order.remove(key)

    def enforce_client_quota(self, max_visits):
        for client in {c for c, _ in self.visits}:
            ids = [v for c, v in self.visit_order if c == client and (c, v) in self.visits]
            excess = len(ids) - max_visits
            if excess <= 0:
                continue
            victims = sorted(ids, key=lambda v: self.visits[(client, v)].ts)[:excess]
            for visit_id in victims:
                del self.visits[(client, visit_id)]
                self.visit_order.remove((client, visit_id))

    # -- lookups ---------------------------------------------------------------

    def runs_of_visit(self, client_id, visit_id):
        return [
            r for r in self.runs if r.client_id == client_id and r.visit_id == visit_id
        ]

    def client_runs(self, client_id):
        return [r for r in self.runs if r.client_id == client_id]

    def child_visits(self, client_id, visit_id):
        return [
            self.visits[(c, v)]
            for c, v in self.visit_order
            if c == client_id and self.visits[(c, v)].parent_visit == visit_id
        ]

    def runs_loading_file(self, file, since_ts):
        return [r for r in self.runs if r.ts_end >= since_ts and file in r.loaded_files]

    def run_for_request(self, client_id, visit_id, request_id):
        # Correlation triples are unique in real traffic; on (artificial)
        # duplicates the store's map semantics are last-write-wins.
        for run in reversed(self.runs):
            if (run.client_id, run.visit_id, run.request_id) == (
                client_id,
                visit_id,
                request_id,
            ):
                return run
        return None

    def client_visits(self, client_id):
        return [
            self.visits[(c, v)] for c, v in self.visit_order if c == client_id
        ]

    def queries_touching(self, table, keys, since_ts, whole_table=False):
        keys = set(keys)
        out = []
        for run in self.runs:
            for query in run.queries:
                if query.table != table or query.ts <= since_ts:
                    continue
                if whole_table:
                    out.append(query)
                    continue
                if query.read_set.is_all or query.full_table_write:
                    out.append(query)
                    continue
                touched = set(query.written_partitions)
                touched |= {(table,) + tuple(k) for k in query.read_set.keys()}
                if touched & keys:
                    out.append(query)
        out.sort(key=lambda q: q.ts)
        return out


def random_query(rng, qid, run_id, ts):
    table = rng.choice(TABLES)
    if rng.random() < 0.15:
        read_set = ReadSet(table, disjuncts=None)
    else:
        reads = rng.sample(TITLES, rng.randint(0, 2))
        read_set = ReadSet(
            table, disjuncts=tuple(frozenset({("title", r)}) for r in reads)
        )
    writes = rng.sample(range(1, 8), rng.randint(0, 2))
    return QueryRecord(
        qid=qid,
        run_id=run_id,
        seq=0,
        ts=ts,
        sql="SELECT 1",
        params=(),
        kind="update" if writes else "select",
        table=table,
        read_set=read_set,
        written_row_ids=tuple((table, w) for w in writes),
        written_partitions=frozenset((table, "title", rng.choice(TITLES)) for _ in writes),
        full_table_write=rng.random() < 0.05,
        snapshot=("select", True, ()),
    )


def random_run(rng, run_id, ts, next_qid, request_counters):
    client = rng.choice(CLIENTS) if rng.random() < 0.8 else None
    visit = rng.randint(1, 6) if client else None
    request = None
    if client is not None:
        # Correlation triples are unique in real traffic (request ids are
        # allocated monotonically per visit).
        request_counters[(client, visit)] = request_counters.get((client, visit), 0) + 1
        request = request_counters[(client, visit)]
    files = dict.fromkeys(rng.sample(FILES, rng.randint(1, 3)), 0)
    run = AppRunRecord(
        run_id=run_id,
        ts_start=ts,
        ts_end=ts + rng.randint(1, 3),
        script="page.php",
        loaded_files=files,
        request=HttpRequest("GET", "/page.php"),
        response=HttpResponse(body="x"),
        client_id=client,
        visit_id=visit,
        request_id=request,
    )
    n_queries = rng.randint(0, 3)
    run.queries = [
        random_query(rng, next_qid + i, run_id, ts + i) for i in range(n_queries)
    ]
    return run, next_qid + n_queries


def replace_random_run(rng, store, naive, next_qid, request_counters):
    """Swap a random stored run for a fresh one with its identity, the way
    a repair's finalize does, and drop the buckets.  Returns the next qid."""
    victim = rng.choice(sorted(store.runs))
    old = store.runs[victim]
    replacement, next_qid = random_run(rng, victim, old.ts_start, next_qid, request_counters)
    replacement.ts_end = max(old.ts_end, replacement.ts_end)
    replacement.client_id = old.client_id
    replacement.visit_id = old.visit_id
    replacement.request_id = old.request_id
    store.replace_run(victim, replacement)
    store.invalidate_partition_indexes()
    naive.replace_run(victim, replacement)
    return next_qid


def assert_same_lookups(rng, store, naive):
    for client in CLIENTS:
        for visit in range(1, 7):
            assert [r.run_id for r in store.runs_of_visit(client, visit)] == [
                r.run_id for r in naive.runs_of_visit(client, visit)
            ]
            for request in range(1, 13):
                a = store.run_for_request(client, visit, request)
                b = naive.run_for_request(client, visit, request)
                assert (a.run_id if a else None) == (b.run_id if b else None)
        assert [v.visit_id for v in store.client_visits(client)] == [
            v.visit_id for v in naive.client_visits(client)
        ]
        assert [r.run_id for r in store.client_runs(client)] == [
            r.run_id for r in naive.client_runs(client)
        ]
        for parent in range(1, 7):
            assert [v.visit_id for v in store.child_visits(client, parent)] == [
                v.visit_id for v in naive.child_visits(client, parent)
            ]
    for file in FILES:
        for since in (0, rng.randint(0, 120)):
            assert sorted(r.run_id for r in store.runs_loading_file(file, since)) == sorted(
                r.run_id for r in naive.runs_loading_file(file, since)
            ), f"runs_loading_file({file}, {since})"
    for table in TABLES:
        keys = {
            (table, "title", title) for title in rng.sample(TITLES, rng.randint(0, 3))
        }
        for since in (0, rng.randint(0, 120)):
            for whole in (False, True):
                got = store.queries_touching(table, keys, since, whole_table=whole)
                want = naive.queries_touching(table, keys, since, whole_table=whole)
                assert {q.qid for q in got} == {
                    q.qid for q in want
                }, f"queries_touching({table}, {keys}, {since}, {whole})"
                assert [q.ts for q in got] == sorted(q.ts for q in got)


def test_indexed_lookups_match_naive_reference():
    for seed in range(5):
        rng = random.Random(1000 + seed)
        store = RecordStore()
        naive = NaiveReference()
        ts = 0
        next_run_id = 1
        next_qid = 1
        request_counters = {}
        for step in range(120):
            ts += rng.randint(1, 3)
            action = rng.random()
            if action < 0.55:
                run, next_qid = random_run(rng, next_run_id, ts, next_qid, request_counters)
                next_run_id += 1
                store.add_run(run)
                naive.add_run(run)
            elif action < 0.80:
                client = rng.choice(CLIENTS)
                visit_id = rng.randint(1, 6)
                if (client, visit_id) not in store.visits:
                    parent = rng.randint(1, 6) if rng.random() < 0.5 else None
                    if parent == visit_id:
                        parent = None
                    visit = VisitRecord(
                        client, visit_id, ts=ts, url="/x", parent_visit=parent
                    )
                    store.add_visit(visit)
                    naive.add_visit(visit)
            elif action < 0.88 and store.runs:
                next_qid = replace_random_run(rng, store, naive, next_qid, request_counters)
            elif action < 0.94:
                horizon = rng.randint(0, ts)
                store.gc(horizon)
                naive.gc(horizon)
            else:
                quota = rng.randint(1, 4)
                store.enforce_client_quota(quota)
                naive.enforce_client_quota(quota)
            if step % 20 == 19:
                assert_same_lookups(rng, store, naive)
        assert_same_lookups(rng, store, naive)


def test_lookups_sharing_drain_marks_hand_over_each_entry_once():
    """One repair's lookups share drain marks.  Each answer is part of the
    naive one and holds everything in it not handed over before, so
    together the answers are the naive ones' union; a query appended into
    a bucket a lookup already drained is handed over by the next lookup
    that reaches it."""
    for seed in range(5):
        rng = random.Random(2000 + seed)
        store = RecordStore()
        naive = NaiveReference()
        drained = {}
        handed, wanted = set(), set()
        # Queries appended into a drained bucket and not handed over yet.
        fresh = set()
        caught = got_total = want_total = 0
        ts = 0
        next_run_id = 1
        next_qid = 1
        request_counters = {}
        for _ in range(300):
            ts += rng.randint(1, 3)
            action = rng.random()
            if action < 0.35:
                run, next_qid = random_run(rng, next_run_id, ts, next_qid, request_counters)
                next_run_id += 1
                store.add_run(run)
                naive.add_run(run)
                # Every query is in its table's whole-table bucket.
                fresh.update(q.qid for q in run.queries if q.table in drained)
            elif action < 0.40 and store.runs:
                next_qid = replace_random_run(rng, store, naive, next_qid, request_counters)
            elif action < 0.43:
                horizon = rng.randint(0, ts // 2)
                store.gc(horizon)
                naive.gc(horizon)
            else:
                table = rng.choice(TABLES)
                keys = {
                    (table, "title", title)
                    for title in rng.sample(TITLES, rng.randint(0, 3))
                }
                since = rng.randint(0, ts)
                whole = rng.random() < 0.2
                got = store.queries_touching(table, keys, since, whole, drained)
                want = {q.qid for q in naive.queries_touching(table, keys, since, whole)}
                got_ids = {q.qid for q in got}
                call = f"queries_touching({table}, {keys}, {since}, {whole})"
                assert len(got_ids) == len(got), call
                assert [q.ts for q in got] == sorted(q.ts for q in got), call
                assert want - handed <= got_ids <= want, call
                caught += len(fresh & want)
                assert fresh & want <= got_ids, call
                fresh -= got_ids
                handed |= got_ids
                wanted |= want
                got_total += len(got_ids)
                want_total += len(want)
        assert handed == wanted
        # The marks did hold back what was handed before, and appends into
        # drained buckets did happen.
        assert got_total < want_total
        assert caught > 0
