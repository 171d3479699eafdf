"""Unit tests for the record-store layer: indexes, mutation API, WAL."""

import os
import subprocess
import sys

import pytest

from repro.ahg.records import AppRunRecord, QueryRecord, VisitRecord, PatchRecord
from repro.http.message import HttpRequest, HttpResponse
from repro.store.recordstore import RecordStore
from repro.store.snapshot import read_snapshot_header
from repro.store.wal import RecordWal
from repro.ttdb.partitions import ReadSet

from persistence_fixtures import recover_store, save_store


@pytest.fixture
def recover(closing):
    """``recover_store``, the log it attaches closed when the test ends."""

    def recover_closing(**paths):
        store = recover_store(**paths)
        if store.wal is not None:
            closing(store.wal)
        return store

    return recover_closing


def make_run(run_id, ts, files=None, client=None, visit=None, request_id=None, queries=()):
    run = AppRunRecord(
        run_id=run_id,
        ts_start=ts,
        ts_end=ts + 1,
        script="page.php",
        loaded_files=files or {"page.php": 0},
        request=HttpRequest("GET", "/page.php"),
        response=HttpResponse(body="x"),
        client_id=client,
        visit_id=visit,
        request_id=request_id,
    )
    run.queries = list(queries)
    return run


def make_query(qid, run_id, ts, table="pages", reads=None, writes=(), all_reads=False):
    if all_reads:
        read_set = ReadSet(table, disjuncts=None)
    else:
        read_set = ReadSet(
            table,
            disjuncts=tuple(frozenset({("title", r)}) for r in (reads or [])),
        )
    return QueryRecord(
        qid=qid,
        run_id=run_id,
        seq=0,
        ts=ts,
        sql="SELECT 1",
        params=("p", 1),
        kind="update" if writes else "select",
        table=table,
        read_set=read_set,
        written_row_ids=tuple(("pages", w) for w in writes),
        written_partitions=frozenset(("pages", "title", f"t{w}") for w in writes),
        full_table_write=False,
        snapshot=("select", True, (("a", 1),)),
    )


def test_store_package_imports_first():
    """Regression: ``import repro.store`` before ``repro.ahg`` must not
    trip the store↔graph circular import (the suite's own import order
    masks it in-process)."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.store"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr


class TestIndexedLookups:
    def test_runs_of_visit_uses_index(self):
        store = RecordStore()
        store.add_run(make_run(1, 10, client="c1", visit=5, request_id=1))
        store.add_run(make_run(2, 20, client="c1", visit=5, request_id=2))
        store.add_run(make_run(3, 15, client="c1", visit=6, request_id=1))
        assert [r.run_id for r in store.runs_of_visit("c1", 5)] == [1, 2]
        assert store._runs_by_visit[("c1", 5)] == [1, 2]

    def test_runs_loading_file_bisects_on_ts_end(self):
        store = RecordStore()
        store.add_run(make_run(1, 10, files={"a.php": 0}))
        store.add_run(make_run(2, 30, files={"a.php": 0}))
        store.add_run(make_run(3, 50, files={"b.php": 0}))
        assert [r.run_id for r in store.runs_loading_file("a.php", 20)] == [2]
        assert [r.run_id for r in store.runs_loading_file("a.php", 0)] == [1, 2]
        assert store.runs_loading_file("c.php", 0) == []

    def test_queries_touching_is_time_ordered_without_resort(self):
        store = RecordStore()
        run = make_run(1, 5)
        run.queries = [
            make_query(3, 1, ts=30, reads=["A"]),
            make_query(1, 1, ts=10, reads=["A"]),
            make_query(2, 1, ts=20, writes=[7]),
        ]
        store.add_run(run)
        hits = store.queries_touching(
            "pages", {("pages", "title", "A"), ("pages", "title", "t7")}, since_ts=0
        )
        assert [q.qid for q in hits] == [1, 2, 3]
        hits = store.queries_touching("pages", {("pages", "title", "A")}, since_ts=10)
        assert [q.qid for q in hits] == [3]

    def test_replace_run_refreshes_file_index(self):
        store = RecordStore()
        store.add_run(make_run(1, 10, files={"a.php": 0}))
        replacement = make_run(1, 10, files={"b.php": 1})
        assert store.replace_run(1, replacement) is not None
        assert store.runs_loading_file("a.php", 0) == []
        assert [r.run_id for r in store.runs_loading_file("b.php", 0)] == [1]
        assert store.runs_in_order() == [replacement]

    def test_replace_run_rejects_mismatched_id(self):
        store = RecordStore()
        store.add_run(make_run(1, 10))
        with pytest.raises(ValueError):
            store.replace_run(1, make_run(2, 10))

    def test_replace_unknown_run_returns_none(self):
        store = RecordStore()
        assert store.replace_run(99, make_run(99, 10)) is None

    def test_query_count_tracks_mutations(self):
        store = RecordStore()
        run = make_run(1, 10, queries=[make_query(1, 1, 10), make_query(2, 1, 11)])
        store.add_run(run)
        assert store.query_count == 2
        store.replace_run(1, make_run(1, 10, queries=[make_query(3, 1, 12)]))
        assert store.query_count == 1
        store.gc(horizon_ts=100)
        assert store.query_count == 0


class TestGcAndQuotaConsistency:
    """Regression: gc + enforce_client_quota leave request_map and the
    per-client visit lists consistent with the surviving records."""

    def _consistent(self, store):
        # Every request_map entry points at a live run with that identity.
        for (client_id, visit_id, request_id), run_id in store.request_map.items():
            run = store.runs.get(run_id)
            assert run is not None
            assert (run.client_id, run.visit_id, run.request_id) == (
                client_id,
                visit_id,
                request_id,
            )
        # Every client-visit id resolves to a stored visit, and vice versa.
        listed = set()
        for client_id, visit_ids in store._client_visits.items():
            assert len(visit_ids) == len(set(visit_ids))
            for visit_id in visit_ids:
                assert (client_id, visit_id) in store.visits
                listed.add((client_id, visit_id))
        assert listed == set(store.visits)
        # The visit index only references live runs.
        for key, run_ids in store._runs_by_visit.items():
            for run_id in run_ids:
                assert run_id in store.runs

    def test_gc_drops_dead_runs_and_visits_in_one_pass(self):
        store = RecordStore()
        for i in range(1, 6):
            store.add_visit(VisitRecord("c1", i, ts=i * 10, url="/x"))
            store.add_run(
                make_run(i, i * 10, client="c1", visit=i, request_id=1)
            )
        removed = store.gc(horizon_ts=35)
        # Runs 1..3 end at 11/21/31 (< 35); their visits die with them.
        assert removed == 6
        assert sorted(store.runs) == [4, 5]
        assert sorted(v for (_, v) in store.visits) == [4, 5]
        self._consistent(store)

    def test_gc_keeps_visit_with_surviving_run(self):
        store = RecordStore()
        store.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        store.add_run(make_run(1, 100, client="c1", visit=1, request_id=1))
        store.gc(horizon_ts=50)
        assert ("c1", 1) in store.visits
        self._consistent(store)

    def test_quota_then_gc_stay_consistent(self):
        store = RecordStore()
        for i in range(1, 11):
            store.add_visit(VisitRecord("c1", i, ts=i, url="/x"))
            store.add_run(make_run(i, i, client="c1", visit=i, request_id=1))
        dropped = store.enforce_client_quota(max_visits_per_client=4)
        assert dropped == 6
        assert [v.visit_id for v in store.client_visits("c1")] == [7, 8, 9, 10]
        self._consistent_after_quota(store)
        store.gc(horizon_ts=9)
        self._consistent_after_quota(store)

    def _consistent_after_quota(self, store):
        # Quota drops visit logs but keeps server-side runs, so request_map
        # may outlive the visit; it must still point at live runs.
        for key, run_id in store.request_map.items():
            assert run_id in store.runs
        for client_id, visit_ids in store._client_visits.items():
            for visit_id in visit_ids:
                assert (client_id, visit_id) in store.visits
        assert set(store.visits) == {
            (c, v) for c, ids in store._client_visits.items() for v in ids
        }


class TestVisitAndDescendants:
    """The damage walk repair and the preview share: a visit, then the
    visits its events navigated to, breadth first, within one client."""

    @staticmethod
    def tree():
        """c1: 1 -> 2 -> 4 and the sibling branch 1 -> 3 -> 6, recorded out
        of breadth-first order; c2 reuses c1's ids, with 1 -> 2 -> 5.  The
        middle visit c1/2 is the client's oldest, so quota drops it first."""
        store = RecordStore()
        c1 = [(1, None, 10), (2, 1, 5), (4, 2, 30), (3, 1, 40), (6, 3, 50)]
        c2 = [(1, None, 1), (2, 1, 2), (5, 2, 3)]
        for client_id, visits in (("c1", c1), ("c2", c2)):
            for visit_id, parent, ts in visits:
                store.add_visit(
                    VisitRecord(client_id, visit_id, ts=ts, url="/x", parent_visit=parent)
                )
        return store

    def test_walks_the_subtree_breadth_first(self):
        store = self.tree()
        assert store.visit_and_descendants("c1", 1) == [1, 2, 3, 4, 6]
        # Neither the sibling branch nor c2's visit 5, a child of c2's
        # visit 2, is reached from c1's visit 2.
        assert store.visit_and_descendants("c1", 2) == [2, 4]
        assert store.visit_and_descendants("c2", 2) == [2, 5]
        assert store.visit_and_descendants("c1", 6) == [6]

    def test_a_visit_quota_dropped_cuts_the_walk(self):
        store = self.tree()
        assert store.enforce_client_quota(max_visits_per_client=4) == 1
        assert ("c1", 2) not in store.visits
        assert store.visit_and_descendants("c1", 1) == [1, 3, 6]
        assert store.visit_and_descendants("c1", 4) == [4]
        assert store.visit_and_descendants("c2", 2) == [2, 5]
        # The surviving child keeps its parent link.
        assert store.visit_and_descendants("c1", 2) == [2, 4]

    def test_a_visit_gc_dropped_cuts_the_walk(self):
        store = self.tree()
        # Before ts 6: c1's visit 2 and every visit of c2 (none has a run).
        assert store.gc(horizon_ts=6) == 4
        assert ("c1", 2) not in store.visits and "c2" not in store._client_visits
        assert store.visit_and_descendants("c1", 1) == [1, 3, 6]
        assert store.visit_and_descendants("c1", 2) == [2, 4]
        assert store.visit_and_descendants("c1", 4) == [4]
        assert not [key for key in store._visit_children if key[0] == "c2"]

    @pytest.mark.parametrize(
        "drop", [lambda s: s.enforce_client_quota(4), lambda s: s.gc(6)], ids=["quota", "gc"]
    )
    def test_a_trimmed_tree_walks_the_same_after_reload(self, drop, tmp_path, recover):
        """Live and reloaded stores agree on every walk, from a dropped
        visit's id too: the reload rebuilds child lists from the surviving
        visits' ``parent_visit``, and the drop keeps what that rebuilds."""
        store = self.tree()
        drop(store)
        path = str(tmp_path / "snapshot.json")
        save_store(store, path)
        loaded = recover(snapshot_path=path)
        for client_id in ("c1", "c2"):
            for visit_id in range(1, 7):
                assert loaded.visit_and_descendants(
                    client_id, visit_id
                ) == store.visit_and_descendants(client_id, visit_id)
        assert loaded._visit_children == store._visit_children


class TestDurability:
    def test_snapshot_round_trip(self, tmp_path, recover):
        store = RecordStore()
        store.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        run = make_run(1, 10, client="c1", visit=1, request_id=1)
        run.queries = [make_query(1, 1, 10, reads=["A"], writes=[2])]
        store.add_run(run)
        store.add_patch(PatchRecord(file="a.php", new_version=1, apply_ts=3))

        path = str(tmp_path / "snapshot.json")
        save_store(store, path)
        loaded = recover(snapshot_path=path)

        assert sorted(loaded.runs) == sorted(store.runs)
        assert set(loaded.visits) == set(store.visits)
        assert [p.file for p in loaded.patches] == ["a.php"]
        assert loaded.query_count == store.query_count
        original = store.runs[1].queries[0]
        restored = loaded.runs[1].queries[0]
        assert restored.snapshot == original.snapshot
        assert restored.read_set == original.read_set
        assert restored.written_partitions == original.written_partitions
        assert restored.params == original.params
        assert [r.run_id for r in loaded.runs_loading_file("page.php", 0)] == [1]

    def test_wal_replay_restores_post_snapshot_records(self, tmp_path, closing, recover):
        wal_path = str(tmp_path / "records.wal")
        snap_path = str(tmp_path / "snapshot.json")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        save_store(store, snap_path)  # truncates the WAL
        store.add_run(make_run(2, 20))
        store.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        store.wal.sync()  # a visit waits for the next commit on the log

        recovered = recover(snapshot_path=snap_path, wal_path=wal_path)
        assert sorted(recovered.runs) == [1, 2]
        assert ("c1", 1) in recovered.visits

    def test_wal_replay_skips_torn_tail(self, tmp_path, closing, recover):
        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "run", "data": {"tr')  # crash mid-append
        recovered = recover(wal_path=wal_path)
        assert sorted(recovered.runs) == [1]

    def test_valid_json_tail_without_newline_is_still_torn(self, tmp_path, closing, recover):
        """A crash can cut a write exactly at the closing brace: valid
        JSON, no newline.  Replay must treat it as torn — repair()
        truncates it, and two recoveries of the same file must agree."""
        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        with open(wal_path, "r", encoding="utf-8") as fh:
            run2_line = fh.readline().replace('"run_id": 1', '"run_id": 2')
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write(run2_line.rstrip("\n"))  # complete JSON, missing newline

        first = recover(wal_path=wal_path)
        second = recover(wal_path=wal_path)
        assert sorted(first.runs) == sorted(second.runs) == [1]

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path, closing, recover):
        """Appending after a torn fragment must not weld a valid entry onto
        it (that line would be unparseable forever, losing every entry
        journaled after the first crash)."""
        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        with open(wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "run", "data": {"tr')  # crash mid-append

        recovered = recover(wal_path=wal_path)
        recovered.add_run(make_run(2, 20))  # journaled after recovery

        again = recover(wal_path=wal_path)
        assert sorted(again.runs) == [1, 2]

    def test_visit_delta_entries_replay_onto_base_record(self, tmp_path, closing, recover):
        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        visit = VisitRecord("c1", 1, ts=5, url="/x")
        store.add_visit(visit)
        from repro.ahg.records import EventRecord

        for i in range(3):
            event = EventRecord(etype="input", xpath=f"//input[{i}]")
            visit.events.append(event)
            store.log_visit_event("c1", 1, event)
        visit.request_ids.append(7)
        store.log_visit_request("c1", 1, 7)
        visit.cookies_after = {"o": {"sess": "tok"}}
        store.log_visit_cookies("c1", 1, visit.cookies_after)
        store.wal.sync()  # nothing waited on the visit or its deltas

        recovered = recover(wal_path=wal_path)
        restored = recovered.visits[("c1", 1)]
        assert [e.xpath for e in restored.events] == [e.xpath for e in visit.events]
        assert restored.request_ids == [7]
        assert restored.cookies_after == {"o": {"sess": "tok"}}
        # Delta journaling: exactly one full "visit" entry, N small deltas.
        kinds = [kind for kind, _ in RecordWal.entries(wal_path)]
        assert kinds.count("visit") == 1
        assert kinds.count("visit_event") == 3

    def test_replay_is_idempotent_over_snapshot_contents(self, tmp_path, closing, recover):
        """Crash window: snapshot written but WAL not yet truncated —
        replaying entries the snapshot already covers must not duplicate
        records."""
        wal_path = str(tmp_path / "records.wal")
        snap_path = str(tmp_path / "snapshot.json")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        run = make_run(1, 10, client="c1", visit=1, request_id=1)
        run.queries = [make_query(1, 1, 10)]
        store.add_run(run)
        store.add_visit(VisitRecord("c1", 1, ts=5, url="/x"))
        store.add_patch(PatchRecord(file="a.php", new_version=1, apply_ts=3))
        store.wal.sync()
        with open(wal_path, "rb") as fh:
            journal = fh.read()
        save_store(store, snap_path)
        store.wal.close()
        # Crash before wal.truncate(), the pre-write marker not yet on disk.
        with open(wal_path, "wb") as fh:
            fh.write(journal)

        recovered = recover(snapshot_path=snap_path, wal_path=wal_path)
        assert len(recovered.runs_in_order()) == 1
        assert recovered.query_count == 1
        assert len(recovered.client_visits("c1")) == 1
        assert len(recovered.patches) == 1

    def test_save_snapshot_is_atomic(self, tmp_path, recover):
        path = str(tmp_path / "snapshot.json")
        store = RecordStore()
        store.add_run(make_run(1, 10))
        save_store(store, path)
        # No stray temp files; the snapshot parses.
        assert os.listdir(str(tmp_path)) == ["snapshot.json"]
        assert read_snapshot_header(path)["records"]["run"] == 1
        assert len(recover(snapshot_path=path).runs) == 1

    def test_recover_refuses_wal_truncated_against_other_snapshot(self, tmp_path, closing, recover):
        from repro.core.errors import ReproError

        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        p1 = str(tmp_path / "one.json")
        save_store(store, p1)
        store.add_run(make_run(2, 20))
        p2 = str(tmp_path / "two.json")
        save_store(store, p2)  # truncates the WAL against snapshot two

        with pytest.raises(ReproError, match="different snapshot"):
            recover(snapshot_path=p1, wal_path=wal_path)
        assert sorted(recover(snapshot_path=p2, wal_path=wal_path).runs) == [1, 2]

    def test_wal_journals_replace_and_gc(self, tmp_path, closing, recover):
        wal_path = str(tmp_path / "records.wal")
        store = RecordStore(wal=closing(RecordWal(wal_path)))
        store.add_run(make_run(1, 10))
        store.add_run(make_run(2, 100))
        store.replace_run(1, make_run(1, 10, files={"patched.php": 1}))
        store.gc(horizon_ts=50)

        recovered = recover(wal_path=wal_path)
        assert sorted(recovered.runs) == [2]
        kinds = [kind for kind, _ in RecordWal.entries(wal_path) if kind != "text"]
        assert kinds == ["run", "run", "replace_run", "gc"]


def _journaled_entry(name, seq):
    """An entry of the journaled table ``name`` with sequence ``seq``,
    shaped as its caller puts it."""
    if name == "gate_queue":
        return {"ticket": seq, "ts": seq, "request": {"method": "POST"}}
    if name == "repair_jobs":
        return {"job_id": f"job-{seq}", "spec": {"kind": "batch"}, "ts": seq}
    return {"incident_id": f"inc-{seq}", "ts": seq, "status": "open"}


@pytest.mark.parametrize("name", ["gate_queue", "repair_jobs", "incidents"])
def test_journaled_table_protocol(tmp_path, name, closing, recover):
    """One protocol for every side table: each mutation journals one
    entry, replay over a snapshot that already holds the entries converges
    however often it runs, a closed key never reopens, and a reloaded table
    numbers past every key it closed."""
    wal_path = str(tmp_path / "records.wal")
    snap_path = str(tmp_path / "snapshot.json")
    store = RecordStore(wal=closing(RecordWal(wal_path)))
    table = getattr(store, name)
    entries = [_journaled_entry(name, seq) for seq in (1, 2, 3)]
    for entry in entries:
        table.put(**entry)
    last = entries[-1][table.key]
    if table.close_kind:
        close_data = {"status": "done"} if name == "repair_jobs" else {}
        table.close(last, **close_data)
        table.close(last, **close_data)  # exactly once
        change_kind = table.close_kind
    else:
        table.update(last, status="dismissed")
        table.update("inc-9", status="dismissed")  # unknown: ignored
        change_kind = table.update_kind
    kinds = [kind for kind, _ in RecordWal.entries(wal_path)]
    assert kinds == [table.put_kind] * 3 + [change_kind]

    # Crash after the snapshot is written, before the WAL is truncated:
    # every entry the log holds, the snapshot holds too.
    store.wal.sync()
    with open(wal_path, "rb") as fh:
        journal = fh.read()
    save_store(store, snap_path)
    store.wal.close()
    with open(wal_path, "wb") as fh:
        fh.write(journal)
    recovered = recover(snapshot_path=snap_path, wal_path=wal_path)
    recovered.wal.close()
    again = getattr(recovered, name)
    assert again.entries == table.entries
    for kind, data in RecordWal.entries(wal_path):
        recovered.apply_logged(kind, data)
    assert again.entries == table.entries
    if table.close_kind:
        recovered.apply_logged(table.put_kind, entries[-1])
        assert last not in again.entries
    assert again.next_seq() == 4
