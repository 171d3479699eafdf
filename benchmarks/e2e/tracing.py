"""Span tracing from outside ``src/``: wrap the public entry point of each
layer, keep spans in memory, derive per-layer self time afterwards.

A span is five integers — name id, span id, parent span id (-1 for a
root), start and end in ``perf_counter_ns`` — appended to a flat per-thread
list, so recording allocates no tracked container and does not perturb the
collector it is measuring beside.  Each thread has its own span stack
(repair runs on the job thread).  ``perf_counter_ns`` is CLOCK_MONOTONIC,
which is system-wide on Linux: spans dumped by shard worker processes are
bucketed with the driver's phase intervals.

A layer's number is its spans' *self* time: duration minus the part its
child spans cover.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns


class _ThreadSpans:
    __slots__ = ("spans", "cur", "n", "name")

    def __init__(self, name: str) -> None:
        self.spans: List[int] = []
        self.cur = -1
        self.n = 0
        self.name = name


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.threads: List[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Bytes of every JSON frame the shard wire encoded or decoded.
        self.wire_bytes = 0
        #: (phase name, start_ns, end_ns), sequential and non-overlapping.
        self.phases: List[Tuple[str, int, int]] = []
        #: (start_ns, end_ns) of every collector pass, via ``gc.callbacks``.
        self.gc_passes: List[Tuple[int, int]] = []
        self._gc_start = 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _thread_state(self) -> _ThreadSpans:
        state = _ThreadSpans(threading.current_thread().name)
        self._local.st = state
        with self._lock:
            self.threads.append(state)
        return state

    def traced(
        self,
        fn: Callable,
        name: str,
        pick: Optional[Callable[[tuple], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.  ``pick(args)`` may return a
        different span name for this call (SELECT vs write statements)."""
        nid = self._name_id(name)
        local = self._local
        new_state = self._thread_state
        name_id = self._name_id

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            sid = st.n
            st.n = sid + 1
            parent = st.cur
            st.cur = sid
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                st.cur = parent
                span_nid = nid
                if pick is not None:
                    alt = pick(args)
                    if alt is not None:
                        span_nid = name_id(alt)
                st.spans.extend((span_nid, sid, parent, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, name: str, pick=None) -> None:
        """Replace ``owner.attr`` (class method or module function)."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, pick))

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.gc_passes.append((self._gc_start, _now()))

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": "flat spans: name_id, span_id, parent_id, start_ns, end_ns",
                    "names": self.names,
                    "phases": self.phases,
                    "gc_passes": self.gc_passes,
                    "threads": [
                        {"thread": st.name, "spans": st.spans} for st in self.threads
                    ],
                },
                fh,
            )

    def span_lists(self) -> List[Tuple[List[str], List[int]]]:
        return [(self.names, st.spans) for st in self.threads]


class LayerTable:
    """Per-name count / total / self time of the spans inside one phase."""

    def __init__(self, scale: float = 1.0) -> None:
        #: Multiplies every time read back (reference seconds per wall
        #: second of the phase, see calibration.py).
        self.scale = scale
        self.count: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: Durations of the names listed in ``keep`` (for percentiles).
        self.durations: Dict[str, List[int]] = {}
        #: name -> spans of that name with no child named ``childless_of[name]``.
        self.childless: Dict[str, int] = {}

    def add(
        self,
        span_lists: Iterable[Tuple[List[str], List[int]]],
        start_ns: int,
        end_ns: int,
        keep: Iterable[str] = (),
        childless_of: Optional[Dict[str, str]] = None,
    ) -> None:
        keep = set(keep)
        childless_of = childless_of or {}
        for names, spans in span_lists:
            n_spans = len(spans) // 5
            if not n_spans:
                continue
            # Span ids are dense per thread; exits are recorded children
            # first, so index parents by id before attributing.
            nid_of = [0] * n_spans
            for base in range(0, len(spans), 5):
                nid_of[spans[base + 1]] = spans[base]
            has_child: Dict[int, bool] = {}
            for base in range(0, len(spans), 5):
                nid, sid, parent, t0, t1 = spans[base : base + 5]
                if t0 < start_ns or t0 >= end_ns:
                    continue
                name = names[nid]
                dur = t1 - t0
                self.count[name] = self.count.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + dur
                self.self_ns[name] = self.self_ns.get(name, 0) + dur
                if name in keep:
                    self.durations.setdefault(name, []).append(dur)
                if name in childless_of:
                    has_child.setdefault(sid, False)
                if parent >= 0:
                    parent_name = names[nid_of[parent]]
                    self.self_ns[parent_name] = self.self_ns.get(parent_name, 0) - dur
                    if childless_of.get(parent_name) == name:
                        has_child[parent] = True
            for sid, flag in has_child.items():
                if not flag:
                    name = names[nid_of[sid]]
                    self.childless[name] = self.childless.get(name, 0) + 1

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) * self.scale / 1e9

    def total_s(self, *names: str) -> float:
        return sum(self.total_ns.get(name, 0) for name in names) * self.scale / 1e9

    def n(self, *names: str) -> int:
        return sum(self.count.get(name, 0) for name in names)

    def percentile_us(self, name: str, fraction: float) -> float:
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(fraction * len(values)))] * self.scale / 1e3


def gc_seconds(passes: Iterable[Tuple[int, int]], start_ns: int, end_ns: int) -> float:
    return sum(t1 - t0 for t0, t1 in passes if start_ns <= t0 < end_ns) / 1e9


# ---------------------------------------------------------------------------
# where the wrappers go
# ---------------------------------------------------------------------------


def _statement_kind(args: tuple) -> Optional[str]:
    sql = args[1]
    return "ttdb.select" if sql[:6].upper() == "SELECT" else None


class _TracedJson:
    """Stands in for the ``json`` module inside one module of ``src/``
    (``module.json = _TracedJson(...)``): the same calls, as spans.  With
    ``count_bytes`` the size of every encoded or decoded text is added to
    ``tracer.wire_bytes``."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer, name: str, count_bytes: bool = False) -> None:
        def dumps(obj, **kwargs):
            text = json.dumps(obj, **kwargs)
            if count_bytes:
                tracer.wire_bytes += len(text)
            return text

        def loads(text, **kwargs):
            if count_bytes:
                tracer.wire_bytes += len(text)
            return json.loads(text, **kwargs)

        self.dumps = tracer.traced(dumps, name)
        self.loads = tracer.traced(loads, name)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer a request or a repair
    crosses.  Must run before the deployment is constructed (bound methods
    captured at construction, e.g. ``Network.register(origin,
    server.handle)``, must capture the wrapper)."""
    import json as json_module

    from repro.ahg.graph import ActionHistoryGraph
    from repro.ahg.records import AppRunRecord, VisitRecord
    from repro.appserver.runtime import AppRuntime
    from repro.browser.browser import Browser
    from repro.db import sqlite_engine, storage
    from repro.db.executor import Executor
    from repro.http.server import HttpServer
    from repro.repair import clusters, controller, replay
    from repro.shard import coordinator, wire, worker
    from repro.store.recordstore import RecordStore
    from repro.store import wal
    from repro.store.wal import CommitTicket, RecordWal
    from repro.ttdb.timetravel import TimeTravelDB

    w = tracer.wrap
    # serve path
    w(HttpServer, "handle", "http.handle")
    w(AppRuntime, "execute", "appserver.execute")
    w(TimeTravelDB, "execute", "ttdb.write", pick=_statement_kind)
    for attr in ("execute_at", "matching_row_ids"):
        w(TimeTravelDB, attr, "ttdb.repair_exec")
    w(Executor, "execute", "db.execute")
    w(Executor, "matching_rows", "db.execute")
    w(sqlite_engine.SqliteEngine, "execute", "db.sqlite_exec")
    w(sqlite_engine.SqliteEngine, "execute_many", "db.sqlite_exec")
    for attr in (
        "add_run",
        "add_visit",
        "log_visit_event",
        "log_visit_request",
        "log_visit_cookies",
    ):
        w(RecordStore, attr, "store.add_run")
    w(AppRunRecord, "to_wire", "ahg.to_wire")
    w(VisitRecord, "to_dict", "ahg.to_wire")
    w(RecordWal, "append", "store.wal_append")
    wal.json = _TracedJson(tracer, "store.wal_encode")
    w(CommitTicket, "wait", "store.wal_wait")
    for attr in ("open", "submit", "click"):
        w(Browser, attr, "browser.client")
    # shard wire (driver side) and frame handling (worker side)
    w(coordinator.ShardCoordinator, "handle", "shard.coord")
    w(wire.ShardClient, "request", "shard.wire_codec")
    w(wire.ProcShardClient, "call", "shard.wire_call")
    w(worker.ShardWorker, "handle_frame", "shard.worker_frame")
    wire.json = _TracedJson(tracer, "shard.wire_json", count_bytes=True)
    worker.json = _TracedJson(tracer, "shard.worker_json")
    w(coordinator.ShardCoordinator, "plan", "shard.repair_plan")
    # repair path
    w(controller.RepairController, "repair_batch", "repair.controller")
    w(controller, "compute_repair_groups", "repair.clusters")
    w(RecordStore, "queries_touching", "repair.graph_index")
    w(clusters.RepairGroup, "queries_touching", "repair.graph_index")
    w(TimeTravelDB, "begin_repair", "repair.begin_repair")
    w(TimeTravelDB, "rollback_row", "repair.rollback")
    w(controller.RepairController, "reexec_statement", "repair.reexec_statement")
    w(replay.BrowserReplayer, "replay_visit", "repair.replay_browser")
    w(TimeTravelDB, "finalize_repair", "repair.finalize")
    for attr in ("replace_run", "add_runs", "invalidate_partition_indexes"):
        w(ActionHistoryGraph, attr, "repair.finalize")
    for attr in ("begin_switch", "end_switch"):
        w(HttpServer, attr, "repair.finalize")
    # persistence
    w(ActionHistoryGraph, "to_snapshot", "warp.save_graph")
    w(storage.Database, "to_dict", "warp.save_db")
    w(sqlite_engine.SqliteEngine, "to_dict", "warp.save_db")
    w(RecordStore, "commit_snapshot", "warp.save_write")
    w(json_module, "load", "warp.load_parse")
    w(ActionHistoryGraph, "restore_snapshot", "warp.load_graph")
    w(storage.Database, "restore", "warp.load_db")
    w(sqlite_engine.SqliteEngine, "restore", "warp.load_db")
    w(RecordStore, "replay_wal", "warp.load_wal_replay")
    tracer.watch_gc()


# ---------------------------------------------------------------------------
# reading a dump back:  python tracing.py out/trace-wiki_py-record.json
# ---------------------------------------------------------------------------


def requests_by_kind(path: str, phase: str = "serve", root: str = "client.request"):
    """Per-layer self time of the ``root`` spans inside ``phase``, split
    into requests that wrote (have a ``ttdb.write`` descendant) and ones
    that only read.  Returns ``{kind: (n_requests, {layer: seconds})}``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    window = next((start, end) for name, start, end in data["phases"] if name == phase)
    out = {"read": [0, {}], "write": [0, {}]}
    for thread in data["threads"]:
        spans = thread["spans"]
        n_spans = len(spans) // 5
        nid_of, parent_of = [0] * n_spans, [-1] * n_spans
        self_ns = [0] * n_spans
        for base in range(0, len(spans), 5):
            nid, sid, parent, t0, t1 = spans[base : base + 5]
            nid_of[sid], parent_of[sid] = nid, parent
            self_ns[sid] += t1 - t0
            if parent >= 0:
                self_ns[parent] -= t1 - t0
        # A span's id is larger than its parent's (ids are taken on entry).
        root_of = list(range(n_spans))
        for sid in range(n_spans):
            if parent_of[sid] >= 0:
                root_of[sid] = root_of[parent_of[sid]]
        wrote = {root_of[sid] for sid in range(n_spans) if names[nid_of[sid]] == "ttdb.write"}
        starts = {spans[base + 1]: spans[base + 3] for base in range(0, len(spans), 5)}
        for sid in range(n_spans):
            top = root_of[sid]
            if names[nid_of[top]] != root or not window[0] <= starts[top] < window[1]:
                continue
            bucket = out["write" if top in wrote else "read"]
            if sid == top:
                bucket[0] += 1
            layer = names[nid_of[sid]]
            bucket[1][layer] = bucket[1].get(layer, 0.0) + self_ns[sid] / 1e9
    return {kind: (n, layers) for kind, (n, layers) in out.items()}


def _main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python tracing.py TRACE.json", file=sys.stderr)
        return 2
    kinds = requests_by_kind(argv[0])
    layers = sorted({layer for _, by_layer in kinds.values() for layer in by_layer})
    print(f"{'self time, us per request':32s} {'reads':>10s} {'writes':>10s}")
    print(f"{'requests':32s} {kinds['read'][0]:10d} {kinds['write'][0]:10d}")
    totals = {"read": 0.0, "write": 0.0}
    for layer in layers:
        cells = []
        for kind in ("read", "write"):
            n, by_layer = kinds[kind]
            value = by_layer.get(layer, 0.0) * 1e6 / n if n else 0.0
            totals[kind] += value
            cells.append(f"{value:10.1f}")
        print(f"{layer:32s} {cells[0]} {cells[1]}")
    print(f"{'total':32s} {totals['read']:10.1f} {totals['write']:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
