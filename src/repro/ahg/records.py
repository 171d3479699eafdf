"""Record types logged during normal execution.

Everything repair needs to roll back and re-execute is captured in these
dataclasses: they are the concrete encoding of the action history graph's
actions and dependency edges.

Each record type round-trips through ``to_dict``/``from_dict`` with only
JSON-representable values, which is what the store layer's write-ahead
log and snapshots (:mod:`repro.store`) persist.  Tuple-shaped fields
become JSON arrays and are rebuilt on decode; recorded values themselves
are JSON scalars by construction.

A run has **one codec**: :meth:`AppRunRecord.encode` is its compact JSON
text, and that text is the ``data`` of its WAL line *and* of its snapshot
line, byte for byte.  The store encodes a run once, when it is appended,
and keeps the text on the record (``json_text``) so a snapshot splices it
instead of walking the record again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.serialize import COMPACT, decode_key_set, decode_tree, encode_key_set
from repro.http.message import HttpRequest, HttpResponse
from repro.ttdb.partitions import ReadSet


@dataclass
class QueryRecord:
    """One SQL statement executed by an application run.

    Input dependencies: the partitions in ``read_set`` (at time ``ts``).
    Output dependencies: ``written_row_ids`` / ``written_partitions``.
    ``snapshot`` is the canonical result used for the §4 equivalence check
    ("if a re-executed query produces results different from the original
    execution, WARP re-executes the corresponding application run").
    """

    qid: int
    run_id: int
    seq: int
    ts: int
    sql: str
    params: Tuple[object, ...]
    kind: str  # 'select' | 'insert' | 'update' | 'delete'
    table: str
    read_set: ReadSet
    written_row_ids: Tuple[Tuple[str, int], ...]
    written_partitions: FrozenSet[Tuple[str, str, object]]
    full_table_write: bool
    snapshot: Tuple
    read_row_ids: Tuple[int, ...] = ()

    @property
    def is_write(self) -> bool:
        return self.kind != "select"

    def to_wire(self) -> dict:
        """The tree ``json.dumps`` turns into this query's JSON: tuples
        are left for the encoder to flatten into arrays (no Python-level
        walk) — only frozensets need converting."""
        return {
            "qid": self.qid,
            "run_id": self.run_id,
            "seq": self.seq,
            "ts": self.ts,
            "sql": self.sql,
            "params": self.params,
            "kind": self.kind,
            "table": self.table,
            "read_set": self.read_set.to_dict(),
            "written_row_ids": self.written_row_ids,
            "written_partitions": encode_key_set(self.written_partitions),
            "full_table_write": self.full_table_write,
            "snapshot": self.snapshot,
            "read_row_ids": self.read_row_ids,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryRecord":
        return cls(
            qid=data["qid"],
            run_id=data["run_id"],
            seq=data["seq"],
            ts=data["ts"],
            sql=data["sql"],
            params=decode_tree(data["params"]),
            kind=data["kind"],
            table=data["table"],
            read_set=ReadSet.from_dict(data["read_set"]),
            written_row_ids=decode_tree(data["written_row_ids"]),
            written_partitions=decode_key_set(data["written_partitions"]),
            full_table_write=data["full_table_write"],
            snapshot=decode_tree(data["snapshot"]),
            read_row_ids=tuple(data.get("read_row_ids", ())),
        )


@dataclass
class NondetRecord:
    """A recorded non-deterministic function call (paper §3.1)."""

    func: str  # 'time' | 'rand' | 'token' | ...
    seq: int  # occurrence index of this func within the run
    value: object

    def to_dict(self) -> dict:
        return {"func": self.func, "seq": self.seq, "value": self.value}

    @classmethod
    def from_dict(cls, data: dict) -> "NondetRecord":
        return cls(func=data["func"], seq=data["seq"], value=decode_tree(data["value"]))


@dataclass
class AppRunRecord:
    """One execution of application code for one HTTP request."""

    run_id: int
    ts_start: int
    ts_end: int
    script: str
    #: file name -> code version that was loaded (input dependencies).
    loaded_files: Dict[str, int]
    request: HttpRequest
    response: HttpResponse
    queries: List[QueryRecord] = field(default_factory=list)
    nondet: List[NondetRecord] = field(default_factory=list)
    #: Browser correlation tuple from the X-Warp-* headers, if present.
    client_id: Optional[str] = None
    visit_id: Optional[int] = None
    request_id: Optional[int] = None
    #: Set during repair when the request was undone.
    canceled: bool = False
    #: ``encode()`` of this run as last written by the store (None until
    #: then).  Runs are immutable once appended, so the text stays true;
    #: ``RecordStore.mark_run_canceled`` — the one in-place mutation —
    #: drops it.  Owned by the store; not part of the record's value.
    json_text: Optional[str] = field(default=None, repr=False, compare=False)

    def browser_key(self) -> Optional[Tuple[str, int]]:
        if self.client_id is not None and self.visit_id is not None:
            return (self.client_id, self.visit_id)
        return None

    def to_wire(self) -> dict:
        """The tree :meth:`encode` serializes — no defensive copies, tuples
        left for the encoder (see :meth:`QueryRecord.to_wire`); for
        consumers that serialize the result immediately."""
        return {
            "run_id": self.run_id,
            "ts_start": self.ts_start,
            "ts_end": self.ts_end,
            "script": self.script,
            "loaded_files": self.loaded_files,
            "request": self.request.to_dict(),
            "response": self.response.to_dict(),
            "queries": [query.to_wire() for query in self.queries],
            "nondet": [record.to_dict() for record in self.nondet],
            "client_id": self.client_id,
            "visit_id": self.visit_id,
            "request_id": self.request_id,
            "canceled": self.canceled,
        }

    def encode(self) -> str:
        """This run's compact JSON text: the ``data`` of its WAL line and
        of its snapshot line."""
        return json.dumps(self.to_wire(), separators=COMPACT)

    def to_dict(self) -> dict:
        """Plain-JSON view (lists, fresh containers): the codec's text,
        decoded."""
        return json.loads(self.json_text or self.encode())

    @classmethod
    def from_dict(cls, data: dict, json_text: Optional[str] = None) -> "AppRunRecord":
        """Rebuild a run from its decoded JSON; ``json_text`` is the text
        ``data`` was decoded from, when the caller still has it."""
        return cls(
            run_id=data["run_id"],
            ts_start=data["ts_start"],
            ts_end=data["ts_end"],
            script=data["script"],
            loaded_files=dict(data["loaded_files"]),
            request=HttpRequest.from_dict(data["request"]),
            response=HttpResponse.from_dict(data["response"]),
            queries=[QueryRecord.from_dict(item) for item in data.get("queries", ())],
            nondet=[NondetRecord.from_dict(item) for item in data.get("nondet", ())],
            client_id=data.get("client_id"),
            visit_id=data.get("visit_id"),
            request_id=data.get("request_id"),
            canceled=data.get("canceled", False),
            json_text=json_text,
        )


def replay_clone(
    base: AppRunRecord,
    run_id: int,
    ts_start: int,
    qids: List[int],
    ts_list: List[int],
    request: HttpRequest,
) -> AppRunRecord:
    """The synthetic run recorded for a response-cache hit.

    A cache hit must leave the graph exactly as an uncached execution
    would have: same read sets, same result snapshots (the invalidation
    rule guarantees the underlying partitions are untouched), fresh run
    id / query ids / timestamps.  Payload fields (sql, params, read_set,
    snapshot) are shared with the base record — they are immutable once
    recorded — so a hit costs allocations proportional to the query
    count, not the payload size.  The same constructor rebuilds the run
    during WAL replay of a compact ``run_replay`` entry, which is why it
    lives here and not in the cache.
    """
    queries = [
        QueryRecord(
            qid=qid,
            run_id=run_id,
            seq=query.seq,
            ts=ts,
            sql=query.sql,
            params=query.params,
            kind=query.kind,
            table=query.table,
            read_set=query.read_set,
            written_row_ids=query.written_row_ids,
            written_partitions=query.written_partitions,
            full_table_write=query.full_table_write,
            snapshot=query.snapshot,
            read_row_ids=query.read_row_ids,
        )
        for query, qid, ts in zip(base.queries, qids, ts_list)
    ]
    return AppRunRecord(
        run_id=run_id,
        ts_start=ts_start,
        ts_end=max([ts_start] + ts_list),
        script=base.script,
        loaded_files=dict(base.loaded_files),
        request=request,
        response=base.response.copy(),
        queries=queries,
        nondet=[],
        client_id=request.client_id,
        visit_id=request.visit_id,
        request_id=request.request_id,
    )


@dataclass
class EventRecord:
    """A DOM-level browser event (paper §5.2).

    ``xpath`` addresses the target element; ``data`` carries event-type
    specific payload (for text input: the field's base value and the value
    the user left, enabling three-way merge on replay).
    """

    etype: str  # 'input' | 'click' | 'submit'
    xpath: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"etype": self.etype, "xpath": self.xpath, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data: dict) -> "EventRecord":
        return cls(etype=data["etype"], xpath=data["xpath"], data=dict(data.get("data", {})))


@dataclass
class VisitRecord:
    """The uploaded client-side log for one page visit (paper §5.1)."""

    client_id: str
    visit_id: int
    ts: int
    url: str
    method: str = "GET"
    post_params: Dict[str, str] = field(default_factory=dict)
    parent_visit: Optional[int] = None
    framed: bool = False
    events: List[EventRecord] = field(default_factory=list)
    #: Cookie-jar snapshots (origin -> {name: value}) around the visit.
    cookies_before: Dict[str, Dict[str, str]] = field(default_factory=dict)
    cookies_after: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: request ids issued during this visit, in order.
    request_ids: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "visit_id": self.visit_id,
            "ts": self.ts,
            "url": self.url,
            "method": self.method,
            "post_params": dict(self.post_params),
            "parent_visit": self.parent_visit,
            "framed": self.framed,
            "events": [event.to_dict() for event in self.events],
            "cookies_before": {k: dict(v) for k, v in self.cookies_before.items()},
            "cookies_after": {k: dict(v) for k, v in self.cookies_after.items()},
            "request_ids": list(self.request_ids),
        }

    def encode(self) -> str:
        """Compact JSON text of this visit as it stands (visit logs grow
        while the visit is live, so nothing is kept)."""
        return json.dumps(self.to_dict(), separators=COMPACT)

    @classmethod
    def from_dict(cls, data: dict) -> "VisitRecord":
        return cls(
            client_id=data["client_id"],
            visit_id=data["visit_id"],
            ts=data["ts"],
            url=data["url"],
            method=data.get("method", "GET"),
            post_params=dict(data.get("post_params", {})),
            parent_visit=data.get("parent_visit"),
            framed=data.get("framed", False),
            events=[EventRecord.from_dict(item) for item in data.get("events", ())],
            cookies_before={k: dict(v) for k, v in data.get("cookies_before", {}).items()},
            cookies_after={k: dict(v) for k, v in data.get("cookies_after", {}).items()},
            request_ids=list(data.get("request_ids", ())),
        )


@dataclass
class PatchRecord:
    """A retroactive patch action synthesised at repair time (paper §3.2)."""

    file: str
    new_version: int
    apply_ts: int

    def to_dict(self) -> dict:
        return {"file": self.file, "new_version": self.new_version, "apply_ts": self.apply_ts}

    def encode(self) -> str:
        return json.dumps(self.to_dict(), separators=COMPACT)

    @classmethod
    def from_dict(cls, data: dict) -> "PatchRecord":
        return cls(
            file=data["file"],
            new_version=data["new_version"],
            apply_ts=data["apply_ts"],
        )
