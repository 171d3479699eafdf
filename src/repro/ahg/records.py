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

The text says each fact once: a run's queries, request and response are
positional rows (:data:`QUERY_ROW`, :data:`REQUEST_ROW`, :data:`RESPONSE_ROW`
name the positions once), a row leaves out what the enclosing run says, a
field at its default is not written, and neither is what another field says:
a run's ids are written only where its ``X-Warp-*`` headers say otherwise.

It says each fact once across runs too (snapshot format 6).  Encoded
against the store's :class:`~repro.core.serialize.TextTable`, a line holds
ids where the response body and the loaded files were, and each query is a
row ``[qid, ts, <sql id>, <row id>]``: ids of ``text`` entries the store
writes once, before the first line that needs them, in the same segment
(the snapshot plus the WAL after its marker).  The row id names the row
entry holding the row's *payload* (params to write sets), a raw JSON array
— so the lookups and page reads a history repeats are written once per
segment, not once per run.  Records hold the full values; only lines refer.

The reader takes that shape and no other: :func:`check_written_shape`
refuses the lines older builds wrote, all of which key the request.  Encoded
with no table, a run is its line with every text inline, which only the
keyed view :meth:`AppRunRecord.to_dict` reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.serialize import COMPACT, UPGRADE_ROUTE, DecodeMemo, TextTable
from repro.core.serialize import decode_key_set, decode_tree, encode_key_set
from repro.http.message import HttpRequest, HttpResponse
from repro.ttdb.partitions import ReadSet


#: Position of each field in a query's row: the one place the layout is
#: written — writer, reader and keyed view all go through it.  ``run_id``,
#: ``seq`` and the read set's table are not in it: the enclosing run, the
#: row's index in ``queries`` and the row's own ``table`` say them.
QUERY_ROW = (
    "qid", "ts", "sql", "params", "kind", "table", "disjuncts", "snapshot",
    "read_row_ids", "written_row_ids", "written_partitions", "full_table_write",
)  # fmt: skip
#: A row may stop anywhere after ``snapshot``: a trailing field that is empty
#: or false is not written — decided by value, so a write that touched
#: nothing is as short as a SELECT.
_ROW_REQUIRED = QUERY_ROW.index("snapshot") + 1
#: What the reader takes such a field to be when the row stops before it.
_ROW_DEFAULTS = {**dict.fromkeys(QUERY_ROW[_ROW_REQUIRED:], ()), "full_table_write": False}
_ROW_PAD = [_ROW_DEFAULTS[name] for name in QUERY_ROW[_ROW_REQUIRED:]]
#: The two fields a record holds in another form than its row does, and the
#: record's attribute at each position: its read set where the disjuncts go.
_DISJUNCTS, _PARTITIONS = map(QUERY_ROW.index, ("disjuncts", "written_partitions"))
_ROW_FIELDS = tuple("read_set" if name == "disjuncts" else name for name in QUERY_ROW)
_row_attributes = attrgetter(*_ROW_FIELDS)
#: How the reader decodes the others (positions are looked up, never written):
#: as shared texts, as tuples all the way down, or not at all.
_SQL, _TABLE = map(QUERY_ROW.index, ("sql", "table"))
_TEXTS = list(map(QUERY_ROW.index, ("kind", "table")))
_TREES = list(map(QUERY_ROW.index, ("params", "snapshot", "read_row_ids", "written_row_ids")))
#: A row says which query it is in its first two positions only: what
#: follows is the same text for every hit on one statement-cache entry.
assert QUERY_ROW[:2] == ("qid", "ts")
NONDET_ROW = ("func", "seq", "value")
_nondet_row = attrgetter(*NONDET_ROW)
#: ``json.dumps(tree, separators=COMPACT)`` with no cycle check (a third of a
#: small call; a cycle is a RecursionError either way).  ``JSONEncoder.encode``
#: builds a C encoder on every call; this one is built once, from exactly the
#: arguments that call passes.  Without a cycle check it holds no per-call
#: state (its markers are ``None``), so every thread can share it.
_encoder = json.JSONEncoder(separators=COMPACT, check_circular=False)
_encode_str = json.encoder.encode_basestring_ascii
_c_encode = json.encoder.c_make_encoder(
    None,
    _encoder.default,
    _encode_str,
    _encoder.indent,
    _encoder.key_separator,
    _encoder.item_separator,
    _encoder.sort_keys,
    _encoder.skipkeys,
    _encoder.allow_nan,
)


def _dumps(tree) -> str:
    if isinstance(tree, str):  # a query's SQL: ``encode``'s own shortcut
        return _encode_str(tree)
    return "".join(_c_encode(tree, 0))


#: The positions of a run's request row and of its response row.  Like a
#: query's row, each stops after its last member not at its default (what a
#: fresh request or response holds): most responses are ``[<body id>]``.
REQUEST_ROW = ("method", "path", "params", "cookies", "headers")
RESPONSE_ROW = ("body", "status", "headers", "set_cookies")
_request_row, _response_row = attrgetter(*REQUEST_ROW), attrgetter(*RESPONSE_ROW)
_BODY = RESPONSE_ROW.index("body")
_REQUEST_DEFAULTS = _request_row(HttpRequest("GET", "/"))[REQUEST_ROW.index("params") :]
_RESPONSE_DEFAULTS = _response_row(HttpResponse())[_BODY + 1 :]
#: The ids a line writes only where they differ from :func:`_header_ids`.
_IDS = ("client_id", "visit_id", "request_id")


def _same(value, default) -> bool:
    """By type and value: ``200.0`` and ``0`` are not ``200`` and ``False``."""
    return type(value) is type(default) and value == default


def _trimmed(row: list, defaults: tuple) -> list:
    """``row`` without the trailing members at their ``defaults`` (those of
    its last positions)."""
    required = len(row) - len(defaults)
    while len(row) > required and _same(row[-1], defaults[len(row) - 1 - required]):
        row.pop()
    return row


def _header_ids(request: HttpRequest) -> tuple:
    """The client, visit and request ids ``request``'s headers say: none if
    one of them is no id."""
    try:
        return request.client_id, request.visit_id, request.request_id
    except (TypeError, ValueError):
        return None, None, None


def _keyed_query(row: list, run_id: int, seq: int) -> dict:
    """The self-describing form of a row: all fourteen fields by name."""
    data = {
        "run_id": run_id, "seq": seq, "read_row_ids": [], "written_row_ids": [],
        "written_partitions": [], "full_table_write": False,
    }  # fmt: skip
    data.update(zip(QUERY_ROW, row))
    data["read_set"] = {"table": data["table"], "disjuncts": data.pop("disjuncts")}
    return data


@dataclass(slots=True)
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

    def to_row(self, texts: Optional[TextTable] = None) -> list:
        """This query's :data:`QUERY_ROW` row, as the tree ``json.dumps``
        serializes: fields go in as they are — tuples are left for the
        encoder to flatten into arrays (no Python-level walk) — except the
        two that need converting, the second only if the row gets that far.
        Against ``texts`` it is the format-6 row: the SQL text's id and the
        payload's row entry's (:func:`payload_text`)."""
        row = list(_row_attributes(self))
        while len(row) > _ROW_REQUIRED and not row[-1]:
            row.pop()
        row[_DISJUNCTS] = row[_DISJUNCTS].to_dict()["disjuncts"]
        if len(row) > _PARTITIONS:
            row[_PARTITIONS] = encode_key_set(row[_PARTITIONS])
        if texts is None:
            return row
        return [*row[:_SQL], texts.ref(row[_SQL]), texts.ref(_dumps(row[_SQL + 1 :]), row=True)]

    @classmethod
    def from_wire(cls, row: list, run_id: int, seq: int, memo: DecodeMemo) -> "QueryRecord":
        """Rebuild a query from a row of a run's ``queries``,
        ``[qid, ts, <sql id>, <row id>]``: ``run_id`` and ``seq`` are the
        enclosing run's id and the row's index.  Queries decoded through
        one ``memo`` share everything but their identity: the payload is
        built once per distinct ``(sql id, row id)``."""
        qid, ts, sql, ref = row
        key = (cls, sql, ref)
        payload = memo.built.get(key)
        if payload is None:
            row = [qid, ts, sql, *memo.tree(ref)]
            payload = memo.built[key] = _decode_payload(row, memo)
        return cls(qid, run_id, seq, ts, *payload)


def payload_text(query: QueryRecord) -> str:
    """The text of ``query``'s payload — its row after the SQL, as a
    compact JSON array: a format-6 row's row entry, and what a
    statement-cache hit's ``RecordedPayload`` keeps."""
    return _dumps(query.to_row()[_SQL + 1 :])


def _decode_payload(row: list, memo: DecodeMemo) -> tuple:
    """The payload fields of a row with its payload spelled out — its
    trailing defaults padded on, each field decoded through ``memo`` — in
    the constructor's order."""
    row += _ROW_PAD[len(row) - _ROW_REQUIRED :]
    row[_SQL] = memo.literal(row[_SQL])
    for at in _TEXTS:
        row[at] = memo.text(row[at])
    for at in _TREES:
        row[at] = decode_tree(row[at])
    row[_DISJUNCTS] = memo.once(ReadSet.from_wire, row[_TABLE], row[_DISJUNCTS])
    row[_PARTITIONS] = memo.once(decode_key_set, row[_PARTITIONS])
    return _row_payload(row)


#: A query's fields after the four that say which query it is, in the
#: constructor's order: immutable values, shared by queries that say the
#: same thing — a statement-cache hit and its miss, reloaded queries.
_PAYLOAD = [f.name for f in fields(QueryRecord)][4:]
query_payload = attrgetter(*_PAYLOAD)
#: The same of a decoded row, which has the read set where its disjuncts were.
_row_payload = itemgetter(*map(_ROW_FIELDS.index, _PAYLOAD))


@dataclass
class NondetRecord:
    """A recorded non-deterministic function call (paper §3.1); on the
    wire a :data:`NONDET_ROW` row."""

    func: str  # 'time' | 'rand' | 'token' | ...
    seq: int  # occurrence index of this func within the run
    value: object


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
    #: Per query, the statement-cache payload it was recorded from (None
    #: where there was none), whose ``text`` :meth:`encode` splices.  Set by
    #: the runtime recording the run, dropped by the store inserting it.
    payloads: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def browser_key(self) -> Optional[Tuple[str, int]]:
        if self.client_id is not None and self.visit_id is not None:
            return (self.client_id, self.visit_id)
        return None

    def _frame(self, rows: list, texts: Optional[TextTable]) -> Tuple[dict, dict]:
        """The line's members up to ``queries`` — which is ``rows`` — and
        the five after it, written only when they say something the rest of
        the line does not: the one place a run's key order is written."""
        loaded = self.loaded_files
        response = _trimmed(list(_response_row(self.response)), _RESPONSE_DEFAULTS)
        if texts is not None:
            response[_BODY] = texts.ref(response[_BODY])
            loaded = texts.ref(_dumps(loaded))
        head = {
            "run_id": self.run_id,
            "ts_start": self.ts_start,
            "ts_end": self.ts_end,
            "script": self.script,
            "loaded_files": loaded,
            "request": _trimmed(list(_request_row(self.request)), _REQUEST_DEFAULTS),
            "response": response,
            "queries": rows,
        }
        tail = {}
        if self.nondet:
            tail["nondet"] = [list(_nondet_row(record)) for record in self.nondet]
        for name, said in zip(_IDS, _header_ids(self.request)):
            if not _same(value := getattr(self, name), said):
                tail[name] = value
        if self.canceled:
            tail["canceled"] = True
        return head, tail

    def to_wire(self, texts: Optional[TextTable] = None) -> dict:
        """The tree whose ``json.dumps`` is :meth:`encode` — no defensive
        copies, tuples left for the encoder (see :meth:`QueryRecord.to_row`)."""
        head, tail = self._frame(rows := [], texts)  # the body's id first, as encode
        rows.extend(query.to_row(texts) for query in self.queries)
        return {**head, **tail}

    def encode(self, texts: Optional[TextTable] = None) -> str:
        """This run's compact JSON text: the ``data`` of its WAL line and
        of its snapshot line against the store's ``texts``; without, the
        line with every text inline (what :meth:`to_dict` reads).
        Assembled: a row is its qid, ts and SQL, then its payload text —
        which queries recorded from one statement-cache payload share:
        encoded for the first, kept with the payload, so a hit encodes
        nothing — and the rows are spliced between the members around
        ``queries``."""
        head, tail = self._frame([], texts)
        parts = []
        for query, payload in zip(self.queries, self.payloads or repeat(None)):
            if payload is None:
                text = payload_text(query)
            elif payload.text is None:
                text = payload.text = payload_text(query)
            else:
                text = payload.text
            if texts is None:
                parts.append(f"[{query.qid},{query.ts},{_dumps(query.sql)},{text[1:]}")
            else:
                sql = texts.ref(query.sql)
                parts.append(f"[{query.qid},{query.ts},{sql},{texts.ref(text, row=True)}]")
        line = _dumps(head)[:-2] + ",".join(parts)  # head ends with an empty queries member
        return line + ("]," + _dumps(tail)[1:] if tail else "]}")

    def to_dict(self) -> dict:
        """The keyed, self-describing view (plain JSON, fresh containers):
        what the text says with every field by name — all thirteen run
        keys, all fourteen of each query, the request's and response's
        members — whether or not the text spells them out."""
        data = {"nondet": [], "canceled": False}
        data.update(json.loads(self.encode()))
        data.update((name, getattr(self, name)) for name in _IDS)
        data["request"], data["response"] = self.request.to_dict(), self.response.to_dict()
        rows = data["queries"]
        data["queries"] = [_keyed_query(row, self.run_id, seq) for seq, row in enumerate(rows)]
        data["nondet"] = [dict(zip(NONDET_ROW, row)) for row in data["nondet"]]
        return data

    @classmethod
    def from_dict(
        cls, data: dict, json_text: Optional[str] = None, memo: Optional[DecodeMemo] = None
    ) -> "AppRunRecord":
        """Rebuild a run from its decoded line, which must be in the shape
        :meth:`encode` writes against a text table
        (:func:`check_written_shape`).  ``json_text`` is the text ``data``
        was decoded from, when the caller still has it, and is kept.
        ``memo`` is the caller's when it decodes many records, which then
        share what they have in common — and holds the ``text`` entries the
        line refers to."""
        check_written_shape(data)
        memo = memo or DecodeMemo()
        text, texts, run_id = memo.text, memo.texts, data["run_id"]
        request = HttpRequest.from_dict(dict(zip(REQUEST_ROW, data["request"])), texts)
        response = HttpResponse.from_dict(dict(zip(RESPONSE_ROW, data["response"])), texts)
        response.body = memo.literal(response.body)
        client_id, visit_id, request_id = [
            data.get(name, said) for name, said in zip(_IDS, _header_ids(request))
        ]
        return cls(
            run_id=run_id,
            ts_start=data["ts_start"],
            ts_end=data["ts_end"],
            script=text(data["script"]),
            loaded_files=texts(memo.tree(data["loaded_files"])),
            request=request,
            response=response,
            queries=[
                QueryRecord.from_wire(row, run_id, seq, memo)
                for seq, row in enumerate(data["queries"])
            ],
            nondet=[
                NondetRecord(func, seq, decode_tree(value))
                for func, seq, value in data.get("nondet", ())
            ],
            client_id=text(client_id),
            visit_id=visit_id,
            request_id=request_id,
            canceled=data.get("canceled", False),
            json_text=json_text,
        )


def check_written_shape(data: dict) -> None:
    """Refuse run line ``data`` unless it is in the shape
    :meth:`AppRunRecord.encode` writes against a text table.  Every run
    line of formats 1-5 keys its request; read as a row, its keys would be
    taken for the method and the path."""
    if isinstance(data["request"], dict):
        raise ReproError(
            f"run {data['run_id']!r} is in a retired shape: its request is keyed; "
            f"{UPGRADE_ROUTE}"
        )


def text_refs(data: dict) -> List[int]:
    """The ids of the ``text`` entries run line ``data`` refers to, as the
    store writes it (format 6): its body's, its loaded files', then each
    row's SQL text's and payload's — read off the line, nothing re-encoded."""
    refs = [data["response"][_BODY], data["loaded_files"]]
    for row in data["queries"]:
        refs += row[_SQL:]
    return refs


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
    def from_dict(cls, data: dict, memo: Optional[DecodeMemo] = None) -> "EventRecord":
        memo = memo or DecodeMemo()
        return cls(
            etype=memo.text(data["etype"]),
            xpath=memo.text(data["xpath"]),
            data=memo.texts(data.get("data", {})),
        )


#: What a visit line leaves out, and :meth:`VisitRecord.from_dict` reads.
_VISIT_DEFAULTS = {
    "method": "GET", "post_params": {}, "parent_visit": None,
    "framed": False, "events": [], "cookies_before": {},
}  # fmt: skip


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
        """Compact JSON text of this visit as it stands, no field at its
        default (visit logs grow while the visit is live: nothing is kept)."""
        data = self.to_dict()
        for name, default in _VISIT_DEFAULTS.items():
            if _same(data[name], default):
                del data[name]
        return _dumps(data)

    @classmethod
    def from_dict(cls, data: dict, memo: Optional[DecodeMemo] = None) -> "VisitRecord":
        memo = memo or DecodeMemo()
        text, texts = memo.text, memo.texts
        return cls(
            client_id=text(data["client_id"]),
            visit_id=data["visit_id"],
            ts=data["ts"],
            url=text(data["url"]),
            method=text(data.get("method", "GET")),
            post_params=texts(data.get("post_params", {})),
            parent_visit=data.get("parent_visit"),
            framed=data.get("framed", False),
            events=[EventRecord.from_dict(item, memo) for item in data.get("events", ())],
            cookies_before={k: texts(v) for k, v in data.get("cookies_before", {}).items()},
            cookies_after={k: texts(v) for k, v in data.get("cookies_after", {}).items()},
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
