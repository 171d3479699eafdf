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

The text says each fact once (snapshot format 8): a run's line is a
positional row of its fields (:data:`RUN_ROW`), and its queries, request
and response are rows too (:data:`QUERY_ROW`, :data:`REQUEST_ROW`,
:data:`RESPONSE_ROW` name the positions once).  A row leaves out what the
enclosing run says, a field at its default is not written, and neither is
what another field says: the members after a run's queries — its end time,
its nondet records, its ids and whether it was canceled — are written only
up to the last that is not what its reader derives: the end time
``AppRuntime.execute`` gives a run, none, what its ``X-Warp-*`` headers say,
not canceled.

It says each fact once across runs too.  Encoded against the store's
:class:`~repro.core.serialize.TextTable`, a line holds ids where the
response body and the loaded files were, and each query is a row
``[qid, ts, <sql id>, <row id>]`` — or ``[<sql id>, <row id>]`` after the
first when its qid and its ts are each one more than the previous row's,
as they are in a run served alone; runs that interleave keep full rows.
The ids are of ``text`` entries the store writes once, before the first
line that needs them, in the same segment (the snapshot plus the WAL after
its marker).  The row id names the row entry holding the row's *payload*
(params to write sets), a raw JSON array — so the lookups and page reads a
history repeats are written once per segment, not once per run.  Records
hold the full values; only lines refer.

The reader takes that shape and no other: a keyed run line, which every
format before 8 wrote, is refused by name.  Encoded with no table, a run is
its line with every text inline and every row's qid and ts, which only the
keyed view :meth:`AppRunRecord.to_dict` reads.

A visit's lines follow the same rules (format 7, which format 8 kept): a
visit is a row of its fields in order (:data:`VISIT_ROW`), its events rows
(:data:`EVENT_ROW`), each line that extends it a row too
(:data:`DELTA_ROWS`), trailing defaults left off, and its client id, URL
and event xpaths ids of ``text`` entries.  Format 6 and every format before
it keyed a visit's lines; the reader refuses them by name.
"""

from __future__ import annotations

import json
from collections import namedtuple
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

#: The positions of a run's line (format 8): the one place a run's layout is
#: written — writer, reader and keyed view all go through it, each name
#: spelled here only.  Every line writes the members up to its queries'
#: rows; the ones after them a run usually leaves at what its reader derives
#: (:func:`_derived`), and the line stops after the last that is not.
RUN_ROW = (
    "run_id", "ts_start", "script", "loaded_files", "request", "response", "queries",
    "ts_end", "nondet", "client_id", "visit_id", "request_id", "canceled",
)  # fmt: skip
_run_row = attrgetter(*RUN_ROW)
#: Each member's position, by its name.
_AT = namedtuple("RunPositions", RUN_ROW)(*range(len(RUN_ROW)))
_LOADED, _REQUEST, _RESPONSE = _AT.loaded_files, _AT.request, _AT.response
_QUERIES, _NONDET = _AT.queries, _AT.nondet
#: The members a line may leave to its reader, as :func:`_derived` gives them.
_Derived = namedtuple("RunDerived", RUN_ROW[_QUERIES + 1 :])


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


def _derived(ts_start: int, queries: list, request: HttpRequest) -> tuple:
    """What the reader of a run line takes each member after the queries'
    rows to be when the line stops before it: the end time
    ``AppRuntime.execute`` gives a run (its queries' ts only grow), no
    nondet record, the ids the request's headers say, not canceled."""
    client_id, visit_id, request_id = _header_ids(request)
    return _Derived(
        ts_end=max(ts_start, queries[-1].ts) if queries else ts_start,
        nondet=[],
        client_id=client_id,
        visit_id=visit_id,
        request_id=request_id,
        canceled=False,
    )


def _follows(query: "QueryRecord", previous: Optional["QueryRecord"]) -> bool:
    """Whether ``query``'s row may leave out its qid and ts: each is one
    more than the ``previous`` row's."""
    return previous is not None and query.qid == previous.qid + 1 and query.ts == previous.ts + 1


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
        Against ``texts`` it is the written row: the SQL text's id and the
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
    def from_wire(
        cls, qid: int, ts: int, row: list, run_id: int, seq: int, memo: DecodeMemo
    ) -> "QueryRecord":
        """Rebuild query ``qid`` at ``ts`` from a row of a run's ``queries``,
        whose last two members are ``<sql id>, <row id>``: ``run_id`` and
        ``seq`` are the enclosing run's id and the row's index.  Queries
        decoded through one ``memo`` share everything but their identity:
        the payload is built once per distinct ``(sql id, row id)``."""
        sql, ref = row[-2], row[-1]
        key = (cls, sql, ref)
        payload = memo.built.get(key)
        if payload is None:
            row = [qid, ts, sql, *memo.tree(ref)]
            payload = memo.built[key] = _decode_payload(row, memo)
        return cls(qid, run_id, seq, ts, *payload)


def payload_text(query: QueryRecord) -> str:
    """The text of ``query``'s payload — its row after the SQL, as a
    compact JSON array: a written row's row entry, and what a
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
    #: then).  Runs are immutable once appended — a repair swaps in a new
    #: record, canceled or re-executed — so the text stays true.  Owned by
    #: the store; not part of the record's value.
    json_text: Optional[str] = field(default=None, repr=False, compare=False)
    #: Per query, the statement-cache payload it was recorded from (None
    #: where there was none), whose ``text`` :meth:`encode` splices.  Set by
    #: the runtime recording the run, dropped by the store inserting it.
    payloads: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def browser_key(self) -> Optional[Tuple[str, int]]:
        if self.client_id is not None and self.visit_id is not None:
            return (self.client_id, self.visit_id)
        return None

    def _line(self, rows: list, texts: Optional[TextTable]) -> list:
        """This run's line as a :data:`RUN_ROW` row, ``rows`` where its
        queries' rows go: the request and response as rows, against
        ``texts`` the body's and the loaded files' ids, and no member after
        the rows that its reader derives the same (:func:`_derived`)."""
        line = list(_run_row(self))
        request = _trimmed(list(_request_row(self.request)), _REQUEST_DEFAULTS)
        response = _trimmed(list(_response_row(self.response)), _RESPONSE_DEFAULTS)
        if texts is not None:
            response[_BODY] = texts.ref(response[_BODY])
            line[_LOADED] = texts.ref(_dumps(line[_LOADED]))
        line[_REQUEST], line[_RESPONSE], line[_QUERIES] = request, response, rows
        line[_NONDET] = [list(_nondet_row(record)) for record in self.nondet]
        return _trimmed(line, _derived(self.ts_start, self.queries, self.request))

    def to_wire(self, texts: Optional[TextTable] = None) -> list:
        """The tree whose ``json.dumps`` is :meth:`encode` — no defensive
        copies, tuples left for the encoder (see :meth:`QueryRecord.to_row`)."""
        line = self._line(rows := [], texts)  # the body's id first, as encode
        previous = None
        for query in self.queries:
            row = query.to_row(texts)
            rows.append(row[_SQL:] if texts is not None and _follows(query, previous) else row)
            previous = query
        return line

    def encode(self, texts: Optional[TextTable] = None) -> str:
        """This run's compact JSON text: the ``data`` of its WAL line and
        of its snapshot line against the store's ``texts``; without, the
        line with every text inline and every row's qid and ts (what
        :meth:`to_dict` reads).  Assembled: a row is its qid, ts and SQL,
        then its payload text — which queries recorded from one
        statement-cache payload share: encoded for the first, kept with the
        payload, so a hit encodes nothing — and the rows are spliced between
        the members around ``queries``."""
        line = self._line([], texts)
        parts, previous = [], None
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
                refs = f"{texts.ref(query.sql)},{texts.ref(text, row=True)}]"
                follows = _follows(query, previous)
                parts.append("[" + refs if follows else f"[{query.qid},{query.ts},{refs}")
            previous = query
        head, tail = line[: _QUERIES + 1], line[_QUERIES + 1 :]
        text = _dumps(head)[:-2] + ",".join(parts)  # head ends with the empty rows member
        return text + ("]," + _dumps(tail)[1:] if tail else "]]")

    def to_dict(self) -> dict:
        """The keyed, self-describing view (plain JSON, fresh containers):
        what the text says with every field by name — all thirteen run
        keys, all fourteen of each query, the request's and response's
        members — whether or not the text spells them out."""
        line = json.loads(self.encode())
        line += [getattr(self, name) for name in RUN_ROW[len(line) :]]  # what it derives
        line[_REQUEST], line[_RESPONSE] = self.request.to_dict(), self.response.to_dict()
        line[_QUERIES] = [
            _keyed_query(row, self.run_id, seq) for seq, row in enumerate(line[_QUERIES])
        ]
        line[_NONDET] = [dict(zip(NONDET_ROW, row)) for row in line[_NONDET]]
        return dict(zip(RUN_ROW, line))

    @classmethod
    def from_dict(
        cls, data: list, json_text: Optional[str] = None, memo: Optional[DecodeMemo] = None
    ) -> "AppRunRecord":
        """Rebuild a run from its decoded line, which must be the row
        :meth:`encode` writes against a text table: a keyed line, which
        every format before 8 wrote, is refused by name.  ``json_text`` is
        the text ``data`` was decoded from, when the caller still has it,
        and is kept.  ``memo`` is the caller's when it decodes many records,
        which then share what they have in common — and holds the ``text``
        entries the line refers to."""
        line = _row(data, "run")
        memo = memo or DecodeMemo()
        text, texts, run_id = memo.text, memo.texts, line[_AT.run_id]
        request = HttpRequest.from_dict(dict(zip(REQUEST_ROW, line[_REQUEST])), texts)
        response = HttpResponse.from_dict(dict(zip(RESPONSE_ROW, line[_RESPONSE])), texts)
        response.body = memo.literal(response.body)
        queries, qid, ts = [], None, None
        for seq, row in enumerate(line[_QUERIES]):
            if len(row) == 2:  # its two text ids alone: it follows the previous row
                qid, ts = qid + 1, ts + 1
            else:
                qid, ts = row[0], row[1]
            queries.append(QueryRecord.from_wire(qid, ts, row, run_id, seq, memo))
        tail = _derived(line[_AT.ts_start], queries, request)
        if len(line) > _QUERIES + 1:
            tail = _Derived(*line[_QUERIES + 1 :], *tail[len(line) - _QUERIES - 1 :])
        return cls(
            run_id=run_id,
            ts_start=line[_AT.ts_start],
            ts_end=tail.ts_end,
            script=text(line[_AT.script]),
            loaded_files=memo.mapping(line[_LOADED]),
            request=request,
            response=response,
            queries=queries,
            nondet=[
                NondetRecord(func, seq, decode_tree(value)) for func, seq, value in tail.nondet
            ],
            client_id=text(tail.client_id),
            visit_id=tail.visit_id,
            request_id=tail.request_id,
            canceled=tail.canceled,
            json_text=json_text,
        )


def text_refs(data: list) -> List[int]:
    """The ids of the ``text`` entries run line ``data`` refers to, as the
    store writes it: its body's, its loaded files', then each row's SQL
    text's and payload's (a row's last two members) — read off the line,
    nothing re-encoded."""
    refs = [data[_RESPONSE][_BODY], data[_LOADED]]
    for row in data[_QUERIES]:
        refs += row[-2:]
    return refs


def _row(data, kind: str = "visit") -> list:
    """``data`` of a ``kind`` line, which must be a row: every format before
    8 keyed a run's line, and format 6 and every one before it a visit's."""
    if not isinstance(data, list):
        raise ReproError(f"a {kind} line is in a retired shape: it is keyed; {UPGRADE_ROUTE}")
    return data


def _jar(jar: dict, memo: DecodeMemo) -> Dict[str, Dict[str, str]]:
    """A fresh copy of cookie jar ``jar`` (origin -> {name: value})."""
    return {memo.text(origin): memo.texts(cookies) for origin, cookies in jar.items()}


@dataclass
class EventRecord:
    """A DOM-level browser event (paper §5.2).  On the wire a row of its
    fields in order (:data:`EVENT_ROW`), the xpath an id.

    ``xpath`` addresses the target element; ``data`` carries event-type
    specific payload (for text input: the field's base value and the value
    the user left, enabling three-way merge on replay).
    """

    etype: str  # 'input' | 'click' | 'submit'
    xpath: str
    data: Dict[str, object] = field(default_factory=dict)

    def to_row(self, texts: Optional[TextTable] = None) -> list:
        """This event's row: its xpath an id against ``texts``."""
        row = list(_event_row(self))
        if texts is not None:
            row[_XPATH] = texts.ref(row[_XPATH])
        return _trimmed(row, _EVENT_DEFAULTS)

    def to_dict(self) -> dict:
        return dict(zip(EVENT_ROW, (self.etype, self.xpath, dict(self.data))))

    @classmethod
    def from_row(cls, row: list, memo: DecodeMemo) -> "EventRecord":
        """Rebuild an event from its row, its xpath an id of ``memo``'s: the
        row's members are the fields in order, the ones it leaves out at
        their defaults."""
        event = cls(*row)
        event.etype, event.xpath = memo.text(event.etype), memo.literal(event.xpath)
        event.data = memo.texts(event.data)
        return event


@dataclass
class VisitRecord:
    """The uploaded client-side log for one page visit (paper §5.1).  On the
    wire a row of its fields in order (:data:`VISIT_ROW`) — the order puts
    last what a visit's first line leaves at its default — against a text
    table its client id, URL and event xpaths ids.  The extension goes on
    appending to it while the visit is live, and the store journals each
    addition as a delta line (:data:`DELTA_ROWS`)."""

    client_id: str
    visit_id: int
    ts: int
    url: str
    #: Cookie-jar snapshots (origin -> {name: value}) around the visit.
    #: Inline on the wire: ``cookies_after`` is the one member a later line
    #: replaces, and an entry it stopped referring to would stay in the
    #: segment.
    cookies_before: Dict[str, Dict[str, str]] = field(default_factory=dict)
    parent_visit: Optional[int] = None
    method: str = "GET"
    post_params: Dict[str, str] = field(default_factory=dict)
    framed: bool = False
    events: List[EventRecord] = field(default_factory=list)
    cookies_after: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: request ids issued during this visit, in order.  Nothing under
    #: ``src/`` reads them back; they are journaled all the same.
    request_ids: List[int] = field(default_factory=list)

    def to_row(self, texts: Optional[TextTable] = None) -> list:
        """This visit's row as it stands (visit logs grow while the visit is
        live: nothing is kept): against ``texts`` its client id, URL and
        event xpaths are ids, without every text inline."""
        row = list(_visit_row(self))
        row[_EVENTS] = [event.to_row(texts) for event in self.events]
        if texts is not None:
            row[_CLIENT], row[_URL] = texts.ref(row[_CLIENT]), texts.ref(row[_URL])
        return _trimmed(row, _VISIT_DEFAULTS)

    def encode(self, texts: Optional[TextTable] = None) -> str:
        """This visit's compact JSON row: the ``data`` of its WAL line and
        of its snapshot line against the store's ``texts``."""
        return _dumps(self.to_row(texts))

    def to_dict(self) -> dict:
        """The keyed view (plain JSON, fresh containers): every member by
        its :data:`VISIT_ROW` name, each event's by its :data:`EVENT_ROW`
        name, whether or not the row spells it out."""
        data = dict(zip(VISIT_ROW, _visit_row(self)))
        data["events"] = [event.to_dict() for event in self.events]
        return json.loads(_dumps(data))

    @classmethod
    def from_row(cls, row: list, memo: Optional[DecodeMemo] = None) -> "VisitRecord":
        """Rebuild a visit from the row :meth:`encode` writes against a text
        table; ``memo`` holds the ``text`` entries it refers to."""
        memo = memo or DecodeMemo()
        visit = cls(*_row(row))
        visit.client_id, visit.url = memo.literal(visit.client_id), memo.literal(visit.url)
        visit.method, visit.post_params = memo.text(visit.method), memo.texts(visit.post_params)
        visit.events = [EventRecord.from_row(item, memo) for item in visit.events]
        visit.cookies_before = _jar(visit.cookies_before, memo)
        visit.cookies_after = _jar(visit.cookies_after, memo)
        return visit


#: The positions of an event's row and of a visit's: their fields in order,
#: so the writer, the reader and the keyed view share one layout.  Like the
#: rows above, each row stops after its last member not at its default
#: (what a fresh record holds).
EVENT_ROW = tuple(f.name for f in fields(EventRecord))
VISIT_ROW = tuple(f.name for f in fields(VisitRecord))
#: The row of each line that extends a journaled visit (a *delta*): the
#: visit's client id and visit id, then what the line adds to it.
DELTA_ROWS = {
    "visit_event": ("client_id", "visit_id", *EVENT_ROW),
    "visit_request": ("client_id", "visit_id", "request_id"),
    "visit_cookies": ("client_id", "visit_id", "cookies_after"),
}
assert all(layout[:2] == VISIT_ROW[:2] for layout in DELTA_ROWS.values())
#: Every line kind that is a row, by its layout.
ROW_LAYOUTS = {"run": RUN_ROW, "replace_run": RUN_ROW, "visit": VISIT_ROW, **DELTA_ROWS}
_event_row, _visit_row = attrgetter(*EVENT_ROW), attrgetter(*VISIT_ROW)
_CLIENT, _URL, _EVENTS = map(VISIT_ROW.index, ("client_id", "url", "events"))
_XPATH = EVENT_ROW.index("xpath")
_EVENT_DEFAULTS = _event_row(EventRecord("", ""))[_XPATH + 1 :]
_VISIT_DEFAULTS = _visit_row(VisitRecord("", 0, 0, ""))[_URL + 1 :]


def encode_delta(kind: str, client_id: str, visit_id: int, delta, texts: TextTable) -> str:
    """The row of a ``kind`` delta line (:data:`DELTA_ROWS`) adding
    ``delta`` — an :class:`EventRecord`, a request id or a cookie jar — to
    visit ``(client_id, visit_id)``, against ``texts``."""
    added = delta.to_row(texts) if kind == "visit_event" else [delta]
    return _dumps([texts.ref(client_id), visit_id, *added])


def decode_delta(kind: str, row: list, memo: DecodeMemo) -> Tuple[Tuple[str, int], object]:
    """``((client_id, visit_id), delta)`` of a ``kind`` delta line's row,
    :func:`encode_delta` undone."""
    client_id, visit_id, *added = _row(row)
    if kind == "visit_event":
        delta = EventRecord.from_row(added, memo)
    else:
        (delta,) = added
        if kind == "visit_cookies":
            delta = _jar(delta, memo)
    return (memo.literal(client_id), visit_id), delta


def visit_text_refs(row: list) -> List[int]:
    """The ids of the ``text`` entries a visit line's row refers to: its
    client id's, its URL's and each of its events' xpaths'."""
    events = row[_EVENTS] if len(row) > _EVENTS else ()
    return [row[_CLIENT], row[_URL], *(event[_XPATH] for event in events)]


def keyed_line(kind: str, data):
    """``data`` of a ``kind`` line as a tool reads it: a row by the names
    its layout gives the members it writes (ids as written); any other
    line's data as it is."""
    layout = ROW_LAYOUTS.get(kind)
    return dict(zip(layout, data)) if layout and isinstance(data, list) else data


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
