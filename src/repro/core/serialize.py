"""JSON-safe encoding helpers shared by record serialization and the WAL.

The recorded values WARP persists are all JSON scalars (str, int, float,
bool, None) arranged in tuples, frozensets and dicts.  JSON has no tuple
or set, so encoding flattens both to lists and decoding rebuilds the
original container shapes; the record types know *which* shape each field
expects and call the matching decoder.  The text table and decode memo
below are snapshot format 8's, the one format a build reads.
"""

from __future__ import annotations

import json
import marshal
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: ``json.dumps`` separators of everything persisted line by line (WAL
#: entries, snapshot lines): written far more often than read by a human.
COMPACT = (",", ":")


def decode_tree(value):
    """Recursively rebuild nested JSON lists as tuples (snapshots, params
    and row keys are tuples all the way down)."""
    if isinstance(value, list):
        return tuple([decode_tree(item) for item in value])
    return value


def encode_key_set(keys: Iterable[Tuple]) -> List[list]:
    """Encode a set/frozenset of key tuples deterministically."""
    return sorted((list(key) for key in keys), key=repr)


def decode_key_set(items: Iterable[list]) -> frozenset:
    return frozenset([tuple(item) for item in items])


def encode_pairs(pairs: Iterable[Tuple]) -> List[list]:
    """Encode an iterable of 2-tuples (e.g. ``(column, value)``)."""
    return sorted((list(pair) for pair in pairs), key=repr)


def decode_pairs(items: Iterable[list]) -> frozenset:
    return frozenset([(item[0], item[1]) for item in items])


#: What a refusal of a file or line in a retired shape says about it: which
#: build still reads it.  No build converts a file to format 8.
UPGRADE_ROUTE = (
    "this build reads format 8 only and converts no older file; commit 58a6dff "
    "is the last that reads format 7, commit 37f403a the last that reads format 6, "
    "commit 0226ea7 the last that reads format 5, commit 812ecd4 the last that "
    "reads formats 1-4"
)

#: A :class:`DecodeMemo` shares strings up to this long.  Longer ones (page
#: text, response bodies) rarely repeat and cost their length to hash.
SHARED_TEXT_MAX = 80


def exact_key(raw) -> bytes:
    """Decoded JSON ``raw`` as a hashable, **type-exact** key: ``1``, ``1.0``
    and ``True`` are equal and hash alike (so do ``0.0`` and ``-0.0``), their
    marshalled bytes differ (version 2: by value, never by object identity)."""
    return marshal.dumps(raw, 2)


class TextTable:
    """The ``text`` entries of one log segment (snapshot format 8, DESIGN.md
    "Durability"): each distinct response body, set of loaded files, SQL
    text and row payload (a query's fields after its SQL, as a compact JSON
    array) a run line needs, and each client id, URL and event xpath a visit
    line or a visit's delta line needs, under an integer id.  A segment — a snapshot
    plus the WAL after its marker — writes each entry once, before the first
    line that refers to it; every line after that writes the id where the
    text was.  A payload's entry is a *row* entry, ``{"id":N,"row":[...]}``:
    its text is a JSON array, written raw rather than escaped into a string.

    Ids come from ``last_id``, which only grows: a run keeps the text it was
    written with, so an id once written must keep its meaning for as long
    as that text can be spliced.  Not locked: the record store touches it
    under its lock only."""

    __slots__ = ("by_id", "ids", "rows", "last_id", "fresh", "_entries")

    def __init__(self, last_id: int = 0) -> None:
        #: id -> text, and back, for every entry the segment holds.
        self.by_id: Dict[int, str] = {}
        self.ids: Dict[str, int] = {}
        #: The ids of the row entries.
        self.rows: Set[int] = set()
        self.last_id = last_id
        #: Ids defined by :meth:`ref` whose entries nobody has written yet.
        self.fresh: List[int] = []
        #: id -> :meth:`entry`, kept from the first time it was asked for
        #: (when the WAL journals it): escaping every entry again at each
        #: save cost ~20 % of a save.
        self._entries: Dict[int, str] = {}

    def ref(self, text: str, row: bool = False) -> int:
        """The id of ``text``, defined now — and listed in ``fresh`` — if
        the segment has no entry for it: a row entry if it is a ``row``."""
        ident = self.ids.get(text)
        if ident is None:
            ident = self.last_id = self.last_id + 1
            self.ids[text] = ident
            self.by_id[ident] = text
            self.fresh.append(ident)
            if row:
                self.rows.add(ident)
        return ident

    def shared(self, text: str) -> str:
        """The table's own copy of ``text``, which has an entry."""
        return self.by_id[self.ids[text]]

    def define(self, ident: int, text: str, row: bool = False) -> None:
        """Take in an entry read back from a snapshot or a WAL."""
        self.by_id[ident] = text
        self.ids.setdefault(text, ident)
        self.last_id = max(self.last_id, ident)
        if row:
            self.rows.add(ident)

    def take_fresh(self) -> List[int]:
        """The ids whose entries must be written now, in definition order."""
        fresh, self.fresh = self.fresh, []
        return fresh

    def keep(self, idents: Iterable[int]) -> None:
        """Start a new segment holding exactly the entries ``idents`` (ids of
        this table); all of them are written with it, so none is fresh.  A
        segment that keeps every entry leaves the table as it is."""
        idents = sorted(idents)
        if len(idents) < len(self.by_id):
            self.by_id = {ident: self.by_id[ident] for ident in idents}
            self.ids = {text: ident for ident, text in self.by_id.items()}
            self.rows.intersection_update(idents)
            entries = self._entries
            self._entries = {ident: entries[ident] for ident in idents if ident in entries}
        self.fresh = []

    def copy(self) -> "TextTable":
        clone = TextTable(self.last_id)
        clone.by_id, clone.ids, clone.rows = dict(self.by_id), dict(self.ids), set(self.rows)
        return clone

    def entry(self, ident: int) -> str:
        """The compact JSON ``data`` of entry ``ident``'s journal line — what
        ``json.dumps`` gives (a row entry's array raw), made once."""
        line = self._entries.get(ident)
        if line is None:
            text = self.by_id[ident]
            field = f'"row":{text}' if ident in self.rows else f'"text":{_quote(text)}'
            line = self._entries[ident] = f'{{"id":{ident},{field}}}'
        return line


class DecodeMemo:
    """Builds each distinct immutable thing once while records are decoded
    (DESIGN.md "Durability").  Whoever decodes many records — a snapshot
    load, a WAL replay — opens one and passes it down; a decoder called
    without one opens its own.  Only immutable objects go through it
    (``str``, ``tuple``, ``frozenset``, frozen dataclasses — a dict only as
    copies, :meth:`mapping`) and only under type-exact keys: a memo keyed by
    equality would hand ``1`` back for ``True``, and the next encode write
    it so.

    ``table`` holds the ``text`` entries read so far (the store's own, so a
    WAL replayed over a snapshot resolves the snapshot's ids); every record
    that refers to one id gets the one string the table holds for it, and
    every query whose row refers to one ``(sql id, row id)`` pair the one
    payload built for it (``built``), from the array its entry's line
    decoded to: a payload is parsed once per load."""

    def __init__(self, table: Optional[TextTable] = None) -> None:
        self.table = table if table is not None else TextTable()
        self._texts: dict = {}
        #: ``(what, ..., exact_key(raw))`` -> what :meth:`once`, or a decoder
        #: whose building needs the memo, built from ``raw``; a row's payload
        #: under ``(QueryRecord, sql id, row id)``, an entry's object under
        #: ``(DecodeMemo.mapping, id)``.
        self.built: dict = {}
        #: id -> the array a row entry's line decoded to, until it is used.
        self._rows: dict = {}

    def define(self, data: dict, text: Optional[str]) -> None:
        """Take in the ``text`` entry ``data`` read back from a line that held
        it as the JSON ``text``: a row entry's text is the array's slice."""
        ident, row = data["id"], data.get("row")
        if row is None:
            self.table.define(ident, data["text"])
        else:
            text = text or json.dumps(data, separators=COMPACT)  # a line framed otherwise
            self.table.define(ident, text[len(f'{{"id":{ident},"row":') : -1], row=True)
            self._rows[ident] = row

    def text(self, value):
        """``value`` — the one shared copy of it, if it is a short string."""
        if type(value) is str and len(value) <= SHARED_TEXT_MAX:
            return self._texts.setdefault(value, value)
        return value

    def literal(self, ident: int) -> str:
        """The response body, SQL text, row payload, client id, URL or
        xpath a line refers to by the id of its ``text`` entry."""
        return self.table.by_id[ident]

    def tree(self, ident: int):
        """The decoded JSON of entry ``ident``'s text — a row payload, a
        run's loaded files.  A row entry's is the array its line decoded to,
        handed out once (kept, it would only raise the load's peak)."""
        tree = self._rows.pop(ident, None)
        return json.loads(self.table.by_id[ident]) if tree is None else tree

    def texts(self, mapping: dict) -> dict:
        """A fresh dict of ``mapping``, keys and values through :meth:`text`."""
        text = self.text
        return {text(key): text(value) for key, value in mapping.items()}

    def mapping(self, ident: int) -> dict:
        """A fresh dict of the JSON object entry ``ident`` holds — a run's
        loaded files — keys and values through :meth:`text`.  Decoded once
        per memo, however many lines refer to it; the memo keeps that dict
        and hands out copies."""
        key = (DecodeMemo.mapping, ident)
        decoded = self.built.get(key)
        if decoded is None:
            decoded = self.built[key] = self.texts(self.tree(ident))
        return dict(decoded)

    def once(self, build, *raw):
        """``build(*raw)`` for decoded JSON ``raw``, built once per distinct
        ``raw``; ``build`` must return something immutable (and not None)."""
        key = (build, exact_key(raw))
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = build(*raw)
        return built
