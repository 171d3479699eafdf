"""JSON-safe encoding helpers shared by record serialization and the WAL.

The recorded values WARP persists are all JSON scalars (str, int, float,
bool, None) arranged in tuples, frozensets and dicts.  JSON has no tuple
or set, so encoding flattens both to lists and decoding rebuilds the
original container shapes; the record types know *which* shape each field
expects and call the matching decoder.  The text table and decode memo
below are snapshot format 5's, the one format a build reads.
"""

from __future__ import annotations

import marshal
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterable, List, Optional, Tuple

#: ``json.dumps`` separators of everything persisted line by line (WAL
#: entries, snapshot lines): written far more often than read by a human.
COMPACT = (",", ":")


def encode_tree(value):
    """Recursively encode nested tuples/lists as JSON lists."""
    if isinstance(value, (tuple, list)):
        return [encode_tree(item) for item in value]
    return value


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


#: What a refusal of a file or line in a retired shape says to do about it.
UPGRADE_ROUTE = (
    "this build reads format 5 only; to upgrade, load and save it once with "
    "commit 812ecd4 or earlier, which reads formats 1-5 and writes format 5"
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
    """The ``text`` entries of one log segment (snapshot format 5, DESIGN.md
    "Durability"): each distinct response body, SQL text and row payload (a
    query's fields after its SQL, as a compact JSON array) a run line needs,
    under an integer id.  A segment — a snapshot plus the WAL after its
    marker — writes each entry once, before the first line that refers to
    it; every line after that writes the id where the text was.

    Ids come from ``last_id``, which only grows: a run keeps the text it was
    written with, so an id once written must keep its meaning for as long
    as that text can be spliced.  Not locked: the record store touches it
    under its records stripe only."""

    __slots__ = ("by_id", "ids", "last_id", "fresh", "_entries")

    def __init__(self, last_id: int = 0) -> None:
        #: id -> text, and back, for every entry the segment holds.
        self.by_id: Dict[int, str] = {}
        self.ids: Dict[str, int] = {}
        self.last_id = last_id
        #: Ids defined by :meth:`ref` whose entries nobody has written yet.
        self.fresh: List[int] = []
        #: id -> :meth:`entry`, kept from the first time it was asked for
        #: (when the WAL journals it): escaping every payload's JSON again
        #: at each save cost ~20 % of a save.
        self._entries: Dict[int, str] = {}

    def ref(self, text: str) -> int:
        """The id of ``text``, defined now — and listed in ``fresh`` — if
        the segment has no entry for it."""
        ident = self.ids.get(text)
        if ident is None:
            ident = self.last_id = self.last_id + 1
            self.ids[text] = ident
            self.by_id[ident] = text
            self.fresh.append(ident)
        return ident

    def shared(self, text: str) -> str:
        """The table's own copy of ``text``, which has an entry."""
        return self.by_id[self.ids[text]]

    def define(self, ident: int, text: str) -> None:
        """Take in an entry read back from a snapshot or a WAL."""
        self.by_id[ident] = text
        self.ids.setdefault(text, ident)
        self.last_id = max(self.last_id, ident)

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
            entries = self._entries
            self._entries = {ident: entries[ident] for ident in idents if ident in entries}
        self.fresh = []

    def copy(self) -> "TextTable":
        clone = TextTable(self.last_id)
        clone.by_id, clone.ids = dict(self.by_id), dict(self.ids)
        return clone

    def entry(self, ident: int) -> str:
        """The compact JSON ``data`` of entry ``ident``'s journal line — what
        ``json.dumps`` gives, from one C call on the text, made once."""
        line = self._entries.get(ident)
        if line is None:
            line = self._entries[ident] = f'{{"id":{ident},"text":{_quote(self.by_id[ident])}}}'
        return line


class DecodeMemo:
    """Builds each distinct immutable thing once while records are decoded
    (DESIGN.md "Durability").  Whoever decodes many records — a snapshot
    load, a WAL replay — opens one and passes it down; a decoder called
    without one opens its own.  Only immutable objects go through it
    (``str``, ``tuple``, ``frozenset``, frozen dataclasses — never a dict or
    list) and only under type-exact keys: a memo keyed by equality would
    hand ``1`` back for ``True``, and the next encode write it so.

    ``table`` holds the ``text`` entries read so far (the store's own, so a
    WAL replayed over a snapshot resolves the snapshot's ids); every record
    that refers to one id gets the one string the table holds for it, and
    every query whose row refers to one ``(sql id, row id)`` pair the one
    payload built for it (``built``), parsed from the entry once per load."""

    def __init__(self, table: Optional[TextTable] = None) -> None:
        self.table = table if table is not None else TextTable()
        self._texts: dict = {}
        #: ``(what, ..., exact_key(raw))`` -> what :meth:`once`, or a decoder
        #: whose building needs the memo, built from ``raw``; a format-5
        #: row's payload under ``(QueryRecord, sql id, row id)``.
        self.built: dict = {}

    def text(self, value):
        """``value`` — the one shared copy of it, if it is a short string."""
        if type(value) is str and len(value) <= SHARED_TEXT_MAX:
            return self._texts.setdefault(value, value)
        return value

    def literal(self, ident: int) -> str:
        """The response body, SQL text or row payload a line refers to by
        the id of its ``text`` entry."""
        return self.table.by_id[ident]

    def texts(self, mapping: dict) -> dict:
        """A fresh dict of ``mapping``, keys and values through :meth:`text`."""
        text = self.text
        return {text(key): text(value) for key, value in mapping.items()}

    def once(self, build, *raw):
        """``build(*raw)`` for decoded JSON ``raw``, built once per distinct
        ``raw``; ``build`` must return something immutable (and not None)."""
        key = (build, exact_key(raw))
        built = self.built.get(key)
        if built is None:
            built = self.built[key] = build(*raw)
        return built
