"""JSON-safe encoding helpers shared by record serialization and the WAL.

The recorded values WARP persists are all JSON scalars (str, int, float,
bool, None) arranged in tuples, frozensets and dicts.  JSON has no tuple
or set, so encoding flattens both to lists and decoding rebuilds the
original container shapes; the record types know *which* shape each field
expects and call the matching decoder.
"""

from __future__ import annotations

import marshal
from typing import Iterable, List, Tuple

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


#: A :class:`DecodeMemo` shares strings up to this long.  Longer ones (page
#: text, response bodies) rarely repeat and cost their length to hash.
SHARED_TEXT_MAX = 80


def exact_key(raw) -> bytes:
    """Decoded JSON ``raw`` as a hashable, **type-exact** key: ``1``, ``1.0``
    and ``True`` are equal and hash alike (so do ``0.0`` and ``-0.0``), their
    marshalled bytes differ (version 2: by value, never by object identity)."""
    return marshal.dumps(raw, 2)


class DecodeMemo:
    """Builds each distinct immutable thing once while records are decoded
    (DESIGN.md "Durability").  Whoever decodes many records — a snapshot
    load, a WAL replay — opens one and passes it down; a decoder called
    without one opens its own.  Only immutable objects go through it
    (``str``, ``tuple``, ``frozenset``, frozen dataclasses — never a dict or
    list) and only under type-exact keys: a memo keyed by equality would
    hand ``1`` back for ``True``, and the next encode write it so."""

    def __init__(self) -> None:
        self._texts: dict = {}
        #: ``(what, ..., exact_key(raw))`` -> what :meth:`once`, or a decoder
        #: whose building needs the memo, built from ``raw``.
        self.built: dict = {}

    def text(self, value):
        """``value`` — the one shared copy of it, if it is a short string."""
        if type(value) is str and len(value) <= SHARED_TEXT_MAX:
            return self._texts.setdefault(value, value)
        return value

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
