"""JSON-safe encoding helpers shared by record serialization and the WAL.

The recorded values WARP persists are all JSON scalars (str, int, float,
bool, None) arranged in tuples, frozensets and dicts.  JSON has no tuple
or set, so encoding flattens both to lists and decoding rebuilds the
original container shapes; the record types know *which* shape each field
expects and call the matching decoder.
"""

from __future__ import annotations

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
        return tuple(decode_tree(item) for item in value)
    return value


def encode_key_set(keys: Iterable[Tuple]) -> List[list]:
    """Encode a set/frozenset of key tuples deterministically."""
    return sorted((list(key) for key in keys), key=repr)


def decode_key_set(items: Iterable[list]) -> frozenset:
    return frozenset(tuple(item) for item in items)


def encode_pairs(pairs: Iterable[Tuple]) -> List[list]:
    """Encode an iterable of 2-tuples (e.g. ``(column, value)``)."""
    return sorted((list(pair) for pair in pairs), key=repr)


def decode_pairs(items: Iterable[list]) -> frozenset:
    return frozenset((item[0], item[1]) for item in items)
