"""What a record store holds on the heap, object by object.

A load-scoped decode memo (``repro.core.serialize.DecodeMemo``) makes the
records of a reloaded history share what they have in common.  Two things
follow that no behavioural test sees: *what* is shared must be immutable
(a shared dict would let one record's mutation show in another), and the
sharing must stay (an un-shared SQL text costs nothing but memory).  The
walk here answers both — which objects are reachable from which record,
and how many bytes the distinct ones come to — deterministically, from
``id`` and ``sys.getsizeof``, not from the process's RSS.
"""

import sys
from typing import Dict, Iterable, Iterator, Set

from repro.ahg.records import QueryRecord
from repro.store.recordstore import RecordStore


def parts(obj) -> Iterator[object]:
    """The objects ``obj`` refers to directly: a container's items, an
    instance's attributes (``__dict__`` or slots)."""
    if isinstance(obj, dict):
        yield from obj.keys()
        yield from obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        yield from obj
    else:
        yield from getattr(obj, "__dict__", {}).values()
        for name in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, name):
                yield getattr(obj, name)


def reachable(root, stop_at: type = ()) -> Dict[int, object]:
    """``id -> object`` of everything reachable from ``root``, itself
    included; an instance of ``stop_at`` other than the root is neither
    included nor entered."""
    seen: Dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        if obj is not root and isinstance(obj, stop_at):
            continue
        seen[id(obj)] = obj
        stack.extend(parts(obj))
    return seen


def records_of(store: RecordStore) -> Iterator[object]:
    """Every record of ``store``, each on its own: runs (without their
    queries), queries, visits."""
    for run in store.runs.values():
        yield run
        yield from run.queries
    yield from store.visits.values()


def shared_between_records(store: RecordStore) -> Iterable[object]:
    """The objects reachable from two different records of ``store``."""
    owner: Dict[int, int] = {}
    shared: Dict[int, object] = {}
    for record in records_of(store):
        for key, obj in reachable(record, stop_at=QueryRecord).items():
            if owner.setdefault(key, id(record)) != id(record):
                shared[key] = obj
    return shared.values()


def heap_bytes(store: RecordStore) -> int:
    """``sys.getsizeof`` summed over every distinct object reachable from
    the store's runs (queries, requests, responses and all), its touch
    index and its text table (the segment's entries: bodies and SQL texts
    the runs hold too, and row payloads only it holds) — an instance
    counted with its ``__dict__`` if it has one."""
    seen: Set[int] = set()
    total = 0
    for root in (store.runs, store.touch, store.texts):
        for key, obj in reachable(root).items():
            if key not in seen:
                seen.add(key)
                total += sys.getsizeof(obj)
                if hasattr(obj, "__dict__"):
                    total += sys.getsizeof(vars(obj))
    return total
