"""Deterministic identifier allocation.

Client IDs, visit IDs, request IDs, session tokens: everything WARP uses to
correlate browser activity with server activity (paper §5.1).  The paper
uses long random values for client IDs; we derive them from a seeded PRNG
so whole-system runs are reproducible.
"""

from __future__ import annotations

import random
import threading
from typing import Dict

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def random_token(rng: random.Random, length: int = 24) -> str:
    """Return an unguessable-looking token drawn from ``rng``."""
    return "".join(rng.choice(_ALPHABET) for _ in range(length))


def trailing_seq(ident: str) -> int:
    """The integer after the last ``-`` of ``job-7`` / ``inc-12`` /
    ``dist-3``, 0 when there is none — how id allocation finds the
    highest sequence number already used after a recovery."""
    _, _, tail = ident.rpartition("-")
    return int(tail) if tail.isdigit() else 0


class IdAllocator:
    """Per-namespace monotonic counters.

    ``IdAllocator.next("run")`` returns 1, 2, 3... independently of
    ``IdAllocator.next("visit")``.  Used for server-side run IDs, query IDs,
    page-visit IDs, and anything else that needs small unique integers.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def next(self, namespace: str) -> int:
        """Allocate the next id atomically (concurrent request threads must
        never share a run or query id — a collision silently overwrites the
        other record in the graph)."""
        with self._lock:
            value = self._counters.get(namespace, 0) + 1
            self._counters[namespace] = value
            return value

    def peek(self, namespace: str) -> int:
        """Return the last allocated id in ``namespace`` (0 if none)."""
        return self._counters.get(namespace, 0)

    def advance_to(self, namespace: str, value: int) -> None:
        """Ensure the next id in ``namespace`` is greater than ``value``
        (used after restoring records that postdate a persisted counter)."""
        with self._lock:
            if value > self._counters.get(namespace, 0):
                self._counters[namespace] = value

    def state_dict(self) -> Dict[str, int]:
        """Persistable image of every namespace's counter."""
        return dict(self._counters)

    def restore(self, state: Dict[str, int]) -> None:
        """Reset all counters from a persisted image (system reload)."""
        self._counters = dict(state)
