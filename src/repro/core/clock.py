"""Logical clock used to stamp every recorded action.

WARP's continuous-versioning database (paper §4.2) tags each row version
with a ``[start_time, end_time)`` interval and uses ``∞`` as the open end.
We use an integer logical clock; ``INFINITY`` is a sentinel larger than any
timestamp the clock can produce.
"""

from __future__ import annotations

import threading

#: Sentinel for "row version is current" / "valid in all later generations".
INFINITY = 2**62


class LogicalClock:
    """Monotonic integer clock.

    ``tick()`` returns a fresh, strictly increasing timestamp.  ``now()``
    peeks at the last issued timestamp without advancing.  The clock can be
    advanced manually (``advance``) so workload generators can leave gaps,
    which is handy when tests need "a time strictly between two actions".

    ``tick``/``advance`` are atomic: concurrent request threads must never
    observe the same timestamp twice (row-version intervals and the action
    log both assume strict monotonicity).
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock must start at a non-negative time")
        self._now = start
        self._lock = threading.Lock()

    def tick(self) -> int:
        """Advance the clock by one and return the new timestamp."""
        with self._lock:
            self._now += 1
            return self._now

    def now(self) -> int:
        """Return the most recently issued timestamp."""
        return self._now

    def advance(self, delta: int) -> int:
        """Jump the clock forward by ``delta`` ticks (must be positive)."""
        if delta <= 0:
            raise ValueError("can only advance the clock forward")
        with self._lock:
            self._now += delta
            return self._now

    def restore(self, now: int) -> None:
        """Reset the clock to a persisted timestamp (system reload)."""
        if now < 0:
            raise ValueError("clock cannot be restored to a negative time")
        self._now = now

    def wall_time(self) -> float:
        """A fake wall-clock reading derived from the logical time.

        Application code that asks for "the current date" during normal
        execution gets this value; it is recorded in the nondeterminism log
        and replayed verbatim during repair (paper §3.1).
        """
        return 1_300_000_000.0 + self._now * 0.01

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogicalClock(now={self._now})"
