"""Seeded, deterministic fault-injection plane.

Every instrumented layer fires named *fault points* through a
:class:`FaultPlane`.  A plane with no armed rules is inert (one dict
lookup per fire), so production code paths carry the instrumentation at
effectively zero cost.  Tests and the crash-recovery harness arm
:class:`FaultRule`\\ s — *at point P, after N hits, raise error kind K,
M times* — so every failure is replayable from a JSON schedule:

.. code-block:: json

    {"seed": 7, "faults": [
        {"point": "wal.fsync", "kind": "io", "after": 4, "times": 2}
    ]}

Error kinds and what they model:

``io``
    Transient write error (``EIO``) — a sick disk that may recover.
``disk_full``
    ``ENOSPC`` — the volume filled up; clears when the rule exhausts.
``error``
    A generic in-process failure (:class:`InjectedError`), for layers
    above the I/O boundary (repair phases, pool dispatch).
``crash``
    :class:`SimulatedCrash` — the process dies *here*.  Deliberately a
    ``BaseException`` so no ``except Exception`` recovery path can
    swallow it; only the crash harness catches it.
``torn``
    :class:`TornWrite` — a crash in the middle of a write: a prefix of
    the payload reaches the file (the classic torn WAL tail), then the
    process dies.
``stall``
    A slow component rather than a broken one: ``fire()`` sleeps for
    ``fraction`` seconds and returns normally.  Used to model slow
    repair-plan computation (``detect.preview``) and other latency
    faults where the interesting failure is lock starvation, not an
    exception.

Rule exhaustion is how "the fault clears": a rule with ``times=3`` stops
firing after its third injection, and the self-healing machinery
(:mod:`repro.faults.health`) can then re-probe the path successfully.

This module has no dependencies on the rest of the package so any layer
can import it without cycles.
"""

from __future__ import annotations

import errno
import json
import threading
import time
from typing import Dict, Iterable, List, Optional

#: Recognised error kinds (see module docstring).
FAULT_KINDS = ("io", "disk_full", "error", "crash", "torn", "stall")

#: Catalog of instrumented fault points.  Kept in sync with the
#: "Failure model" section of DESIGN.md; tests assert membership so a
#: renamed point cannot silently orphan its schedules.
FAULT_POINTS = (
    "wal.append",  # WAL batch write (by the waiter holding the I/O lock)
    "wal.fsync",  # fsync after a WAL write
    "store.insert_run",  # record-store run insertion under stripe locks
    "store.snapshot",  # snapshot file write (between marker and payload)
    "ttdb.finalize_switch",  # generation switch committing a repair
    "repair.phase_started",  # controller phase boundary
    "repair.groups_planned",  # after planning, before processing
    "repair.group_done",  # after each repair group commits
    "repair.finalized",  # after the generation switch completes
    "repair.aborted",  # abort path completed
    "gate.reapply",  # queued-request re-application after repair
    "pool.dispatch",  # server pool worker picking up a request
    "sqlite.exec",  # every statement the SQLite storage engine executes
    "sqlite.commit",  # SQLite engine checkpoint (meta flush + WAL truncate)
    "shard.dispatch",  # coordinator about to dispatch one shard's repair job
    "shard.merge",  # coordinator about to merge fan-out results
    "detect.preview",  # incident preview refresh about to compute one plan
)


class InjectedFault(Exception):
    """Mixin/base for injected *recoverable* faults.  Retry policies key
    on this type: anything that is an ``InjectedFault`` (or an
    ``OSError``) is transient by construction."""


class InjectedError(RuntimeError, InjectedFault):
    """Generic injected in-process failure."""


class InjectedIOError(OSError, InjectedFault):
    """Injected I/O failure carrying a real errno (``EIO``/``ENOSPC``)."""

    def __init__(self, errno_: int, point: str) -> None:
        name = errno.errorcode.get(errno_, str(errno_))
        super().__init__(errno_, f"injected {name} at fault point {point!r}")
        self.point = point


class SimulatedCrash(BaseException):
    """The process "dies" here.  A ``BaseException`` on purpose: every
    ``except Exception`` recovery path must let it through, exactly as a
    real ``kill -9`` would.  Only the crash-recovery harness (and test
    code) catches it."""


class TornWrite(SimulatedCrash):
    """Crash mid-write: the writer persists a prefix of the payload
    before raising :class:`SimulatedCrash` semantics (see the WAL's
    ``_write_payload``)."""

    def __init__(self, point: str, fraction: float = 0.5) -> None:
        super().__init__(f"torn write at fault point {point!r}")
        self.point = point
        self.fraction = fraction


class FaultRule:
    """One armed fault: at ``point``, after ``after`` hits, inject
    ``kind`` for the next ``times`` hits (``times=None`` = forever)."""

    __slots__ = ("point", "kind", "after", "times", "fraction", "hits", "fired")

    def __init__(
        self,
        point: str,
        kind: str,
        after: int = 0,
        times: Optional[int] = 1,
        fraction: float = 0.5,
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (one of {FAULT_KINDS})")
        self.point = point
        self.kind = kind
        self.after = int(after)
        self.times = None if times is None else int(times)
        self.fraction = fraction
        #: Hits observed at this point since arming.
        self.hits = 0
        #: Injections actually performed.
        self.fired = 0

    @property
    def exhausted(self) -> bool:
        """True once the rule will never fire again — the fault cleared."""
        return self.times is not None and self.hits >= self.after + self.times

    def _eligible(self) -> bool:
        if self.hits <= self.after:
            return False
        return self.times is None or self.hits <= self.after + self.times

    def to_dict(self) -> dict:
        out = {"point": self.point, "kind": self.kind, "after": self.after}
        out["times"] = self.times
        if self.kind in ("torn", "stall") and self.fraction != 0.5:
            out["fraction"] = self.fraction
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            data["point"],
            data["kind"],
            after=data.get("after", 0),
            times=data.get("times", 1),
            fraction=data.get("fraction", 0.5),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultRule({self.point!r}, {self.kind!r}, after={self.after}, "
            f"times={self.times}, hits={self.hits}, fired={self.fired})"
        )


class FaultPlane:
    """Holds armed rules and dispatches injections at fault points.

    Thread-safe; the inert fast path (no rules armed at the point) is a
    single unlocked dict lookup."""

    def __init__(self, rules: Iterable[FaultRule] = (), seed: Optional[int] = None):
        self.seed = seed
        self._rules: Dict[str, List[FaultRule]] = {}
        self._lock = threading.Lock()
        #: Chronological log of injected faults (dicts), for replay docs.
        self.fired: List[dict] = []
        self.last_fault: Optional[dict] = None
        self._seq = 0
        for rule in rules:
            self._rules.setdefault(rule.point, []).append(rule)

    # -- arming ----------------------------------------------------------------

    def arm(
        self,
        rule: Optional[FaultRule] = None,
        *,
        point: Optional[str] = None,
        kind: Optional[str] = None,
        after: int = 0,
        times: Optional[int] = 1,
        fraction: float = 0.5,
    ) -> FaultRule:
        if rule is None:
            if point is None or kind is None:
                raise ValueError("arm() needs a FaultRule or point= and kind=")
            rule = FaultRule(point, kind, after=after, times=times, fraction=fraction)
        with self._lock:
            self._rules.setdefault(rule.point, []).append(rule)
        return rule

    def clear(self, point: Optional[str] = None) -> None:
        with self._lock:
            if point is None:
                self._rules.clear()
            else:
                self._rules.pop(point, None)

    # -- firing ----------------------------------------------------------------

    def fire(self, point: str, **context) -> None:
        """Called by instrumented code at fault point ``point``.  Raises
        the injected error when an armed rule matches; otherwise no-op.
        Extra keyword context (small scalars) is recorded in the fault
        log for replay documentation."""
        rules = self._rules.get(point)
        if not rules:
            return
        with self._lock:
            winner: Optional[FaultRule] = None
            for rule in rules:
                rule.hits += 1
                if winner is None and rule._eligible():
                    rule.fired += 1
                    winner = rule
            if winner is None:
                return
            self._seq += 1
            event = {"seq": self._seq, "point": point, "kind": winner.kind,
                     "hit": winner.hits}
            for key, value in context.items():
                if isinstance(value, (int, float, str, bool)):
                    event[key] = value
            self.fired.append(event)
            self.last_fault = event
            kind = winner.kind
            fraction = winner.fraction
        if kind == "stall":
            # A latency fault, not a failure: sleep and carry on.
            time.sleep(fraction)
            return
        if kind == "io":
            raise InjectedIOError(errno.EIO, point)
        if kind == "disk_full":
            raise InjectedIOError(errno.ENOSPC, point)
        if kind == "error":
            raise InjectedError(f"injected error at fault point {point!r}")
        if kind == "crash":
            raise SimulatedCrash(f"simulated crash at fault point {point!r}")
        raise TornWrite(point, fraction)

    # -- introspection ---------------------------------------------------------

    def pending(self, point: Optional[str] = None) -> int:
        """Injections still to come across armed, non-exhausted rules
        (unbounded rules count as 1)."""
        with self._lock:
            total = 0
            for rule_point, rules in self._rules.items():
                if point is not None and rule_point != point:
                    continue
                for rule in rules:
                    if rule.times is None:
                        if not rule.exhausted:
                            total += 1
                    else:
                        remaining = rule.after + rule.times - max(rule.hits, rule.after)
                        total += max(0, remaining)
            return total

    def status(self) -> dict:
        """Compact summary for the health endpoint."""
        with self._lock:
            return {
                "seed": self.seed,
                "armed_points": sorted(self._rules),
                "pending": sum(
                    1 for rules in self._rules.values()
                    for rule in rules if not rule.exhausted
                ),
                "fired": len(self.fired),
                "last_fault": dict(self.last_fault) if self.last_fault else None,
            }

    # -- JSON schedules --------------------------------------------------------

    def to_schedule(self) -> dict:
        with self._lock:
            rules = [r.to_dict() for rules in self._rules.values() for r in rules]
        return {"seed": self.seed, "faults": rules}

    @classmethod
    def from_schedule(cls, schedule) -> "FaultPlane":
        """Build a plane from a JSON schedule (dict or JSON string)."""
        if isinstance(schedule, str):
            schedule = json.loads(schedule)
        rules = [FaultRule.from_dict(item) for item in schedule.get("faults", ())]
        return cls(rules, seed=schedule.get("seed"))


#: Process-wide default plane.  Inert unless a test installs rules; every
#: component that is not handed an explicit plane falls back to this one.
_ACTIVE = FaultPlane()


def active() -> FaultPlane:
    return _ACTIVE


def install(plane: Optional[FaultPlane]) -> FaultPlane:
    """Replace the process-wide plane; returns the previous one so tests
    can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plane if plane is not None else FaultPlane()
    return previous
