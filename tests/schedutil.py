"""Deterministic interleaving harness for online repair.

``CoopSchedule`` drives load-generator traffic and repair worklist steps
in a *seeded cooperative interleaving*: it installs itself as the repair
controller's ``step_hook`` and, after every worklist item, issues a
seeded number of traffic operations inline.  No real threads — the whole
interleaving is a deterministic function of the seed, so a failing seed
replays exactly.

The harness also captures the **serialization order** the online run
induces: requests served during the repair in service order, then the
queued requests in arrival order (re-applied at finalize), then whatever
traffic was issued after the repair returned.  The equivalence property
(tests/test_online_repair.py) replays that same serialization against an
identically-staged deployment that repaired *quiesced*, and compares the
final version store, the canonically-renumbered graph, the re-execution
counters and every response byte.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.http.message import HttpRequest, HttpResponse


class TrafficOp:
    """One scripted request: deterministic content, replayable anywhere."""

    def __init__(self, index: int, client_name: str, request: HttpRequest) -> None:
        self.index = index
        self.client_name = client_name
        self.request = request
        #: Filled by the run that issues the op.
        self.status: Optional[int] = None
        self.ticket: Optional[int] = None
        self.response: Optional[HttpResponse] = None
        self.during_repair = False

    def issue(self, clients: Dict[str, object]) -> HttpResponse:
        client = clients[self.client_name]
        response = client.send(self.request.copy())
        self.status = response.status
        self.response = response
        if response.status == 202 and "X-Warp-Queued" in response.headers:
            self.ticket = int(response.headers["X-Warp-Queued"])
        return response


def scripted_ops(
    rng: random.Random,
    client_names: List[str],
    pages: List[str],
    n_ops: int,
    cookies: Dict[str, Dict[str, str]],
    append_weight: int = 1,
    view_weight: int = 2,
) -> List[TrafficOp]:
    """Build a deterministic traffic script.  Each client edits only its
    pinned page (``client_names`` and ``pages`` zip round-robin), so the
    script itself is free of app-level write races."""
    ops: List[TrafficOp] = []
    kinds = ["append"] * append_weight + ["view"] * view_weight
    for index in range(n_ops):
        who = rng.randrange(len(client_names))
        name = client_names[who]
        page = pages[who % len(pages)]
        kind = rng.choice(kinds)
        if kind == "append":
            request = HttpRequest(
                "POST",
                "/edit.php",
                params={"title": page, "append": f"\nop{index}."},
                cookies=dict(cookies[name]),
                headers={"X-Warp-Client": f"{name}-load"},
            )
        else:
            # Reads are marker-free: repeat GETs are byte-identical, the
            # repeat traffic a real wiki sees.
            request = HttpRequest(
                "GET",
                "/edit.php",
                params={"title": page},
                cookies=dict(cookies[name]),
                headers={"X-Warp-Client": f"{name}-load"},
            )
        ops.append(TrafficOp(index, name, request))
    return ops


class CoopSchedule:
    """Seeded cooperative interleaver of repair steps and traffic ops."""

    def __init__(
        self,
        seed: int,
        ops: List[TrafficOp],
        clients: Dict[str, object],
        max_burst: int = 2,
    ) -> None:
        self._rng = random.Random(seed)
        self._ops = ops
        self._clients = clients
        self._max_burst = max_burst
        self._cursor = 0
        #: Ops in the order they were issued *and served* (not queued).
        self.served: List[TrafficOp] = []
        #: Ops that came back 202 with a ticket, in issue order.
        self.queued: List[TrafficOp] = []
        self.during_repair = 0

    # -- step_hook --------------------------------------------------------

    def hook(self) -> None:
        """Called after each repair worklist item: issue 0..max_burst ops."""
        for _ in range(self._rng.randint(0, self._max_burst)):
            if not self._issue_next(during_repair=True):
                return

    def drain(self) -> None:
        """Issue whatever the repair window didn't consume (post-repair)."""
        while self._issue_next(during_repair=False):
            pass

    def _issue_next(self, during_repair: bool) -> bool:
        if self._cursor >= len(self._ops):
            return False
        op = self._ops[self._cursor]
        self._cursor += 1
        op.during_repair = during_repair
        op.issue(self._clients)
        if during_repair:
            self.during_repair += 1
        if op.ticket is not None:
            self.queued.append(op)
        else:
            self.served.append(op)
        return True

    def serialization(self) -> List[TrafficOp]:
        """The serial order the online execution is equivalent to: ops
        served during the repair in service order, then the queued ops at
        their re-application point (finalize drains them before the repair
        entry point returns), then the post-repair ops."""
        in_repair = [op for op in self.served if op.during_repair]
        post = [op for op in self.served if not op.during_repair]
        return in_repair + self.queued + post
