"""The admin route table: which ``(method, path)`` pairs exist, and what
a wrong method, an unknown path, a malformed spec or a sick disk answers.

Each subsystem mounts its own rows where it is constructed
(``table.add("POST", "/repair/<job_id>/cancel", handler)``); a handler
takes the request plus one positional argument per ``<capture>`` and
returns ``(status, payload)``.  :meth:`RouteTable.dispatch` is the only
place that matches path segments, builds the JSON response, and maps
exceptions at the HTTP boundary — API.md lists the mounted surface and a
test keeps the two equal.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import DurabilityError, ReproError
from repro.faults.plane import InjectedFault
from repro.http.message import HttpRequest, HttpResponse

#: What ``RepairJobManager._run_with_retry`` treats as transient storage
#: faults: the server's condition, not the caller's mistake.
_STORAGE_FAULTS = (DurabilityError, OSError, InjectedFault)


class NotFound(ReproError):
    """A handler's 404: the path is mounted but names no such object."""


def _json(status: int, payload: dict, **headers: str) -> HttpResponse:
    headers["Content-Type"] = "application/json"
    return HttpResponse(
        status=status, body=json.dumps(payload, sort_keys=True), headers=headers
    )


class RouteTable:
    """``(method, path pattern) -> handler`` under one path prefix."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        #: Degraded-mode state machine (repro.faults.health); None on a
        #: surface with no log of its own (the shard coordinator).
        self.health = None
        #: Serves a path no row matches (the coordinator forwards it to a
        #: worker); None answers 404.
        self.miss: Optional[Callable[[HttpRequest], HttpResponse]] = None
        #: pattern segments (None = capture) -> method -> (pattern,
        #: handler, degraded_ok)
        self._rows: Dict[tuple, Dict[str, Tuple[str, Callable, bool]]] = {}

    def add(
        self, method: str, pattern: str, handler: Callable, degraded_ok: bool = False
    ) -> None:
        """Mount ``handler`` at ``prefix + pattern``.  ``degraded_ok``
        marks a mutating row that stays available while read-only."""
        segments = tuple(
            None if segment.startswith("<") else segment
            for segment in pattern.strip("/").split("/")
        )
        self._rows.setdefault(segments, {})[method] = (pattern, handler, degraded_ok)

    def owns(self, path: str) -> bool:
        """True for ``prefix`` itself and ``prefix/...`` — not for a
        sibling that merely starts with the same characters."""
        return path.startswith(self.prefix) and path[
            len(self.prefix) : len(self.prefix) + 1
        ] in ("", "/")

    def routes(self) -> List[Tuple[str, str]]:
        """Every mounted ``(method, full path pattern)``, sorted."""
        return sorted(
            (method, self.prefix + pattern)
            for methods in self._rows.values()
            for method, (pattern, _, _) in methods.items()
        )

    def _match(self, segments: tuple):
        methods = self._rows.get(segments)  # an all-literal pattern wins
        if methods is not None:
            return methods, ()
        for pattern, methods in self._rows.items():
            if len(pattern) == len(segments) and all(
                want is None or want == got for want, got in zip(pattern, segments)
            ):
                return methods, tuple(
                    got for want, got in zip(pattern, segments) if want is None
                )
        return None, ()

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        health = self.health
        try:
            tail = request.path[len(self.prefix) :].strip("/")
            methods, captures = self._match(tuple(tail.split("/")))
            if methods is None:
                if self.miss is not None:
                    return self.miss(request)
                raise NotFound(f"unknown admin path {request.path}")
            row = methods.get(request.method)
            if row is None:
                allow = ", ".join(sorted(methods))
                return _json(
                    405,
                    {"error": f"{request.path} is {allow}, not {request.method}"},
                    Allow=allow,
                )
            _, handler, degraded_ok = row
            if health is not None and request.method != "GET" and not degraded_ok:
                # Probe-on-write, same as the serving path: a cleared
                # fault heals here instead of bouncing the operator.
                health.try_heal()
                if health.mode != "normal":
                    return _json(
                        503,
                        {
                            "error": "system is degraded (read-only); "
                            "mutating admin operations are refused",
                            "health": health.to_dict(),
                        },
                    )
            status, payload = handler(request, *captures)
            return _json(status, payload)
        except NotFound as exc:
            return _json(404, {"error": str(exc)})
        except _STORAGE_FAULTS as exc:
            # The operation may have run but its journal entry (or the
            # file it writes) is not on disk: not acknowledged, serving
            # flips read-only, and the caller retries once it heals.
            payload = {"error": f"storage fault: {exc!r}"}
            if health is not None:
                health.on_durability_error(exc)
                payload["health"] = health.to_dict()
            return _json(
                503, payload, **{"Retry-After": "1", "X-Warp-Degraded": "durability"}
            )
        except ReproError as exc:
            # Malformed specs, unknown tables in a fix, bad SQL: the
            # caller's fault (StorageError/SqlError included — a preview
            # of a bogus statement must not crash the serving thread).
            return _json(400, {"error": str(exc)})
        except Exception as exc:
            # Catch-all for the HTTP boundary only: submit() returns
            # before the job runs, so no repair outcome ever unwinds
            # through here, and SimulatedCrash passes by as a
            # BaseException.  What this catches is a server-side bug.
            return _json(500, {"error": f"admin handler failed: {exc!r}"})
