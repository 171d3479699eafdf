"""Server-side browser re-execution (paper §5.3).

When repair determines a past HTTP response changed, the browser repair
manager spawns a *clone* of the user's browser on the server, loads the
same URL (through the repair transport, so requests are matched against
the originals and pruned or re-executed), and replays the recorded
DOM-level events — merging text input three-way and flagging conflicts.

The clone's cookies come from the visit's recorded pre-visit jar overlaid
with any divergence produced by earlier replays of the same client, which
implements "cookies are loaded either from the HTTP server's log ... or
from the last browser page re-executed for that client".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ahg.records import AppRunRecord, EventRecord, VisitRecord
from repro.browser.browser import Browser, PageVisit
from repro.browser.merge import MergeConflict, three_way_merge
from repro.browser.xpath import resolve_target
from repro.core.errors import ConflictError
from repro.http.message import (
    CLIENT_HEADER,
    REQUEST_HEADER,
    VISIT_HEADER,
    HttpRequest,
)


@dataclass
class ReplayConfig:
    """Browser re-execution feature switches (the Table 4 columns)."""

    #: False disables three-way merge: typed input replays only onto an
    #: identical base value.
    text_merge: bool = True
    #: Optional application-provided *UI conflict function* (paper §5.4):
    #: given the original and repaired page bodies, return a reason string
    #: to flag a conflict even though all input replayed fine (e.g. a bank
    #: balance the user acted upon was shown wrong), or None to accept.
    ui_conflict_fn: Optional[object] = None


class CloneExtension:
    """Extension inside the server-side re-execution browser.

    Annotates requests with clone visit/request IDs so the repair transport
    can correlate them, and tells the session about new page visits so they
    can be matched to original visits.
    """

    def __init__(self, session: "ReplaySession") -> None:
        self.session = session

    def begin_visit(self, browser, visit, method: str, params: Dict[str, str]) -> None:
        self.session.register_clone_visit(visit, method, params)

    def note_cookies(self, browser, visit) -> None:
        pass

    def annotate(self, visit, request: HttpRequest) -> None:
        request_id = visit.next_request_id()
        request.headers[CLIENT_HEADER] = self.session.client_id
        request.headers[VISIT_HEADER] = str(visit.visit_id)
        request.headers[REQUEST_HEADER] = str(request_id)

    def record_event(self, visit, etype, element, data) -> None:
        pass


class ReplaySession:
    """Maps one client's clone browser activity onto the original log."""

    def __init__(self, client_id: str, controller) -> None:
        self.client_id = client_id
        self.controller = controller
        #: clone visit id -> original visit id (None = no counterpart).
        self.clone_to_orig: Dict[int, Optional[int]] = {}
        #: original visit id -> clone PageVisit
        self.orig_to_clone: Dict[int, PageVisit] = {}
        #: Pre-registered mapping for the next root visit the clone opens.
        self.pending_root: Optional[int] = None
        #: original visit id -> [(run, matched?)]
        self.run_matching: Dict[int, List[List]] = {}
        #: original visit ids where replay hit a conflict.
        self.conflicted: Set[int] = set()
        #: original visit ids replayed (mapped) in this session.
        self.mapped_orig_visits: List[int] = []
        self._ts_cursor: int = 0

    # -- visit mapping -----------------------------------------------------------

    def register_clone_visit(self, clone_visit: PageVisit, method: str, params) -> None:
        graph = self.controller.graph
        orig_id: Optional[int] = None
        if self.pending_root is not None:
            orig_id = self.pending_root
            self.pending_root = None
        else:
            parent_orig = self.clone_to_orig.get(clone_visit.parent_visit)
            if parent_orig is not None:
                orig_id = self._match_child_visit(parent_orig, clone_visit, method)
        self.clone_to_orig[clone_visit.visit_id] = orig_id
        if orig_id is not None:
            self.orig_to_clone[orig_id] = clone_visit
            self.mapped_orig_visits.append(orig_id)
            self._load_run_matching(orig_id)
            record = graph.visits.get((self.client_id, orig_id))
            if record is not None:
                self._ts_cursor = max(self._ts_cursor, record.ts)
            self.controller.note_visit_replayed(self.client_id, orig_id)

    def _match_child_visit(
        self, parent_orig: int, clone_visit: PageVisit, method: str
    ) -> Optional[int]:
        graph = self.controller.graph
        candidates = [
            record
            for record in graph.client_visits(self.client_id)
            if record.parent_visit == parent_orig
            and record.visit_id not in self.orig_to_clone
            and record.method == method
            and _same_path(record.url, clone_visit.path)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda record: record.ts).visit_id

    def _load_run_matching(self, orig_visit_id: int) -> None:
        if orig_visit_id in self.run_matching:
            return
        runs = self.controller.graph.runs_of_visit(self.client_id, orig_visit_id)
        self.run_matching[orig_visit_id] = [[run, False] for run in runs]

    # -- request matching -----------------------------------------------------------

    def match_request(
        self, clone_visit_id: int, request: HttpRequest
    ) -> Tuple[Optional[AppRunRecord], int]:
        """Find the original run this replayed request corresponds to.

        Returns (run, ts_for_new_run).  ``run`` is None when the request has
        no original counterpart and must execute as a fresh run.
        """
        orig_id = self.clone_to_orig.get(clone_visit_id)
        if orig_id is None:
            return None, self._ts_cursor or self.controller.clock.now()
        for entry in self.run_matching.get(orig_id, []):
            run, matched = entry
            if matched:
                continue
            if run.request.method == request.method and run.request.path == request.path:
                entry[1] = True
                self._ts_cursor = max(self._ts_cursor, run.ts_start)
                return run, run.ts_start
        return None, self._ts_cursor or self.controller.clock.now()

    def unmatched_runs(self) -> List[AppRunRecord]:
        """Original runs of non-conflicted replayed visits that were never
        re-issued: their effects must be undone (the attack's requests)."""
        out = []
        for orig_id, entries in self.run_matching.items():
            if orig_id in self.conflicted:
                continue
            for run, matched in entries:
                if not matched:
                    out.append(run)
        return out


class BrowserReplayer:
    """The browser repair manager: replays visits in server-side clones."""

    def __init__(self, controller, config: Optional[ReplayConfig] = None) -> None:
        self.controller = controller
        self.config = config if config is not None else ReplayConfig()
        #: client -> origin -> cookie overrides produced by earlier replays.
        self.cookie_overrides: Dict[str, Dict[str, Dict[str, Optional[str]]]] = {}
        self.diverged_clients: Set[str] = set()

    # -- main entry -----------------------------------------------------------------

    def replay_visit(self, visit: VisitRecord) -> None:
        """Replay one original page visit (and any visits it navigates to)."""
        controller = self.controller
        session = ReplaySession(visit.client_id, controller)
        session.pending_root = visit.visit_id

        clone = Browser(
            controller.network,
            extension=CloneExtension(session),
            transport=lambda origin, request: controller.handle_replay_request(
                session, origin, request
            ),
        )
        clone.load_jar(self._initial_jar(visit))

        root_clone = clone.open(
            visit.url,
            method=visit.method,
            params=dict(visit.post_params) if visit.post_params else None,
            framed=visit.framed,
        )

        # Replay recorded events for every original visit mapped so far
        # (the root plus any iframes it loaded), then for visits reached by
        # replayed navigation, recursively.
        replayed: Set[int] = set()
        self._check_ui_conflict(session, visit, root_clone)
        self._drain_events(clone, session, replayed)

        # Original requests that were never re-issued are attack residue:
        # cancel them (undo their database effects).
        for run in session.unmatched_runs():
            controller.cancel_run(run)

        self._note_cookie_divergence(clone, session, visit)

    def _check_ui_conflict(self, session: ReplaySession, visit: VisitRecord, clone_visit) -> None:
        """Apply the application's UI conflict function, if any (§5.4)."""
        if self.config.ui_conflict_fn is None:
            return
        run = None
        for entry in session.run_matching.get(visit.visit_id, []):
            run = entry[0]
            break
        if run is None or clone_visit.response is None:
            return
        reason = self.config.ui_conflict_fn(
            run.response.body, clone_visit.response.body
        )
        if reason:
            session.conflicted.add(visit.visit_id)
            self.controller.report_conflict(
                visit,
                EventRecord(etype="ui", xpath="(page)"),
                f"application UI conflict: {reason}",
            )

    # -- events ------------------------------------------------------------------------

    def _drain_events(self, clone: Browser, session: ReplaySession, replayed: Set[int]) -> None:
        progress = True
        while progress:
            progress = False
            for orig_id in list(session.mapped_orig_visits):
                if orig_id in replayed:
                    continue
                replayed.add(orig_id)
                progress = True
                record = self.controller.graph.visits.get(
                    (session.client_id, orig_id)
                )
                clone_visit = session.orig_to_clone.get(orig_id)
                if record is None or clone_visit is None:
                    continue
                if orig_id in session.conflicted:
                    continue
                self._replay_events(clone, session, clone_visit, record)

    def _replay_events(
        self,
        clone: Browser,
        session: ReplaySession,
        clone_visit: PageVisit,
        record: VisitRecord,
    ) -> None:
        for event in record.events:
            try:
                self._replay_one(clone, clone_visit, event)
            except ConflictError as exc:
                session.conflicted.add(record.visit_id)
                self.controller.report_conflict(record, event, str(exc))
                return

    def _replay_one(self, clone: Browser, clone_visit: PageVisit, event: EventRecord) -> None:
        if clone_visit.blocked:
            raise ConflictError(
                "page refused to load in a frame", "cannot replay input"
            )
        tag = event.data.get("tag")
        attrs = event.data.get("attrs") or {}
        element = resolve_target(clone_visit.document, event.xpath, attrs, tag)
        if element is None:
            raise ConflictError(
                "event target not found on repaired page", event.xpath
            )
        if event.etype == "input":
            self._replay_input(element, event)
        elif event.etype == "click":
            clone.click_element(element, clone_visit)
        elif event.etype == "submit":
            clone.submit_element(element, clone_visit)

    def _replay_input(self, element, event: EventRecord) -> None:
        base = str(event.data.get("base", ""))
        final = str(event.data.get("value", ""))
        current = element.value
        if current == base:
            element.value = final
            return
        if not self.config.text_merge:
            raise ConflictError(
                "field content changed and text merging is disabled"
            )
        try:
            element.value = three_way_merge(base, final, current)
        except MergeConflict as exc:
            raise ConflictError("user input overlaps repaired content", str(exc))

    # -- cookies ------------------------------------------------------------------------

    def _initial_jar(self, visit: VisitRecord) -> Dict[str, Dict[str, str]]:
        jar = {origin: dict(values) for origin, values in visit.cookies_before.items()}
        overrides = self.cookie_overrides.get(visit.client_id, {})
        for origin, values in overrides.items():
            bucket = jar.setdefault(origin, {})
            for name, value in values.items():
                if value is None:
                    bucket.pop(name, None)
                else:
                    bucket[name] = value
        return jar

    def _note_cookie_divergence(
        self, clone: Browser, session: ReplaySession, visit: VisitRecord
    ) -> None:
        after = clone.jar_snapshot()
        recorded = visit.cookies_after
        overrides = self.cookie_overrides.setdefault(visit.client_id, {})
        diverged = False
        origins = set(after) | set(recorded)
        for origin in origins:
            new_values = after.get(origin, {})
            old_values = recorded.get(origin, {})
            for name in set(new_values) | set(old_values):
                new = new_values.get(name)
                old = old_values.get(name)
                if new != old:
                    overrides.setdefault(origin, {})[name] = new
                    diverged = True
        if diverged:
            self.diverged_clients.add(visit.client_id)


def _same_path(url: str, path: str) -> bool:
    from repro.http.message import parse_url

    _, url_path, _ = parse_url(url)
    return url_path == path
