"""The WARP client-side browser extension (paper §5.1–§5.2).

During normal execution the extension:

* assigns the browser a long random *client ID*;
* assigns each page visit a *visit ID* and each HTTP request a *request
  ID*, attached to outgoing requests via ``X-Warp-*`` headers so the
  server can correlate browser activity with application runs;
* records every DOM-level event (with the XPath of its target element and
  identifying attributes for robust replay) and uploads the per-visit log
  to the WARP-enabled server (modelled as writing into the server's action
  history graph).

Users without the extension (``Browser(extension=None)``) still work, but
WARP cannot replay their browsers during repair — the Table 4 "no
extension" column.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ahg.records import EventRecord, VisitRecord
from repro.browser.html import Element
from repro.browser.xpath import identifying_attrs, xpath_of
from repro.core.clock import LogicalClock
from repro.http.message import CLIENT_HEADER, REQUEST_HEADER, VISIT_HEADER, HttpRequest
from repro.store.recordstore import RecordStore


class WarpExtension:
    """Recording extension attached to one browser."""

    def __init__(
        self,
        client_id: str,
        graph: RecordStore,
        clock: LogicalClock,
        upload: bool = True,
    ) -> None:
        self.client_id = client_id
        self.graph = graph
        self.clock = clock
        #: When False, headers are still attached (the server needs request
        #: correlation) but no event log is uploaded — used by tests that
        #: model partially-deployed extensions.
        self.upload = upload
        self._records: Dict[int, VisitRecord] = {}

    # -- visit lifecycle ---------------------------------------------------------

    def begin_visit(self, browser, visit, method: str, params: Dict[str, str]) -> None:
        record = VisitRecord(
            client_id=self.client_id,
            visit_id=visit.visit_id,
            ts=self.clock.now(),
            url=visit.url,
            method=method,
            post_params=dict(params) if method != "GET" else {},
            parent_visit=visit.parent_visit,
            framed=visit.framed,
            cookies_before=browser.jar_snapshot(),
        )
        self._records[visit.visit_id] = record
        if self.upload:
            self.graph.add_visit(record)

    def note_cookies(self, browser, visit) -> None:
        record = self._records.get(visit.visit_id)
        if record is None:
            return
        cookies = browser.jar_snapshot()
        # Journaled when the jar changed, not when it was looked at: the
        # entry is the whole jar, so repeating it tells replay nothing.
        if cookies != record.cookies_after:
            record.cookies_after = cookies
            if self.upload:
                self.graph.log_visit_cookies(self.client_id, record.visit_id, cookies)

    # -- request annotation ----------------------------------------------------------

    def annotate(self, visit, request: HttpRequest) -> None:
        request_id = visit.next_request_id()
        request.headers[CLIENT_HEADER] = self.client_id
        request.headers[VISIT_HEADER] = str(visit.visit_id)
        request.headers[REQUEST_HEADER] = str(request_id)
        record = self._records.get(visit.visit_id)
        if record is not None:
            record.request_ids.append(request_id)
            if self.upload:
                self.graph.log_visit_request(self.client_id, record.visit_id, request_id)

    # -- event recording ----------------------------------------------------------------

    def record_event(self, visit, etype: str, element: Element, data: Dict) -> None:
        record = self._records.get(visit.visit_id)
        if record is None:
            return
        payload = dict(data)
        payload["tag"] = element.tag
        payload["attrs"] = identifying_attrs(element)
        event = EventRecord(etype=etype, xpath=xpath_of(element), data=payload)
        record.events.append(event)
        if self.upload:
            # The graph shares the record object, but a durable graph must
            # journal the delta — the uploaded log accumulates after
            # ``begin_visit``, and crash recovery would otherwise see an
            # empty event list that replays nothing.
            self.graph.log_visit_event(self.client_id, record.visit_id, event)

    def visit_record(self, visit_id: int) -> Optional[VisitRecord]:
        return self._records.get(visit_id)
