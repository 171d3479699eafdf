"""The simulated browser: navigation, cookies, frames, scripts, user input.

Faithful to the paper's browser model (§5):

* each page load is a *page visit* with its own visit ID; navigating a
  frame (or submitting a form) starts a new visit that depends on the old;
* ``<script>`` elements execute via jsmini and can issue HTTP requests
  (with the cookies of the *target* origin attached — which is what makes
  CSRF work);
* ``<iframe>`` elements load child visits marked ``framed``; a response
  carrying ``X-Frame-Options: DENY`` refuses to render in a frame
  (the clickjacking patch);
* user input (typing, clicking) is applied at the DOM level, and — when
  the WARP extension is installed — recorded with XPath targets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.browser.html import Document, Element, parse_html
from repro.browser.jsmini import Interpreter
from repro.core.errors import ReproError
from repro.http.message import HttpRequest, HttpResponse, build_url, parse_url


class Network:
    """Maps origins to server handlers (the simulated internet)."""

    def __init__(self) -> None:
        self._servers: Dict[str, Callable[[HttpRequest], HttpResponse]] = {}

    def register(self, origin: str, handler: Callable[[HttpRequest], HttpResponse]) -> None:
        self._servers[origin] = handler

    def request(self, origin: str, request: HttpRequest) -> HttpResponse:
        handler = self._servers.get(origin)
        if handler is None:
            return HttpResponse(status=502, body=f"no server for {origin}")
        return handler(request)


class PageVisit:
    """One page open in a browser frame (paper §5.1)."""

    def __init__(
        self,
        visit_id: int,
        url: str,
        origin: str,
        path: str,
        parent_visit: Optional[int] = None,
        framed: bool = False,
    ) -> None:
        self.visit_id = visit_id
        self.url = url
        self.origin = origin
        self.path = path
        self.parent_visit = parent_visit
        self.framed = framed
        self.document: Document = parse_html("")
        self.blocked = False  # True when X-Frame-Options refused the load
        self.response: Optional[HttpResponse] = None
        self.request_counter = 0
        self.script_errors: List[str] = []

    def next_request_id(self) -> int:
        self.request_counter += 1
        return self.request_counter


class Browser:
    """A single user's browser."""

    def __init__(
        self,
        network: Network,
        extension=None,
        transport: Optional[Callable[[str, HttpRequest], HttpResponse]] = None,
    ) -> None:
        self.network = network
        self.extension = extension  # WarpExtension or None
        self._transport = transport if transport is not None else network.request
        self.cookies: Dict[str, Dict[str, str]] = {}
        self.current: Optional[PageVisit] = None
        self.visits: Dict[int, PageVisit] = {}
        self._visit_counter = 0

    def resume_visits(self, last_visit_id: int) -> None:
        """Continue visit-id allocation after ``last_visit_id`` (a real
        browser's extension keeps its counter across restarts; a rebuilt
        browser object for a returning client must not reuse ids that are
        already recorded server-side)."""
        self._visit_counter = max(self._visit_counter, last_visit_id)

    # -- cookie jar -------------------------------------------------------------

    def cookies_for(self, origin: str) -> Dict[str, str]:
        return dict(self.cookies.get(origin, {}))

    def jar_snapshot(self) -> Dict[str, Dict[str, str]]:
        return {origin: dict(values) for origin, values in self.cookies.items()}

    def load_jar(self, snapshot: Dict[str, Dict[str, str]]) -> None:
        self.cookies = {origin: dict(values) for origin, values in snapshot.items()}

    def _apply_set_cookies(self, origin: str, response: HttpResponse) -> None:
        jar = self.cookies.setdefault(origin, {})
        for name, value in response.set_cookies.items():
            if value is None:
                jar.pop(name, None)
            else:
                jar[name] = value

    # -- navigation --------------------------------------------------------------

    def open(
        self,
        url: str,
        method: str = "GET",
        params: Optional[Dict[str, str]] = None,
        parent: Optional[PageVisit] = None,
        framed: bool = False,
        base_origin: str = "",
    ) -> PageVisit:
        """Load ``url`` in a (new) frame, returning the new page visit."""
        origin, path, query_params = parse_url(url)
        if not origin:
            origin = base_origin or (parent.origin if parent else "")
            if not origin and self.current is not None:
                origin = self.current.origin
        merged: Dict[str, str] = dict(query_params)
        if params:
            merged.update(params)

        self._visit_counter += 1
        visit = PageVisit(
            visit_id=self._visit_counter,
            url=build_url(origin, path, query_params if method == "GET" else query_params),
            origin=origin,
            path=path,
            parent_visit=parent.visit_id if parent else None,
            framed=framed,
        )
        self.visits[visit.visit_id] = visit
        if self.extension is not None:
            self.extension.begin_visit(self, visit, method, merged)

        response = self._issue_request(visit, method, origin, path, merged)
        visit.response = response
        if framed and response.deny_framing:
            visit.blocked = True
            visit.document = parse_html("")
        else:
            visit.document = parse_html(response.body)
        if not framed:
            self.current = visit
        if self.extension is not None:
            self.extension.note_cookies(self, visit)
        if not visit.blocked:
            self._load_subframes(visit)
            self._run_page_scripts(visit)
        return visit

    def _issue_request(
        self,
        visit: PageVisit,
        method: str,
        origin: str,
        path: str,
        params: Dict[str, str],
    ) -> HttpResponse:
        request = HttpRequest(
            method=method,
            path=path,
            params=dict(params),
            cookies=self.cookies_for(origin),
        )
        if self.extension is not None:
            self.extension.annotate(visit, request)
        response = self._transport(origin, request)
        self._apply_set_cookies(origin, response)
        if self.extension is not None:
            self.extension.note_cookies(self, visit)
        return response

    def _load_subframes(self, visit: PageVisit) -> None:
        for iframe in visit.document.root.find_all("iframe"):
            src = iframe.attrs.get("src")
            if src:
                child = self.open(src, parent=visit, framed=True, base_origin=visit.origin)
                iframe.attrs["data-frame-visit"] = str(child.visit_id)

    # -- scripts ---------------------------------------------------------------------

    def _run_page_scripts(self, visit: PageVisit) -> None:
        scripts = visit.document.scripts()
        if not scripts:
            return
        interp = Interpreter(self._script_builtins(visit))
        for script in scripts:
            source = script.text_content()
            if source.strip():
                interp.run(source)
        visit.script_errors.extend(interp.errors)

    def _script_builtins(self, visit: PageVisit) -> Dict[str, Callable]:
        def http_get(url: str, params: Optional[dict] = None) -> str:
            return self._script_request(visit, "GET", url, params or {})

        def http_post(url: str, params: Optional[dict] = None) -> str:
            return self._script_request(visit, "POST", url, params or {})

        def doc_text(selector: str) -> str:
            element = visit.document.select(selector)
            return element.text_content() if element is not None else ""

        def doc_value(selector: str) -> str:
            element = visit.document.select(selector)
            return element.value if element is not None else ""

        def doc_set_value(selector: str, value) -> None:
            element = visit.document.select(selector)
            if element is not None:
                element.value = str(value)

        def doc_append(selector: str, text) -> None:
            element = visit.document.select(selector)
            if element is not None:
                element.set_text(element.text_content() + str(text))

        return {
            "http_get": http_get,
            "http_post": http_post,
            "doc_text": doc_text,
            "doc_value": doc_value,
            "doc_set_value": doc_set_value,
            "doc_append": doc_append,
            "log": lambda *args: None,
        }

    def _script_request(
        self, visit: PageVisit, method: str, url: str, params: dict
    ) -> str:
        origin, path, query_params = parse_url(url)
        if not origin:
            origin = visit.origin
        merged = dict(query_params)
        merged.update({str(k): str(v) for k, v in params.items()})
        response = self._issue_request(visit, method, origin, path, merged)
        return response.body

    # -- user input (DOM-level) ----------------------------------------------------

    def type_into(self, selector: str, text: str, visit: Optional[PageVisit] = None) -> None:
        """Simulate keyboard input replacing a field's content."""
        target = visit if visit is not None else self.current
        if target is None:
            raise ReproError("no page open")
        element = self._require_element(target, selector)
        base = element.value
        element.value = text
        if self.extension is not None:
            self.extension.record_event(
                target,
                "input",
                element,
                {"base": base, "value": text},
            )

    def click(self, selector: str, visit: Optional[PageVisit] = None) -> Optional[PageVisit]:
        """Click an element: links navigate, submit buttons submit forms."""
        target = visit if visit is not None else self.current
        if target is None:
            raise ReproError("no page open")
        element = self._require_element(target, selector)
        if self.extension is not None:
            self.extension.record_event(target, "click", element, {})
        return self.click_element(element, target)

    def click_element(self, element: Element, visit: PageVisit) -> Optional[PageVisit]:
        """Dispatch a click on a concrete element (no recording)."""
        if element.tag == "a" and "href" in element.attrs:
            return self.open(element.attrs["href"], parent=visit, base_origin=visit.origin)
        if element.tag == "input" and element.attrs.get("type") == "submit":
            form = element.ancestor("form")
            if form is not None:
                return self._submit_form(visit, form, clicked=element)
        return None

    def submit_element(self, element: Element, visit: PageVisit) -> Optional[PageVisit]:
        """Dispatch a form submission on a concrete element (no recording)."""
        form = element if element.tag == "form" else element.ancestor("form")
        if form is None:
            raise ReproError("submit target is not inside a form")
        return self._submit_form(visit, form)

    def submit(self, selector: str = "form", visit: Optional[PageVisit] = None) -> Optional[PageVisit]:
        """Submit a form directly (equivalent to pressing enter)."""
        target = visit if visit is not None else self.current
        if target is None:
            raise ReproError("no page open")
        form = self._require_element(target, selector)
        if form.tag != "form":
            form = form.ancestor("form")
            if form is None:
                raise ReproError(f"{selector!r} is not inside a form")
        if self.extension is not None:
            self.extension.record_event(target, "submit", form, {})
        return self.submit_element(form, target)

    def _submit_form(
        self, visit: PageVisit, form: Element, clicked: Optional[Element] = None
    ) -> PageVisit:
        fields: Dict[str, str] = {}
        for element in form.iter():
            name = element.attrs.get("name")
            if not name:
                continue
            if element.tag == "input":
                input_type = element.attrs.get("type", "text")
                if input_type == "submit":
                    if clicked is not None and element is not clicked:
                        continue
                    fields[name] = element.value
                elif input_type in ("text", "hidden", "password"):
                    fields[name] = element.value
            elif element.tag == "textarea":
                fields[name] = element.value
        method = form.attrs.get("method", "get").upper()
        action = form.attrs.get("action", visit.path)
        return self.open(
            action,
            method=method,
            params=fields,
            parent=visit,
            framed=visit.framed,
            base_origin=visit.origin,
        )

    def _require_element(self, visit: PageVisit, selector: str) -> Element:
        element = visit.document.select(selector)
        if element is None:
            raise ReproError(f"no element matches {selector!r} on {visit.url}")
        return element

    # -- frame access -------------------------------------------------------------------

    def framed_visit(self, parent: PageVisit, index: int = 0) -> Optional[PageVisit]:
        """The index-th child frame visit of ``parent`` (if loaded)."""
        frames = parent.document.root.find_all("iframe")
        if index >= len(frames):
            return None
        visit_id = frames[index].attrs.get("data-frame-visit")
        if visit_id is None:
            return None
        return self.visits.get(int(visit_id))
