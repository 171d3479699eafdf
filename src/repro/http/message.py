"""HTTP request/response objects and URL plumbing.

These stand in for the wire protocol between the simulated browser and the
application server.  Requests carry WARP's correlation headers
(``X-Warp-Client``, ``X-Warp-Visit``, ``X-Warp-Request`` — paper §5.1);
responses carry cookie mutations and the ``X-Frame-Options`` header that
the clickjacking patch relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

CLIENT_HEADER = "X-Warp-Client"
VISIT_HEADER = "X-Warp-Visit"
REQUEST_HEADER = "X-Warp-Request"


def parse_url(url: str) -> Tuple[str, str, Dict[str, str]]:
    """Split ``url`` into (origin, path, query params).

    Only the tiny subset of URL syntax the simulation uses is supported:
    ``http://host/path?k=v&k2=v2``.  Relative URLs get an empty origin.
    """
    origin = ""
    rest = url
    if "://" in url:
        scheme, _, tail = url.partition("://")
        host, slash, path_part = tail.partition("/")
        origin = f"{scheme}://{host}"
        rest = slash + path_part
    path, _, query = rest.partition("?")
    params: Dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[_url_unquote(key)] = _url_unquote(value)
    return origin, path or "/", params


def build_url(origin: str, path: str, params: Optional[Dict[str, str]] = None) -> str:
    url = origin + path
    if params:
        query = "&".join(f"{_url_quote(k)}={_url_quote(v)}" for k, v in params.items())
        url = f"{url}?{query}"
    return url


def _url_quote(text: str) -> str:
    out = []
    for ch in str(text):
        if ch.isalnum() or ch in "-_.~/":
            out.append(ch)
        else:
            out.append("%{:02X}".format(ord(ch) & 0xFF) if ord(ch) < 256 else ch)
    return "".join(out)


def _url_unquote(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "%" and i + 2 < len(text) + 1 and i + 3 <= len(text):
            try:
                out.append(chr(int(text[i + 1 : i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(text[i])
        i += 1
    return "".join(out)


@dataclass
class HttpRequest:
    """One HTTP request as seen by the server."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    cookies: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    #: Raw SQL-ish body is never needed; forms post via ``params``.

    @property
    def client_id(self) -> Optional[str]:
        return self.headers.get(CLIENT_HEADER)

    @property
    def visit_id(self) -> Optional[int]:
        value = self.headers.get(VISIT_HEADER)
        return int(value) if value is not None else None

    @property
    def request_id(self) -> Optional[int]:
        value = self.headers.get(REQUEST_HEADER)
        return int(value) if value is not None else None

    def key(self) -> Tuple:
        """Canonical equality key (correlation headers excluded)."""
        return (
            self.method,
            self.path,
            tuple(sorted(self.params.items())),
            tuple(sorted(self.cookies.items())),
        )

    def copy(self) -> "HttpRequest":
        return HttpRequest(
            method=self.method,
            path=self.path,
            params=dict(self.params),
            cookies=dict(self.cookies),
            headers=dict(self.headers),
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "path": self.path,
            "params": dict(self.params),
            "cookies": dict(self.cookies),
            "headers": dict(self.headers),
        }

    @classmethod
    def from_dict(cls, data: dict, texts=dict) -> "HttpRequest":
        """``texts`` copies a mapping of strings; a bulk decode passes its
        ``DecodeMemo.texts``, which shares the strings as it copies."""
        return cls(
            method=data["method"],
            path=data["path"],
            params=texts(data.get("params", {})),
            cookies=texts(data.get("cookies", {})),
            headers=texts(data.get("headers", {})),
        )


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int = 200
    body: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    #: name -> value (None means "delete this cookie").
    set_cookies: Dict[str, Optional[str]] = field(default_factory=dict)

    def key(self) -> Tuple:
        """Canonical equality key for the §3.3/§5.3 equivalence checks."""
        return (
            self.status,
            self.body,
            tuple(sorted(self.headers.items())),
            tuple(sorted(self.set_cookies.items())),
        )

    @property
    def deny_framing(self) -> bool:
        return self.headers.get("X-Frame-Options", "").upper() == "DENY"

    def copy(self) -> "HttpResponse":
        return HttpResponse(
            status=self.status,
            body=self.body,
            headers=dict(self.headers),
            set_cookies=dict(self.set_cookies),
        )

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "body": self.body,
            "headers": dict(self.headers),
            "set_cookies": dict(self.set_cookies),
        }

    @classmethod
    def from_dict(cls, data: dict, texts=dict) -> "HttpResponse":
        return cls(
            status=data["status"],
            body=data["body"],
            headers=texts(data.get("headers", {})),
            set_cookies=texts(data.get("set_cookies", {})),
        )
