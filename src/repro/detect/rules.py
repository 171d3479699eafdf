"""Pluggable front-line detection rules.

The detector sits on the serve path (:class:`repro.http.server.HttpServer`
calls :meth:`Detector.score` once per routed request), so rules follow
the reverse-proxy sanitization model: inspect the request *surface* —
parameters, cookies, path — never the database.  Each rule returns zero
or more :class:`Finding`\\ s with a score; the request is flagged when
the summed score reaches :data:`THRESHOLD`.  Rules are deliberately
cheap (compiled regexes over parameter values, dict lookups for session
state) because an unflagged request must cost almost nothing extra.

Built-in rules and the attack classes they aim at:

``injection-signature``
    Pattern signatures from the SQL-injection taxonomy — tautology
    (``' OR '1'='1``), UNION-based, piggy-backed (stacked statements),
    and comment-terminated payloads.  Second-order stored injection is
    caught at *planting* time: the payload travels through an ordinary
    parameter and matches the same signatures.
``param-shape``
    Parameter-shape anomalies: oversized values, quote + statement
    separator in one value, control characters.  Sub-threshold on their
    own; they corroborate a signature match.
``session-misuse``
    A session token presented by a different browser (client id) than
    the one that first presented it — session theft — and a re-login
    under a different account while still carrying the old session —
    the login-CSRF shape.
``acl-self-grant``
    An ACL grant whose target is an account the *requesting browser*
    logged into, performed over a session first seen on another browser
    — the privilege-escalation chain's final step.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.http.message import HttpRequest

#: Compiled signature patterns, taxonomy class -> pattern.
_SIGNATURES = (
    ("tautology", re.compile(r"'\s*(or|and)\b[^=]{0,24}=", re.I)),
    ("union", re.compile(r"\bunion\b[^a-z]{0,24}\bselect\b", re.I)),
    ("piggyback", re.compile(r";\s*(insert|update|delete|drop|create|alter)\b", re.I)),
    ("comment", re.compile(r"(--|#)\s*$")),
)

#: Cheap pre-filter: a value with none of these characters cannot match
#: any signature, so the per-signature scans are skipped entirely.
_PREFILTER = re.compile(r"[';]|--|\bunion\b", re.I)

#: Cookie names treated as session carriers by the stateful rules.
_SESSION_COOKIES = ("sess", "session", "token")

#: ASCII control characters below TAB — never legitimate in form input.
_CONTROL_CHARS = re.compile(r"[\x00-\x08]")


@dataclass
class Finding:
    """One rule's verdict on one request."""

    rule: str
    reason: str
    score: float
    #: Parameter (or cookie) that triggered the finding, when applicable.
    param: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"rule": self.rule, "reason": self.reason, "score": self.score}
        if self.param is not None:
            out["param"] = self.param
        return out


#: Summed rule score at which a request is flagged.
THRESHOLD = 1.0


@dataclass
class DetectionResult:
    """Summed outcome of all rules over one request."""

    score: float
    findings: List[Finding] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return self.score >= THRESHOLD

    @property
    def reasons(self) -> List[str]:
        return [finding.reason for finding in self.findings]


class Rule:
    """Base class: ``score`` inspects one request and returns findings.

    ``state`` is the detector's shared mutable dict — stateful rules
    namespace their entries by convention (``state["sessions"]`` etc.)
    and may read each other's state (the ACL rule corroborates against
    the session rule's bindings).  The detector serializes calls, so
    rules need no locking of their own."""

    name = "rule"

    def score(self, request: HttpRequest, state: dict) -> List[Finding]:
        raise NotImplementedError


def _param_values(request: HttpRequest):
    for name, value in request.params.items():
        yield name, str(value)
    for name, value in request.cookies.items():
        yield f"cookie:{name}", str(value)


class InjectionSignatureRule(Rule):
    """Taxonomy signatures over every parameter and cookie value."""

    name = "injection-signature"

    def __init__(self, signatures=_SIGNATURES, score: float = 1.0) -> None:
        self.signatures = tuple(signatures)
        self.score_per_match = score

    def score(self, request: HttpRequest, state: dict) -> List[Finding]:
        findings: List[Finding] = []
        for name, value in _param_values(request):
            if not _PREFILTER.search(value):
                continue
            for sig_name, pattern in self.signatures:
                if pattern.search(value):
                    findings.append(
                        Finding(
                            rule=self.name,
                            reason=f"injection:{sig_name}",
                            score=self.score_per_match,
                            param=name,
                        )
                    )
        return findings


class ParamShapeRule(Rule):
    """Shape anomalies: oversized values, quote + separator in one
    value, control characters.  Sub-threshold alone by design."""

    name = "param-shape"

    def __init__(self, max_len: int = 512) -> None:
        self.max_len = max_len

    def score(self, request: HttpRequest, state: dict) -> List[Finding]:
        findings: List[Finding] = []
        for name, value in _param_values(request):
            if len(value) > self.max_len:
                findings.append(
                    Finding(self.name, "shape:oversized", 0.5, param=name)
                )
            if "'" in value and ";" in value:
                findings.append(
                    Finding(self.name, "shape:quote-separator", 0.6, param=name)
                )
            if _CONTROL_CHARS.search(value):
                findings.append(
                    Finding(self.name, "shape:control-chars", 0.5, param=name)
                )
        return findings


class SessionMisuseRule(Rule):
    """Session theft and login-CSRF shapes.

    Learns, per session cookie value, the first browser (client id) that
    presented it; a later presentation from a different browser is
    theft.  Learns, per browser, the last account it logged in as; a
    re-login under a different account while still carrying the old
    session cookie is the login-CSRF shape (a lure page re-binding the
    victim's browser to the attacker's account)."""

    name = "session-misuse"

    def score(self, request: HttpRequest, state: dict) -> List[Finding]:
        client_id = request.client_id
        if client_id is None:
            return []
        findings: List[Finding] = []
        sessions: Dict[str, str] = state.setdefault("sessions", {})
        for cookie in _SESSION_COOKIES:
            token = request.cookies.get(cookie)
            if not token:
                continue
            owner = sessions.setdefault(token, client_id)
            if owner != client_id:
                findings.append(
                    Finding(
                        self.name,
                        "session:theft",
                        1.0,
                        param=f"cookie:{cookie}",
                    )
                )
        login_name = self._login_name(request)
        if login_name is not None:
            logins: Dict[str, str] = state.setdefault("logins", {})
            previous = logins.get(client_id)
            if (
                previous is not None
                and previous != login_name
                and any(request.cookies.get(c) for c in _SESSION_COOKIES)
            ):
                findings.append(
                    Finding(self.name, "session:csrf-login", 1.0, param="wpName")
                )
            logins[client_id] = login_name
            state.setdefault("accounts", {}).setdefault(client_id, set()).add(
                login_name
            )
        return findings

    @staticmethod
    def _login_name(request: HttpRequest) -> Optional[str]:
        if request.method != "POST" or "login" not in request.path:
            return None
        for key in ("wpName", "user", "username", "name"):
            value = request.params.get(key)
            if value:
                return str(value)
        return None


class AclSelfGrantRule(Rule):
    """Privilege-escalation endgame: an ACL grant targeting an account
    this browser logged into, over a session first presented elsewhere
    (i.e. stolen).  Reads the session rule's state."""

    name = "acl-self-grant"

    def score(self, request: HttpRequest, state: dict) -> List[Finding]:
        if request.method != "POST" or "acl" not in request.path:
            return []
        if request.params.get("action") not in ("grant", "allow", "add"):
            return []
        target = request.params.get("user") or request.params.get("principal")
        client_id = request.client_id
        if not target or client_id is None:
            return []
        own_accounts = state.get("accounts", {}).get(client_id, ())
        if target not in own_accounts:
            return []
        sessions = state.get("sessions", {})
        foreign_session = any(
            sessions.get(request.cookies.get(cookie)) not in (None, client_id)
            for cookie in _SESSION_COOKIES
            if request.cookies.get(cookie)
        )
        score = 1.0 if foreign_session else 0.6
        return [Finding(self.name, "acl:self-grant", score, param="user")]


def default_rules() -> List[Rule]:
    return [
        InjectionSignatureRule(),
        ParamShapeRule(),
        SessionMisuseRule(),
        AclSelfGrantRule(),
    ]


class Detector:
    """Scores requests through a rule chain; thread-safe.

    The serve path calls :meth:`score` once per routed request.  The
    inert cost is one lock acquisition plus the rule scans; flagged
    requests additionally open (or merge into) an incident downstream."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else default_rules()
        )
        #: Shared mutable state for stateful rules (session bindings).
        self.state: dict = {}
        self._lock = threading.Lock()
        self.scored = 0
        self.flagged = 0

    def score(self, request: HttpRequest) -> DetectionResult:
        findings: List[Finding] = []
        with self._lock:
            self.scored += 1
            for rule in self.rules:
                found = rule.score(request, self.state)
                if found:
                    findings.extend(found)
            result = DetectionResult(
                score=sum(f.score for f in findings),
                findings=findings,
            )
            if result.flagged:
                self.flagged += 1
        return result

    def status(self) -> dict:
        with self._lock:
            return {
                "rules": [rule.name for rule in self.rules],
                "threshold": THRESHOLD,
                "scored": self.scored,
                "flagged": self.flagged,
            }
