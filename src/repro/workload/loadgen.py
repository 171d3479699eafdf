"""Concurrent load driver: real threads hammering a WARP deployment.

The §4.3 claim — repair runs while the site keeps serving users — is only
testable with traffic that actually overlaps the repair.  ``LoadGen``
drives a configurable mix of wiki operations from a pool of dedicated
load clients (each with its own session cookie jar and its own private
page) against ``HttpServer.handle``:

* **threaded mode** (``run_threads``): N worker threads issue requests
  until a deadline or per-thread budget, timing every call — this is what
  the online-repair benchmark uses while a repair runs on the main thread;
* **inline mode** (``next_request``/``issue``): one deterministic request
  at a time, for the cooperative interleaving harness in the tests.

Each *write* carries a unique ``marker`` parameter appended to the page,
so "applied exactly once" is checkable by counting marker occurrences in
page text afterwards.  Reads are marker-free: identical GETs stay
byte-identical, the repeat traffic a real wiki sees.

The driver is deliberately headerless-browser traffic: requests carry the
``X-Warp-Client`` correlation header but no visit/event logs, modelling
API clients or extension-less users (Table 4's no-extension rows).
"""

from __future__ import annotations

import random
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.http.message import HttpRequest, HttpResponse

#: Default operation mix (weights): mostly reads, a steady write stream.
DEFAULT_MIX = {"view_form": 5, "append": 3, "index": 0}

#: Attack payloads the ``attack_rate`` knob rotates through — detectable
#: by the front-line signatures but state-safe under load (the tautology
#: only reads, the UNION is rejected by the dialect, and the piggyback's
#: UPDATE matches zero rows), so attack-mixed runs stay comparable to
#: clean ones on everything but detection counters.
ATTACK_PAYLOADS = (
    ("tautology", "xx' OR 'x'='x"),
    ("union", "xx' UNION SELECT password FROM users --"),
    ("piggyback", "zz'; UPDATE i18n SET value = value WHERE lang = 'zz-none'; --"),
)


@dataclass
class LoadStats:
    """Outcome of one load run (merged across threads)."""

    served: int = 0  # 2xx except 202
    queued: int = 0  # 202 with a ticket
    rejected: int = 0  # 503
    errors: int = 0  # anything else
    #: Fine-grained error classes, keyed by what the 503/500 actually
    #: means operationally: ``503-degraded`` (read-only serving after a
    #: durability failure — reads still flow), ``503-suspended`` (serving
    #: gate), ``503-other``, ``500-server-error``.  Availability reporting needs
    #: this split: a degraded system that keeps serving reads is a very
    #: different outcome from one returning 500s.
    error_classes: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    #: ``perf_counter`` completion time of every request, for warmup-
    #: windowed sustained-throughput reporting (see :meth:`summary`).
    completions: List[float] = field(default_factory=list)
    by_status: Dict[int, int] = field(default_factory=dict)
    tickets: List[int] = field(default_factory=list)
    #: (marker, page) of every issued write, for exactly-once checks.
    writes: List[Tuple[str, str]] = field(default_factory=list)
    #: (marker, payload class) of every issued attack request.
    attacks: List[Tuple[str, str]] = field(default_factory=list)
    #: Per-request join of the attack markers against the server's
    #: ``X-Warp-Flagged`` stamp (see :meth:`detection_summary`).
    attack_true_positives: int = 0
    attack_false_negatives: int = 0
    benign_total: int = 0
    benign_flagged: int = 0

    @property
    def total(self) -> int:
        return self.served + self.queued + self.rejected + self.errors

    def served_fraction(self) -> float:
        return self.served / self.total if self.total else 0.0

    def percentile(self, fraction: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def summary(self, warmup: float = 0.0) -> Dict[str, float]:
        """Headline numbers for one run: sustained req/s measured over the
        post-warmup window (the first ``warmup`` seconds of completions are
        excluded, so cold caches / lazily started flusher threads don't
        flatter or penalize the figure) plus p50/p95/p99 latency over all
        requests.  Falls back to the full window when warmup would consume
        every completion."""
        result = {
            "total": float(self.total),
            "served": float(self.served),
            "p50_ms": self.percentile(0.50) * 1e3,
            "p95_ms": self.percentile(0.95) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "sustained_rps": 0.0,
        }
        if not self.completions:
            return result
        ordered = sorted(self.completions)
        cut = ordered[0] + warmup
        window = [t for t in ordered if t >= cut]
        if len(window) < 2:
            window = ordered
        if len(window) >= 2 and window[-1] > window[0]:
            result["sustained_rps"] = (len(window) - 1) / (window[-1] - window[0])
        return result

    @staticmethod
    def classify(response: HttpResponse) -> Optional[str]:
        """Error class of a failed response (``None`` for successes)."""
        if response.status == 503:
            if "X-Warp-Degraded" in response.headers:
                return "503-degraded"
            if "X-Warp-Suspended" in response.headers:
                return "503-suspended"
            return "503-other"
        if response.status >= 500:
            return "500-server-error"
        return None

    def note(self, response: HttpResponse, seconds: float) -> None:
        self.by_status[response.status] = self.by_status.get(response.status, 0) + 1
        self.latencies.append(seconds)
        self.completions.append(_time.perf_counter())
        error_class = self.classify(response)
        if error_class is not None:
            self.error_classes[error_class] = (
                self.error_classes.get(error_class, 0) + 1
            )
        if response.status == 202 and "X-Warp-Queued" in response.headers:
            self.queued += 1
            self.tickets.append(int(response.headers["X-Warp-Queued"]))
        elif 200 <= response.status < 300:
            self.served += 1
        elif response.status == 503:
            self.rejected += 1
        else:
            self.errors += 1

    def note_detection(self, is_attack: bool, flagged: bool) -> None:
        """Tally one request into the detection confusion counters."""
        if is_attack:
            if flagged:
                self.attack_true_positives += 1
            else:
                self.attack_false_negatives += 1
        else:
            self.benign_total += 1
            if flagged:
                self.benign_flagged += 1

    def detection_summary(self) -> Dict[str, float]:
        """Precision/recall of the front-line detector over this run —
        the join is per request (attack marker vs the server's
        ``X-Warp-Flagged`` response stamp), so a benign request flagged
        by coincidence is a real false positive, not noise."""
        attacks = self.attack_true_positives + self.attack_false_negatives
        flagged = self.attack_true_positives + self.benign_flagged
        return {
            "attacks": float(attacks),
            "benign": float(self.benign_total),
            "flagged": float(flagged),
            "recall": (
                self.attack_true_positives / attacks if attacks else 1.0
            ),
            "precision": (
                self.attack_true_positives / flagged if flagged else 1.0
            ),
            "false_positives": float(self.benign_flagged),
        }

    def availability(self) -> Dict[str, float]:
        """Served-fraction report with the rejection reasons broken out.

        ``served_fraction`` counts straight successes; ``degraded_fraction``
        is the share refused *softly* (read-only or suspended 503s that
        a retrying client would eventually land); ``failed_fraction`` is
        hard failures (500s and unclassified errors)."""
        total = self.total
        if not total:
            return {
                "total": 0.0,
                "served_fraction": 0.0,
                "degraded_fraction": 0.0,
                "failed_fraction": 0.0,
            }
        soft = sum(
            count
            for error_class, count in self.error_classes.items()
            if error_class.startswith("503-")
        )
        # ``errors`` already counts every non-2xx/non-503 response
        # (including 500s), so it *is* the hard-failure tally.
        return {
            "total": float(total),
            "served_fraction": (self.served + self.queued) / total,
            "degraded_fraction": soft / total,
            "failed_fraction": self.errors / total,
        }

    def merge(self, other: "LoadStats") -> None:
        self.served += other.served
        self.queued += other.queued
        self.rejected += other.rejected
        self.errors += other.errors
        self.latencies.extend(other.latencies)
        self.completions.extend(other.completions)
        self.tickets.extend(other.tickets)
        self.writes.extend(other.writes)
        self.attacks.extend(other.attacks)
        self.attack_true_positives += other.attack_true_positives
        self.attack_false_negatives += other.attack_false_negatives
        self.benign_total += other.benign_total
        self.benign_flagged += other.benign_flagged
        for status, count in other.by_status.items():
            self.by_status[status] = self.by_status.get(status, 0) + count
        for error_class, count in other.error_classes.items():
            self.error_classes[error_class] = (
                self.error_classes.get(error_class, 0) + count
            )


class LoadClient:
    """One simulated user: client id, cookie jar, login bootstrap."""

    def __init__(
        self,
        name: str,
        server,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.client_id = f"{name}-load"
        self.server = server
        self.cookies: Dict[str, str] = {}
        #: Stamped onto every request — e.g. ``X-Warp-Tenant`` so a shard
        #: coordinator (repro.shard) routes this client's whole stream to
        #: one worker.
        self.extra_headers: Dict[str, str] = dict(extra_headers or {})

    def request(
        self,
        method: str,
        path: str,
        params: Optional[Dict[str, str]] = None,
    ) -> HttpRequest:
        headers = dict(self.extra_headers)
        headers["X-Warp-Client"] = self.client_id
        return HttpRequest(
            method=method,
            path=path,
            params=dict(params or {}),
            cookies=dict(self.cookies),
            headers=headers,
        )

    def clone(self, server) -> "LoadClient":
        """The same logical client (identity, cookie jar snapshot,
        headers) driven through a different server facade — how threaded
        drivers give each thread its own wire connection to a shard
        worker without re-logging-in."""
        twin = LoadClient(self.name, server, extra_headers=self.extra_headers)
        twin.cookies = dict(self.cookies)
        return twin

    def send(self, request: HttpRequest) -> HttpResponse:
        response = self.server.handle(request)
        for name, value in response.set_cookies.items():
            if value is None:
                self.cookies.pop(name, None)
            else:
                self.cookies[name] = value
        return response

    def login(self, password: str) -> HttpResponse:
        return self.send(
            self.request(
                "POST",
                "/login.php",
                {"wpName": self.name, "wpPassword": password},
            )
        )


class LoadGen:
    """Generates a deterministic request stream over a set of pages.

    ``mix`` weights the operation types (``view_form`` — GET the edit
    form, ``append`` — POST an append, ``index`` — a page view whose
    sitestats ``COUNT(*)`` reads ALL partitions and therefore always
    conflicts with any page repair: include it to measure conservative
    gating).  ``pages`` is the partition universe the stream touches.

    ``attack_rate`` mixes attacker traffic into the stream: each request
    is, with that probability, one of :data:`ATTACK_PAYLOADS` through
    the §8.5 injection sink instead of a benign operation.  Attack
    requests carry an ``X-Load-Attack`` marker header, and every
    response's ``X-Warp-Flagged`` stamp is joined against it — the
    per-request ground truth behind :meth:`LoadStats.detection_summary`.
    """

    def __init__(
        self,
        clients: Sequence[LoadClient],
        pages: Sequence[str],
        mix: Optional[Dict[str, int]] = None,
        seed: int = 0,
        pin_clients: bool = True,
        attack_rate: float = 0.0,
    ) -> None:
        if not clients or not pages:
            raise ValueError("loadgen needs at least one client and one page")
        self.clients = list(clients)
        self.pages = list(pages)
        self.mix = dict(mix or DEFAULT_MIX)
        self.seed = seed
        if not 0.0 <= attack_rate <= 1.0:
            raise ValueError("attack_rate must be within [0, 1]")
        self.attack_rate = attack_rate
        self._ops = [op for op, weight in sorted(self.mix.items()) for _ in range(weight)]
        if not self._ops:
            raise ValueError("empty operation mix")
        #: pin_clients: each client works a fixed round-robin slice of the
        #: pages (users edit their own stuff).  Unpinned, every client
        #: eventually edits every page, which entangles all partitions
        #: through the shared ``editor`` column — realistic for a free-for-
        #: all wiki, but it makes *any* repair's taint reach most pages.
        self._pages_of: Dict[str, List[str]] = {}
        for index, client in enumerate(self.clients):
            if pin_clients:
                slice_ = self.pages[index % len(self.pages) :: len(self.clients)] or [
                    self.pages[index % len(self.pages)]
                ]
            else:
                slice_ = self.pages
            self._pages_of[client.client_id] = slice_
        self._counter = 0
        self._lock = threading.Lock()

    def _next_marker(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def build_request(
        self,
        rng: random.Random,
        stats: LoadStats,
        clients: Optional[Sequence[LoadClient]] = None,
    ) -> Tuple[LoadClient, HttpRequest]:
        client = rng.choice(clients if clients is not None else self.clients)
        if self.attack_rate and rng.random() < self.attack_rate:
            payload_class, payload = rng.choice(ATTACK_PAYLOADS)
            marker = f"atk{self._next_marker()}"
            stats.attacks.append((marker, payload_class))
            request = client.request(
                "GET", "/special_maintenance.php", {"thelang": payload}
            )
            request.headers["X-Load-Attack"] = f"{marker}:{payload_class}"
            return client, request
        page = rng.choice(self._pages_of[client.client_id])
        op = rng.choice(self._ops)
        if op == "append":
            marker = f"mk{self._next_marker()}."
            stats.writes.append((marker, page))
            return client, client.request(
                "POST", "/edit.php", {"title": page, "append": f"\n{marker}"}
            )
        if op == "index":
            return client, client.request("GET", "/index.php", {"title": page})
        return client, client.request("GET", "/edit.php", {"title": page})

    def issue(
        self,
        rng: random.Random,
        stats: LoadStats,
        clients: Optional[Sequence[LoadClient]] = None,
    ) -> HttpResponse:
        """Issue one request inline (cooperative harness building block)."""
        client, request = self.build_request(rng, stats, clients)
        is_attack = "X-Load-Attack" in request.headers
        started = _time.perf_counter()
        response = client.send(request)
        stats.note(response, _time.perf_counter() - started)
        stats.note_detection(
            is_attack, response.headers.get("X-Warp-Flagged") == "1"
        )
        return response

    # -- threaded mode -----------------------------------------------------

    def run_threads(
        self,
        n_threads: int,
        duration: Optional[float] = None,
        requests_per_thread: Optional[int] = None,
        stop: Optional[threading.Event] = None,
        server_factory: Optional[Callable[[int], object]] = None,
    ) -> LoadStats:
        """Hammer the server from ``n_threads`` real threads.

        Stops when ``duration`` elapses, each thread has issued its
        budget, or ``stop`` is set — whichever comes first.  Returns the
        merged stats; per-thread RNGs are seeded from ``seed`` so the
        request *content* is deterministic even though the interleaving
        is not.

        ``server_factory(index)`` gives thread ``index`` its own server
        facade; the thread drives :meth:`LoadClient.clone`\\ s bound to
        it.  That is how a multi-process driver avoids serializing every
        thread on one shared wire connection (each thread gets its own
        socket to the shard workers, which is where the scaling in
        ``bench_shard_scale`` comes from).
        """
        if duration is None and requests_per_thread is None and stop is None:
            raise ValueError("need a duration, a request budget, or a stop event")
        deadline = None if duration is None else _time.perf_counter() + duration
        buckets = [LoadStats() for _ in range(n_threads)]
        errors: List[BaseException] = []

        def worker(index: int) -> None:
            rng = random.Random((self.seed << 8) | index)
            stats = buckets[index]
            # Each thread owns a disjoint client slice: one client (and so
            # one cookie jar / page slice) is never driven concurrently,
            # so two in-flight appends can't race the same page's
            # read-modify-write and lose an update.  With more threads
            # than clients the surplus threads have nothing disjoint to
            # drive and exit idle.
            mine = self.clients[index::n_threads]
            if not mine:
                return
            if server_factory is not None:
                server = server_factory(index)
                mine = [client.clone(server) for client in mine]
            issued = 0
            try:
                while True:
                    if stop is not None and stop.is_set():
                        return
                    if deadline is not None and _time.perf_counter() >= deadline:
                        return
                    if requests_per_thread is not None and issued >= requests_per_thread:
                        return
                    self.issue(rng, stats, mine)
                    issued += 1
            except BaseException as exc:  # surfaced to the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,), daemon=True)
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        merged = LoadStats()
        for bucket in buckets:
            merged.merge(bucket)
        return merged


def make_load_clients(
    wiki, server, names: Sequence[str], password_prefix: str = "pw-"
) -> List[LoadClient]:
    """Seed and log in one load client per name (the logins are recorded
    runs, so they happen *before* any repair that should stay disjoint)."""
    clients = []
    for name in names:
        wiki.seed_user(name, f"{password_prefix}{name}")
        client = LoadClient(name, server)
        response = client.login(f"{password_prefix}{name}")
        if response.status != 200:
            raise RuntimeError(f"load client {name} failed to log in: {response.status}")
        clients.append(client)
    return clients
