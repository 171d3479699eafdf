"""Partition-scoped write gating for online repair (paper §4.3).

The paper's headline is that repair runs *while the site keeps serving
users*.  The gate makes that concrete: while a repair is active, every
incoming request is classified against the partitions, tables and clients
the repair owns —

* **disjoint** requests are served normally from the live generation (the
  overwhelming majority when the attack's footprint is small);
* **conflicting** requests are queued with a ticket (HTTP 202) and
  re-applied in arrival order right after the generation switch, so they
  execute exactly once against the repaired state instead of being 503'd
  or served a timeline that is about to be rewritten.

Classification needs the request's *footprint* before executing it.  The
:class:`FootprintIndex` learns one footprint template per entry script
from the recorded runs in the action history graph:

* each recorded SQL statement's **symbolic** read set is read off its
  prepared statement (``TimeTravelDB.prepare(sql).read_plan``, the
  template normal execution instantiates), so literal constraints stay
  precise and parameter slots become template holes;
* each hole is tied to a *source* observed in the recorded executions —
  a request parameter, a cookie, a prefix/suffix around a parameter
  (``'page:' + title``), or a one-hop **lookup** through a recorded
  point read (the session table maps the ``sess`` cookie to the user
  name, which is how ``editor = <session user>`` keys resolve);
* written partition columns whose value is not request-derivable fall
  back to a **probe**: when the write's own WHERE clause is fully
  resolvable, the gate peeks the current row to obtain the remaining
  partition keys (the previous ``editor`` of the page being edited);
* anything still unresolved is **dynamic** and gated conservatively at
  ``(table, column)`` granularity; whole-table reads (``COUNT(*)``)
  conflict whenever the repair owns any key of the table.

A mispredicted footprint can only cause a conflicting request to be
*served*; the §4.3 finalize pass (``pending_during_repair`` +
``_inputs_changed``) still re-applies it to the repair generation, so
gating precision affects latency, never correctness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.faults.plane import active as _active_plane
from repro.http.message import HttpRequest, HttpResponse
from repro.ttdb.partitions import ParamToken

PartitionKey = Tuple[str, str, object]

#: Template sources for a constraint/key value.
#: ("const", v) | ("param", name) | ("cookie", name)
#: | ("affix", prefix, inner_source, suffix)
#: | ("lookup", sql, inner_source, column)
Source = Tuple

#: Sentinel for "this constraint's value cannot be derived from the
#: request" (conservatively treated as possibly-owned).
DYNAMIC = ("dynamic",)

_MAX_SAMPLES = 64


# ---------------------------------------------------------------------------
# footprint learning
# ---------------------------------------------------------------------------


class _RequestEnv:
    """Maps recorded values back to request-derivable sources for one run."""

    def __init__(self, run) -> None:
        request = run.request
        self._exact: Dict[object, Source] = {}
        # Cookies first, params second: a value present in both is more
        # robustly sourced from the explicit parameter.
        for name in sorted(request.cookies):
            self._exact.setdefault(request.cookies[name], ("cookie", name))
        for name in sorted(request.params):
            self._exact[request.params[name]] = ("param", name)
        self._params = request.params
        # One-hop derived values: a recorded single-parameter point read
        # whose parameter is request-derivable explains every column of its
        # result row (e.g. sessions: sess cookie -> user name).
        for query in run.queries:
            if query.kind != "select" or len(query.params) != 1:
                continue
            inner = self._exact.get(query.params[0])
            if inner is None:
                continue
            snapshot = query.snapshot
            if not (isinstance(snapshot, tuple) and len(snapshot) == 3 and snapshot[2]):
                continue
            first_row = snapshot[2][0]
            for column, value in first_row:
                self._exact.setdefault(
                    value, ("lookup", query.sql, inner, column)
                )

    def source_for(self, value) -> Optional[Source]:
        source = self._exact.get(value)
        if source is not None:
            return source
        if isinstance(value, str):
            # Derived string around a request parameter ('page:' + title).
            for name in sorted(self._params):
                part = self._params[name]
                if part and isinstance(part, str) and part in value:
                    prefix, _, suffix = value.partition(part)
                    return ("affix", prefix, ("param", name), suffix)
        return None


@dataclass
class _SqlReadTemplate:
    """Symbolic read set of one recorded statement shape."""

    table: str
    #: None -> reads ALL partitions of ``table``.
    disjuncts: Optional[Tuple[Tuple[Tuple[str, Source], ...], ...]]


@dataclass
class _WriteColumn:
    """How one written partition column of one table resolves."""

    sources: Set[Source] = field(default_factory=set)
    #: WHERE-clause probes that recover row-valued keys (old column values).
    probes: Set[Tuple] = field(default_factory=set)
    dynamic: bool = False


@dataclass
class ScriptFootprint:
    """Learned footprint template for one entry script."""

    script: str
    samples: int = 0
    #: Tables some statement reads whole (ALL partitions) or writes whole.
    tables_all: Set[str] = field(default_factory=set)
    #: Read constraints, one tuple of (column, source) conjunctions each.
    read_disjuncts: Set[Tuple[str, Tuple[Tuple[str, Source], ...]]] = field(
        default_factory=set
    )
    #: (table, column) -> how written keys on that column resolve.
    write_columns: Dict[Tuple[str, str], _WriteColumn] = field(default_factory=dict)


class FootprintIndex:
    """Builds and caches one :class:`ScriptFootprint` per entry script."""

    def __init__(self, graph, ttdb) -> None:
        self._graph = graph
        self._ttdb = ttdb
        self._templates: Dict[str, Optional[ScriptFootprint]] = {}

    def template_for(self, script: str) -> Optional[ScriptFootprint]:
        if script not in self._templates:
            self._templates[script] = self._build(script)
        return self._templates[script]

    # -- learning ---------------------------------------------------------

    def _build(self, script: str) -> Optional[ScriptFootprint]:
        runs = self._graph.runs_loading_file(script, 0)
        if not runs:
            return None
        template = ScriptFootprint(script=script)
        for run in runs[-_MAX_SAMPLES:]:
            self._learn_run(template, run)
            template.samples += 1
        return template

    def _symbolic_reads(self, query) -> Optional[List[Tuple[str, object]]]:
        """Token-level disjuncts for one SQL shape, from the statement's
        own read-set template: a list of conjunctions of (column,
        literal-or-ParamToken), or ``None`` when the analysis gives up
        (ALL partitions, value-dependent, or the statement cannot be
        prepared)."""
        try:
            disjuncts = self._ttdb.prepare(query.sql).read_plan.disjuncts
        except Exception:
            return None
        if disjuncts is None:
            return None
        return [tuple(sorted(d, key=repr)) for d in disjuncts]

    def _learn_run(self, template: ScriptFootprint, run) -> None:
        env = _RequestEnv(run)
        for query in run.queries:
            table = query.table
            if query.full_table_write:
                template.tables_all.add(table)
            self._learn_reads(template, query, env)
            if query.is_write:
                self._learn_writes(template, query, env)

    def _learn_reads(self, template: ScriptFootprint, query, env: _RequestEnv) -> None:
        table = query.table
        if query.read_set.is_all:
            template.tables_all.add(table)
            return
        if not query.read_set.disjuncts:
            return
        symbolic = self._symbolic_reads(query)
        if symbolic is None:
            template.tables_all.add(table)
            return
        for disjunct in symbolic:
            constraints = []
            for column, value in disjunct:
                if isinstance(value, ParamToken):
                    source = env.source_for(query.params[value.index])
                    constraints.append((column, source if source else DYNAMIC))
                else:
                    constraints.append((column, ("const", value)))
            template.read_disjuncts.add((table, tuple(sorted(constraints))))

    def _learn_writes(self, template: ScriptFootprint, query, env: _RequestEnv) -> None:
        table = query.table
        probe = self._write_probe(template, query, env)
        for key in query.written_partitions:
            _, column, value = key
            slot = template.write_columns.setdefault((table, column), _WriteColumn())
            source = env.source_for(value)
            if source is not None:
                slot.sources.add(source)
            elif probe is not None:
                slot.probes.add(probe)
            else:
                slot.dynamic = True

    def _write_probe(self, template, query, env: _RequestEnv) -> Optional[Tuple]:
        """A fully-resolvable WHERE clause lets the gate read the target
        row's remaining partition keys at admission time instead of going
        conservative (the previous ``editor`` of the edited page)."""
        if query.kind not in ("update", "delete"):
            return None
        symbolic = self._symbolic_reads(query)
        if symbolic is None or len(symbolic) != 1 or not symbolic[0]:
            return None
        constraints = []
        for column, value in symbolic[0]:
            if isinstance(value, ParamToken):
                source = env.source_for(query.params[value.index])
                if source is None:
                    return None
                constraints.append((column, source))
            else:
                constraints.append((column, ("const", value)))
        return (query.table, tuple(sorted(constraints)))

    # -- prediction -------------------------------------------------------

    def predict(
        self, script: str, request: HttpRequest
    ) -> Optional["PredictedFootprint"]:
        """Instantiate the script's template against one request; ``None``
        when no footprint is known (no recorded runs of the script)."""
        template = self.template_for(script)
        if template is None:
            return None
        resolver = _Resolver(self._ttdb, request)
        predicted = PredictedFootprint(tables_all=set(template.tables_all))
        for table, constraints in template.read_disjuncts:
            resolved = tuple(
                (column, resolver.resolve(source)) for column, source in constraints
            )
            predicted.read_disjuncts.append((table, resolved))
        for (table, column), slot in template.write_columns.items():
            if slot.dynamic:
                predicted.dynamic_columns.add((table, column))
            for source in slot.sources:
                value = resolver.resolve(source)
                if value is _UNRESOLVED:
                    predicted.dynamic_columns.add((table, column))
                else:
                    predicted.write_keys.add((table, column, value))
            for probe_table, probe_constraints in slot.probes:
                values = resolver.probe(probe_table, column, probe_constraints)
                if values is None:
                    predicted.dynamic_columns.add((table, column))
                else:
                    predicted.write_keys.update(
                        (table, column, value) for value in values
                    )
        return predicted


_UNRESOLVED = object()


class _Resolver:
    """Resolves template sources against one concrete request."""

    def __init__(self, ttdb, request: HttpRequest) -> None:
        self._ttdb = ttdb
        self._request = request
        self._lookup_cache: Dict[Tuple[str, object], Optional[tuple]] = {}

    def resolve(self, source: Source):
        if source is DYNAMIC or source == DYNAMIC:
            return _UNRESOLVED
        kind = source[0]
        if kind == "const":
            return source[1]
        if kind == "param":
            return self._request.params.get(source[1], _UNRESOLVED)
        if kind == "cookie":
            return self._request.cookies.get(source[1], _UNRESOLVED)
        if kind == "affix":
            _, prefix, inner, suffix = source
            value = self.resolve(inner)
            if value is _UNRESOLVED or not isinstance(value, str):
                return _UNRESOLVED
            return f"{prefix}{value}{suffix}"
        if kind == "lookup":
            _, sql, inner, column = source
            value = self.resolve(inner)
            if value is _UNRESOLVED:
                return _UNRESOLVED
            row = self._peek_one(sql, value)
            if row is None or column not in row:
                return _UNRESOLVED
            return row[column]
        return _UNRESOLVED

    def probe(self, table: str, column: str, constraints) -> Optional[List[object]]:
        """Current values of ``column`` for the rows a write's WHERE clause
        selects; ``None`` when a constraint cannot be resolved."""
        clauses, params = [], []
        for col, source in constraints:
            value = self.resolve(source)
            if value is _UNRESOLVED:
                return None
            clauses.append(f"{col} = ?")
            params.append(value)
        sql = f"SELECT {column} FROM {table} WHERE " + " AND ".join(clauses)
        try:
            result = self._ttdb.peek(sql, tuple(params))
        except Exception:
            return None
        if not result.ok or result.rows is None:
            return None
        return [row.get(column) for row in result.rows]

    def _peek_one(self, sql: str, param) -> Optional[dict]:
        key = (sql, param)
        if key not in self._lookup_cache:
            try:
                result = self._ttdb.peek(sql, (param,))
                rows = result.rows if result.ok else None
            except Exception:
                rows = None
            self._lookup_cache[key] = tuple(rows[0].items()) if rows else None
        cached = self._lookup_cache[key]
        return dict(cached) if cached is not None else None


@dataclass
class PredictedFootprint:
    """One request's instantiated footprint."""

    read_disjuncts: List[Tuple[str, Tuple[Tuple[str, object], ...]]] = field(
        default_factory=list
    )
    write_keys: Set[PartitionKey] = field(default_factory=set)
    dynamic_columns: Set[Tuple[str, str]] = field(default_factory=set)
    tables_all: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


@dataclass
class QueuedRequest:
    """One conflicting request parked until the generation switch."""

    ticket: int
    ts: int
    request: HttpRequest
    reason: str
    response: Optional[HttpResponse] = None
    applied: bool = False


@dataclass
class GateStats:
    served: int = 0
    queued: int = 0
    applied: int = 0
    apply_errors: int = 0


class RepairGate:
    """Decides, per request, whether live service can proceed during
    repair: a footprint-vs-owned-partitions check."""

    def __init__(self, ttdb, graph) -> None:
        self.ttdb = ttdb
        self.graph = graph
        #: Fault plane (repro.faults); WarpSystem points this at its own.
        self.faults = _active_plane()
        self.footprints = FootprintIndex(graph, ttdb)
        self.stats = GateStats()
        self.active = False
        #: Set once the repair's damage components are planned; before
        #: that, the gate *serves* everything (the repair has made no
        #: modification yet, so every request is trivially disjoint — the
        #: finalize re-application pass covers any request that touched
        #: what the repair later owns).
        self.scoped = False
        self.own_all = True
        self.owned_keys: Set[PartitionKey] = set()
        self.owned_tables: Set[str] = set()
        self.owned_columns: Set[Tuple[str, str]] = set()
        self.owned_clients: Set[str] = set()
        self.queue: List[QueuedRequest] = []
        self.results: Dict[int, QueuedRequest] = {}
        self._next_ticket = 0
        self._lock = threading.Lock()

    # -- lifecycle (repair thread) ----------------------------------------

    def begin(self) -> None:
        with self._lock:
            self.active = True
            self.scoped = False
            self.own_all = True
            self.owned_keys.clear()
            self.owned_tables.clear()
            self.owned_columns.clear()
            self.owned_clients.clear()
            self.queue = []
            # Per-repair accounting: a second repair on a long-lived
            # deployment must not report the first one's counters (or keep
            # its tickets resolvable forever).
            self.stats = GateStats()
            self.results = {}
            self._next_ticket = self.graph.store.next_gate_ticket()
            # Templates go stale across repairs (new runs were recorded).
            self.footprints = FootprintIndex(self.graph, self.ttdb)

    def set_scope(self, groups) -> None:
        """Install the repair's ownership from its planned groups.

        Ownership starts from the *seed damage footprint* — the partitions
        the entry point's canceled/re-executed runs wrote, plus a
        retroactive fix's own keys — and widens lazily as re-execution
        reports modifications (``note_modification``).  Deliberately NOT
        the whole component's ``covered_keys``: a component member whose
        state repair never actually touches (an entangled client's other
        pages, its session row) should keep being served; if repair does
        reach one of its partitions later, the finalize re-application
        pass still catches any request served in the window.

        An unscoped (global-worklist) group cannot be bounded — everything
        stays owned, which degrades to the conservative global suspend.
        """
        with self._lock:
            self.scoped = True
            scoped = [group for group in groups if group.scoped]
            if not scoped or len(scoped) != len(groups):
                self.own_all = True
                return
            self.own_all = False
            for group in scoped:
                for key in group.seed_keys:
                    self._own_key(key)
                for run_id in group.seed_runs:
                    run = self.graph.runs.get(run_id)
                    if run is None:
                        continue
                    for query in run.queries:
                        if not query.is_write:
                            continue
                        if query.full_table_write:
                            self.owned_tables.add(query.table)
                        for key in query.written_partitions:
                            self._own_key(key)

    def note_modification(self, table: str, keys, whole_table: bool = False) -> None:
        """Repair touched partitions outside the static scope (escapes,
        re-execution writing new keys): widen ownership so later requests
        gate against them."""
        if not self.active or self.own_all:
            return
        with self._lock:
            if whole_table:
                self.owned_tables.add(table)
            for key in keys:
                self._own_key(key)

    def note_client(self, client_id: str) -> None:
        if client_id is None:
            return
        with self._lock:
            self.owned_clients.add(client_id)

    def _own_key(self, key: PartitionKey) -> None:
        self.owned_keys.add(key)
        self.owned_columns.add((key[0], key[1]))

    def pop_next(self) -> Optional[QueuedRequest]:
        """Next queued request in arrival order, or ``None`` — in which
        case the gate has atomically deactivated.

        The drain loop keeps the gate *active* while it works: a fresh
        arrival that would race a queued request on the same partition
        queues behind it instead (FIFO per the ticket order), so the
        re-application of a client's parked writes can never interleave
        with that client's new writes and lose an update.  The gate turns
        off exactly when the queue is observed empty.
        """
        with self._lock:
            if not self.queue:
                self.active = False
                return None
        # Fired *before* popping: a non-crash injected failure leaves the
        # entry queued (and journaled), so retrying the drain loses nothing.
        self.faults.fire("gate.reapply")
        with self._lock:
            if not self.queue:
                self.active = False
                return None
            return self.queue.pop(0)

    # -- admission (request threads) --------------------------------------

    def admit(self, script_name: str, request: HttpRequest) -> Optional[QueuedRequest]:
        """``None`` — serve the request now; otherwise the queued ticket."""
        reason = self._conflict(script_name, request)
        if reason is None:
            with self._lock:
                if not self.active:
                    return None
                self.stats.served += 1
            return None
        with self._lock:
            if not self.active:
                # The repair finished while we were classifying: serve.
                return None
            ticket = self._next_ticket
            self._next_ticket += 1
            entry = QueuedRequest(
                ticket=ticket,
                ts=self.ttdb.clock.now(),
                request=request.copy(),
                reason=reason,
            )
            self.queue.append(entry)
            self.results[ticket] = entry
            self.stats.queued += 1
        # Journal outside the gate lock (the store has its own).
        self.graph.store.log_gate_queue(
            entry.ticket, entry.ts, entry.request.to_dict()
        )
        return entry

    def _conflict(self, script_name: str, request: HttpRequest) -> Optional[str]:
        with self._lock:
            if not self.scoped:
                # Damage components not planned yet: nothing has been
                # modified, so nothing can conflict.
                return None
            if self.own_all:
                return "repair owns the whole application"
            client_id = request.client_id
            if client_id is not None and client_id in self.owned_clients:
                return f"client {client_id!r} is under repair"
        # Prediction is the slow part (template instantiation, DB probes):
        # run it unlocked, then re-take the lock for the ownership checks —
        # the repair thread mutates the owned sets under the same lock, and
        # an unlocked set iteration could observe a resize mid-walk.
        # Ownership widening between the two critical sections is benign:
        # a request served against a stale view is caught by the finalize
        # re-application pass.
        predicted = self.footprints.predict(script_name, request)
        if predicted is None:
            return f"no recorded footprint for {script_name!r}"
        with self._lock:
            for table in predicted.tables_all:
                if self._touches_table(table):
                    return f"whole-table read of {table!r} under repair"
            for key in predicted.write_keys:
                if key in self.owned_keys or key[0] in self.owned_tables:
                    return f"write to repaired partition {key!r}"
            for table, column in predicted.dynamic_columns:
                if table in self.owned_tables or (table, column) in self.owned_columns:
                    return f"dynamic key on repaired column {table}.{column}"
            for table, constraints in predicted.read_disjuncts:
                if self._disjunct_owned(table, constraints):
                    return f"read of repaired partition of {table!r}"
        return None

    def _touches_table(self, table: str) -> bool:
        if table in self.owned_tables:
            return True
        return any(key[0] == table for key in self.owned_keys)

    def _disjunct_owned(self, table: str, constraints) -> bool:
        """Mirror of ``ModifiedPartitions.affects``: a conjunction can
        observe repaired data only if *every* constraint is owned; an
        unresolved constraint counts as possibly-owned."""
        if table in self.owned_tables:
            return True
        if not constraints:
            return self._touches_table(table)
        saw_resolved = False
        for column, value in constraints:
            if value is _UNRESOLVED:
                if (table, column) not in self.owned_columns:
                    return False
                continue
            saw_resolved = True
            if (table, column, value) not in self.owned_keys:
                return False
        if not saw_resolved:
            # Entirely dynamic conjunction: owned if the repair touches the
            # table at all.
            return self._touches_table(table)
        return True

    # -- results -----------------------------------------------------------

    def record_applied(self, entry: QueuedRequest, response: HttpResponse) -> None:
        entry.response = response
        entry.applied = True
        with self._lock:
            self.stats.applied += 1
        self.graph.store.log_gate_apply(entry.ticket)

    def record_failed(self, entry: QueuedRequest, reason: str) -> None:
        """The queued script raised during re-application: the ticket is
        consumed (a retry could duplicate partial effects) and the failure
        is surfaced on the stored response."""
        entry.response = HttpResponse(status=500, body=reason)
        entry.applied = True
        with self._lock:
            self.stats.applied += 1
            self.stats.apply_errors += 1
        self.graph.store.log_gate_apply(entry.ticket)

    def response_for(self, ticket: int) -> Optional[HttpResponse]:
        entry = self.results.get(ticket)
        return entry.response if entry else None


def queued_response(entry: QueuedRequest) -> HttpResponse:
    """The 202 a queued request's client receives immediately."""
    return HttpResponse(
        status=202,
        body="request queued: the partitions it touches are under repair",
        headers={
            "X-Warp-Queued": str(entry.ticket),
            "Retry-After": "1",
        },
    )
