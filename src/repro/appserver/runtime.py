"""The application runtime: executes one script run per HTTP request.

The same runtime serves both normal execution and repair re-execution; the
difference is injected through the *query runner* (normal: stamp a fresh
timestamp in the current generation; repair: the controller matches the
query against the original run and re-executes it at its historical
timestamp in the repair generation) and the *nondet* source (live values
vs. the recorded log).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.ahg.records import AppRunRecord, NondetRecord, QueryRecord, query_payload
from repro.appserver.context import AppContext
from repro.appserver.nondet import NondetSource
from repro.appserver.scripts import ScriptStore
from repro.core.clock import LogicalClock
from repro.core.errors import ReproError, SqlError, StorageError
from repro.core.ids import IdAllocator
from repro.http.message import HttpRequest, HttpResponse
from repro.ttdb.timetravel import TimeTravelDB, TTResult


class NormalQueryRunner:
    """Query execution during normal operation: current time, current gen."""

    def __init__(self, ttdb: TimeTravelDB) -> None:
        self._ttdb = ttdb

    def run(self, sql: str, params: Tuple[object, ...], seq: int) -> TTResult:
        return self._ttdb.execute(sql, params)

    def run_script(self, sql: str) -> List[TTResult]:
        return self._ttdb.execute_script(sql)


class AppRuntime:
    """Executes entry scripts and records application runs."""

    def __init__(
        self,
        scripts: ScriptStore,
        ttdb: TimeTravelDB,
        clock: LogicalClock,
        ids: IdAllocator,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.scripts = scripts
        self.ttdb = ttdb
        self.clock = clock
        self.ids = ids
        self.rng = rng if rng is not None else random.Random(0xC0FFEE)
        self.nondet_source = NondetSource(clock, self.rng)
        self._default_runner = NormalQueryRunner(ttdb)
        #: The "No WARP" baseline turns dependency recording off entirely.
        self.recording = True

    def execute(
        self,
        script_name: str,
        request: HttpRequest,
        query_runner=None,
        nondet=None,
        ts_start: Optional[int] = None,
    ) -> Tuple[HttpResponse, AppRunRecord]:
        """Run ``script_name`` for ``request``; returns response + record."""
        runner = query_runner if query_runner is not None else self._default_runner
        nondet_src = nondet if nondet is not None else self.nondet_source
        if ts_start is None:
            ts_start = self.clock.tick()

        record = AppRunRecord(
            run_id=self.ids.next("run"),
            ts_start=ts_start,
            ts_end=ts_start,
            script=script_name,
            loaded_files={},
            request=request,
            response=HttpResponse(),
            client_id=request.client_id,
            visit_id=request.visit_id,
            request_id=request.request_id,
        )
        record.payloads = []
        nondet_calls: Dict[str, int] = {}

        recording = self.recording

        def query_fn(sql: str, params: Tuple[object, ...]) -> TTResult:
            result = runner.run(sql, params, seq=len(record.queries))
            if recording:
                self._record_query(record, result)
            return result

        def script_fn(sql: str) -> List[TTResult]:
            results = runner.run_script(sql)
            if recording:
                for result in results:
                    self._record_query(record, result)
            return results

        def load_fn(name: str):
            script = self.scripts.get(name)
            record.loaded_files[name] = script.current_version
            return script.current()

        def nondet_fn(func: str):
            value = nondet_src.call(func)
            if recording:
                seq = nondet_calls[func] = nondet_calls.get(func, -1) + 1
                record.nondet.append(NondetRecord(func=func, seq=seq, value=value))
            return value

        ctx = AppContext(
            request=request,
            query_fn=query_fn,
            script_fn=script_fn,
            load_fn=load_fn,
            nondet_fn=nondet_fn,
        )

        if not self.scripts.has(script_name):
            ctx.not_found(f"no such script {script_name}")
        else:
            try:
                handler = load_fn(script_name)["handle"]
                handler(ctx)
            except (SqlError, StorageError, ReproError) as exc:
                ctx.status = 500
                ctx.echo(f"<html><body>server error: {exc}</body></html>")

        response = ctx.build_response()
        record.response = response
        last_query_ts = max((q.ts for q in record.queries), default=ts_start)
        record.ts_end = max(ts_start, last_query_ts)
        return response, record

    def _record_query(self, record: AppRunRecord, result: TTResult) -> None:
        """Append ``result``'s query to ``record``.  A statement-cache hit is
        recorded by reference: its identity and timestamp, then the entry's
        payload — built here by whichever run records the entry first."""
        qid, seq, payload = self.ids.next("query"), len(record.queries), result.payload
        if payload is not None and payload.fields is not None:
            query = QueryRecord(qid, record.run_id, seq, result.ts, *payload.fields)
        else:
            outcome = result.result
            table, written = outcome.table, outcome.affected_row_ids + outcome.inserted_row_ids
            query = QueryRecord(
                qid=qid,
                run_id=record.run_id,
                seq=seq,
                ts=result.ts,
                sql=result.sql,
                params=result.params,
                kind=outcome.kind,
                table=table,
                read_set=result.read_set,
                written_row_ids=tuple([(table, row_id) for row_id in written]),
                written_partitions=outcome.written_partitions,
                full_table_write=result.full_table_write,
                snapshot=outcome.snapshot(),
                read_row_ids=outcome.read_row_ids,
            )
            if payload is not None:
                payload.fields = query_payload(query)
        record.queries.append(query)
        record.payloads.append(payload)
