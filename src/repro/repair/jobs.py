"""Repair Job API v2: async job handles and the job manager.

Where :mod:`repro.repair.api` *describes* a repair, this module *runs*
one as a managed, observable job — the shape Ancora gives recovery
(a supervised job, not a function call) and the missing half of the PR 4
story: with repair on a worker thread, the submitting thread keeps
serving traffic through the online gate instead of blocking inside the
repair entry point.

* :meth:`RepairJobManager.submit` validates a spec, enqueues a
  :class:`RepairJob`, and executes jobs **one at a time, in submission
  order** on per-job worker threads (the controller and time-travel
  database support one active repair generation).
* :class:`RepairJob` exposes ``status``, ``progress()`` (phase, groups
  done, re-execution counters — fed live from ``RepairStats`` via the
  controller's progress listeners), ``result()`` (blocking join that
  re-raises the job's failure), ``cancel()`` (cooperative: the
  controller aborts through the existing abort path at the next worklist
  item), and a subscribable event stream (``phase_started``,
  ``groups_planned``, ``group_done``, ``conflict_found``, ``finalized``,
  ``aborted``).
* :meth:`RepairJobManager.preview` is the read-only dry run
  (:func:`repro.repair.api.compute_plan`).
* Job execution is journaled through the record store (``job_start`` /
  ``job_end``), so a deployment reloaded after a crash reports the job
  that was interrupted mid-repair
  (:meth:`RepairJobManager.interrupted_jobs`).

The manager also hosts the **patch catalog**: script exports are Python
callables and cannot ride in JSON, so an operator registers named
patches in-process (``register_patch``) and references them from
:class:`~repro.repair.api.PatchSpec.patch_name`` — which is how a patch
repair is driven over the HTTP admin surface: the manager mounts the six
``/warp/admin/repair`` rows of API.md §4 on the server's route table
(:mod:`repro.http.routes`).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace as _dc_replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import DurabilityError, RepairCanceled, RepairError
from repro.faults.plane import InjectedFault, SimulatedCrash
from repro.http.message import HttpRequest
from repro.http.routes import NotFound
from repro.repair.api import (
    PatchSpec,
    RepairBatch,
    RepairPlan,
    RepairSpec,
    check_retained,
    compute_plan,
    spec_from_request,
)
from repro.repair.controller import RepairResult

__all__ = ["RepairJob", "RepairJobManager"]

#: Terminal job statuses.
TERMINAL_STATUSES = frozenset({"done", "aborted", "failed", "canceled"})

#: How many trailing events a status document carries.
_EVENT_TAIL = 50

#: Bounded retry for jobs hitting transient faults (DurabilityError /
#: OSError / injected errors); each retry re-runs the spec from scratch
#: after the abort path unwound.
_RETRIES = 2


class RepairJob:
    """Handle for one submitted repair.

    Status lifecycle::

        queued -> running -> done      (finalized; result().ok)
                          -> aborted   (non-admin undo hit conflicts)
                          -> failed    (a script raised; repair unwound)
                          -> canceled  (cancel(); abort path)
        queued -> canceled             (canceled before it started)
    """

    def __init__(self, job_id: str, spec: RepairSpec, submitted_ts: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.submitted_ts = submitted_ts
        self.events: List[Tuple[str, dict]] = []
        self._status = "queued"
        self._phase: Optional[str] = None
        self._groups_done = 0
        self._n_groups: Optional[int] = None
        self._result: Optional[RepairResult] = None
        self._error: Optional[BaseException] = None
        self._stats = None
        self._controller = None
        self._cancel_requested = False
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._subscribers: List[Callable[[str, dict], None]] = []

    # -- observation -------------------------------------------------------

    @property
    def status(self) -> str:
        return self._status

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal status."""
        return self._finished.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> RepairResult:
        """Blocking join: the repair's :class:`RepairResult`, or re-raise
        whatever ended the job (script failure, code-version mismatch,
        :class:`RepairCanceled`)."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"repair job {self.job_id} still {self._status}")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def progress(self) -> dict:
        """Live progress snapshot (safe to call from any thread)."""
        out = {
            "job_id": self.job_id,
            "status": self._status,
            "phase": self._phase,
            "n_groups": self._n_groups,
            "groups_done": self._groups_done,
        }
        stats = self._stats
        if stats is not None:
            out.update(
                visits_reexecuted=stats.visits_reexecuted,
                runs_reexecuted=stats.runs_reexecuted,
                runs_pruned=stats.runs_pruned,
                runs_canceled=stats.runs_canceled,
                queries_reexecuted=stats.queries_reexecuted,
                conflicts=stats.conflicts,
            )
        return out

    def subscribe(self, listener: Callable[[str, dict], None]) -> None:
        """Receive every subsequent ``(event, payload)``; events already
        emitted are in :attr:`events`.  Listeners run on the job's worker
        thread and must not block."""
        with self._lock:
            self._subscribers.append(listener)

    def to_dict(self) -> dict:
        """JSON status document (the admin API's GET /repair/<id>)."""
        out = {
            "job_id": self.job_id,
            "spec": self.spec.describe(),
            "status": self._status,
            "submitted_ts": self.submitted_ts,
            "progress": self.progress(),
            "events": [
                {"event": event, **payload}
                for event, payload in self.events[-_EVENT_TAIL:]
            ],
        }
        if self._error is not None:
            out["error"] = repr(self._error)
        if self._result is not None:
            out["result"] = self._result.to_dict()
        return out

    # -- control -----------------------------------------------------------

    def cancel(self) -> bool:
        """Request cancellation.  A queued job is canceled immediately; a
        running one aborts cooperatively at its next worklist item (the
        repair generation is discarded, live state untouched).  Returns
        False when the job already finished.  Best-effort: a job past its
        worklist (mid-finalize) completes normally."""
        with self._lock:
            if self._finished.is_set():
                return False
            self._cancel_requested = True
            controller = self._controller
            if controller is not None:
                controller.cancel_requested = True
            elif self._status == "queued":
                # Not started yet: the manager's worker will observe the
                # flag and skip execution; settle the job here so result()
                # unblocks immediately.
                self._settle_locked(
                    "canceled", error=RepairCanceled("job canceled while queued")
                )
            return True

    # -- internal (manager side) ------------------------------------------

    def _on_event(self, event: str, payload: dict) -> None:
        with self._lock:
            self.events.append((event, dict(payload)))
            if event == "phase_started":
                self._phase = payload.get("phase")
            elif event == "groups_planned":
                self._n_groups = payload.get("n_groups")
            elif event == "group_done":
                self._groups_done += 1
            elif event == "retrying":
                # The next attempt runs on a fresh controller and reports
                # its phases and groups from the start.
                self._phase = None
                self._n_groups = None
                self._groups_done = 0
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(event, dict(payload))
            except Exception:
                # Observers must never sink a repair; swallowing here is
                # safe by the fault-plane contract: coordinator
                # cancellation travels as RepairCanceled through the
                # *controller* (never a subscriber), and SimulatedCrash is
                # a BaseException this clause cannot catch.
                pass

    def _settle_locked(self, status: str, result=None, error=None) -> None:
        self._status = status
        self._result = result
        self._error = error
        self._finished.set()

    def _settle(self, status: str, result=None, error=None) -> None:
        with self._lock:
            if not self._finished.is_set():
                self._settle_locked(status, result=result, error=error)


class RepairJobManager:
    """``warp.repair``: submit, preview, observe, and cancel repair jobs.

    Jobs execute one at a time in submission order; each runs on its own
    daemon worker thread so the submitting thread (and the request
    threads the online gate keeps serving) never block inside the repair.
    """

    def __init__(self, warp) -> None:
        self._warp = warp
        self._jobs: Dict[str, RepairJob] = {}
        self._order: List[str] = []
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._turnstile = threading.Condition(self._lock)
        self._executing: Optional[str] = None
        self._executing_thread: Optional[threading.Thread] = None
        self._patch_catalog: Dict[str, Tuple[str, Dict]] = {}
        table = warp.server.admin
        table.add("POST", "/repair", self._submit_route)
        table.add("GET", "/repair", self._list_route)
        table.add("POST", "/repair/preview", self._preview_route)
        table.add("GET", "/repair/<job_id>", self._job_route)
        table.add("GET", "/repair/<job_id>/preview", self._job_preview_route)
        # An operator needs cancel precisely when things are going wrong.
        table.add(
            "POST", "/repair/<job_id>/cancel", self._cancel_route, degraded_ok=True
        )

    # -- patch catalog -----------------------------------------------------

    def register_patch(self, name: str, file: str, exports: Dict) -> None:
        """Register a named patch so JSON specs (and HTTP admins) can
        reference it: ``PatchSpec(file, patch_name=name)``."""
        self._patch_catalog[name] = (file, exports)

    def patch_names(self) -> List[str]:
        return sorted(self._patch_catalog)

    def _resolve(self, spec: RepairSpec) -> RepairSpec:
        """Materialize catalog patches into in-process exports (copy,
        never mutate the caller's spec)."""
        if isinstance(spec, PatchSpec) and spec.patch_name is not None:
            entry = self._patch_catalog.get(spec.patch_name)
            if entry is None:
                known = ", ".join(self.patch_names()) or "<none>"
                raise RepairError(
                    f"unknown patch {spec.patch_name!r} (registered: {known})"
                )
            file, exports = entry
            if spec.file and spec.file != file:
                raise RepairError(
                    f"patch {spec.patch_name!r} targets {file!r}, "
                    f"spec says {spec.file!r}"
                )
            return _dc_replace(spec, file=file, exports=exports, patch_name=None)
        if isinstance(spec, RepairBatch):
            return RepairBatch(specs=[self._resolve(member) for member in spec.specs])
        return spec

    # -- submit / preview --------------------------------------------------

    def submit(self, spec: RepairSpec) -> RepairJob:
        """Validate ``spec`` and enqueue it; returns the observable job.

        The job executes asynchronously — ``submit(spec).result()`` is
        the blocking call.
        """
        spec.validate()
        # Fail fast with full resolution semantics (unknown patch_name,
        # file/catalog mismatch, dropped history); the result is discarded —
        # execution re-resolves against the catalog as of its own start time.
        check_retained(self._warp.graph, self._resolve(spec))
        if threading.current_thread() is self._executing_thread:
            # submit().result() called from repair context — a step hook,
            # event subscriber, or controller listener runs on this very
            # worker thread.  The FIFO queue can never reach the nested
            # job while its submitter blocks, so fail fast instead of
            # deadlocking.
            raise RepairError(
                "cannot submit a repair from inside a running repair job "
                "(a repair is already in progress)"
            )
        with self._lock:
            # A snapshot keeps only open jobs, but its header's ``ids``
            # keep this counter; a job the WAL replayed counts as well.
            ids = self._warp.ids
            ids.advance_to("job", self._warp.graph.repair_jobs.next_seq() - 1)
            job = RepairJob(
                f"job-{ids.next('job')}", spec, submitted_ts=self._warp.clock.now()
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._queue.append(job.job_id)
        worker = threading.Thread(
            target=self._drive, args=(job,), name=f"repair-{job.job_id}", daemon=True
        )
        worker.start()
        return job

    def preview(self, spec: RepairSpec) -> RepairPlan:
        """Dry-run impact estimate; mutates nothing (no generation, no
        patching, no statement execution).  The spec resolves as submit
        resolves it, so an unknown ``patch_name`` is a RepairError here
        too."""
        spec.validate()
        return compute_plan(self._warp.graph, self._warp.ttdb, self._resolve(spec))

    # -- observation -------------------------------------------------------

    def get(self, job_id: str) -> Optional[RepairJob]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[RepairJob]:
        """All jobs this manager has seen, in submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    def interrupted_jobs(self) -> List[dict]:
        """Jobs journaled as started but never ended — a deployment
        reloaded after a crash reports what was mid-repair (the repair
        generation itself died with the process; re-submit the spec)."""
        store = self._warp.graph
        # Snapshot under the store lock: the admin listing polls this
        # while job workers journal starts/ends concurrently.
        with store.lock:
            pending = store.repair_jobs.entries
            return [dict(pending[job_id]) for job_id in sorted(pending)]

    def acknowledge_interrupted(self, job_id: str) -> bool:
        """Clear one interrupted-job report (journals the end)."""
        jobs = self._warp.graph.repair_jobs
        if job_id not in jobs.entries:
            return False
        jobs.close(job_id, status="interrupted")
        return True

    # -- execution ---------------------------------------------------------

    def _drive(self, job: RepairJob) -> None:
        with self._turnstile:
            # FIFO: run only once every earlier submission settled.
            self._turnstile.wait_for(
                lambda: self._executing is None and self._queue[0] == job.job_id
            )
            self._queue.popleft()
            if job.finished:  # canceled while queued
                self._turnstile.notify_all()
                return
            self._executing = job.job_id
            self._executing_thread = threading.current_thread()
            job._status = "running"
        store = self._warp.graph
        started = False
        try:
            store.repair_jobs.put(
                job_id=job.job_id, spec=job.spec.describe(), ts=self._warp.clock.now()
            )
            started = True
            self._run_with_retry(job, store)
        except SimulatedCrash:
            # Injected process death.  Deliberately NO job-end journal
            # entry: a reloaded deployment must report a job whose start
            # reached the log as interrupted (paper §6.2 — the admin is
            # told what was mid-repair).  A crash while journaling the
            # start leaves nothing to report: the repair never began.
            # Settle so in-process waiters unblock.
            where = "mid-repair" if started else "before the repair started"
            job._settle("failed", error=RepairError(f"process crashed {where}"))
        except BaseException as exc:
            # Start-journaling failure (sick log) or anything else the
            # retry loop does not own: the waiter must still unblock.
            job._settle("failed", error=exc)
            self._log_job_end(store, job.job_id, "failed")
        finally:
            with self._turnstile:
                self._executing = None
                self._executing_thread = None
                self._turnstile.notify_all()

    def _run_with_retry(self, job: RepairJob, store) -> None:
        """Execute ``job``, retrying transient faults up to
        ``_RETRIES`` times.  Only attempts that unwound through the
        controller's abort path (generation discarded, scripts restored)
        are retried — a fault that escaped *after* the generation switch
        left the repair committed, so the job settles as done-with-warning
        instead (see ``RepairController.post_switch_failure``)."""
        attempts = 0
        while True:
            try:
                result = self._execute(job)
            except RepairCanceled as exc:
                # Cancellation must win over every other disposition —
                # including the post-switch check below: the controller only
                # honors a cancel *before* the switch, so a RepairCanceled
                # here always means the generation was discarded.
                job._settle("canceled", error=exc)
                self._log_job_end(store, job.job_id, "canceled")
                return
            except Exception as exc:
                # SimulatedCrash is a BaseException by contract and sails
                # past this handler to _drive's interrupted-job path.
                controller = job._controller
                if controller is not None and controller.post_switch_failure:
                    # The generation switch was already live when the fault
                    # fired (repair.finalized, gate-queue drain): the
                    # repaired state is committed and kept, so re-running
                    # the spec would apply the retroactive patches a second
                    # time against already-repaired state.  Settle as
                    # done-with-warning instead of retrying — for *any*
                    # escaping Exception, not just the injected/storage
                    # kinds: settling "failed" here would invite the admin
                    # to re-submit a repair that already committed.
                    job._on_event("post_commit_fault", {"error": repr(exc)})
                    result = RepairResult(
                        ok=True,
                        aborted=False,
                        stats=controller.stats,
                        conflicts=controller._repair_conflicts(),
                    )
                    job._settle("done", result=result)
                    self._log_job_end(store, job.job_id, "done")
                    return
                if not isinstance(exc, (DurabilityError, OSError, InjectedFault)):
                    # Not transient by construction (a script bug, a
                    # malformed spec surfacing late): the abort path
                    # unwound the generation; retrying would fail the
                    # same way.
                    job._settle("failed", error=exc)
                    self._log_job_end(store, job.job_id, "failed")
                    return
                # Transient storage-layer faults: the repair aborted and
                # unwound; retry unless the budget is spent or the admin
                # asked for cancellation in the meantime.
                attempts += 1
                if attempts <= _RETRIES and not job._cancel_requested:
                    job._on_event(
                        "retrying",
                        {"attempt": attempts, "limit": _RETRIES, "error": repr(exc)},
                    )
                    continue
                job._settle("failed", error=exc)
                self._log_job_end(store, job.job_id, "failed")
                return
            else:
                status = "aborted" if result.aborted else "done"
                job._settle(status, result=result)
                self._log_job_end(store, job.job_id, status)
                return

    @staticmethod
    def _log_job_end(store, job_id: str, status: str) -> None:
        """Journal the job end; a sick log must not turn a settled job
        outcome into an escaped exception.  The entry stays parked in the
        WAL and is flushed by ``heal()`` — and if the process dies first,
        the job is correctly reported as interrupted on reload."""
        try:
            store.repair_jobs.close(job_id, status=status)
        except (DurabilityError, OSError):
            pass

    def _execute(self, job: RepairJob) -> RepairResult:
        spec = self._resolve(job.spec)
        controller = self._warp._controller()
        controller.listeners.append(job._on_event)
        with job._lock:
            job._controller = controller
            job._stats = controller.stats
            if job._cancel_requested:
                controller.cancel_requested = True
        return controller.repair_batch([spec])

    # -- admin rows (API.md §4; spec JSON travels in the ``spec`` param) ------

    def _submit_route(self, request: HttpRequest):
        job = self.submit(spec_from_request(request))
        return 202, {"job_id": job.job_id, "status": job.status}

    def _list_route(self, request: HttpRequest):
        return 200, {
            "jobs": [
                {"job_id": job.job_id, "status": job.status} for job in self.jobs()
            ],
            "interrupted": self.interrupted_jobs(),
        }

    def _preview_route(self, request: HttpRequest):
        return 200, self.preview(spec_from_request(request)).to_dict()

    def _known_job(self, job_id: str) -> RepairJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"unknown repair job {job_id!r}")
        return job

    def _job_route(self, request: HttpRequest, job_id: str):
        return 200, self._known_job(job_id).to_dict()

    def _job_preview_route(self, request: HttpRequest, job_id: str):
        return 200, self.preview(self._known_job(job_id).spec).to_dict()

    def _cancel_route(self, request: HttpRequest, job_id: str):
        job = self._known_job(job_id)
        accepted = job.cancel()
        return 200, {"job_id": job.job_id, "canceled": accepted, "status": job.status}
