"""One lifecycle step of one workload, in its own process (a fresh heap).

    python lifecycle.py record  --workload W --seed S --dir D --spawned T
    python lifecycle.py recover --workload W --seed S --dir D --spawned T

``record`` sets a deployment up, serves a fixed seeded request stream with
an attack planted in it, and saves a snapshot.  ``recover`` reloads that
snapshot, re-registers code, submits the repair and verifies the outcome.
Each prints one JSON object as its last line of standard output; run.py
pairs and aggregates them.

Every request stream is a *balanced* schedule — each page gets the same
number of requests in the 5 GET : 3 POST mix, and the seed only shuffles
the order and picks the attacked pages — so the amount of work, and with it
every count, does not depend on the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import calibration
import shard_app
import tracing
from workloads import MIX, WORKLOADS, scaled

ATTACK_TEXT = "DEFACED"
ATTACKER = "mallory"


# ---------------------------------------------------------------------------
# step plumbing: timing, tracing, result
# ---------------------------------------------------------------------------


class Step:
    """Timed phases of this process and where their numbers go."""

    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.phase = args.phase
        self.spawned = args.spawned
        self.config = scaled(WORKLOADS[args.workload], args.quick)
        self.trace_dir: Optional[str] = args.trace_dir
        self.tracer: Optional[tracing.Tracer] = None
        if self.trace_dir:
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        #: Wall seconds of each phase, and the same at reference host speed
        #: (see calibration.py).
        self.wall_seconds: Dict[str, float] = {}
        self.seconds: Dict[str, float] = {}
        #: Shard wire bytes this process moved during each phase (traced).
        self.wire_bytes: Dict[str, int] = {}
        self._open: Dict[str, tuple] = {}
        self.result: Dict[str, object] = {"errors": []}

    def begin(self, name: str) -> None:
        kernel_passes = calibration.passes()
        gc.collect()
        wire_bytes = self.tracer.wire_bytes if self.tracer is not None else 0
        self._open[name] = (
            kernel_passes, wire_bytes, time.perf_counter_ns(), time.perf_counter()
        )

    def end(self, name: str) -> None:
        ended, ended_ns = time.perf_counter(), time.perf_counter_ns()
        kernel_passes, wire_bytes, started_ns, started = self._open.pop(name)
        kernel_passes += calibration.passes()
        self.wall_seconds[name] = ended - started
        self.seconds[name] = calibration.at_reference_speed(ended - started, kernel_passes)
        if self.tracer is not None:
            self.tracer.phases.append((name, started_ns, ended_ns))
            self.wire_bytes[name] = self.tracer.wire_bytes - wire_bytes

    def speed_factor(self, name: str) -> float:
        """Reference seconds per wall second during phase ``name``."""
        return self.seconds[name] / self.wall_seconds[name]

    @contextlib.contextmanager
    def timed(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def ready(self) -> None:
        """Set-up is over: the deployment could serve its first request."""
        wall = time.time() - self.spawned
        self.wall_seconds["setup"] = wall
        self.seconds["setup"] = calibration.at_reference_speed(wall, calibration.passes())

    def error(self, message: str) -> None:
        self.result["errors"].append(message)

    def traced(self, fn, name: str):
        return self.tracer.traced(fn, name) if self.tracer is not None else fn

    def phase_window(self, name: str) -> Tuple[int, int]:
        for phase, start, end in self.tracer.phases:
            if phase == name:
                return start, end
        raise KeyError(name)

    def trace_path(self, suffix: str = "", extension: str = ".json") -> str:
        return os.path.join(
            self.trace_dir, f"trace-{self.workload}-{self.phase}{suffix}{extension}"
        )


def peak_rss_mb(extra_pids: Sequence[int] = ()) -> float:
    """Peak RSS of this process plus the given live children (VmHWM)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def p50_ms(latencies: List[float]) -> float:
    return statistics.median(latencies) * 1e3 if latencies else 0.0


# ---------------------------------------------------------------------------
# headerless traffic (wiki_py, wiki_sqlite, shard2)
# ---------------------------------------------------------------------------


class Traffic:
    """Closed-loop driver over LoadClients: one request at a time, the next
    only after the previous completed."""

    def __init__(self, step: Step) -> None:
        self.issue = step.traced(self._issue, "client.request")
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        self.failed = 0
        self.requests = 0
        #: Wall seconds spent inside timed ``run`` calls (summed over the
        #: driver threads on ``shard2``).
        self.busy_s = 0.0
        #: (marker, page) of every acknowledged append.
        self.writes: List[Tuple[str, str]] = []

    @staticmethod
    def _issue(client, method: str, params: dict):
        request = client.request(method, "/edit.php", params)
        started = time.perf_counter()
        response = client.send(request)
        return response, time.perf_counter() - started

    def run(self, schedule, record_latency: bool = True) -> None:
        started = time.perf_counter()
        for client, method, page, marker in schedule:
            params = {"title": page}
            if method == "POST":
                params["append"] = f"\n{marker}"
            response, seconds = self.issue(client, method, params)
            self.requests += 1
            if not 200 <= response.status < 300:
                self.failed += 1
            elif method == "POST":
                self.writes.append((marker, page))
            if record_latency:
                if method == "GET":
                    self.read_latencies.append(seconds)
                else:
                    self.write_latencies.append(seconds)
        if record_latency:
            self.busy_s += time.perf_counter() - started


def balanced_schedule(rng: random.Random, owner_of: Dict[str, object], cycles: int, tag: str):
    """``cycles`` passes over every (page, MIX slot), shuffled by ``rng``.
    ``owner_of`` pins each page to the one client that works on it."""
    slots = [
        (page, method) for page in owner_of for method in MIX
    ] * cycles
    rng.shuffle(slots)
    return [
        (owner_of[page], method, page, f"{tag}{index}." if method == "POST" else None)
        for index, (page, method) in enumerate(slots)
    ]


def deface(step: Step, clients_and_pages) -> None:
    for client, page in clients_and_pages:
        response = client.send(
            client.request(
                "POST", "/edit.php", {"title": page, "append": f"\n{ATTACK_TEXT}-{page}"}
            )
        )
        if response.status != 200:
            step.error(f"attack on {page} answered {response.status}")


def run_repair(step: Step, warp, spec) -> Tuple[int, dict]:
    """Submit ``spec``, wait for the job inside the timed ``repair`` phase;
    returns (jobs not done, the job's RepairStats image)."""
    with step.timed("repair"):
        job = warp.repair.submit(spec)
        job.wait()
    if job.status != "done":
        return 1, {}
    return 0, job.result().stats.to_dict()


def check_pages(manifest: dict, text_of) -> Tuple[int, int]:
    """(attacked pages still carrying attack text, acknowledged markers not
    present exactly once) over the repaired state."""
    texts: Dict[str, str] = {}

    def text(page: str) -> str:
        if page not in texts:
            texts[page] = text_of(page) or ""
        return texts[page]

    dirty = sum(1 for page in manifest["attacked"] if ATTACK_TEXT in text(page))
    wrong = sum(1 for marker, page in manifest["writes"] if text(page).count(marker) != 1)
    return dirty, wrong


# ---------------------------------------------------------------------------
# wiki_py / wiki_sqlite
# ---------------------------------------------------------------------------


def record_wiki(step: Step) -> None:
    from repro.workload.loadgen import LoadClient, make_load_clients
    from repro.workload.scenarios import WikiDeployment

    config = step.config
    sqlite = config["backend"] == "sqlite"
    deployment = WikiDeployment(
        n_users=0,
        seed=step.seed,
        wal_path="records.wal",
        durability="none",
        db_backend=config["backend"],
        db_path="db" if sqlite else None,
    )
    warp, wiki = deployment.warp, deployment.wiki
    pages = [f"Bench{index}" for index in range(config["pages"])]
    for page in pages:
        wiki.seed_page(page, f"{page}\n", owner="admin")
    clients = make_load_clients(
        wiki, warp.server, [f"b{index}" for index in range(config["clients"])]
    )
    wiki.seed_user(ATTACKER, f"pw-{ATTACKER}")
    mallory = LoadClient(ATTACKER, warp.server)
    if mallory.login(f"pw-{ATTACKER}").status != 200:
        step.error("attacker could not log in")
    step.ready()

    rng = random.Random(step.seed)
    owner_of = {page: clients[index % len(clients)] for index, page in enumerate(pages)}
    warm = balanced_schedule(rng, owner_of, config["warm_cycles"], "wm")
    timed = balanced_schedule(rng, owner_of, config["timed_cycles"], "mk")
    attacked = rng.sample(pages, config["attacked"])

    traffic = Traffic(step)
    traffic.run(warm, record_latency=False)
    deface(step, [(mallory, page) for page in attacked])
    wal = warp.graph.store.wal
    wal_before, entries_before = wal.appended_bytes, traffic.requests
    with step.timed("serve"):
        traffic.run(timed)
    wal_bytes = wal.appended_bytes - wal_before
    n_runs = warp.graph.n_runs
    with step.timed("save"):
        warp.save("snapshot.json")

    finish_record(
        step,
        traffic,
        timed_requests=traffic.requests - entries_before,
        wal_bytes=wal_bytes,
        snapshot_bytes=os.path.getsize("snapshot.json"),
        n_runs=n_runs,
        attacked=attacked,
    )


def recover_wiki(step: Step, manifest: dict) -> None:
    from repro.apps.wiki.app import WikiApp
    from repro.repair.api import CancelClientSpec
    from repro.warp import WarpSystem

    with step.timed("reload"):
        warp = WarpSystem.load("snapshot.json", wal_path="records.wal")
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.register_code()
    n_runs = warp.graph.n_runs
    jobs_not_done, stats = run_repair(
        step, warp, CancelClientSpec(client_id=f"{ATTACKER}-load")
    )
    dirty, wrong = check_pages(manifest, wiki.page_text)
    finish_recover(
        step,
        manifest,
        n_runs=n_runs,
        jobs_not_done=jobs_not_done,
        dirty=dirty,
        wrong=wrong,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# browser_csrf
# ---------------------------------------------------------------------------


def time_browser_operations(traffic: Traffic) -> None:
    """Client-side latency of browser operations, timed around the public
    navigation calls (``open`` issues a GET; ``submit``/``click`` a POST)."""
    from repro.browser.browser import Browser

    def timing(fn, latencies):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            visit = fn(*args, **kwargs)
            latencies.append(time.perf_counter() - started)
            traffic.requests += 1
            if visit is not None and not 200 <= visit.response.status < 300:
                traffic.failed += 1
            return visit

        return timed

    Browser.open = timing(Browser.open, traffic.read_latencies)
    Browser.submit = timing(Browser.submit, traffic.write_latencies)
    Browser.click = timing(Browser.click, traffic.write_latencies)


def record_csrf(step: Step) -> None:
    from repro.workload import scenarios

    config = step.config
    traffic = Traffic(step)
    time_browser_operations(traffic)

    # run_scenario builds its own deployment and offers no way to give it
    # a WAL; hand it one that has, and take set-up to end (and the serve
    # phase to start) when the seeded deployment exists.
    real_deployment = scenarios.WikiDeployment

    def deployment_with_wal(**kwargs):
        deployment = real_deployment(wal_path="records.wal", durability="none", **kwargs)
        step.ready()
        step.begin("serve")
        return deployment

    scenarios.WikiDeployment = deployment_with_wal
    try:
        outcome = scenarios.run_scenario(
            "csrf", n_users=config["users"], n_victims=config["victims"], seed=step.seed
        )
    finally:
        scenarios.WikiDeployment = real_deployment
    step.end("serve")
    warp = outcome.warp
    wal_bytes = warp.graph.store.wal.appended_bytes
    n_runs = warp.graph.n_runs
    with step.timed("save"):
        warp.save("snapshot.json")

    # What the page checks compare against: the victims stand where the
    # attacked pages do, each user's legitimate append where the markers do.
    traffic.writes = list(outcome.legit_appends.items())
    finish_record(
        step,
        traffic,
        timed_requests=n_runs,
        wal_bytes=wal_bytes,
        snapshot_bytes=os.path.getsize("snapshot.json"),
        n_runs=n_runs,
        attacked=outcome.victims,
    )


def recover_csrf(step: Step, manifest: dict) -> None:
    from repro.apps.wiki import WikiApp, patch_for
    from repro.repair.api import PatchSpec
    from repro.warp import WarpSystem
    from repro.workload import scenarios

    with step.timed("reload"):
        warp = WarpSystem.load("snapshot.json", wal_path="records.wal")
        wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
        wiki.register_code()
        # The lure page is third-party code too: replay fetches it live.
        warp.register_site(scenarios.ATTACKER, scenarios._csrf_site)
    n_runs = warp.graph.n_runs
    patch = patch_for("csrf")
    jobs_not_done, stats = run_repair(
        step, warp, PatchSpec(patch.file, exports=patch.build())
    )

    victims = manifest["attacked"]
    projects = wiki.page_text("Projects") or ""
    wrong = 0
    for user, text in manifest["writes"]:
        page = projects if user in victims else (wiki.page_text(f"{user}_notes") or "")
        wrong += int(page.count(text) != 1)
    # The attack here is mis-attribution: victims silently re-logged-in as
    # the attacker.  Repaired, their edits are their own again and only
    # the attacker's own session (if any) remains.
    attacker_sessions = len(
        warp.ttdb.execute(
            "SELECT user_name FROM sessions WHERE user_name = 'attacker'"
        ).rows
    )
    dirty = max(0, attacker_sessions - 1)
    if wiki.page_editor("Projects") not in victims:
        dirty = max(dirty, 1)
    finish_recover(
        step,
        manifest,
        n_runs=n_runs,
        jobs_not_done=jobs_not_done,
        dirty=dirty,
        wrong=wrong,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# shard2
# ---------------------------------------------------------------------------

N_SHARDS = 2


def shard_cluster(step: Step):
    from repro.shard import ShardCluster

    if step.tracer is not None:
        # Spawned workers re-import this file as ``__mp_main__`` (see the
        # bottom of the file) and trace themselves when they find this.
        os.environ[WORKER_TRACE_ENV] = step.trace_path("-shard", extension="")
    return ShardCluster(
        N_SHARDS,
        "cluster",
        transport="proc",
        app="shard_app:wiki_tenant_pages",
        tenants=step.config["tenants"],
        shared_users=[ATTACKER],
        users_per_tenant=1,
        warp_kwargs={"durability": "none"},
    )


def stop_cluster(cluster) -> None:
    """``ShardCluster.close()`` without its 10 s join timeout per worker:
    closing the listener does not wake a worker blocked in ``accept()`` on
    Linux, so a worker that answered the shutdown frame never exits by
    itself.  Everything it had to persist is on disk by then."""
    for client in cluster.clients.values():
        client.shutdown()
        client.close()
    for process in cluster.processes:
        process.join(timeout=0.2)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)


def tenant_client(cluster, tenant: int, name: str, step: Step):
    from repro.workload.loadgen import LoadClient

    client = LoadClient(name, cluster, extra_headers={"X-Warp-Tenant": f"tenant{tenant}"})
    if client.login(f"pw-{name}").status != 200:
        step.error(f"{name} could not log in on tenant {tenant}")
    return client


def shard_status(cluster) -> dict:
    from repro.http.message import HttpRequest

    response = cluster.coordinator.handle(HttpRequest("GET", "/warp/admin/shard/status"))
    return json.loads(response.body)


def wal_size(shard: int) -> int:
    return os.path.getsize(os.path.join("cluster", f"shard-{shard}", "records.wal"))


def record_shard(step: Step) -> None:
    from repro.http.message import HttpRequest
    from repro.shard import ShardCoordinator

    config = step.config
    tenants = config["tenants"]
    cluster = shard_cluster(step)
    try:
        users = {t: tenant_client(cluster, t, shard_app.tenant_user(t), step) for t in tenants}
        attackers = {t: tenant_client(cluster, t, ATTACKER, step) for t in tenants}
        step.ready()

        rng = random.Random(step.seed)
        # One driver thread per shard, owning that shard's tenants, so no
        # page is ever driven by two threads (no lost-update races).
        by_shard: Dict[int, Dict[str, object]] = {s: {} for s in range(N_SHARDS)}
        for tenant in tenants:
            for page in shard_app.tenant_pages(tenant):
                by_shard[cluster.tenant_shards[tenant]][page] = users[tenant]
        warm = {
            s: balanced_schedule(rng, owners, config["warm_cycles"], f"w{s}m")
            for s, owners in by_shard.items()
        }
        timed = {
            s: balanced_schedule(rng, owners, config["timed_cycles"], f"s{s}k")
            for s, owners in by_shard.items()
        }
        attacked = {
            t: rng.sample(shard_app.tenant_pages(t), config["attacked"]) for t in tenants
        }

        def rebind(schedule):
            """The same schedule over this thread's own wire connections."""
            facade = ShardCoordinator(
                {s: c.clone() for s, c in cluster.clients.items()}, routing=cluster.routing
            )
            twins: Dict[int, object] = {}
            out = []
            for client, method, page, marker in schedule:
                twin = twins.get(id(client))
                if twin is None:
                    twin = twins[id(client)] = client.clone(facade)
                out.append((twin, method, page, marker))
            return out, facade

        traffics = {s: Traffic(step) for s in by_shard}
        for s in by_shard:
            traffics[s].run(warm[s], record_latency=False)
        deface(step, [(attackers[t], page) for t in tenants for page in attacked[t]])

        bound = {s: rebind(timed[s]) for s in by_shard}
        barrier = threading.Barrier(len(by_shard) + 1)
        failures: List[BaseException] = []

        def drive(shard: int) -> None:
            try:
                barrier.wait()
                traffics[shard].run(bound[shard][0])
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=drive, args=(s,)) for s in by_shard]
        for thread in threads:
            thread.start()
        wal_before = sum(wal_size(s) for s in range(N_SHARDS))
        issued_before = sum(t.requests for t in traffics.values())
        step.begin("serve")
        barrier.wait()
        for thread in threads:
            thread.join()
        step.end("serve")
        if failures:
            raise failures[0]
        for _, facade in bound.values():
            for client in facade.clients.values():
                client.close()
        wal_bytes = sum(wal_size(s) for s in range(N_SHARDS)) - wal_before
        n_runs = sum(info["n_runs"] for info in shard_status(cluster)["shards"].values())

        with step.timed("save"):
            response = cluster.coordinator.handle(
                HttpRequest("POST", "/warp/admin/shard/save")
            )
        if response.status != 200:
            step.error(f"shard save answered {response.status}: {response.body[:200]}")
        snapshot_bytes = sum(
            os.path.getsize(os.path.join("cluster", f"shard-{s}", "snapshot.json"))
            for s in range(N_SHARDS)
        )
        step.result["rss_mb"] = peak_rss_mb([p.pid for p in cluster.processes])
    finally:
        stop_cluster(cluster)

    merged = Traffic(step)
    for traffic in traffics.values():
        merged.read_latencies += traffic.read_latencies
        merged.write_latencies += traffic.write_latencies
        merged.failed += traffic.failed
        merged.requests += traffic.requests
        merged.busy_s += traffic.busy_s
        merged.writes += traffic.writes
    finish_record(
        step,
        merged,
        timed_requests=merged.requests - issued_before,
        wal_bytes=wal_bytes,
        snapshot_bytes=snapshot_bytes,
        n_runs=n_runs,
        attacked=[page for pages in attacked.values() for page in pages],
    )


def recover_shard(step: Step, manifest: dict) -> None:
    from repro.repair.api import CancelClientSpec

    tenants = step.config["tenants"]
    step.begin("reload")
    cluster = shard_cluster(step)
    try:
        status = shard_status(cluster)
        step.end("reload")
        shards = status["shards"]
        if not all(info.get("ok") for info in shards.values()):
            step.error(f"shards not healthy after reload: {shards}")
        n_runs = sum(info["n_runs"] for info in shards.values())

        with step.timed("repair"):
            result = cluster.coordinator.repair(CancelClientSpec(client_id=f"{ATTACKER}-load"))
        stats = dict(result.stats)
        stats["slowest_shard_s"] = max(
            (
                ((info.get("stats") or {}).get("breakdown") or {}).get("total", 0.0)
                for info in result.per_shard.values()
            ),
            default=0.0,
        )

        owner_of = {}
        for tenant in tenants:
            client = tenant_client(cluster, tenant, shard_app.tenant_user(tenant), step)
            for page in shard_app.tenant_pages(tenant):
                owner_of[page] = client

        def text_over_the_wire(page: str) -> str:
            client = owner_of[page]
            response = client.send(client.request("GET", "/edit.php", {"title": page}))
            if response.status != 200 or "<textarea" not in response.body:
                step.error(f"cannot read {page} after repair: {response.status}")
                return ""
            return response.body

        dirty, wrong = check_pages(manifest, text_over_the_wire)
        step.result["rss_mb"] = peak_rss_mb([p.pid for p in cluster.processes])
    finally:
        stop_cluster(cluster)
    finish_recover(
        step,
        manifest,
        n_runs=n_runs,
        jobs_not_done=int(not (result.ok and result.status == "done")),
        dirty=dirty,
        wrong=wrong,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def finish_record(
    step: Step,
    traffic: Traffic,
    timed_requests: int,
    wal_bytes: int,
    snapshot_bytes: int,
    n_runs: int,
    attacked: List[str],
) -> None:
    step.result.update(
        {
            "requests": timed_requests,
            "operations": traffic.requests,
            "serve_failed": traffic.failed,
            "read_p50_ms": p50_ms(traffic.read_latencies),
            "write_p50_ms": p50_ms(traffic.write_latencies),
            "wal_bytes": wal_bytes,
            "snapshot_bytes": snapshot_bytes,
            "n_runs": n_runs,
        }
    )
    with open("manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"n_runs": n_runs, "attacked": attacked, "writes": traffic.writes}, fh)
    if step.tracer is not None:
        # browser_csrf is driven by run_scenario, not by Traffic.run.
        driver_wall_s = traffic.busy_s or step.wall_seconds["serve"]
        step.result["layers"] = record_layers(step, timed_requests, wal_bytes, driver_wall_s)


def finish_recover(
    step: Step,
    manifest: dict,
    n_runs: int,
    jobs_not_done: int,
    dirty: int,
    wrong: int,
    stats: dict,
) -> None:
    if n_runs != manifest["n_runs"]:
        step.error(f"reloaded {n_runs} runs, recorded {manifest['n_runs']}")
    step.result.update(
        {
            "n_runs": n_runs,
            "jobs": 1,
            "jobs_not_done": jobs_not_done,
            "attacked": len(manifest["attacked"]),
            "attacked_dirty": dirty,
            "acked_writes": len(manifest["writes"]),
            "acked_wrong": wrong,
            "runs_reexecuted": stats.get("runs_reexecuted", 0),
            "repair_stats": stats,
        }
    )
    if step.tracer is not None:
        step.result["layers"] = recover_layers(step, stats)


# ---------------------------------------------------------------------------
# per-layer tables (traced steps only)
# ---------------------------------------------------------------------------

#: Serve-path span names whose self time is attributed to a named layer
#: (everything but the benchmark's own per-request root span).
SERVE_LAYERS = (
    "http.handle",
    "appserver.execute",
    "ttdb.select",
    "ttdb.write",
    "db.execute",
    "db.sqlite_exec",
    "ahg.to_wire",
    "store.add_run",
    "store.wal_encode",
    "store.wal_append",
    "store.wal_wait",
    "browser.client",
    "shard.coord",
    "shard.wire_codec",
    "shard.wire_json",
    "shard.wire_call",
    "shard.worker_json",
)

STORE_SPANS = (
    "store.add_run",
    "store.wal_encode",
    "store.wal_append",
    "store.wal_wait",
    "ahg.to_wire",
)
SQL_SPANS = (
    "repair.reexec_statement",
    "ttdb.select",
    "ttdb.write",
    "ttdb.repair_exec",
    "db.execute",
    "db.sqlite_exec",
)


def all_span_lists(step: Step):
    """This process's spans plus those its shard workers dumped on
    shutdown; second value is the collector passes of the processes that
    hold the deployment (the workers when there are any)."""
    lists = step.tracer.span_lists()
    gc_passes = list(step.tracer.gc_passes)
    processes = 1
    worker_files = [
        step.trace_path(f"-shard{shard}") for shard in range(N_SHARDS)
    ]
    worker_files = [path for path in worker_files if os.path.exists(path)]
    if worker_files:
        gc_passes, processes = [], len(worker_files)
        for path in worker_files:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            lists += [(data["names"], thread["spans"]) for thread in data["threads"]]
            gc_passes += [tuple(item) for item in data["gc_passes"]]
    return lists, gc_passes, processes


def table_for(step: Step, phase: str, lists) -> tracing.LayerTable:
    table = tracing.LayerTable(scale=step.speed_factor(phase))
    start, end = step.phase_window(phase)
    table.add(
        lists,
        start,
        end,
        keep=("http.handle",),
        childless_of={"ttdb.select": "db.execute"},
    )
    return table


def record_layers(step: Step, requests: int, wal_bytes: int, driver_wall_s: float) -> dict:
    lists, gc_passes, processes = all_span_lists(step)
    serve = table_for(step, "serve", lists)
    save = table_for(step, "save", lists)
    per_req = 1e6 / requests

    # A wire call's own time is the round trip minus what the worker spent
    # handling the frame: transport, not the layers behind it.
    worker_side = serve.total_s("shard.worker_frame") + serve.self_s("shard.worker_json")
    wire_call_s = max(0.0, serve.self_s("shard.wire_call") - worker_side)
    attributed = (
        sum(serve.self_s(name) for name in SERVE_LAYERS if name != "shard.wire_call")
        + serve.self_s("shard.worker_frame")
        + wire_call_s
    )
    selects = serve.n("ttdb.select")
    wal_entries = serve.n("store.wal_append")
    serve_start, serve_end = step.phase_window("serve")
    save_start, save_end = step.phase_window("save")
    layers = {
        "http.handle_self_us": serve.self_s("http.handle") * per_req,
        "http.handle_p99_us": serve.percentile_us("http.handle", 0.99),
        "appserver.execute_self_us": serve.self_s("appserver.execute") * per_req,
        "ttdb.execute_self_us": serve.self_s("ttdb.select", "ttdb.write") * per_req,
        "ttdb.statements_per_req": serve.n("ttdb.select", "ttdb.write") / requests,
        "ttdb.select_db_skip_ratio": (
            serve.childless.get("ttdb.select", 0) / selects if selects else 0.0
        ),
        "db.execute_us": serve.self_s("db.execute") * per_req,
        "db.sqlite_exec_us": serve.self_s("db.sqlite_exec") * per_req,
        "db.sqlite_stmts_per_req": serve.n("db.sqlite_exec") / requests,
        "ahg.to_wire_us": serve.self_s("ahg.to_wire") * per_req,
        "store.add_run_self_us": serve.self_s("store.add_run") * per_req,
        "store.wal_encode_us": serve.self_s("store.wal_encode") * per_req,
        "store.wal_append_us": serve.self_s("store.wal_append") * per_req,
        "store.wal_wait_us": serve.self_s("store.wal_wait") * per_req,
        "store.wal_entries_per_req": wal_entries / requests,
        "store.wal_bytes_per_entry": wal_bytes / wal_entries if wal_entries else 0.0,
        "browser.client_self_us": serve.self_s("browser.client") * per_req,
        "shard.coord_self_us": serve.self_s("shard.coord") * per_req,
        "shard.wire_call_us": wire_call_s * per_req,
        "shard.wire_codec_us": serve.self_s(
            "shard.wire_codec", "shard.wire_json", "shard.worker_json"
        )
        * per_req,
        "shard.wire_bytes_per_req": step.wire_bytes["serve"] / requests,
        "serve.unattributed_share": max(
            0.0, 1.0 - attributed / (driver_wall_s * step.speed_factor("serve"))
        ),
        "serve.traced_rps": requests / step.seconds["serve"],
        "warp.save_graph_s": save.total_s("warp.save_graph"),
        "warp.save_db_s": save.total_s("warp.save_db"),
        "warp.save_write_s": save.total_s("warp.save_write"),
        "warp.snapshot_bytes": float(step.result["snapshot_bytes"]),
        "gc.serve_share": tracing.gc_seconds(gc_passes, serve_start, serve_end)
        / (step.wall_seconds["serve"] * processes),
        "gc.save_share": tracing.gc_seconds(gc_passes, save_start, save_end)
        / (step.wall_seconds["save"] * processes),
    }
    return layers


def recover_layers(step: Step, stats: dict) -> dict:
    lists, gc_passes, processes = all_span_lists(step)
    load = table_for(step, "reload", lists)
    repair = table_for(step, "repair", lists)
    wall = step.seconds["repair"]
    controller_total = repair.total_s("repair.controller")
    sharded = repair.n("shard.repair_plan") > 0
    plan_s = repair.total_s("shard.repair_plan")
    jobs_overhead = 0.0 if sharded else max(0.0, wall - controller_total)
    reexec_app = repair.self_s("appserver.execute")
    reexec_sql = repair.self_s(*SQL_SPANS)
    replay = repair.self_s("repair.replay_browser", "browser.client")
    reexecuted = stats.get("runs_reexecuted", 0)
    load_start, load_end = step.phase_window("reload")
    repair_start, repair_end = step.phase_window("repair")
    return {
        "repair.jobs_overhead_s": jobs_overhead,
        "repair.controller_self_s": repair.self_s("repair.controller"),
        "repair.clusters_s": repair.self_s("repair.clusters"),
        "repair.graph_index_s": repair.self_s("repair.graph_index"),
        "repair.rollback_s": repair.self_s("repair.begin_repair", "repair.rollback"),
        "repair.reexec_app_s": reexec_app,
        "repair.reexec_sql_s": reexec_sql,
        "repair.finalize_s": repair.self_s("repair.finalize", *STORE_SPANS),
        "repair.replay_browser_s": replay,
        "shard.repair_plan_s": plan_s,
        "shard.repair_fanout_s": wall - plan_s if sharded else 0.0,
        "shard.repair_slowest_shard_s": float(stats.get("slowest_shard_s", 0.0))
        * step.speed_factor("repair"),
        "repair.runs_reexecuted": float(reexecuted),
        "repair.queries_reexecuted": float(stats.get("queries_reexecuted", 0)),
        "repair.visits_replayed": float(stats.get("visits_reexecuted", 0)),
        "repair.runs_canceled": float(stats.get("runs_canceled", 0)),
        "repair.rows_rolled_back": float(repair.n("repair.rollback")),
        "repair.n_groups": float(stats.get("n_groups", 0)),
        "repair.reexec_ms_per_run": (
            (reexec_app + reexec_sql + replay) * 1e3 / reexecuted if reexecuted else 0.0
        ),
        "repair.unattributed_share": jobs_overhead / wall,
        "warp.load_parse_s": load.total_s("warp.load_parse"),
        "warp.load_graph_s": load.total_s("warp.load_graph"),
        "warp.load_db_s": load.total_s("warp.load_db"),
        "warp.load_wal_replay_s": load.total_s("warp.load_wal_replay"),
        "gc.load_share": tracing.gc_seconds(gc_passes, load_start, load_end)
        / (step.wall_seconds["reload"] * processes),
        "gc.repair_share": tracing.gc_seconds(gc_passes, repair_start, repair_end)
        / (step.wall_seconds["repair"] * processes),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

RECORD = {"wiki": record_wiki, "csrf": record_csrf, "shard": record_shard}
RECOVER = {"wiki": recover_wiki, "csrf": recover_csrf, "shard": recover_shard}

#: Set by a traced shard2 step for the worker processes it spawns: the
#: path prefix their span dumps go to.
WORKER_TRACE_ENV = "E2E_TRACE_WORKER"


def trace_this_worker(prefix: str) -> None:
    """Runs in a spawned shard worker before ``worker_main``: install the
    wrappers, and dump the spans when the shutdown frame arrives."""
    from repro.shard.worker import ShardWorker

    tracer = tracing.Tracer()
    tracing.install(tracer)
    handle_frame = ShardWorker.handle_frame

    def handle_frame_then_dump(self, frame: dict) -> dict:
        reply = handle_frame(self, frame)
        if reply.get("bye"):
            tracer.dump(f"{prefix}{self.shard_id}.json")
        return reply

    ShardWorker.handle_frame = handle_frame_then_dump


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("record", "recover"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="work directory of this pair")
    parser.add_argument("--spawned", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-dir", default=None, help="trace this step, dump spans here")
    args = parser.parse_args(argv)

    # Relative paths from here on: an AF_UNIX socket path (shard workers)
    # must stay under ~100 bytes wherever the checkout lives.
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    step = Step(args)
    kind = step.config["kind"]
    if args.phase == "record":
        RECORD[kind](step)
    else:
        with open("manifest.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        RECOVER[kind](step, manifest)
    step.result.setdefault("rss_mb", peak_rss_mb())
    step.result["seconds"] = step.seconds
    step.result["wall_seconds"] = step.wall_seconds
    if step.tracer is not None:
        step.tracer.dump(step.trace_path())
    print(json.dumps(step.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(WORKER_TRACE_ENV):
    # multiprocessing's spawn start method re-imports the parent's main
    # module under this name before it runs the worker: the one hook that
    # runs ahead of ShardWorker's constructor, where reload happens.
    trace_this_worker(os.environ[WORKER_TRACE_ENV])
