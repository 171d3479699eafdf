"""Logging-overhead measurement (paper §8.5, Table 6).

Two workloads — reading pages and editing pages — run against three server
configurations: WARP disabled (plain execution), WARP enabled, and WARP
enabled while a repair is concurrently underway.  Storage cost is the
size of the lines the record store writes for each page visit — raw, and
compressed like the paper's: the browser's visit log, the application run
log, and the database query log (the run line's ``queries`` rows).
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.ahg.records import text_refs, visit_text_refs
from repro.core.serialize import COMPACT
from repro.store.wal import entry_line
from repro.workload.scenarios import WIKI, WikiDeployment

#: The three logs of Table 6's storage column.
LAYERS = ("browser", "app", "db")


def record_log_texts(graph) -> Iterator[Tuple[str, str]]:
    """``(layer, text)`` for every byte the store writes for ``graph``'s
    visits and runs — their snapshot lines, which are their WAL lines, and
    each ``text`` entry they refer to, once.  A visit's line is the browser
    log; a run's line is split where the codec splits it: the ``queries``
    member (the rows) is the database log, the line around it the
    application log.  A client id's, a URL's and an xpath's entries are
    billed to the browser log; a response body's and a set of loaded files'
    to the application log; an SQL text's and a row payload's to the
    database log."""
    # A copy: a record the store has not written yet is encoded as it would
    # be, without defining entries in the store's own table.
    texts = graph.texts.copy()
    billed: Dict[int, str] = {}
    for visit in graph.visits.values():
        row = visit.encode(texts)
        for ident in visit_text_refs(json.loads(row)):
            billed.setdefault(ident, "browser")
        yield "browser", entry_line("visit", row)
    for run in graph.runs_in_order():
        line = json.loads(run.json_text or run.encode(texts))
        body, loaded, *refs = text_refs(line)
        billed.setdefault(body, "app")
        billed.setdefault(loaded, "app")
        for ident in refs:
            billed.setdefault(ident, "db")
        rows = json.dumps(line.pop("queries"), separators=COMPACT)
        yield "app", entry_line("run", json.dumps(line, separators=COMPACT))
        # The member, and the comma that joined it to its neighbours.
        yield "db", f'"queries":{rows},'
    for ident, layer in billed.items():
        yield layer, entry_line("text", texts.entry(ident))


@dataclass
class StorageReport:
    """Per-page-visit dependency-log sizes in KB (Table 6 right half):
    what the store writes, zlib-compressed record by record as the paper
    compresses its logs.  ``raw_bytes`` is the same text uncompressed,
    per layer, over all visits."""

    browser_kb: float
    app_kb: float
    db_kb: float
    n_visits: int
    raw_bytes: Dict[str, int]

    @property
    def total_kb(self) -> float:
        return self.browser_kb + self.app_kb + self.db_kb

    def gb_per_day(self, visits_per_second: float) -> float:
        """Paper's extrapolation: continuous 100% load for 24 hours."""
        per_visit_bytes = self.total_kb * 1024
        return per_visit_bytes * visits_per_second * 86400 / 1e9


def storage_report(deployment: WikiDeployment) -> StorageReport:
    graph = deployment.warp.graph
    n_visits = max(1, len(graph.visits))
    raw = dict.fromkeys(LAYERS, 0)
    compressed = dict.fromkeys(LAYERS, 0)
    for layer, text in record_log_texts(graph):
        data = text.encode("utf-8")
        raw[layer] += len(data)
        compressed[layer] += len(zlib.compress(data))
    return StorageReport(
        browser_kb=compressed["browser"] / n_visits / 1024,
        app_kb=compressed["app"] / n_visits / 1024,
        db_kb=compressed["db"] / n_visits / 1024,
        n_visits=n_visits,
        raw_bytes=raw,
    )


# -- throughput workloads --------------------------------------------------------


def _stage(deployment: WikiDeployment, n_users: int) -> None:
    for user in deployment.users[:n_users]:
        deployment.login(user)


def run_read_workload(deployment: WikiDeployment, n_visits: int) -> float:
    """Page views per second for a read-only workload."""
    browser = deployment.login(deployment.users[0])
    titles = ["Main_Page", "Projects", f"{deployment.users[0]}_notes"]
    start = time.perf_counter()
    for index in range(n_visits):
        browser.open(f"{WIKI}/index.php?title={titles[index % len(titles)]}")
    elapsed = time.perf_counter() - start
    return n_visits / elapsed if elapsed > 0 else float("inf")


def run_edit_workload(deployment: WikiDeployment, n_edits: int) -> float:
    """Edit cycles per second (form + save = 2 page visits per cycle)."""
    user = deployment.users[0]
    deployment.login(user)
    title = f"{user}_notes"
    start = time.perf_counter()
    for index in range(n_edits):
        deployment.edit_page(user, title, f"content revision {index}\nline two")
    elapsed = time.perf_counter() - start
    return (2 * n_edits) / elapsed if elapsed > 0 else float("inf")


@dataclass
class OverheadReport:
    """One Table 6 row."""

    workload: str
    no_warp_rate: float
    warp_rate: float
    during_repair_rate: Optional[float]
    storage: Optional[StorageReport]

    @property
    def overhead_pct(self) -> float:
        if self.no_warp_rate == 0:
            return 0.0
        return 100.0 * (1 - self.warp_rate / self.no_warp_rate)


def measure_overhead(
    workload: str, n_visits: int = 300, seed: int = 7
) -> OverheadReport:
    """Measure one workload under no-WARP and WARP configurations."""
    runner = run_read_workload if workload == "read" else run_edit_workload
    plain = WikiDeployment(n_users=2, seed=seed, enabled=False)
    no_warp_rate = runner(plain, n_visits)
    recorded = WikiDeployment(n_users=2, seed=seed)
    warp_rate = runner(recorded, n_visits)
    return OverheadReport(
        workload=workload,
        no_warp_rate=no_warp_rate,
        warp_rate=warp_rate,
        during_repair_rate=None,
        storage=storage_report(recorded),
    )
