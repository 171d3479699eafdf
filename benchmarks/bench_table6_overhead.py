"""Table 6: logging overhead during normal operation (§8.5).

Paper: WARP costs 24% (read) / 27% (edit) in throughput, plus 24–30% more
while a repair runs concurrently; storage is 3.71 KB (read) / 7.34 KB
(edit) per page visit, i.e. 2–3.2 GB/day at saturation.

Our absolute rates are far higher (in-process simulation, no network, no
PHP), but the reproduction targets are: a throughput overhead in the tens
of percent, a further drop while repair shares the machine, and per-visit
log storage split across browser/app/DB components.
"""

import os

from conftest import emit_bench_json, once, print_table

from repro.repair.api import PatchSpec
from repro.workload.metrics import (
    measure_overhead,
    run_read_workload,
    storage_report,
)
from repro.workload.scenarios import WIKI, WikiDeployment, run_scenario

N_VISITS = int(os.environ.get("REPRO_T6_VISITS", "400"))


def measure_during_repair():
    """Throughput of live traffic while a CSRF repair runs concurrently.

    Uses repair generations (§4.3): the server keeps answering in the
    current generation while the controller rewrites the next one; the
    step hook interleaves one live page view per repair worklist item.
    """
    import time

    outcome = run_scenario("csrf", n_users=40, n_victims=3)
    deployment = outcome.deployment
    browser = deployment.browser(deployment.users[-1])

    served = {"count": 0, "seconds": 0.0}

    def live_traffic():
        start = time.perf_counter()
        browser.open(f"{WIKI}/index.php?title=Main_Page")
        served["seconds"] += time.perf_counter() - start
        served["count"] += 1

    controller = outcome.warp._controller()
    controller.step_hook = live_traffic
    from repro.apps.wiki.patches import patch_for

    spec = patch_for("csrf")
    controller.repair_batch([PatchSpec(spec.file, exports=spec.build())])
    if served["seconds"] == 0:
        return float("inf"), served["count"]
    return served["count"] / served["seconds"], served["count"]


def test_table6_overhead(benchmark):
    def measure():
        read = measure_overhead("read", n_visits=N_VISITS)
        edit = measure_overhead("edit", n_visits=N_VISITS // 2)
        during, served = measure_during_repair()
        return read, edit, during, served

    read, edit, during, served = once(benchmark, measure)
    rows = []
    for report in (read, edit):
        storage = report.storage
        rows.append(
            (
                report.workload,
                f"{report.no_warp_rate:.0f}",
                f"{report.warp_rate:.0f}",
                f"{report.overhead_pct:.0f}% (paper 24-27%)",
                f"{storage.browser_kb:.2f}",
                f"{storage.app_kb:.2f}",
                f"{storage.db_kb:.2f}",
                f"{storage.gb_per_day(report.warp_rate):.1f}",
            )
        )
    print_table(
        "Table 6: throughput (visits/s) and storage per page visit (KB)",
        ["workload", "no WARP", "WARP", "overhead", "browser", "app", "db", "GB/day"],
        rows,
    )
    print(
        f"during concurrent repair: {during:.0f} visits/s over {served} live "
        f"requests (read baseline {read.warp_rate:.0f}/s)"
    )
    emit_bench_json(
        "BENCH_table6.json",
        "overhead",
        {
            "cpu_count": os.cpu_count(),
            "n_visits": N_VISITS,
            "read": {
                "no_warp_rate": read.no_warp_rate,
                "warp_rate": read.warp_rate,
                "overhead_pct": read.overhead_pct,
                "storage_kb": read.storage.total_kb,
            },
            "edit": {
                "no_warp_rate": edit.no_warp_rate,
                "warp_rate": edit.warp_rate,
                "overhead_pct": edit.overhead_pct,
                "storage_kb": edit.storage.total_kb,
            },
            "during_repair_rate": during,
            "during_repair_served": served,
        },
        gates={
            "warp_over_nowarp_read": {
                "value": read.warp_rate / read.no_warp_rate,
                "higher_is_better": True,
            },
            "warp_over_nowarp_edit": {
                "value": edit.warp_rate / edit.no_warp_rate,
                "higher_is_better": True,
            },
        },
    )
    assert read.storage.total_kb > 0.1
    assert edit.storage.total_kb >= read.storage.total_kb * 0.8
    assert served > 0


def test_table6_storage_grows_with_activity(benchmark):
    def measure():
        deployment = WikiDeployment(n_users=2)
        run_read_workload(deployment, 50)
        return storage_report(deployment)

    report = once(benchmark, measure)
    assert report.n_visits >= 50
    assert report.total_kb > 0
