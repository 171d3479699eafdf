#!/usr/bin/env python3
"""Repair concurrent with normal operation (paper §4.3) — for real.

WARP's repair generations let the site keep serving users while a repair
rewrites history: normal execution continues in the *current* generation,
repair builds the *next* one, and a brief suspend at the end switches them
atomically.  Every deployment's partition-scoped write gate
(repro.repair.gate) makes "keep serving" mean actual concurrent threads:

* 8 loadgen threads hammer a 16-tenant wiki while ``cancel_client``
  undoes an attacker's defacement of tenant 0 on the main thread;
* requests whose footprint is disjoint from the repair (the other 15
  tenants) are served live from the current generation;
* requests that touch the partitions under repair come back ``202`` with
  a ticket and are re-applied — exactly once, in arrival order — right
  after the generation switch, onto the repaired timeline.

Run:  python examples/concurrent_repair.py
"""

import threading
import time

from repro.repair.api import CancelClientSpec
from repro.workload.loadgen import LoadGen, make_load_clients
from repro.workload.scenarios import run_multi_tenant_scenario


def main() -> None:
    outcome = run_multi_tenant_scenario(
        n_tenants=16, users_per_tenant=1, attacked_tenants=1, seed=3
    )
    warp = outcome.warp
    pages = [outcome.tenant_page(t) for t in range(16)]
    print(
        f"staged 16-tenant wiki: {len(warp.graph.visits)} page visits, "
        f"{warp.graph.n_runs} runs recorded; tenant 0 is defaced"
    )
    assert "DEFACED" in outcome.wiki.page_text(pages[0])

    # 16 load users (one per tenant page), each logged in up front.
    clients = make_load_clients(
        outcome.wiki, warp.server, [f"user{i}" for i in range(16)]
    )
    loadgen = LoadGen(clients, pages, seed=1)

    stop = threading.Event()
    box = {}
    loader = threading.Thread(
        target=lambda: box.update(stats=loadgen.run_threads(8, stop=stop))
    )
    loader.start()
    time.sleep(0.05)  # let traffic build up before the repair starts

    started = time.perf_counter()
    result = warp.repair.submit(CancelClientSpec(outcome.attacker_client)).result()
    repair_ms = (time.perf_counter() - started) * 1e3
    stop.set()
    loader.join()

    stats = box["stats"]
    gate = result.stats.gate
    window = gate["served"] + gate["queued"]
    served_fraction = gate["served"] / window if window else 1.0
    print(f"\nrepair finished in {repair_ms:.0f} ms: ok={result.ok}")
    print(
        f"during the repair window: {gate['served']}/{window} requests served "
        f"live ({served_fraction:.1%}), {gate['queued']} queued and "
        f"{gate['applied']} re-applied after the switch"
    )
    print(
        f"load totals: {stats.total} requests, 503s={stats.rejected}, "
        f"p50={stats.percentile(0.5) * 1e3:.2f} ms, "
        f"p95={stats.percentile(0.95) * 1e3:.2f} ms"
    )
    print(f"DB generation after switch: {warp.ttdb.current_gen}")

    assert result.ok
    assert stats.rejected == 0, "nothing may be 503'd under the gate"
    assert gate["applied"] == gate["queued"], "every queued request re-applies"

    # Every write landed exactly once — the served ones live, the queued
    # ones onto the repaired timeline.
    text = {page: outcome.wiki.page_text(page) for page in pages}
    for marker, page in stats.writes:
        assert text[page].count(marker) == 1, (marker, page)
    assert "DEFACED" not in text[pages[0]], "the attack is gone"
    print(
        f"\n{len(stats.writes)} concurrent edits all applied exactly once; "
        "tenant 0 repaired while the other 15 tenants kept working."
    )


if __name__ == "__main__":
    main()
