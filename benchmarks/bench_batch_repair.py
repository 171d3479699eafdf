"""Batched multi-intrusion repair: one generation pass vs k sequential.

ISSUE 5's headline claim for ``RepairBatch``: repairing k intrusions in
one batch costs ONE planning + re-execution + generation-switch pass
over the union damage set, where k sequential repairs pay k of each
(plus the graph merge and partition-index invalidation between passes).

The workload is the multi-tenant scenario: the attacker defaces k of N
tenant pages; each defacement is one intrusion, repaired by canceling
its edit-form visit.  We time

* **sequential** — k ``cancel_visit`` repairs, one per defacement, on
  one deployment, and
* **batch** — one ``RepairBatch`` of the same k ``CancelVisitSpec``s on
  an identically staged deployment,

then verify both deployments converge to the same repaired page text and
that the batch re-executed no more actions than the sequential total.

Gates (machine-relative, CI-compared vs baselines/BENCH_batch.json):
``batch_speedup`` = sequential/batch wall-clock (higher is better) and
``batch_reexec_ratio`` = batch/sequential re-executed actions (lower is
better).  Hard floor: the batch must not be slower than sequential.
"""

import gc
import os
import time

from conftest import emit_bench_json, once, print_table

from repro.repair.api import CancelVisitSpec, RepairBatch
from repro.workload.scenarios import run_multi_tenant_scenario

N_TENANTS = int(os.environ.get("REPRO_BATCH_TENANTS", "8"))
ATTACKED = int(os.environ.get("REPRO_BATCH_ATTACKED", "4"))
USERS_PER_TENANT = int(os.environ.get("REPRO_BATCH_USERS", "2"))
EDITS_PER_USER = int(os.environ.get("REPRO_BATCH_EDITS", "2"))
SEED = 23


def stage():
    return run_multi_tenant_scenario(
        n_tenants=N_TENANTS,
        users_per_tenant=USERS_PER_TENANT,
        attacked_tenants=ATTACKED,
        edits_per_user=EDITS_PER_USER,
        seed=SEED,
    )


def defacement_visits(outcome):
    """The attacker's edit-form visits, one per attacked tenant."""
    return [
        visit.visit_id
        for visit in outcome.warp.graph.client_visits(outcome.attacker_client)
        if "edit.php" in visit.url and visit.parent_visit is None
    ]


def reexec_total(stats):
    return stats.visits_reexecuted + stats.runs_reexecuted + stats.runs_canceled


def run_sequential():
    outcome = stage()
    visits = defacement_visits(outcome)
    assert len(visits) == ATTACKED
    gc.collect()
    started = time.perf_counter()
    results = [
        outcome.warp.repair.submit(
            CancelVisitSpec(outcome.attacker_client, visit_id)
        ).result()
        for visit_id in visits
    ]
    wall = time.perf_counter() - started
    assert all(result.ok for result in results)
    return outcome, wall, {
        "repair_s": wall,
        "passes": len(results),
        "generations": outcome.warp.ttdb.current_gen,
        "reexec": sum(reexec_total(result.stats) for result in results),
        "queries": sum(result.stats.queries_reexecuted for result in results),
    }


def run_batch():
    outcome = stage()
    visits = defacement_visits(outcome)
    assert len(visits) == ATTACKED
    batch = RepairBatch(
        specs=[
            CancelVisitSpec(client_id=outcome.attacker_client, visit_id=visit_id)
            for visit_id in visits
        ]
    )
    gc.collect()
    started = time.perf_counter()
    result = outcome.warp.repair.submit(batch).result()
    wall = time.perf_counter() - started
    assert result.ok
    return outcome, wall, {
        "repair_s": wall,
        "passes": 1,
        "generations": outcome.warp.ttdb.current_gen,
        "reexec": reexec_total(result.stats),
        "queries": result.stats.queries_reexecuted,
        "groups": result.stats.n_groups,
    }


def test_batch_vs_sequential_repair(benchmark):
    def measure():
        seq_outcome, seq_wall, seq_row = run_sequential()
        batch_outcome, batch_wall, batch_row = run_batch()
        # Both strategies converge to the same repaired content.
        for tenant in range(N_TENANTS):
            page = seq_outcome.tenant_page(tenant)
            seq_text = seq_outcome.wiki.page_text(page)
            batch_text = batch_outcome.wiki.page_text(page)
            assert seq_text == batch_text, f"diverged on {page}"
            assert "DEFACED" not in batch_text
        return {"sequential": seq_row, "batch": batch_row}

    rows = once(benchmark, measure)
    seq, bat = rows["sequential"], rows["batch"]
    print_table(
        f"Batched repair: {ATTACKED} intrusions across {N_TENANTS} tenants "
        f"({USERS_PER_TENANT} users/tenant)",
        ["strategy", "repair_s", "passes", "gens", "reexec", "queries"],
        [
            ("sequential", f"{seq['repair_s']:.4f}", seq["passes"],
             seq["generations"], seq["reexec"], seq["queries"]),
            ("batch", f"{bat['repair_s']:.4f}", bat["passes"],
             bat["generations"], bat["reexec"], bat["queries"]),
        ],
    )

    speedup = seq["repair_s"] / bat["repair_s"] if bat["repair_s"] > 0 else 0.0
    reexec_ratio = bat["reexec"] / seq["reexec"] if seq["reexec"] else 1.0
    payload = {
        "n_tenants": N_TENANTS,
        "attacked": ATTACKED,
        "users_per_tenant": USERS_PER_TENANT,
        "edits_per_user": EDITS_PER_USER,
        "rows": rows,
        "batch_speedup": speedup,
        "batch_reexec_ratio": reexec_ratio,
    }
    gates = {
        "batch_speedup": {"value": speedup, "higher_is_better": True},
        "batch_reexec_ratio": {"value": reexec_ratio, "higher_is_better": False},
    }
    emit_bench_json("BENCH_batch.json", "batch_repair", payload, gates=gates)

    assert bat["generations"] == 1, "a batch is one generation pass"
    assert bat["reexec"] <= seq["reexec"], (
        "the union pass re-executed more than the sequential total"
    )
    # Hard floor (noise-tolerant): one pass must not lose to k passes.
    assert bat["repair_s"] <= seq["repair_s"] * 1.2, (
        f"batch {bat['repair_s']:.4f}s slower than sequential "
        f"{seq['repair_s']:.4f}s"
    )
