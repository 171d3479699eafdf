"""Dependency-clustered repair: footprint-proportional wall-clock (§8.5).

The multi-tenant workload keeps each tenant's partitions disjoint, so the
action history graph splits into one taint component per tenant.  A fixed
1-tenant attack is then repaired while the *total* number of tenants
grows: with dependency-clustered repair groups (the default), discovery
and propagation touch only the attacked component, so repair wall-clock
must stay roughly flat — the acceptance bar is **≤2× when tenants grow
8×** — with re-executed action counts unchanged.  The monolithic
reference worklist (discovery forced futile, so the repair keeps the
global scope) is measured alongside.  Both arms look candidates up in the
record store's partition buckets, built per key on first lookup, so
neither pays for the other tenants' history and clustered repair must be
no slower than the monolithic reference.
"""

import contextlib
import gc
import os
import time
from unittest import mock

from conftest import emit_bench_json, once, print_table

from repro.repair.clusters import ClusteringFutile
from repro.workload.scenarios import run_multi_tenant_scenario

TENANT_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_CLUSTER_TENANTS", "2,4,8,16").split(",")
)
USERS_PER_TENANT = int(os.environ.get("REPRO_CLUSTER_USERS", "3"))
EDITS_PER_USER = int(os.environ.get("REPRO_CLUSTER_EDITS", "2"))
#: Each arm's row is its fastest of this many staged repairs, arms
#: alternating: single millisecond repair windows spread by ±40 %.
REPEATS = 3
#: How far clustered repair may trail monolithic at the largest scale.
#: Both arms do the same lookups, so the ratio is parity plus noise:
#: fifteen best-of-3 runs on a 2-vCPU Xeon VM read 0.61–1.06.  Past
#: 1.25× is a clustered-only slowdown, not noise.
PARITY_MARGIN = 0.25


def run_one(n_tenants, mode):
    outcome = run_multi_tenant_scenario(
        n_tenants=n_tenants,
        users_per_tenant=USERS_PER_TENANT,
        attacked_tenants=1,
        edits_per_user=EDITS_PER_USER,
        seed=1,
    )
    # Keep cyclic-GC pauses from the staged workload out of the window.
    gc.collect()
    started = time.perf_counter()
    # The reference arm: the forced-futility patch the equivalence
    # property uses (tests/conftest.py ``futile_clustering``).
    forced = (
        mock.patch(
            "repro.repair.controller.compute_repair_groups",
            side_effect=ClusteringFutile,
        )
        if mode == "off"
        else contextlib.nullcontext()
    )
    with forced:
        result = outcome.repair()
    wall = time.perf_counter() - started
    stats = result.stats
    return {
        "n_tenants": n_tenants,
        "mode": mode,
        "repair_s": wall,
        "orig_s": outcome.original_exec_seconds,
        "visits": stats.visits_reexecuted,
        "runs": stats.runs_reexecuted,
        "queries": stats.queries_reexecuted,
        "canceled": stats.runs_canceled,
        "groups": stats.n_groups,
        "escaped_keys": stats.escaped_keys,
        "graph_s": stats.graph_seconds,
        "clusters_s": stats.clusters_seconds,
    }


def test_repair_clusters_scaling(benchmark):
    def measure():
        rows = {}
        for n in TENANT_COUNTS:
            runs = {"clustered": [], "monolithic": []}
            for _ in range(REPEATS):
                runs["clustered"].append(run_one(n, "sequential"))
                runs["monolithic"].append(run_one(n, "off"))
            rows[n] = {
                arm: min(arm_runs, key=lambda row: row["repair_s"])
                for arm, arm_runs in runs.items()
            }
        return rows

    rows = once(benchmark, measure)
    small, large = TENANT_COUNTS[0], TENANT_COUNTS[-1]
    print_table(
        f"Repair groups: 1-tenant attack, {small}..{large} tenants "
        f"({USERS_PER_TENANT} users/tenant)",
        [
            "tenants",
            "clustered_s",
            "monolithic_s",
            "visits",
            "queries",
            "graph_s(mono)",
        ],
        [
            (
                n,
                f"{rows[n]['clustered']['repair_s']:.4f}",
                f"{rows[n]['monolithic']['repair_s']:.4f}",
                rows[n]["clustered"]["visits"],
                rows[n]["clustered"]["queries"],
                f"{rows[n]['monolithic']['graph_s']:.4f}",
            )
            for n in TENANT_COUNTS
        ],
    )

    clustered_small = rows[small]["clustered"]["repair_s"]
    clustered_large = rows[large]["clustered"]["repair_s"]
    scaling = clustered_large / clustered_small if clustered_small > 0 else 0.0
    # Machine-relative ratio: clustered repair vs the workload growth it
    # must *not* track.  Also gate the clustered/monolithic ratio at the
    # largest scale: clustered repair must be no slower than monolithic.
    vs_mono = (
        rows[large]["clustered"]["repair_s"] / rows[large]["monolithic"]["repair_s"]
        if rows[large]["monolithic"]["repair_s"] > 0
        else 0.0
    )
    payload = {
        "tenant_counts": list(TENANT_COUNTS),
        "users_per_tenant": USERS_PER_TENANT,
        "edits_per_user": EDITS_PER_USER,
        "rows": {str(n): rows[n] for n in TENANT_COUNTS},
        "clustered_scaling": scaling,
        "clustered_over_monolithic_large": vs_mono,
    }
    gates = {
        "clusters_repair_scaling": {"value": scaling, "higher_is_better": False},
        "clusters_vs_monolithic_large": {"value": vs_mono, "higher_is_better": False},
    }
    emit_bench_json("BENCH_clusters.json", "clusters", payload, gates=gates)

    for n in TENANT_COUNTS:
        for counter in ("visits", "runs", "queries", "canceled"):
            assert (
                rows[n]["clustered"][counter] == rows[small]["clustered"][counter]
            ), f"re-executed {counter} changed with tenant count at n={n}"
            assert (
                rows[n]["clustered"][counter] == rows[n]["monolithic"][counter]
            ), f"clustered vs monolithic {counter} diverged at n={n}"
    # The acceptance bar: ≤2× repair wall-clock when tenants grow 8×.
    assert scaling <= 2.0, (
        f"1-tenant repair grew {scaling:.2f}× when tenants grew "
        f"{large // small}× — not footprint-proportional"
    )
    # Clustered repair must be no slower than the monolithic reference.
    assert vs_mono <= 1.0 + PARITY_MARGIN, (
        f"clustered repair took {vs_mono:.2f}× the monolithic reference "
        f"at {large} tenants"
    )
