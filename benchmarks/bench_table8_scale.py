"""Table 8: repair performance at scale (§8.5).

Paper: growing the workload from 100 to 5,000 users leaves the number of
re-executed actions unchanged for isolated attacks, and repair time grows
far slower than the workload (≈3× for 50× more users) — except SQL
injection, whose rollback cost is linear in the number of corrupted rows.

Default scale is 1,000 users to keep bench wall-clock reasonable (the
simulation is single-threaded Python); set ``REPRO_T8_USERS=5000`` for the
paper's full scale.
"""

import gc
import os

from conftest import emit_bench_json, once, print_table

from repro.workload.scenarios import run_scenario

N_SMALL = int(os.environ.get("REPRO_T8_BASE", "100"))
N_LARGE = int(os.environ.get("REPRO_T8_USERS", "1000"))

SCENARIOS = ("reflected-xss", "stored-xss", "sql-injection", "acl-error")


def run_one(attack, n_users):
    outcome = run_scenario(attack, n_users=n_users, n_victims=3)
    # Pay down the cyclic-GC debt of staging the workload now, so a gen-2
    # collection pause (millions of objects after several staged scenarios)
    # does not land inside the repair window we are measuring.
    gc.collect()
    result = outcome.repair()
    return {
        "attack": attack,
        "n_users": n_users,
        "row": result.stats.row(),
        "orig_s": outcome.original_exec_seconds,
        "repair_s": result.stats.total_seconds,
        "reexec_visits": int(result.stats.row()["visits"].split(" / ")[0]),
    }


def test_table8_scale(benchmark):
    def measure():
        small = {a: run_one(a, N_SMALL) for a in SCENARIOS}
        large = {a: run_one(a, N_LARGE) for a in SCENARIOS}
        return small, large

    small, large = once(benchmark, measure)
    print_table(
        f"Table 8: repair at scale ({N_SMALL} vs {N_LARGE} users)",
        [
            "scenario",
            f"visits@{N_SMALL}",
            f"visits@{N_LARGE}",
            f"repair@{N_SMALL}s",
            f"repair@{N_LARGE}s",
            f"orig@{N_LARGE}s",
        ],
        [
            (
                attack,
                small[attack]["row"]["visits"],
                large[attack]["row"]["visits"],
                f"{small[attack]['repair_s']:.3f}",
                f"{large[attack]['repair_s']:.3f}",
                f"{large[attack]['orig_s']:.2f}",
            )
            for attack in SCENARIOS
        ],
    )
    gates = {}
    payload = {
        "cpu_count": os.cpu_count(),
        "n_small": N_SMALL,
        "n_large": N_LARGE,
        "scenarios": {},
    }
    for attack in SCENARIOS:
        ratio = (
            large[attack]["repair_s"] / large[attack]["orig_s"]
            if large[attack]["orig_s"] > 0
            else 0.0
        )
        payload["scenarios"][attack] = {
            "repair_s_small": small[attack]["repair_s"],
            "repair_s_large": large[attack]["repair_s"],
            "orig_s_large": large[attack]["orig_s"],
            "repair_over_orig_large": ratio,
            "reexec_visits_small": small[attack]["reexec_visits"],
            "reexec_visits_large": large[attack]["reexec_visits"],
        }
        gates[f"repair_over_orig_{attack}"] = {
            "value": ratio,
            "higher_is_better": False,
        }
    emit_bench_json("BENCH_table8.json", "scale", payload, gates=gates)
    for attack in SCENARIOS:
        # The paper's claim (§8.5): "repair time ... is mostly determined
        # by the number of actions that must be re-executed during repair",
        # not by the workload size.  Evidence: (a) the re-executed action
        # count is independent of scale, and (b) repair stays far below
        # the original execution time even at the large scale.
        assert (
            large[attack]["reexec_visits"] <= small[attack]["reexec_visits"] * 3
        ), f"{attack}: re-execution grew with workload size"
        if attack != "sql-injection":
            # SQL injection is the paper's own exception: its rollback is
            # linear in the number of corrupted rows (every user's page).
            assert large[attack]["repair_s"] < large[attack]["orig_s"] / 3
