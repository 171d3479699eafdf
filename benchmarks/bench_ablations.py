"""Ablations of WARP's design choices (DESIGN.md).

The paper motivates three mechanisms as re-execution reducers:

* partition-based dependency analysis (§4.1) — without it every query
  reads whole tables and rollback cascades re-execute far more queries;
* nondeterminism record/replay (§3.3) — "strictly an optimization":
  without it, regenerated session tokens force extra re-execution
  (repairs stay correct, as the paper argues);
* request/response equivalence pruning (§5.3) — without it, every request
  of a replayed visit re-executes the application.

Each ablation runs the same reflected-XSS (or CSRF) repair with the
mechanism disabled and reports the re-execution blowup.
"""

import os

from conftest import once, print_table

from repro.apps.wiki.patches import patch_for
from repro.repair.api import PatchSpec
from repro.workload.scenarios import run_scenario

N_USERS = int(os.environ.get("REPRO_ABL_USERS", "50"))


def repair_with(attack, *, partitions=True, nondet=True, pruning=True, victims_at="end"):
    outcome = run_scenario(attack, n_users=N_USERS, n_victims=3, victims_at=victims_at)
    warp = outcome.warp
    warp.ttdb.partition_analysis = partitions
    if not partitions:
        # Re-record read sets as ALL for the log that already exists.
        from repro.ttdb.partitions import ReadSet

        for run in warp.graph.runs_in_order():
            for query in run.queries:
                query.read_set = ReadSet(query.table, disjuncts=None)
    controller = warp._controller()
    controller.use_nondet_replay = nondet
    controller.use_pruning = pruning
    spec = patch_for(attack)
    result = controller.repair_batch([PatchSpec(spec.file, exports=spec.build())])
    assert result.ok
    stats = result.stats
    return {
        "queries": stats.queries_reexecuted,
        "runs": stats.runs_reexecuted,
        "visits": stats.visits_reexecuted,
        "pruned": stats.runs_pruned,
        "nondet_misses": stats.nondet_misses,
        "conflicts": stats.conflicts,
        "seconds": stats.total_seconds,
    }


def test_ablation_partition_analysis(benchmark):
    # Victims at the start maximize the dependency window (Table 7's
    # fifth row) — exactly where partition precision pays off.
    def measure():
        return (
            repair_with("reflected-xss", victims_at="start"),
            repair_with("reflected-xss", partitions=False, victims_at="start"),
        )

    baseline, ablated = once(benchmark, measure)
    print_table(
        "Ablation: partition dependency analysis (reflected XSS, victims at start)",
        ["config", "queries re-exec", "runs re-exec", "visits", "seconds"],
        [
            ("partitions (paper)", baseline["queries"], baseline["runs"],
             baseline["visits"], f"{baseline['seconds']:.3f}"),
            ("whole-table deps", ablated["queries"], ablated["runs"],
             ablated["visits"], f"{ablated['seconds']:.3f}"),
        ],
    )
    assert ablated["queries"] > 2 * baseline["queries"]
    assert ablated["conflicts"] == baseline["conflicts"] == 0


def test_ablation_nondet_replay(benchmark):
    def measure():
        return (
            repair_with("csrf"),
            repair_with("csrf", nondet=False),
        )

    baseline, ablated = once(benchmark, measure)
    print_table(
        "Ablation: nondeterminism record/replay (CSRF)",
        ["config", "nondet misses", "queries re-exec", "runs re-exec", "conflicts"],
        [
            ("replay (paper)", baseline["nondet_misses"], baseline["queries"],
             baseline["runs"], baseline["conflicts"]),
            ("no replay", ablated["nondet_misses"], ablated["queries"],
             ablated["runs"], ablated["conflicts"]),
        ],
    )
    # Correctness is preserved (the paper's claim) ...
    assert ablated["conflicts"] == 0
    # ... at the cost of regenerating every session token and re-executing
    # whatever depended on them.
    assert ablated["nondet_misses"] > baseline["nondet_misses"]
    assert ablated["queries"] >= baseline["queries"]


def _pruning_scenario(pruning: bool):
    """A visit with an affected request *and* an unaffected beacon request.

    ``beacon_page.php`` carries a session-keepalive script that pings
    ``login.php``.  Patching the beacon page forces its visits to replay;
    the keepalive ping re-issues identically and — with pruning — is
    answered from the recorded response without re-executing login.php.
    """
    from repro.workload.scenarios import WIKI, WikiDeployment

    deployment = WikiDeployment(n_users=3)
    warp = deployment.warp

    def make_beacon_page(version_label):
        def handle(ctx):
            ctx.load("common.php")
            ctx.echo(
                f"<html><body><p id='v'>{version_label}</p>"
                f"<script>http_get('{WIKI}/login.php');</script>"
                "</body></html>"
            )
        return {"handle": handle}

    warp.scripts.register("beacon_page.php", make_beacon_page("v1"))
    warp.server.route("/beacon_page.php", "beacon_page.php")

    victim = deployment.users[0]
    deployment.login(victim)
    deployment.browser(victim).open(f"{WIKI}/beacon_page.php")

    controller = warp._controller()
    controller.use_pruning = pruning
    result = controller.repair_batch(
        [PatchSpec("beacon_page.php", exports=make_beacon_page("v2"))]
    )
    assert result.ok
    return result.stats


def test_ablation_pruning(benchmark):
    def measure():
        return _pruning_scenario(True), _pruning_scenario(False)

    baseline, ablated = once(benchmark, measure)
    print_table(
        "Ablation: request-equivalence pruning (beacon visit)",
        ["config", "runs pruned", "runs re-exec", "queries re-exec"],
        [
            ("pruning (paper)", baseline.runs_pruned, baseline.runs_reexecuted,
             baseline.queries_reexecuted),
            ("no pruning", ablated.runs_pruned, ablated.runs_reexecuted,
             ablated.queries_reexecuted),
        ],
    )
    assert baseline.runs_pruned > 0
    assert ablated.runs_pruned == 0
    assert ablated.runs_reexecuted > baseline.runs_reexecuted
