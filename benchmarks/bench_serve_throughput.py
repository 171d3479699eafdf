"""High-throughput serving path: sustained req/s with and without the
response cache.

Both arms run in the same process against the same wiki workload (the
``bench_online_repair`` mix: 5× GET the edit form / 3× POST an append,
32 pinned clients over 32 pages) and differ only in the one option a
deployment really chooses between:

* **baseline** — the shipped default: group commit, no response cache;
* **serving** — the same plus the dependency-invalidated response cache.

Group commit, striped store locks and the statement cache are on in both
arms (they are not options); what any of them bought against the commit
before it is a commit-against-commit question for ``benchmarks/e2e``.

The CI gate is the **machine-relative ratio** ``serve_speedup`` (serving
÷ baseline sustained req/s at 8 threads), not an absolute figure: shared
runners vary wildly, and request handling is GIL-serialized whatever
``cpu_count`` says, so the ratio measures the per-request work cache hits
remove, which is the portable part of the win.  Absolute rps, p99, cache
hit rates and ``cpu_count`` are recorded as context.

On a 2-CPU host the cache alone reads 0.82–1.12× at 8 threads over
twenty runs (median 0.99×, DESIGN.md "Measured envelope"): a hit costs
about half a miss, but every append invalidates its page, so only ~63%
of GETs hit, and the appends and the fsync wait every request pays
dominate.  The cache does not pay for itself on this mix, so no
throughput floor holds here: the bench hard-fails only on what the cache
must never do — lose or double an acknowledged write, error, or stay
cold — and CI's committed-baseline gate (check_regression.py) catches
the ratio falling well below the parity it measures today.  Whether the
cache stays, and on which mix a floor above 1.0 would hold, is ROADMAP
item 3(f).
"""

import os
import time

from conftest import emit_bench_json, once, print_table

from repro.workload.loadgen import LoadGen, LoadStats, make_load_clients
from repro.workload.scenarios import WikiDeployment

N_CLIENTS = 32
N_PAGES = 32
THREAD_POINTS = (1, 8, 16)
GATE_THREADS = 8
LOAD_SECONDS = 1.2
WARMUP_SECONDS = 0.3
SEED = 21

BASELINE_KNOBS = dict()
SERVING_KNOBS = dict(response_cache=True)


def _build(tmp_path, arm, knobs):
    deployment = WikiDeployment(
        n_users=0,
        seed=SEED,
        wal_path=str(tmp_path / f"{arm}.wal"),
        **knobs,
    )
    wiki = deployment.wiki
    pages = [f"Bench{i}" for i in range(N_PAGES)]
    for i, page in enumerate(pages):
        wiki.seed_page(page, f"bench page {i}\n", owner="admin")
    clients = make_load_clients(
        wiki, deployment.warp.server, [f"b{i}" for i in range(N_CLIENTS)]
    )
    return deployment, LoadGen(clients, pages, seed=SEED)


def _verify_writes(deployment, stats: LoadStats) -> None:
    """Every acknowledged append must be in the final page body exactly
    once — a fast path that loses or doubles writes is not a speedup."""
    by_page = {}
    for marker, page in stats.writes:
        by_page.setdefault(page, []).append(marker)
    for page, markers in by_page.items():
        res = deployment.warp.ttdb.execute(
            "SELECT old_text FROM pagecontent WHERE title = ?", (page,)
        )
        body = res.rows[0]["old_text"]
        for marker in markers:
            assert body.count(marker) == 1, (
                f"append {marker} on {page} applied {body.count(marker)}×"
            )


def _drive(tmp_path, arm, knobs):
    deployment, gen = _build(tmp_path, arm, knobs)
    results = {}
    for n_threads in THREAD_POINTS:
        stats = gen.run_threads(n_threads, duration=LOAD_SECONDS)
        assert stats.errors == 0 and stats.rejected == 0, stats.by_status
        results[n_threads] = stats.summary(warmup=WARMUP_SECONDS)
        results[n_threads]["_stats"] = stats
    _verify_writes(deployment, results[GATE_THREADS]["_stats"])
    cache = deployment.warp.response_cache
    cache_stats = cache.stats() if cache is not None else {}
    wal = deployment.warp.graph.store.wal
    wal.sync(5.0)
    wal.close()
    return results, cache_stats


def test_serve_throughput(benchmark, tmp_path):
    def run():
        baseline, _ = _drive(tmp_path, "baseline", BASELINE_KNOBS)
        serving, cache_stats = _drive(tmp_path, "serving", SERVING_KNOBS)
        return baseline, serving, cache_stats

    baseline, serving, cache_stats = once(benchmark, run)

    rows = []
    payload = {"cpu_count": os.cpu_count(), "seconds": LOAD_SECONDS}
    for n_threads in THREAD_POINTS:
        base, new = baseline[n_threads], serving[n_threads]
        ratio = new["sustained_rps"] / base["sustained_rps"]
        rows.append(
            [
                n_threads,
                f"{base['sustained_rps']:.0f}",
                f"{new['sustained_rps']:.0f}",
                f"{ratio:.2f}x",
                f"{base['p99_ms']:.2f}",
                f"{new['p99_ms']:.2f}",
            ]
        )
        payload[f"t{n_threads}"] = {
            "baseline_rps": round(base["sustained_rps"], 1),
            "serving_rps": round(new["sustained_rps"], 1),
            "speedup": round(ratio, 3),
            "baseline_p99_ms": round(base["p99_ms"], 3),
            "serving_p99_ms": round(new["p99_ms"], 3),
        }
    hit_total = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    payload["response_cache"] = dict(cache_stats)
    payload["response_cache"]["hit_rate"] = (
        round(cache_stats.get("hits", 0) / hit_total, 3) if hit_total else 0.0
    )

    print_table(
        "Serving throughput: group commit vs group commit + response cache",
        ["threads", "base rps", "new rps", "speedup", "base p99ms", "new p99ms"],
        rows,
    )

    speedup = payload[f"t{GATE_THREADS}"]["speedup"]
    assert payload["response_cache"]["hit_rate"] > 0.2, (
        "response cache never warmed up under the view-heavy mix"
    )

    emit_bench_json(
        "BENCH_serve.json",
        "serve_throughput",
        payload,
        gates={
            "serve_speedup": {
                "value": speedup,
                "higher_is_better": True,
            },
        },
    )
