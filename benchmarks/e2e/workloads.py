"""The four workloads' parameters (why each exists: BENCHMARK.json, README.md)."""

from typing import Dict

#: GET the edit form ×5, POST an append ×3: repro.workload.loadgen.DEFAULT_MIX.
MIX = ("GET",) * 5 + ("POST",) * 3

#: name -> parameters.  ``cycles`` counts passes over (pages × MIX).
WORKLOADS: Dict[str, dict] = {
    "wiki_py": {
        "kind": "wiki",
        "backend": "python",
        "clients": 32,
        "pages": 64,
        "attacked": 8,
        "warm_cycles": 1,
        "timed_cycles": 6,
    },
    "wiki_sqlite": {
        "kind": "wiki",
        "backend": "sqlite",
        "clients": 32,
        "pages": 64,
        "attacked": 8,
        "warm_cycles": 1,
        "timed_cycles": 3,
    },
    "browser_csrf": {
        "kind": "csrf",
        "users": 400,
        "victims": 3,
    },
    "shard2": {
        "kind": "shard",
        "tenants": [0, 1, 4, 5],
        "attacked": 3,
        "warm_cycles": 2,
        "timed_cycles": 12,
    },
}


def scaled(config: dict, quick: bool) -> dict:
    """``--quick``: request counts ÷ 10 (at least one cycle), all checks on."""
    if not quick:
        return config
    out = dict(config)
    for key in ("warm_cycles", "timed_cycles"):
        if key in out:
            out[key] = max(1, out[key] // 10)
    if "users" in out:
        out["users"] = max(10, out["users"] // 10)
    return out
