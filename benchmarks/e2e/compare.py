"""Compare two result files written by ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit), B the change.  For every workload and
end-to-end metric: both medians with their quartiles, B's change relative
to A's median, the regression bound from BENCHMARK.json, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the spread between repetitions (first to third quartile,
                 as a share of the median, of either side) is wider than
                 the bound, so the runs cannot tell — unless every
                 repetition of B reads better than every one of A;
* ``ok``         otherwise.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def cell(stats: dict) -> str:
    return f"{stats['median']:.4f} [{stats['q1']:.4f}, {stats['q3']:.4f}]"


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / base["median"]
    if max(spread(base), spread(change)) > bound:
        if better == "lower":
            dominates = max(change["values"]) < min(base["values"])
        else:
            dominates = min(change["values"]) > max(base["values"])
        return "ok" if dominates else "unresolved"
    return "worse" if worse_by > bound else "ok"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        contract = json.load(fh)
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            documents.append(json.load(fh))
    base_doc, change_doc = documents
    for label, doc in zip("AB", documents):
        host = doc["host"]
        print(
            f"{label}: commit {host['commit'][:12]} seed {host['seed']} "
            f"cpus {host['cpu_count']} python {host['python']} quick {host['quick']}"
        )
    any_worse = False
    for workload in base_doc["workloads"]:
        if workload not in change_doc["workloads"]:
            continue
        base, change = base_doc["workloads"][workload], change_doc["workloads"][workload]
        print(f"\n== {workload}   (A failed {base['failed']}/{base['attempted']}, "
              f"B failed {change['failed']}/{change['attempted']})")
        print(
            f"   {'metric':24s} {'unit':6s} {'A median [q1, q3]':>36s} "
            f"{'B median [q1, q3]':>36s} {'B vs A':>9s} {'bound':>6s}  verdict"
        )
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = base["e2e"][name], change["e2e"][name]
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse = any_worse or result == "worse"
            relative = (b["median"] - a["median"]) / a["median"]
            print(
                f"   {name:24s} {metric['unit']:6s} {cell(a):>36s} {cell(b):>36s} "
                f"{relative:+8.1%} {metric['bound']:6.0%}  {result} "
                f"({metric['better']} is better; base {a['median']:.4f})"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
