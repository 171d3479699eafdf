"""Lifecycle benchmark: record -> save -> reload -> repair, four workloads.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                 [--trace 0|1] [--quick] [--record] [--out F]

Every repetition of a workload is one *record* child process (set up, serve
a fixed seeded request stream with an attack in it, save) followed by one
*recover* child process (reload, re-register code, repair, verify); see
lifecycle.py.  Repetitions are scheduled round-robin across workloads and
continue until each workload has at least five and ``--seconds`` of
measured lifecycle time.  ``--trace 1`` instead runs two untraced and two
traced pairs per workload and reports the per-layer table.  Metric names,
units and regression bounds live in BENCHMARK.json at the repository root;
README.md here explains them.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from workloads import WORKLOADS, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
LIFECYCLE = os.path.join(HERE, "lifecycle.py")
WORK = os.path.join(HERE, "work")
OUT = os.path.join(HERE, "out")

#: Repetitions per workload in a full set / the most --seconds may add.
MIN_REPS, MAX_REPS = 5, 9
#: One child step may take this long before it is killed.
STEP_TIMEOUT_S = 170.0


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


class StepFailed(RuntimeError):
    pass


def run_step(
    phase: str, workload: str, seed: int, workdir: str, quick: bool, trace_dir: Optional[str]
) -> dict:
    """One lifecycle.py child; returns the JSON object it printed last."""
    command = [
        sys.executable,
        LIFECYCLE,
        phase,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--dir",
        workdir,
        "--spawned",
        repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Own session, so that a timeout can take the shard workers down too.
    child = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise StepFailed(f"{workload} {phase} did not finish in {STEP_TIMEOUT_S:.0f}s")
    if child.returncode != 0:
        raise StepFailed(
            f"{workload} {phase} exited {child.returncode}:\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(record: dict, recover: dict, clock: str) -> Dict[str, float]:
    """The end-to-end metrics of one pair.  ``clock`` picks the children's
    ``seconds`` (at reference host speed, see calibration.py) or their
    ``wall_seconds``."""
    seconds = {**record[clock], **recover[clock]}
    serve_factor = seconds["serve"] / record["wall_seconds"]["serve"]
    return {
        "setup_s": seconds["setup"],
        "serve_rps": record["requests"] / seconds["serve"],
        "serve_read_p50_ms": record["read_p50_ms"] * serve_factor,
        "serve_write_p50_ms": record["write_p50_ms"] * serve_factor,
        "wal_bytes_per_req": record["wal_bytes"] / record["requests"],
        "snapshot_bytes_per_run": record["snapshot_bytes"] / record["n_runs"],
        "save_s": seconds["save"],
        "reload_s": seconds["reload"],
        "repair_s": seconds["repair"],
        "repair_reexec_fraction": recover["runs_reexecuted"] / recover["n_runs"],
        "peak_rss_mb": max(record["rss_mb"], recover["rss_mb"]),
    }


def run_pair(workload: str, seed: int, quick: bool, trace: bool) -> dict:
    """One record + recover pair in a scratch directory of its own."""
    os.makedirs(WORK, exist_ok=True)
    if trace:
        os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        record = run_step("record", workload, seed, workdir, quick, OUT if trace else None)
        recover = run_step("recover", workload, seed, workdir, quick, OUT if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pair = {
        "e2e": end_to_end(record, recover, "seconds"),
        "wall": end_to_end(record, recover, "wall_seconds"),
        "attempted": record["operations"]
        + recover["acked_writes"]
        + recover["attacked"]
        + recover["jobs"],
        "failed": record["serve_failed"]
        + recover["acked_wrong"]
        + recover["attacked_dirty"]
        + recover["jobs_not_done"],
        "errors": record["errors"] + recover["errors"],
        "counts": {
            "requests": record["requests"],
            "n_runs": record["n_runs"],
            "wal_bytes": record["wal_bytes"],
            "runs_reexecuted": recover["runs_reexecuted"],
        },
        "measured_s": sum(record["wall_seconds"].values())
        + sum(recover["wall_seconds"].values()),
        "repair_breakdown": recover["repair_stats"].get("breakdown"),
    }
    if trace:
        pair["layers"] = {**record["layers"], **recover["layers"]}
    return pair


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: Counts that must repeat exactly across the repetitions of one workload;
#: ``wal_bytes`` too where one thread drives one process.
EXACT_COUNTS = ("requests", "n_runs", "runs_reexecuted")


def summarize(workload: str, pairs: List[dict], contract: dict) -> dict:
    errors = [error for pair in pairs for error in pair["errors"]]
    exact = EXACT_COUNTS + (() if WORKLOADS[workload]["kind"] == "shard" else ("wal_bytes",))
    for key in exact:
        seen = sorted({pair["counts"][key] for pair in pairs})
        if len(seen) > 1:
            errors.append(f"{key} differs between repetitions: {seen}")
    summary = {
        "e2e": {},
        "attempted": sum(pair["attempted"] for pair in pairs),
        "failed": sum(pair["failed"] for pair in pairs),
        "errors": errors,
        "counts": pairs[0]["counts"],
        "repair_breakdown": pairs[0]["repair_breakdown"],
    }
    for metric in contract["end_to_end"]:
        stats = quartiles([pair["e2e"][metric["name"]] for pair in pairs])
        stats["unit"] = metric["unit"]
        stats["values"] = [pair["e2e"][metric["name"]] for pair in pairs]
        stats["wall_values"] = [pair["wall"][metric["name"]] for pair in pairs]
        summary["e2e"][metric["name"]] = stats
    summary["correct"] = not errors and summary["failed"] == 0
    return summary


def run_set(
    workloads: Sequence[str], seed: int, seconds: float, quick: bool, contract: dict
) -> Dict[str, dict]:
    """Untraced repetitions, round-robin across workloads so that a slow
    minute on a shared host costs one repetition of each, not all of one."""
    min_reps, max_reps = (1, 1) if quick else (MIN_REPS, MAX_REPS)
    pairs: Dict[str, List[dict]] = {name: [] for name in workloads}
    while True:
        due = [
            name
            for name in workloads
            if len(pairs[name]) < min_reps
            or (
                len(pairs[name]) < max_reps
                and sum(pair["measured_s"] for pair in pairs[name]) < seconds
            )
        ]
        if not due:
            break
        for name in due:
            pairs[name].append(run_pair(name, seed, quick, trace=False))
    return {name: summarize(name, pairs[name], contract) for name in workloads}


def run_traced(
    workloads: Sequence[str], seed: int, quick: bool, contract: dict
) -> Dict[str, dict]:
    """The per-layer table of each workload: untraced, traced, traced,
    untraced pairs (so that drift of the host cancels; one of each when
    ``quick``), the layers as the mean of the traced pairs, and the cost of
    tracing as the difference in ``serve_rps`` between the two kinds."""
    out = {}
    for name in workloads:
        order = (False, True) if quick else (False, True, True, False)
        pairs = [run_pair(name, seed, quick, trace) for trace in order]
        traced = [pair["layers"] for pair in pairs if "layers" in pair]
        layers = {key: statistics.fmean(t[key] for t in traced) for key in traced[0]}
        plain_rps = statistics.fmean(
            pair["e2e"]["serve_rps"] for pair in pairs if "layers" not in pair
        )
        layers["serve.trace_overhead"] = 1.0 - layers.pop("serve.traced_rps") / plain_rps
        summary = summarize(name, pairs, contract)
        summary["layers"] = {
            metric["name"]: {"value": layers[metric["name"]], "unit": metric["unit"]}
            for metric in contract["per_layer"]
        }
        for share in ("serve.unattributed_share", "repair.unattributed_share"):
            if layers[share] > 0.10:
                summary["errors"].append(f"{share} is {layers[share]:.3f} (> 0.10)")
        summary["correct"] = not summary["errors"] and summary["failed"] == 0
        out[name] = summary
    return out


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_facts(args, workloads: Sequence[str]) -> dict:
    return {
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "durability": "none",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "workloads": {
            name: {
                key: value
                for key, value in scaled(WORKLOADS[name], args.quick).items()
            }
            for name in workloads
        },
    }


def print_report(facts: dict, results: Dict[str, dict]) -> None:
    print(
        f"commit {facts['commit'][:12]}  cpus {facts['cpu_count']}  "
        f"python {facts['python']}  {facts['platform']}"
    )
    print(
        f"seed {facts['seed']}  durability {facts['durability']} "
        f"(WAL written, fsync skipped)  quick {facts['quick']}"
    )
    for name, summary in results.items():
        config = ", ".join(f"{k}={v}" for k, v in facts["workloads"][name].items())
        print(f"\n== {name} ({config})")
        print(
            f"   correct {summary['correct']}  attempted {summary['attempted']}  "
            f"failed {summary['failed']}  failed_fraction "
            f"{summary['failed'] / summary['attempted']:.6f}  counts {summary['counts']}"
        )
        for error in summary["errors"]:
            print(f"   ERROR {error}")
        if "layers" in summary:
            for metric, entry in summary["layers"].items():
                print(f"   {metric:32s} {entry['value']:14.4f} {entry['unit']}")
            print(f"   RepairStats.breakdown {summary['repair_breakdown']}")
        else:
            for metric, stats in summary["e2e"].items():
                print(
                    f"   {metric:24s} {stats['median']:14.4f} {stats['unit']:6s} "
                    f"[q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n {stats['n']}]"
                )


def contract_line(summary: dict, trace: bool) -> str:
    if trace:
        metrics = summary["layers"]
    else:
        metrics = {
            name: {"value": stats["median"], "unit": stats["unit"]}
            for name, stats in summary["e2e"].items()
        }
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all, round-robin")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one repetition, counts / 10")
    parser.add_argument("--record", action="store_true", help="append to trajectory.jsonl")
    parser.add_argument("--out", help="write the full result as JSON here")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else names
    facts = host_facts(args, workloads)
    try:
        if args.trace:
            results = run_traced(workloads, args.seed, args.quick, contract)
        else:
            results = run_set(workloads, args.seed, args.seconds, args.quick, contract)
    except StepFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print_report(facts, results)
    document = {"host": facts, "workloads": results}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.record:
        row = dict(facts)
        row["date"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        key = "layers" if args.trace else "e2e"
        row["results"] = {
            name: {
                metric: entry["value"] if args.trace else entry["median"]
                for metric, entry in summary[key].items()
            }
            for name, summary in results.items()
        }
        with open(os.path.join(HERE, "trajectory.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if args.workload:
        print(contract_line(results[args.workload], bool(args.trace)))
    return 0 if all(summary["correct"] for summary in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
