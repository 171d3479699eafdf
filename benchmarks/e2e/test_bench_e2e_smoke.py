"""Keeps the lifecycle benchmark running as ``src/`` changes: the wrappers
in tracing.py name functions of ``src/`` and break silently otherwise.

``--quick`` is one repetition at a tenth of the request counts with every
correctness check on.  ``wiki_py`` runs traced (an untraced and a traced
pair), ``shard2`` untraced (real worker processes).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def contract():
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "workload, trace, section",
    [("wiki_py", "1", "per_layer"), ("shard2", "0", "end_to_end")],
)
def test_quick_lifecycle(workload, trace, section):
    finished = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--quick",
            "--trace",
            trace,
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in contract()[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
