"""Host-speed calibration: a fixed piece of interpreter work timed right
before and right after every measured phase.

The virtual CPUs this benchmark runs on change speed by up to half for
seconds to minutes at a time (neighbours on the same cores), and CPU time
moves with wall time when they do, so no estimator over repetitions inside
one run removes it.  The kernel below does what the measured program does
— attribute access, dict and list building, JSON encoding and decoding,
string splitting — so it slows down by about the same factor.  A phase's
time is reported at reference speed: wall seconds × ``REFERENCE_S`` ÷ the
median kernel pass beside it.  Raw wall seconds are kept next to it.
"""

import gc
import json
import statistics
import time
from typing import List

#: One kernel pass on the reference host when it is quiet.  Only fixes the
#: scale of reported times; comparisons do not depend on it.
REFERENCE_S = 0.0042

#: Kernel passes per calibration (one before and one after each phase).
PASSES = 3


class _Record:
    __slots__ = ("ident", "title", "fields")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.title = f"title{ident}"
        self.fields = {"k": ident, "v": [ident, ident + 1]}


def kernel_pass() -> float:
    started = time.perf_counter()
    records = [_Record(ident) for ident in range(1500)]
    index = {}
    for record in records:
        index.setdefault(record.ident % 97, []).append(record)
    text = json.dumps(
        [{"a": r.ident, "b": r.title, "c": r.fields} for r in records]
    )
    decoded = json.loads(text)
    sum(len(item["b"]) for item in decoded) + sum(len(v) for v in index.values())
    "".join(text.split(",")[:2000])
    return time.perf_counter() - started


def passes() -> List[float]:
    """``PASSES`` kernel timings, after one unrecorded pass that warms the
    allocator and caches up, with the collector off: a collection the
    kernel's allocations trigger costs in proportion to the heap the
    measured program built, which is not host speed."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel_pass()
        return [kernel_pass() for _ in range(PASSES)]
    finally:
        if was_enabled:
            gc.enable()


def at_reference_speed(seconds: float, kernel_passes: List[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(kernel_passes)
