"""A fixed pure-Python loop that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 2x over minutes as other tenants load it; a 55 s run can sit wholly
in a fast or a slow spell. The loop is timed in the same process just before
and just after each request, and the request time is reported divided by the
mean of the two. Host drift scales both alike, so the quotient follows the
program's own cost: over ten runs its spread was a third of the spread of the
raw request time. The loop calls nothing in capspec, so no change to capspec
can move it.
"""

from __future__ import annotations

import math
import statistics
import time

ITERATIONS = 60_000  # about 15 ms a pass on the machine in README.md
PASSES = 3


def loop_s() -> float:
    """Median wall time of PASSES passes of the loop."""
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        x = 0.5
        for i in range(ITERATIONS):
            x = math.sin(x) * 0.5 + (i % 7) * 0.001 + x * x * 0.1
        times.append(time.perf_counter() - start)
    return statistics.median(times)
