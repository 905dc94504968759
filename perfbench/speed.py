"""A reference kernel that tracks how fast this machine runs right now.

On a shared host, memory-heavy Python code runs up to twice as slowly
while neighbours contend for the memory system, in spells lasting
seconds to minutes.  Such spells swamp any code change, so CPU-bound
timings are scaled to a nominal machine speed: the workload times a
fixed allocation-heavy kernel (program-independent, with the garbage
collector paused so the program's heap size does not leak in) right
before each operation, and divides the operation's time by
``median(nearby kernel times) / REFERENCE_MS``.  The median runs over
the samples taken before the WINDOW operations on either side, so it
follows spells that last a second without chasing one noisy sample.
The report lines print the unscaled values next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Duration of one reference kernel at nominal speed.
REFERENCE_MS = 0.1
#: Operations on each side whose reference samples scale an operation.
WINDOW = 5


def _kernel() -> list[dict]:
    rows = [{"brand": n, "model": str(n), "price": n * 0.5}
            for n in range(150)]
    return [dict(row) for row in rows if row["brand"] % 3]


class SpeedReference:
    """Reference kernel timings collected over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> int:
        """Time the kernel ``times`` times; returns the last sample's
        index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                started = time.perf_counter()
                _kernel()
                self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def factor_at(self, index: int) -> float:
        """How much slower than nominal the machine ran around sample
        ``index`` (1.0 = nominal)."""
        nearby = self.samples[max(0, index - WINDOW):index + WINDOW + 1]
        return statistics.median(nearby) * 1e3 / REFERENCE_MS

    def recent_factor(self, count: int) -> float:
        """The factor over the last ``count`` samples."""
        return statistics.median(self.samples[-count:]) * 1e3 / REFERENCE_MS
