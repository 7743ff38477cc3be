"""Machine-speed probe: scales timings to a fixed reference speed.

On a shared 2-vCPU Xeon VM (Python 3.11) the same pure-Python work ran at
speeds up to 1.5-2x apart, switching within seconds and sometimes holding
one speed for a whole run, so raw timings of identical runs spread by
15-35%.  A fixed reference kernel, timed every few milliseconds between ops,
measures the machine's speed at that moment; each op's latency is multiplied
by ``REFERENCE_S / local kernel time``, which gives its latency on a machine
where the kernel takes ``REFERENCE_S``.  The kernel never touches combnull,
so a change in combnull's own speed moves the scaled timings as it moves the
raw ones.  Raw timings are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from itertools import product

# Typical fast-state duration of one kernel call on a 2-vCPU Xeon VM.
REFERENCE_S = 0.0014
PROBE_EVERY_S = 0.02
NEIGHBOURS = 2  # probes on each side of an op that set its local speed

# Fixed inputs shaped like combnull's inner loops: a sparse "polynomial" with
# tuple keys multiplied by itself (dict updates, int arithmetic), and a
# point-on-hyperplane count over GF(3)^3 (generator sums, modular tests).
_TERMS = tuple(((i, j), (7 * i + j) % 11 - 5) for i in range(9) for j in range(8))
_POINTS = tuple(product(range(3), repeat=3))


def reference_kernel() -> int:
    out: dict = {}
    for a, ca in _TERMS:
        for b, cb in _TERMS:
            key = (a[0] + b[0], a[1] + b[1])
            out[key] = out.get(key, 0) + ca * cb
    hits = 0
    for eta in _POINTS:
        for p in _POINTS:
            if sum(x * y for x, y in zip(eta, p)) % 3 == 1:
                hits += 1
    return len(out) + hits


class SpeedProbe:
    """Timed kernel calls, kept as (start time, duration)."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self.last_end = float("-inf")

    def probe(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.last_end = end

    def maybe_probe(self, now: float) -> None:
        if now - self.last_end >= PROBE_EVERY_S:
            self.probe()

    def local_duration(self, t: float) -> float:
        """Median kernel time of the probes nearest to time t."""
        i = bisect.bisect_left(self.starts, t)
        window = self.durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS]
        return statistics.median(window)

    def scale(self, t: float) -> float:
        """Factor that turns a duration measured at time t into reference time."""
        return REFERENCE_S / self.local_duration(t)
