"""Host-speed reference: a fixed pure-Python chunk timed beside each sample.

On a shared host the CPU speed the benchmark gets moves by tens of percent
over seconds to minutes, the same way for every pure-Python workload.  A
timed sample (an iteration, a set-up probe) is therefore divided by the
mean time of the reference chunks run just before and just after it, and
multiplied by ``NOMINAL_S``: the result is the sample's time in seconds on
a host where one chunk takes ``NOMINAL_S``.  The chunk is part of the
benchmark, not of ctasim, so a change to the program moves the numerator
only.

The chunk does what the closed loop does per step, on a smaller scale:
function calls, float arithmetic, ``math.sin``, attribute access,
short-lived slotted objects and a growing list of row tuples.  A chunk
without the rows stays in the first-level cache and missed the slowdowns
that the workloads' megabyte traces feel.  Nothing outlives the chunk.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 4.0e-3
CHUNK_STEPS = 4000


class _Point:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float):
        self.x = x
        self.v = v


def _advance(p: _Point, t: float) -> _Point:
    return _Point(p.x + 1e-3 * p.v, p.v - 1e-3 * math.sin(t) * p.x)


def chunk() -> float:
    """Seconds taken by one reference chunk."""
    t0 = time.perf_counter()
    p = _Point(1.0, 0.0)
    rows = []
    for i in range(CHUNK_STEPS):
        p = _advance(p, i * 1e-3)
        rows.append((p.x, p.v, abs(p.x) + max(p.v, 0.0)))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(p.x):
        raise ArithmeticError("reference chunk diverged")
    return elapsed


def median_chunk(repeats: int = 5) -> float:
    return statistics.median(chunk() for _ in range(repeats))


class Reference:
    """Times samples between two chunks and keeps every chunk's time."""

    def __init__(self):
        self.chunks: list[float] = []

    def around(self, sample) -> tuple[float, float]:
        """Run ``sample()``, which returns its own seconds, between two chunks.

        Returns (raw seconds, seconds at the nominal host speed).
        """
        before = chunk()
        raw = sample()
        after = chunk()
        self.chunks += [before, after]
        return raw, raw * NOMINAL_S / ((before + after) / 2)
