"""Host-speed reference for the benchmark's timings.

The host this benchmark was built on (a 2-vCPU VM) runs the same Python
code at two speeds almost 2x apart, switching sometimes several times a
second and sometimes staying for a minute, and a compute-only loop
speeds up and slows down with it.  Medians of raw CPU time then move by
up to 30 % between runs of identical work.

So the benchmark times a fixed pure-Python *reference loop* right before
and right after every action (and around every set-up), and reports each
timing rescaled to a host on which that loop takes :data:`REFERENCE_MS`
of CPU time:

    reported = measured * REFERENCE_MS / (reference loop time around it)

The host switches speed within a fraction of a second, so only the loops
adjacent to an action say how fast it ran; a median over the
neighbouring actions' pairs keeps one disturbed loop from skewing it.

The loop is part of the benchmark, not of the program under test, so a
change to the program moves the reported timings exactly as it moves the
measured ones.  Raw timings are printed next to the rescaled ones.
"""

from __future__ import annotations

import statistics
from time import process_time
from typing import List

#: CPU milliseconds the reference loop is rescaled to.
REFERENCE_MS = 10.0

#: Neighbouring actions on each side whose reference times an action's
#: factor also uses.
RADIUS = 1


def reference_loop() -> int:
    """Dictionary, tuple and string work of the kind the engine does."""
    counts: dict = {}
    total = 0
    for i in range(20_000):
        key = ("k", i % 512)
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    return total


def reference_ms() -> float:
    """CPU milliseconds one run of :func:`reference_loop` takes now."""
    start = process_time()
    reference_loop()
    return (process_time() - start) * 1000


def factors(reference: List[float], radius: int = RADIUS) -> List[float]:
    """Per sample, :data:`REFERENCE_MS` over the median reference time of
    the samples within *radius* of it."""
    return [
        REFERENCE_MS
        / statistics.median(reference[max(0, i - radius) : i + radius + 1])
        for i in range(len(reference))
    ]
