"""Host speed, measured inside a run, to scale its end-to-end figures.

The CPUs of a shared host are not the run's alone: the same sweep took
12 s in one quarter hour and 20 s in the next on the 2-CPU host the
benchmark was defined on, and every wall time of the program moved
together, the serial ones as much as the parallel ones.  So a run
times a fixed pure-Python loop in its own process right before and
right after what it measures.
``HostSpeed.factor`` is ``REFERENCE_S`` divided by the median of those
samples: a figure times the factor is the figure at the reference host
speed.  The loop is the benchmark's own code, so no change to the
program moves it; the report prints the unscaled figures beside the
scaled ones.
"""

from __future__ import annotations

import time

from perfbench import measure

#: Iterations of the loop per process.
ITERATIONS = 700_000

#: Wall seconds of one round at the reference speed: about its median
#: on the 2-CPU defining host when that host ran at its faster speed.
REFERENCE_S = 0.1

#: Rounds timed at each calibration point.
ROUNDS = 3


def _loop() -> int:
    """Dict, list and integer work, like the simulator's inner loops."""
    table: dict[int, int] = {}
    ring = [0] * 64
    total = 0
    for i in range(ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        ring[i & 63] ^= key
        total += ring[(i * 7) & 63]
    return total


def _round() -> float:
    """Wall seconds of one run of the loop."""
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started


class HostSpeed:
    """Calibration samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time ``ROUNDS`` rounds now; call with no other work running."""
        self.samples.extend(_round() for _ in range(ROUNDS))

    @property
    def factor(self) -> float:
        """Reference over measured loop time: below 1 on a slow host."""
        return REFERENCE_S / measure.median(self.samples)
