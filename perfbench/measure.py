"""Sample statistics and failure accounting shared by every workload."""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples ranked above it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in (0, 100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with enough samples beyond it."""

    pct: float
    value: float
    beyond: int

    def label(self) -> str:
        return f"p{self.pct:g} ({self.beyond} samples beyond)"


def tail(samples: Sequence[float]) -> Optional[Tail]:
    """Highest percentile of ``samples`` with >= 10 samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        above = beyond(len(samples), pct)
        if above >= TAIL_MIN_BEYOND:
            return Tail(pct, percentile(samples, pct), above)
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons.

    A failure is an exception, a non-2xx response (429 included), a
    reply with ``ok: false``, a fuzz violation or a golden mismatch.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, problems: Sequence[str], what: str) -> None:
        """Count one operation, failed when ``problems`` is non-empty."""
        if problems:
            self.fail(f"{what}: {'; '.join(problems)}")
        else:
            self.ok()

    def reply(
        self,
        status: int,
        payload: Optional[dict],
        what: str,
        problems: Sequence[str] = (),
    ) -> bool:
        """Account one HTTP reply; True when it counts as a success.

        ``problems`` are golden mismatches found in the reply's body.
        """
        if not 200 <= status < 300:
            self.fail(f"{what}: HTTP {status}")
        elif payload is not None and payload.get("num_violations", 0):
            self.fail(f"{what}: {payload['num_violations']} fuzz violation(s)")
        elif payload is not None and payload.get("ok") is False:
            self.fail(f"{what}: ok is false")
        else:
            self.check(problems, what)
            return not problems
        return False

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
