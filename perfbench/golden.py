"""Golden results every benchmark output is checked against.

``python3 -m perfbench.golden`` (from the repository root, with
``PYTHONPATH=src``) re-records ``perfbench/goldens/*.json`` by
simulating every point each batch workload can run at each golden
seed.  ``serve-mixed`` requests only ``sweep-8t`` points, so it is
checked against the ``sweep-8t`` goldens.  A
golden names the values it pins: ``cycles``, committed instructions and
the counters in ``counters``; counters the simulator adds later are
ignored, and any difference in a named value is a failed operation.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import Mapping, Optional

from perfbench import spec

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"

#: Aggregated (summed over cores) counters pinned for every point.
COUNTERS = (
    "committed_spin",
    "squashed_instrs",
    "squashes",
    "atomics_committed",
    "fences_omitted",
    "aq.alloc_stalls",
    "watchdog_timeouts",
    "dispatched",
    "loads_performed",
    "stores_performed",
    "mem.l1_hits",
    "mem.misses",
    "network.messages",
)


def observe(summary) -> dict:
    """The golden-comparable values of a ``ResultSummary``."""
    return {
        "cycles": summary.cycles,
        "committed": summary.committed_instructions,
        "counters": {name: summary.stats.aggregate(name) for name in COUNTERS},
    }


class Goldens:
    """The recorded results of one workload, keyed by point id."""

    def __init__(self, points: Mapping[str, dict]) -> None:
        self.points = dict(points)

    @staticmethod
    def load(workload: str) -> "Goldens":
        recorded = "sweep-8t" if workload == "serve-mixed" else workload
        path = GOLDEN_DIR / f"{recorded}.json"
        return Goldens(json.loads(path.read_text())["points"])

    def problems(self, pid: str, observed: Mapping) -> list[str]:
        """Differences between ``observed`` and the golden for ``pid``.

        ``observed`` may carry only ``cycles`` and ``committed`` (a
        streamed sweep event); ``counters`` are compared when present.
        """
        expected = self.points.get(pid)
        if expected is None:
            return [f"no golden for {pid}"]
        problems = [
            f"{pid} {key}={observed[key]} (golden {expected[key]})"
            for key in ("cycles", "committed")
            if observed[key] != expected[key]
        ]
        counters: Optional[Mapping] = observed.get("counters")
        if counters is not None:
            problems.extend(
                f"{pid} {name}={counters.get(name)} (golden {value})"
                for name, value in expected["counters"].items()
                if counters.get(name) != value
            )
        return problems


def _record() -> int:
    from repro.analysis.engine import prefetch

    for workload in ("sweep-8t", "paper-32t"):
        points = [
            p
            for seed in range(spec.GOLDEN_SEEDS)
            for p in spec.batch_points(workload, seed)
        ]
        summaries = prefetch(points, jobs=0)
        record = {
            "counters": list(COUNTERS),
            "points": {
                spec.point_id(p): observe(summaries[p])
                for p in sorted(set(points), key=spec.point_id)
            },
        }
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
        print(f"{path.name}: {len(record['points'])} points", flush=True)
    return 0


if __name__ == "__main__":
    os.environ["REPRO_CACHE"] = "off"
    sys.exit(_record())
