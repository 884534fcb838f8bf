"""One set-up of a batch workload in a fresh interpreter.

``python3 -m perfbench.setup_probe <workload> <seed>`` imports the
simulator and generates every workload program the batch runs; the
caller times the whole process.
"""

from __future__ import annotations

import sys


def main(workload: str, seed: int) -> int:
    from perfbench import spec
    from repro.analysis import engine  # noqa: F401  (imported by the run too)
    from repro.analysis.runner import bench_workload

    for name, _policy, scale, _preset in spec.batch_points(workload, seed):
        bench_workload(name, scale)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
