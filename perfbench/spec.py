"""What each workload simulates, as a pure function of the seed.

The benchmark seed picks one of ``GOLDEN_SEEDS`` simulator seeds, so
every input the benchmark can generate has a recorded golden result
(``perfbench/goldens``).  Different seeds below ``GOLDEN_SEEDS`` give
different inputs; the same seed always gives the same ones.
"""

from __future__ import annotations

import random

from repro.analysis.engine import Point
from repro.analysis.runner import ExperimentScale
from repro.core.policy import ALL_POLICIES

WORKLOADS = ("sweep-8t", "paper-32t", "serve-mixed")

#: Set-ups timed per run (fresh interpreters or daemon spawns); the
#: median is reported.
SETUP_PROBES = 5

#: Simulator seeds with a recorded golden; the benchmark seed maps onto them.
GOLDEN_SEEDS = 16

#: AS, TPCC, canneal and radiosity are atomic-intensive; watersp and
#: ocean_cp are not, so spin fast-forward and the atomic queue are
#: measured both where they work and where they are pure overhead.
SWEEP_BENCHMARKS = ("AS", "TPCC", "canneal", "radiosity", "watersp", "ocean_cp")
POLICIES = tuple(policy.name for policy in ALL_POLICIES)

#: Paper machine width.  AS is a barrier kernel on which spin
#: fast-forward skips ~0.85M cycles per point; canneal parks little.
#: watersp is left out: its two 32-thread points alone take ~30 s.
PAPER_BENCHMARKS = ("AS", "canneal")
PAPER_POLICIES = ("baseline", "free+fwd")
PAPER_THREADS = 32
PAPER_INSTRS = 300

#: Fuzz campaigns every serve run issues, whatever the host speed; later
#: fuzz requests in the run repeat them in order.
FUZZ_CAMPAIGNS = 8

FIXED_POLICY = "free+fwd"


def sim_seed(seed: int) -> int:
    """The simulator seed a benchmark seed runs at."""
    return seed % GOLDEN_SEEDS


def sweep_scale(seed: int) -> ExperimentScale:
    """The default ``ExperimentScale`` (the archives' and the daemon's)."""
    return ExperimentScale(seed=sim_seed(seed))


def paper_scale(seed: int) -> ExperimentScale:
    return ExperimentScale(
        num_threads=PAPER_THREADS,
        instructions_per_thread=PAPER_INSTRS,
        seed=sim_seed(seed),
    )


def sweep_points(seed: int) -> list[Point]:
    scale = sweep_scale(seed)
    return [
        (name, policy, scale, "icelake")
        for name in SWEEP_BENCHMARKS
        for policy in POLICIES
    ]


def paper_points(seed: int) -> list[Point]:
    scale = paper_scale(seed)
    return [
        (name, policy, scale, "icelake")
        for name in PAPER_BENCHMARKS
        for policy in PAPER_POLICIES
    ]


def batch_points(workload: str, seed: int) -> list[Point]:
    return sweep_points(seed) if workload == "sweep-8t" else paper_points(seed)


def sweep_request(benchmarks, policies, seed: int) -> dict:
    """A ``/v1/sweep`` body at the default scale."""
    scale = sweep_scale(seed)
    return {
        "benchmarks": list(benchmarks),
        "policies": list(policies),
        "threads": scale.num_threads,
        "instrs": scale.instructions_per_thread,
        "seed": scale.seed,
    }


def warm_request(seed: int) -> dict:
    """The ``sweep-8t`` figure sweep, replayed from the daemon's cache."""
    return sweep_request(SWEEP_BENCHMARKS, POLICIES, sim_seed(seed))


def cold_requests(seed: int) -> list[dict]:
    """Novel cold sweeps, in the order a run with ``seed`` issues them.

    Each is one point of the figure sweep at a golden seed other than
    the warm sweep's, so the daemon has not cached it yet.  The seeds
    come in a seed-drawn order, each walked through the figure sweep in
    its own point order, so every run spreads its cold work alike over
    the benchmarks and policies.
    """
    seeds = [s for s in range(GOLDEN_SEEDS) if s != sim_seed(seed)]
    random.Random(f"cold-{seed}").shuffle(seeds)
    return [
        sweep_request((name,), (policy,), s)
        for s in seeds
        for policy in POLICIES
        for name in SWEEP_BENCHMARKS
    ]


def fuzz_request(seed: int, index: int) -> dict:
    """Campaign ``index`` of a run; ``tests`` is left at the daemon's default."""
    return {"seed": random.Random(f"fuzz-{seed}-{index}").randrange(1 << 30)}


def request_points(request: dict) -> list[Point]:
    scale = ExperimentScale(
        num_threads=request["threads"],
        instructions_per_thread=request["instrs"],
        seed=request["seed"],
    )
    return [
        (name, policy, scale, "icelake")
        for name in request["benchmarks"]
        for policy in request["policies"]
    ]


def fixed_point(workload: str, seed: int) -> Point:
    """The one point the profiled counting pass runs for a batch workload."""
    scale = sweep_scale(seed) if workload == "sweep-8t" else paper_scale(seed)
    return ("AS", FIXED_POLICY, scale, "icelake")


def point_id(point: Point) -> str:
    name, policy, scale, preset = point
    return (
        f"{name}/{policy}/{scale.num_threads}x{scale.instructions_per_thread}"
        f"/s{scale.seed}/{preset}"
    )
