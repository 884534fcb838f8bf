"""Absolute golden digests of the simulator's observable outputs.

Each point names one run whose observable output — the canonical
``ResultSummary`` JSON, plus the committed traces and observations of
litmus points and the event stream of observer-attached points — is
serialized to a *payload* and pinned by its sha256 in
``golden_digests.json``.  The points cover every path the simulator
selects from its inputs: the default-preset sweep, the zero-latency L1
that arms the synchronous hit path, contended atomics under every
policy, 8 cores, 32 cores with spin fast-forward parking, observers
wrapping the pipeline stages, and the litmus suite.  This is the only
definition of the point list (``scripts/dump_summaries.py`` dumps the
same payloads for diffing).  A digest moves only when simulated
behaviour does; when that is intended, re-record every point, commit
the file and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from functools import partial

from repro.common.config import CacheConfig, icelake_config
from repro.consistency.litmus import LITMUS_TESTS
from repro.core.policy import (
    ALL_POLICIES,
    FREE_ATOMICS,
    FREE_ATOMICS_FWD,
    policy_by_name,
)
from repro.system.simulator import run_workload
from repro.system.trace import operations_to_jsonable
from repro.workloads.generator import WorkloadScale, generate_workload
from tests.conftest import counter_workload, small_system_config

DIGESTS_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
RECORD_COMMAND = "PYTHONPATH=src python -m tests.goldens"

POLICY_NAMES = tuple(policy.name for policy in ALL_POLICIES)
#: Default-preset sweep (icelake, 4 threads x 1000): benchmark x policy.
SWEEP_BENCHMARKS = ("AS", "watersp", "canneal")
#: free+fwd on the zero-latency L1, 2 threads x 300: (benchmark, seed).
ZERO_L1_POINTS = [(b, s) for s in (1, 7, 99) for b in ("AS", "canneal")]
#: AS on the zero-latency L1 under every policy, 2 threads x 250.
ALL_POLICY_SEEDS = (3, 11)
#: Observer-attached free+fwd on the zero-latency L1, 2 x 300, seed 9.
OBS_BENCHMARKS = ("AS", "watersp")
#: free+fwd on the zero-latency L1 at 8 threads x 200: (benchmark, seed).
EIGHT_THREAD_POINTS = [("AS", 13), ("watersp", 21)]
#: Paper machine width: canneal, free+fwd, icelake, 32 threads x 150.
PAPER_WIDTH, PAPER_WIDTH_INSTRS = 32, 150


def zero_hit_config(num_cores: int):
    """Small system whose L1D hits take zero cycles (arms the sync path)."""
    config = small_system_config(num_cores)
    l1d = CacheConfig("L1D", 4 * 4 * 64, 4, 0, 0)
    return config.replace(memory=dataclasses.replace(config.memory, l1d=l1d))


def generated(bench: str, threads: int, instrs: int, seed: int = 0):
    return generate_workload(bench, WorkloadScale(threads, instrs, seed))


def paper_width_workload(bench: str, instrs: int):
    return generated(bench, PAPER_WIDTH, instrs)


def summary_payload(workload, policy, config, observability=None) -> str:
    result = run_workload(
        workload, policy=policy, config=config, observability=observability
    )
    return result.summary().canonical_json()


def sweep_payload(bench: str, policy_name: str) -> str:
    from repro.analysis.runner import ExperimentScale, simulate_point

    scale = ExperimentScale(num_threads=4, instructions_per_thread=1000)
    return simulate_point(bench, policy_by_name(policy_name), scale).canonical_json()


def litmus_payload(name: str, policy_name: str) -> str:
    """Observations, committed traces and summary of one litmus run."""
    test = LITMUS_TESTS[name]
    result = run_workload(
        test.build([0, 3] + [0] * max(0, test.num_threads - 2)),
        policy=policy_by_name(policy_name),
        config=icelake_config(num_cores=test.num_threads),
        trace=True,
    )
    return json.dumps(
        {
            "observations": {
                label: result.read_word(addr)
                for label, addr in test.observations.items()
            },
            "traces": operations_to_jsonable(result.traces),
            "summary": result.summary().canonical_json(),
        },
        sort_keys=True,
    )


def observed_payload(workload, policy, config) -> str:
    """Event stream, exact per-stream counts and summary (incl. health)."""
    from repro.obs.attach import Observability

    obs = Observability()
    summary = summary_payload(workload, policy, config, observability=obs)
    events = [
        [e.cycle, e.cat, e.kind, e.src, e.seq, e.dur, e.info] for e in obs.bus.ring
    ]
    return json.dumps(
        {"events": events, "counts": obs.bus.counts, "summary": summary},
        sort_keys=True,
    )


def _rmw_rmw_observed() -> str:
    from tests.integration.test_deadlocks import rmw_rmw_workload

    workload, _ = rmw_rmw_workload(iterations=10)
    config = small_system_config(2, watchdog_cycles=400)
    return observed_payload(workload, FREE_ATOMICS, config)


def _points() -> dict:
    fwd, zero2 = FREE_ATOMICS_FWD, zero_hit_config(2)
    points = {}
    for bench in SWEEP_BENCHMARKS:
        for name in POLICY_NAMES:
            points[f"sweep/{bench}/{name}"] = partial(sweep_payload, bench, name)
    for bench, seed in ZERO_L1_POINTS:
        points[f"zero-l1/{bench}-{seed}"] = lambda b=bench, s=seed: summary_payload(
            generated(b, 2, 300, s), fwd, zero2
        )
    for name in POLICY_NAMES:
        points[f"counter-3x20/{name}"] = lambda n=name: summary_payload(
            counter_workload(3, 20), policy_by_name(n), zero_hit_config(3)
        )
    points["default-preset/watersp-5"] = lambda: summary_payload(
        generated("watersp", 2, 300, 5), fwd, small_system_config(2)
    )
    for seed in ALL_POLICY_SEEDS:
        for name in POLICY_NAMES:
            points[f"all-policies/AS-{seed}/{name}"] = lambda s=seed, n=name: (
                summary_payload(generated("AS", 2, 250, s), policy_by_name(n), zero2)
            )
    for test in sorted(LITMUS_TESTS):
        for name in POLICY_NAMES:
            points[f"litmus/{test}/{name}"] = partial(litmus_payload, test, name)
    for bench in OBS_BENCHMARKS:
        points[f"observed/{bench}-9"] = lambda b=bench: observed_payload(
            generated(b, 2, 300, 9), fwd, zero2
        )
    points["observed/counter-3x20"] = lambda: observed_payload(
        counter_workload(3, 20), fwd, small_system_config(3, watchdog_cycles=80)
    )
    points["observed/rmw-rmw-watchdog"] = _rmw_rmw_observed
    for bench, seed in EIGHT_THREAD_POINTS:
        points[f"eight-thread/{bench}-{seed}"] = lambda b=bench, s=seed: (
            summary_payload(generated(b, 8, 200, s), fwd, zero_hit_config(8))
        )
    points["paper-width/canneal"] = lambda: summary_payload(
        paper_width_workload("canneal", PAPER_WIDTH_INSTRS),
        fwd,
        icelake_config(num_cores=PAPER_WIDTH),
    )
    return points


#: Point id -> payload thunk: the one definition of the golden set.
POINTS = _points()


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def recorded() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def verify(point_id: str, payload: str | None = None) -> str:
    """Assert ``point_id`` still matches its recorded digest.

    Runs the point unless the caller passes the payload of its own run;
    returns the payload for further checks on the same run.
    """
    if payload is None:
        payload = POINTS[point_id]()
    assert digest(payload) == recorded().get(point_id), (
        f"golden {point_id!r} moved: simulated behaviour changed.  If that "
        f"is intended, re-record with {RECORD_COMMAND} and say why in CHANGES.md"
    )
    return payload


def mismatches() -> list:
    """Ids of the points whose payload no longer matches its digest."""
    expected = recorded()
    return [pid for pid, run in POINTS.items() if expected.get(pid) != digest(run())]


if __name__ == "__main__":
    digests = {pid: digest(run()) for pid, run in POINTS.items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} golden digests in {DIGESTS_PATH}")
