"""The batch workloads: ``sweep-8t`` (pool) and ``paper-32t`` (serial).

Both resolve their points through ``analysis.engine.prefetch``: with
``nproc`` workers for ``sweep-8t``, and with one for ``paper-32t``,
which runs ``run_benchmark`` on each point in this process.

Each batch is a fixed set of points resolved from an empty result memo
with the disk cache off, so every point is simulated.  A run repeats
the batch while another one fits in its time budget (at least once)
and reports the median batch wall time.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import threading
import time

from perfbench import golden, measure, spec
from perfbench.measure import Ledger
from repro.analysis import engine, runner

SETUP_TIMEOUT_S = 120.0


def time_setups(workload: str, seed: int, root: str, env: dict) -> list[float]:
    """Wall seconds of ``spec.SETUP_PROBES`` import-and-generate set-ups."""
    samples = []
    for _ in range(spec.SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_probe", workload, str(seed)],
            cwd=root,
            env=env,
        )
        # A blocking wait: ``wait(timeout=...)`` polls in up to 50 ms steps,
        # which would quantize the sample.  The timer bounds a hung probe.
        guard = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        guard.start()
        try:
            code = probe.wait()
        finally:
            guard.cancel()
        samples.append(time.perf_counter() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, probe.args)
    return samples


def fresh_programs(points) -> None:
    """Drop every memo, then generate each point's program anew.

    Run before each batch, untimed, so that every batch starts like a
    fresh process: programs carry their own decode caches, which a
    second batch would otherwise reuse.  Pool workers are forked after
    this and inherit the programs.
    """
    runner.clear_cache(infrastructure=True)
    for name, _policy, scale, _preset in points:
        runner.bench_workload(name, scale)


def check(points, summaries: dict, goldens: golden.Goldens, ledger: Ledger) -> None:
    for point in points:
        pid = spec.point_id(point)
        summary = summaries.get(point)
        if summary is None:
            ledger.fail(f"{pid}: no result")
        else:
            ledger.check(goldens.problems(pid, golden.observe(summary)), pid)


def measure_batches(
    workload: str, seed: int, seconds: float, ledger: Ledger, goldens: golden.Goldens
) -> dict:
    """Timed batches; returns walls, CPU use and the last summaries."""
    points = spec.batch_points(workload, seed)
    jobs = engine.resolve_jobs(0) if workload == "sweep-8t" else 1
    workers = engine.effective_jobs(jobs, len(points))
    walls: list[float] = []
    cpu: list[float] = []
    summaries: dict = {}
    # Pool workers are children, joined by prefetch before it returns.
    who = resource.RUSAGE_CHILDREN if workers > 1 else resource.RUSAGE_SELF
    started = time.perf_counter()
    while True:
        fresh_programs(points)
        cpu_before = measure.cpu_seconds(who)
        batch_start = time.perf_counter()
        try:
            summaries = engine.prefetch(points, jobs=jobs)
        except Exception as exc:  # a failed batch fails all its points
            ledger.fail(f"batch raised {type(exc).__name__}: {exc}", len(points))
            break
        walls.append(time.perf_counter() - batch_start)
        cpu.append(measure.cpu_seconds(who) - cpu_before)
        check(points, summaries, goldens, ledger)
        if time.perf_counter() - started + measure.median(walls) > seconds:
            break
    efficiency = (
        measure.median([c / (w * workers) for c, w in zip(cpu, walls)]) if walls else 0.0
    )
    return {
        "points": points,
        "walls": walls,
        "workers": workers,
        "parallel_efficiency": efficiency,
        "summaries": summaries,
    }
