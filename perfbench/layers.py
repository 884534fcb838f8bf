"""Per-layer metrics: profiled call counts, simulated counts, spans.

Every workload reports every metric below; a layer the workload never
calls reads 0.  Which end-to-end metric each should move is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from perfbench import measure, profile_pass, tracer

#: (metric, unit, better) for every per-layer metric, in report order.
PROFILE_METRICS = [
    (f"{group}.calls", "count", "lower")
    for group in profile_pass.GROUP_NAMES
] + [("total.calls", "count", "lower"), ("calls_per_sim_cycle", "calls/cycle", "lower")]

#: (metric, aggregated summary counter or fastforward key, better).
SIM_COUNTS = (
    ("events.sim_cycles", "cycles", "lower"),
    ("events.time_warp_jumps", "ff:time_warp_jumps", "higher"),
    ("uarch.committed", "committed", "lower"),
    ("uarch.committed_spin", "committed_spin", "lower"),
    ("uarch.squashed_instrs", "squashed_instrs", "lower"),
    ("spinff.parks", "ff:parks", "higher"),
    ("spinff.spin_cycles_skipped", "ff:spin_cycles_skipped", "higher"),
    ("core.atomics_committed", "atomics_committed", "higher"),
    ("core.fences_omitted", "fences_omitted", "higher"),
    ("core.aq_alloc_stalls", "aq.alloc_stalls", "lower"),
    ("core.watchdog_timeouts", "watchdog_timeouts", "lower"),
    ("mem.l1_hits", "mem.l1_hits", "higher"),
    ("mem.misses", "mem.misses", "lower"),
    ("mem.network_messages", "network.messages", "lower"),
)

SPAN_METRICS = [
    ("workloads.generate_s", "s", "lower"),
    ("system.build_s", "s", "lower"),
    ("system.run_s", "s", "lower"),
    ("system.run_us_per_sim_cycle", "us/cycle", "lower"),
    ("system.summarize_s", "s", "lower"),
    ("analysis.point_s_p50", "s", "lower"),
    ("analysis.point_s_tail", "s", "lower"),
    ("analysis.parallel_efficiency", "ratio", "higher"),
    ("cache.get_ms", "ms", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("serve.first_event_ms", "ms", "lower"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.singleflight_hits", "count", "higher"),
    ("serve.requests_rejected", "count", "lower"),
    ("consistency.case_ms", "ms", "lower"),
    ("consistency.check_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

PER_LAYER = (
    PROFILE_METRICS
    + [(name, "count", better) for name, _source, better in SIM_COUNTS]
    + SPAN_METRICS
)


def profile_metrics(profile: Mapping) -> dict[str, float]:
    metrics = {
        f"{group}.calls": float(row["calls"])
        for group, row in profile["groups"].items()
    }
    metrics["total.calls"] = float(profile["total_calls"])
    metrics["calls_per_sim_cycle"] = profile["total_calls"] / profile["sim_cycles"]
    return metrics


def sim_counts(summaries: Iterable, fastforward: Sequence[Mapping]) -> dict[str, float]:
    summaries = list(summaries)
    metrics = {}
    for name, source, _better in SIM_COUNTS:
        if source.startswith("ff:"):
            key = source[3:]
            value = sum(ff.get(key, 0) for ff in fastforward)
        elif source == "cycles":
            value = sum(s.cycles for s in summaries)
        else:
            value = sum(s.stats.aggregate(source) for s in summaries)
        metrics[name] = float(value)
    return metrics


def _durations(spans: Sequence[Mapping], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def span_metrics(spans: Sequence[Mapping]) -> dict[str, float]:
    """The span-derived metrics (the serve and overhead ones excluded).

    ``analysis.point_s_tail`` falls back to the slowest point when there
    are too few points for a percentile with ten samples beyond it.
    """
    run_cycles = sum(
        s["attrs"].get("cycles", 0) for s in spans if s["name"] == "system.System.run"
    )
    run_s = sum(_durations(spans, "system.System.run"))
    points = _durations(spans, "analysis.run_benchmark")
    point_tail = measure.tail(points)
    return {
        "workloads.generate_s": sum(_durations(spans, "workloads.generate_workload")),
        "system.build_s": sum(_durations(spans, "system.System.__init__")),
        "system.run_s": run_s,
        "system.run_us_per_sim_cycle": 1e6 * run_s / run_cycles if run_cycles else 0.0,
        "system.summarize_s": sum(_durations(spans, "system.summarize")),
        "analysis.point_s_p50": measure.median(points),
        "analysis.point_s_tail": (
            point_tail.value if point_tail else (max(points) if points else 0.0)
        ),
        "cache.get_ms": 1e3 * measure.median(_durations(spans, "cache.get")),
        "cache.put_ms": 1e3 * measure.median(_durations(spans, "cache.put")),
        "consistency.case_ms": 1e3 * measure.median(
            _durations(spans, "consistency.run_case")
        ),
        "consistency.check_ms": 1e3 * measure.median(
            _durations(spans, "consistency.admissible")
        ),
    }


def span_table(spans: Sequence[Mapping]) -> list[dict]:
    """Per span name: call count, inclusive and self seconds."""
    own = tracer.self_times(list(spans))
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"name": span["name"], "count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return sorted(table.values(), key=lambda row: -row["self_s"])


def fastforward_of(spans: Sequence[Mapping], keep=lambda point: True) -> list[dict]:
    """The fastforward counts of every traced ``System.run``.

    ``keep`` filters by the enclosing ``run_benchmark`` span's point.
    """
    points = {
        s["id"]: s["attrs"].get("point")
        for s in spans
        if s["name"] == "analysis.run_benchmark"
    }
    return [
        s["attrs"]
        for s in spans
        if s["name"] == "system.System.run" and keep(points.get(s["parent"]))
    ]
