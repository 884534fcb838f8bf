#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; ``--workload all`` runs the three in
turn.  Prints a human-readable report, then, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  End-to-end figures are
scaled to a reference host speed measured in the run
(``perfbench/calibrate.py``); the report prints them unscaled too.
The per-layer run measures
the workload untraced, then again with spans, then profiles its fixed
point; the spans and the profile go to ``.perfbench/trace-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (metric, unit) of the end-to-end metrics, reported with --trace 0.
#: Seconds scale by the host-speed factor, rates by its inverse.
#: Peak RSS is printed but not among them: it depends on how much work
#: the pool workers happened to do and varies by up to 50% between runs.
END_TO_END = (
    ("setup_s", "s"),
    ("result_s", "s"),
    ("ops_per_s", "1/s"),
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def say(line: str) -> None:
    print(f"[perfbench] {line}", flush=True)


def show(name: str, value: float, unit: str, note: str) -> None:
    say(f"{name:<30} {value:>14.6g} {unit:<9} {note}")


def subprocess_env() -> dict:
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def profile(workload: str, seed: int, env: dict) -> dict:
    """The profiled counting pass, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.profile_pass", workload, str(seed)],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=150,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# batch workloads


def run_batch_workload(args, ledger, run_dir: pathlib.Path, env: dict, speed) -> tuple[dict, dict]:
    from perfbench import batch, golden, layers, measure, spec
    from perfbench.tracer import Tracer, load_spans

    speed.sample()
    setups = batch.time_setups(args.workload, args.seed, str(ROOT), env)
    goldens = golden.Goldens.load(args.workload)
    points = spec.batch_points(args.workload, args.seed)
    speed.sample()
    plain = batch.measure_batches(args.workload, args.seed, args.seconds, ledger, goldens)
    speed.sample()
    walls = plain["walls"]
    result_s = measure.median(walls)
    wall_name = "sweep_wall_s" if args.workload == "sweep-8t" else "paper_wall_s"
    show("setup_s", measure.median(setups), "s", f"median of n={len(setups)} set-ups")
    show(wall_name, result_s, "s",
         f"median of n={len(walls)} batches of {len(points)} points, {plain['workers']} worker(s): "
         + ", ".join(f"{wall:.2f}" for wall in walls))
    e2e = {
        "setup_s": measure.median(setups),
        "result_s": result_s,
        "ops_per_s": len(points) / result_s if result_s else 0.0,
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    if not args.trace:
        return e2e, {}

    tracer = Tracer(run_dir / "spans").install()
    try:
        with tracer.span("perfbench.batches"):
            traced = batch.measure_batches(args.workload, args.seed, 0.0, ledger, goldens)
    finally:
        tracer.uninstall()
        tracer.flush()
    spans = load_spans(run_dir / "spans")
    prof = profile(args.workload, args.seed, env)
    per_layer = dict.fromkeys((n for n, _u, _b in layers.PER_LAYER), 0.0)
    per_layer.update(layers.profile_metrics(prof))
    per_layer.update(
        layers.sim_counts(plain["summaries"].values(), layers.fastforward_of(spans))
    )
    per_layer.update(layers.span_metrics(spans))
    per_layer["analysis.parallel_efficiency"] = traced["parallel_efficiency"]
    traced_wall = measure.median(traced["walls"])
    per_layer["trace.overhead_ratio"] = traced_wall / result_s if result_s else 0.0
    overhead = {wall_name: {"untraced": result_s, "traced": traced_wall}}
    return e2e, {"metrics": per_layer, "spans": spans, "profile": prof, "overhead": overhead}


# ----------------------------------------------------------------------
# serve-mixed


def run_serve_workload(args, ledger, run_dir: pathlib.Path, env: dict, speed) -> tuple[dict, dict]:
    from perfbench import golden, layers, measure, serve, spec
    from perfbench.tracer import Tracer, load_spans

    mix = serve.Mix(args.seed, ledger, golden.Goldens.load(args.workload), measure.nproc())
    # Time SETUP_PROBES spawns, each with an empty cache; measure on the last.
    speed.sample()
    setups = []
    for probe in range(spec.SETUP_PROBES):
        last = probe == spec.SETUP_PROBES - 1
        daemon, seconds = serve.spawn_ready(
            str(ROOT), env, run_dir / f"cache-{probe}"
        )
        setups.append(seconds)
        if not last:
            daemon.stop()
    try:
        plain = mix.measure(daemon, args.seconds, speed=speed)
    finally:
        daemon.stop()
    samples = plain["samples"]
    warm_ms = [1e3 * s for s in samples.warm_s]
    warm_tail = measure.tail(warm_ms)
    fuzz_rate = samples.fuzz_cases / sum(samples.fuzz_s) if samples.fuzz_s else 0.0
    requests = len(samples.warm_s) + len(samples.cold_s) + len(samples.fuzz_s)
    show("setup_s", measure.median(setups), "s", f"median of n={len(setups)} daemon spawns to /readyz")
    show("serve_warm_ms_p50", measure.median(warm_ms), "ms", f"n={len(warm_ms)} warm replays")
    if warm_tail is not None:
        show("serve_warm_ms_tail", warm_tail.value, "ms", f"{warm_tail.label()}, n={len(warm_ms)}")
    else:
        say(f"serve_warm_ms_tail: fewer than 20 samples (n={len(warm_ms)})")
    show("serve_cold_s_p50", measure.median(samples.cold_s), "s", f"n={len(samples.cold_s)} cold sweeps")
    show("serve_fuzz_cases_per_s", fuzz_rate, "1/s",
         f"{samples.fuzz_cases} cases in n={len(samples.fuzz_s)} campaigns")
    show("serve_requests_per_s", requests / samples.window_s, "1/s",
         f"{requests} requests from {plain['clients']} closed-loop clients")
    if samples.warm_not_cached:
        say(f"warm replays not fully served from cache: {samples.warm_not_cached}")
    e2e = {
        "setup_s": measure.median(setups),
        "result_s": measure.median(samples.warm_s),
        "ops_per_s": requests / samples.window_s,
        "peak_rss_mb": 0.0,
    }
    if not args.trace:
        e2e["peak_rss_mb"] = measure.peak_rss_mb()
        return e2e, {}

    # A fresh cache, so the traced prime simulates the warm sweep again.
    tracer = Tracer(run_dir / "spans")  # client spans; the daemon traces itself
    try:
        daemon, _seconds = serve.spawn_ready(
            str(ROOT), env, run_dir / "cache-traced", run_dir / "spans"
        )
        try:
            traced = mix.measure(daemon, args.seconds, tracer)
        finally:
            daemon.stop()
    finally:
        tracer.flush()
    e2e["peak_rss_mb"] = measure.peak_rss_mb()
    spans = load_spans(run_dir / "spans")
    warm_seed = f"/s{spec.sim_seed(args.seed)}"
    # No profiled pass: the warm path this workload times runs no simulation.
    per_layer = dict.fromkeys((n for n, _u, _b in layers.PER_LAYER), 0.0)
    per_layer.update(
        layers.sim_counts(
            traced["warm_summaries"],
            layers.fastforward_of(spans, keep=lambda p: p is not None and p.endswith(warm_seed)),
        )
    )
    per_layer.update(layers.span_metrics(spans))
    metrics = traced["metrics"]
    per_layer["serve.first_event_ms"] = 1e3 * measure.median(traced["samples"].warm_first_s)
    per_layer["serve.cache_hit_rate"] = float(metrics.get("cache_hit_rate") or 0.0)
    per_layer["serve.singleflight_hits"] = float(metrics.get("singleflight_hits", 0))
    per_layer["serve.requests_rejected"] = float(metrics.get("requests_rejected", 0))
    traced_warm = measure.median(traced["samples"].warm_s)
    per_layer["trace.overhead_ratio"] = traced_warm / e2e["result_s"] if e2e["result_s"] else 0.0
    overhead = {
        "serve_warm_ms_p50": {"untraced": 1e3 * e2e["result_s"], "traced": 1e3 * traced_warm},
        "serve_cold_s_p50": {
            "untraced": measure.median(samples.cold_s),
            "traced": measure.median(traced["samples"].cold_s),
        },
    }
    return e2e, {"metrics": per_layer, "spans": spans, "profile": None, "overhead": overhead}


# ----------------------------------------------------------------------


def report_trace(args, trace: dict) -> None:
    from perfbench import layers

    prof = trace["profile"]
    if prof is None:
        say("no profiled counting pass on this workload: *.calls read 0")
    else:
        total_self = sum(g["self_s"] for g in prof["groups"].values()) or 1.0
        say(f"profiled counting pass on fixed point {prof['point']} "
            f"({prof['sim_cycles']} simulated cycles):")
        for group, row in prof["groups"].items():
            say(f"  {group + '.calls':<24} {row['calls']:>12}  self-time share "
                f"{100.0 * row['self_s'] / total_self:5.1f}%")
    table = layers.span_table(trace["spans"])
    say("spans (count, inclusive s, self s):")
    for row in table:
        say(f"  {row['name']:<28} {row['count']:>7} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for name, pair in trace["overhead"].items():
        ratio = pair["traced"] / pair["untraced"] if pair["untraced"] else 0.0
        say(f"tracing overhead on {name}: untraced {pair['untraced']:.6g}, "
            f"traced {pair['traced']:.6g} (x{ratio:.3f})")
    out = ROOT / ".perfbench" / f"trace-{args.workload}-s{args.seed}.json"
    out.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "profile": prof,
         "span_table": table, "overhead": trace["overhead"], "spans": trace["spans"]}
    ))
    say(f"spans written to {out.relative_to(ROOT)}")
    for name, unit, _better in layers.PER_LAYER:
        show(name, trace["metrics"][name], unit, "")


def run_all(args, workloads) -> int:
    """Run every workload in turn, each in its own interpreter."""
    codes = [
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        ).returncode
        for workload in workloads
    ]
    return max(codes)


def main(argv=None) -> int:
    started = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]  # not perfbench/ itself
    from perfbench import calibrate, layers, measure, spec

    args = parse_args(argv, spec.WORKLOADS)
    if args.workload == "all":
        return run_all(args, spec.WORKLOADS)
    if args.workload != "serve-mixed":
        os.environ["REPRO_CACHE"] = "off"  # batch points always simulate

    env = subprocess_env()
    run_dir = ROOT / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = measure.Ledger()
    speed = calibrate.HostSpeed()
    say(f"workload={args.workload} seed={args.seed} sim_seed={spec.sim_seed(args.seed)} "
        f"seconds={args.seconds:g} trace={args.trace} nproc={measure.nproc()}")
    try:
        if args.workload == "serve-mixed":
            e2e, trace = run_serve_workload(args, ledger, run_dir, env, speed)
        else:
            e2e, trace = run_batch_workload(args, ledger, run_dir, env, speed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    show("peak_rss_mb", e2e["peak_rss_mb"], "MB", "largest process of the run")
    show("error_ratio", ledger.error_ratio, "ratio", f"{ledger.failed}/{ledger.attempted} operations failed")
    for reason in ledger.reasons:
        say(f"failure: {reason}")
    factor = speed.factor
    show("host_speed_factor", factor, "", f"{calibrate.REFERENCE_S} s / median of "
         f"n={len(speed.samples)} calibration rounds")
    scaled = {
        name: e2e[name] * factor if unit == "s" else e2e[name] / factor
        for name, unit in END_TO_END
    }
    for name, unit in END_TO_END:
        show(name, scaled[name], unit, f"at reference host speed (unscaled {e2e[name]:.6g})")
    if args.trace:
        report_trace(args, trace)
        metrics = {name: {"value": trace["metrics"][name], "unit": unit}
                   for name, unit, _better in layers.PER_LAYER}
    else:
        metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END}
    say(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
