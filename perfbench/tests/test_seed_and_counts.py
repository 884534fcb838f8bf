"""Seed plumbing, golden coverage, repeatable profiled counts."""

import json
import os
import subprocess
import sys

from perfbench import golden, layers, run, spec
from perfbench.tests.conftest import ROOT


def _summary(point):
    from repro.analysis.runner import run_benchmark
    from repro.core.policy import policy_by_name

    name, policy, scale, preset = point
    return run_benchmark(name, policy_by_name(policy), scale, core_preset=preset)


def test_same_seed_same_inputs_and_counts(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.analysis.runner import clear_cache

    point = spec.fixed_point("paper-32t", 3)
    first = golden.observe(_summary(point))
    clear_cache(infrastructure=True)
    assert golden.observe(_summary(point)) == first
    assert spec.sweep_points(3) == spec.sweep_points(3 + spec.GOLDEN_SEEDS)
    assert spec.cold_requests(3) == spec.cold_requests(3)


def test_different_seeds_different_inputs(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.analysis.runner import bench_workload

    def program_text(seed):
        name, _policy, scale, _preset = spec.fixed_point("sweep-8t", seed)
        return [repr(list(program)) for program in bench_workload(name, scale).programs]

    assert program_text(1) == program_text(1 + spec.GOLDEN_SEEDS)
    assert program_text(1) != program_text(2)
    assert golden.observe(_summary(spec.fixed_point("paper-32t", 1))) != golden.observe(
        _summary(spec.fixed_point("paper-32t", 2))
    )
    assert spec.warm_request(1) != spec.warm_request(2)
    assert spec.cold_requests(1) != spec.cold_requests(2)
    assert spec.fuzz_request(1, 0) != spec.fuzz_request(2, 0)


def test_goldens_cover_every_point_the_benchmark_runs():
    for workload in spec.WORKLOADS:
        recorded = golden.Goldens.load(workload).points
        for seed in range(spec.GOLDEN_SEEDS):
            if workload == "serve-mixed":
                requests = [spec.warm_request(seed)] + spec.cold_requests(seed)
                points = [p for r in requests for p in spec.request_points(r)]
            else:
                points = spec.batch_points(workload, seed)
            missing = [spec.point_id(p) for p in points if spec.point_id(p) not in recorded]
            assert not missing, (workload, seed, missing[:3])


def test_cold_requests_are_new_to_the_warm_cache():
    warm = set(spec.request_points(spec.warm_request(7)))
    cold = [p for r in spec.cold_requests(7) for p in spec.request_points(r)]
    assert len(cold) == len(set(cold)) and not warm & set(cold)


def _profile(hash_seed: str) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.profile_pass", "paper-32t", "5"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_profiled_counts_repeat_across_processes_and_hash_seeds():
    first, second = _profile("0"), _profile("4242")
    counts = layers.profile_metrics(first)
    assert counts == layers.profile_metrics(second)
    assert first["point"] == second["point"] == "AS/free+fwd/32x300/s5/icelake"
    assert counts["total.calls"] > 0 and counts["spinff.calls"] > 0


def test_benchmark_json_lists_what_the_run_prints():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]
    assert [w["name"] for w in config["workloads"]] == list(spec.WORKLOADS)
