"""Golden-digest tests: the simulator's one implementation, pinned.

The core, LSQ, atomic queue, hierarchy and crossbar each have exactly
one implementation — batched windows, indexed queries, the zero-event
L1-hit completion (armed only at zero L1 hit latency), the no-op fill
elision and the per-bank delivery batches.  These tests hold the paths
they select from their inputs to the digests in
``tests/golden_digests.json`` (:mod:`tests.goldens` lists the points
and the re-record command), so any moved event order, stat, timing,
committed trace or observation fails loudly — including a bug that an
A/B comparison of two legs sharing the buggy code would miss.  The ISA
reference interpreter (``tests/properties/test_pipeline_vs_reference.py``)
and the TSO checker remain the independent oracles.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.consistency.litmus import LITMUS_TESTS
from repro.core.policy import ALL_POLICIES, FREE_ATOMICS_FWD
from repro.system.simulator import System
from tests import goldens
from tests.conftest import counter_workload

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("bench", goldens.SWEEP_BENCHMARKS)
@pytest.mark.parametrize("policy", goldens.POLICY_NAMES)
def test_sweep_point_matches_golden(bench, policy):
    """The default-preset points ``scripts/dump_summaries.py`` dumps."""
    goldens.verify(f"sweep/{bench}/{policy}")


@pytest.mark.parametrize("bench_name,seed", goldens.ZERO_L1_POINTS)
def test_randomized_workloads_identical_with_zero_latency_l1(bench_name, seed):
    goldens.verify(f"zero-l1/{bench_name}-{seed}")


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_contended_counter_identical_across_policies(policy):
    goldens.verify(f"counter-3x20/{policy.name}")


def test_default_preset_identical():
    """hit_latency=4 presets only elide no-op fills."""
    goldens.verify("default-preset/watersp-5")


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", goldens.ALL_POLICY_SEEDS)
def test_randomized_workloads_identical_all_policies(policy, seed):
    """LSQ indexes, retry queues and quiescing take policy-dependent
    branches (fenced atomics, speculative loads, atomic forwarding), so
    each policy gets its own digest."""
    goldens.verify(f"all-policies/AS-{seed}/{policy.name}")


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_suite_identical_traces(name, policy):
    """Committed traces pin the exact interleaving the consistency
    checker sees, so reordered commits fail here even when aggregate
    stats survive."""
    payload = goldens.verify(f"litmus/{name}/{policy.name}")
    assert not LITMUS_TESTS[name].forbidden(json.loads(payload)["observations"])


@pytest.mark.parametrize("bench_name", goldens.OBS_BENCHMARKS)
def test_obs_attached_event_streams_identical(bench_name):
    """Observer-attached: every wrapped stage must see every invocation,
    so the event stream, per-stream counts and summary (with
    ``meta['health']``) are pinned byte for byte."""
    payload = json.loads(goldens.verify(f"observed/{bench_name}-9"))
    assert "health" in json.loads(payload["summary"])["meta"]


@pytest.mark.parametrize("bench_name,seed", goldens.EIGHT_THREAD_POINTS)
def test_randomized_8_thread_workloads_identical(bench_name, seed):
    """8 threads reach cross-core interleavings (directory traffic, lock
    convoys, idle-core quiescing) the 2-thread points cannot."""
    goldens.verify(f"eight-thread/{bench_name}-{seed}")


def test_sync_fastpath_actually_fires():
    """Guard against the sync hit path silently never arming."""
    system = System(
        counter_workload(2, 15),
        policy=FREE_ATOMICS_FWD,
        config=goldens.zero_hit_config(2),
    )
    assert all(core.hierarchy._fastpath for core in system.cores)
    system.run()
    assert system.stats.aggregate("l1_hits") > 0


def test_digest_file_covers_exactly_the_point_list():
    assert sorted(goldens.recorded()) == sorted(goldens.POINTS)


def test_goldens_independent_of_hash_seed():
    """Every digest reproduces in fresh interpreters under two fixed
    string-hash seeds, so no digest can flake across hosts."""
    script = (
        "import sys, tests.goldens as g\n"
        "bad = g.mismatches(); print(bad); sys.exit(bool(bad))"
    )
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")])
    )
    runs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for seed in ("0", "2654435761")
    }
    for seed, proc in runs.items():
        output = proc.communicate(timeout=600)[0]
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {output}"
