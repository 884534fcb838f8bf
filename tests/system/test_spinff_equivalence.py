"""A/B equivalence of the spin fast-forward engine (repro.uarch.spinff).

Paper-scale runs (32 threads, barrier-heavy kernels) spend most of
their simulated time in spin-wait loops; the fast-forward engine parks
spinning cores and warps over the dead time.  These tests pin the
contract that makes that legal: the observable result — the canonical
``ResultSummary`` JSON — is byte-identical with the engine on and off
(``REPRO_NO_SPINFF=1``), at the full 32-thread machine width, with
observability attached and detached; the 32-thread canneal point is
also pinned to its absolute golden digest (:mod:`tests.goldens`).

The ``fastforward`` diagnostics (parks / spin_cycles_skipped /
time_warp_jumps) are deliberately *outside* the summary: they describe
how the run was simulated, not what it computed.  The guard tests here
assert they are non-zero on the fast leg, so the identity tests cannot
silently degrade into comparing two runs that both never parked.
"""

from __future__ import annotations

import pytest

from repro.common.config import icelake_config
from repro.core.policy import FREE_ATOMICS_FWD
from repro.system.simulator import run_workload
from repro.workloads.generator import WorkloadScale, generate_workload
from tests import goldens
from tests.goldens import PAPER_WIDTH, PAPER_WIDTH_INSTRS, paper_width_workload


def _run(workload, config, monkeypatch, leg: str, observability=None):
    """Run free+fwd with spin fast-forward on (``fast``) or off
    (``nospinff``, the reference)."""
    if leg == "nospinff":
        monkeypatch.setenv("REPRO_NO_SPINFF", "1")
    else:
        monkeypatch.delenv("REPRO_NO_SPINFF", raising=False)
    return run_workload(
        workload,
        policy=FREE_ATOMICS_FWD,
        config=config,
        observability=observability,
    )


@pytest.fixture(scope="module")
def canneal_32():
    """The 32-thread canneal golden point: workload, config, parking run."""
    workload = paper_width_workload("canneal", PAPER_WIDTH_INSTRS)
    config = icelake_config(num_cores=PAPER_WIDTH)
    with pytest.MonkeyPatch.context() as monkeypatch:
        return workload, config, _run(workload, config, monkeypatch, "fast")


def test_paper_width_canneal_identical_across_legs(canneal_32, monkeypatch):
    """32-thread canneal: the parking run matches the golden digest and
    the no-spinff reference byte for byte, and is proven to actually
    park (non-zero diagnostics)."""
    workload, config, fast = canneal_32
    assert fast.fastforward["parks"] > 0, "fast leg never parked: dead test"
    assert fast.fastforward["spin_cycles_skipped"] > 0
    fast_json = fast.summary().canonical_json()
    goldens.verify("paper-width/canneal", fast_json)
    nospinff = _run(workload, config, monkeypatch, "nospinff")
    assert nospinff.fastforward["parks"] == 0
    assert fast_json == nospinff.summary().canonical_json()


@pytest.mark.parametrize("bench_name", ["AS", "watersp"])
def test_barrier_kernels_identical(bench_name, monkeypatch):
    """The barrier-period kernels — the workloads whose spin time made
    the paper scale intractable before the engine.  16 threads, not 32:
    the reference leg's spin time grows roughly quadratically with
    thread count, and the 32-wide legs are already covered by the
    canneal tests above; 16 threads still parks these kernels dozens of
    times per run."""
    workload = generate_workload(
        bench_name,
        WorkloadScale(num_threads=16, instructions_per_thread=50, seed=0),
    )
    config = icelake_config(num_cores=16)
    fast = _run(workload, config, monkeypatch, "fast")
    assert fast.fastforward["parks"] > 0
    reference = _run(workload, config, monkeypatch, "nospinff")
    assert reference.fastforward["parks"] == 0
    assert (
        fast.summary().canonical_json()
        == reference.summary().canonical_json()
    )


def test_paper_width_obs_attached_identical(monkeypatch):
    """Obs-attached A/B at 32 threads: parking must not eat events.

    With observability attached the engine still parks (the per-lap
    event tape is re-synthesized on wake), so the full structured event
    stream, the per-stream counts, and the summary must all match the
    reference leg exactly.
    """
    from repro.obs.attach import Observability

    workload = paper_width_workload("canneal", 100)
    config = icelake_config(num_cores=PAPER_WIDTH)
    streams = {}
    for leg in ("fast", "nospinff"):
        obs = Observability()
        result = _run(workload, config, monkeypatch, leg, observability=obs)
        streams[leg] = (
            [
                (e.cycle, e.cat, e.kind, e.src, e.seq, e.dur, e.info)
                for e in obs.bus.ring
            ],
            dict(obs.bus.counts),
            result.summary().canonical_json(),
        )
    fast, reference = streams["fast"], streams["nospinff"]
    assert fast[0] == reference[0], "structured event streams diverge"
    assert fast[1] == reference[1], "per-stream event counts diverge"
    assert fast[2] == reference[2], "summaries diverge"


def test_time_warp_fires_at_paper_width(canneal_32):
    """The global time-warp must engage once spinning cores park —
    otherwise parked cores still cost one empty-bucket scan per cycle
    and the paper-scale speedup quietly evaporates."""
    assert canneal_32[2].fastforward["time_warp_jumps"] > 0
