"""Replay the known, unfixed TSO violations of the speculative policies.

Each ``known_violations/*.json`` file is one fuzz campaign's violating
case (``fuzz_generated(10, seed)``, the ``/v1/fuzz`` default size),
shrunk with :func:`repro.consistency.shrink.shrink_case` under ``free``
and written by :func:`~repro.consistency.shrink.write_repro`.  It
commits a non-TSO outcome under ``free``, ``free+fwd`` and
``versioned``.  The replays are strict xfails: a fix flips its case to
XPASS and fails the suite until the file moves to the clean corpus.

Diagnosis (CHANGES.md, ``FOUND:``): ``LoadQueue.oldest_ordering_violation``
exempts forwarded loads even after their source store has drained, so
such a load survives a later invalidation (seeds 491715936, 715171370).
In the seed 949434597 case the observing thread only loads, so that
one has a different cause.  The fenced designs run all three cleanly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.consistency.fuzz import run_case
from repro.consistency.shrink import load_repro
from repro.core.policy import policy_by_name

CASES = sorted((Path(__file__).parent / "known_violations").glob("*.json"))


def _replay(path: Path, policy_name: str):
    test, _, knobs = load_repro(path)
    return run_case(test, policy_by_name(policy_name), knobs)


def test_all_three_campaigns_present():
    assert [path.stem.split("_")[0] for path in CASES] == [
        "seed491715936",
        "seed715171370",
        "seed949434597",
    ]


@pytest.mark.xfail(strict=True, reason="known non-TSO outcome, not yet fixed")
@pytest.mark.parametrize("policy_name", ["free", "free+fwd", "versioned"])
@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_speculative_policy_commits_only_tso(path, policy_name):
    violations = _replay(path, policy_name).violations
    assert not violations, "; ".join(f"{v.kind}: {v.detail}" for v in violations)


@pytest.mark.parametrize("policy_name", ["baseline", "baseline+spec"])
@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_fenced_policies_stay_clean(path, policy_name):
    assert _replay(path, policy_name).ok
