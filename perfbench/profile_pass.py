"""Deterministic call counts of one fixed simulation point, by module.

``python3 -m perfbench.profile_pass <workload> <seed>`` runs the
workload's fixed point once under ``cProfile`` in a fresh interpreter
(disk cache off, nothing memoized) and prints one JSON object: calls
and self time per module group.  Call counts repeat exactly across
processes and hash seeds; self-time shares are cProfile-inflated and
only indicative.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

#: Module group of each source file below ``src/repro`` (first match).
GROUPS = (
    ("common/events.py", "events"),
    ("uarch/core.py", "uarch.core"),
    ("uarch/spinff.py", "spinff"),
    ("uarch/", "uarch.other"),
    ("core/", "core"),
    ("mem/directory.py", "mem.directory"),
    ("mem/interconnect.py", "mem.interconnect"),
    ("mem/", "mem.hierarchy"),
    ("common/stats.py", "stats"),
)
GROUP_NAMES = tuple(dict.fromkeys(name for _, name in GROUPS)) + (
    "builtin",
    "other",
)


def group_of(filename: str) -> str:
    if filename == "~" or filename.startswith("<"):
        return "builtin"
    marker = f"{os.sep}repro{os.sep}"
    _, found, module = filename.replace("/", os.sep).rpartition(marker)
    if found:
        module = module.replace(os.sep, "/")
        for prefix, name in GROUPS:
            if module.startswith(prefix):
                return name
    return "other"


def grouped(profile: cProfile.Profile) -> dict[str, dict]:
    groups = {name: {"calls": 0, "self_s": 0.0} for name in GROUP_NAMES}
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        _primitive, calls, self_s, _cumulative, _callers = row
        group = groups[group_of(filename)]
        group["calls"] += calls
        group["self_s"] += self_s
    return groups


def profile_point(workload: str, seed: int) -> dict:
    from perfbench import spec
    from repro.analysis.runner import run_benchmark
    from repro.core.policy import policy_by_name

    point = spec.fixed_point(workload, seed)
    name, policy, scale, preset = point
    policy_obj = policy_by_name(policy)
    profile = cProfile.Profile()
    profile.enable()
    summary = run_benchmark(name, policy_obj, scale, core_preset=preset)
    profile.disable()
    groups = grouped(profile)
    return {
        "point": spec.point_id(point),
        "sim_cycles": summary.cycles,
        "groups": groups,
        "total_calls": sum(g["calls"] for g in groups.values()),
    }


if __name__ == "__main__":
    os.environ["REPRO_CACHE"] = "off"
    print(json.dumps(profile_point(sys.argv[1], int(sys.argv[2]))))
