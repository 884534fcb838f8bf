#!/usr/bin/env python3
"""Dump the payload of every golden point, one file per point.

The points are the golden set of ``tests/goldens.py``: the 15-point
default-preset sweep (AS, watersp, canneal x 5 policies at 4 threads x
1000 instructions), the zero-latency-L1, 8- and 32-thread points, the
observer-attached runs and the litmus suite.  The tier-1 golden tests
compare each payload's sha256 against ``tests/golden_digests.json``;
this script writes the payloads themselves, so a digest mismatch can be
diffed field by field against a dump taken before the change.

Usage::

    python scripts/dump_summaries.py OUTDIR
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # for the tests.goldens point list


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", type=pathlib.Path)
    args = parser.parse_args()

    from tests.goldens import POINTS

    args.outdir.mkdir(parents=True, exist_ok=True)
    for point_id, payload in POINTS.items():
        name = point_id.replace("/", "__").replace("+", "_")
        path = args.outdir / f"{name}.json"
        path.write_text(payload() + "\n")
        print(f"[wrote {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
