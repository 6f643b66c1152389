"""Fiber enumeration on growing lattice boxes, one JSON line per case.

    python3 tools/fiber_boxes.py > fibers.jsonl

Run from anywhere; planejac is imported from the checkout's src.  Each case
runs ``enumerate_fiber_points(P, k, LatticeBox(B, m))`` REPEAT times in its
own process, stopped after TIMEOUT_S seconds of work; "seconds" is the best
of those times, without the process's imports.  The cases are
makar_limanov's P at k in {0, 1}, m in {1, 2} and B in {6, 30, 60}, and two
slices that no root bound prunes: (y - 3)^17 at B = 6 and y^2 - x^10 at
B = 20.

Every line has "P", "power", "k", "m", "B", "seconds" and "status" ("ok",
"timeout" or "error"); the fiber is that of P^power = k.  An "ok" line also
has the fiber's "count" and "digest", a hash of its points and line fibers.
Comparing the files of two checkouts line by line, without "seconds", checks
that they find the same points.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys

from seeded_maps import ROOT, run_in_child

TIMEOUT_S = 60
REPEAT = 5
MAKAR_LIMANOV_P = "x^6*y^4 + 2*x^2*y"
#: (P, power, k, m, B)
CASES = ([(MAKAR_LIMANOV_P, 1, k, m, B) for B in (6, 30, 60) for m in (1, 2) for k in (0, 1)]
         + [("y - 3", 17, 0, 1, 6), ("y^2 - x^10", 1, 0, 1, 20)])


def _prepare(case):
    from planejac.lattice import LatticeBox, enumerate_fiber_points
    from planejac.poly import parse_expression

    text, power, k, m, B = case
    P, box = parse_expression(text) ** power, LatticeBox(B, m)

    def work():
        fiber = enumerate_fiber_points(P, k, box).to_json()
        digest = hashlib.sha256(json.dumps(fiber, sort_keys=True).encode()).hexdigest()
        return {"status": "ok", "count": fiber["count"], "digest": digest[:16]}
    return work


def run_case(ctx, case):
    """The line of one case, computed in a child process."""
    line = dict(zip(("P", "power", "k", "m", "B"), case))
    return {**line, **run_in_child(ctx, _prepare, case, TIMEOUT_S, REPEAT)}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    ctx = multiprocessing.get_context("spawn")
    for case in CASES:
        print(json.dumps(run_case(ctx, case)), flush=True)


if __name__ == "__main__":
    main()
