"""The exceptional pipeline on 60 seeded maps, one JSON line per seed.

    python3 tools/seeded_maps.py [--src DIR] > seeded.jsonl

Run from anywhere; planejac is imported from the src of the checkout DIR
(default: this one) and the generator from this checkout's tests/support.py,
so two checkouts run on the same maps.  Seed s gives the map (P, Q) of two
``random_poly(rng, max_deg=2, n_terms=4, int_coeffs=True)`` draws with
``rng = random.Random(s)``, for s = 0..59.  Each map runs
``exceptional_report`` in its own process, stopped after TIMEOUT_S seconds
of work; "seconds" is that work's time, without the process's imports.

Every line has "seed", "status" and "seconds".  The status is "ok",
"zero-jacobian", "timeout" or "error" (with the exception in "error").  An
"ok" line also has the critical-value curve ("defining", that is
``critical_values(F).defining``), A_F ("curve"), "deg_geo", the targets
and preimage counts of the degree samples ("degree_targets",
"degree_counts"), and the slice of each certification verdict
("verdict_slices": its fixed coordinate and value, its number of points and
their preimage count, or null inside the critical values).  Comparing the
files of two checkouts line by line, without "seconds"
(tools/same_answers.py), checks that they compute the same answers from the
same points.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(60)
TIMEOUT_S = 20


def seeded_map(seed):
    from planejac.poly import PolyMap
    from support import random_poly

    rng = random.Random(seed)
    p = random_poly(rng, max_deg=2, n_terms=4, int_coeffs=True)
    q = random_poly(rng, max_deg=2, n_terms=4, int_coeffs=True)
    return PolyMap(p, q)


def _prepare(seed):
    from planejac.exceptional import exceptional_report
    from planejac.poly import jacobian

    F = seeded_map(seed)

    def work():
        if jacobian(F).is_zero():
            return {"status": "zero-jacobian"}
        try:
            report = exceptional_report(F)
        except Exception as e:  # reported on the seed's line
            return {"status": "error", "error": f"{type(e).__name__}: {e}"}
        return {
            "status": "ok",
            "defining": str(report.critical.defining),
            "curve": str(report.curve.defining),
            "deg_geo": report.degree.deg_geo,
            "degree_targets": [[str(u), str(v)] for (u, v), _ in report.degree.samples],
            "degree_counts": [c for _, c in report.degree.samples],
            "verdict_slices": [v["slice"] for v in report.verdicts],
        }
    return work


def _run(prepare, arg, repeat, conn):
    work = prepare(arg)
    conn.send(None)  # imported and prepared: the clock starts
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = work()
        best = min(best, time.perf_counter() - t0)
    conn.send({"seconds": round(best, 3), **out})


def run_in_child(ctx, prepare, arg, timeout=TIMEOUT_S, repeat=1):
    """{"seconds", "status", ...} of work = prepare(arg), both run in a child
    process: "seconds" is the best time of `repeat` calls of work() alone,
    and the rest is its dict, or a "timeout" or "error" status after
    `timeout` seconds of work in all.  `prepare` must be importable by name."""
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run, args=(prepare, arg, repeat, send))
    child.start()
    send.close()
    try:
        recv.recv()
        out = recv.recv() if recv.poll(timeout) else {"seconds": timeout, "status": "timeout"}
    except EOFError:  # the child died without a result
        out = {"seconds": None, "status": "error", "error": "the process ended without a result"}
    child.terminate()
    child.join()
    return out


def run_seed(ctx, seed):
    """The line of one seed, computed in a child process."""
    return {"seed": seed, **run_in_child(ctx, _prepare, seed)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=ROOT, metavar="DIR",
                        help="the checkout whose planejac runs (default: this one)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(args.src, "src"), os.path.join(ROOT, "tests")]
    ctx = multiprocessing.get_context("spawn")
    for seed in SEEDS:
        print(json.dumps(run_seed(ctx, seed)), flush=True)


if __name__ == "__main__":
    main()
