"""The benchmark's three workloads: the job list of each, the map files it
generates from the seed, and the answer check of every job.

A job is one in-process call: a CLI command through ``click.testing.CliRunner``
or, for fiber enumeration, the library function.  ``Job.check`` returns None
when the answer is right and a one-line reason when it is not.  Answers
marked ``pinned`` were computed at the commit that added the benchmark; every
other reference comes from outside the code under test (hand-derived
inverses, exact evaluation in ``gen``, ``np.roots``) or from its brute-force
oracle.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from click.testing import CliRunner

from planejac import cli, lattice
from planejac.gaussian import GaussianRational
from planejac.poly import parse_expression

import gen

WORKLOADS = ("exact-pipeline", "lattice-sweep", "series-inverse")

SHIPPED = ("identity", "elementary", "shear_composition", "makar_limanov",
           "makar_limanov_printed")
AUTOMORPHISMS = SHIPPED[:3]

#: hand-derived inverses of the shipped automorphisms, as (p, q) in (x, y):
#: (x, y + x^2) -> (x, y - x^2); (x + y^2, y + (x + y^2)^3) is
#: (x, y + x^3) o (x + y^2, y), so its inverse is (x - y^2, y) o (x, y - x^3)
SHIPPED_INVERSES = {
    "identity": (gen.X, gen.Y),
    "elementary": (gen.X, gen.padd(gen.Y, gen.ppow(gen.X, 2), -1)),
    "shear_composition": gen.compose_maps(
        (gen.padd(gen.X, gen.ppow(gen.Y, 2), -1), gen.Y),
        (gen.X, gen.padd(gen.Y, gen.ppow(gen.X, 3), -1))),
}

SERIES_ORDER = 16
DIST_BOX = 1
DHAT_BOX = 3
FIBER_BOX = 6
BRUTE_BOX = 2
#: criterion 8's fiber levels
FIBER_LEVELS = ("0", "1", "-1", "2", "-2", "i")
#: Z[i] fiber counts of makar_limanov at FIBER_BOX (pinned); D permutes the
#: box, so they hold for every makar_limanov o D
PINNED_FIBER_COUNTS = {"0": 337, "1": 2, "-1": 2, "2": 0, "-2": 0, "i": 0}
#: d-hat violations of makar_limanov at DHAT_BOX (pinned); the image set of
#: the box does not depend on D
PINNED_DHAT_VIOLATIONS = 2304
#: geometric degree of makar_limanov_printed (pinned)
PINNED_PRINTED_DEG_GEO = 4
DHAT_SUBSET = 24
#: --seed of every exceptional job (its random targets and samples)
EXCEPTIONAL_SEED = 0
AXIS_TOL = 1e-9
DHAT_TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    kind: str = "cli"


# ------------------------------------------------------------------ inputs

def shipped_terms(root, name):
    with open(os.path.join(root, "maps", name + ".json")) as fh:
        doc = json.load(fh)
    p = gen.poly_terms(parse_expression(doc["p"]))
    q = gen.poly_terms(parse_expression(doc["q"]))
    return doc, p, q


def unit_variant(root, name, eps, eta):
    """(map document, p, q) of shipped map `name` composed with
    D = (eps x, eta y)."""
    doc, p, q = shipped_terms(root, name)
    p, q = gen.apply_unit_symmetry(p, eps, eta), gen.apply_unit_symmetry(q, eps, eta)
    return gen.map_document(doc["name"], p, q, doc.get("curve"),
                            note=f"{name} o (x, y) -> ({eps}x, {eta}y)"), p, q


# ------------------------------------------------------------------ checks

def _invoke(args):
    return CliRunner().invoke(cli.main, args)


def cli_job(name, args, check_result, expect_exit=0):
    def check(res):
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            return f"raised {type(res.exception).__name__}: {res.exception}"
        if res.exit_code != expect_exit:
            return f"exit code {res.exit_code}, expected {expect_exit}"
        return check_result(json.loads(res.stdout)["result"])
    return Job(name, lambda: _invoke(args), check)


def _gr(text):
    return GaussianRational.coerce(parse_expression(text, ()).constant_value())


def vanishes_on_cusp(defining):
    """Exact test that u^3 - v^2 divides `defining`: f(t^2, t^3) is a
    univariate polynomial of degree <= 3 deg f, so it is zero iff it vanishes
    at 3 deg f + 1 integers t.  Evaluated in exact Gaussian rationals."""
    f = parse_expression(defining, ("u", "v"))
    deg = f.total_degree()
    for t in range(1, 3 * deg + 2):
        total = GaussianRational(0)
        for (eu, ev), c in f.terms.items():
            total = total + c * GaussianRational(t ** (2 * eu + 3 * ev))
        if total:
            return False
    return True


def check_automorphism_exceptional(r):
    if r["degree"] != 0 or r["components"]:
        return f"exceptional set of an automorphism is {r['defining']}, expected empty"
    if r["deg_geo"]["value"] != 1:
        return f"deg_geo = {r['deg_geo']['value']}, expected 1"
    return None


def check_ml_exceptional(r):
    if r["deg_geo"]["value"] != 4:
        return f"deg_geo = {r['deg_geo']['value']}, expected 4"
    if not vanishes_on_cusp(r["defining"]):
        return f"A_F = {r['defining']} is not divisible by u^3 - v^2"
    return None


def check_printed_exceptional(r):
    if r["deg_geo"]["value"] != PINNED_PRINTED_DEG_GEO:
        return (f"deg_geo = {r['deg_geo']['value']}, "
                f"expected {PINNED_PRINTED_DEG_GEO} (pinned)")
    if r["degree"] == 0:
        return "exceptional set is empty, expected a curve (pinned)"
    return None


def check_dist(r):
    side = (2 * DIST_BOX + 1) ** 4
    if r["checked"] != side or r["unconfirmed"]:
        return f"{len(r['unconfirmed'])} unconfirmed of {r['checked']}, expected 0 of {side}"
    axis = max(v["bound"] for v in r["axis_points"])
    if axis > AXIS_TOL:
        return f"axis bound {axis:.3g} > {AXIS_TOL}"
    return None


def reference_dhat(q1, q2):
    """d-hat of (q1, q2) to the curve u^4 - u*v^2, from np.roots: the slice
    v = q2 is u*(u^3 - q2^2), the slice u = q1 is q1*(q1^3 - v^2) and is the
    whole line when q1 = 0."""
    us = np.roots([1, 0, 0, -q2 * q2, 0])
    m_u = float(np.min(np.abs(us - q1)))
    if q1 == 0:
        m_v = 0.0
    else:
        vs = np.roots([-q1, 0, q1 ** 4])
        m_v = float(np.min(np.abs(vs - q2)))
    return max(m_u, m_v)


def _eval_map(p, q, x, y):
    def ev(f):
        return sum(complex(*c) * x ** i * y ** j for (i, j), c in f.items())
    return ev(p), ev(q)


def dhat_checker(p, q, eps, eta, rng):
    """Checks the d-hat sweep report of F = (p, q) = makar_limanov o D."""
    side = 2 * DHAT_BOX + 1
    # D maps p* = (conj eps, conj eta) to (1, 1), and F(1, 1) = (3, 7)
    star = [eps[0], -eps[1], eta[0], -eta[1]]
    coords = [(a, b, c, e) for a in range(-DHAT_BOX, DHAT_BOX + 1)
              for b in range(-DHAT_BOX, DHAT_BOX + 1)
              for c in range(-DHAT_BOX, DHAT_BOX + 1)
              for e in range(-DHAT_BOX, DHAT_BOX + 1)]
    subset = rng.sample(coords, DHAT_SUBSET)
    refs = []
    for a, b, c, e in subset:
        q1, q2 = _eval_map(p, q, complex(a, b), complex(c, e))
        refs.append(([a, b, c, e], reference_dhat(q1, q2)))

    def check(r):
        if r["checked"] != side ** 4:
            return f"checked {r['checked']} points, expected {side ** 4}"
        if len(r["violations"]) != PINNED_DHAT_VIOLATIONS:
            return (f"{len(r['violations'])} violations, "
                    f"expected {PINNED_DHAT_VIOLATIONS} (pinned)")
        found = {tuple(v["p"]): v["value"] for v in r["violations"]}
        value = found.get(tuple(star))
        if value is None or abs(value - (7 - 3 * math.sqrt(3))) > DHAT_TOL:
            return f"d-hat at p = {star} is {value}, expected 7 - 3*sqrt(3)"
        for pt, ref in refs:
            got = found.get(tuple(pt))
            if abs(ref - 1) <= 1e-6:
                continue  # too close to the threshold to decide from np.roots
            if ref > 1 and (got is None or abs(got - ref) > 1e-6 * max(1.0, ref)):
                return f"d-hat at p = {pt} is {got}, np.roots gives {ref:.12g}"
            if ref < 1 and got is not None:
                return f"p = {pt} reported as a violation ({got}), np.roots gives {ref:.12g}"
        return None
    return check


def _points_within(fset, bound):
    """The points of a FiberPointSet inside the smaller box, line fibers
    expanded."""
    small = lattice.LatticeBox(bound, fset.exhausted_box.ring_m)
    pts = {pt for pt in fset.points
           if all(small.contains_coords(*c) for c in pt)}
    for lx in (fset.line_fiber or {}).get("x_values", []):
        if small.contains_coords(*lx):
            pts |= {(tuple(lx), yc) for yc in small.coords()}
    return pts


def fiber_job(name, path, ring_m, pinned):
    box = lattice.LatticeBox(FIBER_BOX, ring_m)

    def run():
        F, _, _ = cli.load_map_file(path)
        return F, [lattice.enumerate_fiber_points(F.p, _gr(k), box) for k in FIBER_LEVELS]

    brute = {}  # the oracle's answer depends only on the map: computed once

    def check(out):
        F, fsets = out
        small = lattice.LatticeBox(BRUTE_BOX, ring_m)
        for k, fset in zip(FIBER_LEVELS, fsets):
            if pinned is not None and fset.count() != pinned[k]:
                return f"k = {k}: {fset.count()} fiber points, expected {pinned[k]} (pinned)"
            if k not in brute:
                brute[k] = set(lattice.brute_force_fiber_points(F.p, _gr(k), small))
            if _points_within(fset, BRUTE_BOX) != brute[k]:
                return f"k = {k}: fiber points in the B={BRUTE_BOX} box differ from brute force"
        return None
    return Job(name, run, check, kind="fibers")


def inverse_checker(inverse):
    expected = [sorted(
        ((i, j), c) for (i, j), c in poly.items() if i + j <= SERIES_ORDER)
        for poly in inverse]

    def check(r):
        if r["roundtrip_residual"] != "0":
            return f"round-trip residual {r['roundtrip_residual']}"
        for comp, want in zip(("g1", "g2"), expected):
            got = sorted(((t["eu"], t["ev"]), (t["re_num"], t["im_num"]))
                         for t in r["inverse"][comp]["terms"] if t["den"] == 1)
            if len(got) != len(r["inverse"][comp]["terms"]) or got != want:
                return f"inverse component {comp} differs from the known inverse"
        return None
    return check


# ------------------------------------------------------------------ workloads

def build(workload, seed, root, workdir):
    """The job list of `workload` for `seed`; writes its map files to workdir."""
    rng = random.Random(f"{workload}-{seed}")
    eps, eta = gen.unit_symmetry(seed)

    def write(fname, doc):
        return gen.write_map(os.path.join(workdir, fname + ".json"), doc)

    jobs = []
    if workload == "exact-pipeline":
        # A scalar D keeps the pipeline's fixed shears x -> x + lambda*y the
        # same up to units, and a fixed --seed keeps its random rational
        # targets: either one, left to the seed, moves the integer sizes in
        # the Bareiss resultants and the job time by about a tenth.
        for name in SHIPPED:
            path = write(name, unit_variant(root, name, eps, eps)[0])
            check = (check_automorphism_exceptional if name in AUTOMORPHISMS
                     else check_ml_exceptional if name == "makar_limanov"
                     else check_printed_exceptional)
            jobs.append(cli_job(f"exceptional:{name}",
                                ["exceptional", path, "--seed", str(EXCEPTIONAL_SEED)],
                                check))
    elif workload == "lattice-sweep":
        doc, p, q = unit_variant(root, "makar_limanov", eps, eta)
        path = write("makar_limanov", doc)
        jobs.append(cli_job("verify-dist", ["verify", path, "dist", "-B", str(DIST_BOX)],
                            check_dist))
        jobs.append(cli_job("verify-dhat", ["verify", path, "dhat", "-B", str(DHAT_BOX)],
                            dhat_checker(p, q, eps, eta, rng), expect_exit=3))
        jobs.append(fiber_job("fibers:Z[i]", path, 1, PINNED_FIBER_COUNTS))
        jobs.append(fiber_job("fibers:Z[sqrt-2]", path, 2, None))
    elif workload == "series-inverse":
        for name in AUTOMORPHISMS:
            doc, _, _ = shipped_terms(root, name)
            path = write(name, doc)
            jobs.append(cli_job(f"invert:{name}",
                                ["invert", path, "-N", str(SERIES_ORDER)],
                                inverse_checker(SHIPPED_INVERSES[name])))
        # the factor coefficients are drawn once; the seed conjugates them by
        # D, since a fresh draw per seed moves the inversion work by a tenth
        base = random.Random("series-inverse-base")
        for profile in gen.PROFILES:
            forward, inverse = (gen.conjugate_by_unit_symmetry(m, eps, eta)
                                for m in gen.fixed_profile_automorphism(base, profile))
            deg = math.prod(profile)
            path = write(f"auto_deg{deg}", gen.map_document(
                f"automorphism-deg{deg}", *forward, note=f"factor degrees {profile}"))
            jobs.append(cli_job(f"invert:deg{deg}",
                                ["invert", path, "-N", str(SERIES_ORDER)],
                                inverse_checker(inverse)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
