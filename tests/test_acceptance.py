"""Acceptance gate: the ten headline checks, one test per criterion, each
printing a single PASS/FAIL line with the measured numbers."""

import math
import random
import time

import pytest

from planejac.exceptional import (ExceptionalError, critical_values,
                                  exceptional_set, line_intersections,
                                  topological_degree)
from planejac.gaussian import GaussianRational
from planejac.lattice import (LatticeBox, brute_force_fiber_points, dhat,
                              enumerate_fiber_points, fiber_count_bounds,
                              laurent_identity_check, unit_disk_lattice_count,
                              verify_dhat_inequality, verify_dist_inequality)
from planejac.poly import PolyMap, divides, jacobian, resultant
from planejac.series import (TruncSeries2, compose_truncated, local_inverse,
                             truncate)

from support import (UV, pe, random_automorphism, random_poly,
                     rename_xy_to_uv)

SQRT3 = math.sqrt(3.0)


def _report(capsys, n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def ml_exceptional(ml_map):
    t0 = time.perf_counter()
    curve = exceptional_set(ml_map)
    return curve, time.perf_counter() - t0


def test_criterion_01_dhat_pinned_value(ml_curve, ml_exceptional, capsys):
    computed, _ = ml_exceptional
    t0 = time.perf_counter()
    mv = dhat((3.0, 7.0), ml_curve)
    dt = time.perf_counter() - t0
    value_ok = abs(mv.value - (7 - 3 * SQRT3)) < 1e-9
    u, v = mv.witness
    witness_ok = abs(u - 3) < 1e-9 and abs(v - 3 * SQRT3) < 1e-9
    # the computed exceptional curve gives the same slice minimum
    same_on_computed = abs(dhat((3.0, 7.0), computed).value - mv.value) < 1e-9
    ok = value_ok and witness_ok and same_on_computed and dt < 1.0
    _report(capsys, 1, ok,
            f"dhat((3,7)) = {mv.value:.15f} (target 7-3*sqrt(3)), "
            f"witness v = {v:.15f}, {dt * 1e3:.1f} ms")
    assert ok


def test_criterion_02_exceptional_set_components(ml_map, ml_exceptional, capsys):
    curve, dt = ml_exceptional
    u = pe("u", UV)
    cusp = pe("u^3 - v^2", UV)
    crit = critical_values(ml_map).defining
    div_u = divides(u, curve.defining)
    div_cusp = divides(cusp, curve.defining)
    within = divides(curve.defining, u * cusp * crit)
    ok = div_u and div_cusp and within and dt < 30.0
    _report(capsys, 2, ok,
            f"A_F = {curve.defining}; divisible by u: {div_u}, "
            f"by u^3-v^2: {div_cusp}, divides u*(u^3-v^2)*({crit}): {within}, "
            f"{dt:.1f}s")
    assert ok, (
        "the computed exceptional set is u^6 - v^4 = (u^3-v^2)(u^3+v^2): the "
        "line {u=0} is not recovered.  The non-proper test does not flag it -- "
        "Res_y(P-u, Q-v) has constant leading coefficient 3 in x, preimages "
        "of points on {u=0} stay bounded and the fiber count does not drop -- "
        "so no implemented notion of exceptionality certifies that component."
    )


def test_criterion_03_dist_inequality_box4(ml_map, ml_curve, capsys):
    t0 = time.perf_counter()
    out = verify_dist_inequality(ml_map, ml_curve, LatticeBox(4))
    dt = time.perf_counter() - t0
    axis_max = max(v["bound"] for v in out["axis_points"])
    ok = (out["checked"] == 6561 and out["unconfirmed"] == []
          and axis_max <= 1e-9 and dt < 300.0)
    _report(capsys, 3, ok,
            f"{out['confirmed']}/{out['checked']} confirmed, "
            f"max bound {out['max_bound']:.4f}, axis max {axis_max:.2e}, "
            f"{dt:.1f}s")
    assert ok


def test_criterion_04_dhat_inequality_fails(ml_map, ml_curve, capsys):
    out = verify_dhat_inequality(ml_map, ml_curve, LatticeBox(1))
    pinned = [v for v in out["violations"] if v["p"] == [1, 0, 1, 0]]
    pinned_ok = len(pinned) == 1 and abs(pinned[0]["value"] - (7 - 3 * SQRT3)) < 1e-9
    # threshold robustness: no value in the band (1, 1 + 1e-9]
    out0 = verify_dhat_inequality(ml_map, ml_curve, LatticeBox(1), tol=0.0)
    robust = len(out0["violations"]) == len(out["violations"])
    ok = (out["checked"] == 81 and len(out["violations"]) == 64
          and pinned_ok and robust)
    _report(capsys, 4, ok,
            f"{len(out['violations'])} violations of {out['checked']} "
            f"(all off-axis), p=(1,1) value "
            f"{pinned[0]['value'] if pinned else float('nan'):.15f}, "
            f"band (1, 1+1e-9] empty: {robust}")
    assert ok


def test_criterion_05_laurent_identities(ml_map, ml_map_printed, capsys):
    r_p2, r_q2 = laurent_identity_check(ml_map)
    r_p1, r_q1 = laurent_identity_check(ml_map_printed)
    ok = (r_p2.is_zero() and r_q2.is_zero()
          and r_p1 == pe("x^2*y") and r_q1.is_zero())
    _report(capsys, 5, ok,
            f"residuals: P2 -> {r_p2}, Q -> {r_q2}, P1 variant -> {r_p1}")
    assert ok


def test_criterion_06_evaluation_pin(ml_map, capsys):
    one = GaussianRational(1)
    val = (ml_map.p.evaluate({"x": one, "y": one}),
           ml_map.q.evaluate({"x": one, "y": one}))
    ok = val == (GaussianRational(3), GaussianRational(7))
    _report(capsys, 6, ok, f"F(1,1) = ({val[0]}, {val[1]}), exact")
    assert ok


def test_criterion_07_unit_disk_lattice(capsys):
    rng = random.Random(20260825)
    worst = 0
    for _ in range(10000):
        c1 = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if rng.random() < 0.5:
            c1 = complex(round(c1.real), round(c1.imag))
        c2 = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        worst = max(worst, unit_disk_lattice_count((c1, c2)))
    centered = all(
        unit_disk_lattice_count((complex(a, b), complex(c, d))) == 5
        for a, b, c, d in ((0, 0, 0, 0), (2, -1, 3, 4), (-3, 2, -1, -1))
    )
    ok = worst <= 5 and centered
    _report(capsys, 7, ok,
            f"max count over 10000 random centers: {worst}; "
            f"lattice-centered disks hold 5: {centered}")
    assert ok


def test_criterion_08_fiber_count_bounds(ml_map, ml_curve, capsys):
    ks = [GaussianRational(0), GaussianRational(1), GaussianRational(-1),
          GaussianRational(2), GaussianRational(-2), GaussianRational(0, 1)]
    # cross-check the enumerator against the 4-fold brute force first
    box2 = LatticeBox(2)
    for k in ks:
        fast = enumerate_fiber_points(ml_map.p, k, box2)
        full = set(fast.points)
        if fast.line_fiber:
            for lx in fast.line_fiber["x_values"]:
                full |= {(tuple(lx), yc) for yc in box2.coords()}
        assert full == set(brute_force_fiber_points(ml_map.p, k, box2))
    deg = topological_degree(ml_map)
    b4, b5 = fiber_count_bounds(ml_map, deg.deg_geo, ml_curve)
    box6 = LatticeBox(6)
    counts = {}
    excluded = []
    for k in ks:
        try:
            line_intersections(ml_curve, k)
        except ExceptionalError:
            # the line {u = k} lies inside the curve: the count bound does
            # not apply there (the fiber contains whole lattice lines)
            excluded.append(str(k))
            continue
        counts[str(k)] = enumerate_fiber_points(ml_map.p, k, box6).count()
    ok = (deg.agreed and deg.deg_geo == 4 and b4 == 80 and b5 == 160
          and excluded == ["0"]
          and all(n <= min(b4, b5) for n in counts.values()))
    _report(capsys, 8, ok,
            f"deg_geo = {deg.deg_geo}, bounds {b4} / {b5:g}, counts {counts}, "
            f"excluded lines {excluded}")
    assert ok


def test_criterion_09_series_round_trip(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2026)
    order = 16
    idu = TruncSeries2(order, {(1, 0): GaussianRational(1)})
    idv = TruncSeries2(order, {(0, 1): GaussianRational(1)})
    ok = True
    for _ in range(20):
        M, Minv = random_automorphism(rng, max_total_deg=12, max_factors=4,
                                      max_factor_deg=5)
        G = local_inverse(M, order)
        exact_ok = (G.g1 == truncate(rename_xy_to_uv(Minv.p), order)
                    and G.g2 == truncate(rename_xy_to_uv(Minv.q), order))
        C = compose_truncated(G, M)
        resid_ok = C.g1 == idu and C.g2 == idv
        ok = ok and exact_ok and resid_ok
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(capsys, 9, ok,
            f"20 compositions, N={order}: inverse coefficients exact and "
            f"round-trip residual zero, {dt:.1f}s")
    assert ok


def test_criterion_10_property_suites(capsys):
    rng = random.Random(424242)
    # (a) fiber enumeration vs brute force
    box = LatticeBox(2)
    fiber_checked = 0
    fiber_ok = True
    while fiber_checked < 10:
        f = random_poly(rng, max_deg=3, n_terms=3, int_coeffs=True)
        if (f.degree_in("y") or 0) == 0:
            continue
        k = rng.randint(-3, 3)
        fast = enumerate_fiber_points(f, k, box)
        full = set(fast.points)
        if fast.line_fiber:
            for lx in fast.line_fiber["x_values"]:
                full |= {(tuple(lx), yc) for yc in box.coords()}
        fiber_ok = fiber_ok and full == set(brute_force_fiber_points(f, k, box))
        fiber_checked += 1
    # (b) resultant vanishes iff a numeric common root exists
    import numpy as np
    res_checked = 0
    res_ok = True
    while res_checked < 50:
        a = random_poly(rng, vars=("y", "t"), max_deg=4, n_terms=3, int_coeffs=True)
        b = random_poly(rng, vars=("y", "t"), max_deg=4, n_terms=3, int_coeffs=True)
        if not a.degree_in("y") or not b.degree_in("y"):
            continue
        t0 = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        ca = [complex(c) for c in _dense(a, t0)]
        cb = [complex(c) for c in _dense(b, t0)]
        if abs(ca[0]) < 1e-12 or abs(cb[0]) < 1e-12:
            continue
        r = resultant(a, b, "y")
        vanishes = not bool(r.evaluate({"y": GaussianRational(0), "t": t0}))
        common = any(abs(x - z) < 1e-8 * (1 + abs(x))
                     for x in np.roots(ca) for z in np.roots(cb))
        res_ok = res_ok and vanishes == common
        res_checked += 1
    # (c) Jacobian chain rule, exact
    from planejac.poly import Poly, compose_map, compose_maps
    chain_ok = True
    for _ in range(20):
        F = PolyMap(random_poly(rng, max_deg=3, n_terms=3),
                    random_poly(rng, max_deg=3, n_terms=3))
        G = PolyMap(random_poly(rng, max_deg=3, n_terms=3),
                    random_poly(rng, max_deg=3, n_terms=3))
        jf_uv = Poly(UV, dict(jacobian(F).terms))
        lhs = jacobian(compose_maps(F, G))
        rhs = compose_map(jf_uv, G) * jacobian(G)
        chain_ok = chain_ok and lhs == rhs
    ok = fiber_ok and res_ok and chain_ok
    _report(capsys, 10, ok,
            f"fiber/brute-force: {fiber_checked} cases ({fiber_ok}), "
            f"resultant/common-root: {res_checked} cases ({res_ok}), "
            f"chain rule: 20 pairs ({chain_ok})")
    assert ok


def _dense(f, t0):
    cs = f.coeffs_in("y")
    out = []
    for d in range(max(cs), -1, -1):
        c = cs.get(d)
        out.append(GaussianRational(0) if c is None else c.evaluate({"t": t0}))
    return out
