import os
import random
import warnings

import numpy as np
import pytest

from planejac import exceptional as exc
from planejac.exceptional import (ExceptionalError, InfiniteFiberError, PlaneCurveSet,
                                  certify_nonproper, critical_values,
                                  exceptional_report, exceptional_set,
                                  line_intersections, nonproper_candidates,
                                  topological_degree)
from planejac.gaussian import GaussianRational
from planejac import roots
from planejac.cli import load_map_file
from planejac.poly import (Poly, PolyMap, compose_map, compose_maps, divides, exact_div,
                           jacobian, poly_gcd, squarefree_part)

from support import UV, XY, pe, random_automorphism, random_point

MAPS = os.path.join(os.path.dirname(__file__), "..", "maps")


# ---------------------------------------------------------------- candidates

def test_candidates_ml(ml_map):
    cand = nonproper_candidates(ml_map)
    assert cand.defining == pe("u^3 - v^2", UV)
    assert cand.degree == 3


def test_candidates_identity_empty():
    cand = nonproper_candidates(PolyMap(pe("x"), pe("y")))
    assert cand.is_empty()


def test_candidates_product_map_vertical_line():
    cand = nonproper_candidates(PolyMap(pe("x"), pe("x*y")))
    assert cand.defining == pe("u", UV)


def test_candidates_reject_non_dominant():
    with pytest.raises(ExceptionalError):
        nonproper_candidates(PolyMap(pe("x"), pe("x")))


# --------------------------------------------------------- topological degree

def test_degree_examples(ml_map):
    assert topological_degree(PolyMap(pe("x"), pe("y"))).deg_geo == 1
    assert topological_degree(PolyMap(pe("x^2"), pe("y"))).deg_geo == 2
    rep = topological_degree(ml_map)
    assert rep.deg_geo == 4
    assert rep.agreed and len(rep.samples) == 3


def test_degree_rejects_targets_exactly_on_the_avoid_locus(monkeypatch):
    # u = 0 is the critical-value line of (x^2, y).  The first target lies
    # on it and is rejected; the second lies 1e-12 off it and is kept, as
    # its count is exact
    G = GaussianRational
    on, near = (G(0), G(3)), (G(1, 0, 10 ** 12), G(2))
    draws = iter([*on, *near, G(1), G(1), G(4), G(-1)])
    monkeypatch.setattr(exc, "_random_rational", lambda rng: next(draws))
    rep = topological_degree(PolyMap(pe("x^2"), pe("y")), avoid=pe("u", UV))
    assert [t for t, _ in rep.samples] == [near, (G(1), G(1)), (G(4), G(-1))]
    assert rep.deg_geo == 2


def test_degree_invariant_under_elementary_precomposition():
    F = PolyMap(pe("x^2"), pe("y"))
    rng = random.Random(61)
    for _ in range(3):
        E, _ = random_automorphism(rng, max_total_deg=3, max_factors=2)
        assert topological_degree(compose_maps(F, E)).deg_geo == 2


# ------------------------------------------------------------- certification

def test_certify_ml_component_confirmed(ml_map):
    cand = nonproper_candidates(ml_map)
    verdicts = certify_nonproper(ml_map, cand, samples=5, deg_geo=4,
                                 critical=critical_values(ml_map))
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["confirmed"]
    assert all(s["count"] < 4 for s in v["samples"])


def test_certify_empty_candidate_set():
    F = PolyMap(pe("x"), pe("y"))
    assert certify_nonproper(F, nonproper_candidates(F), deg_geo=1,
                             critical=critical_values(F)) == []


def test_certify_vertical_line_confirmed():
    # (x, xy) contracts {x = 0} to (0, 0): the search meets that point at
    # t = 0, skips its infinite fiber, and takes the next t
    F = PolyMap(pe("x"), pe("x*y"))
    with pytest.raises(InfiniteFiberError):
        exc._preimage_count_exact(F, GaussianRational(0), GaussianRational(0))
    verdicts = certify_nonproper(F, nonproper_candidates(F), samples=5, deg_geo=1,
                                 critical=critical_values(F))
    assert len(verdicts) == 1
    assert verdicts[0]["confirmed"]
    assert [s["point"] for s in verdicts[0]["samples"]] == [
        ["0", "(-1-1i)"], ["0", "-1"], ["0", "(-1+1i)"], ["0", "-1i"], ["0", "1i"]]
    assert all(s["count"] == 0 for s in verdicts[0]["samples"])


def test_certify_printed_counts_3_without_warnings(ml_map_printed):
    # every sample of the printed map counts 3 exactly, and the root solves
    # that propose the points raise no RuntimeWarning
    cand = nonproper_candidates(ml_map_printed)
    crit = critical_values(ml_map_printed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdicts = certify_nonproper(ml_map_printed, cand, samples=5, deg_geo=4, critical=crit)
    assert [v["component"] for v in verdicts] == ["u^3 - v^2"]
    assert [s["count"] for s in verdicts[0]["samples"]] == [3, 3, 3, 3, 3]
    assert verdicts[0]["confirmed"]


def test_certify_builds_no_resultant_in_four_variables(ml_map_printed, monkeypatch):
    # every count is a resultant in (x, y) of the map at its exact target
    cand = nonproper_candidates(ml_map_printed)
    crit = critical_values(ml_map_printed)
    calls = []
    real = exc.resultant_allow_constant

    def recording(p, q, name):
        calls.append((p.vars, q.vars, name))
        return real(p, q, name)

    monkeypatch.setattr(exc, "resultant_allow_constant", recording)
    verdicts = certify_nonproper(ml_map_printed, cand, samples=5, deg_geo=4, critical=crit)
    assert calls and set(calls) == {(("x", "y"), ("x", "y"), "y")}
    assert [s["count"] for s in verdicts[0]["samples"]] == [3, 3, 3, 3, 3]


def test_certify_rejects_proper_curve():
    # {u = 0} is not special for the identity: full fibers everywhere on it
    F = PolyMap(pe("x"), pe("y"))
    fake = PlaneCurveSet(pe("u", UV), ["supplied"])
    verdicts = certify_nonproper(F, fake, samples=3, deg_geo=1, critical=critical_values(F))
    assert not verdicts[0]["confirmed"]
    assert [s["count"] for s in verdicts[0]["samples"]] == [1, 1, 1]


def test_certify_raises_without_gaussian_rational_points():
    # u^2 = 2 has no Gaussian-rational point, so no count can decide it
    F = PolyMap(pe("x"), pe("y"))
    curve = PlaneCurveSet(pe("u^2 - 2", UV), ["supplied"])
    with pytest.raises(ExceptionalError, match=r"component u\^2 - 2"):
        certify_nonproper(F, curve, samples=1, deg_geo=1, critical=critical_values(F))


def test_certify_points_avoid_other_candidates_and_critical_values():
    # on {u = 0} the search meets v = 0, which lies on the other candidate
    # v and on the critical-value curve u + v, and skips it
    F = PolyMap(pe("x"), pe("y"))
    curve = PlaneCurveSet(pe("u*v", UV), ["supplied"],
                          [("a", pe("u", UV)), ("b", pe("v", UV))])
    crit = PlaneCurveSet(pe("u + v", UV), ["critical-value"])
    verdicts = certify_nonproper(F, curve, samples=9, deg_geo=1, critical=crit)
    for v in verdicts:
        points = [tuple(s["point"]) for s in v["samples"]]
        assert len(set(points)) == 9
        assert ("0", "0") not in points
        assert all(s["count"] == 1 for s in v["samples"])


def test_line_u_zero_has_full_fibers_and_is_not_a_candidate(ml_map):
    # the exact evidence behind criterion 2: on {u = 0}, off u^3 + v^2, the
    # fiber has deg_geo points, and u is no factor of the candidates
    assert topological_degree(ml_map).deg_geo == 4
    for v0 in (GaussianRational(1), GaussianRational(2), GaussianRational(0, 1)):
        assert critical_values(ml_map).defining.evaluate({"u": GaussianRational(0), "v": v0})
        assert exc._preimage_count_exact(ml_map, GaussianRational(0), v0) == 4
    assert not divides(pe("u", UV), nonproper_candidates(ml_map).defining)


def test_exact_count_raises_at_a_critical_value():
    # (x^2, y) has one double solution over (0, 3): no shear separates it
    with pytest.raises(ExceptionalError, match="no shear separates"):
        exc._preimage_count_exact(PolyMap(pe("x^2"), pe("y")), GaussianRational(0),
                                  GaussianRational(3))


def _sympy_fiber_size(F, u0, v0):
    """Number of standard monomials of a grevlex Groebner basis of
    (P - u0, Q - v0) over Q(i): the fiber size where that ideal is radical."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")

    def expr(f, c0=GaussianRational(0)):
        terms = [(sp.Rational(c.a, c.d) + sp.I * sp.Rational(c.b, c.d))
                 * x ** e[f.vars.index("x")] * y ** e[f.vars.index("y")]
                 for e, c in f.terms.items()]
        return sp.Add(*terms) - (sp.Rational(c0.a, c0.d) + sp.I * sp.Rational(c0.b, c0.d))

    G = sp.groebner([expr(F.p, u0), expr(F.q, v0)], x, y, order="grevlex", domain=sp.QQ_I)
    assert G.is_zero_dimensional
    leads = [g.monoms(order="grevlex")[0] for g in G.polys]
    top_x = min(a for a, b in leads if b == 0)
    top_y = min(b for a, b in leads if a == 0)
    return sum(1 for a in range(top_x) for b in range(top_y)
               if not any(a >= la and b >= lb for la, lb in leads))


def test_exact_count_matches_sympy_on_makar_limanov(ml_map, ml_map_printed):
    G = GaussianRational
    points = [(G(-1), G(0, 1)), (G(1), G(1)), (G(1, 2, 2), G(3)), (G(0), G(2))]
    expected = {"ml": [2, 2, 4, 4], "printed": [3, 3, 4, 4]}
    for name, F in (("ml", ml_map), ("printed", ml_map_printed)):
        crit = critical_values(F).defining
        counts = []
        for u0, v0 in points:
            assert crit.evaluate({"u": u0, "v": v0})  # radical: off the critical values
            counts.append(exc._preimage_count_exact(F, u0, v0))
            assert counts[-1] == _sympy_fiber_size(F, u0, v0)
        assert counts == expected[name]


def test_exact_count_matches_sympy_at_random_points():
    rng = random.Random(307)
    maps = [PolyMap(pe("x^2"), pe("y"))]
    maps += [random_automorphism(rng, max_total_deg=6)[0] for _ in range(3)]
    for F in maps:
        crit = critical_values(F).defining
        checked = 0
        while checked < 3:
            u0, v0 = random_point(rng)
            if not crit.evaluate({"u": u0, "v": v0}):
                continue
            assert exc._preimage_count_exact(F, u0, v0) == _sympy_fiber_size(F, u0, v0)
            checked += 1


# ------------------------------------------------------------ critical values

def test_critical_values_unit_jacobian_empty():
    assert critical_values(PolyMap(pe("x + y^2"), pe("y"))).is_empty()


def test_critical_values_fold_line():
    crit = critical_values(PolyMap(pe("x^2"), pe("y")))
    assert crit.defining == pe("u", UV)


def test_critical_values_two_fold_lines():
    crit = critical_values(PolyMap(pe("x^2"), pe("y^2")))
    assert crit.defining == pe("u*v", UV).monic()


def test_critical_values_product_map_empty():
    # JF = x vanishes on {x = 0}, whose image is the single point (0, 0)
    assert critical_values(PolyMap(pe("x"), pe("x*y"))).is_empty()


def test_critical_values_ml(ml_map):
    crit = critical_values(ml_map)
    assert crit.defining == pe("u^3 + v^2", UV)


def test_critical_values_pushforward_oracle(ml_map):
    # every image of a critical point lies on the computed curve
    crit = critical_values(ml_map)
    jf = jacobian(ml_map)
    rng = random.Random(71)
    checked = 0
    for _ in range(8):
        xq = GaussianRational(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
        ys = exc._univariate_roots(jf.evaluate({"x": xq}))
        x0 = complex(xq)
        for y0 in ys:
            u0 = complex(ml_map.p.evaluate({"x": x0, "y": complex(y0)}))
            v0 = complex(ml_map.q.evaluate({"x": x0, "y": complex(y0)}))
            scale = max(1.0, abs(u0) ** 3, abs(v0) ** 2)
            val = complex(crit.defining.evaluate({"u": u0, "v": v0}))
            assert abs(val) <= 1e-9 * scale
            checked += 1
    assert checked >= 8


def test_critical_lines_off_the_lattice():
    # the critical lines x = +-sqrt(2/3) and x = +-1/2 hold no Gaussian
    # integer; their images are the lines u = +-sqrt(32/27) and u = +-1
    for p, want in (("x^3 - 2*x", "u^2 - 32/27"), ("4*x^3 - 3*x", "u^2 - 1")):
        assert str(critical_values(PolyMap(pe(p), pe("y"))).defining) == want
        assert str(critical_values(PolyMap(pe("y"), pe(p))).defining) == want.replace("u", "v")


def test_critical_lines_with_curve_images():
    # along {x = 1} and {x = -1} both coordinates of (x^3 - 3x + y^2, y)
    # move, and the lines map onto the parabolas u = v^2 - 2 and u = v^2 + 2
    crit = critical_values(PolyMap(pe("x^3 - 3*x + y^2"), pe("y")))
    assert crit.defining == (pe("u - v^2", UV) ** 2 - pe("4", UV)).monic()


def test_critical_line_where_both_leading_coefficients_vanish():
    # F = (x^2 y^2 + y, x^2 y^3 + y^2): JF = 2x y^3 (x^2 y + 1).  Along
    # {x = 0} the leading coefficients x^2 of both vanish, F = (y, y^2) there,
    # and the line maps onto v = u^2; {y = 0} is contracted to (0, 0)
    F = PolyMap(pe("x^2*y^2 + y"), pe("x^2*y^3 + y^2"))
    crit = critical_values(F)
    assert divides(pe("v - u^2", UV), crit.defining)
    assert _uncovered_critical_locus(F, crit).is_constant()


def _uncovered_critical_locus(F, crit):
    """L = J / gcd(J, crit(P, Q)) for J the square-free Jacobian: the part of
    the critical locus whose image is not on ``crit``.  Asserts that F
    contracts each component of {L = 0} to a point, i.e. that L divides
    L_y f_x - L_x f_y for f = P, Q, the derivatives of P and Q along it."""
    jsf = squarefree_part(jacobian(F))
    L = exact_div(jsf, poly_gcd(jsf, compose_map(crit.defining, F)))
    for f in (F.p, F.q):
        assert divides(L, L.diff("y") * f.diff("x") - L.diff("x") * f.diff("y"))
    return L


def _maps_with_critical_lines(n, seed=7):
    """Seeded maps whose critical loci contain lines {x = r} at the roots r
    of f', a random cubic: with line images (f, y + g), with a line {x = 0}
    contracted to a point (f, x y + g), with curve images (f + y^2, y + c),
    each also with x and y or u and v swapped.  The second flag is True when
    no critical line is contracted."""
    rng = random.Random(seed)
    x, y = Poly.var("x", XY), Poly.var("y", XY)
    swap = PolyMap(y, x)

    def gi():
        return Poly.const(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)), XY)

    for i in range(n):
        f = Poly.const(GaussianRational(rng.randint(1, 4), rng.randint(-1, 1)), XY) * x ** 3
        g = gi()
        for k in (1, 2):
            f = f + gi() * x ** k
            g = g + gi() * x ** k
        F, proper = ((PolyMap(f, y + g), True), (PolyMap(f, x * y + g), False),
                     (PolyMap(f + y ** 2, y + gi()), True))[i % 3]
        if rng.random() < 0.5:
            F = compose_maps(F, swap)
        if rng.random() < 0.5:
            F = compose_maps(swap, F)
        yield F, proper


def test_critical_values_push_forward_exactly():
    # every component of {JF = 0} maps into the critical-value curve, or is
    # contracted to a point; without contracted lines squarefree(JF) divides
    # crit(P, Q).  The shipped maps contract {x = 0} to (0, 0), which lies on
    # their curve u^3 + v^2
    shipped = [(load_map_file(os.path.join(MAPS, name))[0], True) for name in sorted(os.listdir(MAPS))]
    for F, proper in shipped + list(_maps_with_critical_lines(24)):
        crit = critical_values(F)
        L = _uncovered_critical_locus(F, crit)
        assert L.is_constant() or not proper, (F, crit.defining)


def test_critical_values_make_no_root_solve(ml_map, monkeypatch):
    def fail(C):
        raise AssertionError("critical_values solved a polynomial numerically")

    monkeypatch.setattr(roots, "find_roots_batch", fail)
    assert critical_values(ml_map).defining == pe("u^3 + v^2", UV)
    assert critical_values(PolyMap(pe("4*x^3 - 3*x"), pe("y"))).defining == pe("u^2 - 1", UV)


# ------------------------------------------------------------ exceptional set

def test_exceptional_set_ml(ml_map):
    exc = exceptional_set(ml_map)
    assert exc.defining == pe("u^6 - v^4", UV)
    assert exc.degree == 6
    assert set(exc.provenance) == {"nonproper-candidate", "critical-value"}


def test_exceptional_report_reuses_its_stages(ml_map):
    rep = exceptional_report(ml_map, samples=5, seed=0)
    assert rep.candidates.defining == pe("u^3 - v^2", UV)
    assert rep.degree == topological_degree(ml_map, seed=1)
    assert rep.verdicts == certify_nonproper(ml_map, rep.candidates, deg_geo=4,
                                             critical=rep.critical)
    assert rep.curve.defining == exceptional_set(ml_map).defining


def test_exceptional_set_elementary_empty():
    exc = exceptional_set(PolyMap(pe("x"), pe("y + x^2")))
    assert exc.is_empty()


def test_exceptional_set_product_map():
    exc = exceptional_set(PolyMap(pe("x"), pe("x*y")))
    assert exc.defining == pe("u", UV)
    assert exc.provenance == ["nonproper-candidate"]


def test_exceptional_set_empty_for_random_automorphisms():
    rng = random.Random(101)
    for _ in range(20):
        M, _ = random_automorphism(rng, max_total_deg=6)
        assert exceptional_set(M, samples=2, seed=5).is_empty()


# --------------------------------------------------------- line intersections

def test_line_intersections_ml_exceptional(ml_map):
    exc = exceptional_set(ml_map)
    out = line_intersections(exc, 3)
    assert out["count"] == 4
    assert all(r["multiplicity"] == 1 for r in out["roots"])
    mags = [abs(complex(*r["v"])) for r in out["roots"]]
    assert all(abs(m - 27 ** 0.5) < 1e-9 for m in mags)


def test_line_intersections_supplied_curve(ml_curve):
    out = line_intersections(ml_curve, 3)
    assert out["count"] == 2
    vs = sorted(r["v"][0] for r in out["roots"])
    assert np.allclose(vs, [-(27 ** 0.5), 27 ** 0.5])


def test_line_intersections_cusp_multiplicity():
    cusp = PlaneCurveSet(pe("u^3 - v^2", UV), ["supplied"])
    out = line_intersections(cusp, 0)
    assert out["count"] == 1
    assert out["roots"][0]["multiplicity"] == 2
    assert abs(complex(*out["roots"][0]["v"])) < 1e-9


def test_line_intersections_exact_multiplicity():
    # (v - 1)^3 = u and (v - 1)^4 = u meet {u = 0} in one root of
    # multiplicity 3 and 4, not in a cluster of nearby simple roots
    for m in (3, 4):
        curve = PlaneCurveSet(pe("v - 1", UV) ** m - pe("u", UV), ["supplied"])
        out = line_intersections(curve, 0)
        assert out["count"] == 1
        assert out["roots"][0]["multiplicity"] == m
        assert abs(complex(*out["roots"][0]["v"]) - 1) < 1e-12


def test_line_intersections_contained_line_errors(ml_curve):
    with pytest.raises(ExceptionalError):
        line_intersections(ml_curve, 0)


def test_line_intersections_empty_curve():
    exc = exceptional_set(PolyMap(pe("x"), pe("y")))
    assert line_intersections(exc, 5) == {"k": "5", "roots": [], "count": 0}


def test_line_counts_bounded_by_curve_degree(ml_map):
    exc = exceptional_set(ml_map)
    counts = []
    for k in (1, 2, 3, -1, -2, 5):
        out = line_intersections(exc, k)
        assert out["count"] <= exc.degree
        counts.append(out["count"])
    # generic lines meet the curve in deg_v-many distinct points
    assert all(c == exc.defining.degree_in("v") for c in counts)
