import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from planejac import exceptional as exc
from planejac.exceptional import (ExceptionalError, InfiniteFiberError, PlaneCurveSet,
                                  certify_nonproper, critical_values,
                                  exceptional_report, exceptional_set,
                                  line_intersections, nonproper_candidates,
                                  topological_degree)
from planejac.gaussian import GaussianRational
from planejac import poly, roots
from planejac.cli import load_map_file
from planejac.poly import (Poly, PolyMap, _coeff_list, compose_map, compose_maps, divides,
                           exact_div, jacobian, poly_gcd, resultant_allow_constant,
                           squarefree_part)

from support import UV, XY, pe, random_automorphism, random_point, random_poly

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
    assert len(rep.samples) == exc.DEGREE_TRIALS == 3


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
    # the slice v = -1 - i meets u^3 - v^2 in 3 points, of 2 preimages each
    cand = nonproper_candidates(ml_map)
    verdicts = certify_nonproper(ml_map, cand, deg_geo=4, critical=critical_values(ml_map))
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["confirmed"]
    assert v["slice"] == {"fixed": "v", "value": "(-1-1i)", "points": 3, "count": 6}


def test_certify_empty_candidate_set():
    F = PolyMap(pe("x"), pe("y"))
    assert certify_nonproper(F, nonproper_candidates(F), deg_geo=1,
                             critical=critical_values(F)) == []


def test_certify_vertical_line_confirmed():
    # (x, xy - 1 - i) contracts {x = 0} to (0, -1 - i): the first slice
    # v = -1 - i meets that point, whose fiber is infinite, so certification
    # takes the next t, where {x = 0, xy - 1 - i = -1} has no solution
    F = PolyMap(pe("x"), pe("x*y - (1+1i)"))
    with pytest.raises(InfiniteFiberError):
        exc._preimage_count_exact(F, GaussianRational(0), GaussianRational(-1, -1))
    verdicts = certify_nonproper(F, nonproper_candidates(F), deg_geo=1,
                                 critical=critical_values(F))
    assert verdicts == [{"tag": "nonproper-candidate:res_x", "component": "u",
                         "confirmed": True, "inside_critical": False,
                         "slice": {"fixed": "v", "value": "-1", "points": 1, "count": 0}}]


def test_certify_printed_counts_3_without_warnings(ml_map_printed, monkeypatch):
    # the 3 points of the slice count 3 preimages each, 9 in all, and no
    # root is solved numerically
    def fail(C):
        raise AssertionError("certification solved a polynomial numerically")

    monkeypatch.setattr(roots, "find_roots_batch", fail)
    cand = nonproper_candidates(ml_map_printed)
    crit = critical_values(ml_map_printed)
    verdicts = certify_nonproper(ml_map_printed, cand, deg_geo=4, critical=crit)
    assert [v["component"] for v in verdicts] == ["u^3 - v^2"]
    assert verdicts[0]["slice"] == {"fixed": "v", "value": "(-1-1i)", "points": 3, "count": 9}
    assert verdicts[0]["confirmed"]


def test_certify_builds_no_resultant_in_four_variables(ml_map_printed, monkeypatch):
    # every count is a resultant in (x, y) of the map at its exact slice
    cand = nonproper_candidates(ml_map_printed)
    crit = critical_values(ml_map_printed)
    calls = []
    real = exc.resultant_allow_constant

    def recording(p, q, name):
        calls.append((p.vars, q.vars, name))
        return real(p, q, name)

    monkeypatch.setattr(exc, "resultant_allow_constant", recording)
    verdicts = certify_nonproper(ml_map_printed, cand, deg_geo=4, critical=crit)
    assert calls and set(calls) == {(("x", "y"), ("x", "y"), "y")}
    assert verdicts[0]["slice"]["count"] == 9


def test_shears_are_composed_once_per_map(ml_map, monkeypatch):
    F = PolyMap(ml_map.p, ml_map.q)
    composed, lams = [], set()
    real_substitute, real_sheared = poly.substitute, PolyMap.sheared

    def substitute(fs, values, order=None):
        composed.append(values)
        return real_substitute(fs, values, order)

    def sheared(self, lam):
        lams.add(lam)
        return real_sheared(self, lam)

    monkeypatch.setattr(poly, "substitute", substitute)
    monkeypatch.setattr(PolyMap, "sheared", sheared)
    report = exceptional_report(F)
    assert lams and len(composed) == len(lams)
    assert report.degree.deg_geo == 4
    monkeypatch.undo()
    xv, yv = Poly.var("x", XY), Poly.var("y", XY)
    for lam in lams:
        sub = {"x": xv + Poly.const(lam, XY) * yv, "y": yv}
        assert F.sheared(lam) == (F.p.evaluate(sub), F.q.evaluate(sub))


def test_shears_are_tested_for_counts_once_per_map(ml_map, monkeypatch):
    # the leading coefficients in y of P_lam and Q_lam do not depend on the
    # target, so one pass tests each lam once, in order, for all its counts
    F = PolyMap(ml_map.p, ml_map.q)
    tested, counts = [], []
    real_test, real_count = exc._constant_leads, exc._solution_count

    def test(F, lam):
        tested.append(lam)
        return real_test(F, lam)

    def count(F, a, b):
        counts.append((a, b))
        return real_count(F, a, b)

    monkeypatch.setattr(exc, "_constant_leads", test)
    monkeypatch.setattr(exc, "_solution_count", count)
    report = exceptional_report(F)
    assert len(counts) == 3 + 1 and report.degree.deg_geo == 4
    assert tested == list(exc._SHEAR_LAMBDAS[:len(tested)]) and tested


# ------------------------------------- a reference: the search for rational points

#: the point search takes its targets t by height up to REFERENCE_HEIGHT,
#: and rounds each numeric root to real and imaginary denominators up to
#: REFERENCE_DENOMINATOR
REFERENCE_HEIGHT, REFERENCE_DENOMINATOR = 6, 10 ** 4


def _nearby_rational(z):
    """A Gaussian rational next to the complex z."""
    re, im = (Fraction(c).limit_denominator(REFERENCE_DENOMINATOR) for c in (z.real, z.imag))
    return GaussianRational(re.numerator * im.denominator, im.numerator * re.denominator,
                            re.denominator * im.denominator)


def _point_search(F, comp, avoid, samples=5):
    """``samples`` Gaussian-rational points of comp with their exact
    preimage counts.  Each t by increasing height is tried as u0 with the
    slice comp(t, v), then as v0 with comp(u, t), one root solve per slice.
    Each root proposes a nearby Gaussian rational, kept when comp vanishes
    there exactly, ``avoid`` does not, and the fiber is finite."""
    seen, points = set(), []
    for t in exc._gaussian_rationals(REFERENCE_HEIGHT):
        for t_is_v in (False, True):
            f = comp.evaluate({"v" if t_is_v else "u": t})
            for w in sorted(map(_nearby_rational, exc._univariate_roots(f)),
                            key=lambda w: (-Fraction(w.b, w.d), Fraction(w.a, w.d))):
                pt = (w, t) if t_is_v else (t, w)
                if pt in seen:
                    continue
                seen.add(pt)
                at = dict(zip(UV, pt))
                if comp.evaluate(at) or not avoid.evaluate(at):
                    continue
                try:
                    points.append((pt, exc._preimage_count_exact(F, *pt)))
                except InfiniteFiberError:
                    continue
                if len(points) == samples:
                    return points
    raise ExceptionalError(f"found {len(points)} of {samples} points on component {comp}")


def _reference_flags(F, curve, deg_geo, critical):
    """(confirmed, inside_critical) of each component of curve by the point
    search: confirmed when all 5 points count fewer than deg_geo."""
    flags = []
    for _, comp in curve.component_polys:
        inside = divides(comp, critical.defining)
        counted = [] if inside else _point_search(
            F, comp, exact_div(curve.defining, comp) * critical.defining)
        flags.append((not inside and all(c < deg_geo for _, c in counted), inside))
    return flags


def _unit_symmetric(F, eps):
    """F o (eps x, eps y)."""
    x, y = (Poly.const(eps, XY) * Poly.var(w, XY) for w in XY)
    return compose_maps(F, PolyMap(x, y))


def _seeded_map(seed):
    """Seed `seed` of tools/seeded_maps.py."""
    rng = random.Random(seed)
    return PolyMap(*(random_poly(rng, max_deg=2, n_terms=4, int_coeffs=True) for _ in XY))


_UNITS = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
          GaussianRational(0, -1)]


def test_orbit_verdicts_match_the_point_search():
    shipped = [load_map_file(os.path.join(MAPS, name))[0] for name in sorted(os.listdir(MAPS))]
    maps = [_unit_symmetric(F, eps) for F in shipped for eps in _UNITS]
    compared = 0
    for F in maps + [_seeded_map(s) for s in (1, 3, 5)]:
        cand, crit = nonproper_candidates(F), critical_values(F)
        deg_geo = topological_degree(F, avoid=cand.defining * crit.defining).deg_geo
        verdicts = certify_nonproper(F, cand, deg_geo=deg_geo, critical=crit)
        assert [(v["confirmed"], v["inside_critical"]) for v in verdicts] == \
            _reference_flags(F, cand, deg_geo, crit), F
        compared += sum(not v["inside_critical"] for v in verdicts)
    assert compared >= 8  # both makar_limanov maps under 4 units, and more


def test_certify_rejects_proper_curve():
    # {u = 0} is not special for the identity: full fibers everywhere on it
    F = PolyMap(pe("x"), pe("y"))
    fake = PlaneCurveSet(pe("u", UV), ["supplied"])
    verdicts = certify_nonproper(F, fake, deg_geo=1, critical=critical_values(F))
    assert not verdicts[0]["confirmed"]
    assert verdicts[0]["slice"] == {"fixed": "v", "value": "(-1-1i)", "points": 1, "count": 1}


def test_certify_rejects_the_line_u_zero_on_makar_limanov(ml_map):
    # criterion 2's line {u = 0}, supplied as a curve: its slice point has
    # deg_geo = 4 preimages, as each of the point search's 5 points has
    crit = critical_values(ml_map)
    line = PlaneCurveSet(pe("u", UV), ["supplied"])
    (verdict,) = certify_nonproper(ml_map, line, deg_geo=4, critical=crit)
    assert not verdict["confirmed"] and not verdict["inside_critical"]
    assert verdict["slice"] == {"fixed": "v", "value": "(-1-1i)", "points": 1, "count": 4}
    assert [c for _, c in _point_search(ml_map, pe("u", UV), crit.defining)] == [4] * 5


def test_certify_counts_a_component_without_gaussian_rational_points():
    # u^2 = 2 and v^2 = 2 have no Gaussian-rational point; each slice meets
    # one in its 2 conjugate points, of one preimage each under the identity
    F = PolyMap(pe("x"), pe("y"))
    for comp, fixed in (("u^2 - 2", "v"), ("v^2 - 2", "u")):
        curve = PlaneCurveSet(pe(comp, UV), ["supplied"])
        (verdict,) = certify_nonproper(F, curve, deg_geo=1, critical=critical_values(F))
        assert not verdict["confirmed"]
        assert verdict["slice"] == {"fixed": fixed, "value": "(-1-1i)", "points": 2, "count": 2}


def test_certify_raises_when_no_slice_suits(monkeypatch):
    # u + (v + 1 + i)(v + 1)...(v - 1 - i) meets {u = 0} on each slice v = t
    # of height 1, so no slice of that height is off the critical values
    monkeypatch.setattr(exc, "SLICE_HEIGHT", 1)
    F = PolyMap(pe("x"), pe("y"))
    crit = pe("u", UV)
    product = pe("1", UV)
    for t in exc._gaussian_rationals(1):
        product = product * (pe("v", UV) - Poly.const(t, UV))
    crit = PlaneCurveSet(crit + product, ["critical-value"])
    curve = PlaneCurveSet(pe("u", UV), ["supplied"])
    with pytest.raises(ExceptionalError, match="height at most 1 suits component u"):
        certify_nonproper(F, curve, deg_geo=1, critical=crit)


def test_certify_points_avoid_other_candidates_and_critical_values():
    # a = u and b = u - v - 1 - i meet on the slice v = -1 - i, which both
    # pass over; a meets the critical-value curve u + v + 1 on v = -1
    F = PolyMap(pe("x"), pe("y"))
    curve = PlaneCurveSet(pe("u^2 - u*v - (1+1i)*u", UV), ["supplied"],
                          [("a", pe("u", UV)), ("b", pe("u - v - (1+1i)", UV))])
    crit = PlaneCurveSet(pe("u + v + 1", UV), ["critical-value"])
    verdicts = certify_nonproper(F, curve, deg_geo=1, critical=crit)
    assert [v["slice"] for v in verdicts] == [
        {"fixed": "v", "value": "(-1+1i)", "points": 1, "count": 1},
        {"fixed": "v", "value": "-1", "points": 1, "count": 1}]
    assert not any(v["confirmed"] for v in verdicts)


def _sheared_leading_coefficient(F):
    """lc_x Res_y(P_lam - u, Q_lam - v) for the first lam of 0, 1, -1, 2, ...
    with P_top(lam, 1) Q_top(lam, 1) != 0: its zero set is the non-proper
    set of F (Jelonek, Ann. Polon. Math. 58, 1993)."""
    vars4 = ("x", "y", "u", "v")
    for lam in (0, 1, -1, 2, -2, 3):
        x = Poly.var("x", XY) + Poly.const(lam, XY) * Poly.var("y", XY)
        sheared = [f.evaluate({"x": x, "y": Poly.var("y", XY)}) for f in (F.p, F.q)]
        tops = [sum((Poly(XY, {e: c}) for e, c in f.terms.items() if sum(e) == f.total_degree()),
                    Poly(XY)) for f in (F.p, F.q)]
        if all(t.evaluate({"x": GaussianRational(lam), "y": GaussianRational(1)}) for t in tops):
            p, q = (f._with_vars(vars4) - Poly.var(w, vars4) for f, w in zip(sheared, UV))
            return _coeff_list(resultant_allow_constant(p, q, "y"), "x")[0]._with_vars(UV)
    raise AssertionError("no shear of the list suits")


def test_seed_4_component_without_rational_points_is_confirmed():
    # u^2 + (8+10i)u - (8-47i) is two conjugate lines {u = alpha}, alpha not
    # in Q(i): the slice meets it in 2 points, of 1 preimage each against
    # deg_geo = 2, and the sheared resultant puts it in the non-proper set
    F = _seeded_map(4)
    report = exceptional_report(F)
    assert report.degree.deg_geo == 2
    (verdict,) = report.verdicts
    assert verdict["component"] == "u^2 + (8+10i)*u - (8-47i)"
    assert verdict["confirmed"] and not verdict["inside_critical"]
    assert verdict["slice"] == {"fixed": "v", "value": "(-1-1i)", "points": 2, "count": 2}
    comp = pe(verdict["component"], UV)
    assert divides(comp, report.curve.defining)
    assert divides(comp, squarefree_part(_sheared_leading_coefficient(F)))


# seeds 12 and 14 of tools/seeded_maps.py: the only candidate (v, resp. u)
# divides the critical-value curve, so every point of it is on the avoid
# locus and there is no slice to count
_INSIDE_CRITICAL = [
    ("(4-2i)*x*y^2 - (1-5i)*x*y + (1-5i)*x", "(-3+2i)*x^2*y^2", "v"),
    ("(5+3i)*x^2*y^2", "(-1-1i)*x*y^2 + (5+2i)*x^2", "u"),
]


@pytest.mark.parametrize("p, q, comp", _INSIDE_CRITICAL, ids=["seed12", "seed14"])
def test_candidate_inside_the_critical_curve_takes_no_samples(p, q, comp):
    report = exceptional_report(PolyMap(p, q))
    assert divides(pe(comp, UV), report.critical.defining)
    assert report.verdicts == [{"tag": report.verdicts[0]["tag"], "component": comp,
                                "confirmed": False, "inside_critical": True, "slice": None}]
    # A_F is the critical-value curve, which holds the candidate already
    assert report.curve.defining == report.critical.defining


def test_verdicts_off_the_critical_curve_are_marked(ml_map):
    verdicts = exceptional_report(ml_map).verdicts
    assert verdicts and all(v["inside_critical"] is False and v["slice"] for v in verdicts)


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


@pytest.fixture(scope="module")
def random_count_maps():
    """(maps with their critical values, the generator that drew them), made
    before the function-scoped `dense_only` patches the remainder sequence:
    critical values run bivariate gcds on Poly entries."""
    rng = random.Random(307)
    maps = [PolyMap(pe("x^2"), pe("y"))]
    maps += [random_automorphism(rng, max_total_deg=6)[0] for _ in range(3)]
    return [(F, critical_values(F).defining) for F in maps], rng


def test_exact_count_matches_sympy_at_random_points(random_count_maps, dense_only):
    maps, rng = random_count_maps
    for F, crit in maps:
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


def test_critical_values_drop_curves_contracted_to_points(ml_map):
    # B = (x + y^2, y) has JB = 1, so F o B has the critical values of F.  H
    # contracts the line {x = 0} to (0, 0), and H o B the parabola
    # {x + y^2 = 0}, which is no line; likewise makar_limanov and seed 1 of
    # tools/seeded_maps.py.  Their images are points, and must not turn
    # into the lines {u = 0} and {v = 0}
    rng = random.Random(1)
    seed1 = PolyMap(*(random_poly(rng, max_deg=2, n_terms=4, int_coeffs=True)
                      for _ in range(2)))
    B = PolyMap(pe("x + y^2"), pe("y"))
    H = PolyMap(pe("x^2*y"), pe("x^3*y^2 + x"))
    assert compose_maps(H, B).p == pe("y^5 + 2*x*y^3 + x^2*y")
    assert critical_values(H).defining == pe("u^2 - 1/4*v^2", UV)
    assert critical_values(ml_map).defining == pe("u^3 + v^2", UV)
    for F in (H, ml_map, seed1):
        want = critical_values(F).defining
        assert want.total_degree() >= 2
        assert critical_values(compose_maps(F, B)).defining == want, F


def _critical_point_images(F, seed=71, lines=8):
    """Images (u0, v0) of the critical points of F on `lines` seeded
    vertical lines x = (a + bi)/d, from the roots of JF(x, y) in y."""
    jf = jacobian(F)
    rng = random.Random(seed)
    for _ in range(lines):
        xq = GaussianRational(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
        x0 = complex(xq)
        for y0 in exc._univariate_roots(jf.evaluate({"x": xq})):
            at = {"x": x0, "y": complex(y0)}
            yield complex(F.p.evaluate(at)), complex(F.q.evaluate(at))


def test_critical_values_pushforward_oracle(ml_map):
    # every image of a critical point lies on the computed curve
    crit = critical_values(ml_map)
    checked = 0
    for u0, v0 in _critical_point_images(ml_map):
        scale = max(1.0, abs(u0) ** 3, abs(v0) ** 2)
        val = complex(crit.defining.evaluate({"u": u0, "v": v0}))
        assert abs(val) <= 1e-9 * scale
        checked += 1
    assert checked >= 8


def test_critical_values_reduce_the_curve_once():
    # the y-first eliminant of this map has degree 14 and a spurious factor
    # of degree 8; the square-free part of the gcd of the two raw eliminants
    # is the degree-6 curve, found without reducing the degree-14 one
    F = PolyMap(pe("x*y^2 + x*y - 2i*x + 2"),
                pe("(2+2i)*x^2*y + x*y^2 - (2-1i)*x^2 + (3-2i)*x"))
    start = time.perf_counter()
    crit = critical_values(F)
    assert time.perf_counter() - start < 10
    assert crit.degree == 6
    checked = 0
    for u0, v0 in _critical_point_images(F):
        # relative to the largest term of the defining polynomial there
        terms = [abs(complex(c)) * abs(u0) ** a * abs(v0) ** b
                 for (a, b), c in crit.defining.terms.items()]
        val = complex(crit.defining.evaluate({"u": u0, "v": v0}))
        assert abs(val) <= 1e-9 * max(terms)
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
    rep = exceptional_report(ml_map, seed=0)
    assert rep.candidates.defining == pe("u^3 - v^2", UV)
    assert rep.degree == topological_degree(ml_map, seed=1)
    assert rep.verdicts == certify_nonproper(ml_map, rep.candidates, deg_geo=4,
                                             critical=rep.critical)
    assert rep.curve.defining == exceptional_set(ml_map).defining


def test_exceptional_report_seed_moves_only_the_degree_targets():
    # every count is exact, so the seed picks where deg_geo is counted and
    # nothing else
    shipped = [load_map_file(os.path.join(MAPS, name))[0] for name in sorted(os.listdir(MAPS))]
    drawn = set()
    for F in shipped + [_seeded_map(s) for s in (1, 3, 5, 9, 13)]:
        reps = [exceptional_report(F, seed) for seed in range(5)]
        answers = [(rep.candidates, rep.critical, rep.curve, rep.degree.deg_geo, rep.verdicts)
                   for rep in reps]
        assert answers == answers[:1] * 5
        drawn |= {tuple(t for t, _ in rep.degree.samples) for rep in reps}
    assert len(drawn) == 5  # the seed does move the targets


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
        assert exceptional_set(M).is_empty()


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
