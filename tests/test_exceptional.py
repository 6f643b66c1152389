import random
import warnings

import numpy as np
import pytest

from planejac import exceptional as exc
from planejac.exceptional import (ExceptionalError, PlaneCurveSet,
                                  certify_nonproper, critical_values,
                                  exceptional_report, exceptional_set,
                                  line_intersections, nonproper_candidates,
                                  topological_degree)
from planejac.gaussian import GaussianRational
from planejac.poly import Poly, PolyMap, compose_maps, jacobian
from planejac.roots import RootFindingError, Slice

from conftest import UV, pe, random_automorphism


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


def test_degree_invariant_under_elementary_precomposition():
    F = PolyMap(pe("x^2"), pe("y"))
    rng = random.Random(61)
    for _ in range(3):
        E, _ = random_automorphism(rng, max_total_deg=3, max_factors=2)
        assert topological_degree(compose_maps(F, E)).deg_geo == 2


# ------------------------------------------------------------- certification

def test_certify_ml_component_confirmed(ml_map):
    cand = nonproper_candidates(ml_map)
    verdicts = certify_nonproper(ml_map, cand, samples=5, seed=0, deg_geo=4)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["confirmed"]
    assert all(s["count"] < 4 for s in v["samples"])


def test_certify_empty_candidate_set():
    F = PolyMap(pe("x"), pe("y"))
    assert certify_nonproper(F, nonproper_candidates(F), deg_geo=1) == []


def test_certify_vertical_line_confirmed():
    F = PolyMap(pe("x"), pe("x*y"))
    verdicts = certify_nonproper(F, nonproper_candidates(F), samples=4,
                                 seed=3, deg_geo=1)
    assert len(verdicts) == 1
    assert verdicts[0]["confirmed"]
    assert all(s["count"] == 0 for s in verdicts[0]["samples"])


def test_certify_printed_rejects_overflowing_candidates_without_warnings(ml_map_printed):
    # the numeric count meets candidate points so far out that F overflows
    # there; they are rejected explicitly, and no RuntimeWarning escapes
    cand = nonproper_candidates(ml_map_printed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdicts = certify_nonproper(ml_map_printed, cand, samples=5, seed=0, deg_geo=4)
    assert [v["component"] for v in verdicts] == ["u^3 - v^2"]
    assert [s["count"] for s in verdicts[0]["samples"]] == [3, 3, 3, 3, 3]
    assert verdicts[0]["confirmed"]


def test_certify_computes_the_trivariate_resultant_once(ml_map_printed, monkeypatch):
    # every sample point is counted from one Res_y(P - u, Q - v)
    cand = nonproper_candidates(ml_map_printed)
    calls = []
    real = exc.resultant_allow_constant

    def counting(p, q, name):
        calls.append(name)
        return real(p, q, name)

    monkeypatch.setattr(exc, "resultant_allow_constant", counting)
    verdicts = certify_nonproper(ml_map_printed, cand, samples=5, seed=0, deg_geo=4)
    assert calls == ["y"]
    assert [s["count"] for s in verdicts[0]["samples"]] == [3, 3, 3, 3, 3]


def test_certify_raises_when_a_y_slice_solve_fails(ml_map, fail_y_slice_solves):
    # a failed solve must not drop its candidates: a lower count is the
    # evidence that confirms a component
    cand = nonproper_candidates(ml_map)
    with pytest.raises(RootFindingError):
        certify_nonproper(ml_map, cand, samples=5, seed=0, deg_geo=4)


def test_certify_rejects_proper_curve():
    # {u = 0} is not special for the identity: full fibers everywhere on it
    F = PolyMap(pe("x"), pe("y"))
    fake = PlaneCurveSet(pe("u", UV), ["supplied"])
    verdicts = certify_nonproper(F, fake, samples=3, seed=0, deg_geo=1)
    assert not verdicts[0]["confirmed"]


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
    in_y = Slice(jf, "y")
    for _ in range(8):
        xq = GaussianRational(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
        ys = in_y.exact_roots([xq])
        x0 = complex(xq)
        for y0 in ys:
            u0 = complex(ml_map.p.evaluate({"x": x0, "y": complex(y0)}))
            v0 = complex(ml_map.q.evaluate({"x": x0, "y": complex(y0)}))
            scale = max(1.0, abs(u0) ** 3, abs(v0) ** 2)
            val = complex(crit.defining.evaluate({"u": u0, "v": v0}))
            assert abs(val) <= 1e-9 * scale
            checked += 1
    assert checked >= 8


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
    assert rep.verdicts == certify_nonproper(ml_map, rep.candidates, seed=0, deg_geo=4)
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
