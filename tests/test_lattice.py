import math
import random

import numpy as np
import pytest

from planejac.gaussian import GaussianRational, QuadElem
from planejac import lattice, roots
from planejac.lattice import (LatticeBox, MetricValue, Slice, _ring_is_zero, _ring_mul_add,
                              brute_force_fiber_points, dhat,
                              dhat_batch, dist_upper_bound, dist_upper_bound_batch,
                              enumerate_fiber_points,
                              fiber_count_bounds, laurent_identity_check,
                              unit_disk_lattice_count, verify_dhat_inequality,
                              verify_dist_inequality)
from planejac.exceptional import PlaneCurveSet
from planejac.poly import PolyMap
from planejac.roots import RootFindingError

from support import UV, pe, random_poly, slice_rows


# ----------------------------------------------------------------- fiber sets

def test_fiber_points_ml_k1(ml_map):
    out = enumerate_fiber_points(ml_map.p, 1, LatticeBox(2))
    # x^6 y^4 + 2 x^2 y = 1 at (i, -1) and (-i, -1)
    assert out.points == [((0, -1), (-1, 0)), ((0, 1), (-1, 0))]
    assert out.count() == 2
    assert out.line_fiber is None


def test_fiber_points_ml_k3(ml_map):
    out = enumerate_fiber_points(ml_map.p, 3, LatticeBox(2))
    assert out.points == [((-1, 0), (1, 0)), ((1, 0), (1, 0))]


def test_fiber_line_degenerate():
    out = enumerate_fiber_points(pe("x"), 2, LatticeBox(3))
    assert out.points == []
    assert out.line_fiber == {"x_values": [[2, 0]], "count_each": 49}
    assert out.count() == 49


def test_fiber_rejects_nonintegral():
    with pytest.raises(ValueError):
        enumerate_fiber_points(pe("x^-1*y"), 1, LatticeBox(1))


def test_fiber_other_ring():
    out = enumerate_fiber_points(pe("y"), 1, LatticeBox(2, ring_m=2))
    # y = 1 for every x in the box
    assert len(out.points) == 25
    assert all(y == (1, 0) for _, y in out.points)


def test_fiber_matches_brute_force():
    rng = random.Random(47)
    box = LatticeBox(2)
    hits = 0
    for _ in range(10):
        f = random_poly(rng, max_deg=3, n_terms=3, int_coeffs=True)
        if (f.degree_in("y") or 0) == 0:
            continue
        k = rng.randint(-3, 3)
        fast = enumerate_fiber_points(f, k, box)
        assert fast.points == brute_force_fiber_points(f, k, box)
        hits += 1
    assert hits >= 7


def _full_fiber(out, box):
    """The enumerated points with the line fibers expanded, sorted."""
    lines = out.line_fiber["x_values"] if out.line_fiber else []
    return sorted(out.points + [(tuple(x), y) for x in lines for y in box.coords()])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", ["x*y - i*y", "x*y - y"])
def test_fiber_line_slices_match_brute_force(p, m):
    # P(x, .) vanishes identically at x = i (a lattice point only for m = 1)
    # and at x = 1; the line fibers and the points off them together are
    # exactly the brute-force fiber
    box = LatticeBox(1, m)
    out = enumerate_fiber_points(pe(p), 0, box)
    full = _full_fiber(out, box)
    assert full == brute_force_fiber_points(pe(p), 0, box)
    assert out.count() == len(full)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fiber_ring_path_matches_brute_force(m):
    # the plain-int ring path against exact QuadElem evaluation at every box
    # pair: random Gaussian-integer polynomials, plus slices whose leading
    # coefficient vanishes at the non-real x = i*sqrt(m); non-integral
    # levels have empty fibers
    rng = random.Random(300 + m)
    polys = [pe(f"x^2*y^2 + {m}*y^2 + x*y - 1"),
             pe(f"x^2*y^3 + {m}*y^3 + x^2*y + {m}*y + 2*x")]
    if m == 1:
        polys.append(pe("x*y^2 - i*y^2 + y + x + 1"))
    polys += [random_poly(rng, max_deg=3, n_terms=4, int_coeffs=True) for _ in range(4)]
    levels = [0, GaussianRational(1, -2), GaussianRational(1, 0, 2), GaussianRational(1, 1, 2)]
    for i, f in enumerate(polys):
        box = LatticeBox(2 if i < 2 else 1, m)
        for k in levels + [rng.randint(-3, 3)]:
            out = enumerate_fiber_points(f, k, box)
            full = _full_fiber(out, box)
            assert full == brute_force_fiber_points(f, k, box)
            assert out.count() == len(full)
            if not GaussianRational.coerce(k).is_gaussian_integer():
                assert full == []
    # the leading coefficient x^2 + m vanishes at x = +-i*sqrt(m): there the
    # slice x*y - 1 has the lattice root y = 1/x only for m = 1
    out = enumerate_fiber_points(polys[0], 0, LatticeBox(2, m))
    on_axis = [p for p in out.points if p[0] in ((0, 1), (0, -1))]
    assert on_axis == ([((0, -1), (0, 1)), ((0, 1), (0, -1))] if m == 1 else [])


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_ring_arithmetic_matches_quad_elem(m):
    rng = random.Random(400 + m)

    def rand():
        return tuple(rng.randint(-9, 9) for _ in range(4))

    for _ in range(200):
        s, t, c = rand(), rand(), rand()
        ref = (QuadElem(GaussianRational(*s[:2]), GaussianRational(*s[2:]), m)
               * QuadElem(GaussianRational(*t[:2]), GaussianRational(*t[2:]), m)
               + QuadElem(GaussianRational(*c[:2]), GaussianRational(*c[2:]), m))
        got = _ring_mul_add(s, t, c, m)
        assert (GaussianRational(*got[:2]), GaussianRational(*got[2:])) == (ref.u, ref.v)
        # zero rule, also on elements u + v*T that vanish at T = i only
        vr, vi = rng.randint(-3, 3), rng.randint(-3, 3)
        for z in (got, (vi, -vr, vr, vi), (0, 0, 0, 0)):
            q = QuadElem(GaussianRational(*z[:2]), GaussianRational(*z[2:]), m)
            assert _ring_is_zero(z, m) == q.equals_gaussian(0) == (abs(complex(q)) < 1e-9)


def test_fiber_candidates_cover_the_rounding_radius(ml_map, monkeypatch):
    # a root computed up to ROUND_RADIUS away still yields its lattice point:
    # shifted by 0.505, every root rounds to the next integer over
    ref = [enumerate_fiber_points(ml_map.p, k, LatticeBox(2)).points for k in (1, 3)]
    solve = lattice.find_roots_grouped

    def off(C):
        flat, counts = solve(C)
        return flat + 0.505, counts
    monkeypatch.setattr(lattice, "find_roots_grouped", off)
    assert [enumerate_fiber_points(ml_map.p, k, LatticeBox(2)).points for k in (1, 3)] == ref
    assert all(ref)


def test_fiber_enumeration_raises_when_a_solve_fails(ml_map, monkeypatch):
    # a failed batch solve is an error, not a silent fallback
    def fail(C, *args, **kw):
        raise RootFindingError("root iteration did not converge")
    monkeypatch.setattr(roots, "find_roots_batch", fail)
    with pytest.raises(RootFindingError):
        enumerate_fiber_points(ml_map.p, 3, LatticeBox(2))


def test_fiber_monotone_in_box(ml_map):
    small = enumerate_fiber_points(ml_map.p, 1, LatticeBox(2)).points
    large = enumerate_fiber_points(ml_map.p, 1, LatticeBox(3)).points
    assert set(small) <= set(large)


# ----------------------------------------------------------------- d-hat

def test_dhat_pinned_value(ml_curve):
    mv = dhat((3.0, 7.0), ml_curve)
    assert mv.kind == "dhat-exact-numeric"
    assert abs(mv.value - (7 - 3 * math.sqrt(3))) < 1e-9
    u, v = mv.witness
    assert abs(u - 3) < 1e-12 and abs(v - 3 * math.sqrt(3)) < 1e-9


def test_dhat_infinite_on_vertical_line_curve():
    curve = PlaneCurveSet(pe("u", UV), ["supplied"])
    mv = dhat((1.0, 1.0), curve)
    assert math.isinf(mv.value)
    assert mv.witness is None


def test_dhat_zero_on_contained_line():
    curve = PlaneCurveSet(pe("u", UV), ["supplied"])
    # q sits on the line {u = 0} inside the curve: the u-slice at q1 = 0
    # vanishes identically
    mv = dhat((0.0, 5.0), curve)
    assert mv.value == 0.0
    assert mv.witness == (0.0, 5.0)


def test_dhat_on_curve_point_is_zero(ml_curve):
    mv = dhat((4.0, 8.0), ml_curve)  # 4^4 - 4*64 = 0
    assert mv.value < 1e-9


def test_dhat_symmetric_under_coordinate_swap(ml_curve):
    swapped = PlaneCurveSet(pe("v^4 - v*u^2", UV), ["supplied"])
    rng = random.Random(53)
    for _ in range(20):
        q1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        q2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a = dhat((q1, q2), ml_curve).value
        b = dhat((q2, q1), swapped).value
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b)
        else:
            assert abs(a - b) < 1e-7


def test_dhat_rejects_empty_curve():
    empty = PlaneCurveSet(pe("1", UV), [])
    with pytest.raises(ValueError):
        dhat((0.0, 0.0), empty)


# ----------------------------------------------------------------- Dist

def test_dist_pinned_bound(ml_curve):
    mv = dist_upper_bound((3.0, 7.0), ml_curve)
    assert mv.kind == "dist-upper-bound"
    # (4, 8) lies on the curve at Chebyshev distance 1
    assert mv.value <= 1 + 1e-9
    u, v = mv.witness
    assert abs(complex(ml_curve.defining.evaluate({"u": u, "v": v}))) < 1e-6


def test_dist_witness_on_curve(ml_curve):
    rng = random.Random(59)
    for _ in range(15):
        q = (complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
             complex(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        mv = dist_upper_bound(q, ml_curve, refinement=10)
        u, v = mv.witness
        scale = max(1.0, abs(u) ** 4, abs(u) * abs(v) ** 2)
        assert abs(complex(ml_curve.defining.evaluate({"u": u, "v": v}))) < 1e-6 * scale


def test_dist_below_dhat(ml_curve):
    # Dist minimizes over the whole curve, d-hat only along the two slices
    rng = random.Random(67)
    for _ in range(1000):
        q = (complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
             complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        dv = dist_upper_bound(q, ml_curve, refinement=0).value
        hv = dhat(q, ml_curve).value
        assert dv <= hv + 1e-9


def test_dist_zero_on_contained_line():
    curve = PlaneCurveSet(pe("v", UV), ["supplied"])
    mv = dist_upper_bound((2.5, 0.0), curve)
    assert mv.value == 0.0


@pytest.mark.parametrize("curve", ["u^4 - u*v^2", "u", "v", "u*v - 1"])
def test_batch_metrics_match_one_target_calls(curve):
    # targets solved together do not see each other: every value and witness
    # is the one-target call's, also where a slice vanishes (u = 0 on the
    # curve "u", v = 0 on "v") or has no root
    curve = PlaneCurveSet(pe(curve, UV), ["supplied"])
    rng = random.Random(151)
    qs = [(0, 0), (0, 2 - 1j), (1.5, 0), (3, 7), (4, 8), (-2j, 1)]
    qs += [(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
            complex(rng.uniform(-4, 4), rng.uniform(-4, 4))) for _ in range(20)]
    for batch, one in ((dhat_batch(qs, curve), dhat),
                       (dist_upper_bound_batch(qs, curve, refinement=12),
                        lambda q, c: dist_upper_bound(q, c, refinement=12))):
        assert len(batch) == len(qs)
        for q, mv in zip(qs, batch):
            ref = one(q, curve)
            assert (mv.value, mv.witness, mv.kind) == (ref.value, ref.witness, ref.kind)


def test_dhat_sweep_matches_closed_form_roots(ml_map, ml_curve):
    # independent oracle on the 625 images of the B = 2 box: the slices of
    # u^4 - u*v^2 in closed form, solved by np.roots; points within 1e-6 of
    # the threshold 1 cannot be decided from np.roots and are skipped
    box = LatticeBox(2)
    out = verify_dhat_inequality(ml_map, ml_curve, box)
    found = {tuple(v["p"]): v["value"] for v in out["violations"]}
    decided = 0
    for a, b in box.coords():
        for c, e in box.coords():
            x, y = complex(a, b), complex(c, e)
            q1 = x ** 6 * y ** 4 + 2 * x ** 2 * y
            q2 = x ** 9 * y ** 6 + 3 * x ** 5 * y ** 3 + 3 * x
            m_u = np.min(np.abs(np.roots([1, 0, 0, -q2 * q2, 0]) - q1))
            m_v = 0.0 if q1 == 0 else np.min(np.abs(np.roots([-q1, 0, q1 ** 4]) - q2))
            ref = max(m_u, m_v)
            if abs(ref - 1) <= 1e-6:
                continue
            decided += 1
            got = found.get((a, b, c, e))
            if ref > 1:
                assert got is not None and abs(got - ref) <= 1e-6 * ref
            else:
                assert got is None
    assert out["checked"] == 625 and decided >= 600


# ----------------------------------------------------------------- sweeps

def test_curve_slices_match_exact_specialization():
    # the dense slice arrays against exact specialization of the polynomial,
    # to the roundoff bound they report
    rng = random.Random(101)
    for _ in range(20):
        f = random_poly(rng, vars=UV, max_deg=4, n_terms=6)
        if f.is_constant():
            continue
        for free, fixed in (("u", "v"), ("v", "u")):
            if not f.degree_in(free):
                continue
            sl = Slice(f, free)
            t = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3))
            coeffs, bounds = sl.numeric([complex(t)])
            cs = f.evaluate({fixed: t}).coeffs_in(free)
            top = len(coeffs[0]) - 1
            ref = [complex(cs[d].constant_value()) if d in cs else 0j
                   for d in range(top, -1, -1)]
            assert np.all(np.abs(coeffs[0] - ref) <= 1e-14 * np.maximum(1.0, bounds[0]))


def test_curve_slice_array_is_dense_in_the_fixed_variable():
    # with one fixed variable, A[i, j] is the coefficient of
    # free^(top-i) * fixed^j, zero columns included: the layout the sweeps'
    # floats have always come from
    rng = random.Random(103)
    for _ in range(10):
        f = random_poly(rng, vars=UV, max_deg=4, n_terms=6)
        for i, free in enumerate(UV):
            top = max(e[i] for e in f.terms)
            A = np.zeros((top + 1, max(e[1 - i] for e in f.terms) + 1), dtype=complex)
            for e, c in f.terms.items():
                A[top - e[i], e[1 - i]] = complex(c)
            assert np.array_equal(Slice(f, free).A, A)


@pytest.mark.parametrize("curve", ["u^4 - u*v^2", "u*v^2 - u", "u*v^3 + u*v^2 - v^2 + v + u - 2"])
def test_batched_slices_match_single_slices(curve):
    # a descent step's directions, solved together, give exactly the
    # one-row slices: also where the slice vanishes (u0 = 0 on the first
    # two curves), or where its leading (u0 = 0) or trailing (u0 = 2)
    # coefficient does on the third
    sl = Slice(pe(curve, UV), "v")
    u0s = np.array([0, 1, -1, 1j, 2, 2.5 - 0.5j, 1e7 + 3e6j, 0.3 + 0.1j, 0])
    got = slice_rows(sl, u0s)
    assert len(got) == len(u0s)
    for u0, roots in zip(u0s, got):
        ref = slice_rows(sl, [u0])[0]
        if ref is None:
            assert roots is None
        else:
            assert np.array_equal(roots, ref)


def test_verify_dist_small_box(ml_map, ml_curve):
    out = verify_dist_inequality(ml_map, ml_curve, LatticeBox(1), refinement=15)
    assert out["checked"] == 81
    assert out["unconfirmed"] == []
    assert out["confirmed"] == 81
    assert 0 < out["max_bound"] <= 1 + 1e-9
    # images of axis points land on the curve itself
    assert all(v["bound"] <= 1e-6 for v in out["axis_points"])


def test_verify_dist_empty_curve(ml_map):
    empty = PlaneCurveSet(pe("1", UV), [])
    out = verify_dist_inequality(ml_map, empty, LatticeBox(1))
    assert out["empty_curve"] and out["checked"] == 0


def test_verify_dhat_finds_violations(ml_map, ml_curve):
    out = verify_dhat_inequality(ml_map, ml_curve, LatticeBox(1))
    assert out["checked"] == 81
    assert len(out["violations"]) == 64
    # every violation is off-axis: d-hat stays small on the axes
    assert all(v["p"][0:2] != [0, 0] and v["p"][2:4] != [0, 0]
               for v in out["violations"])
    pinned = [v for v in out["violations"] if v["p"] == [1, 0, 1, 0]]
    assert len(pinned) == 1
    assert abs(pinned[0]["value"] - 1.803847577293368) < 1e-9
    assert abs(out["max_finite_value"] - 2.2714010519128927) < 1e-9


# ------------------------------------------------------- bounds and the disk

def test_fiber_count_bounds(ml_map, ml_curve):
    b4, b5 = fiber_count_bounds(ml_map, 4, ml_curve)
    assert b4 == 80
    assert b5 == pytest.approx(160.0)


def test_unit_disk_counts():
    assert unit_disk_lattice_count((2.0, 1 + 1j)) == 5
    assert unit_disk_lattice_count((0.0, 0.5 + 0.5j)) == 4
    assert unit_disk_lattice_count((1.0, 0.5)) == 2
    assert unit_disk_lattice_count((0.5, 0.0)) == 0


def test_unit_disk_counts_never_exceed_five():
    rng = random.Random(73)
    for _ in range(10000):
        c1 = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        c2 = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        assert unit_disk_lattice_count((c1, c2)) <= 5


# ------------------------------------------------------- Laurent identities

def test_laurent_identities_hold(ml_map):
    r_p, r_q = laurent_identity_check(ml_map)
    assert r_p.is_zero() and r_q.is_zero()


def test_laurent_identity_flags_variant(ml_map_printed):
    r_p, r_q = laurent_identity_check(ml_map_printed)
    assert r_p == pe("x^2*y")
    assert r_q.is_zero()


# ------------------------------------------------------- shapes

def test_box_validation():
    with pytest.raises(ValueError):
        LatticeBox(0)
    with pytest.raises(ValueError):
        LatticeBox(2, ring_m=0)
    assert LatticeBox(3).side() == 7


@pytest.mark.parametrize("m", [4, 8, 9, 12])
def test_box_rejects_ring_m_with_a_square_factor(m):
    # for m = 4 or 9, i*sqrt(m) lies in Q(i) and the ring's zero rule fails
    with pytest.raises(ValueError, match="square-free"):
        LatticeBox(1, m)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7])
def test_box_accepts_square_free_ring_m(m):
    assert LatticeBox(1, m).ring_m == m


def test_metric_json():
    mv = MetricValue(value=math.inf, witness=None, kind="dhat-exact-numeric")
    j = mv.to_json()
    assert j["infinite"] and j["value"] is None and j["witness"] is None
