import glob
import math
import os
import random

import numpy as np
import pytest

from planejac.cli import load_map_file
from planejac.gaussian import GaussianRational, QuadElem, lattice_point
from planejac import roots
from planejac.lattice import (LatticeBox, Slice, _box_images, _box_powers, _first_min,
                              _ring_is_zero,
                              brute_force_fiber_points, dhat,
                              dhat_batch, dist_upper_bound, dist_upper_bound_batch,
                              enumerate_fiber_points,
                              fiber_count_bounds, laurent_identity_check,
                              unit_disk_lattice_count, verify_dhat_inequality,
                              verify_dist_inequality)
from planejac.exceptional import PlaneCurveSet
from planejac.poly import ParseError, PolyMap
from planejac.roots import RootFindingError

from support import UV, pe, random_automorphism, random_poly, slice_rows


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
    with pytest.raises(ValueError, match="Gaussian-integer"):
        enumerate_fiber_points(pe("1/2*x*y"), 1, LatticeBox(1))
    # a Laurent fiber polynomial is refused where it is parsed
    with pytest.raises(ParseError, match="negative exponent"):
        pe("x^-1*y")


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
    # the exact power table: t^k of every box value t by QuadElem products
    box = LatticeBox(3, m)
    A, B, M = _box_powers(box, 6)
    assert list(M) == [max(abs(ra[k]) + abs(rb[k]) for ra, rb in zip(A, B)) for k in range(7)]
    for (a, b), ra, rb in zip(box.coords(), A, B):
        t, p = lattice_point(a, b, m), lattice_point(1, 0, m)
        for k in range(7):
            assert (p.u, p.v) == (GaussianRational(ra[k]), GaussianRational(rb[k]))
            p = p * t
    # the array zero rule on ring products s*t + c, and on elements u + v*T
    # that vanish at T = i only, in int64 and in Python ints
    rng = random.Random(400 + m)

    def rand():
        return QuadElem(GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)),
                        GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)), m)

    elems = []
    for _ in range(200):
        s, t, c = rand(), rand(), rand()
        vr, vi = rng.randint(-3, 3), rng.randint(-3, 3)
        elems += [s * t + c, s * t - t * s,
                  QuadElem(GaussianRational(vi, -vr), GaussianRational(vr, vi), m)]
    z = np.array([[q.u.a, q.u.b, q.v.a, q.v.b] for q in elems]).T
    want = [q.equals_gaussian(0) for q in elems]
    assert want == [abs(complex(q)) < 1e-9 for q in elems]
    assert _ring_is_zero(z, m).tolist() == _ring_is_zero(z.astype(object), m).tolist() == want
    assert any(want) and not all(want)


def test_box_powers_are_shared_read_only():
    # one table per (box, top), reused by every fiber of the box and by
    # _box_images, so no caller may write into it
    box = LatticeBox(2, 2)
    table = _box_powers(box, 4)
    assert _box_powers(LatticeBox(2, 2), 4) is table
    for X in table:
        with pytest.raises(ValueError):
            X[0] = 7
    P = pe("x^4 + 2*y^2")
    assert set(enumerate_fiber_points(P, 0, box).points) == set(brute_force_fiber_points(P, 0, box))
    _box_images(PolyMap(P, pe("y")), box)
    assert _box_powers(box, 4) is table


def test_fiber_points_of_a_high_multiplicity_slice():
    # y = 3 (and y = 2) is a root of multiplicity 17 (10) of every slice,
    # which numeric roots locate too poorly to round to
    y3, y2 = pe("y - 3"), pe("y - 2")
    box = LatticeBox(3)
    out = enumerate_fiber_points(y3 ** 17, 0, box)
    assert out.points == [(x, (3, 0)) for x in box.coords()]
    out = enumerate_fiber_points((y3 * y2) ** 10, 0, box)
    assert out.points == [(x, y) for x in box.coords() for y in ((2, 0), (3, 0))]
    assert out.count() == 98


def test_fiber_beyond_the_int64_bound_matches_brute_force():
    # |x^30| reaches (3 + 3*sqrt(2))^30 > 2^63: the evaluation runs in Python ints
    f, box = pe("x^30*y^2 + 3*y - x"), LatticeBox(3, 2)
    for k in (0, 2, -3):
        out = enumerate_fiber_points(f, k, box)
        assert _full_fiber(out, box) == brute_force_fiber_points(f, k, box)


@pytest.mark.parametrize("p, q", [(665857, 470832), (26102926097, 18457556052)])
def test_fiber_root_bound_survives_a_near_cancelling_leading_coefficient(p, q):
    # p^2 - 2*q^2 = 1: at x = i*sqrt(2) the leading coefficient p + q*i*x of
    # the slice is p - q*sqrt(2), about 1/(2p); the root y = x attains
    # Fujiwara's bound |s_0/s_1| = |x|
    f, box = pe(f"{p}*y - {p}*x + {q}i*x*y - {q}i*x^2"), LatticeBox(2, 2)
    out = enumerate_fiber_points(f, 0, box)
    assert out.points == brute_force_fiber_points(f, 0, box) == [(x, x) for x in box.coords()]


@pytest.mark.parametrize("m", [1, 2])
def test_fiber_root_bound_takes_coefficients_beyond_the_float_range(m):
    N = 10 ** 400
    f, box = pe(f"y^2 + {N}*x - {N}"), LatticeBox(1, m)
    out = enumerate_fiber_points(f, 0, box)
    assert out.points == brute_force_fiber_points(f, 0, box) == [((1, 0), (0, 0))]


def test_fiber_contains_the_image_of_a_line_under_an_automorphism():
    # P o G = u for P the first component of F = G^-1, so every G(0, t) in
    # the box lies on the fiber P = 0, as a point or on a line fiber
    rng, box, hits = random.Random(7), LatticeBox(25), 0
    for _ in range(4):
        G, F = random_automorphism(rng)
        out = enumerate_fiber_points(F.p, 0, box)
        lines = (out.line_fiber or {}).get("x_values", [])
        found = set(out.points) | {(tuple(x), None) for x in lines}
        # g(0, t) = sum c_k t^k at every box t, exactly: t^k = A + B*i
        A, B, _ = _box_powers(box, max(g.degree_in("y") or 0 for g in (G.p, G.q)))

        def on_axis(g):
            re, im = np.zeros(len(A), dtype=object), np.zeros(len(A), dtype=object)
            for (i, k), c in g.terms.items():
                assert c.d == 1
                if i == 0:
                    re, im = re + c.a * A[:, k] - c.b * B[:, k], im + c.a * B[:, k] + c.b * A[:, k]
            return re, im
        for x, y in zip(zip(*on_axis(G.p)), zip(*on_axis(G.q))):
            if box.contains_coords(*x) and box.contains_coords(*y):
                hits += 1
                assert {(x, y), (x, None)} & found
    assert hits > 300


def test_fiber_at_a_large_box_is_pinned(ml_map):
    # 214M pairs of box points: evaluating each of them would stall this test
    out = enumerate_fiber_points(ml_map.p, 1, LatticeBox(60))
    assert out.points == [((0, -1), (-1, 0)), ((0, 1), (-1, 0))]
    assert out.line_fiber is None


def test_fiber_enumeration_solves_nothing(ml_map, monkeypatch):
    ref = [brute_force_fiber_points(ml_map.p, k, LatticeBox(2)) for k in (1, 3)]

    def fail(C, *args, **kw):
        raise RootFindingError("fiber enumeration called the root solver")
    monkeypatch.setattr(roots, "find_roots_batch", fail)
    assert [enumerate_fiber_points(ml_map.p, k, LatticeBox(2)).points for k in (1, 3)] == ref
    assert all(ref)


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
    # curve "u", v = 0 on "v") or has no root (the witness row is then NaN)
    curve = PlaneCurveSet(pe(curve, UV), ["supplied"])
    rng = random.Random(151)
    qs = [(0, 0), (0, 2 - 1j), (1.5, 0), (3, 7), (4, 8), (-2j, 1)]
    qs += [(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)),
            complex(rng.uniform(-4, 4), rng.uniform(-4, 4))) for _ in range(20)]
    for (vals, ws), one in ((dhat_batch(qs, curve), dhat),
                            (dist_upper_bound_batch(qs, curve, refinement=12),
                             lambda q, c: dist_upper_bound(q, c, refinement=12))):
        assert vals.shape == (len(qs),) and ws.shape == (len(qs), 2)
        for q, value, w in zip(qs, vals, ws):
            ref = one(q, curve)
            assert value == ref.value
            if math.isinf(value):
                assert ref.witness is None and np.isnan(w).all()
            else:
                assert tuple(w) == ref.witness


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


def test_dhat_sweep_matches_50_digit_dhat(ml_map, ml_curve):
    # the sweep's d-hat at all 625 points of the B = 2 box (m = 1) against
    # d-hat of u^4 - u*v^2 at the exact images, from the slices' roots in
    # closed form at 50 digits: u in {0} and the cube roots of q2^2, v the
    # square roots of q1^3 (every v where q1 = 0)
    mpmath = pytest.importorskip("mpmath")
    ps, qs = _box_images(ml_map, LatticeBox(2))
    vals, _ = dhat_batch(qs, ml_curve)
    assert len(ps) == 625
    with mpmath.workdps(50):
        for (a, b, c, e), got in zip(ps, vals):
            x, y = mpmath.mpc(a, b), mpmath.mpc(c, e)
            q1 = x ** 6 * y ** 4 + 2 * x ** 2 * y
            q2 = x ** 9 * y ** 6 + 3 * x ** 5 * y ** 3 + 3 * x
            m_u = min(abs(q1 - u) for u in [0] + [mpmath.root(q2 ** 2, 3, k) for k in range(3)])
            m_v = 0 if q1 == 0 else min(abs(q2 - s * mpmath.sqrt(q1 ** 3)) for s in (1, -1))
            ref = max(m_u, m_v)
            assert abs(got - ref) <= 1e-10 * ref, ((a, b, c, e), got, ref)


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


def _first_min_by_lexsort(vals, owner):
    order = np.lexsort((vals, owner))  # stable: the first of equals leads, NaN last
    return order[np.diff(owner[order], prepend=-1) != 0]


def test_first_min_matches_lexsort():
    # ties, runs of length 1, NaN entries and runs of NaN only, owners with gaps
    rng = np.random.default_rng(191)
    cases = [(np.array([]), np.array([], dtype=int)),
             (np.array([2.0, 1.0, 1.0, 3.0, 0.5]), np.array([0, 0, 0, 1, 4])),
             (np.array([np.nan, 2.0, np.nan, np.nan, 1.0, 1.0]), np.array([0, 0, 1, 1, 3, 3])),
             (np.array([0.0, -0.0, np.inf, np.inf]), np.array([5, 5, 6, 6]))]
    for _ in range(50):
        n = int(rng.integers(1, 40))
        vals = rng.integers(0, 4, size=n).astype(float)
        vals[rng.random(n) < 0.2] = np.nan
        cases.append((vals, np.sort(rng.integers(0, n, size=n))))
    for vals, owner in cases:
        assert np.array_equal(_first_min(vals, owner), _first_min_by_lexsort(vals, owner))


MAP_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "maps", "*.json")))


@pytest.mark.parametrize("path", MAP_FILES, ids=os.path.basename)
@pytest.mark.parametrize("m,bound", [(1, 3), (2, 2), (3, 2)])
def test_box_images_match_pointwise_evaluation(path, m, bound):
    # Gaussian integers: equal to complex Poly.evaluate bit for bit, since
    # every partial sum is an integer below 2^53.  Otherwise within a few
    # ulps of the term magnitudes sum |c x^i y^j| of the exact value (the
    # images of shear_composition cancel, so not of |image|)
    F = load_map_file(path)[0]

    def image(x, y):
        return [f.evaluate({"x": x, "y": y}) for f in (F.p, F.q)]

    box = LatticeBox(bound, m)
    ps, got = _box_images(F, box)
    assert ps == [(a, b, c, e) for a, b in box.coords() for c, e in box.coords()]
    if m == 1:
        ref = [image(complex(a, b), complex(c, e)) for a, b, c, e in ps]
        assert got.tobytes() == np.array(ref, dtype=complex).tobytes()
        return
    for (a, b, c, e), g in zip(ps, got):
        exact = image(lattice_point(a, b, m), lattice_point(c, e, m))
        x, y = (abs(complex(s, t * math.sqrt(m))) for s, t in ((a, b), (c, e)))
        for f, gv, r in zip((F.p, F.q), g, exact):
            scale = sum(abs(complex(k)) * x ** i * y ** j for (i, j), k in f.terms.items())
            assert abs(gv - complex(r)) <= 4 * np.finfo(float).eps * scale


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


def test_laurent_identity_residuals_are_the_perturbation(ml_map):
    # (P + g, Q + h) misses the closed forms by exactly (-g, -h)
    rng = random.Random(101)
    for _ in range(10):
        g, h = random_poly(rng, max_deg=4, n_terms=5), random_poly(rng, max_deg=4, n_terms=5)
        r_p, r_q = laurent_identity_check(PolyMap(ml_map.p + g, ml_map.q + h))
        assert (r_p, r_q) == (-g, -h), (g, h)


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
