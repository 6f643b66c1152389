import math
import random

import numpy as np
import pytest

from planejac import poly
from planejac.gaussian import GR_ONE, GaussianRational
from planejac.poly import (ParseError, Poly, PolyMap, Zi, compose_map,
                           compose_maps, det_bareiss, divides, jacobian,
                           parse_expression, poly_gcd,
                           resultant, squarefree_part)

from support import XY, UV, pe, random_point, random_poly


# ------------------------------------------------------------------ parsing

def test_parse_canonical_terms():
    p = pe("x^6*y^4 + 2*x^2*y")
    assert p.terms == {(6, 4): GaussianRational(1), (2, 1): GaussianRational(2)}


def test_parse_zero_and_cancellation():
    assert pe("0").is_zero()
    assert pe("(1+1i)*x*y - (1+1i)*x*y").is_zero()


def test_parse_print_fixed_point():
    rng = random.Random(3)
    for _ in range(40):
        f = random_poly(rng, max_deg=4, n_terms=5)
        assert pe(str(f)) == f


# coefficient, its str, and the term it prints as: leading before x^2, and
# non-leading after 5*x^2 (where the sign moves into the joiner)
_PRINTED = [
    (GaussianRational(1), "1", "x^2 + 5*y", "5*x^2 + y"),
    (GaussianRational(-1), "-1", "-x^2 + 5*y", "5*x^2 - y"),
    (GaussianRational(0, 1), "1i", "1i*x^2 + 5*y", "5*x^2 + 1i*y"),
    (GaussianRational(0, -1), "-1i", "-1i*x^2 + 5*y", "5*x^2 - 1i*y"),
    (GaussianRational(3, 0, 2), "3/2", "3/2*x^2 + 5*y", "5*x^2 + 3/2*y"),
    (GaussianRational(1, -2, 3), "(1-2i)/3", "(1-2i)/3*x^2 + 5*y", "5*x^2 + (1-2i)/3*y"),
    (GaussianRational(-2, -3), "(-2-3i)", "(-2-3i)*x^2 + 5*y", "5*x^2 - (2+3i)*y"),
]


@pytest.mark.parametrize("c, text, leading, trailing", _PRINTED,
                         ids=[t for _, t, _, _ in _PRINTED])
def test_printed_coefficients_are_pinned(c, text, leading, trailing):
    five = GaussianRational(5)
    assert str(c) == text
    assert str(Poly(XY, {(0, 0): c})) == text
    assert str(Poly(XY, {(2, 0): c, (0, 1): five})) == leading
    assert str(Poly(XY, {(2, 0): five, (0, 1): c})) == trailing
    assert pe(leading) == Poly(XY, {(2, 0): c, (0, 1): five})
    assert pe(trailing) == Poly(XY, {(2, 0): five, (0, 1): c})


def test_parse_gaussian_literals_and_laurent():
    p = pe("(2-3i)*x*y + 5i")
    assert p.terms[(1, 1)] == GaussianRational(2, -3)
    assert p.terms[(0, 0)] == GaussianRational(0, 5)
    # a Laurent monomial is refused where it is parsed
    with pytest.raises(ParseError, match=r"^negative exponent -1 \(at position 9\)$"):
        pe("(2-3i)*x^-1*y + 5i")


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(XY, {(-1, 0): 1})
    with pytest.raises(ParseError, match="negative exponent -2") as e:
        pe("x*y^-2")
    assert e.value.pos == 4  # the exponent's sign
    with pytest.raises(ParseError) as e:
        pe("x^2*x**-1")  # refused per factor, although the sum is 1
    assert e.value.pos == 7


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        pe("x^")
    with pytest.raises(ParseError):
        pe("x + + y")
    with pytest.raises(ParseError):
        pe("z")


@pytest.mark.parametrize("text", ["1+", "x*"])
def test_parse_names_the_end_of_input(text):
    with pytest.raises(ParseError, match=r"^unexpected end of input \(at position 2\)$") as e:
        pe(text)
    assert e.value.pos == 2


# ------------------------------------------------------------------ calculus

def test_jacobian_identity_and_shear():
    one = Poly.const(1, XY)
    assert jacobian(PolyMap(pe("x"), pe("y"))) == one
    assert jacobian(PolyMap(pe("x + y^2"), pe("y"))) == one


def test_jacobian_ml_numeric_oracle(ml_map):
    jf = jacobian(ml_map)
    assert jf.total_degree() == 9
    rng = random.Random(5)
    h = 1e-5
    for _ in range(10):
        x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        px = (complex(ml_map.p.evaluate({"x": x0 + h, "y": y0})) -
              complex(ml_map.p.evaluate({"x": x0 - h, "y": y0}))) / (2 * h)
        py = (complex(ml_map.p.evaluate({"x": x0, "y": y0 + h})) -
              complex(ml_map.p.evaluate({"x": x0, "y": y0 - h}))) / (2 * h)
        qx = (complex(ml_map.q.evaluate({"x": x0 + h, "y": y0})) -
              complex(ml_map.q.evaluate({"x": x0 - h, "y": y0}))) / (2 * h)
        qy = (complex(ml_map.q.evaluate({"x": x0, "y": y0 + h})) -
              complex(ml_map.q.evaluate({"x": x0, "y": y0 - h}))) / (2 * h)
        numeric = px * qy - py * qx
        symbolic = complex(jf.evaluate({"x": x0, "y": y0}))
        assert abs(numeric - symbolic) <= 1e-6 * max(1.0, abs(symbolic))


def test_partial_derivative_rules():
    assert pe("x^2*y").diff("x") == pe("2*x*y")
    assert pe("x^3").diff("y").is_zero()


def test_derivatives_commute():
    rng = random.Random(17)
    for _ in range(30):
        f = random_poly(rng, max_deg=5, n_terms=6)
        assert f.diff("x").diff("y") == f.diff("y").diff("x")


# ------------------------------------------------------------------ evaluate

def test_evaluate_pins(ml_map):
    one = GaussianRational(1)
    assert ml_map.p.evaluate({"x": one, "y": one}) == GaussianRational(3)
    assert ml_map.q.evaluate({"x": one, "y": one}) == GaussianRational(7)
    # term-by-term at (1,-1): 1 - 3 + 3
    assert ml_map.q.evaluate({"x": one, "y": -one}) == GaussianRational(1)


def test_evaluate_constant_term_at_origin():
    f = pe("x*y + 4 - 2i")
    z = GaussianRational(0)
    assert f.evaluate({"x": z, "y": z}) == GaussianRational(4, -2)


def test_evaluate_is_multiplicative():
    rng = random.Random(23)
    for _ in range(25):
        f = random_poly(rng)
        g = random_poly(rng)
        x0, y0 = random_point(rng)
        vals = {"x": x0, "y": y0}
        assert (f * g).evaluate(vals) == f.evaluate(vals) * g.evaluate(vals)
        assert (f + g).evaluate(vals) == f.evaluate(vals) + g.evaluate(vals)


# ------------------------------------------------------------------ ring axioms

def test_ring_axioms():
    rng = random.Random(29)
    for _ in range(30):
        f = random_poly(rng)
        g = random_poly(rng)
        h = random_poly(rng)
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f


# ------------------------------------------------------------------ composition

def test_compose_map_examples():
    F = PolyMap(pe("x^2"), pe("x^3"))
    cusp = pe("u^3 - v^2", UV)
    assert compose_map(cusp, F).is_zero()
    F2 = PolyMap(pe("x + y"), pe("x - y"))
    assert compose_map(pe("u*v", UV), F2) == pe("x^2 - y^2")
    assert compose_map(pe("u", UV), F2) == F2.p
    # u and v are substituted by name, whatever the other variables
    F3 = PolyMap(pe("x + y^2"), pe("y"))
    assert compose_map(pe("u*v", XYUV), F3) == compose_map(pe("u*v", UV), F3) == pe("y^3 + x*y")
    with pytest.raises(ValueError):
        compose_map(pe("u*x", XYUV), F3)


def test_jacobian_chain_rule():
    rng = random.Random(31)
    for _ in range(20):
        F = PolyMap(random_poly(rng, max_deg=3, n_terms=3),
                    random_poly(rng, max_deg=3, n_terms=3))
        G = PolyMap(random_poly(rng, max_deg=3, n_terms=3),
                    random_poly(rng, max_deg=3, n_terms=3))
        jf = jacobian(F)
        jf_uv = Poly(UV, dict(jf.terms))  # positional rename (x,y) -> (u,v)
        lhs = jacobian(compose_maps(F, G))
        rhs = compose_map(jf_uv, G) * jacobian(G)
        assert lhs == rhs


# ------------------------------------------------------------------ resultants

def test_resultant_row_convention():
    a = pe("y - u", ("y", "u", "v"))
    b = pe("y - v", ("y", "u", "v"))
    assert resultant(a, b, "y") == pe("u - v", ("y", "u", "v"))


def test_resultant_linear_quadratic():
    a = pe("y^2 - x")
    b = pe("y")
    assert resultant(a, b, "y") == pe("-x")


def test_resultant_degenerate_degree_errors():
    p = pe("x - u", ("x", "y", "u", "v"))
    q = pe("x*y - v", ("x", "y", "u", "v"))
    with pytest.raises(ValueError):
        resultant(p, q, "y")  # p has degree 0 in y
    r = resultant(p, q, "x")
    assert r == pe("u*y - v", ("x", "y", "u", "v"))


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(37)
    hits = 0
    for _ in range(50):
        a = random_poly(rng, vars=("y", "t"), max_deg=4, n_terms=3, int_coeffs=True)
        b = random_poly(rng, vars=("y", "t"), max_deg=4, n_terms=3, int_coeffs=True)
        if not a.degree_in("y") or not b.degree_in("y"):
            continue
        r = resultant(a, b, "y")
        t0 = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        ra = [complex(c) for c in _coeff_list(a, "y", t0)]
        rb = [complex(c) for c in _coeff_list(b, "y", t0)]
        if abs(ra[0]) < 1e-12 or abs(rb[0]) < 1e-12:
            continue  # leading-coefficient collapse changes the specialized resultant
        roots_a = np.roots(ra)
        roots_b = np.roots(rb)
        common = any(abs(x - z) < 1e-8 * (1 + abs(x)) for x in roots_a for z in roots_b)
        # the resultant has exact coefficients: its vanishing is decided exactly
        rval = r.evaluate({"y": GaussianRational(0), "t": t0})
        vanishes = not bool(rval)
        assert vanishes == common, (a, b, t0, rval, common)
        hits += 1
    assert hits >= 20


XYU = ("x", "y", "u")


def sylvester_matrix(a, b, name):
    """Sylvester matrix with a-coefficient rows on top, coefficients listed
    from highest degree.  Its determinant (``det_bareiss``) is the definition
    ``resultant`` is checked against."""
    a, b = a._align(b)
    A, B = poly._coeff_list(a, name), poly._coeff_list(b, name)
    m, n = len(A) - 1, len(B) - 1
    zero = Poly(A[0].vars)
    rows = [[zero] * s + A + [zero] * (n - 1 - s) for s in range(n)]
    rows += [[zero] * s + B + [zero] * (m - 1 - s) for s in range(m)]
    return rows


def _sylvester_det(a, b, name):
    return det_bareiss(sylvester_matrix(a, b, name))


def _random_coeff(rng, nonconst=False):
    """A random polynomial in (x, u) of degree <= 1 in each, over Q(i)."""
    terms = {}
    for e in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)):
        if rng.random() < 0.5:
            terms[e] = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3),
                                        rng.randint(1, 2))
    if nonconst:
        terms[(rng.randint(0, 1), 0, 1)] = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
    return Poly(XYU, terms)


def _random_in_y(rng, deg):
    """Degree `deg` in y with a leading coefficient that involves u."""
    yv = Poly.var("y", XYU)
    f = _random_coeff(rng, nonconst=True) * yv ** deg
    for k in range(deg):
        f = f + _random_coeff(rng) * yv ** k
    return f


def test_resultant_matches_sylvester_determinant():
    # the subresultant PRS against the Sylvester determinant itself, over
    # Q(i)[x, u]: non-constant leading coefficients, both argument orders
    rng = random.Random(41)
    for _ in range(40):
        a = _random_in_y(rng, rng.randint(1, 3))
        b = _random_in_y(rng, rng.randint(1, 3))
        r = resultant(a, b, "y")
        assert r == _sylvester_det(a, b, "y")
        da, db = a.degree_in("y"), b.degree_in("y")
        assert resultant(b, a, "y") == (-r if da * db % 2 else r)


def test_resultant_defective_prs_matches_sylvester_determinant():
    # degree gaps: deg a - deg b = 2 at the first step, and a = k*b + r with
    # deg r = 1 < deg b - 1, so the remainder sequence skips a degree
    rng = random.Random(43)
    yv = Poly.var("y", XYU)
    for _ in range(8):
        a, b = _random_in_y(rng, 3), _random_in_y(rng, 1)
        assert resultant(a, b, "y") == _sylvester_det(a, b, "y")
        assert resultant(b, a, "y") == _sylvester_det(b, a, "y")
        b3 = _random_in_y(rng, 3)
        a3 = _random_coeff(rng, nonconst=True) * b3 + _random_coeff(rng) * yv + _random_coeff(rng)
        assert a3.degree_in("y") == 3
        assert resultant(a3, b3, "y") == _sylvester_det(a3, b3, "y")


def test_resultant_shared_factor_is_zero():
    rng = random.Random(47)
    for _ in range(6):
        c = _random_in_y(rng, 1)
        a, b = c * _random_in_y(rng, 1), c * _random_in_y(rng, rng.randint(1, 2))
        assert resultant(a, b, "y").is_zero()
        assert _sylvester_det(a, b, "y").is_zero()


def _to_sympy(f):
    import sympy  # the callers load it through importorskip
    return sum((sympy.Integer(c.a) + sympy.I * c.b) / c.d
               * sympy.Mul(*(sympy.Symbol(w) ** e for w, e in zip(f.vars, exps)))
               for exps, c in f.terms.items())


def test_resultant_gaussian_integers_against_sympy():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")

    rng = random.Random(53)
    checked = 0
    while checked < 12:
        a = random_poly(rng, max_deg=4, n_terms=4, int_coeffs=True)
        b = random_poly(rng, max_deg=4, n_terms=4, int_coeffs=True)
        if not a.degree_in("y") or not b.degree_in("y"):
            continue
        if a.degree_in("y") < b.degree_in("y"):
            # sympy drops the sign of the swap there: its resultant of
            # (y - x, y^3) is -x^3, the Sylvester determinant x^3
            a, b = b, a
        ours = _to_sympy(resultant(a, b, "y"))
        ref = sympy.resultant(_to_sympy(a), _to_sympy(b), y)
        assert sympy.expand(ours - ref) == 0, (a, b)
        checked += 1


def test_resultant_sheared_makar_limanov_matches_sylvester_determinant(ml_map):
    # the (10, 15) resultant of the exact fiber count at one target, after
    # the shear x -> x + y: a 25 x 25 Sylvester determinant, and a remainder
    # sequence long enough to use h after a degree gap
    xv, yv = Poly.var("x", XY), Poly.var("y", XY)
    sub = {"x": xv + yv, "y": yv}
    p = ml_map.p.evaluate(sub) - Poly.const(GaussianRational(3, 2, 4), XY)
    q = ml_map.q.evaluate(sub) - Poly.const(GaussianRational(-7, 1, 3), XY)
    assert (p.degree_in("y"), q.degree_in("y")) == (10, 15)
    r = resultant(p, q, "y")
    assert r == _sylvester_det(p, q, "y")
    assert r.degree_in("x") == 4


def _random_xy_coeff(rng, nonconst=False):
    """A random polynomial in x of degree <= 2 over Q(i), as a Poly in (x, y)."""
    terms = {(k, 0): GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
             for k in range(3) if rng.random() < 0.5}
    if nonconst:
        terms[(rng.randint(1, 2), 0)] = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
    return Poly(XY, terms)


def _random_xy_in_y(rng, deg):
    """Degree `deg` in y with a leading coefficient that involves x."""
    yv = Poly.var("y", XY)
    f = _random_xy_coeff(rng, nonconst=True) * yv ** deg
    for k in range(deg):
        f = f + _random_xy_coeff(rng) * yv ** k
    return f


def _swap_xy(f):
    return Poly(XY, {(j, i): c for (i, j), c in f.terms.items()})


def test_dense_resultant_matches_sylvester_determinant(dense_only):
    # over Q(i)[x] on the dense ring: non-constant leading coefficients,
    # rational coefficients, both argument orders, and x eliminated as well
    rng = random.Random(71)
    for _ in range(30):
        a = _random_xy_in_y(rng, rng.randint(1, 4))
        b = _random_xy_in_y(rng, rng.randint(1, 4))
        assert not (a.has_gaussian_integer_coeffs() and b.has_gaussian_integer_coeffs())
        for f, g, name in ((a, b, "y"), (b, a, "y"), (_swap_xy(a), _swap_xy(b), "x")):
            assert resultant(f, g, name) == _sylvester_det(f, g, name), (f, g, name)


def test_dense_resultant_defective_prs_matches_sylvester_determinant(dense_only):
    # degree gaps, as in the (x, y, u) test above, on the dense ring
    rng = random.Random(73)
    yv = Poly.var("y", XY)
    for _ in range(8):
        a, b = _random_xy_in_y(rng, 4), _random_xy_in_y(rng, 1)
        assert resultant(a, b, "y") == _sylvester_det(a, b, "y")
        assert resultant(b, a, "y") == _sylvester_det(b, a, "y")
        b3 = _random_xy_in_y(rng, 3)
        a3 = _random_xy_coeff(rng, nonconst=True) * b3 + _random_xy_coeff(rng) * yv \
            + _random_xy_coeff(rng)
        assert a3.degree_in("y") == 3
        assert resultant(a3, b3, "y") == _sylvester_det(a3, b3, "y")


def test_dense_resultant_of_univariate_and_sharing_pairs(dense_only):
    rng = random.Random(79)
    for _ in range(6):
        # no other variable: the resultant is a constant
        a = random_poly(rng, vars=("y",), max_deg=4, n_terms=4)
        b = random_poly(rng, vars=("y",), max_deg=3, n_terms=4) + Poly.var("y") ** 4
        if not a.degree_in("y"):
            a = a + Poly.var("y") ** 2
        r = resultant(a, b, "y")
        assert r.is_constant() and r == _sylvester_det(a, b, "y")
        # a shared factor: the resultant is 0
        c = _random_xy_in_y(rng, 1)
        f, g = c * _random_xy_in_y(rng, 2), c * _random_xy_in_y(rng, rng.randint(1, 2))
        assert resultant(f, g, "y").is_zero()
        assert _sylvester_det(f, g, "y").is_zero()


def _big(rng):
    """A constant Gaussian integer with both parts within 10 of +-10^30."""
    return Poly.const(GaussianRational(rng.choice((-1, 1)) * (10 ** 30 + rng.randint(-10, 10)),
                                       rng.choice((-1, 1)) * (10 ** 30 + rng.randint(-10, 10))),
                      XY)


def test_dense_resultant_reads_back_every_coefficient(dense_only):
    # r(2^k) read back as balanced base-2^k digits: coefficients near
    # +-10^30 in both parts with mixed signs, so that digits borrow across
    # slots; zero middle rows; rows constant in x next to rows that are not
    rng = random.Random(89)
    xv, yv = Poly.var("x", XY), Poly.var("y", XY)
    for _ in range(12):
        a = (_big(rng) * xv ** 2 + _big(rng)) * yv ** 3 + _big(rng) * yv + _big(rng) * xv
        b = _big(rng) * yv ** 2 + (_big(rng) * xv ** 3 - _big(rng) * xv) * yv + _big(rng)
        c = _big(rng) * yv ** 4 + _big(rng)  # both middle rows zero, all constant in x
        for f, g in ((a, b), (b, a), (a, c), (c, b)):
            r = resultant(f, g, "y")
            assert r == _sylvester_det(f, g, "y"), (f, g)
            f, g = _swap_xy(f), _swap_xy(g)
            assert resultant(f, g, "x") == _sylvester_det(f, g, "x"), (f, g)
    assert max(abs(c.a) for c in r.terms.values()) > 10 ** 150
    # a top coefficient with one part zero: more digits in one part than in
    # the other
    for top, bottom in ((GaussianRational(0, 10 ** 30), 10 ** 30 + 1),
                        (10 ** 30 + 1, GaussianRational(0, -10 ** 30))):
        f, g = yv - Poly.const(top, XY) * xv ** 2, yv - Poly.const(bottom, XY) * xv
        r = resultant(f, g, "y")
        assert r == _sylvester_det(f, g, "y") and r.degree_in("x") == 2


def test_dense_resultant_of_zero_and_of_constants(dense_only):
    rng = random.Random(97)
    xv, yv = Poly.var("x", XY), Poly.var("y", XY)
    for _ in range(6):
        s, t, w = _big(rng), _big(rng), _big(rng)
        # Res_y(y + s*x, y + s*x + t) = t: large, constant, from rows in x
        f, g = yv + s * xv, yv + s * xv + t
        assert resultant(f, g, "y") == t == _sylvester_det(f, g, "y")
        # a shared factor y + s*x + w: the resultant is 0
        h = yv + s * xv + w
        f, g = h * (t * yv ** 2 + xv), h * (yv - t * xv ** 2)
        assert resultant(f, g, "y").is_zero() and _sylvester_det(f, g, "y").is_zero()


def test_balanced_digits_round_trip():
    rng = random.Random(101)
    for k in (2, 3, 7, 64):
        for _ in range(50):
            digits = [tuple(rng.randrange(-2 ** (k - 1), 2 ** (k - 1)) for _ in "ri")
                      for _ in range(rng.randint(1, 9))]
            digits[-1] = (digits[-1][0], digits[-1][1] or 1)
            z = Zi(*(sum(c[part] << (k * j) for j, c in enumerate(digits)) for part in (0, 1)))
            assert poly._balanced_digits(z, k) == digits
    assert poly._balanced_digits(Zi(0), 5) == []


def test_dense_division_is_checked():
    a, b, c = Zi(3, 4), Zi(2, -1), Zi(1, 1)  # 3 + 4i, 2 - i, 1 + i
    prod = a * b * c
    q = poly._div_or_raise(prod, b * c)
    assert (q.re, q.im) == (3, 4)
    q = poly._div_or_raise(prod, a)
    assert (q.re, q.im) == ((b * c).re, (b * c).im)
    for num, den in ((Zi(1), Zi(2)),  # 1 / 2
                     (Zi(0, 1), c),  # i / (1 + i) = (1 + i)/2 is not in Z[i]
                     (prod - Zi(1), a)):  # a remainder of -1
        with pytest.raises(ArithmeticError, match="subresultant exact division failed"):
            poly._div_or_raise(num, den)
    with pytest.raises(ZeroDivisionError):
        poly._div_or_raise(a, Zi(0))


def test_sylvester_shape():
    a = pe("y^2 - x")
    b = pe("y^3 + x*y")
    m = sylvester_matrix(a, b, "y")
    assert len(m) == 5 and all(len(row) == 5 for row in m)


# ------------------------------------------------------------------ gcd / squarefree / divides

def test_squarefree_examples():
    f = pe("u^2", UV) * pe("u^3 - v^2", UV)
    sf = squarefree_part(f)
    assert sf == (pe("u", UV) * pe("u^3 - v^2", UV)).monic()
    assert squarefree_part(pe("u^3 - v^2", UV)) == pe("u^3 - v^2", UV)
    f2 = (pe("u - 1", UV) ** 2) * (pe("u + 1", UV) ** 2)
    assert squarefree_part(f2) == (pe("u - 1", UV) * pe("u + 1", UV)).monic()


def test_divides_examples():
    target = pe("u", UV) * pe("u^3 - v^2", UV)
    assert not divides(pe("u - 3", UV), target)
    assert divides(pe("u", UV), target)
    assert divides(pe("u - i", UV), pe("u^2 + 1", UV))


def test_poly_gcd_basic():
    f = pe("x^2 - 1") * pe("x*y + 1")
    g = pe("x^2 - 1") * pe("y^2 + x")
    assert poly_gcd(f, g) == pe("x^2 - 1").monic()


def _sympy_over_qi(f):
    import sympy  # the callers load it through importorskip
    return sympy.Poly(_to_sympy(f), *map(sympy.Symbol, f.vars), domain=sympy.QQ_I)


def _from_sympy(p, vars):
    terms = {}
    for exps, c in p.terms():
        re, im = c.as_real_imag()
        d = re.q * im.q
        terms[exps] = GaussianRational(int(re * d), int(im * d), d)
    return Poly(vars, terms)


def _planted(rng):
    """A random factor h with a constant term, and two random cofactors."""
    h = random_poly(rng, max_deg=2, n_terms=3) + GaussianRational(
        rng.randint(1, 5), rng.randint(-5, 5), rng.randint(1, 3))
    return h, random_poly(rng, max_deg=2, n_terms=3), random_poly(rng, max_deg=2, n_terms=3)


def _fixed_gcd_cases():
    """(h, f, g) with h | gcd(f, g): inputs that steer the remainder
    sequence of `poly_gcd` (main variable y, or u for (x, y, u)) down paths
    that random inputs rarely take."""
    line = pe("x + 1i")
    elim = pe("x*y - u", XYU) * pe("x*y + 1", XYU)
    return [
        # the gcd lies only in the content in y
        (line, line * pe("y^2 + x*y + 1"), line * pe("2*x - 2") * pe("y - 3")),
        # coprime primitive parts, coprime contents
        (pe("1"), pe("x - 1") * pe("y^2 + x"), pe("x + 2") * pe("x*y + 1i")),
        # degrees 5 and 4 in y, first remainder of degree 2: the step from
        # (4, 2) divides by g*h^2 and updates h = g^2 / h, h non-constant
        (pe("y + x + 1"),
         pe("y + x + 1") * pe("(5+1i)*y^4 - (5+5i)*y^3 - 1i*y"),
         pe("y + x + 1") * pe("(-1+2i)*x^3*y^3 + (4-1i)")),
        # P - u and a Jacobian-like factor over (x, y, u), as in elimination
        (elim, elim * pe("x^6*y^4 + 2*x^2*y - u", XYU),
         elim * pe("x^2*y^3 - 3*x + 1i*u", XYU)),
    ]


def test_poly_gcd_matches_sympy_over_qi():
    pytest.importorskip("sympy")
    rng = random.Random(61)
    cases = _fixed_gcd_cases()
    for _ in range(25):
        h, a, b = _planted(rng)
        cases.append((h, h * a, h * b))
    for h, f, g in cases:
        ours = poly_gcd(f, g)
        assert divides(h, ours), (f, g)
        ref = _sympy_over_qi(f).gcd(_sympy_over_qi(g))
        assert ours == _from_sympy(ref, f.vars).monic(), (f, g)


def test_univariate_gcd_matches_sympy_over_qi(dense_only):
    pytest.importorskip("sympy")
    U = ("u",)
    rng = random.Random(83)
    cases = [(pe("u^9", UV), pe("-3*u^6", UV)), (pe("x"), pe("1i*x^9")),
             (pe("-2*u^5", UV), pe("u^3 + (1+2i)*u - 1/3", UV)),
             (pe("u^4 - 1/2*u", UV), pe("(2-1i)/3*u^7", UV))]
    for _ in range(25):
        h = random_poly(rng, vars=U, max_deg=3, n_terms=3) + GaussianRational(
            rng.randint(1, 5), rng.randint(-5, 5), rng.randint(1, 3))
        a, b = (random_poly(rng, vars=U, max_deg=4, n_terms=4) for _ in range(2))
        cases.append((h * a, h * b))
    for f, g in cases:
        ours = poly_gcd(f, g)
        ref = _sympy_over_qi(f).gcd(_sympy_over_qi(g))
        assert ours == _from_sympy(ref, f.vars).monic(), (f, g)
    assert poly_gcd(*cases[0]) == pe("u^6", UV)
    assert poly_gcd(*cases[1]) == pe("x")
    assert poly_gcd(*cases[2]) == Poly.const(1, UV)


def test_squarefree_part_matches_sympy_over_qi():
    pytest.importorskip("sympy")
    rng = random.Random(67)
    for _ in range(25):
        h, a, b = _planted(rng)
        f = h * h * a * (b if rng.random() < 0.5 else h)
        ours = squarefree_part(f)
        assert divides(ours, f) and divides(h.monic(), ours), f
        ref = _sympy_over_qi(f).sqf_part()
        assert ours == _from_sympy(ref, XY).monic(), f


def _repeatable_factor(rng):
    """A random non-constant factor over Z[i] with a constant term."""
    while True:
        h = random_poly(rng, max_deg=2, n_terms=2, int_coeffs=True) + GaussianRational(
            rng.randint(1, 3), rng.randint(-3, 3))
        if not h.is_constant():
            return h


def test_squarefree_part_of_gcd_is_gcd_of_squarefree_parts():
    # over Q(i), sqf(gcd(a, b)) = gcd(sqf a, sqf b): a shared factor s and
    # unshared factors ua, ub, each raised to a random multiplicity, times
    # cofactors with rational coefficients
    rng = random.Random(73)
    for _ in range(12):
        s, ua, ub = (_repeatable_factor(rng) for _ in range(3))
        ra, rb = (random_poly(rng, max_deg=1, n_terms=2) for _ in range(2))
        a = s ** rng.randint(1, 3) * ua ** rng.randint(1, 2) * ra
        b = s ** rng.randint(1, 2) * ub ** rng.randint(1, 2) * rb
        lhs = squarefree_part(poly_gcd(a, b))
        assert divides(s.monic(), lhs), (a, b)
        assert lhs == poly_gcd(squarefree_part(a), squarefree_part(b)), (a, b)


# ------------------------------------------------------------------ PolyMap caches

def test_polymap_degree_caches(ml_map):
    assert ml_map.deg_p == 10
    assert ml_map.deg_q == 15
    assert ml_map.deg_gcd == 5
    assert ml_map.is_integral()


def _coeff_list(f, var, t0):
    cs = f.coeffs_in(var)
    top = max(cs)
    out = []
    for d in range(top, -1, -1):
        c = cs.get(d)
        out.append(GaussianRational(0) if c is None else c.evaluate({"t": t0}))
    return out


# ------------------------------------------------ resultants in four variables

XYUV = ("x", "y", "u", "v")


def test_four_variable_resultants_match_sylvester_determinant():
    # shaped like exceptional._fiber_equations: P - u and Q - v over
    # (x, y, u, v) with rational coefficients, on the sparse path.  y is
    # eliminated from each against a third polynomial h in (x, y), and x
    # then from the two results, as in exceptional._eliminate_order
    rng = random.Random(83)
    # a leading coefficient in y that involves x
    pairs = [(pe("1/2*x*y^2 + (1-2i)/3*y + x"), pe("(2+1i)*x^2*y - 3/4*y + x"))]
    while len(pairs) < 5:
        p, q = (random_poly(rng, max_deg=2, n_terms=4) for _ in range(2))
        if all(f.degree_in(w) for f in (p, q) for w in XY):
            pairs.append((p, q))
    u, v = Poly.var("u", XYUV), Poly.var("v", XYUV)
    for p, q in pairs:
        f, g = p._with_vars(XYUV) - u, q._with_vars(XYUV) - v
        assert not (f.has_gaussian_integer_coeffs() and g.has_gaussian_integer_coeffs())
        for name in XY:
            assert resultant(f, g, name) == _sylvester_det(f, g, name), (p, q, name)
        h = random_poly(rng, max_deg=1, n_terms=3)._with_vars(XYUV) + Poly.var("y", XYUV)
        t1, t2 = resultant(f, h, "y"), resultant(g, h, "y")
        assert t1 == _sylvester_det(f, h, "y") and t2 == _sylvester_det(g, h, "y")
        if t1.degree_in("x") and t2.degree_in("x"):
            assert resultant(t1, t2, "x") == _sylvester_det(t1, t2, "x"), (p, q, h)


# ------------------------------------------ the int kernel against an oracle
# A per-term oracle in Q(i): a polynomial is {monomial: GaussianRational},
# a monomial the sorted ((variable, exponent), ...) of its used variables,
# so that operands over different variable tuples need no alignment.

def _mono(vars, exps):
    return tuple(sorted((w, e) for w, e in zip(vars, exps) if e))


def _ref(p):
    return {_mono(p.vars, e): c for e, c in p.terms.items()}


def _ref_sum(pairs):
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, GaussianRational(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    def mono_mul(m1, m2):
        d = dict(m1)
        for w, e in m2:
            d[w] = d.get(w, 0) + e
        return tuple(sorted((w, e) for w, e in d.items() if e))
    return _ref_sum((mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def _ref_monic(p):
    """Divided by the coefficient of the graded-lex largest exponent tuple."""
    terms = p.terms
    lc = terms[max(terms, key=lambda e: (sum(e), e))] if terms else None
    return {_mono(p.vars, e): c / lc for e, c in terms.items()}


def _ref_exact_div(g, f):
    """Graded-lex leading-term elimination, one GaussianRational per term;
    None at a negative quotient exponent."""
    g, f = g._align(f)
    key = lambda e: (sum(e), e)  # noqa: E731
    r, ft = g.terms, f.terms
    top = max(ft, key=key)
    q = {}
    while r:
        rt = max(r, key=key)
        d = tuple(a - b for a, b in zip(rt, top))
        if any(e < 0 for e in d):
            return None
        c = r[rt] / ft[top]
        q[_mono(g.vars, d)] = c
        for e, k in ft.items():
            e = tuple(a + b for a, b in zip(e, d))
            r[e] = r.get(e, GaussianRational(0)) - c * k
            if not r[e]:
                del r[e]
    return q


def _assert_kernel_form(p):
    assert p.den > 0
    assert all(re or im for re, im in p.num.values())
    assert math.gcd(p.den, *(x for pair in p.num.values() for x in pair)) == 1
    assert Poly(p.vars, p.terms) == p


_KERNEL_VARS = (XY, ("y", "x"), ("x",), ("x", "y", "u"), ("u", "v"))


def test_kernel_matches_per_term_oracle():
    rng = random.Random(89)
    zero = Poly(XY)
    for _ in range(60):
        a, b = (random_poly(rng, vars=rng.choice(_KERNEL_VARS), max_deg=3, n_terms=5)
                for _ in range(2))
        neg_b = {m: -c for m, c in _ref(b).items()}
        cases = [(a + b, _ref_sum([*_ref(a).items(), *_ref(b).items()])),
                 (a - b, _ref_sum([*_ref(a).items(), *neg_b.items()])),
                 (a - a, {}), (a + (-a), {}), (a + zero, _ref(a)), (a * zero, {}),
                 (a * b, _ref_mul(_ref(a), _ref(b))),
                 (a.monic(), _ref_monic(a))]
        for c in (0, 2, GaussianRational(1, -2, 3)):
            cases.append((a.scale(c), {m: k * c for m, k in _ref(a).items() if k * c}))
        ab = a * b
        r = random_poly(rng, vars=a.vars, max_deg=2, n_terms=2)
        for g, f in ((ab, b), (ab, a), (ab + r, b), (a, b), (zero, b)):
            want, got = _ref_exact_div(g, f), poly.exact_div(g, f)
            assert (got is None) == (want is None), (g, f)
            if got is not None:
                cases.append((got, want))
        assert _ref(poly.exact_div(ab, b)) == _ref(a)
        for got, want in cases:
            _assert_kernel_form(got)
            assert _ref(got) == want, (a, b, got)
        for x, y in ((a + b, b + a), (a * b, b * a), (a, a._with_vars(XYUV + a.vars[4:]))):
            if set(y.vars) >= set(x.vars):
                assert x == y and hash(x) == hash(y)


def test_kernel_edge_cases():
    # the zero polynomial, and a sum that cancels to zero
    zero = Poly(UV)
    assert zero.is_zero() and zero.den == 1 and zero.monic() == zero
    f = pe("1/2*u^2 + (1+1i)/3*v", UV)
    s = f + pe("-1/2*u^2 - (1+1i)/3*v", UV)
    assert s.is_zero() and s.den == 1 and s == zero and hash(s) == hash(zero)
    assert f.scale(0).is_zero() and f.scale(0).den == 1
    # monic with a non-real leading coefficient
    g = Poly(XY, {(2, 0): GaussianRational(1, 2, 3), (0, 1): GaussianRational(5)})
    m = g.monic()
    _assert_kernel_form(m)
    assert m.leading() == ((2, 0), GaussianRational(1))
    assert _ref(m) == _ref_monic(g)
    # exact_div gives None where the oracle does
    for num, den in ((pe("x^2 + 1"), pe("x + 1")), (pe("x*y + 1"), pe("2*x")),
                     (pe("1"), pe("x")), (pe("x + 1"), pe("x*y"))):
        assert poly.exact_div(num, den) is None and _ref_exact_div(num, den) is None
    # a quotient with non-integral coefficients, divided by a non-monic f
    h = pe("(1+2i)/5*x*y - 3/7")
    q = poly.exact_div(h * pe("(2-1i)*x + 1/2*y"), pe("(2-1i)*x + 1/2*y"))
    assert q == h and q.den == 35
    # equal polynomials over different variable tuples hash alike
    assert f == f._with_vars(XYUV) and hash(f) == hash(f._with_vars(XYUV))


def _ref_evaluate(p, values):
    """Per-term substitution of Gaussian rationals."""
    out = {}
    for exps, c in p.terms.items():
        for w, e in zip(p.vars, exps):
            if w in values:
                for _ in range(e):
                    c = c * values[w]
        m = _mono([w for w in p.vars if w not in values],
                  [e for w, e in zip(p.vars, exps) if w not in values])
        out[m] = out.get(m, GaussianRational(0)) + c
    return {m: c for m, c in out.items() if c}


def test_evaluation_at_gaussian_rationals_matches_per_term_oracle():
    rng = random.Random(97)
    for _ in range(40):
        f = random_poly(rng, vars=("x", "y", "u"), max_deg=3, n_terms=6)
        x0, y0 = random_point(rng)
        for values in ({"x": x0}, {"x": x0, "u": y0}):
            got = f.evaluate(values)
            _assert_kernel_form(got)
            assert _ref(got) == _ref_evaluate(f, values), (f, values)
        full = {"x": x0, "y": y0, "u": y0}
        assert f.evaluate(full) == _ref_evaluate(f, full).get((), GaussianRational(0))


def test_sparse_prs_division_must_be_gaussian_integral():
    # every coefficient of the sparse remainder sequence is a numerator over
    # Z[i]: a division that is exact only over Q(i) is an error
    xy = pe("x*y")
    assert poly._div_or_raise(xy * pe("(1+1i)*x - 2"), pe("(1+1i)*x - 2")) == xy
    for num, den in ((pe("x"), pe("2")), (pe("x*y"), pe("(1+1i)*x")), (pe("x + 1"), pe("x"))):
        with pytest.raises(ArithmeticError, match="subresultant exact division failed"):
            poly._div_or_raise(num, den)
