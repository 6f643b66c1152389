import random

import numpy as np
import pytest

from planejac.gaussian import GR_ONE, GaussianRational
from planejac.poly import (ParseError, Poly, PolyMap, compose_map,
                           compose_maps, det_bareiss, divides, jacobian,
                           parse_expression, poly_gcd,
                           resultant, squarefree_part, sylvester_matrix)

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
        f = random_poly(rng, max_deg=4, n_terms=5, laurent=rng.random() < 0.3)
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
    p = pe("(2-3i)*x^-1*y + 5i")
    assert p.terms[(-1, 1)] == GaussianRational(2, -3)
    assert p.terms[(0, 0)] == GaussianRational(0, 5)
    assert p.is_laurent()


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
    assert pe("x^-1*y^-1").diff("x") == pe("-x^-2*y^-1")


def test_derivatives_commute():
    rng = random.Random(17)
    for _ in range(30):
        f = random_poly(rng, max_deg=5, n_terms=6, laurent=rng.random() < 0.4)
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


def test_laurent_evaluation_at_zero_errors():
    f = pe("x^-1*y")
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"x": GaussianRational(0), "y": GaussianRational(1)})


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
