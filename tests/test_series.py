import math
import os
import random

import pytest

from planejac import series
from planejac.cli import load_map_file
from planejac.exceptional import exceptional_report
from planejac.gaussian import GaussianRational
from planejac.poly import ParseError, Poly, PolyMap, compose_map, jacobian, substitute
from planejac.series import (SeriesMap, TruncSeries2, automorphism_verdict,
                             compose_truncated, local_inverse, translate_map,
                             truncate)

from support import (UV, XY, pe, random_automorphism, random_poly,
                     rename_xy_to_uv)

MAPS = os.path.join(os.path.dirname(__file__), "..", "maps")


def _one(n):
    return GaussianRational(n)


# ---------------------------------------------------------------- truncation

def test_truncate_cubic_to_linear():
    p = (Poly.const(1, UV) + Poly.var("u", UV) + Poly.var("v", UV)) ** 3
    s = truncate(p, 1)
    assert s.terms == {(0, 0): _one(1), (1, 0): _one(3), (0, 1): _one(3)}


def test_truncate_drops_high_terms(ml_map):
    s = truncate(ml_map.p, 3, vars=XY)
    assert s.terms == {(2, 1): _one(2)}


def test_truncate_rejects_laurent():
    # a Laurent polynomial is refused where it is parsed or built
    with pytest.raises(ParseError, match="negative exponent"):
        pe("u^-1", UV)
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(UV, {(-1, 0): 1})
    # the series keeps its own check: it drops the terms above its order
    # before it builds the Poly, and this one is above order 4
    with pytest.raises(ValueError, match="nonnegative"):
        TruncSeries2(4, {(-1, 10): _one(1)})


def test_series_arithmetic_meets_orders():
    a = TruncSeries2(5, {(1, 0): _one(1)})
    b = TruncSeries2(3, {(0, 1): _one(2)})
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a * b).terms == {(1, 1): _one(2)}


# ------------------------------------------------------------- local inverse

def test_local_inverse_identity():
    G = local_inverse(PolyMap(pe("x"), pe("y")), 8)
    assert G.g1.terms == {(1, 0): _one(1)}
    assert G.g2.terms == {(0, 1): _one(1)}


def test_local_inverse_elementary_shear():
    G = local_inverse(PolyMap(pe("x"), pe("y + x^2")), 10)
    assert G.g1.terms == {(1, 0): _one(1)}
    assert G.g2.terms == {(0, 1): _one(1), (2, 0): _one(-1)}


def test_local_inverse_two_sided_identity():
    F = PolyMap(pe("x + y^2"), pe("y + x^2"))
    n = 12
    G = local_inverse(F, n)
    # F o G is the identity through total degree n
    C = compose_truncated(G, F)
    assert C.g1.terms == {(1, 0): _one(1)}
    assert C.g2.terms == {(0, 1): _one(1)}
    # G o F likewise: substitute the polynomial map into the series
    gf_p = compose_map(G.g1.to_poly(), F)
    gf_q = compose_map(G.g2.to_poly(), F)
    assert truncate(gf_p, n, vars=XY).terms == {(1, 0): _one(1)}
    assert truncate(gf_q, n, vars=XY).terms == {(0, 1): _one(1)}


def test_local_inverse_requires_origin_and_invertible_linear_part():
    with pytest.raises(ValueError):
        local_inverse(PolyMap(pe("x + 1"), pe("y")), 4)
    with pytest.raises(ValueError):
        local_inverse(PolyMap(pe("x^2"), pe("y^2")), 4)


def test_local_inverse_is_deterministic_and_order_coherent():
    rng = random.Random(41)
    for _ in range(10):
        h1 = random_poly(rng, max_deg=3, n_terms=3, int_coeffs=True)
        h2 = random_poly(rng, max_deg=3, n_terms=3, int_coeffs=True)
        # keep only the degree >= 2 part so the linear part stays the identity
        h1 = Poly(XY, {e: c for e, c in h1.terms.items() if sum(e) >= 2})
        h2 = Poly(XY, {e: c for e, c in h2.terms.items() if sum(e) >= 2})
        F = PolyMap(pe("x") + h1, pe("y") + h2)
        G16 = local_inverse(F, 16)
        assert G16 == local_inverse(F, 16)
        G8 = local_inverse(F, 8)
        assert TruncSeries2(8, G16.g1.terms) == G8.g1
        assert TruncSeries2(8, G16.g2.terms) == G8.g2


def test_local_inverse_recovers_exact_automorphism_inverse():
    rng = random.Random(99)
    for _ in range(10):
        M, Minv = random_automorphism(rng)
        n = 10
        G = local_inverse(M, n)
        assert G.g1 == truncate(rename_xy_to_uv(Minv.p), n)
        assert G.g2 == truncate(rename_xy_to_uv(Minv.q), n)


# ------------------------------------------- differential: reference loops

def _monomial_substitution(f, s1, s2, order):
    """Oracle for substitute: one full product per monomial, of series at
    `order` or, with order None, of polynomials."""
    ix = f.vars.index("x") if "x" in f.vars else None
    iy = f.vars.index("y") if "y" in f.vars else None
    if order is None:
        one, result = Poly.const(1, s1.vars), Poly(s1.vars)
    else:
        one = TruncSeries2(order, {(0, 0): _one(1)}, s1.vars)
        result = TruncSeries2(order, {}, s1.vars)
    pow1, pow2 = [one], [one]
    for exps, c in f.terms.items():
        ex = exps[ix] if ix is not None else 0
        ey = exps[iy] if iy is not None else 0
        for pw, s, e in ((pow1, s1, ex), (pow2, s2, ey)):
            while len(pw) <= e:
                pw.append(pw[-1] * s)
        result = result + pow1[ex] * pow2[ey] * c
    return result


def _fixed_point_inverse(F, order):
    """Oracle for local_inverse: G <- L^{-1}(Id - H o G) at full order until
    it stops changing, with monomial-by-monomial substitution."""
    (a, b), (c, d) = ([f.terms.get(e, _one(0)) for e in ((1, 0), (0, 1))]
                      for f in (F.p, F.q))
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    hp = F.p - Poly(XY, {(1, 0): a, (0, 1): b})
    hq = F.q - Poly(XY, {(1, 0): c, (0, 1): d})
    ident_u = TruncSeries2(order, {(1, 0): _one(1)})
    ident_v = TruncSeries2(order, {(0, 1): _one(1)})
    g1 = TruncSeries2(order, {(1, 0): inv[0][0], (0, 1): inv[0][1]})
    g2 = TruncSeries2(order, {(1, 0): inv[1][0], (0, 1): inv[1][1]})
    for _ in range(order):
        r1 = ident_u - _monomial_substitution(hp, g1, g2, order)
        r2 = ident_v - _monomial_substitution(hq, g1, g2, order)
        n1 = r1 * inv[0][0] + r2 * inv[0][1]
        n2 = r1 * inv[1][0] + r2 * inv[1][1]
        if n1 == g1 and n2 == g2:
            break
        g1, g2 = n1, n2
    return SeriesMap(g1, g2)


def _random_series(rng, order, density=0.6):
    return TruncSeries2(order, {
        (i, j): GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(order + 1) for j in range(order + 1 - i) if rng.random() < density
    })


def _higher_part(f):
    return Poly(XY, {e: c for e, c in f.terms.items() if sum(e) >= 2})


def _differential_maps(ml_map):
    rng = random.Random(7)
    maps = []
    for _ in range(3):
        h1 = _higher_part(random_poly(rng, max_deg=4, n_terms=8))
        h2 = _higher_part(random_poly(rng, max_deg=4, n_terms=8))
        maps.append(PolyMap(pe("x") + h1, pe("y") + h2))
    for _ in range(3):
        maps.append(random_automorphism(rng)[0])
    # a linear part that is neither the identity nor a permutation
    h1 = _higher_part(random_poly(rng, max_deg=3, n_terms=4))
    h2 = _higher_part(random_poly(rng, max_deg=3, n_terms=4))
    maps.append(PolyMap(pe("2*x + i*y") + h1, pe("x - 3*y") + h2))
    # the canonical non-invertible map at (1, 1): its inverse is no polynomial
    maps.append(translate_map(ml_map, _one(1), _one(1)))
    return maps


def test_local_inverse_matches_fixed_point_loop(ml_map):
    for F in _differential_maps(ml_map):
        for n in range(1, 11):
            G = local_inverse(F, n)
            assert G.order == n
            assert G == _fixed_point_inverse(F, n)


def test_map_into_series_matches_monomial_substitution():
    rng = random.Random(13)
    polys = [random_poly(rng, max_deg=4, n_terms=6) for _ in range(4)]
    polys += [
        Poly(("y", "x"), {(3, 1): _one(2), (0, 2): GaussianRational(1, -1, 3), (1, 0): _one(-1)}),
        pe("x^4 - 3*x^2 + x"),
        Poly(("x",), {(3,): _one(5), (1,): GaussianRational(0, 1)}),
        pe("7 + x*y^2"),
        Poly.const(GaussianRational(2, 3, 5), XY),
        Poly(XY, {}),
    ]
    values = [(_random_series(rng, n + extra), _random_series(rng, n + extra), n)
              for n in range(1, 7) for extra in (0, 2)]
    # order None: plain polynomial composition, with values in (x, y) as
    # for maps and in (u, v) as for curves
    values += [(random_poly(rng, vars=vs, max_deg=2, n_terms=3),
                random_poly(rng, vars=vs, max_deg=2, n_terms=3), None)
               for vs in (XY, XY, UV, UV)]
    for s1, s2, n in values:
        vals = {"x": s1 if n is None else s1.poly, "y": s2 if n is None else s2.poly}
        # each polynomial once as p and once as q, beside one of another
        # x-degree: the powers of s1 both share must cover the larger
        for f, g in zip(polys, polys[1:] + polys[:1]):
            want = [_monomial_substitution(h, s1, s2, n) for h in (f, g)]
            got = substitute((f, g), vals, n)
            assert list(got) == [w if n is None else w.poly for w in want]
            if n is None:
                assert f.evaluate(vals) == want[0]
    # a variable without a value stays itself
    assert pe("x*y").evaluate({"x": pe("x + y")}) == pe("x*y + y^2")
    x = Poly.var("x", XY)
    with pytest.raises(ParseError, match="negative exponent"):  # no Laurent value
        pe("x^-1 + y")
    with pytest.raises(ValueError):  # a third variable
        pe("x*y*u", ("x", "y", "u")).evaluate({"x": x})
    with pytest.raises(TypeError):  # mixed scalar and polynomial values
        pe("x*y").evaluate({"x": x, "y": 3})


# ------------------------------------ differential: the integer kernel

def _ref_sum(parts, order):
    """Oracle for series sums: sum of c * terms over plain
    {(eu, ev): GaussianRational} dicts, truncated at `order`."""
    out = {}
    for c, terms in parts:
        for e, k in terms.items():
            if sum(e) <= order:
                out[e] = out.get(e, _one(0)) + c * k
    return {e: k for e, k in out.items() if k}


def _ref_product(t1, t2, order):
    """Oracle for series products, coefficient by coefficient in Q(i)."""
    out = {}
    for (a1, b1), k1 in t1.items():
        for (a2, b2), k2 in t2.items():
            e = (a1 + a2, b1 + b2)
            if sum(e) <= order:
                out[e] = out.get(e, _one(0)) + k1 * k2
    return {e: k for e, k in out.items() if k}


def _assert_canonical(s):
    p = s.poly
    assert p.den > 0
    assert math.gcd(p.den, *(x for pair in p.num.values() for x in pair)) == 1
    assert all(re or im for re, im in p.num.values())
    assert all(eu >= 0 and ev >= 0 and eu + ev <= s.order for eu, ev in p.num)
    assert TruncSeries2(s.order, s.terms) == s


def test_series_arithmetic_matches_dict_oracle():
    rng = random.Random(5)
    scalars = (2, -1, 0, 3, GaussianRational(1, -2, 3), GaussianRational(0, 1))
    for _ in range(40):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        s, t = _random_series(rng, n1), _random_series(rng, n2)
        n = min(n1, n2)
        cases = [(s + t, _ref_sum([(1, s.terms), (1, t.terms)], n), n),
                 (s - t, _ref_sum([(1, s.terms), (-1, t.terms)], n), n),
                 (s * t, _ref_product(s.terms, t.terms, n), n),
                 (s - s, {}, n1),
                 (s + s * (-1), {}, n1)]
        cases += [(s * c, _ref_sum([(c, s.terms)], n1), n1) for c in scalars]
        for got, want, order in cases:
            _assert_canonical(got)
            assert got.order == order
            assert got.terms == want


def test_series_constructor_puts_terms_over_their_lcm():
    s = TruncSeries2(3, {(1, 0): GaussianRational(1, 1, 2), (0, 1): GaussianRational(0, 1, 3),
                         (2, 0): 4, (0, 0): 0, (4, 0): 1})
    _assert_canonical(s)
    assert s.poly.den == 6
    assert s.poly.num == {(1, 0): (3, 3), (0, 1): (0, 2), (2, 0): (24, 0)}


def test_local_inverse_builds_few_gaussian_rationals(ml_map, monkeypatch):
    # series arithmetic runs on int numerators; a reduced GaussianRational
    # per coefficient product and partial sum made about 99,000 here
    F = translate_map(ml_map, _one(1), _one(1))
    calls = [0]
    real = GaussianRational.__init__

    def counting(self, *args):
        calls[0] += 1
        real(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    local_inverse(F, 10)
    assert calls[0] < 10_000


def test_local_inverse_doubles_its_order_per_newton_step(monkeypatch):
    # each Newton step substitutes G into F once, at twice the order it had
    # reached, capped at the target; a ladder of one order per pass, or a
    # loop at full order throughout, would show up here
    orders = []
    real = series.substitute

    def recording(fs, values, order=None):
        orders.append(order)
        return real(fs, values, order)

    monkeypatch.setattr(series, "substitute", recording)
    F = PolyMap(pe("x + y^2"), pe("y + x^3"))
    for n, want in ((1, []), (2, [2]), (9, [2, 4, 8, 9]), (16, [2, 4, 8, 16])):
        orders.clear()
        local_inverse(F, n)
        assert orders == want


@pytest.mark.parametrize("n", [3, 5, 12, 17, 24])
def test_local_inverse_recovers_automorphism_inverses_at_high_orders(n):
    # orders off the powers of two, where the last Newton step stops short
    # of doubling, and past the differential loop's 10
    rng = random.Random(4100 + n)
    maps = []
    while len(maps) < 3 or max(max(M.deg_p, M.deg_q) for M, _ in maps) < 8:
        maps = maps[-2:] + [random_automorphism(rng, max_total_deg=8, max_factors=3,
                                                max_factor_deg=4)]
    idu = TruncSeries2(n, {(1, 0): _one(1)})
    idv = TruncSeries2(n, {(0, 1): _one(1)})
    for M, Minv in maps:
        G = local_inverse(M, n)
        assert G.g1 == truncate(rename_xy_to_uv(Minv.p), n)
        assert G.g2 == truncate(rename_xy_to_uv(Minv.q), n)
        C = compose_truncated(G, M)
        assert C.g1 == idu and C.g2 == idv


@pytest.mark.parametrize("n", [11, 12])
def test_local_inverse_of_the_non_automorphism_matches_fixed_point_loop(ml_map, n):
    F = translate_map(ml_map, _one(1), _one(1))
    assert local_inverse(F, n) == _fixed_point_inverse(F, n)


# ---------------------------------------------------------------- translation

def test_translate_identity_like_map():
    F = PolyMap(pe("x"), pe("y"))
    G = translate_map(F, GaussianRational(3), GaussianRational(5))
    assert G.p == pe("x") and G.q == pe("y")


def test_translate_ml_map_fixes_origin(ml_map):
    for a, b in ((GaussianRational(1), GaussianRational(1)),
                 (GaussianRational(0, 1), GaussianRational(1))):
        G = translate_map(ml_map, a, b)
        z = GaussianRational(0)
        assert not G.p.evaluate({"x": z, "y": z})
        assert not G.q.evaluate({"x": z, "y": z})
        assert G.is_integral()
        # same map up to the shift: compare values at a random exact point
        x0, y0 = GaussianRational(2, -1, 3), GaussianRational(-1, 1, 2)
        lhs = G.p.evaluate({"x": x0, "y": y0})
        rhs = (ml_map.p.evaluate({"x": x0 + a, "y": y0 + b})
               - ml_map.p.evaluate({"x": a, "y": b}))
        assert lhs == rhs


def test_translate_preserves_constant_jacobian():
    F = PolyMap(pe("x + y^3"), pe("y"))
    G = translate_map(F, GaussianRational(2), GaussianRational(-3))
    assert jacobian(G) == jacobian(F)


def test_translate_raises_when_the_jacobian_changes(monkeypatch):
    # the check must survive python -O, so it raises instead of asserting
    real = series.jacobian
    calls = []

    def drifting(F):
        calls.append(F)
        jf = real(F)
        return jf if len(calls) == 1 else jf + Poly.const(1, jf.vars)

    monkeypatch.setattr(series, "jacobian", drifting)
    with pytest.raises(RuntimeError, match="constant Jacobian"):
        translate_map(PolyMap(pe("x + y^3"), pe("y")), _one(2), _one(-3))
    assert len(calls) == 2


# ------------------------------------------------------- automorphism verdict

def _verdict(F, order=16):
    """The verdict as `invert` takes it: the series at order max(N, d) when
    JF is a nonzero constant."""
    if series.has_constant_jacobian(F):
        order = max(order, F.deg_p, F.deg_q)
    return automorphism_verdict(F, local_inverse(F, order))[0]


def test_verdict_recovers_criterion_9_automorphisms():
    rng = random.Random(2026)
    for _ in range(20):
        M, Minv = random_automorphism(rng, max_total_deg=12, max_factors=4,
                                      max_factor_deg=5)
        v = _verdict(M)
        assert v["value"] and v["reason"] == "F o G = (u, v) exactly"
        assert v["inverse"] == {"g1": str(rename_xy_to_uv(Minv.p)),
                                "g2": str(rename_xy_to_uv(Minv.q))}
        assert v["integral_inverse"] == Minv.is_integral()


def test_verdict_constant_jacobian_two_has_rational_inverse():
    F = PolyMap(pe("2*x + y^2"), pe("y"))
    v = _verdict(F)
    assert v["value"] and not v["integral_inverse"]
    assert v["inverse"] == {"g1": str(pe("1/2*u - 1/2*v^2", UV)), "g2": "v"}


def test_verdict_reads_past_the_series_order():
    # G = L^{-1} alone: F o G = (u, v + u^2) differs at degree 2
    F = PolyMap(pe("x"), pe("y + x^2"))
    v, resid = automorphism_verdict(F, local_inverse(F, 1))
    assert v == {"value": False, "reason": "F o G differs from (u, v) at degree 2"}
    assert resid.order == 2 and resid.g2.terms == {(2, 0): _one(1)}


def test_verdict_non_constant_jacobian_composes_at_the_series_order():
    F = PolyMap(pe("x + y^2"), pe("y + x^2"))
    v, resid = automorphism_verdict(F, local_inverse(F, 12))
    assert v == {"value": False, "reason": "JF is not a nonzero constant"}
    assert resid.order == 12 and not resid.g1.terms and not resid.g2.terms


def test_verdict_agrees_with_empty_exceptional_set():
    # a map with constant JF and empty A_F is proper and etale, so of
    # degree 1: the series verdict and the resultant pipeline must agree.
    # The makar_limanov maps are inverted at (1, 1); a translation moves A_F
    # without changing whether it is empty.
    one = _one(1)
    maps = []
    for name in ("identity", "elementary", "shear_composition"):
        F = load_map_file(os.path.join(MAPS, name + ".json"))[0]
        maps.append((F, F))
    for name in ("makar_limanov", "makar_limanov_printed"):
        F = load_map_file(os.path.join(MAPS, name + ".json"))[0]
        maps.append((F, translate_map(F, one, one)))
    rng = random.Random(11)
    maps += [(M, M) for M, _ in (random_automorphism(rng, max_total_deg=6)
                                 for _ in range(5))]
    verdicts = []
    for F, shifted in maps:
        verdicts.append(_verdict(shifted, order=8)["value"])
        assert verdicts[-1] == exceptional_report(F).curve.is_empty()
    assert verdicts == [True] * 3 + [False] * 2 + [True] * 5


# ----------------------------------------------------------------- shape / io

def test_series_map_order_mismatch():
    with pytest.raises(ValueError):
        SeriesMap(TruncSeries2(3), TruncSeries2(4))


def test_series_json_round_shape():
    s = TruncSeries2(4, {(1, 0): GaussianRational(1, -2, 3), (0, 2): _one(5)})
    j = s.to_json()
    assert j["order"] == 4
    assert {"eu": 1, "ev": 0, "re_num": 1, "im_num": -2, "den": 3} in j["terms"]
    assert "O(deg 5)" in str(s)
