"""Truncated bivariate power series: formal local inversion of plane maps
with invertible linear part, origin translation, and the exact decision
whether a map is a polynomial automorphism.

All coefficients are exact Gaussian rationals; truncation is by total degree,
so every identity below means "equal through total degree N".  A series is
truncation on top of the `Poly` kernel: a `Poly` with no term above the
order, Gaussian-integer numerators over one shared denominator, and a
product that stops at the order.  Series go into a map by
`poly.substitute` at the series order.
"""

from __future__ import annotations

from .gaussian import GR_ONE, GR_ZERO, GaussianRational
from .poly import Poly, PolyMap, _mul_num, jacobian, substitute


class TruncSeries2:
    """Bivariate series truncated at total degree `order` (inclusive): the
    polynomial `poly` of its terms, in (u, v) unless told otherwise."""

    __slots__ = ("order", "poly")

    def __init__(self, order, terms=None, vars=("u", "v")):
        if order < 1:
            raise ValueError("truncation order must be positive")
        if any(eu < 0 or ev < 0 for eu, ev in terms or ()):
            raise ValueError("series exponents must be nonnegative")
        self.order = int(order)
        self.poly = Poly(vars, {e: c for e, c in (terms or {}).items() if sum(e) <= order})

    def _at(self, order):
        """The same coefficients at another truncation order."""
        p = self.poly
        if order < self.order:
            p = Poly._make(p.vars, {e: c for e, c in p.num.items() if sum(e) <= order}, p.den)
        return _series(order, p)

    @property
    def vars(self):
        return self.poly.vars

    @property
    def terms(self):
        """{(eu, ev): GaussianRational}, the nonzero coefficients."""
        return self.poly.terms

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        n = min(self.order, other.order)
        return _series(n, self._at(n).poly + other._at(n).poly)

    def __sub__(self, other):
        n = min(self.order, other.order)
        return _series(n, self._at(n).poly - other._at(n).poly)

    def __mul__(self, other):
        """Product with a series (truncated at the lower order) or with a
        scalar (a `GaussianRational` or an int)."""
        if not isinstance(other, TruncSeries2):
            return _series(self.order, self.poly.scale(other))
        n = min(self.order, other.order)
        a, b = self.poly, other.poly
        return _series(n, Poly._make(a.vars, _mul_num(a.num, b.num, n), a.den * b.den))

    def __eq__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def to_poly(self):
        return self.poly

    def __str__(self):
        return f"{self.poly} + O(deg {self.order + 1})"

    __repr__ = __str__

    def to_json(self):
        return {
            "order": self.order,
            "terms": [
                {"eu": e[0], "ev": e[1], "re_num": c.a, "im_num": c.b, "den": c.d}
                for e, c in sorted(self.terms.items())
            ],
        }


def _series(order, poly):
    """Trusted constructor: `poly` has no term above total degree `order`."""
    s = object.__new__(TruncSeries2)
    s.order, s.poly = order, poly
    return s


class SeriesMap:
    """A pair of equal-order truncated series (the shape of a local inverse)."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1, g2):
        if g1.order != g2.order:
            raise ValueError("component orders differ")
        self.g1 = g1
        self.g2 = g2

    @property
    def order(self):
        return self.g1.order

    def __eq__(self, other):
        if not isinstance(other, SeriesMap):
            return NotImplemented
        return self.g1 == other.g1 and self.g2 == other.g2

    def __repr__(self):
        return f"SeriesMap({self.g1}, {self.g2})"


def truncate(f, order, vars=("u", "v")):
    """Poly -> TruncSeries2, dropping terms of total degree > order."""
    return TruncSeries2(order, f._with_vars(tuple(vars)).terms, vars)


def compose_truncated(G, F, order=None):
    """F o G truncated: substitute the series pair G into the polynomial map F.

    Raises when G has a nonzero constant term (the composition would not be a
    series at the origin in any controlled sense here).
    """
    n = order if order is not None else G.order
    if G.g1.poly.constant_value() or G.g2.poly.constant_value():
        raise ValueError("inner series must fix the origin (constant-term mismatch)")
    vals = {"x": G.g1.poly, "y": G.g2.poly}
    return SeriesMap(*(_series(n, f) for f in substitute((F.p, F.q), vals, n)))


def local_inverse(F, order):
    """The truncated formal inverse series G with F o G = id = G o F through
    total degree `order`.

    Requires F(0,0) = (0,0) and an invertible linear part L.  Newton's
    iteration on the series (Brent & Kung, JACM 25, 1978): G starts as
    L^{-1}, exact through degree 1, and a step from degree n to
    m = min(2n, order) sets G <- G - DG.E at order m, with E = F o G - (u, v)
    and DG the Jacobian matrix of G, so ceil(log2(order)) substitutions in
    all.  DG stands in for DF(G)^{-1}: with G* the true inverse,
    DF(G*).DG* = I, and as G - G* and E start at degree n + 1 while
    DG - DG* starts at degree n, DG.E = G - G* through degree 2n.
    """
    if F.p.constant_value() or F.q.constant_value():
        raise ValueError("map must fix the origin; translate first")
    # linear part L = [[a, b], [c, d]] acting on (x, y)
    (a, b), (c, d) = ([f.terms.get(e, GR_ZERO) for e in ((1, 0), (0, 1))] for f in (F.p, F.q))
    det = a * d - b * c
    if not det:
        raise ValueError("linear part is singular; no formal inverse")
    g1 = TruncSeries2(1, {(1, 0): d / det, (0, 1): -b / det})
    g2 = TruncSeries2(1, {(1, 0): -c / det, (0, 1): a / det})
    ident_u = TruncSeries2(order, {(1, 0): GR_ONE})
    ident_v = TruncSeries2(order, {(0, 1): GR_ONE})
    n = 1
    while n < order:
        n = min(2 * n, order)
        g1, g2 = g1._at(n), g2._at(n)
        f1, f2 = substitute((F.p, F.q), {"x": g1.poly, "y": g2.poly}, n)
        e1, e2 = _series(n, f1) - ident_u, _series(n, f2) - ident_v
        g1u, g1v, g2u, g2v = (_series(n, g.poly.diff(w)) for g in (g1, g2) for w in "uv")
        g1 = g1 - (e1 * g1u + e2 * g1v)
        g2 = g2 - (e1 * g2u + e2 * g2v)
    return SeriesMap(g1, g2)


def translate_map(F, a, b):
    """F(x+a, y+b) - F(a, b); fixes the origin.  Gaussian-integer
    coefficients and a Jacobian identical to the original are checked
    (translation cannot change either); a failed check raises RuntimeError."""
    vals = {"x": Poly(("x", "y"), {(1, 0): 1, (0, 0): a}),
            "y": Poly(("x", "y"), {(0, 1): 1, (0, 0): b})}
    G = PolyMap(*(f - Poly.const(f.constant_value(), ("x", "y"))
                  for f in substitute((F.p, F.q), vals)))
    if F.is_integral():
        ga = GaussianRational.coerce(a)
        gb = GaussianRational.coerce(b)
        if ga.is_gaussian_integer() and gb.is_gaussian_integer():
            if not G.is_integral():
                raise RuntimeError("translation lost integral coefficients")
    jf = jacobian(F)
    if jf.is_constant() and jacobian(G) != jf:
        raise RuntimeError("translation changed the constant Jacobian")
    return G


def has_constant_jacobian(F):
    """Whether JF is a nonzero constant."""
    jf = jacobian(F)
    return jf.is_constant() and bool(jf.constant_value())


def automorphism_verdict(F, G):
    """Decide exactly whether F is a polynomial automorphism.

    Precondition: G is the formal inverse of F to order at least
    d = max(deg P, deg Q); on a G of lower order a false verdict says
    nothing about F.  An automorphism and its inverse have the same degree
    (Gabber; Bass, Connell & Wright, Bull. AMS 7 (1982), Thm 1.5), so the
    inverse of an automorphism F is G itself, read as a polynomial.  If
    F o G = (u, v), G is injective, hence an automorphism
    (Bialynicki-Birula & Rosenlicht, Proc. AMS 13 (1962)), and so is
    F = G^{-1}.  So F is an automorphism exactly when JF is a nonzero
    constant and F o G = (u, v); with e the degree of G, the composition at
    order d*e is the exact polynomial F o G.

    Returns (verdict, residual).  The verdict holds `value` and `reason`,
    and for an automorphism also `inverse` (G as polynomials in u, v) and
    `integral_inverse`.  The residual is F o G - (u, v), at order G.order
    when JF is not a nonzero constant and at max(G.order, d*e) otherwise.
    """
    constant_jf = has_constant_jacobian(F)
    m = G.order
    if constant_jf:
        e = max(G.g1.poly.total_degree() or 0, G.g2.poly.total_degree() or 0)
        m = max(m, max(F.deg_p, F.deg_q) * e)
    FG = compose_truncated(G, F, m)
    resid = SeriesMap(FG.g1 - TruncSeries2(m, {(1, 0): GR_ONE}),
                      FG.g2 - TruncSeries2(m, {(0, 1): GR_ONE}))
    if not constant_jf:
        return {"value": False, "reason": "JF is not a nonzero constant"}, resid
    degrees = [sum(t) for s in (resid.g1, resid.g2) for t in s.poly.num]
    if degrees:
        return {"value": False,
                "reason": f"F o G differs from (u, v) at degree {min(degrees)}"}, resid
    inverse = (G.g1.to_poly(), G.g2.to_poly())
    return {"value": True, "reason": "F o G = (u, v) exactly",
            "inverse": {"g1": str(inverse[0]), "g2": str(inverse[1])},
            "integral_inverse": all(g.has_gaussian_integer_coeffs() for g in inverse)}, resid
