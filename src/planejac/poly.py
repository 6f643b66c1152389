"""Sparse exact polynomials over Q(i), with the symbolic operations the
rest of the toolkit is built on: derivatives, Jacobians, composition,
exact division, gcd, square-free parts, and fraction-free resultants.

One kernel: a polynomial is Gaussian-integer numerators, (re, im) int pairs,
over one shared integer denominator, in a unique reduced form, and all its
arithmetic runs on Python ints.  A `GaussianRational` is built only at the
boundary: the constructor's input, `terms`, `leading`, `constant_value`,
printing, and evaluation at Gaussian-rational points.  Truncated series
(series.TruncSeries2) are truncation on top of the same kernel, and
`substitute`, Horner's rule with an optional truncation order, is the one
composition of polynomials and series alike.

Polynomials carry an explicit variable tuple; binary operations unify the
tuples.  Two variables is the normal case ((x, y) for source polynomials,
(u, v) for target curves); elimination steps temporarily produce three or
four variables internally.

Resultants and gcds run one subresultant PRS over the ring of the
coefficients, on inputs cleared of denominators.  Where these involve at
most one variable t (resultants in (x, y), as in exact preimage counts, and
univariate gcds) that ring is the Gaussian-integer scalars of Zi: univariate
gcds have constant coefficients, and a resultant takes its coefficients at
t = 2^k, large enough that r(2^k) spells out r(t) digit by digit (see
`resultant`).  Elsewhere the ring is Poly; the bivariate gcd stays sparse,
as the (u, v) curves are sparse in high degree.
"""

from __future__ import annotations

import re as _re
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .gaussian import GR_ONE, GaussianRational, QuadElem

# canonical ranking used when variable tuples are merged
_VAR_RANK = {"x": 0, "y": 1, "u": 2, "v": 3}


def _rank(name):
    return (_VAR_RANK.get(name, 99), name)


def _merge_vars(a, b):
    if a == b:
        return a
    return tuple(sorted(set(a) | set(b), key=_rank))


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Poly:
    """Sparse polynomial: `num` maps exponent tuples to nonzero (re, im) int
    pairs over the shared denominator `den` > 0, and gcd(den, every part) = 1,
    so the form is canonical.  Every exponent is nonnegative."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars, terms=None):
        """From {exponents: GaussianRational or int}; equal exponents add,
        and a negative exponent is a ValueError."""
        clean = {}
        for exps, c in (terms or {}).items():
            exps, c = tuple(int(e) for e in exps), GaussianRational.coerce(c)
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = clean[exps] + c if exps in clean else c
        clean = {e: c for e, c in clean.items() if c}
        # over the lcm of reduced denominators the form is already reduced
        self.den = lcm(*(c.d for c in clean.values()))
        self.num = {e: (c.a * (self.den // c.d), c.b * (self.den // c.d))
                    for e, c in clean.items()}
        self.vars = tuple(vars)

    @staticmethod
    def _make(vars, num, den=1):
        """Trusted constructor: `num` has no zero pair and den > 0; only the
        content gcd(den, every part) is divided out."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num.values()))
            if g > 1:
                num = {e: (re // g, im // g) for e, (re, im) in num.items()}
                den //= g
        p = object.__new__(Poly)
        p.vars, p.num, p.den = vars, num, den
        return p

    @property
    def terms(self):
        """{exponents: GaussianRational}, the nonzero coefficients."""
        return {e: GaussianRational(re, im, self.den) for e, (re, im) in self.num.items()}

    # ---------------------------------------------------------- constructors

    @staticmethod
    def const(c, vars=("x", "y")):
        vars = tuple(vars)
        if isinstance(c, int):
            return Poly._make(vars, {(0,) * len(vars): (c, 0)} if c else {})
        c = GaussianRational.coerce(c)
        return Poly._make(vars, {(0,) * len(vars): (c.a, c.b)} if c else {}, c.d)

    @staticmethod
    def var(name, vars=None):
        vars = (name,) if vars is None else tuple(vars)
        return Poly._make(vars, {tuple(int(w == name) for w in vars): (1, 0)})

    # ------------------------------------------------------------ predicates

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return not any(any(exps) for exps in self.num)

    def constant_value(self):
        return GaussianRational(*self.num.get((0,) * len(self.vars), (0, 0)), self.den)

    def has_gaussian_integer_coeffs(self):
        return self.den == 1

    def total_degree(self):
        """max of exponent sums; None for the zero polynomial."""
        if not self.num:
            return None
        return max(sum(e) for e in self.num)

    def degree_in(self, name):
        if not self.num:
            return None
        i = self.vars.index(name)
        return max(exps[i] for exps in self.num)

    def used_vars(self):
        return {w for exps in self.num for w, e in zip(self.vars, exps) if e}

    # ------------------------------------------------------------ arithmetic

    def _align(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        if self.vars == other.vars:
            return self, other
        vars = _merge_vars(self.vars, other.vars)
        return self._with_vars(vars), other._with_vars(vars)

    def _with_vars(self, vars):
        if vars == self.vars:
            return self
        dropped = [i for i, w in enumerate(self.vars) if w not in vars]
        idx = [self.vars.index(w) if w in self.vars else None for w in vars]
        num = {}
        for exps, c in self.num.items():
            if any(exps[i] != 0 for i in dropped):
                raise ValueError("cannot drop a used variable")
            num[tuple(exps[i] if i is not None else 0 for i in idx)] = c
        return Poly._make(vars, num, self.den)

    def __add__(self, other):
        a, b = self._align(other)
        return _lincomb(a.vars, ((1, 0, 1, a), (1, 0, 1, b)))

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.vars, {e: (-re, -im) for e, (re, im) in self.num.items()},
                          self.den)

    def __sub__(self, other):
        a, b = self._align(other)
        return _lincomb(a.vars, ((1, 0, 1, a), (-1, 0, 1, b)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        return Poly._make(a.vars, _mul_num(a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def scale(self, c):
        c = GaussianRational.coerce(c)
        if not c:
            return Poly._make(self.vars, {})
        return _lincomb(self.vars, ((c.a, c.b, c.d, self),))

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.const(1, self.vars))

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = Poly.const(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._align(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):  # blind to the variable tuple, as == is
        return hash((self.den, frozenset(self.num.values())))

    # --------------------------------------------------------------- calculus

    def diff(self, name):
        i = self.vars.index(name)
        num = {}
        for exps, (re, im) in self.num.items():
            e = exps[i]
            if e:
                num[exps[:i] + (e - 1,) + exps[i + 1:]] = (re * e, im * e)
        return Poly._make(self.vars, num, self.den)

    # ------------------------------------------------------------- evaluation

    def evaluate(self, values):
        """Full or partial substitution.  values maps variable name to
        GaussianRational / int / QuadElem / complex / Poly.  Exact inputs give
        exact outputs; Poly values go to `substitute`, and then every value
        must be a Poly."""
        if any(isinstance(v, Poly) for v in values.values()):
            return substitute((self,), values)[0]
        if any(w not in values for w in self.vars):
            return self._partial(values)
        if any(isinstance(v, (complex, float)) for v in values.values()):
            total = 0j
            vals = [complex(values[w]) for w in self.vars]
            for exps, (re, im) in self.num.items():
                t = complex(re / self.den, im / self.den)
                for v, e in zip(vals, exps):
                    t *= v ** e
                total += t
            return total
        quad = next((v for v in values.values() if isinstance(v, QuadElem)), None)
        if quad is not None:
            vals = [values[w] if isinstance(values[w], QuadElem) else quad._coerce(GaussianRational.coerce(values[w])) for w in self.vars]
            total = quad._coerce(0)
            for exps, (re, im) in self.num.items():
                t = quad._coerce(GaussianRational(re, im, self.den))
                for v, e in zip(vals, exps):
                    for _ in range(e):
                        t = t * v
                total += t
            return total
        return self._partial(values).constant_value()

    def _partial(self, values):
        keep = [i for i, w in enumerate(self.vars) if w not in values]
        den, tables = self.den, []
        for i, w in enumerate(self.vars):
            if w in values:
                table, s = _power_table(GaussianRational.coerce(values[w]),
                                        {exps[i] for exps in self.num})
                tables.append((i, table))
                den *= s
        num = {}
        for exps, (re, im) in self.num.items():
            for i, table in tables:
                wr, wi = table[exps[i]]
                re, im = re * wr - im * wi, re * wi + im * wr
            e = tuple(exps[i] for i in keep)
            s = num.get(e)
            num[e] = (re, im) if s is None else (s[0] + re, s[1] + im)
        return Poly._make(tuple(self.vars[i] for i in keep),
                          {e: c for e, c in num.items() if c[0] or c[1]}, den)

    # ---------------------------------------------------- ordering / printing

    @staticmethod
    def _gl_key(exps):
        return (sum(exps), exps)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.num, key=Poly._gl_key)
        return exps, GaussianRational(*self.num[exps], self.den)

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.num:
            return self
        lr, li = self.num[max(self.num, key=Poly._gl_key)]
        # c / lc = c * conj(lc) / |lc|^2, and the shared denominator cancels
        return Poly._make(self.vars, {e: (re * lr + im * li, im * lr - re * li)
                                      for e, (re, im) in self.num.items()}, lr * lr + li * li)

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        # graded-lex descending
        terms = sorted(self.terms.items(), key=lambda kv: Poly._gl_key(kv[0]), reverse=True)
        for idx, (exps, c) in enumerate(terms):
            monos = "*".join(
                w if e == 1 else f"{w}^{e}"
                for w, e in zip(self.vars, exps)
                if e != 0
            )
            neg = _coeff_is_negative(c)
            cc = -c if (neg and idx > 0) else c
            cs = _coeff_str(cc, bare=bool(monos))
            if cs == "-":
                body = f"-{monos}"
            elif cs and monos:
                body = f"{cs}*{monos}"
            else:
                body = cs or monos
            if idx == 0:
                parts.append(body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    __repr__ = __str__

    # ------------------------------------------------------------- conversion

    def coeffs_in(self, name):
        """dict degree -> Poly in the remaining variables."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for exps, c in self.num.items():
            out.setdefault(exps[i], {})[exps[:i] + exps[i + 1:]] = c
        return {d: Poly._make(rest, num, self.den) for d, num in out.items()}


def _lincomb(vars, parts):
    """sum of c * p over parts = ((re, im, d, p), ...), each c = (re + im*i)/d
    nonzero and each p over `vars`, over the lcm of the denominators d * p.den."""
    den = lcm(*(d * p.den for _, _, d, p in parts))
    acc = None
    for cr, ci, d, p in parts:
        m = den // (d * p.den)
        kr, ki = m * cr, m * ci
        items = p.num.items() if (kr, ki) == (1, 0) else [
            (e, (re * kr - im * ki, re * ki + im * kr)) for e, (re, im) in p.num.items()]
        if acc is None:
            acc = dict(items)
            continue
        for e, (re, im) in items:
            s = acc.get(e)
            if s is None:
                acc[e] = (re, im)
            elif s[0] + re or s[1] + im:
                acc[e] = (s[0] + re, s[1] + im)
            else:
                del acc[e]
    return Poly._make(vars, acc, den)


def _mul_num(a, b, order=None):
    """The numerators of the product of the numerators a and b.  With an
    order, as for series, only its terms of total degree at most `order`:
    the terms of b go by degree, and an exponent tuple e is keyed by the int
    sum(e_i * (order + 1)**i), so that keys add as exponents do."""
    acc = {}
    if order is None:
        for e1, (r1, i1) in a.items():
            for e2, (r2, i2) in b.items():
                e = tuple(map(add, e1, e2))
                s = acc.get(e)
                if s is None:
                    acc[e] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
                else:
                    s[0] += r1 * r2 - i1 * i2
                    s[1] += r1 * i2 + i1 * r2
        return {e: tuple(c) for e, c in acc.items() if c[0] or c[1]}
    pw = [(order + 1) ** i for i in range(len(next(iter(a), ())))]
    B = sorted((sum(e), sum(map(mul, e, pw)), e, re, im) for e, (re, im) in b.items())
    for e1, (r1, i1) in a.items():
        room, k1 = order - sum(e1), sum(map(mul, e1, pw))
        for d2, k2, e2, r2, i2 in B:
            if d2 > room:
                break
            s = acc.get(k1 + k2)
            if s is None:
                acc[k1 + k2] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, e1, e2]
            else:
                s[0] += r1 * r2 - i1 * i2
                s[1] += r1 * i2 + i1 * r2
    return {tuple(map(add, e1, e2)): (re, im) for re, im, e1, e2 in acc.values() if re or im}


def substitute(fs, values, order=None):
    """(f(values) for f in fs): `values` maps variable names to polynomials,
    and a variable without a value stays itself.  Together the fs use at
    most two variables, w1 and w2 by rank.  With an `order` every product
    stops at total degree `order`, as the products of series do.

    Each f is grouped as sum_j c_j(w1) w2^j.  At the value s1 of w1, each
    c_j is a combination of the powers of s1, which all of fs share, and
    the sum is evaluated by Horner's rule at the value s2 of w2, so the
    products number the largest w1-degree plus the w2-degree of each f."""
    if not all(isinstance(v, Poly) for v in values.values()):
        raise TypeError("mixed scalar/poly composition: pass scalars as constant Poly")
    names = sorted(set().union(*(f.used_vars() for f in fs)), key=_rank)
    if len(names) > 2:
        raise ValueError(f"substitution into a polynomial in {', '.join(names)}")
    vals = [values[w] if w in values else Poly.var(w) for w in names]
    vars = reduce(_merge_vars, (v.vars for v in chain(values.values(), vals)))
    s1, s2 = [v._with_vars(vars) for v in vals] + [None] * (2 - len(vals))

    def product(a, b):
        return Poly._make(vars, _mul_num(a.num, b.num, order), a.den * b.den)

    grouped = []
    for f in fs:
        i1, i2 = [f.vars.index(w) if w in f.vars else None for w in names] + [None] * (2 - len(names))
        rows = {}
        for e, c in f.num.items():
            rows.setdefault(0 if i2 is None else e[i2], {})[0 if i1 is None else e[i1]] = c
        grouped.append((rows, f.den))
    top_x = max((ex for rows, _ in grouped for row in rows.values() for ex in row), default=0)
    pow1 = [Poly.const(1, vars)]
    while len(pow1) <= top_x:
        pow1.append(product(pow1[-1], s1))
    out = []
    for rows, den in grouped:
        acc, top_y = Poly._make(vars, {}), max(rows, default=0)
        for j in range(top_y, -1, -1):
            parts = [(re, im, den, pow1[ex]) for ex, (re, im) in rows.get(j, {}).items()]
            if j < top_y:
                acc = product(acc, s2)
                parts.append((1, 0, 1, acc))
            if parts:
                acc = _lincomb(vars, parts)
        out.append(acc)
    return tuple(out)


def _power_table(v, exps):
    """({e: (re, im)}, s) with v**e = (re + im*i)/s for each e in exps."""
    pw = {e: _power(v, e, GR_ONE) for e in exps}
    s = lcm(*(w.d for w in pw.values()))
    return {e: (w.a * (s // w.d), w.b * (s // w.d)) for e, w in pw.items()}, s


def _power(base, n, one):
    """base ** n for n >= 0 by square-and-multiply; `one` is the identity."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _coeff_is_negative(c):
    if c.a != 0:
        return c.a < 0
    return c.b < 0


def _coeff_str(c, bare):
    """Render a coefficient per the text grammar; empty string when the
    coefficient is 1 and a monomial follows, "-" when it is -1."""
    if bare and c == GR_ONE:
        return ""
    if bare and c == GaussianRational(-1):
        return "-"
    return str(c)


# ------------------------------------------------------------------ parsing

_TOKEN = _re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[()^*+\-/i])")


def parse_expression(text, variables=("x", "y")):
    """Parse the polynomial text grammar into a Poly over `variables`.

    Accepted term syntax: signed coefficient (integer, integer 'i', or a
    parenthesized Gaussian literal like (1+2i), optionally /den), '*'-joined
    monomials var or var^n with n >= 0; a negative exponent is a ParseError
    at its position.  Parsing then printing then parsing is a fixed point.
    """
    vars = tuple(variables)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))

    state = {"i": 0}

    def peek():
        return tokens[state["i"]][0]

    def take():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def parse_int():
        tok, p = take()
        sign = 1
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            tok, p = take()
        if tok is None or not tok.isdigit():
            raise ParseError("expected integer", p)
        return sign * int(tok)

    def parse_gaussian_literal():
        # after the opening '('
        a = parse_int()
        tok, p = take()
        if tok not in ("+", "-"):
            raise ParseError("expected '+' or '-' in Gaussian literal", p)
        sgn = -1 if tok == "-" else 1
        b = parse_int()
        tok, p = take()
        if tok != "i":
            raise ParseError("expected 'i' in Gaussian literal", p)
        tok, p = take()
        if tok != ")":
            raise ParseError("expected ')'", p)
        return GaussianRational(a, sgn * b)

    def parse_factor():
        """One coefficient or monomial; returns (coeff, exps) contribution."""
        tok, p = peek(), tokens[state["i"]][1]
        if tok == "(":
            take()
            return parse_gaussian_literal(), None
        if tok is not None and tok.isdigit():
            take()
            n = int(tok)
            if peek() == "i":
                take()
                return GaussianRational(0, n), None
            return GaussianRational(n), None
        if tok == "i":
            take()
            return GaussianRational(0, 1), None
        if tok in vars:
            take()
            e = 1
            if peek() in ("^", "**"):
                take()
                e = parse_int()
                if e < 0:  # parse_int took the sign token and the digits
                    raise ParseError(f"negative exponent {e}", tokens[state["i"] - 2][1])
            return None, (tok, e)
        raise ParseError("unexpected end of input" if tok is None
                         else f"unexpected token {tok!r}", p)

    def parse_term(sign):
        coeff = GaussianRational(sign)
        exps = [0] * len(vars)
        while True:
            c, mono = parse_factor()
            if c is not None:
                if peek() == "/":
                    take()
                    den = parse_int()
                    if den == 0:
                        raise ParseError("zero denominator", tokens[state["i"] - 1][1])
                    c = c / den
                coeff = coeff * c
            else:
                exps[vars.index(mono[0])] += mono[1]
            if peek() == "*":
                take()
                continue
            nxt = peek()
            if nxt is not None and (nxt.isdigit() or nxt in vars or nxt in ("(", "i")):
                # implicit product is not in the grammar
                raise ParseError(f"expected operator before {nxt!r}", tokens[state["i"]][1])
            break
        return Poly(vars, {tuple(exps): coeff})

    result = Poly(vars)
    first = True
    while peek() is not None:
        tok, p = peek(), tokens[state["i"]][1]
        if tok == "+":
            if first:
                raise ParseError("unary '+' is not allowed", p)
            take()
            sign = 1
        elif tok == "-":
            take()
            sign = -1
        elif first:
            sign = 1
        else:
            raise ParseError(f"expected '+' or '-' before {tok!r}", p)
        result = result + parse_term(sign)
        first = False
    if first:
        raise ParseError("empty expression", 0)
    return result


# ------------------------------------------------------------------ PolyMap


class PolyMap:
    """An ordered pair of polynomials in (x, y), with cached total degrees,
    their gcd and shears."""

    def __init__(self, p, q, name=None):
        if isinstance(p, str):
            p = parse_expression(p, ("x", "y"))
        if isinstance(q, str):
            q = parse_expression(q, ("x", "y"))
        self.p = p._with_vars(("x", "y"))
        self.q = q._with_vars(("x", "y"))
        self.name = name
        self.deg_p = self.p.total_degree()
        self.deg_q = self.q.total_degree()
        if self.deg_p and self.deg_q:
            self.deg_gcd = gcd(self.deg_p, self.deg_q)
        else:
            self.deg_gcd = None
        self._shears = {}

    def sheared(self, lam):
        """(P, Q) o (x + lam*y, y), composed once per lam."""
        if lam not in self._shears:
            sub = {"x": Poly(("x", "y"), {(1, 0): 1, (0, 1): lam}), "y": Poly.var("y", ("x", "y"))}
            self._shears[lam] = substitute((self.p, self.q), sub)
        return self._shears[lam]

    def is_integral(self):
        return self.p.has_gaussian_integer_coeffs() and self.q.has_gaussian_integer_coeffs()

    def __repr__(self):
        return f"PolyMap({self.p}, {self.q})"


def jacobian(F):
    """P_x Q_y - P_y Q_x, exactly."""
    return F.p.diff("x") * F.q.diff("y") - F.p.diff("y") * F.q.diff("x")


def compose_map(f, F):
    """f(P, Q) for f in the target variables u and v, by name."""
    if f.used_vars() - {"u", "v"}:
        raise ValueError(f"compose_map of a polynomial in {', '.join(sorted(f.used_vars()))}")
    return substitute((f,), {"u": F.p, "v": F.q})[0]


def compose_maps(F, G):
    """The map F o G, componentwise."""
    return PolyMap(*substitute((F.p, F.q), {"x": G.p, "y": G.q}))


# ------------------------------------------------- division / gcd machinery


def exact_div(g, f):
    """g / f when f divides g exactly, else None.  Graded-lex leading-term
    elimination on the numerators, whose top term falls at every step (the
    order is translation-invariant): with s*G = Q*F + R throughout, Q and R
    stay Gaussian-integer, and s grows only where a quotient coefficient
    needs it (never when F divides G in Z[i][vars]).  A quotient term with a
    negative exponent means no quotient."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g, f = g._align(f)
    key = Poly._gl_key
    top_f = max(f.num, key=key)
    lr, li = f.num[top_f]
    n = lr * lr + li * li
    rest = [(e, c) for e, c in f.num.items() if e != top_f]
    r, q, s = dict(g.num), {}, 1
    while r:
        top = max(r, key=key)
        d = tuple(map(sub, top, top_f))
        if any(e < 0 for e in d):
            return None
        xr, xi = r.pop(top)
        # x / lc(F) = (cr + ci*i) / n
        cr, ci = xr * lr + xi * li, xi * lr - xr * li
        k = n // gcd(n, cr, ci)
        if k > 1:
            r = {e: (a * k, b * k) for e, (a, b) in r.items()}
            q = {e: (a * k, b * k) for e, (a, b) in q.items()}
            s, cr, ci = s * k, cr * k, ci * k
        cr, ci = cr // n, ci // n
        q[d] = (cr, ci)
        for e, (fr, fi) in rest:
            e = tuple(map(add, e, d))
            t = r.get(e, (0, 0))
            t = (t[0] - cr * fr + ci * fi, t[1] - cr * fi - ci * fr)
            if t[0] or t[1]:
                r[e] = t
            else:
                del r[e]
    # g / f = (G / g.den) / (F / f.den) = Q * f.den / (s * g.den)
    return _lincomb(g.vars, ((f.den, 0, s * g.den, Poly._make(g.vars, q)),))


def divides(f, g):
    """True iff g = f * h for some polynomial h."""
    if f.is_zero():
        raise ZeroDivisionError("zero divisor polynomial")
    return exact_div(g, f) is not None


def poly_gcd(f, g):
    """GCD over Q(i), normalized monic in graded-lex.  Subresultant PRS of
    the primitive parts in the highest-ranked used variable, recursing on
    contents; over Z[i] on the dense ring when only one variable is used,
    where a monomial c*t^k meets the other input in t^min(k, ord_t)."""
    f, g = f._align(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    used = sorted(f.used_vars() | g.used_vars(), key=_rank)
    if not used:
        return Poly.const(1, f.vars)
    main = used[-1]
    i = f.vars.index(main)
    if len(used) == 1:
        if len(f.num) == 1 or len(g.num) == 1:
            return Poly.var(main, f.vars) ** min(e[i] for h in (f, g) for e in h.num)
        cont_gcd = Poly.const(1, f.vars)
        A, B = ([Zi(*row.get(0, (0, 0))) for row in _rows(h, main, None)] for h in (f, g))
    else:
        cf, pf = cont_pp_static(f, main)
        cg, pg = cont_pp_static(g, main)
        cont_gcd = poly_gcd(cf, cg)
        # the gcd is defined up to a scalar: run the PRS on the numerators
        A, B = (_coeff_list(Poly._make(h.vars, h.num), main) for h in (pf, pg))
    if len(A) < len(B):
        A, B = B, A
    for A, B, _ in _subresultant_prs(A, B):
        pass
    if len(B) == 1:
        return cont_gcd
    # B is the last nonzero remainder; put `main` back into its terms
    n = len(B) - 1
    if len(used) == 1:
        return Poly._make(f.vars, {tuple(n - k if w == main else 0 for w in f.vars): (b.re, b.im)
                                   for k, b in enumerate(B) if not b.is_zero()}).monic()
    last = Poly._make(f.vars, {e[:i] + (n - k,) + e[i:]: c
                               for k, b in enumerate(B) for e, c in b.num.items()})
    _, last = cont_pp_static(last, main)
    return (cont_gcd * last).monic()


def cont_pp_static(h, main):
    """(content, primitive part) of h with respect to `main`."""
    cs = h.coeffs_in(main)
    cont = None
    for c in cs.values():
        cont = c if cont is None else poly_gcd(cont, c)
        if cont.is_constant():
            break
    cont = cont.monic()
    if cont.is_constant():
        return Poly.const(1, h.vars), h
    return cont._with_vars(h.vars), exact_div(h, cont._with_vars(h.vars))


def squarefree_part(f):
    """f / gcd(f, all partials), normalized so the graded-lex leading
    coefficient is 1."""
    if f.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    g = f
    for w in sorted(f.used_vars(), key=_rank):
        g = poly_gcd(g, f.diff(w))
    if g.is_constant():
        return f.monic()
    out = exact_div(f, g._with_vars(f.vars))
    return out.monic()


def squarefree_decomposition(f, name):
    """[(a, m)] with f = c * prod a^m for f univariate in `name`: each a is
    square-free, monic and non-constant, and the a are pairwise coprime, so
    the roots of a are the roots of f of multiplicity exactly m (Yun, SYMSAC
    1976)."""
    df = f.diff(name)
    g = poly_gcd(f, df)
    b = exact_div(f, g)
    d = exact_div(df, g) - b.diff(name)
    out, m = [], 1
    while not b.is_constant():
        a = poly_gcd(b, d)
        b = exact_div(b, a)
        d = exact_div(d, a) - b.diff(name)
        if not a.is_constant():
            out.append((a, m))
        m += 1
    return out


# ------------------------------------------------- Gaussian-integer scalars


class Zi:
    """A Gaussian integer re + im*i: the PRS coefficient ring of univariate
    gcds and of resultants whose coefficients are evaluated at t = 2^k."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = re, im

    def is_zero(self):
        return not (self.re or self.im)

    def __neg__(self):
        return Zi(-self.re, -self.im)

    def __sub__(self, other):
        return Zi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return Zi(a * c - b * d, a * d + b * c)

    def __pow__(self, n):
        return _power(self, int(n), Zi(1))

    def exact_div(self, den):
        """self / den when den divides self in Z[i], else None."""
        n = den.re * den.re + den.im * den.im
        if not n:
            raise ZeroDivisionError("division by zero in Z[i]")
        qr, er = divmod(self.re * den.re + self.im * den.im, n)
        qi, ei = divmod(self.im * den.re - self.re * den.im, n)
        return None if er or ei else Zi(qr, qi)


def _rows(f, name, t):
    """The coefficients of the numerator f.den * f in `name`, highest degree
    first, each as {degree in t: (re, im)}.  Every other variable of f is
    unused; t is None when the coefficients are constants."""
    i = f.vars.index(name)
    j = None if t is None else f.vars.index(t)
    rows = {}
    for exps, c in f.num.items():
        rows.setdefault(exps[i], {})[0 if j is None else exps[j]] = c
    return [rows.get(d, {}) for d in range(max(rows), -1, -1)]


def _at_power_of_two(row, k):
    """The row {degree in t: (re, im)} at t = 2^k."""
    return Zi(sum(re << (k * e) for e, (re, _) in row.items()),
              sum(im << (k * e) for e, (_, im) in row.items()))


def _balanced_digits(z, k):
    """The digits (re, im), lowest first, of the Zi z = sum c_j 2^(k*j),
    with both parts of each c_j in [-2^(k-1), 2^(k-1)); k >= 2."""
    re, im, out = z.re, z.im, []
    while re or im:
        # the low k bits, less 2^k when the top one of them is set
        c = [(n & ((1 << k) - 1)) - ((n & (1 << (k - 1))) << 1) for n in (re, im)]
        out.append(tuple(c))
        re, im = (re - c[0]) >> k, (im - c[1]) >> k
    return out


# ------------------------------------------------------------- resultants


def _coeff_list(f, name):
    """Coefficients of f in `name`, highest degree first, zeros included, as
    polynomials in the other variables of f."""
    cs = f.coeffs_in(name)
    zero = Poly._make(tuple(w for w in f.vars if w != name), {})
    return [cs.get(d, zero) for d in range(max(cs), -1, -1)]


def det_bareiss(matrix):
    """Fraction-free determinant of a square matrix of Poly entries."""
    n = len(matrix)
    if n == 0:
        return Poly.const(1, ())
    m = [row[:] for row in matrix]
    vars = m[0][0].vars
    sign = 1
    prev = Poly.const(1, vars)
    for k in range(n - 1):
        if m[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if piv is None:
                return Poly(vars)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if num.is_zero():
                    m[i][j] = Poly(vars)
                    continue
                q = exact_div(num, prev)
                if q is None:
                    raise ArithmeticError("Bareiss exact division failed")
                m[i][j] = q
            m[i][k] = Poly(vars)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def _strip_zeros(cl):
    i = 0
    while i < len(cl) and cl[i].is_zero():
        i += 1
    return cl[i:]


def _pseudo_rem_list(a, b):
    """Exact pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of
    descending coefficient lists (deg a >= deg b), leading zeros stripped."""
    lb, db = b[0], len(b) - 1
    e = len(a) - len(b) + 1
    r = a
    while len(r) > db:
        lr = r[0]
        r = [lb * c for c in r[1:]]
        for k in range(1, db + 1):
            r[k - 1] = r[k - 1] - lr * b[k]
        e -= 1
        r = _strip_zeros(r)
    if e:
        f = lb ** e
        r = [f * c for c in r]
    return r


def _div_or_raise(num, den):
    q = num.exact_div(den) if isinstance(num, Zi) else exact_div(num, den)
    if q is None or isinstance(q, Poly) and q.den != 1:
        raise ArithmeticError("subresultant exact division failed")
    return q


def _subresultant_prs(A, B):
    """The subresultant PRS of descending coefficient lists, len(A) >=
    len(B) (Collins, JACM 14, 1967; Cohen, Alg. 3.3.7 without the content
    step), over the ring of their entries, Poly or Zi.  Yields (A, B, h)
    for the input pair and each later pair; the last pair has a constant B
    or a zero pseudo-remainder."""
    g = h = A[0] ** 0
    while True:
        yield A, B, h
        if len(B) == 1:
            return
        delta = len(A) - len(B)
        R = _pseudo_rem_list(A, B)
        if not R:
            return
        den = g * h ** delta
        A, B = B, [_div_or_raise(c, den) for c in R]
        g = A[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _div_or_raise(g ** delta, h ** (delta - 1))


def _prs_resultant(A, B):
    """The Sylvester determinant of two descending coefficient lists of
    positive degree, sign included, from their subresultant PRS."""
    # Res(b, a) = (-1)^(deg a * deg b) Res(a, b), on the swap and at each step
    sign = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -1
    for A, B, h in _subresultant_prs(A, B):
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
    if len(B) > 1:
        return B[0] - B[0]  # a zero pseudo-remainder: a common factor
    da = len(A) - 1
    res = B[0] if da == 1 else _div_or_raise(B[0] ** da, h ** (da - 1))
    return -res if sign < 0 else res


def resultant(a, b, eliminate):
    """Resultant eliminating `eliminate`: the Sylvester determinant with the
    fixed row convention (a-rows on top), sign included, computed by the
    subresultant PRS over the ring of the other variables, on the numerators
    sa*a and sb*b: Res(sa*a, sb*b) = sa^deg(b) * sb^deg(a) * Res(a, b).

    When at most one other variable t is used, the PRS runs on
    Gaussian-integer scalars instead (Kronecker substitution): evaluation
    commutes with the determinant, so r = Res(A, B) in Z[i][t] has
    r(2^k) = Res(A(2^k), B(2^k)), and r is read back from the balanced
    base-2^k digits of the real and imaginary parts of r(2^k).  That is exact
    by this invariant: with ||c||_1 the sum of |re| + |im| over the
    coefficients of a row c_j in t, and
        H^2 = (sum_j ||a_j||_1^2)^deg(B) * (sum_j ||b_j||_1^2)^deg(A),
    Hadamard's inequality bounds |r| on |t| = 1, and so every coefficient
    of r, by H (Collins, JACM 18, 1971); k is chosen with 2^(k-1) > H.  Both
    degrees are positive, so H is at least every input coefficient, no
    leading coefficient vanishes at 2^k, the formal degrees survive the
    evaluation, and the digits are exactly the coefficients of r."""
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of a zero polynomial")
    da = a.degree_in(eliminate) if eliminate in a.vars else 0
    db = b.degree_in(eliminate) if eliminate in b.vars else 0
    if da <= 0 or db <= 0:
        raise ValueError(f"both inputs must have positive degree in {eliminate}")
    a, b = a._align(b)
    s = a.den ** db * b.den ** da
    rest = (a.used_vars() | b.used_vars()) - {eliminate}
    if len(rest) > 1:
        r = _prs_resultant(*(_coeff_list(Poly._make(f.vars, f.num), eliminate) for f in (a, b)))
        return Poly._make(r.vars, r.num, s)
    t = rest.pop() if rest else None
    A, B = (_rows(f, eliminate, t) for f in (a, b))
    norms = [sum(sum(abs(re) + abs(im) for re, im in row.values()) ** 2 for row in R)
             for R in (A, B)]
    # 2^(k-1) > H, with H^2 < 2^(db * bits(norm_a) + da * bits(norm_b))
    k = (db * norms[0].bit_length() + da * norms[1].bit_length() + 1) // 2 + 1
    r = _prs_resultant(*([_at_power_of_two(row, k) for row in R] for R in (A, B)))
    vars = tuple(w for w in a.vars if w != eliminate)
    return Poly._make(vars, {tuple(e if w == t else 0 for w in vars): c
                             for e, c in enumerate(_balanced_digits(r, k)) if c != (0, 0)}, s)


def resultant_allow_constant(a, b, eliminate):
    """Internal variant: Res(a, b) = a^deg(b) when deg_elim(a) = 0 (and 1 when
    both degrees vanish), matching the classical convention.  Elimination
    pipelines need this for maps with components independent of a variable."""
    da = a.degree_in(eliminate) if eliminate in a.vars else 0
    db = b.degree_in(eliminate) if eliminate in b.vars else 0
    da, db = da or 0, db or 0
    if da > 0 and db > 0:
        return resultant(a, b, eliminate)
    if da == 0 and db == 0:
        return Poly.const(1, a.vars)
    if da == 0:
        return a ** db
    return b ** da
