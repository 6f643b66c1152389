"""Sparse exact polynomials over Q(i), Laurent-capable, with the symbolic
operations the rest of the toolkit is built on: derivatives, Jacobians,
composition, exact division, gcd, square-free parts, and fraction-free
resultants.

Polynomials carry an explicit variable tuple; binary operations unify the
tuples.  Two variables is the normal case ((x, y) for source polynomials,
(u, v) for target curves); elimination steps temporarily produce three or
four variables internally.
"""

from __future__ import annotations

import re as _re
from typing import Iterable

from .gaussian import GR_ONE, GR_ZERO, GaussianRational, QuadElem

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
    """Sparse polynomial: map from exponent tuples to nonzero GaussianRational
    coefficients.  Negative exponents mark Laurent mode."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = GaussianRational.coerce(c)
                if c:
                    exps = tuple(int(e) for e in exps)
                    if exps in clean:
                        c = clean[exps] + c
                        if c:
                            clean[exps] = c
                        else:
                            del clean[exps]
                    else:
                        clean[exps] = c
        self.terms = clean

    # ---------------------------------------------------------- constructors

    @staticmethod
    def const(c, vars=("x", "y")):
        c = GaussianRational.coerce(c)
        if not c:
            return Poly(vars)
        return Poly(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(name, vars=None):
        if vars is None:
            vars = (name,)
        exps = tuple(1 if w == name else 0 for w in vars)
        return Poly(vars, {exps: GR_ONE})

    # ------------------------------------------------------------ predicates

    def is_zero(self):
        return not self.terms

    def is_laurent(self):
        return any(e < 0 for exps in self.terms for e in exps)

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.vars), GR_ZERO)

    def has_gaussian_integer_coeffs(self):
        return all(c.d == 1 for c in self.terms.values())

    def total_degree(self):
        """max of exponent sums; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return None
        i = self.vars.index(name)
        return max(exps[i] for exps in self.terms)

    def used_vars(self):
        used = set()
        for exps in self.terms:
            for w, e in zip(self.vars, exps):
                if e != 0:
                    used.add(w)
        return used

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
        terms = {}
        for exps, c in self.terms.items():
            if any(exps[i] != 0 for i in dropped):
                raise ValueError("cannot drop a used variable")
            terms[tuple(exps[i] if i is not None else 0 for i in idx)] = c
        return Poly(vars, terms)

    def __add__(self, other):
        a, b = self._align(other)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            s = terms.get(exps, GR_ZERO) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Poly(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                if s is None:
                    terms[e] = c
                else:
                    s = s + c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return Poly(a.vars, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = GaussianRational.coerce(c)
        if not c:
            return Poly(self.vars)
        return Poly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = Poly.const(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # --------------------------------------------------------------- calculus

    def diff(self, name):
        i = self.vars.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 1
            terms[tuple(ne)] = c * e
        return Poly(self.vars, terms)

    # ------------------------------------------------------------- evaluation

    def evaluate(self, values):
        """Full or partial substitution.  values maps variable name to
        GaussianRational / int / QuadElem / complex / Poly.  Exact inputs give
        exact outputs; any Poly value triggers polynomial composition.
        Laurent exponents require invertible (nonzero) values."""
        poly_subs = {k: v for k, v in values.items() if isinstance(v, Poly)}
        if poly_subs:
            return self._compose(values)
        remaining = [w for w in self.vars if w not in values]
        use_complex = any(isinstance(v, (complex, float)) for v in values.values())
        if remaining:
            return self._partial(values)
        # full numeric substitution
        if use_complex:
            total = 0j
            vals = [complex(values[w]) if not isinstance(values[w], complex) else values[w] for w in self.vars]
            for exps, c in self.terms.items():
                t = complex(c)
                for v, e in zip(vals, exps):
                    if e < 0 and v == 0:
                        raise ZeroDivisionError("Laurent evaluation at zero coordinate")
                    t *= v ** e
                total += t
            return total
        quad = next((v for v in values.values() if isinstance(v, QuadElem)), None)
        if quad is not None:
            vals = [values[w] if isinstance(values[w], QuadElem) else quad._coerce(GaussianRational.coerce(values[w])) for w in self.vars]
            total = quad._coerce(0)
            for exps, c in self.terms.items():
                if any(e < 0 for e in exps):
                    raise ZeroDivisionError("Laurent evaluation is not supported in quadratic rings")
                t = quad._coerce(GaussianRational.coerce(c))
                for v, e in zip(vals, exps):
                    for _ in range(e):
                        t = t * v
                total += t
            return total
        vals = [GaussianRational.coerce(values[w]) for w in self.vars]
        total = GR_ZERO
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(vals, exps):
                if e >= 0:
                    t = t * _rat_pow(v, e)
                else:
                    if not v:
                        raise ZeroDivisionError("Laurent evaluation at zero coordinate")
                    t = t / _rat_pow(v, -e)
            total = total + t
        return total

    def _partial(self, values):
        keep = [i for i, w in enumerate(self.vars) if w not in values]
        vals = {i: values[w] for i, w in enumerate(self.vars) if w in values}
        out = Poly(tuple(self.vars[i] for i in keep))
        terms = {}
        for exps, c in self.terms.items():
            t = c
            for i, v in vals.items():
                e = exps[i]
                v = GaussianRational.coerce(v)
                if e >= 0:
                    t = t * _rat_pow(v, e)
                else:
                    if not v:
                        raise ZeroDivisionError("Laurent evaluation at zero coordinate")
                    t = t / _rat_pow(v, -e)
                if not t:
                    break
            if not t:
                continue
            e = tuple(exps[i] for i in keep)
            s = terms.get(e, GR_ZERO) + t
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out.terms = terms
        return out

    def _compose(self, values):
        # substitute polynomials (and scalars) for variables
        pow_cache = {}

        def power(name, e):
            key = (name, e)
            if key not in pow_cache:
                v = values[name]
                if not isinstance(v, Poly):
                    raise TypeError("mixed scalar/poly composition: pass scalars as constant Poly")
                if e < 0:
                    raise ValueError("negative exponent in polynomial composition")
                pow_cache[key] = v ** e
            return pow_cache[key]

        result = None
        for exps, c in self.terms.items():
            term = None
            for w, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if w in values:
                    p = power(w, e)
                else:
                    p = Poly.var(w) ** e
                term = p if term is None else term * p
            if term is None:
                term = Poly.const(1, self.vars)
            term = term.scale(c)
            result = term if result is None else result + term
        if result is None:
            result = Poly(self.vars)
        return result

    # ---------------------------------------------------- ordering / printing

    @staticmethod
    def _gl_key(exps):
        return (sum(exps), exps)

    def sorted_terms(self):
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda kv: Poly._gl_key(kv[0]), reverse=True)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=Poly._gl_key)
        return exps, self.terms[exps]

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        _, lc = self.leading()
        return Poly(self.vars, {e: c / lc for e, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx, (exps, c) in enumerate(self.sorted_terms()):
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
        rest = tuple(w for j, w in enumerate(self.vars) if j != i)
        out = {}
        for exps, c in self.terms.items():
            d = exps[i]
            e = tuple(exps[j] for j in range(len(exps)) if j != i)
            sub = out.setdefault(d, {})
            sub[e] = sub.get(e, GR_ZERO) + c
        return {d: Poly(rest, t) for d, t in out.items() if any(t.values())}


def _rat_pow(v, e):
    r = GR_ONE
    b = v
    while e:
        if e & 1:
            r = r * b
        e >>= 1
        if e:
            b = b * b
    return r


def _coeff_is_negative(c):
    if c.a != 0:
        return c.a < 0
    return c.b < 0


def _coeff_str(c, bare):
    """Render a coefficient per the text grammar; empty string when the
    coefficient is 1 and a monomial follows."""
    if bare and c == GR_ONE:
        return ""
    if bare and c == GaussianRational(-1):
        return "-"
    if c.b == 0:
        s = str(c.a)
    elif c.a == 0:
        s = f"{c.b}i"
    else:
        sign = "+" if c.b >= 0 else "-"
        s = f"({c.a}{sign}{abs(c.b)}i)"
    if c.d != 1:
        s = f"{s}/{c.d}"
    return s


# ------------------------------------------------------------------ parsing

_TOKEN = _re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[()^*+\-/i])")


def parse_expression(text, variables=("x", "y")):
    """Parse the polynomial text grammar into a Poly over `variables`.

    Accepted term syntax: signed coefficient (integer, integer 'i', or a
    parenthesized Gaussian literal like (1+2i), optionally /den), '*'-joined
    monomials var or var^int (negative exponents put the result in Laurent
    mode).  Parsing then printing then parsing is a fixed point.
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
            return None, (tok, e)
        raise ParseError(f"unexpected token {tok!r}", p)

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
    """An ordered pair of non-Laurent polynomials in (x, y), with cached
    total degrees and their gcd."""

    def __init__(self, p, q, name=None):
        if isinstance(p, str):
            p = parse_expression(p, ("x", "y"))
        if isinstance(q, str):
            q = parse_expression(q, ("x", "y"))
        if p.is_laurent() or q.is_laurent():
            raise ValueError("PolyMap components must not be Laurent")
        self.p = p._with_vars(("x", "y"))
        self.q = q._with_vars(("x", "y"))
        self.name = name
        self.deg_p = self.p.total_degree()
        self.deg_q = self.q.total_degree()
        from math import gcd as _g

        if self.deg_p and self.deg_q:
            self.deg_gcd = _g(self.deg_p, self.deg_q)
        else:
            self.deg_gcd = None

    def is_integral(self):
        return self.p.has_gaussian_integer_coeffs() and self.q.has_gaussian_integer_coeffs()

    def evaluate(self, x, y):
        vals = {"x": x, "y": y}
        return self.p.evaluate(vals), self.q.evaluate(vals)

    def __repr__(self):
        return f"PolyMap({self.p}, {self.q})"


def jacobian(F):
    """P_x Q_y - P_y Q_x, exactly."""
    return F.p.diff("x") * F.q.diff("y") - F.p.diff("y") * F.q.diff("x")


def compose_map(f, F):
    """f(P, Q) for f in the target variables (u, v)."""
    if f.is_laurent() or F.p.is_laurent():
        raise ValueError("compose_map requires non-Laurent inputs")
    u, v = f.vars[:2] if len(f.vars) >= 2 else ("u", "v")
    return f.evaluate({u: F.p, v: F.q})


def compose_maps(F, G):
    """The map F o G, componentwise."""
    vals = {"x": G.p, "y": G.q}
    return PolyMap(F.p.evaluate(vals), F.q.evaluate(vals))


# ------------------------------------------------- division / gcd machinery


def exact_div(g, f):
    """g / f when f divides g exactly, else None.  Graded-lex leading-term
    elimination; sound for exact multivariate divisibility."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    g, f = g._align(f)
    if g.is_zero():
        return Poly(g.vars)
    fl_exps, fl_c = f.leading()
    q_terms = {}
    r = g
    while not r.is_zero():
        rl_exps, rl_c = r.leading()
        d = tuple(a - b for a, b in zip(rl_exps, fl_exps))
        if any(e < 0 for e in d):
            return None
        c = rl_c / fl_c
        q_terms[d] = c
        r = r - f * Poly(r.vars, {d: c})
        if not r.is_zero() and Poly._gl_key(r.leading()[0]) >= Poly._gl_key(rl_exps):
            return None
    return Poly(g.vars, q_terms)


def divides(f, g):
    """True iff g = f * h for some polynomial h."""
    if f.is_zero():
        raise ZeroDivisionError("zero divisor polynomial")
    return exact_div(g, f) is not None


def _univariate_gcd(f, g, name):
    """Monic Euclidean gcd of polynomials involving only `name`."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, _poly_rem(a, b, name)
    return a.monic()


def _poly_rem(a, b, name):
    """Remainder of a by b, both univariate in `name` over Q(i)."""
    ca = a.coeffs_in(name)
    cb = b.coeffs_in(name)
    db = max(cb)
    lc = cb[db].constant_value()
    while ca:
        da = max(ca)
        if da < db:
            break
        c = ca[da].constant_value() / lc
        for k, coef in cb.items():
            tgt = da - db + k
            val = ca.get(tgt, Poly(a.vars)).constant_value() - c * coef.constant_value()
            if val:
                ca[tgt] = Poly.const(val, a.vars)
            else:
                ca.pop(tgt, None)
    out = Poly(a.vars)
    xv = Poly.var(name, a.vars)
    for k, coef in ca.items():
        out = out + coef * xv ** k
    return out


def poly_gcd(f, g):
    """GCD over Q(i), normalized monic in graded-lex.  Primitive PRS in the
    highest-ranked used variable, recursing on contents."""
    f, g = f._align(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    used = sorted(f.used_vars() | g.used_vars(), key=_rank)
    if not used:
        return Poly.const(1, f.vars)
    if len(used) == 1:
        return _univariate_gcd(f, g, used[0])
    main = used[-1]
    cf, pf = cont_pp_static(f, main)
    cg, pg = cont_pp_static(g, main)
    cont_gcd = poly_gcd(cf, cg)

    a, b = pf, pg
    while True:
        if b.is_zero():
            res = a
            break
        da = a.degree_in(main) or 0
        db = b.degree_in(main) or 0
        if db == 0:
            res = Poly.const(1, a.vars)
            break
        if da < db:
            a, b = b, a
            continue
        r = _pseudo_rem(a, b, main)
        if r.is_zero():
            res = b
            break
        _, r = cont_pp_static(r, main)
        a, b = b, r
    if not res.is_constant():
        _, res = cont_pp_static(res, main)
    return (cont_gcd * res).monic()


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


def _pseudo_rem(a, b, name):
    """Pseudo-remainder of a by b with respect to `name` (up to a factor
    lc(b)^k, which the primitive PRS strips anyway)."""
    cb = b.coeffs_in(name)
    db = max(cb)
    lcb = cb[db]._with_vars(a.vars)
    r = a
    rv = Poly.var(name, a.vars)
    while True:
        cr = r.coeffs_in(name)
        if not cr:
            break
        dr = max(cr)
        if dr < db:
            break
        lcr = cr[dr]._with_vars(r.vars)
        r = r * lcb - b * (lcr * rv ** (dr - db))
    return r


def squarefree_part(f):
    """f / gcd(f, all partials), normalized so the graded-lex leading
    coefficient is 1."""
    if f.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if f.is_laurent():
        raise ValueError("square-free part requires a non-Laurent polynomial")
    g = f
    for w in sorted(f.used_vars(), key=_rank):
        g = poly_gcd(g, f.diff(w))
    if g.is_constant():
        return f.monic()
    out = exact_div(f, g._with_vars(f.vars))
    return out.monic()


# ------------------------------------------------------------- resultants


def sylvester_matrix(a, b, name):
    """Sylvester matrix with a-coefficient rows on top, coefficients listed
    from highest degree.  Its determinant (``det_bareiss``) is the definition
    ``resultant`` is checked against."""
    ca = a.coeffs_in(name)
    cb = b.coeffs_in(name)
    m = max(ca)
    n = max(cb)
    vars = a._align(b)[0].vars
    rest = tuple(w for w in vars if w != name)
    zero = Poly(rest)

    def row(coeffs, deg, shift, width):
        r = [zero] * width
        for k in range(deg + 1):
            c = coeffs.get(deg - k)
            r[shift + k] = c._with_vars(rest) if c is not None else zero
        return r

    width = m + n
    rows = [row(ca, m, s, width) for s in range(n)]
    rows += [row(cb, n, s, width) for s in range(m)]
    return rows


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
    q = exact_div(num, den)
    if q is None:
        raise ArithmeticError("subresultant exact division failed")
    return q


def resultant(a, b, eliminate):
    """Resultant eliminating `eliminate`: the Sylvester determinant with the
    fixed row convention (a-rows on top), sign included, computed by the
    subresultant PRS over the polynomial ring of the other variables
    (Cohen, Alg. 3.3.7, without the content step)."""
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of a zero polynomial")
    da = a.degree_in(eliminate) if eliminate in a.vars else 0
    db = b.degree_in(eliminate) if eliminate in b.vars else 0
    if da <= 0 or db <= 0:
        raise ValueError(f"both inputs must have positive degree in {eliminate}")
    a, b = a._align(b)
    rest = tuple(w for w in a.vars if w != eliminate)
    zero = Poly(rest)
    ca, cb = a.coeffs_in(eliminate), b.coeffs_in(eliminate)
    A = [ca.get(d, zero) for d in range(da, -1, -1)]
    B = [cb.get(d, zero) for d in range(db, -1, -1)]
    # Res(b, a) = (-1)^(deg a * deg b) Res(a, b), on the swap and at each step
    sign = 1
    if da < db:
        A, B = B, A
        if da % 2 and db % 2:
            sign = -1
    g = h = Poly.const(1, rest)
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        R = _pseudo_rem_list(A, B)
        if not R:
            return zero
        den = g * h ** delta
        A, B = B, [_div_or_raise(c, den) for c in R]
        g = A[0]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _div_or_raise(g ** delta, h ** (delta - 1))
        if len(B) == 1:
            break
    da = len(A) - 1
    res = B[0] if da == 1 else _div_or_raise(B[0] ** da, h ** (da - 1))
    return -res if sign < 0 else res


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
