"""Seeded input generators for the benchmark.

Everything here works on a small, independent Gaussian-integer polynomial
representation (a dict from exponent pairs (i, j) of x^i*y^j to (re, im)
integer pairs), so the reference answers the workloads check against do not
come from the code under test.

- ``unit_symmetry``: a seeded D = (x, y) -> (eps*x, eta*y) with eps, eta in
  {1, i, -1, -i}.  F o D has the same image of any Z[i] box (D permutes the
  box), the same Jacobian up to the unit eps*eta, and the same Z[i] fiber
  counts, so D changes the input text without changing the answers.
- ``fixed_profile_automorphism``: a composition of elementary triangular maps
  whose composed degree is fixed in advance; only the coefficients are drawn.
  The exact inverse is returned with it.  ``conjugate_by_unit_symmetry``
  turns one such map into seeded variants that cost the same to invert.
- ``format_poly``: map text in the ``planejac.poly.parse_expression`` grammar.
"""

from __future__ import annotations

import json
import random

UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # 1, i, -1, -i


# --------------------------------------------------- Gaussian-integer polys

def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gpow(a, e):
    r = (1, 0)
    for _ in range(e):
        r = gmul(r, a)
    return r


def padd(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, (0, 0))
        s = (s[0] + sign * c[0], s[1] + sign * c[1])
        if s == (0, 0):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def pmul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            s, c = out.get(e, (0, 0)), gmul(c1, c2)
            out[e] = (s[0] + c[0], s[1] + c[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def ppow(f, e):
    r = {(0, 0): (1, 0)}
    for _ in range(e):
        r = pmul(r, f)
    return r


def compose(f, p, q):
    """f(p, q) for polynomials f, p, q in (x, y)."""
    out = {}
    xs = {0: {(0, 0): (1, 0)}}
    ys = {0: {(0, 0): (1, 0)}}
    for (i, j), c in f.items():
        for pw, base, k in ((xs, p, i), (ys, q, j)):
            while k not in pw:
                n = max(pw)
                pw[n + 1] = pmul(pw[n], base)
        out = padd(out, pmul({(0, 0): c}, pmul(xs[i], ys[j])))
    return out


def compose_maps(outer, inner):
    """outer o inner for maps given as (p, q) pairs."""
    return (compose(outer[0], *inner), compose(outer[1], *inner))


X = {(1, 0): (1, 0)}
Y = {(0, 1): (1, 0)}


# ------------------------------------------------------------------ text

def _coeff_text(c):
    a, b = c
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}i"
    return f"({a}{'+' if b > 0 else '-'}{abs(b)}i)"


def _negative(c):
    return c[0] < 0 if c[0] else c[1] < 0


def format_poly(f, variables=("x", "y")):
    """Text of f in the parse_expression grammar, graded-lex descending."""
    if not f:
        return "0"
    parts = []
    for idx, (e, c) in enumerate(sorted(f.items(), key=lambda t: (sum(t[0]), t[0]),
                                        reverse=True)):
        neg = idx > 0 and _negative(c)
        if neg:
            c = (-c[0], -c[1])
        mono = "*".join(w if k == 1 else f"{w}^{k}"
                        for w, k in zip(variables, e) if k)
        if not mono:
            body = _coeff_text(c)
        elif c == (1, 0):
            body = mono
        elif c == (-1, 0):
            body = "-" + mono
        else:
            body = f"{_coeff_text(c)}*{mono}"
        parts.append(body if idx == 0 else (" - " if neg else " + ") + body)
    return "".join(parts)


def poly_terms(poly):
    """planejac Poly in (x, y) with Gaussian-integer coefficients -> dict."""
    out = {}
    for exps, c in poly.terms.items():
        if c.d != 1:
            raise ValueError("coefficient is not a Gaussian integer")
        out[tuple(exps)] = (c.a, c.b)
    return out


def map_document(name, p, q, curve=None, note=""):
    doc = {"name": name, "p": format_poly(p), "q": format_poly(q),
           "variables": ["x", "y"], "integral": True,
           "metadata": {"note": note}}
    if curve is not None:
        doc["curve"] = curve
    return doc


def write_map(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


# ----------------------------------------------------------- unit symmetry

def unit_symmetry(seed):
    """(eps, eta) for the seed: D = (x, y) -> (eps*x, eta*y)."""
    rng = random.Random(f"unit-symmetry-{seed}")
    return rng.choice(UNITS), rng.choice(UNITS)


def apply_unit_symmetry(f, eps, eta):
    """f o D: each term c*x^i*y^j becomes c*eps^i*eta^j*x^i*y^j."""
    return {e: gmul(c, gmul(gpow(eps, e[0]), gpow(eta, e[1]))) for e, c in f.items()}


def unit_inverse(u):
    return (u[0], -u[1])


def conjugate_by_unit_symmetry(fmap, eps, eta):
    """D^-1 o F o D for F = (p, q): (conj(eps)*p o D, conj(eta)*q o D).
    Each coefficient only gains a unit factor fixed by its monomial, so the
    work of inverting the map, and its exact inverse D^-1 o F^-1 o D, does
    not depend on D."""
    p, q = fmap
    return (scale(apply_unit_symmetry(p, eps, eta), unit_inverse(eps)),
            scale(apply_unit_symmetry(q, eps, eta), unit_inverse(eta)))


def scale(f, c):
    return {e: gmul(c, v) for e, v in f.items()}


# ---------------------------------------------------- fixed-profile maps

#: composed degrees 4, 6 and 8, each a product of elementary factor degrees;
#: factors alternate between (x, y + a(x)) and (x + b(y), y)
PROFILES = ((2, 2), (2, 3), (2, 2, 2))


def fixed_profile_automorphism(rng, profile):
    """A seeded automorphism with composed degree prod(profile) and its exact
    inverse, both as (p, q) pairs.  Every factor has all its terms of degree
    1..deg, each with a unit coefficient drawn from rng.  Cancellations in
    the composition still depend on the draw, and with them the cost of
    inverting the map."""
    forward = (X, Y)
    inverse = (X, Y)
    for n, deg in enumerate(profile):
        var = X if n % 2 == 0 else Y
        h = {}
        for k in range(1, deg + 1):
            h = padd(h, pmul({(0, 0): rng.choice(UNITS)}, ppow(var, k)))
        if n % 2 == 0:  # (x, y + h(x))
            factor, factor_inv = (X, padd(Y, h)), (X, padd(Y, h, -1))
        else:  # (x + h(y), y)
            factor, factor_inv = (padd(X, h), Y), (padd(X, h, -1), Y)
        forward = compose_maps(factor, forward)
        inverse = compose_maps(inverse, factor_inv)
    return forward, inverse
