"""Shared helpers of the test modules: variable tuples, the parser
shorthand and seeded generators.  They live outside ``conftest.py`` so that
``from support import ...`` names this module only, whichever other
``conftest`` a pytest session has loaded."""

import numpy as np

from planejac.gaussian import GaussianRational
from planejac.poly import Poly, PolyMap, compose_maps, parse_expression

XY = ("x", "y")
UV = ("u", "v")


def slice_rows(sl, values):
    """``sl.flat_roots(values)`` split by row: None where every coefficient
    is numerically zero, else the row's roots (empty for a nonzero constant)."""
    flat, counts = sl.flat_roots(values)
    ends = np.cumsum(np.maximum(counts, 0)).tolist()
    return [None if k < 0 else flat[e - k:e] for k, e in zip(counts.tolist(), ends)]


def pe(text, variables=XY):
    return parse_expression(text, variables)


def random_poly(rng, vars=XY, max_deg=3, n_terms=4, int_coeffs=False):
    """Seeded random sparse polynomial for property tests."""
    terms = {}
    for _ in range(rng.randint(1, n_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in vars)
        if int_coeffs:
            c = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        else:
            c = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            terms[e] = c
    if not terms:
        terms[(1,) + (0,) * (len(vars) - 1)] = GaussianRational(1)
    return Poly(vars, terms)


def rename_xy_to_uv(f):
    """Positional variable rename (x, y) -> (u, v)."""
    return Poly(UV, dict(f.terms))


def random_automorphism(rng, max_total_deg=6, max_factors=4, max_factor_deg=3):
    """A random composition of origin-fixing elementary factors together with
    its exact polynomial inverse.  The composed degree (product of factor
    degrees) is kept at most `max_total_deg`."""
    x = Poly.var("x", XY)
    y = Poly.var("y", XY)
    factors = []
    inverses = []
    deg = 1
    for _ in range(rng.randint(2, max_factors)):
        if rng.random() < 0.2:
            factors.append(PolyMap(y, x))
            inverses.append(PolyMap(y, x))
            continue
        d = rng.randint(2, max_factor_deg)
        if deg * d > max_total_deg:
            d = 1
        terms = {}
        for k in range(1, d + 1):
            c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            if c:
                terms[k] = c
        if d not in terms:
            terms[d] = GaussianRational(1)
        deg *= d
        if rng.random() < 0.5:
            p = Poly(XY, {(k, 0): c for k, c in terms.items()})
            factors.append(PolyMap(x, y + p))
            inverses.append(PolyMap(x, y - p))
        else:
            p = Poly(XY, {(0, k): c for k, c in terms.items()})
            factors.append(PolyMap(x + p, y))
            inverses.append(PolyMap(x - p, y))
    forward = factors[0]
    for f in factors[1:]:
        forward = compose_maps(f, forward)
    inverse = inverses[0]
    for g in inverses[1:]:
        inverse = compose_maps(inverse, g)
    return forward, inverse


def random_point(rng):
    return (GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3)),
            GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3)))
