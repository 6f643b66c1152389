"""Exceptional value sets of dominant plane polynomial maps: resultant-based
non-proper candidates, their certification by exact preimage counts at
Gaussian-rational points, critical-value curves, topological degree, and
line-curve intersection counts.

A curve in the value plane is carried as ONE square-free defining polynomial
in (u, v) plus provenance tags; comparisons against known answers use
divisibility both ways rather than factorization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .gaussian import GaussianRational
from .poly import (Poly, PolyMap, _coeff_list, cont_pp_static, divides, exact_div,
                   jacobian, poly_gcd, resultant_allow_constant, squarefree_decomposition,
                   squarefree_part)
from .roots import find_roots

#: largest height max(|a|, |b|, d) of the t = (a + bi)/d tried as one
#: coordinate of a point on a candidate component
POINT_HEIGHT = 6
#: largest denominator of the real and imaginary parts of the Gaussian
#: rational proposed from a numeric root; the proposal is checked exactly
POINT_DENOMINATOR = 10 ** 4

UV = ("u", "v")


class ExceptionalError(RuntimeError):
    pass


class InfiniteFiberError(ExceptionalError):
    """The target is the image of a curve that F contracts to a point."""


@dataclass
class PlaneCurveSet:
    """A plane curve in the value plane: square-free normalized defining
    polynomial over (u, v), provenance tags, and total degree.  A constant
    defining polynomial encodes the empty set."""

    defining: Poly
    provenance: list = field(default_factory=list)
    component_polys: list = field(default_factory=list)  # [(tag, Poly)]

    def __post_init__(self):
        d = self.defining._with_vars(UV) if self.defining.vars != UV else self.defining
        if d.is_zero():
            raise ValueError("defining polynomial must be nonzero")
        if not d.is_constant():
            d = squarefree_part(d)
        else:
            d = Poly.const(1, UV)
        self.defining = d.monic()

    @property
    def degree(self):
        return self.defining.total_degree()

    def is_empty(self):
        return self.defining.is_constant()

    def to_json(self):
        return {
            "defining": str(self.defining),
            "degree": self.degree,
            "provenance": sorted(set(self.provenance)),
        }


@dataclass
class DegreeReport:
    deg_geo: int
    samples: list  # [(target (u0, v0) as strings, count)]
    agreed: bool

    def to_json(self):
        return {
            "value": self.deg_geo,
            "agreed": self.agreed,
            "trials": len(self.samples),
            "samples": [
                {"target": [str(u), str(v)], "count": c} for (u, v), c in self.samples
            ],
        }


# --------------------------------------------------------------------------
# non-proper candidates (leading coefficients of the two resultants)

def _fiber_equations(F):
    """P - u and Q - v over (x, y, u, v)."""
    vars4 = ("x", "y", "u", "v")
    p = F.p._with_vars(vars4) - Poly.var("u", vars4)
    q = F.q._with_vars(vars4) - Poly.var("v", vars4)
    return p, q


def nonproper_candidates(F):
    """Square-free product of the non-constant leading coefficients (in u, v)
    of Res_y(P-u, Q-v) viewed in x and Res_x(P-u, Q-v) viewed in y.  This cuts
    out a superset of the non-properness locus; certify_nonproper filters it.
    """
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant (Jacobian vanishes identically)")
    p, q = _fiber_equations(F)
    components = []
    failures = []
    for elim, view, tag in (("y", "x", "res_y"), ("x", "y", "res_x")):
        r = resultant_allow_constant(p, q, elim)
        if r.is_constant() or r.degree_in(view) == 0:
            failures.append(elim)
            continue
        lead = _coeff_list(r, view)[0]
        if lead.is_constant():
            continue
        components.append((f"nonproper-candidate:{tag}", squarefree_part(lead)))
    if len(failures) == 2:
        raise ExceptionalError(
            "both resultants degenerate (degree-0 elimination in x and y)"
        )
    if not components:
        return PlaneCurveSet(Poly.const(1, UV))
    product = Poly.const(1, UV)
    for _, c in components:
        product = product * c._with_vars(UV)
    return PlaneCurveSet(product, ["nonproper-candidate"],
                         [(t, c.monic()._with_vars(UV)) for t, c in components])


# --------------------------------------------------------------------------
# exact preimage counting (shared by certification and degree)

# deterministic shears x -> x + lambda*y used to reach generic coordinates
_SHEAR_LAMBDAS = (
    GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
    GaussianRational(2), GaussianRational(1, 1), GaussianRational(-1, 2),
)


def _preimage_count_exact(F, u0, v0):
    """Number of solutions of F = (u0, v0) for a Gaussian-rational target.

    After a shear that gives P - u0 and Q - v0 constant leading coefficients
    in y, a root of r = Res_y has the multiplicity of the sum of the
    intersection multiplicities above it.  So a square-free r means every
    solution is simple and has its own x, and deg r counts them; the first
    such shear gives the count.  Off the critical values every solution is
    simple, and a shear that separates their x-coordinates exists.  Raises
    InfiniteFiberError when r vanishes, and ExceptionalError when no shear
    of _SHEAR_LAMBDAS gives a square-free r."""
    for lam in _SHEAR_LAMBDAS:
        p, q = (f - Poly.const(w, ("x", "y")) for f, w in zip(F.sheared(lam), (u0, v0)))
        dp, dq = p.degree_in("y"), q.degree_in("y")
        if dp <= 0 or dq <= 0:
            continue
        if not (p.coeffs_in("y")[dp].is_constant() and q.coeffs_in("y")[dq].is_constant()):
            continue
        r = resultant_allow_constant(p, q, "y")
        if r.is_zero():
            raise InfiniteFiberError(f"fiber is infinite at ({u0}, {v0})")
        if r.is_constant():
            return 0
        if poly_gcd(r, r.diff("x")).is_constant():
            return r.total_degree()
    raise ExceptionalError(f"no shear separates the solutions over ({u0}, {v0})")


def _random_rational(rng):
    a = rng.randint(-9, 9)
    b = rng.randint(-9, 9)
    d = rng.randint(1, 4)
    return GaussianRational(a, b, d)


def topological_degree(F, trials=3, seed=0, avoid=None):
    """deg_geo F: the common preimage count at `trials` random Gaussian-rational
    targets, rejecting those on the candidate exceptional locus exactly (the
    count at a target is exact, so nearness to the locus does not matter).
    `avoid` is that locus's defining polynomial in (u, v) when the caller has
    it; otherwise it is computed from the candidates and critical values."""
    if trials < 3:
        raise ValueError("need at least 3 trials")
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant")
    if avoid is None:
        avoid = nonproper_candidates(F).defining * critical_values(F).defining
    rng = random.Random(seed)
    samples = []
    attempts = 0
    while len(samples) < trials:
        if attempts > 60:
            raise ExceptionalError("could not find generic targets off the candidate locus")
        attempts += 1
        u0 = _random_rational(rng)
        v0 = _random_rational(rng)
        if not avoid.evaluate({"u": u0, "v": v0}):
            continue
        samples.append(((u0, v0), _preimage_count_exact(F, u0, v0)))
    counts = sorted({c for _, c in samples})
    agreed = len(counts) == 1
    if not agreed:
        raise ExceptionalError(
            f"preimage counts disagree across trials: {counts}; targets {samples}"
        )
    return DegreeReport(deg_geo=counts[0], samples=samples, agreed=True)


def _gaussian_rationals(height):
    """The Gaussian rationals (a + bi)/d in lowest terms by increasing height
    max(|a|, |b|, d), up to ``height``."""
    for h in range(1, height + 1):
        for d in range(1, h + 1):
            for a in range(-h, h + 1):
                for b in range(-h, h + 1):
                    t = GaussianRational(a, b, d)
                    if t.d == d and max(abs(a), abs(b), d) == h:
                        yield t


def _nearby_rational(z):
    """A Gaussian rational next to the complex z, with real and imaginary
    denominators at most POINT_DENOMINATOR."""
    re, im = (Fraction(c).limit_denominator(POINT_DENOMINATOR) for c in (z.real, z.imag))
    return GaussianRational(re.numerator * im.denominator, im.numerator * re.denominator,
                            re.denominator * im.denominator)


def _univariate_roots(f):
    """Complex roots of a univariate or constant Poly f, from its exact
    coefficients; none when f is zero or constant."""
    if f.is_constant():
        return ()
    (free,) = f.vars
    return find_roots([complex(c.constant_value()) for c in _coeff_list(f, free)])


def _component_counts(F, comp, avoid, samples):
    """``samples`` Gaussian-rational points of comp with their exact
    preimage counts.  Each t by increasing height is tried as u0 with the
    slice comp(t, v), then as v0 with comp(u, t).  Each root of the slice
    proposes a nearby Gaussian rational, taken in the exact order (-Im, Re),
    whatever the order of the roots.  It is kept when comp vanishes there,
    ``avoid`` does not, and the fiber is finite."""
    seen, points = set(), []
    for t in _gaussian_rationals(POINT_HEIGHT):
        for t_is_v in (False, True):
            roots = _univariate_roots(comp.evaluate({"v" if t_is_v else "u": t}))
            for w in sorted(map(_nearby_rational, roots),
                            key=lambda w: (-Fraction(w.b, w.d), Fraction(w.a, w.d))):
                pt = (w, t) if t_is_v else (t, w)
                if pt in seen:
                    continue
                seen.add(pt)
                at = dict(zip(UV, pt))
                if comp.evaluate(at) or not avoid.evaluate(at):
                    continue
                try:
                    points.append((pt, _preimage_count_exact(F, *pt)))
                except InfiniteFiberError:
                    continue  # the image of a contracted curve
                if len(points) == samples:
                    return points
    raise ExceptionalError(
        f"found {len(points)} of {samples} Gaussian-rational points of height at most "
        f"{POINT_HEIGHT} on component {comp}"
    )


def certify_nonproper(F, curve, samples=5, *, deg_geo, critical):
    """Per-component verdicts: a candidate component C is confirmed
    non-proper when the exact preimage count is below deg_geo at each of
    ``samples`` Gaussian-rational points of C off the other candidates and
    off ``critical``, the critical-value curve.  Off J_F and the critical
    values a point has deg_geo preimages, and a point of J_F off the
    critical values has fewer (Jelonek, Ann. Polon. Math. 58, 1993), so each
    count decides whether the factor of C through its point lies in J_F.  A C
    inside the critical-value curve (so in A_F) has no point off it to count:
    it takes no samples, is not confirmed, and is marked ``inside_critical``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    comps = curve.component_polys or (
        [] if curve.is_empty() else [("candidate", curve.defining)]
    )
    verdicts = []
    for tag, comp in comps:
        inside = divides(comp, critical.defining)
        counted = [] if inside else _component_counts(
            F, comp, exact_div(curve.defining, comp) * critical.defining, samples)
        verdicts.append({
            "tag": tag,
            "component": str(comp),
            "confirmed": not inside and all(c < deg_geo for _, c in counted),
            "inside_critical": inside,
            "samples": [{"point": [str(u0), str(v0)], "count": c}
                        for (u0, v0), c in counted],
        })
    return verdicts


# --------------------------------------------------------------------------
# critical values

def _line_images(p, q, g, var, other):
    """Images of the lines {var = r}, g(r) = 0, none of which F contracts to
    a point: Res_var(g, Res_other(P - u, Q - v)), whose factor at r cuts out
    the image of {var = r}.  Where the leading coefficients of P and Q in
    `other` both vanish at r, that resultant specializes to 0 there, so those
    roots are split off and taken with both leading terms dropped."""
    h = g
    for f in (p, q):
        h = poly_gcd(h, _coeff_list(f, other)[0])
    out = []
    rest = exact_div(g, h)
    if not rest.is_constant():
        r = resultant_allow_constant(rest, resultant_allow_constant(p, q, other), var)
        out.append(r)
    if not h.is_constant():
        p, q = (f - _coeff_list(f, other)[0] * Poly.var(other, f.vars) ** f.degree_in(other)
                for f in (p, q))
        out.extend(_line_images(p, q, h, var, other))
    return out


def _line_image_factors(F, d, var, other):
    """Polynomials in (u, v) whose zero sets are the images of the critical
    lines {var = r}, r a root of d, the square-free content of JF in var.
    None of these lines is contracted to a point: `critical_values` has
    divided the contracted components out."""
    if d.is_constant():
        return []
    p, q = _fiber_equations(F)
    return _line_images(p, q, d._with_vars(p.vars), var, other)


def _eliminate_order(F, pp, first):
    """Eliminate `first` then the other variable from {P-u, Q-v, pp}, where pp
    contains no full-line components.  Returns the eliminant, a (u, v)
    polynomial that need not be square-free, or None."""
    second = "x" if first == "y" else "y"
    p, q = _fiber_equations(F)
    j4 = pp._with_vars(("x", "y", "u", "v"))
    t1 = resultant_allow_constant(p, j4, first)
    t2 = resultant_allow_constant(q, j4, first)
    if t1.is_constant() and t2.is_constant():
        return None
    # strip spurious univariate contents (pp has no line components, so any
    # content in the surviving source variable is an elimination artifact)
    if not t1.is_constant():
        _, t1 = cont_pp_static(t1, "u")
    if not t2.is_constant():
        _, t2 = cont_pp_static(t2, "v")
    if t1.degree_in(second) == 0 and t2.degree_in(second) == 0:
        # the two constraints no longer share a source variable: their common
        # zero set is a finite point set, and isolated image points are not
        # curve components
        return None
    e = resultant_allow_constant(t1, t2, second)
    if e.is_constant():
        return None
    return e._with_vars(UV)


def critical_values(F):
    """Image of the critical locus {JF = 0}.

    Components that F contracts to a point are divided out of the
    square-free Jacobian first: their images are points.  Full lines inside
    the locus are split off exactly (axis contents of the
    square-free Jacobian) and their images taken by resultants with those
    contents, with no root solve; the remaining
    primitive part goes through iterated-resultant elimination in both
    variable orders, reconciled by a gcd to kill order-specific spurious
    factors.  The eliminants and line images are raw; the one square-free
    reduction is PlaneCurveSet's, of their product: over Q(i) the square-free
    part of gcd(a, b) is the gcd of the square-free parts, and that of a
    product cuts out the union of the factors' zero sets."""
    jf = jacobian(F)
    if jf.is_zero():
        raise ExceptionalError("Jacobian vanishes identically")
    pp = squarefree_part(jf)
    # on a component C of {pp = 0}, {f, pp} = f_x pp_y - f_y pp_x is the
    # derivative of f along C up to a factor nonzero on C, so
    # k = gcd(pp, {P, pp}, {Q, pp}) is the product of the components that F
    # contracts to points, which are no curve components of the image
    k = pp
    for f in (F.p, F.q):
        if not k.is_constant():
            k = poly_gcd(k, jacobian(PolyMap(f, pp)))
    if not k.is_constant():
        pp = exact_div(pp, k)
    line_factors = []
    for var, other in (("x", "y"), ("y", "x")):
        # the content in the other variable is a polynomial in `var` whose
        # roots r are exactly the full lines {var = r} inside {pp = 0}
        cont, pp = cont_pp_static(pp, other)
        line_factors.extend(_line_image_factors(F, cont, var, other))
    g = Poly.const(1, UV)
    if not pp.is_constant():
        curves = [e for e in (_eliminate_order(F, pp, "y"), _eliminate_order(F, pp, "x"))
                  if e is not None]
        if curves:
            g = poly_gcd(*curves) if len(curves) == 2 else curves[0]
    for lf in line_factors:
        g = g * lf._with_vars(UV)
    return PlaneCurveSet(g, ["critical-value"])


# --------------------------------------------------------------------------

@dataclass
class ExceptionalReport:
    """One pass of the exceptional pipeline over a map: each stage's result,
    and A_F itself as `curve`."""

    candidates: PlaneCurveSet
    critical: PlaneCurveSet
    degree: DegreeReport
    verdicts: list
    curve: PlaneCurveSet


def exceptional_report(F, samples=5, seed=0, trials=3):
    """Run each stage once: candidates and critical values, the degree with
    their product as its avoid locus, then the certification verdicts.  A_F
    is the square-free product of the confirmed non-proper components and
    the critical-value components, with provenance."""
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant")
    cand = nonproper_candidates(F)
    crit = critical_values(F)
    degree = topological_degree(F, trials=trials, seed=seed + 1,
                                avoid=cand.defining * crit.defining)
    verdicts = certify_nonproper(F, cand, samples=samples, deg_geo=degree.deg_geo,
                                 critical=crit)
    product = Poly.const(1, UV)
    provenance = []
    for v, (_, comp) in zip(verdicts, cand.component_polys):
        if v["confirmed"]:
            product = product * comp
            provenance.append("nonproper-candidate")
    if not crit.is_empty():
        product = product * crit.defining
        provenance.append("critical-value")
    return ExceptionalReport(cand, crit, degree, verdicts, PlaneCurveSet(product, provenance))


def exceptional_set(F, samples=5, seed=0):
    """A_F: the curve of ``exceptional_report``."""
    return exceptional_report(F, samples, seed).curve


def line_intersections(curve, k):
    """Complex v-roots of defining(k, v), the intersection of the vertical
    line {u = k} with the curve.  Multiplicities are exact, from the
    square-free decomposition of defining(k, v); only its factors are solved
    numerically.

    Errors when (u - k) divides the defining polynomial -- the excluded
    line-inside-curve case."""
    if curve.is_empty():
        return {"k": str(k), "roots": [], "count": 0}
    kq = GaussianRational.coerce(k)
    line = Poly(UV, {(1, 0): GaussianRational(1)}) - Poly.const(kq, UV)
    if divides(line, curve.defining):
        raise ExceptionalError(
            f"the line u = {k} is contained in the curve; intersection count undefined"
        )
    roots = sorted(((complex(z), m)
                    for a, m in squarefree_decomposition(curve.defining.evaluate({"u": kq}), "v")
                    for z in _univariate_roots(a)),
                   key=lambda t: (t[0].real, t[0].imag))
    return {
        "k": str(k),
        "roots": [{"v": [z.real, z.imag], "multiplicity": m} for z, m in roots],
        "count": len(roots),
    }
