"""Exceptional value sets of dominant plane polynomial maps: resultant-based
non-proper candidates, numeric certification by sampling, critical-value
curves, topological degree, and line-curve intersection counts.

A curve in the value plane is carried as ONE square-free defining polynomial
in (u, v) plus provenance tags; comparisons against known answers use
divisibility both ways rather than factorization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gaussian import GR_ZERO, GaussianRational
from .poly import (Poly, PolyMap, cont_pp_static, divides, jacobian, poly_gcd,
                   resultant_allow_constant, squarefree_part)
from .roots import SAMPLE_ZERO_REL, Slice, cluster_roots

#: relative residual under which a polished sample preimage counts as a solution
CERTIFY_TOL = 1e-7
#: relative Newton step that stops a sample preimage's polish: a few ulps
POLISH_REL = 1e-14
#: root-to-Gaussian-integer distance of a critical line; exact evaluation decides
LATTICE_ROOT_TOL = 1e-9

UV = ("u", "v")


class ExceptionalError(RuntimeError):
    pass


def _empty_curve(provenance=()):
    return PlaneCurveSet(Poly.const(1, UV), list(provenance))


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

    @cached_property
    def u_slice(self):
        """The defining polynomial as a Slice in u, built once per curve."""
        return Slice(self.defining, "u")

    @cached_property
    def v_slice(self):
        """The defining polynomial as a Slice in v, built once per curve."""
        return Slice(self.defining, "v")

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

def _shifted_components(F):
    """P - u and Q - v over (x, y, u, v)."""
    vars4 = ("x", "y", "u", "v")
    p = F.p._with_vars(vars4) - Poly.var("u", vars4)
    q = F.q._with_vars(vars4) - Poly.var("v", vars4)
    return p, q


def _leading_coeff_in(f, var):
    cs = f.coeffs_in(var)
    return cs[max(cs)]


def nonproper_candidates(F):
    """Square-free product of the non-constant leading coefficients (in u, v)
    of Res_y(P-u, Q-v) viewed in x and Res_x(P-u, Q-v) viewed in y.  This cuts
    out a superset of the non-properness locus; certify_nonproper filters it.
    """
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant (Jacobian vanishes identically)")
    p, q = _shifted_components(F)
    components = []
    failures = []
    for elim, view, tag in (("y", "x", "res_y"), ("x", "y", "res_x")):
        r = resultant_allow_constant(p, q, elim)
        if r.is_constant() or r.degree_in(view) == 0:
            failures.append(elim)
            continue
        lead = _leading_coeff_in(r, view)
        if lead.is_constant():
            continue
        components.append((f"nonproper-candidate:{tag}", squarefree_part(lead)))
    if len(failures) == 2:
        raise ExceptionalError(
            "both resultants degenerate (degree-0 elimination in x and y)"
        )
    if not components:
        return _empty_curve()
    product = Poly.const(1, UV)
    for _, c in components:
        product = product * c._with_vars(UV)
    curve = PlaneCurveSet(product, ["nonproper-candidate"],
                          [(t, c.monic()._with_vars(UV)) for t, c in components])
    return curve


# --------------------------------------------------------------------------
# numeric preimage counting (shared by certification and degree)

def _term_magnitude_bound(f, x0, y0):
    """1 + sum of |coeff| * |x0|^ex * |y0|^ey over the terms of f."""
    ax, ay = abs(x0), abs(y0)
    total = 1.0
    for exps, c in f.terms.items():
        m = abs(complex(c))
        for w, e in zip(f.vars, exps):
            m *= (ax if w == "x" else ay) ** e
        total += m
    return total


# deterministic shears x -> x + lambda*y used to reach generic coordinates
_SHEAR_LAMBDAS = (
    GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
    GaussianRational(2), GaussianRational(1, 1), GaussianRational(-1, 2),
)


def _preimage_count_exact(F, u0, v0):
    """Number of distinct finite solutions of F = (u0, v0) for a
    Gaussian-rational target.  Shear to generic coordinates so both
    components have a constant leading coefficient in y, substitute the
    target exactly, and read off the squarefree degree of the univariate
    resultant.  Each shear can only undercount (when two solutions share an
    x); the maximum over agreeing shears is the fiber size."""
    xv = Poly.var("x", ("x", "y"))
    yv = Poly.var("y", ("x", "y"))
    counts = []
    for lam in _SHEAR_LAMBDAS:
        sub = {"x": xv + Poly.const(lam, ("x", "y")) * yv, "y": yv}
        p = F.p.evaluate(sub) - Poly.const(u0, ("x", "y"))
        q = F.q.evaluate(sub) - Poly.const(v0, ("x", "y"))
        dp, dq = p.degree_in("y"), q.degree_in("y")
        if dp <= 0 or dq <= 0:
            continue
        if not (p.coeffs_in("y")[dp].is_constant() and q.coeffs_in("y")[dq].is_constant()):
            continue
        r = resultant_allow_constant(p, q, "y")
        if r.is_zero():
            raise ExceptionalError("fiber is infinite at the target")
        counts.append(0 if r.is_constant() else squarefree_part(r).total_degree())
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            break
    if not counts:
        raise ExceptionalError("no generic shear found for exact fiber count")
    return max(counts)


def _preimage_count_numeric(F, u0, v0, res_x):
    """Number of distinct finite solutions of F = (u0, v0) for a complex
    target (e.g. a sampled point on a candidate curve).

    Candidate solutions come from the exact trivariate resultant
    Res_y(P-u, Q-v), sliced in x as ``res_x`` and specialized at the target
    (x-values), and from the two univariate slices at each x (y-values).  A
    candidate whose residuals already sit at the roundoff bound is accepted
    directly; otherwise it is polished by Newton iteration on the full 2x2
    system.  Accepted solutions are deduplicated."""
    xs = res_x.roots([(u0, v0)], SAMPLE_ZERO_REL)[0]
    if xs is None:
        raise ExceptionalError("resultant vanished identically at the target")
    if len(xs) == 0:
        return 0
    in_y = ((Slice(F.p, "y"), u0), (Slice(F.q, "y"), v0))
    fx, fy = F.p.diff("x"), F.p.diff("y")
    gx, gy = F.q.diff("x"), F.q.diff("y")

    def _ev(f, x, y):
        return complex(f.evaluate({"x": x, "y": y}))

    def _polish(x, y):
        for _ in range(60):
            if max(abs(x), abs(y)) > 1e12:
                return x, y  # diverging; the residual check will reject it
            pv = _ev(F.p, x, y) - u0
            qv = _ev(F.q, x, y) - v0
            a, b = _ev(fx, x, y), _ev(fy, x, y)
            c, d = _ev(gx, x, y), _ev(gy, x, y)
            det = a * d - b * c
            if det == 0:
                break
            dx = (d * pv - b * qv) / det
            dy = (a * qv - c * pv) / det
            x, y = x - dx, y - dy
            if abs(dx) <= POLISH_REL * (1 + abs(x)) and abs(dy) <= POLISH_REL * (1 + abs(y)):
                break
        return x, y

    count = 0
    solutions = []
    for x0, _ in cluster_roots(xs, tol=1e-6):
        # y-roots of P(x0, .) = u0 and Q(x0, .) = v0: None when the equation
        # holds identically, empty when it never holds.  A failed solve
        # raises: dropping its candidates could fake a count below deg_geo
        ys = [sl.roots([x0], SAMPLE_ZERO_REL, shift=target)[0] for sl, target in in_y]
        if any(r is not None and len(r) == 0 for r in ys):
            continue  # one equation is a nonzero constant on the slice
        if ys[0] is None and ys[1] is None:
            continue  # the whole vertical line maps to the target
        if ys[0] is None or ys[1] is None:
            # one equation holds identically on the line: the other alone
            # cuts the fiber there, and its roots are exact by construction
            count += len(cluster_roots(ys[1] if ys[0] is None else ys[0], tol=1e-6))
            continue
        for y0 in (*ys[0], *ys[1]):
            # a far-out candidate overflows in complex128: its residuals or
            # bounds come out inf or NaN, and it is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    rp = abs(_ev(F.p, x0, y0) - u0)
                    rq = abs(_ev(F.q, x0, y0) - v0)
                    sp = abs(u0) + _term_magnitude_bound(F.p, x0, y0)
                    sq = abs(v0) + _term_magnitude_bound(F.q, x0, y0)
                    if rp <= 1e-9 * sp and rq <= 1e-9 * sq:
                        # already at the roundoff bound; Newton can only be
                        # destabilized by ill conditioning here
                        x1, y1 = x0, y0
                    else:
                        x1, y1 = _polish(x0, y0)
                        rp = abs(_ev(F.p, x1, y1) - u0)
                        rq = abs(_ev(F.q, x1, y1) - v0)
                    sp = abs(u0) + _term_magnitude_bound(F.p, x1, y1)
                    sq = abs(v0) + _term_magnitude_bound(F.q, x1, y1)
                except (OverflowError, ZeroDivisionError):
                    continue
            if not all(map(math.isfinite, (rp, rq, sp, sq))):
                continue
            if not (rp <= CERTIFY_TOL * sp and rq <= CERTIFY_TOL * sq):
                continue
            if all(max(abs(x1 - xs_), abs(y1 - ys_)) >
                   1e-6 * (1 + max(abs(x1), abs(y1)))
                   for xs_, ys_ in solutions):
                solutions.append((x1, y1))
    return count + len(solutions)


def _random_rational(rng, lo=-9, hi=9):
    a = rng.randint(lo, hi)
    b = rng.randint(lo, hi)
    d = rng.randint(1, 4)
    return GaussianRational(a, b, d)


def topological_degree(F, trials=3, seed=0, tol=1e-9, avoid=None):
    """deg_geo F: the common preimage count at `trials` random Gaussian-rational
    targets drawn with rejection against the candidate exceptional locus.
    `avoid` is that locus's defining polynomial in (u, v) when the caller has
    it; otherwise it is computed from the candidates and critical values."""
    if trials < 3:
        raise ValueError("need at least 3 trials")
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant")
    if avoid is None:
        avoid = nonproper_candidates(F).defining
        try:
            avoid = avoid * critical_values(F).defining
        except ExceptionalError:
            pass
    rng = random.Random(seed)
    samples = []
    attempts = 0
    while len(samples) < trials:
        if attempts > 60:
            raise ExceptionalError("could not find generic targets off the candidate locus")
        attempts += 1
        u0 = _random_rational(rng)
        v0 = _random_rational(rng)
        if not avoid.is_constant():
            if abs(complex(avoid.evaluate({"u": u0, "v": v0}))) < tol:
                continue
        samples.append(((u0, v0), _preimage_count_exact(F, u0, v0)))
    counts = sorted({c for _, c in samples})
    agreed = len(counts) == 1
    if not agreed:
        raise ExceptionalError(
            f"preimage counts disagree across trials: {counts}; targets {samples}"
        )
    return DegreeReport(deg_geo=counts[0], samples=samples, agreed=True)


def certify_nonproper(F, curve, samples=5, seed=0, *, deg_geo):
    """Per-component verdicts: a candidate component is confirmed non-proper
    when the finite-preimage count drops strictly below deg_geo at every
    sampled point of the component (solutions accepted at CERTIFY_TOL).
    Raises RootFindingError when a slice solve of the count fails."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    comps = curve.component_polys or (
        [] if curve.is_empty() else [("candidate", curve.defining)]
    )
    if comps:
        res_y = resultant_allow_constant(*_shifted_components(F), "y")
        res_x = Slice(res_y._with_vars(("x", "u", "v")), "x")
    verdicts = []
    for tag, comp in comps:
        in_v, in_u = Slice(comp, "v"), Slice(comp, "u")
        pts = []
        attempts = 0
        while len(pts) < samples:
            if attempts > 40 * samples:
                raise ExceptionalError(
                    f"sampling failed to find smooth points on component {comp}"
                )
            attempts += 1
            u0 = _random_rational(rng)
            vs = in_v.exact_roots([u0])
            if vs is None:
                # defining(u0, .) vanishes identically: any v works
                pts.append((complex(u0), complex(_random_rational(rng))))
            elif len(vs) > 0:
                for v0 in vs[: samples - len(pts)]:
                    pts.append((complex(u0), complex(v0)))
            else:
                # no v over this u0 (e.g. a vertical line): solve for u instead
                v1 = _random_rational(rng)
                us = in_u.exact_roots([v1])
                if us is None:
                    pts.append((complex(_random_rational(rng)), complex(v1)))
                else:
                    for w in us[: samples - len(pts)]:
                        pts.append((complex(w), complex(v1)))
        counts = [_preimage_count_numeric(F, u0, v0, res_x) for u0, v0 in pts]
        verdicts.append({
            "tag": tag,
            "component": str(comp),
            "confirmed": all(c < deg_geo for c in counts),
            "samples": [
                {"point": [u0.real, u0.imag, v0.real, v0.imag], "count": c}
                for (u0, v0), c in zip(pts, counts)
            ],
        })
    return verdicts


# --------------------------------------------------------------------------
# critical values

def _line_image_factors(F, d_poly, var):
    """Factors in (u, v) contributed by critical lines {var = r} for the
    numerically-found roots r of the univariate content d_poly.  Point images
    are dropped; a line image u - c or v - c requires an exact Gaussian-integer
    root (else reported as degenerate)."""
    factors = []
    if d_poly.is_constant():
        return factors
    roots = Slice(d_poly._with_vars((var,)), var).exact_roots(())
    if roots is None:
        raise ExceptionalError("degenerate content in critical-value elimination")
    other = "y" if var == "x" else "x"
    along = [Slice(comp, other) for comp in (F.p, F.q)]
    for r, _ in cluster_roots(roots, tol=1e-8):
        # image of the line var = r, parametrized by the other variable: a
        # coordinate is constant along it when its slice has no root
        imgs = []
        for sl in along:
            ys = sl.roots([r], SAMPLE_ZERO_REL)[0]
            imgs.append(ys is None or len(ys) == 0)
        if imgs[0] and imgs[1]:
            continue  # both coordinates constant along the line: point image
        for const_here, target in ((imgs[0], "u"), (imgs[1], "v")):
            if not const_here:
                continue
            comp = F.p if target == "u" else F.q
            rr = complex(r)
            cand = GaussianRational(round(rr.real), round(rr.imag))
            ev = d_poly.evaluate({var: cand})
            ev_nonzero = not ev.is_zero() if isinstance(ev, Poly) else bool(ev)
            if abs(complex(cand) - rr) > LATTICE_ROOT_TOL or ev_nonzero:
                raise ExceptionalError(
                    "critical line at a non-lattice root; elimination degenerates"
                )
            val = comp.evaluate({var: cand, other: GR_ZERO})
            # the image line is {target = comp(cand, 0)}
            factors.append(Poly(UV, {(1, 0) if target == "u" else (0, 1): GaussianRational(1)})
                           - Poly.const(val, UV))
    return factors


def _eliminate_order(F, pp, first):
    """Eliminate `first` then the other variable from {P-u, Q-v, pp}, where pp
    contains no full-line components.  Returns a (u,v) curve poly or None."""
    second = "x" if first == "y" else "y"
    p, q = _shifted_components(F)
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
    return squarefree_part(e)._with_vars(UV)


def critical_values(F):
    """Image of the critical locus {JF = 0}.

    Full lines inside the locus are split off exactly (axis contents of the
    square-free Jacobian) and their images handled directly; the remaining
    primitive part goes through iterated-resultant elimination in both
    variable orders, reconciled by a gcd to kill order-specific spurious
    factors."""
    jf = jacobian(F)
    if jf.is_zero():
        raise ExceptionalError("Jacobian vanishes identically")
    jsf = squarefree_part(jf)
    if jsf.is_constant():
        return _empty_curve(["critical-value"])
    line_factors = []
    pp = jsf
    for var in ("x", "y"):
        # the content in the other variable is a polynomial in `var` whose
        # roots r are exactly the full lines {var = r} inside {pp = 0}
        cont, pp = cont_pp_static(pp, "y" if var == "x" else "x")
        line_factors.extend(_line_image_factors(F, cont, var))
    curves = []
    if not pp.is_constant():
        for first in ("y", "x"):
            e = _eliminate_order(F, pp, first)
            if e is not None:
                curves.append(e)
    if curves:
        g = curves[0]
        for c in curves[1:]:
            g = poly_gcd(g, c)
        g = squarefree_part(g) if not g.is_constant() else Poly.const(1, UV)
    else:
        g = Poly.const(1, UV)
    for lf in line_factors:
        if not divides(lf, g):
            g = g * lf
    if g.is_constant():
        return _empty_curve(["critical-value"])
    return PlaneCurveSet(g, ["critical-value"],
                         [("critical-value", g.monic()._with_vars(UV))])


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


def exceptional_report(F, samples=5, seed=0, trials=3, tol=1e-9):
    """Run each stage once: candidates and critical values, the degree with
    their product as its avoid locus, then the certification verdicts.  A_F
    is the square-free product of the confirmed non-proper components and
    the critical-value components, with provenance."""
    if jacobian(F).is_zero():
        raise ExceptionalError("map is not dominant")
    cand = nonproper_candidates(F)
    crit = critical_values(F)
    degree = topological_degree(F, trials=trials, seed=seed + 1, tol=tol,
                                avoid=cand.defining * crit.defining)
    verdicts = certify_nonproper(F, cand, samples=samples, seed=seed,
                                 deg_geo=degree.deg_geo)
    product = Poly.const(1, UV)
    provenance = []
    comps = []
    for v, (tag, comp) in zip(verdicts, cand.component_polys):
        if v["confirmed"]:
            product = product * comp
            provenance.append("nonproper-candidate")
            comps.append((tag, comp))
    if not crit.is_empty():
        product = product * crit.defining
        provenance.append("critical-value")
        comps.extend(crit.component_polys)
    if product.is_constant():
        curve = _empty_curve(provenance)
    else:
        curve = PlaneCurveSet(product, provenance, comps)
    return ExceptionalReport(cand, crit, degree, verdicts, curve)


def exceptional_set(F, samples=5, seed=0):
    """A_F: the curve of ``exceptional_report``."""
    return exceptional_report(F, samples, seed).curve


def line_intersections(curve, k):
    """Complex v-roots (with multiplicities) of defining(k, v): the
    intersection of the vertical line {u = k} with the curve.

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
    clustered = cluster_roots(curve.v_slice.exact_roots([kq]), tol=1e-7)
    return {
        "k": str(k),
        "roots": [
            {"v": [rep.real, rep.imag], "multiplicity": m} for rep, m in clustered
        ],
        "count": len(clustered),
    }
