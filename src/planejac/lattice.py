"""Lattice fibers and curve-distance metrics: enumeration of ring points on
fibers P = k, the metrics Dist (certified upper bounds) and d-hat (exact
numeric over finite root sets), inequality sweeps over lattice boxes, fiber
count bounds, the unit-disk lattice fact, and the Laurent identities of the
canonical non-invertible example.

Lattices are Z + Z*i*sqrt(m) for square-free m >= 1; m = 1 is the Gaussian
integers.  Fiber membership is verified exactly in the compositum ring; the
metrics work over C with a fixed 1e-9 comparison tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianInt, GaussianRational, lattice_point
from .poly import Poly, PolyMap
from .exceptional import PlaneCurveSet
from .roots import SLICE_ZERO_REL, RootFindingError, Slice, find_roots

#: tolerance on all <= 1 comparisons; the quantities of interest sit far away
VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class LatticeBox:
    """The points a + b*i*sqrt(m) with |a|, |b| <= bound."""

    bound: int
    ring_m: int = 1

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("box bound must be positive")
        if self.ring_m < 1:
            raise ValueError("ring parameter must be a positive square-free integer")

    def side(self):
        return 2 * self.bound + 1

    def coords(self):
        b = self.bound
        for a in range(-b, b + 1):
            for c in range(-b, b + 1):
                yield (a, c)

    def contains_coords(self, a, b):
        return abs(a) <= self.bound and abs(b) <= self.bound

    def to_complex(self, a, b):
        return complex(a, b * math.sqrt(self.ring_m))

    def to_json(self):
        return {"B": self.bound, "m": self.ring_m}


@dataclass
class FiberPointSet:
    """Ring points on {P = k} inside a box, exactly verified and sorted
    lexicographically by (Re x, Im x, Re y, Im y)."""

    k: object
    points: list  # [((ax, bx), (ay, by)), ...]
    exhausted_box: LatticeBox
    line_fiber: dict | None = None  # {"x_values": [...], "count_each": n}

    def count(self):
        n = len(self.points)
        if self.line_fiber:
            n += len(self.line_fiber["x_values"]) * self.line_fiber["count_each"]
        return n

    def to_json(self):
        return {
            "k": str(self.k),
            "box": self.exhausted_box.to_json(),
            "count": self.count(),
            "points": [[ax, bx, ay, by] for (ax, bx), (ay, by) in self.points],
            "line_fiber": self.line_fiber,
        }


@dataclass
class MetricValue:
    value: float  # nonnegative, may be math.inf
    witness: tuple | None  # curve point (u, v) as complex pair
    kind: str  # "dist-upper-bound" | "dhat-exact-numeric"

    def to_json(self):
        return {
            "value": None if math.isinf(self.value) else self.value,
            "infinite": math.isinf(self.value),
            "witness": None if self.witness is None else
                [self.witness[0].real, self.witness[0].imag,
                 self.witness[1].real, self.witness[1].imag],
            "kind": self.kind,
        }


# --------------------------------------------------------------------------
# fiber enumeration

#: candidate rounding radius: roots are located to ~1e-9, so every lattice
#: point within 0.5 of a true root lies within 0.51 of the computed one
ROUND_RADIUS = 0.51


def enumerate_fiber_points(P, k, box):
    """All box points (x, y) of the lattice with P(x, y) = k, verified by
    exact evaluation; degenerate slices where P(x, .) - k vanishes identically
    are recorded on the line_fiber flag with the formulaic (2B+1)^2 count."""
    if P.is_laurent() or not P.has_gaussian_integer_coeffs():
        raise ValueError("fiber polynomial must be non-Laurent with Gaussian-integer coefficients")
    kq = GaussianRational.coerce(k)
    m = box.ring_m
    sq = math.sqrt(m)
    in_y = Slice(P, "y")
    pts = []
    line_xs = []
    for ax, bx in box.coords():
        xq = lattice_point(ax, bx, m)
        coeffs = in_y.exact([xq], shift=kq)
        if coeffs is None:  # P(x, .) = k identically
            line_xs.append([ax, bx])
            continue
        if len(coeffs) == 1:
            continue
        cl = [complex(c) for c in coeffs]
        try:
            roots = find_roots(cl)
        except RootFindingError:
            # fall back to numpy's companion-matrix roots; candidates are
            # still verified exactly afterwards
            roots = np.roots(cl)
        cands = set()
        for r in roots:
            a0 = round(r.real)
            b0 = round(r.imag / sq)
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    a, b = a0 + da, b0 + db
                    if abs(complex(a, (b) * sq) - r) <= ROUND_RADIUS and box.contains_coords(a, b):
                        cands.add((a, b))
        for a, b in sorted(cands):
            yq = lattice_point(a, b, m)
            val = P.evaluate({"x": xq, "y": yq})
            if _elem_equals(val, kq, m):
                pts.append(((ax, bx), (a, b)))
    pts.sort()
    line = None
    if line_xs:
        line = {"x_values": sorted(line_xs), "count_each": box.side() ** 2}
    return FiberPointSet(k=k, points=pts, exhausted_box=box, line_fiber=line)


def _elem_equals(val, kq, m):
    """Exact equality of a ring evaluation against a Gaussian-rational k."""
    if hasattr(val, "equals_gaussian"):
        if not kq.is_gaussian_integer() and m != 1:
            return False
        return val.equals_gaussian(kq.num) if kq.is_gaussian_integer() else False
    return val == kq


def brute_force_fiber_points(P, k, box):
    """(2B+1)^4 oracle for tests: exact evaluation at every pair."""
    kq = GaussianRational.coerce(k)
    m = box.ring_m
    pts = []
    for ax, bx in box.coords():
        xq = lattice_point(ax, bx, m)
        for ay, by in box.coords():
            yq = lattice_point(ay, by, m)
            if _elem_equals(P.evaluate({"x": xq, "y": yq}), kq, m):
                pts.append(((ax, bx), (ay, by)))
    pts.sort()
    return pts


# --------------------------------------------------------------------------
# metrics

def dhat(q, curve, tol=VIOLATION_TOL):
    """d-hat(q, V) = max( min{|q1 - u| : (u, q2) in V},
                          min{|q2 - v| : (q1, v) in V} ),
    with the empty-set convention min{} = +inf.  Exact-numeric: both minima
    range over complete finite root sets."""
    if curve.is_empty():
        raise ValueError("d-hat requires a nonempty curve")
    q1, q2 = complex(q[0]), complex(q[1])
    us = curve.u_slice.roots([q2], SLICE_ZERO_REL)[0]
    vs = curve.v_slice.roots([q1], SLICE_ZERO_REL)[0]
    if us is None:  # the line {v = q2} lies in the curve: q is on it
        m_u, w_u = 0.0, (q1, q2)
    elif len(us) == 0:
        m_u, w_u = math.inf, None
    else:
        i = int(np.argmin(np.abs(us - q1)))
        m_u, w_u = abs(us[i] - q1), (complex(us[i]), q2)
    if vs is None:
        m_v, w_v = 0.0, (q1, q2)
    elif len(vs) == 0:
        m_v, w_v = math.inf, None
    else:
        i = int(np.argmin(np.abs(vs - q2)))
        m_v, w_v = abs(vs[i] - q2), (q1, complex(vs[i]))
    if m_u >= m_v:
        return MetricValue(value=m_u, witness=w_u, kind="dhat-exact-numeric")
    return MetricValue(value=m_v, witness=w_v, kind="dhat-exact-numeric")


#: the 8 unit directions of a descent step
_DIRECTIONS = np.array([complex(math.cos(2 * math.pi * j / 8), math.sin(2 * math.pi * j / 8))
                        for j in range(8)])


def dist_upper_bound(q, curve, refinement=30):
    """Certified upper bound on Dist(q, V) = inf over curve points of the
    coordinate-max distance: best of all slice-root witnesses plus a
    shrinking-radius descent along the curve (8 directions per step).  The
    returned witness lies on the curve to 1e-9."""
    if curve.is_empty():
        raise ValueError("Dist bound requires a nonempty curve")
    q1, q2 = complex(q[0]), complex(q[1])
    best_val, best_w = math.inf, None

    def consider(u0s):
        # every root of the slices {u = u0}, in order; a witness replaces the
        # best only when strictly closer, so the first of equals wins
        nonlocal best_val, best_w
        vs = [q2 if r is None else r  # None: the whole line {u = u0} is in the curve
              for r in curve.v_slice.roots(u0s, SLICE_ZERO_REL)]
        U = np.repeat(u0s, [np.size(r) for r in vs])
        if U.size == 0:
            return
        V = np.hstack(vs)
        vals = np.maximum(np.abs(q1 - U), np.abs(q2 - V))
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_w = float(vals[i]), (complex(U[i]), complex(V[i]))

    # slice witnesses in both directions
    us = curve.u_slice.roots([q2], SLICE_ZERO_REL)[0]
    if us is None:
        return MetricValue(value=0.0, witness=(q1, q2), kind="dist-upper-bound")
    consider(np.concatenate([[q1], us]))
    # local descent: perturb the u-coordinate of the best witness; the base
    # is fixed within a step, so its 8 directions are solved together
    radius = max(best_val, 0.5) if best_val < math.inf else 1.0
    for _ in range(refinement):
        if best_w is None:
            break
        consider(best_w[0] + radius * _DIRECTIONS)
        radius *= 0.65
    return MetricValue(value=best_val, witness=best_w, kind="dist-upper-bound")


# --------------------------------------------------------------------------
# box sweeps

def _map_image(F, a, b, c, e, box):
    x0 = box.to_complex(a, b)
    y0 = box.to_complex(c, e)
    return (complex(F.p.evaluate({"x": x0, "y": y0})),
            complex(F.q.evaluate({"x": x0, "y": y0})))


def verify_dist_inequality(F, curve, box, refinement=30, tol=VIOLATION_TOL):
    """Sweep the box and certify Dist(F(p), curve) <= 1 by upper bound.
    Points whose bound exceeds 1 + tol are reported 'unconfirmed' -- an
    upper-bound failure is not a disproof."""
    if curve.is_empty():
        return {
            "checked": 0, "confirmed": 0, "unconfirmed": [],
            "empty_curve": True,
            "note": "curve empty - invertible case, nothing to verify",
        }
    unconfirmed = []
    axis_values = []
    max_bound = 0.0
    checked = 0
    for a, b in box.coords():
        for c, e in box.coords():
            q = _map_image(F, a, b, c, e, box)
            mv = dist_upper_bound(q, curve, refinement=refinement)
            checked += 1
            max_bound = max(max_bound, mv.value)
            if mv.value > 1 + tol:
                unconfirmed.append({"p": [a, b, c, e], "bound": mv.value,
                                    "witness": mv.to_json()["witness"]})
            if (a == 0 and b == 0) or (c == 0 and e == 0):
                axis_values.append({"p": [a, b, c, e], "bound": mv.value})
    return {
        "checked": checked,
        "confirmed": checked - len(unconfirmed),
        "unconfirmed": unconfirmed,
        "max_bound": max_bound,
        "axis_points": axis_values,
        "empty_curve": False,
        "tolerance": tol,
    }


def verify_dhat_inequality(F, curve, box, tol=VIOLATION_TOL):
    """Exact-numeric d-hat at every box point; violations are d-hat > 1 + tol."""
    if curve.is_empty():
        return {
            "checked": 0, "violations": [],
            "empty_curve": True,
            "note": "no curve - nothing to verify (invertible case)",
        }
    violations = []
    checked = 0
    values = []
    for a, b in box.coords():
        for c, e in box.coords():
            q = _map_image(F, a, b, c, e, box)
            mv = dhat(q, curve)
            checked += 1
            values.append(mv.value)
            if mv.value > 1 + tol:
                violations.append({
                    "p": [a, b, c, e],
                    "value": None if math.isinf(mv.value) else mv.value,
                    "infinite": math.isinf(mv.value),
                    "witness": mv.to_json()["witness"],
                })
    finite = [v for v in values if not math.isinf(v)]
    return {
        "checked": checked,
        "violations": violations,
        "max_finite_value": max(finite) if finite else None,
        "empty_curve": False,
        "tolerance": tol,
    }


# --------------------------------------------------------------------------
# count bounds and the disk fact

def fiber_count_bounds(F, deg_geo, curve):
    """The two fiber-count bounds: 5 * deg_geo * deg(curve), and
    5 * deg_geo * deg P * (g - 1)/g with g = gcd(deg P, deg Q)."""
    g = F.deg_gcd
    if not g:
        raise ValueError("gcd of component degrees is zero (constant component)")
    bound4 = 5 * deg_geo * curve.degree
    bound5 = 5 * deg_geo * F.deg_p * (g - 1) / g
    return bound4, bound5


def unit_disk_lattice_count(center, tol=VIOLATION_TOL):
    """Number of points of {center1} x Z[i] in the disk of radius 1 around
    center (the disk varies only in the second coordinate): 0 unless the
    first coordinate is itself a Gaussian integer."""
    c1, c2 = complex(center[0]), complex(center[1])
    if abs(c1.real - round(c1.real)) > tol or abs(c1.imag - round(c1.imag)) > tol:
        return 0
    a0, b0 = round(c2.real), round(c2.imag)
    n = 0
    for da in range(-2, 3):
        for db in range(-2, 3):
            if abs(complex(a0 + da, b0 + db) - c2) <= 1 + tol:
                n += 1
    return n


# --------------------------------------------------------------------------
# Laurent identities of the canonical example

def laurent_identity_check(F, s=None):
    """Exact residuals (s^2 - (xy)^-2 - P, s^3 - (xy)^-3 - Q) for
    s = x^3 y^2 + (xy)^-1.  Zero residuals certify the closed forms; a
    nonzero residual pinpoints a mismatched component."""
    V = ("x", "y")
    if s is None:
        s = Poly(V, {(3, 2): GaussianRational(1), (-1, -1): GaussianRational(1)})
    inv2 = Poly(V, {(-2, -2): GaussianRational(1)})
    inv3 = Poly(V, {(-3, -3): GaussianRational(1)})
    r_p = s * s - inv2 - F.p._with_vars(V)
    r_q = s * s * s - inv3 - F.q._with_vars(V)
    return r_p, r_q
