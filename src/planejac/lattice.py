"""Lattice fibers and curve-distance metrics: enumeration of ring points on
fibers P = k, the metrics Dist (certified upper bounds) and d-hat (exact
numeric over finite root sets), inequality sweeps over lattice boxes, fiber
count bounds, the unit-disk lattice fact, and the Laurent identities of the
canonical non-invertible example.

Lattices are Z + Z*i*sqrt(m) for square-free m >= 1; m = 1 is the Gaussian
integers.  Fiber membership is verified exactly, in plain-int arithmetic of
Z[i][T]/(T^2 + m); the metrics work over C with a fixed 1e-9 comparison
tolerance.  ``Slice`` is the metrics' numeric slicer: it compiles the
curve's defining polynomial in one variable once per sweep and specializes
it at all targets together, with one zero rule for the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianRational, lattice_point
from .poly import Poly
from .roots import find_roots_grouped

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
        m = self.ring_m
        if m < 1 or any(m % (p * p) == 0 for p in range(2, math.isqrt(m) + 1)):
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
#: the 3x3 lattice neighbourhood of a rounded root
_NEIGHBOURS = np.array([(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)]).T
_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def _ring_mul_add(s, t, c, m):
    """s*t + c in Z[i][T]/(T^2 + m), an element u + v*T being the ints
    (Re u, Im u, Re v, Im v): (u + v*T)(u' + v'*T) = (u*u' - m*v*v') + (u*v' + v*u')*T."""
    ur, ui, vr, vi = s
    xr, xi, yr, yi = t
    return (c[0] + ur * xr - ui * xi - m * (vr * yr - vi * yi),
            c[1] + ur * xi + ui * xr - m * (vr * yi + vi * yr),
            c[2] + ur * yr - ui * yi + vr * xr - vi * xi,
            c[3] + ur * yi + ui * yr + vr * xi + vi * xr)


def _ring_is_zero(s, m):
    """Exact test u + v*T = 0 at T = i*sqrt(m): u + v*i = 0 for m = 1; for
    square-free m > 1, 1, i, T and i*T are linearly independent over Q."""
    return (s[0] == s[3] and s[1] == -s[2]) if m == 1 else not any(s)


def _ring_horner(cs, t, m):
    """The polynomial with descending ring coefficients cs at t."""
    acc = _ZERO
    for c in cs:
        acc = _ring_mul_add(acc, t, c, m)
    return acc


def enumerate_fiber_points(P, k, box):
    """All box points (x, y) of the lattice with P(x, y) = k.  With k = n/d,
    the slices d*P(x, .) - n of every box x, a + b*i*sqrt(m) = (a, 0, b, 0),
    are built exactly in the ring from the powers of x and solved together,
    one batch per degree; a candidate y is kept only when Horner's rule on
    its slice gives exactly 0.  Slices that vanish identically are recorded
    on the line_fiber flag with the formulaic (2B+1)^2 count."""
    if P.is_laurent() or not P.has_gaussian_integer_coeffs():
        raise ValueError("fiber polynomial must be non-Laurent with Gaussian-integer coefficients")
    kq = GaussianRational.coerce(k)
    m, sq = box.ring_m, math.sqrt(box.ring_m)
    f = P._with_vars(("x", "y")) * kq.d - kq * kq.d
    top, dx = f.degree_in("y") or 0, f.degree_in("x") or 0
    terms = [(top - ey, ex, (c.a, c.b, 0, 0)) for (ex, ey), c in f.terms.items()]
    xs, slices, line_xs = [], [], []
    for ax, bx in box.coords():
        pw = [_ONE]
        for _ in range(dx):
            pw.append(_ring_mul_add(pw[-1], (ax, 0, bx, 0), _ZERO, m))
        cs = [_ZERO] * (top + 1)
        for j, e, c in terms:
            cs[j] = _ring_mul_add(c, pw[e], cs[j], m)
        lead = next((j for j, c in enumerate(cs) if not _ring_is_zero(c, m)), None)
        if lead is None:  # P(x, .) = k identically
            line_xs.append([ax, bx])
        elif lead < top:
            xs.append((ax, bx))
            slices.append(cs[lead:])
    C = np.zeros((len(slices), top + 1), dtype=np.complex128)
    for row, cs in zip(C, slices):
        row[top + 1 - len(cs):] = [complex(ur - vi * sq, ui + vr * sq) for ur, ui, vr, vi in cs]
    roots, counts = find_roots_grouped(C)
    # candidates: the lattice neighbours of each root within ROUND_RADIUS
    owner = np.repeat(np.arange(len(slices)), counts)
    a = np.rint(roots.real)[:, None] + _NEIGHBOURS[0]
    b = np.rint(roots.imag / sq)[:, None] + _NEIGHBOURS[1]
    keep = ((np.hypot(a - roots.real[:, None], b * sq - roots.imag[:, None]) <= ROUND_RADIUS)
            & (np.abs(a) <= box.bound) & (np.abs(b) <= box.bound))
    cands = set(zip(np.broadcast_to(owner[:, None], a.shape)[keep].tolist(),
                    a[keep].astype(int).tolist(), b[keep].astype(int).tolist()))
    pts = sorted((xs[i], (ya, yb)) for i, ya, yb in cands
                 if _ring_is_zero(_ring_horner(slices[i], (ya, 0, yb, 0), m), m))
    line = {"x_values": sorted(line_xs), "count_each": box.side() ** 2} if line_xs else None
    return FiberPointSet(k=k, points=pts, exhausted_box=box, line_fiber=line)


def brute_force_fiber_points(P, k, box):
    """(2B+1)^4 oracle for tests: exact evaluation at every pair."""
    kq = GaussianRational.coerce(k)
    m = box.ring_m
    pts = []
    for ax, bx in box.coords():
        xq = lattice_point(ax, bx, m)
        for ay, by in box.coords():
            yq = lattice_point(ay, by, m)
            if P.evaluate({"x": xq, "y": yq}).equals_gaussian(kq):
                pts.append(((ax, bx), (ay, by)))
    pts.sort()
    return pts


# --------------------------------------------------------------------------
# metrics

#: numeric zero rule of the slices: a specialized coefficient c with
#: |c| <= SLICE_ZERO_REL * max(1, bound) is zero
SLICE_ZERO_REL = 1e-12


class Slice:
    """A polynomial f viewed in one free variable, compiled once and
    specialized numerically at many values of the other (fixed) variable,
    if any.

    A[i, j] is the complex coefficient of free^(top-i) * fixed^j.  |A| gives
    each specialized coefficient a roundoff bound, the sum of its absolute
    monomial values, so a coefficient is numerically zero only relative to
    the cancellation that produced it."""

    def __init__(self, f, free):
        if f.is_laurent():
            raise ValueError("slicing needs a non-Laurent polynomial")
        if len(f.vars) > 2:
            raise ValueError("a slice fixes at most one variable")
        cs = f.coeffs_in(free)
        top = max(cs, default=0)
        width = max((sum(e) for c in cs.values() for e in c.terms), default=0) + 1
        self.A = np.zeros((top + 1, width), dtype=np.complex128)
        for d, c in cs.items():
            for exps, a in c.terms.items():
                self.A[top - d, sum(exps)] += complex(a)
        self.absA = np.abs(self.A)

    def numeric(self, values):
        """Descending slice coefficients (n, top+1) at n complex values of the
        fixed variable, and their roundoff bounds."""
        t = np.asarray(values, dtype=np.complex128).reshape(-1)
        powers = np.ones((t.shape[0], self.A.shape[1]), dtype=np.complex128)
        for e in range(1, self.A.shape[1]):
            powers[:, e] = powers[:, e - 1] * t
        return powers @ self.A.T, np.abs(powers) @ self.absA.T

    def flat_roots(self, values):
        """``find_roots_grouped`` of f at n complex points, where a
        coefficient c with |c| <= SLICE_ZERO_REL * max(1, bound) is
        numerically zero: all roots in row order, and each row's count
        (-1: all zero)."""
        c, b = self.numeric(values)
        return find_roots_grouped(c, ~(np.abs(c) <= SLICE_ZERO_REL * np.maximum(1.0, b)))


def dhat(q, curve):
    """``dhat_batch`` of the one target q."""
    return dhat_batch([q], curve)[0]


def dist_upper_bound(q, curve, refinement=30):
    """``dist_upper_bound_batch`` of the one target q."""
    return dist_upper_bound_batch([q], curve, refinement)[0]


def _metric_values(vals, ws, kind):
    """MetricValues of n values and (n, 2) witnesses; no witness where infinite."""
    return [MetricValue(value=float(v), kind=kind,
                        witness=None if math.isinf(v) else tuple(map(complex, w)))
            for v, w in zip(vals, ws)]


def _first_min(vals, owner):
    """Index of the first minimal entry of vals for each owner present;
    owner is nondecreasing."""
    order = np.lexsort((vals, owner))  # stable: the first of equals leads
    return order[np.diff(owner[order], prepend=-1) != 0]


def _nearest_roots(sl, q, j):
    """For each target row of q: the root of ``sl`` at the other coordinate
    nearest to q[:, j] (the first of equals) and its distance; q[:, j] and 0
    where the slice vanishes, NaN and inf where it has no root."""
    roots, counts = sl.flat_roots(q[:, 1 - j])
    owner = np.repeat(np.arange(len(q)), np.maximum(counts, 0))
    i = _first_min(np.abs(roots - q[owner, j]), owner)
    e = roots[i] - q[owner[i], j]
    dist = np.where(counts < 0, 0.0, math.inf)
    near = np.where(counts < 0, q[:, j], np.nan)
    # hypot is the scalar abs(); np.abs of complex arrays can differ in the last bit
    dist[owner[i]], near[owner[i]] = np.hypot(e.real, e.imag), roots[i]
    return near, dist


def dhat_batch(qs, curve):
    """d-hat(q, V) = max( min{|q1 - u| : (u, q2) in V},
                          min{|q2 - v| : (q1, v) in V} )
    at each target q of qs, with the empty-set convention min{} = +inf.
    Exact-numeric: both minima range over complete finite root sets, which
    are solved for all targets in one grouped call per slice direction."""
    if curve.is_empty():
        raise ValueError("d-hat requires a nonempty curve")
    q = np.asarray(qs, dtype=np.complex128).reshape(-1, 2)
    u, m_u = _nearest_roots(Slice(curve.defining, "u"), q, 0)
    v, m_v = _nearest_roots(Slice(curve.defining, "v"), q, 1)
    pick = m_u >= m_v
    w = np.where(pick[:, None], np.column_stack([u, q[:, 1]]), np.column_stack([q[:, 0], v]))
    return _metric_values(np.where(pick, m_u, m_v), w, "dhat-exact-numeric")


#: the 8 unit directions of a descent step
_DIRECTIONS = np.array([complex(math.cos(2 * math.pi * j / 8), math.sin(2 * math.pi * j / 8))
                        for j in range(8)])


def _descend(in_v, q, u0, owner, best_val, best_w):
    """Every root of the slices {u = u0} of ``in_v``, the curve as a Slice in
    v, is a candidate witness for target owner; a target's best is replaced
    only by a strictly closer candidate, the first of equals."""
    vs, counts = in_v.flat_roots(u0)
    reps = np.where(counts < 0, 1, counts)  # -1: the whole line {u = u0} is in the curve
    own = np.repeat(owner, reps)
    U, V = np.repeat(u0, reps), q[own, 1]
    V[np.repeat(counts >= 0, reps)] = vs
    vals = np.maximum(np.abs(q[own, 0] - U), np.abs(q[own, 1] - V))
    i = _first_min(vals, own)
    i = i[vals[i] < best_val[own[i]]]
    best_val[own[i]] = vals[i]
    best_w[own[i]] = np.column_stack([U[i], V[i]])


def dist_upper_bound_batch(qs, curve, refinement=30):
    """Certified upper bound on Dist(q, V) = inf over curve points of the
    coordinate-max distance, at each target q of qs: best of all slice-root
    witnesses plus a shrinking-radius descent along the curve (8 directions
    per step).  Each step is one grouped solve over all targets.  The
    returned witnesses lie on the curve to 1e-9."""
    if curve.is_empty():
        raise ValueError("Dist bound requires a nonempty curve")
    q = np.asarray(qs, dtype=np.complex128).reshape(-1, 2)
    in_u, in_v = Slice(curve.defining, "u"), Slice(curve.defining, "v")
    best_val = np.full(len(q), math.inf)
    best_w = np.full((len(q), 2), np.nan, dtype=np.complex128)
    # slice witnesses in both directions: each target's q1, then its u-roots
    us, counts = in_u.flat_roots(q[:, 1])
    on_line = counts < 0  # the line {v = q2} lies in the curve: q is on it
    best_val[on_line], best_w[on_line] = 0.0, q[on_line]
    pts = np.flatnonzero(~on_line)
    k = counts[pts]
    _descend(in_v, q, np.insert(us, np.cumsum(k) - k, q[pts, 0]), np.repeat(pts, k + 1),
             best_val, best_w)
    # local descent: perturb the u-coordinate of each best witness; the base
    # is fixed within a step, so its 8 directions are solved together
    pts = pts[best_val[pts] < math.inf]
    radius = np.maximum(best_val[pts], 0.5)
    for _ in range(refinement):
        u0 = best_w[pts, 0, None] + radius[:, None] * _DIRECTIONS
        _descend(in_v, q, u0.ravel(), np.repeat(pts, 8), best_val, best_w)
        radius *= 0.65
    return _metric_values(best_val, best_w, "dist-upper-bound")


# --------------------------------------------------------------------------
# box sweeps

def _box_images(F, box):
    """The points (a, b, c, e) of box x box in sweep order, and their images
    under F as complex pairs."""
    ps = [(a, b, c, e) for a, b in box.coords() for c, e in box.coords()]
    return ps, [tuple(map(complex, F.evaluate(box.to_complex(a, b), box.to_complex(c, e))))
                for a, b, c, e in ps]


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
    ps, qs = _box_images(F, box)
    mvs = dist_upper_bound_batch(qs, curve, refinement)
    for (a, b, c, e), mv in zip(ps, mvs):
        max_bound = max(max_bound, mv.value)
        if mv.value > 1 + tol:
            unconfirmed.append({"p": [a, b, c, e], "bound": mv.value,
                                "witness": mv.to_json()["witness"]})
        if (a == 0 and b == 0) or (c == 0 and e == 0):
            axis_values.append({"p": [a, b, c, e], "bound": mv.value})
    return {
        "checked": len(ps),
        "confirmed": len(ps) - len(unconfirmed),
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
    ps, qs = _box_images(F, box)
    mvs = dhat_batch(qs, curve)
    violations = [{
        "p": list(p),
        "value": None if math.isinf(mv.value) else mv.value,
        "infinite": math.isinf(mv.value),
        "witness": mv.to_json()["witness"],
    } for p, mv in zip(ps, mvs) if mv.value > 1 + tol]
    finite = [mv.value for mv in mvs if not math.isinf(mv.value)]
    return {
        "checked": len(ps),
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
