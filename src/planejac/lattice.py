"""Lattice fibers and curve-distance metrics: enumeration of ring points on
fibers P = k, the metrics Dist (upper bounds: the max-distance to numeric
curve points) and d-hat (exact numeric over finite root sets), inequality
sweeps over lattice boxes, fiber count bounds, the unit-disk lattice fact,
and the Laurent closed forms of the canonical example, as polynomial identities.

Lattices are Z + Z*i*sqrt(m) for square-free m >= 1; m = 1 is the Gaussian
integers.  Fibers are exact: P - k is evaluated in integer arithmetic of
Z[i][T]/(T^2 + m) at the box pairs inside a root bound, and no root is
solved; the metrics work over C with a fixed 1e-9 comparison tolerance.  ``Slice`` is
the metrics' numeric slicer: it compiles the curve's defining polynomial in
one variable once per sweep and specializes it at all targets together,
with one zero rule for the coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import VIOLATION_TOL
from .gaussian import GaussianRational, lattice_point
from .poly import Poly, exact_div
from .roots import find_roots_grouped


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

    @classmethod
    def first(cls, vals, ws, kind):
        """The MetricValue of the first row of a batch's values and
        witnesses; no witness where the value is infinite."""
        value = float(vals[0])
        return cls(value, None if math.isinf(value) else tuple(map(complex, ws[0])), kind)


# --------------------------------------------------------------------------
# fiber enumeration

#: pairs of box points held at once by the fiber evaluation
_FIBER_BLOCK = 1 << 16
#: relative margin of the fibers' log-domain root bound, far above its rounding
_LOG_MARGIN = 1e-12


@functools.lru_cache(maxsize=8)
def _box_powers(box, top):
    """The powers t^k = A + B*i*sqrt(m), k = 0..top, of the box's values t
    in box order, as two exact (n, top + 1) object arrays of ints, and
    M[k] = max |A[:, k]| + |B[:, k]|.  Cached per (box, top), so the three
    arrays are read-only."""
    a, b = np.array(list(box.coords()), dtype=object).T
    A = np.zeros((len(a), top + 1), dtype=object)
    B = np.zeros_like(A)
    A[:, 0] = 1
    for k in range(top):
        A[:, k + 1] = A[:, k] * a - box.ring_m * B[:, k] * b
        B[:, k + 1] = A[:, k] * b + B[:, k] * a
    M = (np.abs(A) + np.abs(B)).max(axis=0)
    for X in (A, B, M):
        X.flags.writeable = False
    return A, B, M


def _ring_is_zero(z, m):
    """Elementwise exact test u + v*T = 0 at T = i*sqrt(m) of elements of
    Z[i][T]/(T^2 + m) stacked as z = (Re u, Im u, Re v, Im v): u + v*i = 0
    for m = 1; for square-free m > 1, 1, i, T and i*T are linearly
    independent over Q."""
    return (z[0] == z[3]) & (z[1] == -z[2]) if m == 1 else (z == 0).all(axis=0)


def _log_abs(a):
    """log|a| elementwise, -inf at 0, of int64s or of Python ints of any size."""
    if a.dtype == object:
        return np.array([math.log(abs(v)) if v else -math.inf for v in a.flat]).reshape(a.shape)
    return np.log(np.abs(a.astype(float)), out=np.full(a.shape, -math.inf), where=a != 0)


def _log_norm(s, m, lower=False):
    """A bound on log|s|^2 = log(P + Q*sqrt(m)), P and Q ints, of ring elements
    s = (Re u, Im u, Re v, Im v) at T = i*sqrt(m), -inf at 0.  Exact for m = 1,
    from the ints Re u - Im v and Im u + Re v (below the partial-sum bound).
    For m > 1, (|Re u| + sqrt(m)*|Im v|)^2 + (|Im u| + sqrt(m)*|Re v|)^2, or
    with `lower`, for Q < 0, the exact norm P^2 - m*Q^2 over P + |Q|*sqrt(m)."""
    if m == 1:
        return np.logaddexp(2 * _log_abs(s[0] - s[3]), 2 * _log_abs(s[1] + s[2]))
    h = 0.5 * math.log(m)
    if not lower:
        ur, ui, vr, vi = map(_log_abs, s)
        return np.logaddexp(2 * np.logaddexp(ur, vi + h), 2 * np.logaddexp(ui, vr + h))
    ur, ui, vr, vi = s.astype(object)
    P, Q = ur * ur + ui * ui + m * (vr * vr + vi * vi), 2 * (ui * vr - ur * vi)
    t = np.logaddexp(_log_abs(P), _log_abs(Q) + h)  # log(P + |Q|*sqrt(m)), no cancellation
    return np.where(Q >= 0, t, _log_abs(P * P - m * Q * Q) - t)


def enumerate_fiber_points(P, k, box):
    """All box points (x, y) of the lattice with P(x, y) = k, found by exact
    evaluation of f = d*P - n, k = n/d, in Z[i][T]/(T^2 + m), a box value
    a + b*i*sqrt(m) being a + b*T, at the box y inside Fujiwara's bound
    |y| <= 2*max_{j<d} |s_j/s_d|^(1/(d-j)), s_0 halved, on the roots of the
    slice at x, T = i*sqrt(m).  The s_j(x) are the box values' power table
    times f's coefficient matrix; the x, by bound, meet the y, by |y|, in
    blocks of at most _FIBER_BLOCK pairs, in int64 when a bound on every
    partial sum is below 2^63, Python ints otherwise.  A slice of degree 0 has
    no point; one that vanishes puts x on the line_fiber flag, count (2B+1)^2."""
    if not P.has_gaussian_integer_coeffs():
        raise ValueError("fiber polynomial must have Gaussian-integer coefficients")
    kq = GaussianRational.coerce(k)
    m = box.ring_m
    f = P._with_vars(("x", "y")) * kq.d - kq * kq.d
    dx, dy = f.degree_in("x") or 0, f.degree_in("y") or 0
    A, B, M = _box_powers(box, max(dx, dy))
    C = np.zeros((2, dx + 1, dy + 1), dtype=object)  # Re, Im of the coefficient of x^i y^j
    for (i, j), c in f.terms.items():
        C[:, i, j] = c.a, c.b
    bound = (1 + m) * sum((abs(c.a) + abs(c.b)) * M[i] * M[j] for (i, j), c in f.terms.items())
    if bound < 2 ** 63:
        A, B, C = A.astype(np.int64), B.astype(np.int64), C.astype(np.int64)
    # (Re u, Im u, Re v, Im v) of the slice coefficients s_j(x) = u + v*T
    s = np.stack([X[:, :dx + 1] @ c for X in (A, B) for c in C])
    zero = _ring_is_zero(s, m)
    xs = np.flatnonzero(~zero[:, 1:].all(axis=1))
    d = dy - np.argmin(zero[xs, ::-1], axis=1)
    low = _log_norm(s[:, xs, d], m, lower=True)[:, None]
    gap = d[:, None] - np.arange(dy + 1)  # s_0 is halved: |s_0|^2 / 4
    hi = np.where(gap > 0, _log_norm(s[:, xs], m) - math.log(4) * (gap == d[:, None]), -math.inf)
    log_r2 = math.log(4) + ((hi - low) / np.maximum(gap, 1)).max(axis=1, initial=-math.inf)
    size = max(np.abs(low).max(initial=0), np.abs(hi[hi > -math.inf]).max(initial=0))
    coords = list(box.coords())
    norms = np.array([a * a + m * b * b for a, b in coords])
    ys = np.argsort(norms, kind="stable")
    keep = np.searchsorted(_log_abs(norms[ys]), log_r2 + _LOG_MARGIN * (1 + size), side="right")
    xs, keep = xs[np.argsort(keep, kind="stable")], np.sort(keep)  # how many y by |y| each x keeps
    Ay, By = A[:, :dy + 1].T[:, ys], B[:, :dy + 1].T[:, ys]
    pts, stop = [], len(xs)
    while stop:  # blocks from the largest bound down, each of at most _FIBER_BLOCK pairs
        n = keep[stop - 1]
        start = max(0, stop - max(1, _FIBER_BLOCK // n))
        ur, ui, vr, vi = s[:, xs[start:stop]]
        ay, by = Ay[:, :n], By[:, :n]
        # sum_j s_j(x) * y^j with y^j = A + B*T, in the ring
        z = np.stack([ur @ ay - m * (vr @ by), ui @ ay - m * (vi @ by),
                      ur @ by + vr @ ay, ui @ by + vi @ ay])
        ix, iy = np.nonzero(_ring_is_zero(z, m))
        pts += [(coords[i], coords[j]) for i, j in zip(xs[start + ix].tolist(), ys[iy].tolist())]
        stop = start
    line_xs = [list(coords[i]) for i in np.flatnonzero(zero.all(axis=1))]
    line_fiber = {"x_values": line_xs, "count_each": box.side() ** 2} if line_xs else None
    return FiberPointSet(k=k, points=sorted(pts), exhausted_box=box, line_fiber=line_fiber)


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
    """``dhat_batch`` of the one target q, as a MetricValue."""
    return MetricValue.first(*dhat_batch([q], curve), "dhat-exact-numeric")


def dist_upper_bound(q, curve, refinement=30):
    """``dist_upper_bound_batch`` of the one target q, as a MetricValue."""
    return MetricValue.first(*dist_upper_bound_batch([q], curve, refinement), "dist-upper-bound")


def _first_min(vals, owner):
    """Index of the first minimal entry of vals for each owner present; owner
    is nondecreasing, and NaN ranks above every number, as in a sort."""
    start = np.flatnonzero(np.diff(owner, prepend=-1))
    low = np.repeat(np.fmin.reduceat(vals, start), np.diff(start, append=len(vals)))
    at = (vals == low) | np.isnan(low)
    return np.minimum.reduceat(np.where(at, np.arange(len(vals)), len(vals)), start)


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
    are solved for all targets in one grouped call per slice direction.
    Returns the (n,) values and the (n, 2) complex witnesses (u, v), the
    slice points that attain them; a witness row is NaN where its value is
    infinite."""
    if curve.is_empty():
        raise ValueError("d-hat requires a nonempty curve")
    q = np.asarray(qs, dtype=np.complex128).reshape(-1, 2)
    u, m_u = _nearest_roots(Slice(curve.defining, "u"), q, 0)
    v, m_v = _nearest_roots(Slice(curve.defining, "v"), q, 1)
    pick = m_u >= m_v
    vals = np.where(pick, m_u, m_v)
    w = np.where(pick[:, None], np.column_stack([u, q[:, 1]]), np.column_stack([q[:, 0], v]))
    w[np.isinf(vals)] = np.nan
    return vals, w


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
    """Upper bound on Dist(q, V) = inf over curve points of the coordinate-max
    distance, at each target q of qs: the max-distance to the nearest of the
    numeric curve points tried, which are all slice roots plus a
    shrinking-radius descent along the curve (8 directions per step).  Each
    step is one grouped solve over all targets.  The curve points are
    numeric roots that passed the solver's residual test, which certifies
    nothing, so neither is the bound certified.  Returns the (n,) bounds and
    the (n, 2) complex witnesses (u, v) that attain them; a witness row is
    NaN where its bound is infinite."""
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
    return best_val, best_w


# --------------------------------------------------------------------------
# box sweeps

def _box_images(F, box):
    """The points (a, b, c, e) of box x box in sweep order, and their images
    under F, an (n, 2) complex array: T @ C @ T^T, C the coefficients of P or Q
    and T the powers t^k = A + B*i*sqrt(m) of the box's values, exact in ints."""
    ps = [(a, b, c, e) for a, b in box.coords() for c, e in box.coords()]
    top = max((max(e) for f in (F.p, F.q) for e in f.terms), default=0)
    A, B, _ = _box_powers(box, top)
    T = np.empty(A.shape, dtype=np.complex128)
    T.real, T.imag = A, B * math.sqrt(box.ring_m)
    C = np.zeros((2, top + 1, top + 1), dtype=np.complex128)
    for k, f in enumerate((F.p, F.q)):
        for (i, j), c in f.terms.items():
            C[k, i, j] = complex(c)
    return ps, (T @ C @ T.T).reshape(2, -1).T + 0.0  # + 0.0: no -0.0 parts


def _json_rows(vals, ws):
    """The (value, witness) pairs of a batch's (values, witnesses) as JSON
    values, a witness as [Re u, Im u, Re v, Im v]; (None, None) where the
    value is infinite."""
    wits = np.column_stack([ws.real, ws.imag])[:, [0, 2, 1, 3]].tolist()
    return [(None, None) if math.isinf(v) else (v, w) for v, w in zip(vals.tolist(), wits)]


def verify_dist_inequality(F, curve, box, refinement=30, tol=VIOLATION_TOL):
    """Sweep the box and confirm Dist(F(p), curve) <= 1 by upper bound.
    Points whose bound exceeds 1 + tol are reported 'unconfirmed' -- an
    upper-bound failure is not a disproof."""
    if curve.is_empty():
        return {
            "checked": 0, "confirmed": 0, "unconfirmed": [],
            "empty_curve": True,
            "note": "curve empty - invertible case, nothing to verify",
        }
    ps, qs = _box_images(F, box)
    vals, ws = dist_upper_bound_batch(qs, curve, refinement)
    rows = list(zip(ps, _json_rows(vals, ws), (vals > 1 + tol).tolist()))
    unconfirmed = [{"p": list(p), "bound": v, "witness": w} for p, (v, w), bad in rows if bad]
    axis_values = [{"p": list(p), "bound": v} for p, (v, _), _ in rows
                   if p[:2] == (0, 0) or p[2:] == (0, 0)]
    max_bound = float(vals.max(initial=0.0))
    return {
        "checked": len(ps),
        "confirmed": len(ps) - len(unconfirmed),
        "unconfirmed": unconfirmed,
        "max_bound": None if math.isinf(max_bound) else max_bound,
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
    vals, ws = dhat_batch(qs, curve)
    violations = [{"p": list(p), "value": v, "infinite": v is None, "witness": w}
                  for p, (v, w), bad in zip(ps, _json_rows(vals, ws), (vals > 1 + tol).tolist())
                  if bad]
    finite = vals[~np.isinf(vals)]
    return {
        "checked": len(ps),
        "violations": violations,
        "max_finite_value": float(finite.max()) if finite.size else None,
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
# closed forms of the canonical example

def laurent_identity_check(F):
    """Exact residuals (s^2 - (xy)^-2 - P, s^3 - (xy)^-3 - Q) for
    s = x^3 y^2 + (xy)^-1, as s^k - (xy)^-k = (t^k - 1) / (xy)^k with
    t = xy*s = x^4 y^3 + 1.  Zero residuals certify the closed forms; a
    nonzero residual pinpoints a mismatched component."""
    V = ("x", "y")
    t = Poly(V, {(4, 3): 1, (0, 0): 1})
    xy = Poly(V, {(1, 1): 1})
    return tuple(exact_div(t ** k - 1, xy ** k) - f._with_vars(V)
                 for k, f in ((2, F.p), (3, F.q)))
