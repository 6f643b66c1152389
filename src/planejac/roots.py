"""Complex root finding for the numeric layers: companion-matrix eigenvalues,
Newton polishing, and multiplicity clustering.

The eigenvalues of the companion matrix are backward stable roots of the
polynomial (Edelman & Murakami, Math. Comp. 64, 1995); a vectorized Newton
polish then refines each root against the coefficients themselves.  One
path serves every entry point: ``find_roots`` is a one-row call of
``find_roots_batch``, and ``find_roots_grouped`` solves rows of mixed shapes
with one ``find_roots_batch`` call per trimmed degree.

``Slice`` specializes a polynomial to a univariate slice, exactly at
Gaussian-rational points or numerically at many complex points, with one
numeric zero rule for leading coefficients.  It backs curve slicing,
distance certification, line intersections and the search for points on
candidate components; fiber enumeration builds its exact slices in plain
ints instead.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GR_ZERO


class RootFindingError(RuntimeError):
    pass


#: relative Newton step, |step| < TOL * (1 + |z|), at which a root's polish stops
TOL = 1e-13
#: Newton polish steps per root, at most
MAX_ITER = 50


def _horner(c, z):
    """Values and derivatives of each row of c (n, d+1), descending, at the
    columns of z (n, k)."""
    p = np.empty_like(z)
    p[...] = c[:, :1]
    dp = np.zeros_like(z)
    for j in range(1, c.shape[1]):
        dp = dp * z + p
        p = p * z + c[:, j:j + 1]
    return p, dp


def find_roots_batch(C):
    """All complex roots of each row of C, an (n, d+1) array of descending
    complex coefficients whose leading column is nonzero.  Returns an (n, d)
    array; row i holds the roots of row i.  Raises RootFindingError when a
    row's eigenvalues cannot be computed or its polished residuals stay
    large, or when a coefficient is not finite.  Each root takes at most
    MAX_ITER Newton steps."""
    c = np.asarray(C, dtype=np.complex128)
    n, deg = c.shape[0], c.shape[1] - 1
    if not np.isfinite(c).all():
        raise RootFindingError("coefficients must be finite")
    if deg == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    if np.any(c[:, 0] == 0):
        raise ValueError("every row needs a nonzero leading coefficient")
    with np.errstate(over="ignore", invalid="ignore"):  # eigvals rejects overflow
        cn = c / c[:, :1]
    comp = np.zeros((n, deg, deg), dtype=np.complex128)
    comp[:, 0, :] = -cn[:, 1:]
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    try:
        z = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as e:
        raise RootFindingError(f"companion eigenvalues failed: {e}") from None
    # Newton polish, per root.  A step is refused when it would raise |p| or
    # carry the root beyond a quarter of the distance from its eigenvalue to
    # the nearest other one: near clustered or ill-conditioned roots plain
    # Newton drifts into a neighbour, and the eigenvalue is the better answer
    # there.  A root stops at dp = 0, at a refused step, or once its step is
    # below TOL relative to |z|.
    gap = np.abs(z[:, :, None] - z[:, None, :])
    gap[:, np.arange(deg), np.arange(deg)] = np.inf
    reach = 0.25 * gap.min(axis=2)
    z0 = z
    p, dp = _horner(cn, z)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(MAX_ITER):
        active &= dp != 0
        step = np.divide(p, dp, out=np.zeros_like(z), where=active)
        z_new = z - step
        p_new, dp_new = _horner(cn, z_new)
        active &= (np.abs(p_new) <= np.abs(p)) & (np.abs(z_new - z0) <= reach)
        z = np.where(active, z_new, z)
        p = np.where(active, p_new, p)
        dp = np.where(active, dp_new, dp)
        active &= np.abs(step) >= TOL * (1.0 + np.abs(z))
        if not active.any():
            break
    residual = np.abs(p)
    bound = 1e-6 * np.maximum(1.0, np.abs(z).max(axis=1, keepdims=True)) ** deg
    bad = ~(residual <= bound)  # NaN residuals are failures too
    if bad.any():
        raise RootFindingError(
            f"root iteration did not converge (max residual {residual[bad].max():.3g})"
        )
    return z


def find_roots(coeffs):
    """All complex roots of the polynomial with descending complex
    coefficients: exact leading zeros are dropped, exact trailing zeros are
    roots at the origin, and the rest is a one-row ``find_roots_batch``.
    Deterministic.  Raises RootFindingError for the zero polynomial and when
    the roots do not settle."""
    c = np.asarray(coeffs, dtype=np.complex128)
    nz = np.flatnonzero(c != 0)  # NaN is nonzero: it reaches the batch test
    if nz.size == 0:
        raise RootFindingError("zero polynomial has no finite root set")
    origin = np.zeros(c.shape[0] - 1 - nz[-1], dtype=np.complex128)
    c = c[nz[0]:nz[-1] + 1]
    return np.concatenate([find_roots_batch(c[None, :])[0], origin])


def find_roots_grouped(C, nonzero=None):
    """``find_roots`` of each row of C (n, d+1, descending), one
    ``find_roots_batch`` call per trimmed degree: a row drops its entries
    before the first one marked in ``nonzero`` (default C != 0), and its
    exactly zero trailing entries are roots at 0.  Returns all roots in row
    order and each row's count, -1 for a row with no marked entry."""
    c = np.asarray(C, dtype=np.complex128)
    live = c != 0 if nonzero is None else nonzero
    d = c.shape[1] - 1
    lead = np.argmax(live, axis=1)
    width = d - np.argmax(c[:, ::-1] != 0, axis=1) - lead  # trimmed degree
    counts = np.where(live.any(axis=1), d - lead, -1)
    k = np.maximum(counts, 0)
    start = np.cumsum(k) - k
    flat = np.zeros(k.sum(), dtype=np.complex128)
    for w in np.flatnonzero(np.bincount(width[counts >= 0], minlength=1)):
        rows = np.flatnonzero((width == w) & (counts >= 0))
        solved = find_roots_batch(c[rows[:, None], lead[rows, None] + np.arange(w + 1)])
        flat[start[rows, None] + np.arange(w)] = solved
    return flat, counts


def cluster_roots(roots, tol=1e-6):
    """Group numerically coincident roots: list of (representative,
    multiplicity), sorted by (re, im) of the representative."""
    out = []
    for r in sorted(roots, key=lambda t: (t.real, t.imag)):
        for i, (rep, mult) in enumerate(out):
            if abs(r - rep) <= tol * (1.0 + abs(rep)):
                out[i] = ((rep * mult + r) / (mult + 1), mult + 1)
                break
        else:
            out.append((complex(r), 1))
    return out


#: numeric zero rule of the slices: a specialized coefficient c with
#: |c| <= SLICE_ZERO_REL * max(1, bound) is zero
SLICE_ZERO_REL = 1e-12


class Slice:
    """A polynomial f viewed in one free variable, compiled once and
    specialized at many values of the other (fixed) variable, if any.

    ``coeffs`` holds the exact coefficient polynomials in the fixed variable,
    densely from the top degree (None where absent).  A[i, j] is the complex
    coefficient of free^(top-i) * fixed^j.  |A| gives each specialized
    coefficient a roundoff bound, the sum of its absolute monomial values,
    so a coefficient is numerically zero only relative to the cancellation
    that produced it."""

    def __init__(self, f, free):
        if f.is_laurent():
            raise ValueError("slicing needs a non-Laurent polynomial")
        self.fixed = tuple(w for w in f.vars if w != free)
        if len(self.fixed) > 1:
            raise ValueError("a slice fixes at most one variable")
        cs = f.coeffs_in(free)
        top = max(cs, default=0)
        self.coeffs = [cs.get(d) for d in range(top, -1, -1)]
        width = max((sum(e) for c in cs.values() for e in c.terms), default=0) + 1
        self.A = np.zeros((top + 1, width), dtype=np.complex128)
        for d, c in cs.items():
            for exps, a in c.terms.items():
                self.A[top - d, sum(exps)] += complex(a)
        self.absA = np.abs(self.A)

    def exact(self, values):
        """Descending coefficients of f at a Gaussian-rational value of the
        fixed variable, exact leading zeros dropped; None when the slice
        vanishes identically."""
        point = dict(zip(self.fixed, values))
        cs = [GR_ZERO if c is None else c.evaluate(point) for c in self.coeffs]
        for i, c in enumerate(cs):
            if c:
                return cs[i:]
        return None

    def exact_roots(self, values):
        """Roots of the exact slice at ``values``: None when it vanishes
        identically, an empty array when it is a nonzero constant."""
        cs = self.exact(values)
        if cs is None:
            return None
        if len(cs) == 1:
            return np.array([], dtype=np.complex128)
        return find_roots([complex(c) for c in cs])

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
