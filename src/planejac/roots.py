"""Complex root finding for the numeric layers: start values, one Newton
polish, and multiplicity clustering.

A row's start values are -c1/c0 at degree 1, stable closed forms at degrees
2 and 3, and from degree 4 the eigenvalues of the companion matrix, which
are backward stable roots (Edelman & Murakami, Math. Comp. 64, 1995).  One
vectorized Newton polish and one residual test then serve every degree and
every entry point: ``find_roots`` is a one-row call of ``find_roots_batch``,
and ``find_roots_grouped`` solves rows of mixed shapes with one
``find_roots_batch`` call per trimmed degree.

This module only solves: its callers specialize.  The exact layers pass
the coefficients of ``Poly.evaluate`` slices to ``find_roots``; the lattice
sweeps build their numeric slices with ``lattice.Slice``.
"""

from __future__ import annotations

import numpy as np

from ._kernels import RootFindingError


#: relative Newton step, |step| < TOL * (1 + |z|), at which a root's polish stops
TOL = 1e-13
#: Newton polish steps per root, at most
MAX_ITER = 50
#: acceptance of the polished roots z of a degree-d row: |p(z)| <= RESIDUAL_REL
#: * max(1, max |z| of the row) ** d.  It catches divergence, but is no
#: certificate: for the roots k(1 + i/2), k = 1..40, it accepts residuals up
#: to 1e60 (inclusion radii would bound the error instead)
RESIDUAL_REL = 1e-6


def _horner(c, z):
    """Values and derivatives at each z[k] of the row c[k] (descending)."""
    p = c[:, 0]
    dp = np.zeros_like(z)
    for j in range(1, c.shape[1]):
        dp = dp * z + p
        p = p * z + c[:, j]
    return p, dp


def _quadratic(b, c):
    """The roots q and c/q of z^2 + b z + c, q = -(b + s)/2 with s = +-sqrt(b^2
    - 4c) signed so that Re(conj(b) s) >= 0: no cancellation in b + s (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 1.8).  + 0.0: no -0.0."""
    s = np.sqrt(b * b - 4 * c)
    q = -0.5 * (b + np.where((b.conj() * s).real < 0, -s, s))
    return np.column_stack([q, np.divide(c, q, out=np.zeros_like(q), where=q != 0)]) + 0.0


def _cardano(a, b, c):
    """Cardano's three roots of z^3 + a z^2 + b z + c, from the cube root of
    the larger of -q/2 +- sqrt(q^2/4 + p^3/27): no cancellation there."""
    p, q = b - a * a / 3, (2 * a * a - 9 * b) * a / 27 + c
    r = np.sqrt(q * q / 4 + p ** 3 / 27)
    u = (np.where((q.conj() * r).real > 0, -r, r) - q / 2) ** (1 / 3)
    v = np.divide(-p, 3 * u, out=np.zeros_like(u), where=u != 0)
    w = np.exp(2j * np.pi / 3 * np.arange(3))
    return u[:, None] * w + v[:, None] * w.conj() - a[:, None] / 3


def _cubic(a, b, c):
    """The roots of z^3 + a z^2 + b z + c: Cardano's largest, z1, and the
    ``_quadratic`` of the others' sum -a - z1 and product -c/z1, which
    Cardano alone loses for a widely spread row (roots 1e-8, 1, 1e8)."""
    bound = np.maximum(np.maximum(np.abs(a), np.sqrt(np.abs(b))), np.cbrt(np.abs(c)))  # Fujiwara
    s = np.ldexp(1.0, np.frexp(bound)[1])  # 2^k in (bound, 2 bound], 1 at 0: exact scaling
    a, c = a / s, c / s / s / s  # unscaled, Cardano's terms overflow near roots 1e80
    z = _cardano(a, b / s / s, c)
    z1 = z[np.arange(len(z)), np.abs(z).argmax(axis=1)]
    rest = _quadratic(a + z1, np.divide(-c, z1, out=np.zeros_like(z1), where=z1 != 0))
    return s[:, None] * np.column_stack([z1, rest])


def find_roots_batch(C):
    """All complex roots of each row of C, an (n, d+1) array of descending
    complex coefficients whose leading column is nonzero.  Returns an (n, d)
    array; row i holds the roots of row i.  Raises RootFindingError when a
    coefficient, or one normalized by the leading one, is not finite, or
    when the eigenvalues of a row (degree 4 up) cannot be computed or its
    polished residuals stay large.  Each root takes at most MAX_ITER Newton
    steps."""
    c = np.asarray(C, dtype=np.complex128)
    n, deg = c.shape[0], c.shape[1] - 1
    if not np.isfinite(c).all():
        raise RootFindingError("coefficients must be finite")
    if deg == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    if np.any(c[:, 0] == 0):
        raise ValueError("every row needs a nonzero leading coefficient")
    with np.errstate(over="ignore", invalid="ignore"):
        cn = c / c[:, :1]
    if not np.isfinite(cn).all():
        raise RootFindingError("normalized coefficients must be finite")
    # start values: closed forms up to degree 3, companion eigenvalues above;
    # reach is a quarter of each start value's distance to its nearest other
    if deg == 1:
        z = -cn[:, 1:]
    elif deg == 2:
        z = _quadratic(cn[:, 1], cn[:, 2])
    elif deg == 3:
        z = _cubic(cn[:, 1], cn[:, 2], cn[:, 3])
    else:
        comp = np.zeros((n, deg, deg), dtype=np.complex128)
        comp[:, 0, :] = -cn[:, 1:]
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        try:
            z = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError as e:
            raise RootFindingError(f"companion eigenvalues failed: {e}") from None
    gap = np.abs(z[:, :, None] - z[:, None, :])
    gap[:, np.arange(deg), np.arange(deg)] = np.inf
    reach = 0.25 * gap.min(axis=2)
    # Newton polish, per root, on the flat index array of the roots still
    # moving.  A step is refused when it would raise |p| or carry the root
    # beyond its reach: near clustered or ill-conditioned roots plain Newton
    # drifts into a neighbour, and the start value is the better answer
    # there.  A root stops at dp = 0, at a refused step, or once its step is
    # below TOL relative to |z|.
    z0, reach, row = z.ravel(), reach.ravel(), np.repeat(np.arange(n), deg)
    z = z0.copy()
    p, dp = _horner(cn[row], z)
    idx = np.flatnonzero(dp != 0)
    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        step = p[idx] / dp[idx]
        z_new = z[idx] - step
        p_new, dp_new = _horner(cn[row[idx]], z_new)
        ok = (np.abs(p_new) <= np.abs(p[idx])) & (np.abs(z_new - z0[idx]) <= reach[idx])
        idx, step, z_new, dp_new = idx[ok], step[ok], z_new[ok], dp_new[ok]
        z[idx], p[idx], dp[idx] = z_new, p_new[ok], dp_new
        idx = idx[(dp_new != 0) & (np.abs(step) >= TOL * (1.0 + np.abs(z_new)))]
    z, residual = z.reshape(n, deg), np.abs(p).reshape(n, deg)
    bound = RESIDUAL_REL * np.maximum(1.0, np.abs(z).max(axis=1, keepdims=True)) ** deg
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
