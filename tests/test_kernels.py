import itertools
import random
import warnings

import numpy as np
import pytest

from planejac import roots
from planejac.exceptional import _univariate_roots
from planejac.gaussian import GaussianRational
from planejac.lattice import SLICE_ZERO_REL, Slice
from planejac.roots import (MAX_ITER, RESIDUAL_REL, TOL, RootFindingError, _quadratic,
                            cluster_roots, find_roots, find_roots_batch, find_roots_grouped)

from support import pe, slice_rows


# ----------------------------------------------------------------- find_roots

def test_find_roots_quadratic():
    r = sorted(find_roots([1.0, 0.0, -4.0]), key=lambda z: z.real)
    assert np.allclose(r, [-2, 2])


def test_find_roots_known_factorization():
    # (z - 1)(z - 2i)(z + 3) = z^3 + (2 - 2i) z^2 - (3 + 4i) z + 6i
    coeffs = np.poly([1, 2j, -3])
    got = find_roots(coeffs)
    for target in (1, 2j, -3):
        assert min(abs(got - target)) < 1e-10


def test_find_roots_origin_and_leading_zeros():
    # 0*z^4 + z^3 - z^2 = z^2 (z - 1)
    got = sorted(find_roots([0.0, 1.0, -1.0, 0.0, 0.0]), key=lambda z: z.real)
    assert np.allclose(got, [0, 0, 1])


def test_find_roots_zero_poly_raises():
    with pytest.raises(RootFindingError):
        find_roots([0.0, 0.0])


def test_find_roots_random_match_numpy():
    rng = random.Random(83)
    for _ in range(25):
        deg = rng.randint(1, 12)
        coeffs = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                  for _ in range(deg + 1)]
        if abs(coeffs[0]) < 0.3:
            coeffs[0] = 1.0
        mine = np.sort_complex(find_roots(coeffs))
        ref = np.sort_complex(np.roots(coeffs))
        assert np.allclose(mine, ref, atol=1e-6)


def test_find_roots_deterministic():
    coeffs = [1.0, -2.5 + 1j, 0.25, 3.0 - 1j]
    a = find_roots(coeffs)
    b = find_roots(coeffs)
    assert np.array_equal(a, b)


def test_find_roots_batch_rows_match_single_solves():
    rng = random.Random(97)
    for deg in range(1, 13):
        rows = np.array([[complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                          for _ in range(deg + 1)] for _ in range(5)])
        rows[np.abs(rows[:, 0]) < 0.3, 0] = 1.0
        got = find_roots_batch(rows)
        assert got.shape == (5, deg)
        for row, roots in zip(rows, got):
            assert np.array_equal(roots, find_roots(row))


def test_find_roots_polish_keeps_ill_conditioned_roots_apart():
    # clustered, ill-conditioned roots: plain Newton drifts roots into their
    # neighbours, so the polish must leave each one by its own eigenvalue
    coeffs = np.poly(np.arange(1, 41) * (1 + 0.5j))
    got = find_roots(coeffs)
    ref = np.roots(coeffs)  # the same companion eigenvalues, unpolished
    gap = np.abs(ref[:, None] - ref[None, :])
    np.fill_diagonal(gap, np.inf)
    near = np.abs(ref[:, None] - got[None, :]) <= 0.25 * gap.min(axis=1)[:, None]
    assert (near.sum(axis=0) == 1).all() and (near.sum(axis=1) == 1).all()


def test_find_roots_batch_failing_row_raises():
    good = [1.0, 0.0, -4.0]
    for bad in ([1e-200, 0.0, 1e200],          # normalized coefficients overflow
                [1.0, float("nan"), 1.0],
                [1.0, 0.0, float("nan")],         # not a root at the origin
                [float("nan"), 1.0, 1.0]):        # not a zero leading coefficient
        with pytest.raises(RootFindingError):
            find_roots_batch(np.array([good, bad, good]))
        with pytest.raises(RootFindingError):
            find_roots(bad)


def test_find_roots_batch_overflow_raises_at_every_degree():
    # the normalized coefficients c / c[:, :1] overflow: an error at every
    # degree, the closed forms below 3 as well as the companion above
    for bad in ([1e-200, 1e200], [1e-200, 0.0, 1e200], [1e-200, 1.0, 0.0, 1e200]):
        good = [1.0] + [0.0] * (len(bad) - 2) + [-1.0]
        with pytest.raises(RootFindingError, match="normalized"):
            find_roots_batch(np.array([good, bad]))


def _companion_polished(row):
    """The companion path for one row, in scalar arithmetic: the eigenvalues
    of its companion matrix, each then Newton-polished under the rules of
    find_roots_batch (a step must lower |p| and stay within a quarter of the
    distance to the nearest other eigenvalue; stop at dp = 0 or a step below
    TOL)."""
    cn = [complex(c / row[0]) for c in row]
    comp = np.eye(len(cn) - 1, k=-1, dtype=complex)
    comp[0] = [-c for c in cn[1:]]
    z0 = list(map(complex, np.linalg.eigvals(comp)))

    def horner(z):
        p, dp = cn[0], 0j
        for c in cn[1:]:
            dp, p = dp * z + p, p * z + c
        return p, dp

    out = []
    for k, w in enumerate(z0):
        reach = min(abs(w - o) for j, o in enumerate(z0) if j != k) / 4
        z = w
        p, dp = horner(z)
        for _ in range(MAX_ITER):
            if dp == 0:
                break
            step = p / dp
            p_new, dp_new = horner(z - step)
            if abs(p_new) > abs(p) or abs(z - step - w) > reach:
                break
            z, p, dp = z - step, p_new, dp_new
            if abs(step) < TOL * (1 + abs(z)):
                break
        out.append(z)
    return np.array(out)


def _acceptable(row, zs):
    return all(abs(np.polyval(row / row[0], z))
               <= RESIDUAL_REL * max(1, max(abs(zs))) ** (len(row) - 1) for z in zs)


def test_closed_form_quadratics_match_the_companion_path():
    # seeded rows plus a double root, |c| << |b|^2, purely imaginary
    # discriminants, c = 0, b = 0, and coefficients near 1e+-150
    rng = np.random.default_rng(181)
    rows = list(rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3)))
    special = [[1, -2 - 4j, -3 + 4j],                   # (z - (1 + 2i))^2
               [1, 1e8, 1], [1, 1e6 + 1e6j, 1e-3j],      # |c| << |b|^2
               [1, 1, 0.25 - 0.5j], [1, 2j, -1 + 1j],    # b^2 - 4c = 2i, -4i
               [1, 3 - 1j, 0], [2j, -5, 0],              # c = 0
               [1, 0, 4], [2, 0, -8j], [3, 0, 0],        # b = 0
               [1e-150, 1, 1e150], [1e150, 3e150, 2e150],
               [1e-150, 3e-150j, 2e-150], [1, 1e-150, 1e-300]]
    rows = np.array(rows + special, dtype=complex)
    got = find_roots_batch(rows)
    for row, zs in zip(rows, got):
        ref = _companion_polished(row)
        # a double root is only determined to sqrt(eps) by the eigenvalues
        tol = (1e-7 if np.array_equal(row, [1, -2 - 4j, -3 + 4j]) else 1e-12) * (1 + abs(ref))
        err = min(np.abs(zs - ref), np.abs(zs[::-1] - ref), key=lambda e: (e / tol).max())
        assert (err <= tol).all(), (row, zs, ref)
        assert _acceptable(row, zs) and _acceptable(row, ref)
    assert np.array_equal(got[len(rows) - len(special)], [1 + 2j, 1 + 2j])
    # the sign of s keeps b + s free of cancellation: both start values are
    # accurate before any polish, the small one too
    start = _quadratic(np.array([1e8, -1e8j]), np.array([1.0, 1.0]))
    assert np.allclose(start, [[-1e8, -1e-8], [1e8j, -1e-8j]], rtol=4e-16, atol=0)


def _matched(zs, ref, tol):
    """zs in the order that best matches ref, relative to tol."""
    return min((zs[list(p)] for p in itertools.permutations(range(len(zs)))),
               key=lambda z: (np.abs(z - ref) / tol).max())


def test_closed_form_cubics_match_the_companion_path(monkeypatch):
    # each seeded row against the companion path (scalar oracle) and against
    # 50-digit mpmath roots of the same float row.  A row is (coefficients,
    # scale s): its roots are compared as z / s, so a scaled row is held to
    # the tolerance of its unscaled base.  A reference root with n - 1 others
    # within 1e-4 relative is n-fold, and is only determined to about
    # eps^(1/n) by the coefficients
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(191)
    rows = [(r, 1) for r in rng.normal(size=(150, 4)) + 1j * rng.normal(size=(150, 4))]
    rows += [(r, 1) for r in rng.normal(size=(50, 4)) + 0j]
    rows += [([1, 0, 0, -c], 1)                                      # binomials z^3 - c
             for c in np.logspace(-6, 6, 13) * np.exp(2j * np.pi * rng.random(13))]
    rows += [(np.poly(rng.integers(-5, 6, 3) + 1j * rng.integers(-5, 6, 3)), 1)
             for _ in range(20)]                                   # Gaussian-integer roots
    rows += [([1, 2 - 1j, 3j, 0], 1), ([2, -1, 5, 0], 1),          # c = 0
             ([1, 3 + 4j, 0, 0], 1), ([1j, -2, 0, 0], 1)]          # b = c = 0
    rows += [(np.poly(r), 1) for r in ([1e-8, 1, 1e8], [1e-8j, -1, 1e8 + 1e8j], [-1e-8, 1j, -1e8],
                                       [1 + 2j, 1 + 2j, -3], [2, 2, 1j],      # double roots
                                       [2 - 1j] * 3, [-3] * 3,                # triple roots
                                       [1, 1 + 1e-7, 1 - 1e-7j], [1, 1 + 1e-7, 5])]
    base = np.array([1 + 1j, -2, 0.5j])
    rows += [(np.poly(s * base), s) for s in (1e-100, 1e-50, 1e-8, 1e8, 1e50, 1e80, 1e100)]
    C = np.array([r for r, _ in rows], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_roots_batch(C)
    with mpmath.workdps(50):  # the roots of the row over s^k, that is z / s
        exact = [np.array([complex(z) for z in mpmath.polyroots(
            [mpmath.mpc(c) / mpmath.mpf(s) ** k for k, c in enumerate(row)],
            maxsteps=400, extraprec=400)]) for (_, s), row in zip(rows, C)]
    for (_, s), row, zs, ref_m in zip(rows, C, got, exact):
        ref_c = _companion_polished(row)
        assert _acceptable(row, ref_c) and _acceptable(row, zs)
        for ref in (ref_c / s, ref_m):
            n = (np.abs(ref[:, None] - ref) <= 1e-4 * np.abs(ref)[:, None]).sum(axis=1)
            tol = np.choose(n - 1, [1e-12, 2e-7, 3e-5]) * (1 + np.abs(ref))
            assert (np.abs(_matched(zs / s, ref, tol) - ref) <= tol).all(), (row, zs, ref)
    # Cardano for all three roots loses the small roots of 1e-8, 1, 1e8, and
    # the residual test accepts them; unscaled, its terms overflow for roots
    # near 1e80, which the rows above solve
    monkeypatch.setattr(roots, "_cubic", roots._cardano)
    got = find_roots_batch(np.poly([1e-8, 1, 1e8])[None, :])
    assert np.abs(np.sort(got[0].real) - [1e-8, 1, 1e8]).max() > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            roots._cardano(*np.poly(1e80 * base)[1:, None])


def test_polish_refines_perturbed_start_values(monkeypatch):
    # the shared Newton polish, not the start values, sets the accuracy: start
    # values off by 1e-7 relative still give the roots to 1e-13, at degrees 2
    # and 3 (closed forms) and at degree 4 (companion eigenvalues)
    quadratic, cubic, eigvals = roots._quadratic, roots._cubic, np.linalg.eigvals
    monkeypatch.setattr(roots, "_quadratic", lambda b, c: quadratic(b, c) * (1 + 1e-7))
    monkeypatch.setattr(roots, "_cubic", lambda a, b, c: cubic(a, b, c) * (1 + 1e-7))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1 + 1e-7))
    for r in (np.array([2 + 1j, -3]), np.array([1 - 1j, 2 + 1j, -3]),
              np.array([1, 2 + 1j, -3, 0.5j])):
        got = find_roots(np.poly(r))
        assert np.abs(np.sort_complex(got) - np.sort_complex(r)).max() < 1e-13


def test_eigenvalues_start_at_degree_4(monkeypatch):
    def fail(a):
        raise AssertionError("companion eigenvalues computed")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    rng = np.random.default_rng(7)
    for deg in (1, 2, 3):
        C = rng.normal(size=(20, deg + 1)) + 1j * rng.normal(size=(20, deg + 1))
        assert find_roots_batch(C).shape == (20, deg)
    with pytest.raises(AssertionError, match="companion"):
        find_roots_batch(rng.normal(size=(1, 5)))


def test_linear_rows_are_exact_quotients():
    rows = np.array([[2, -4], [1e-150, 1], [3 - 1j, 2 + 5j], [1j, 0]], dtype=complex)
    got = find_roots_batch(rows)
    assert got.shape == (4, 1)
    assert np.array_equal(got[:, 0], -(rows[:, 1] / rows[:, 0]))


def test_find_roots_grouped_rows_match_single_solves():
    # rows of one width with exactly zero leading and trailing runs, all-zero
    # rows and nonzero constants: each row's roots are find_roots of the row
    rng = random.Random(131)
    rows = []
    for _ in range(60):
        row = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(7)]
        lead, trail = rng.randint(0, 7), rng.randint(0, 7)
        row[:lead] = [0j] * lead
        row[len(row) - trail:] = [0j] * trail
        rows.append(row)
    rows += [[0j] * 7, [0j] * 6 + [2.5], [3j] + [0j] * 6]
    flat, counts = find_roots_grouped(np.array(rows))
    assert len(counts) == len(rows)
    start = 0
    for row, k in zip(rows, counts):
        if not any(row):
            assert k == -1
            continue
        ref = find_roots(row)
        assert k == len(ref) and np.array_equal(flat[start:start + k], ref)
        start += k
    assert start == len(flat)


def test_slice_grouped_roots_match_row_by_row_solves():
    # the one grouped solve against the per-row rule it replaces: drop the
    # numerically zero leading coefficients, then find_roots of the rest,
    # which takes exactly zero trailing coefficients as roots at 0.  The
    # slice in y is x(x-1)(x-4) y^2 + x(x-2)(x-4) y + (x-3)(x-4): at x = 1
    # its leading coefficient is exactly 0, at 1 + 1e-14 numerically 0; at
    # x = 3 the trailing one is 0; at x = 4 all are; at x = 0 it is 12
    sl = Slice(pe("x^3*y^2 - 5*x^2*y^2 + 4*x*y^2 + x^3*y - 6*x^2*y + 8*x*y"
                  " + x^2 - 7*x + 12"), "y")
    xs = np.array([0, 1, 1 + 1e-14, 2, 3, 4, 0.5 + 0.5j, 5, 3, 1e-13, 4, 1, -2j])
    got = slice_rows(sl, xs)
    c, b = sl.numeric(xs)
    zero = np.abs(c) <= SLICE_ZERO_REL * np.maximum(1.0, b)
    assert len(got) == len(xs)
    for roots, row, z in zip(got, c, zero):
        if z.all():
            assert roots is None
            continue
        rest = row[np.argmin(z):]
        ref = find_roots(rest) if len(rest) > 1 else np.array([], dtype=complex)
        assert np.array_equal(roots, ref)
    assert got[5] is None and got[10] is None
    assert got[0].size == 0
    assert got[1].size == got[2].size == 1 and got[4].size == 2 and got[4][1] == 0


# ----------------------------------------------------------------- clustering

def test_cluster_roots_multiplicity():
    roots = [1.0 + 0j, 1.0 + 1e-9j, -2.0 + 0j]
    out = cluster_roots(roots)
    assert [(round(r.real), m) for r, m in out] == [(-2, 1), (1, 2)]


def test_cluster_roots_tolerance_scales_with_magnitude():
    out = cluster_roots([1e6 + 0j, 1e6 + 0.5j], tol=1e-6)
    assert len(out) == 1 and out[0][1] == 2


# ------------------------------------------------- roots of exact slices

def test_poly_roots_specialization():
    f = pe("y^2 - x")
    rs = _univariate_roots(f.evaluate({"x": GaussianRational(4)}))
    assert np.allclose(sorted(rs, key=lambda z: z.real), [-2, 2])


def test_poly_roots_vanishing_slice_has_no_roots():
    f = pe("x*y")
    assert len(_univariate_roots(f.evaluate({"x": GaussianRational(0)}))) == 0


def test_poly_roots_constant_slice_is_empty():
    rs = _univariate_roots(pe("x + 1").evaluate({"x": GaussianRational(2)}))
    assert len(rs) == 0


def test_slice_fixes_at_most_one_variable():
    with pytest.raises(ValueError, match="at most one variable"):
        Slice(pe("x*u + v", ("x", "u", "v")), "x")
