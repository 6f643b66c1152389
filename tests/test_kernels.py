import random

import numpy as np
import pytest

from planejac.gaussian import GR_ZERO, GaussianRational
from planejac.roots import (SLICE_ZERO_REL, RootFindingError, Slice,
                            cluster_roots, find_roots, find_roots_batch, find_roots_grouped)

from conftest import pe, random_poly, slice_rows


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


# ------------------------------------------------------------- Slice roots

def test_poly_roots_specialization():
    f = pe("y^2 - x")
    rs = Slice(f, "y").exact_roots([GaussianRational(4)])
    assert np.allclose(sorted(rs, key=lambda z: z.real), [-2, 2])


def test_poly_roots_vanishing_slice_is_none():
    f = pe("x*y")
    assert Slice(f, "y").exact_roots([GaussianRational(0)]) is None


def test_poly_roots_constant_slice_is_empty():
    f = pe("x*y + 1")
    rs = Slice(pe("x + 1"), "y").exact_roots([GaussianRational(2)])
    assert rs is not None and len(rs) == 0
    del f


def test_slice_fixes_at_most_one_variable():
    with pytest.raises(ValueError, match="at most one variable"):
        Slice(pe("x*u + v", ("x", "u", "v")), "x")


def test_slice_exact_at_gaussian_integer_points():
    # coefficients at Gaussian-integer x recombine, by Horner, to the exact
    # value of f at every (x, y); at x = i the leading coefficient x - i
    # vanishes
    rng = random.Random(6)
    polys = [pe("x*y^2 - i*y^2 + x*y + 1"), pe("x^2*y^3 - 2*x*y + y - i")]
    polys += [random_poly(rng, max_deg=3, n_terms=5, int_coeffs=True) for _ in range(6)]
    for f in polys:
        sl = Slice(f, "y")
        for ax in range(-1, 2):
            for bx in range(-1, 2):
                xq = GaussianRational(ax, bx)
                cs = sl.exact([xq])
                for ay, by in ((0, 0), (1, -1), (2, 1)):
                    yq = GaussianRational(ay, by)
                    acc = GR_ZERO
                    for c in cs or ():
                        acc = acc * yq + c
                    assert acc == f.evaluate({"x": xq, "y": yq})
                if cs:
                    assert cs[0]
                    num, bound = sl.numeric([complex(xq)])
                    err = np.abs(num[0, -len(cs):] - [complex(c) for c in cs])
                    assert np.all(err <= 1e-13 * np.maximum(1.0, bound[0, -len(cs):]))
    assert len(Slice(polys[0], "y").exact([GaussianRational(0, 1)])) == 2
