import random

from planejac.gaussian import (GR_I, GR_ONE, GR_ZERO, GaussianRational,
                               QuadElem, lattice_point)


def test_rational_canonical_form():
    r = GaussianRational(2, 4, 6)
    assert (r.a, r.b, r.d) == (1, 2, 3)
    r2 = GaussianRational(-3, 0, -6)  # sign moves to numerator
    assert r2.d > 0
    assert r2 == GaussianRational(1, 0, 2)


def test_rational_field_ops():
    rng = random.Random(11)
    for _ in range(60):
        x = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 5))
        y = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 5))
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + GR_ONE) == x * y + x
        if y:
            assert (x / y) * y == x
    assert GR_I * GR_I == -GR_ONE
    assert GaussianRational(1, 1) / GaussianRational(1, 1) == GR_ONE


def test_rational_predicates():
    assert GaussianRational(3, -2).is_gaussian_integer()
    assert not GaussianRational(1, 0, 2).is_gaussian_integer()
    assert complex(GaussianRational(1, 2, 2)) == 0.5 + 1j
    assert not GR_ZERO
    assert GR_ONE


def test_quad_elem_m1_collapses_to_gaussian():
    # T^2 = -1 for m = 1, so u + vT is the Gaussian integer u + vi
    z = lattice_point(2, 3, 1)
    assert z.equals_gaussian(GaussianRational(2, 3))
    assert complex(z) == 2 + 3j


def test_quad_elem_arithmetic():
    a = lattice_point(1, 2, 5)   # 1 + 2i*sqrt(5)
    b = lattice_point(3, -1, 5)
    s = a * b
    # (1 + 2T)(3 - T) with T^2 = -5: 3 - T + 6T - 2T^2 = 13 + 5T
    assert (s.u, s.v) == (GaussianRational(13), GaussianRational(5))
    assert abs(complex(a) - (1 + 2j * 5 ** 0.5)) < 1e-12


def test_quad_elem_membership_is_exact():
    # 1 + i*sqrt(2) is not a Gaussian integer
    z = lattice_point(1, 1, 2)
    assert not z.equals_gaussian(GaussianRational(1, 1))
