"""Exact arithmetic over Z[i], Q(i), and quadratic extensions Q(i)[T]/(T^2+m).

Everything here is arbitrary precision and never rounds.  The quadratic
extension backs the lattice layer's brute-force fiber oracle, an exact check
of points of Z + Z*i*sqrt(m) independent of fiber enumeration.
"""

from __future__ import annotations

from math import gcd


class GaussianRational:
    """An element of Q(i) stored as (a + b*i)/d with d > 0 and the triple
    reduced: gcd(gcd(|a|, |b|), d) = 1 after every operation."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        a, b, d = int(a), int(b), int(d)
        if d == 0:
            raise ZeroDivisionError("zero denominator in GaussianRational")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(abs(a), abs(b)), d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        self.a = a
        self.b = b
        self.d = d

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return GaussianRational(x, 0, 1)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.a * other.a + other.b * other.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a+bi)/d / ((a'+b'i)/d') = (a+bi)(a'-b'i) d' / (d n)
        re = self.a * other.a + self.b * other.b
        im = self.b * other.a - self.a * other.b
        return GaussianRational(re * other.d, im * other.d, self.d * n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.a, -self.b, self.d)

    def conj(self):
        return GaussianRational(self.a, -self.b, self.d)

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def is_gaussian_integer(self):
        return self.d == 1

    def __repr__(self):
        return f"GaussianRational({self.a}, {self.b}, {self.d})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            s = str(a)
        elif a == 0:
            s = f"{b}i"
        else:
            s = f"({a}{'+' if b > 0 else '-'}{abs(b)}i)"
        return s if self.d == 1 else f"{s}/{self.d}"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class QuadElem:
    """u + v*T with u, v in Q(i) and T^2 = -m; the exact home of values of
    polynomials with Q(i) coefficients at points of Z + Z*i*sqrt(m).

    For m = 1 the ring Q(i)[T]/(T^2+1) is not a field; equality with a
    complex number is decided after collapsing T -> i, which is what fiber
    verification needs.
    """

    __slots__ = ("u", "v", "m")

    def __init__(self, u, v, m):
        self.u = GaussianRational.coerce(u)
        self.v = GaussianRational.coerce(v)
        self.m = int(m)

    def __add__(self, other):
        other = self._coerce(other)
        return QuadElem(self.u + other.u, self.v + other.v, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadElem(self.u - other.u, self.v - other.v, self.m)

    def __mul__(self, other):
        other = self._coerce(other)
        return QuadElem(
            self.u * other.u - self.m * (self.v * other.v),
            self.u * other.v + self.v * other.u,
            self.m,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadElem(-self.u, -self.v, self.m)

    def _coerce(self, x):
        if isinstance(x, QuadElem):
            if x.m != self.m:
                raise ValueError("mixed quadratic rings")
            return x
        return QuadElem(GaussianRational.coerce(x), GR_ZERO, self.m)

    def equals_gaussian(self, k):
        """Exact test self == k for k in Q(i), collapsing T -> i when m = 1."""
        k = GaussianRational.coerce(k)
        if self.m == 1:
            return self.u + self.v * GR_I == k
        return self.v == GR_ZERO and self.u == k

    def __complex__(self):
        return complex(self.u) + complex(self.v) * 1j * (self.m ** 0.5)

    def __repr__(self):
        return f"QuadElem({self.u!r}, {self.v!r}, m={self.m})"


def lattice_point(a, b, m):
    """The point a + b*i*sqrt(m) as a QuadElem (a, b ordinary integers)."""
    return QuadElem(GaussianRational(a), GaussianRational(b), m)
