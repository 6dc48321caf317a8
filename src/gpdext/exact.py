"""Exact arithmetic for circle-group values and sums of roots of unity.

Angles live in Q/Z as reduced fractions, with e(a) = exp(2*pi*i*a).  A
CircleScalar is a single point on the unit circle, exact when its angle is
rational and a unit-modulus complex float otherwise.  A Cyclo is an element
of Q(zeta_n) held as integer data: int exponents of zeta_n = e(1/n) over one
conductor n, int coefficients, and one common int denominator.  Zero testing
reduces the coefficient polynomial modulo a cyclotomic polynomial, so
equality of exact values is decided exactly, never by tolerance.

Algebra coefficients are exact (int, Fraction, Cyclo) or numeric (float,
complex), and Cyclo speaks Python's number protocol, so callers use plain
operators on either kind: ``a + b``, ``a * b``, ``a - b``, ``a == b``,
``c.conjugate()``, ``complex(c)``, and ``bool(c)``, which is the exact
"is nonzero" test.  Exact values combine exactly.  Mixing a Cyclo with a
float or complex demotes the result to complex; int and Fraction mix with
floats as Python defines.

The module also holds ``cmul``, the complex array product rounded as Python
rounds it, ``spectral_norms``, the norms of many matrices from stacked SVDs,
and the integer linear algebra used to decide solvability
of angle equations modulo 1 (diagonalization by unimodular row/column
operations).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# A numeric value is on the circle, or is 1, within this (a few roundings).
APPROX_TOL = 1e-12
# Circle values, one numeric, are equal within this, in identities and comparisons.
CLOSE_TOL = 1e-10

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list, den: list) -> list:
    """Divide polynomials with exact coefficients; divisor must be monic."""
    assert den[-1] == 1
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num[: len(den) - 1])
    return q


def _polyrem_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Remainder of an integer polynomial modulo a monic integer polynomial."""
    num = list(num)
    dn = len(den)
    for i in range(len(num) - 1, dn - 2, -1):
        c = num[i]
        if c:
            for j in range(dn):
                num[i - dn + 1 + j] -= c * den[j]
    return num[: dn - 1]


class Cyclo:
    """Exact element of a cyclotomic field, (1/den) * sum_e c_e * zeta_n^e.

    ``n`` is the conductor the exponents are taken over (zeta_n = e(1/n)),
    ``terms`` maps int exponents in [0, n) to nonzero int coefficients, and
    the int ``den >= 1`` is coprime to every coefficient (1 for zero).
    Operands over different conductors are lifted to the lcm L of the two,
    exponent e over n becoming e * (L / n); a result keeps that conductor even
    when terms cancel.  Terms keep the order the operations inserted them in,
    which is the order to_complex sums them in.  The constructor takes the
    three slots as given; from_root, from_rational and the operators keep
    the invariants.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int = 1, terms: dict[int, int] | None = None, den: int = 1):
        self.n = n
        self.terms = {} if terms is None else terms
        self.den = den

    @staticmethod
    def from_rational(c) -> "Cyclo":
        c = _rational(c)
        return Cyclo(1, {0: c.numerator}, c.denominator) if c else Cyclo()

    @staticmethod
    def from_root(angle, coeff=1) -> "Cyclo":
        """coeff * e(angle) for rational angle and coeff."""
        c = _rational(coeff)
        if not c:
            return Cyclo()
        a = _rational(angle)
        n = a.denominator
        return Cyclo(n, {a.numerator % n: c.numerator}, c.denominator)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo()

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo.from_rational(1)

    @staticmethod
    def coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

    def __add__(self, other):
        # Cyclo operands, the common case, skip the coercion checks
        if type(other) is not Cyclo:
            if isinstance(other, (float, complex)):
                return self.to_complex() + other
            other = Cyclo.coerce(other)
        n = self.n if self.n == other.n else math.lcm(self.n, other.n)
        den = self.den if self.den == other.den else math.lcm(self.den, other.den)
        s, t = n // self.n, den // self.den
        terms = dict(self.terms) if s == t == 1 else {e * s: c * t for e, c in self.terms.items()}
        s, t = n // other.n, den // other.den
        for e, c in other.terms.items():
            e *= s
            v = terms.get(e, 0) + c * t
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return _reduced(n, terms, den)

    def __radd__(self, other):
        if isinstance(other, (float, complex)):
            return other + self.to_complex()
        # other's term goes first, so to_complex sums in operand order
        return Cyclo.coerce(other) + self

    def __neg__(self):
        return Cyclo(self.n, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (float, complex)):
            return self.to_complex() * other
        other = Cyclo.coerce(other)
        n = self.n if self.n == other.n else math.lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        terms = {}
        for e, c in self.terms.items():
            e *= s
            for f, d in other.terms.items():
                k = (e + f * t) % n
                v = terms.get(k, 0) + c * d
                if v:
                    terms[k] = v
                else:
                    terms.pop(k, None)
        return _reduced(n, terms, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (float, complex)):
            return other * self.to_complex()
        return self * other

    def rotated(self, angle) -> "Cyclo":
        """This value times e(angle), for a rational angle."""
        a = _rational(angle)
        q = a.denominator
        n = math.lcm(self.n, q)
        s, shift = n // self.n, a.numerator * (n // q)
        return Cyclo(n, {(e * s + shift) % n: c for e, c in self.terms.items()}, self.den)

    def conjugate(self) -> "Cyclo":
        n = self.n
        return Cyclo(n, {-e % n: c for e, c in self.terms.items()}, self.den)

    def is_zero(self) -> bool:
        terms = self.terms
        if not terms:
            return True
        if len(terms) == 1:
            return False  # a single nonzero multiple of a root of unity
        n = self.n
        if len(terms) == 2:
            # c1 z^e1 + c2 z^e2 = 0 only when the roots are opposite (the
            # exponents are distinct dict keys) and the coefficients equal
            (e1, c1), (e2, c2) = terms.items()
            return c1 == c2 and 2 * ((e1 - e2) % n) == n
        # The exponents share the factor g with n, so the value is an integer
        # polynomial in the primitive m-th root zeta_n^g.
        g = math.gcd(n, *terms)
        m = n // g
        coeffs = [0] * m
        for e, c in terms.items():
            coeffs[e // g] = c
        return not any(_polyrem_int(coeffs, cyclotomic_polynomial(m)))

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = Cyclo.coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Cyclo is not hashable")

    def to_complex(self) -> complex:
        # int / int rounds correctly, so each term is the float that the
        # rational coefficient and angle denote
        n, den = self.n, self.den
        return sum(
            ((c / den) * cmath.exp(1j * TWO_PI * (e / n)) for e, c in self.terms.items()),
            0j,
        )

    __complex__ = to_complex

    def __repr__(self):
        if not self.terms:
            return "Cyclo(0)"
        parts = [
            f"{Fraction(c, self.den)}*e({Fraction(e, self.n)})"
            for e, c in sorted(self.terms.items())
        ]
        return "Cyclo(" + " + ".join(parts) + ")"


def _rational(x) -> int | Fraction:
    """x as an exact rational; int and Fraction pass through."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _reduced(n: int, terms: dict[int, int], den: int) -> Cyclo:
    """The Cyclo (1/den) * terms over n, with the common factor of den and
    the coefficients divided out."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            return Cyclo(n, {e: c // g for e, c in terms.items()}, den // g)
    return Cyclo(n, terms, den)


class CircleScalar:
    """A point on the unit circle.

    Exact values carry a rational angle p/q in Q/Z and denote e(p/q);
    approximate values carry a complex number within 1e-12 of the circle.
    Products of exact values stay exact.
    """

    __slots__ = ("angle", "z")

    def __init__(self, angle: Fraction | None = None, z: complex | None = None):
        if (angle is None) == (z is None):
            raise ValueError("exactly one of angle, z required")
        if angle is not None:
            # an angle already in [0, 1) is kept: angle % 1 makes a new Fraction
            in_range = type(angle) is Fraction and 0 <= angle.numerator < angle.denominator
            self.angle = angle if in_range else angle % 1
            self.z = None
        else:
            z = complex(z)
            if abs(abs(z) - 1.0) > APPROX_TOL:
                raise ValueError(f"not on the unit circle: {z!r}")
            self.angle = None
            self.z = z / abs(z)

    @staticmethod
    def one() -> "CircleScalar":
        return CircleScalar(angle=Fraction(0))

    @staticmethod
    def coerce(x) -> "CircleScalar":
        """CircleScalar passes through; Fraction/str mean an angle; int,
        float and complex mean the value itself."""
        if isinstance(x, CircleScalar):
            return x
        if isinstance(x, Fraction):
            return CircleScalar(angle=x)
        if isinstance(x, str):
            return CircleScalar(angle=Fraction(x))
        if isinstance(x, int):
            if x == 1:
                return CircleScalar.one()
            if x == -1:
                return CircleScalar(angle=Fraction(1, 2))
            raise ValueError(f"{x} is not on the unit circle")
        if isinstance(x, (float, complex)):
            return CircleScalar(z=x)
        raise TypeError(f"cannot coerce {type(x).__name__} to CircleScalar")

    @property
    def is_exact(self) -> bool:
        return self.angle is not None

    def __mul__(self, other):
        if not isinstance(other, CircleScalar):
            return NotImplemented
        if self.is_exact and other.is_exact:
            return CircleScalar(angle=self.angle + other.angle)
        return CircleScalar(z=self.to_complex() * other.to_complex())

    def to_complex(self) -> complex:
        if self.is_exact:
            quarter = _QUARTER_TURNS.get(self.angle)
            if quarter is not None:
                return quarter
            return cmath.exp(1j * TWO_PI * float(self.angle))
        return self.z

    def is_one(self) -> bool:
        if self.is_exact:
            return self.angle == 0
        return abs(self.z - 1.0) <= APPROX_TOL

    def __eq__(self, other):
        if not isinstance(other, CircleScalar):
            try:
                other = CircleScalar.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self.is_exact and other.is_exact:
            return self.angle == other.angle
        return self.to_complex() == other.to_complex()

    def __repr__(self):
        if self.is_exact:
            return f"e({self.angle})"
        return f"circle({self.z:.6f})"


def cmul(a, b) -> np.ndarray:
    """a * b for complex arrays, each real product rounded on its own as
    Python's complex multiplication does.  numpy's complex multiply may fuse
    multiply-adds, which moves the last digits of the reported norms and
    makes a product depend on the order of its factors."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def spectral_norms(matrices: list[np.ndarray]) -> list:
    """The spectral norm of each matrix, as ``np.linalg.norm(M, 2)`` gives it,
    from one stacked SVD per matrix shape; 0.0 for an empty matrix.  A stack
    of matrices (..., r, c) gets an array of norms over its leading axes."""
    norms = [np.zeros(M.shape[:-2]) if M.ndim > 2 else 0.0 for M in matrices]
    for shape in {M.shape for M in matrices if M.size}:
        index = [i for i, M in enumerate(matrices) if M.shape == shape]
        s = np.linalg.svd(np.stack([matrices[i] for i in index]), compute_uv=False)
        for i, v in zip(index, s.max(axis=-1)):
            norms[i] = v if v.ndim else float(v)
    return norms


_QUARTER_TURNS = {
    Fraction(0): 1 + 0j,
    Fraction(1, 2): -1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(3, 4): -1j,
}

ONE = CircleScalar.one()


# ---------------------------------------------------------------------------
# integer linear algebra: solve A x = w (mod 1) over the rationals.

def solve_mod1(rows: list[list[int]], rhs) -> list[Fraction] | None:
    """Solve an integer linear system modulo 1.

    Diagonalizes A by unimodular row and column operations (mirrored on the
    right-hand side and on a column-transform accumulator), then reads off
    solvability per diagonal entry.  Returns angles in [0, 1) or ``None``
    when no rational solution exists; the criterion is exact, so ``None``
    certifies unsolvability over the reals as well (the right-hand side is
    rational).  Every step runs on ints: the right-hand side as numerators
    over the lcm N of its denominators, the solution over N times the lcm
    of the pivots.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    S = [list(map(int, r)) for r in rows]
    rhs = [Fraction(x) for x in rhs]
    N = math.lcm(*(x.denominator for x in rhs))
    w = [x.numerator * (N // x.denominator) for x in rhs]
    # columns transform: x = C @ y
    C = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_addmul(i, j, q):  # row_i -= q * row_j
        Si, Sj = S[i], S[j]
        for t in range(n):
            Si[t] -= q * Sj[t]
        w[i] -= q * w[j]

    def col_addmul(i, j, q):  # col_i -= q * col_j
        for r in S:
            r[i] -= q * r[j]
        for r in C:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in C:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # locate a nonzero pivot of smallest magnitude
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // p
                    row_addmul(i, t, q)
                    if S[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        p = S[t][t]
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // p
                    col_addmul(j, t, q)
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        p = S[t][t]
            if not dirty:
                break
        t += 1
    rank = t

    if any(w[i] % N for i in range(rank, m)):
        return None
    L = math.lcm(*(S[i][i] for i in range(rank)))
    D = N * L  # y[i] / D = w[i] / (N S[i][i]) mod 1
    y = [w[i] * (L // S[i][i]) % D for i in range(rank)]
    return [Fraction(sum(c * t for c, t in zip(Ci, y) if c) % D, D) for Ci in C]
