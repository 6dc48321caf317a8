"""Twisted convolution *-algebras of finite groupoids.

For a finite groupoid G with counting-measure fibers and a normalized
2-cocycle w, the algebra C(G, w^n) is the space of functions on arrows with

    (f * g)(c)  =  sum over factorizations c = a.b of  f(a) g(b) w^n(a, b)
    f~(c)       =  conj(f(c^-1)) conj(w^n(c, c^-1))

The left-regular representation at a unit u acts on functions over the
source fiber s^-1(u); on that basis an element f acts by the matrix

    M[c, b] = f(c b^-1) w^n(c b^-1, b)

which is multiplicative and *-preserving for normalized cocycles (the
cocycle identity on (c b^-1, b d^-1, d) is exactly what is needed).  The
reduced norm is the largest spectral norm of these matrices over all units.

Faithfulness and the center dimension are decided exactly, by the
structural arguments in ``full_norm_certificate`` and ``center_dimension``.

An element is a dict of coefficients, exact (int/Fraction/Cyclo) or numeric
(float/complex), and every operation reads the table of w^n, ``powers``.
Numeric elements are combined in arrays over the groupoid's compiled tables:
a product is one scatter of the terms w^n(a, b) f(a) g(b) onto a.b through
``compose_array``, the involution is a gather through the inverse map, and M
is one gather at c b^-1.  The complex table of w^n holds, entry by entry,
the float ``CircleScalar.to_complex`` gives, and products round as Python's
do (``exact.cmul``).  A sum runs over a in the left operand's support order,
and a product's keys come in the order they are first touched, as in the
exact loop: the reports print residuals near 1e-16 to 11 digits, so another
order would move their bytes.  Exact elements stay on a dict loop, which
reads the int angle table of w^n and rotates each exact coefficient by its
angle, so products and involutions stay exact for the structure-constant
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cocycle import TwoCocycle, root_values
from .exact import CLOSE_TOL, Cyclo, cmul, spectral_norms
from .groupoid import FiniteGroupoid, orbit_decomposition


class AlgebraError(ValueError):
    pass


class TwistedAlgebra:
    """The *-algebra C(G, w^n) for a fixed groupoid, cocycle and integer power.

    The triple (groupoid, cocycle, power) is the algebra tag; elements refuse
    to combine across different tags.
    """

    def __init__(self, groupoid: FiniteGroupoid, cocycle: TwoCocycle, power: int = 1):
        if cocycle.base is not groupoid:
            raise AlgebraError("cocycle is not defined on this groupoid")
        cocycle.require_checked("twisted algebra")
        if not cocycle.normalized:
            raise AlgebraError("twisted algebra needs a normalized cocycle")
        self.groupoid = groupoid
        self.cocycle = cocycle
        self.power = int(power)
        self.powers = cocycle.power_table(self.power)  # w^n: int angles, or complex values
        self._faithfulness = None
        self._center_dimension = None

    @cached_property
    def twist(self) -> np.ndarray:
        """w^n as complex values, each the float ``CircleScalar.to_complex`` gives."""
        if self.cocycle.is_exact:
            return root_values(self.powers, self.cocycle.conductor)
        return _unit(self.powers.tolist())

    @cached_property
    def twist_conj(self) -> np.ndarray:
        """conj(w^n) as complex values: those of the negated angles, or the
        conjugates of ``twist`` normalized once more, as CircleScalar does."""
        if self.cocycle.is_exact:
            return root_values(-self.powers % self.cocycle.conductor, self.cocycle.conductor)
        return _unit(self.twist.conj().tolist())

    @property
    def dimension(self) -> int:
        return self.groupoid.n_arrows

    def same_tag(self, other: "TwistedAlgebra") -> bool:
        return (
            other.groupoid is self.groupoid
            and other.cocycle is self.cocycle
            and other.power == self.power
        )

    # -- element constructors ------------------------------------------------

    def element(self, coeff: dict) -> "AlgebraElement":
        return AlgebraElement(self, coeff)

    def delta(self, arrow: int, coeff=1) -> "AlgebraElement":
        return AlgebraElement(self, {arrow: coeff})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def identity(self) -> "AlgebraElement":
        """Indicator of the unit arrows; the multiplicative unit because the
        cocycle is normalized."""
        return AlgebraElement(self, {a: 1 for a in self.groupoid.unit_to_arrow})

    def basis(self):
        return (self.delta(a) for a in self.groupoid.arrows())

    # -- operations ------------------------------------------------------------

    def _times(self, a: int, b: int, coeff, conj: bool = False):
        """w^n(a, b) * coeff, or conj(w^n(a, b)) * coeff: an exact coefficient
        rotated by the angle of w^n when the cocycle is exact, else a
        complex product."""
        if self.cocycle.is_exact and isinstance(coeff, (int, Fraction, Cyclo)):
            angle = self.powers.item(a, b)
            angle = Fraction(-angle if conj else angle, self.cocycle.conductor)
            return Cyclo.coerce(coeff).rotated(angle)
        return (self.twist_conj if conj else self.twist).item(a, b) * complex(coeff)

    def _terms(self, a: np.ndarray, x: np.ndarray, b: np.ndarray, y: np.ndarray):
        """Every composable pair (a[i], b[j]), in row-major (i, j) order: j, the
        product arrow a[i] b[j] and the term w^n(a[i], b[j]) x[i] y[j]."""
        c = self.groupoid.compose_array[a[:, None], b]
        i, j = np.nonzero(c >= 0)
        return j, c[i, j], cmul(self.twist[a[i], b[j]], cmul(x[i], y[j]))

    def convolve(self, f: "AlgebraElement", g: "AlgebraElement") -> "AlgebraElement":
        if f.algebra is not self or not self.same_tag(g.algebra):
            raise AlgebraError("convolution across different algebra tags")
        if not (f.is_numeric or g.is_numeric):
            return self._exact_convolve(f, g)
        _, c, terms = self._terms(*_support(f), *_support(g))
        # the first term at c sets it and the later ones add in order, so each
        # sum runs over f's support order, as the exact loop's do
        _, first = np.unique(c, return_index=True)
        first.sort()
        keys = c[first]
        later = np.ones(len(c), dtype=bool)
        later[first] = False
        out = np.zeros(self.dimension, dtype=complex)
        out[keys] = terms[first]
        np.add.at(out, c[later], terms[later])
        return AlgebraElement(self, dict(zip(keys.tolist(), out[keys].tolist())))

    def _exact_convolve(self, f: "AlgebraElement", g: "AlgebraElement") -> "AlgebraElement":
        G = self.groupoid
        out: dict = {}
        for a, ca in f.coeff.items():
            for b, cb in g.coeff.items():
                c = G.compose_or_none(a, b)
                if c is None:
                    continue
                term = self._times(a, b, ca * cb)
                acc = out.get(c)
                out[c] = term if acc is None else acc + term
        return AlgebraElement(self, out)

    def involute(self, f: "AlgebraElement") -> "AlgebraElement":
        inv = self.groupoid.inverse_map
        if not f.is_numeric:
            out = {inv[a]: self._times(inv[a], a, c.conjugate(), True) for a, c in f.coeff.items()}
            return AlgebraElement(self, out)
        a = np.fromiter(f.coeff, dtype=np.intp, count=len(f.coeff))
        x = np.fromiter((complex(c.conjugate()) for c in f.coeff.values()), complex, len(a))
        ai = np.array(inv, dtype=np.intp)[a]
        out = cmul(self.twist_conj[ai, a], x)
        return AlgebraElement(self, dict(zip(ai.tolist(), out.tolist())))

    # -- representation and norms ----------------------------------------------

    def regular_rep(self, f: "AlgebraElement", u: int) -> "RegularRep":
        """lambda_u(f), gathered: M[c, b] = f(c b^-1) w^n(c b^-1, b)."""
        G = self.groupoid
        if not (0 <= u < G.n_units):
            raise AlgebraError(f"unknown unit {u}")
        basis = G.source_fiber(u)
        b = np.array(basis, dtype=np.intp)
        a = G.compose_array[b[:, None], np.array(G.inverse_map, dtype=np.intp)[b]]
        arrows, x = _support(f)
        values = np.zeros(self.dimension, dtype=complex)
        values[arrows] = x
        # + 0.0 clears the signs of zero parts, as accumulating into zeros does
        M = cmul(values[a], self.twist[a, b]) + 0.0
        return RegularRep(unit=u, basis=basis, matrix=M)

    def fiber_products(self, f: "AlgebraElement", u: int) -> np.ndarray:
        """lambda_u(f) built from the product: column j holds f * delta_b for the
        j-th arrow b of the source fiber of u.  A numeric f meets every delta
        in one scatter; an exact f takes one exact product per column."""
        fiber = self.groupoid.source_fiber(u)
        M = np.zeros((len(fiber), len(fiber)), dtype=complex)
        if not f.is_numeric:
            for j, b in enumerate(fiber):
                for c, v in self.convolve(f, self.delta(b)).coeff.items():
                    M[fiber.index(c), j] = complex(v)
            return M
        b = np.array(fiber, dtype=np.intp)
        # each delta's coefficient is the int 1, which Python multiplies as 1 + 0j
        j, c, terms = self._terms(*_support(f), b, np.ones(len(b), dtype=complex))
        M[np.searchsorted(b, c), j] = terms
        return M

    def reduced_norm(self, f: "AlgebraElement") -> "NormReport":
        """The largest norm of lambda_u(f) over the units, attained at the first
        unit that reaches it; one SVD call per fibre size."""
        units = list(self.groupoid.units())
        norms = spectral_norms([self.regular_rep(f, u).matrix for u in units])
        best = int(np.argmax(norms)) if norms else None
        return NormReport(
            reduced_norm=0.0 if best is None else norms[best],
            attained_at=None if best is None else units[best],
            faithful=self.full_norm_certificate().faithful,
        )

    def full_norm_certificate(self) -> "FullNormCertificate":
        """Certify that the universal and reduced norms coincide.

        The regular representations are jointly injective, as one column per
        unit shows: lambda_u(f) sends the unit arrow at u to the sum over
        s(a) = u of f(a) w^n(a, u) delta_a, and w^n(a, u) = 1 since the
        cocycle is normalized.  So the unit columns read off f, and the rank
        counts the arrows a with a . 1_{s(a)} = a, in O(arrows).  A faithful
        *-representation of a finite-dimensional *-algebra carries its unique
        C*-norm, so the regular ones attain the full norm (J. Renault, *A
        Groupoid Approach to C*-Algebras*, LNM 793, 1980).
        """
        if self._faithfulness is not None:
            return self._faithfulness
        G = self.groupoid
        rank = sum(G.compose_or_none(a, G.unit_arrow(G.s(a))) == a for a in G.arrows())
        self._faithfulness = FullNormCertificate(
            faithful=(rank == G.n_arrows),
            rank=rank,
            dimension=G.n_arrows,
            note=(
                "finite-dimensional *-algebra with a faithful *-representation "
                "has a unique C*-norm; hence full norm = reduced norm"
            ),
        )
        return self._faithfulness

    def center_dimension(self) -> int:
        """Dimension of the center, in closed form.

        Over each orbit O, C(G, w^n) is M_|O| tensor C^sigma[H], with H the
        isotropy group at a unit of O and sigma = w^n on H (Renault 1980).
        The center of C^sigma[H] has one basis element per sigma-regular
        class: a conjugacy class whose representative g has sigma(g, h) =
        sigma(h, g) for every h in H commuting with g (G. Karpilovsky,
        *Projective Representations of Finite Groups*, 1985).  Values of sigma
        compare as ``CircleScalar.isclose`` compares them: equal angles, or
        complex values within ``CLOSE_TOL``.  H is in ascending order, so the
        least arrow of each class represents it.
        """
        if self._center_dimension is not None:
            return self._center_dimension
        G = self.groupoid
        exact = self.cocycle.is_exact
        table = self.powers if exact else self.twist
        inverse = np.asarray(G.inverse_map, dtype=np.intp)
        dec = orbit_decomposition(G)
        total = 0
        for orbit in dec.orbits:
            H = dec.isotropy[orbit[0]]
            h = np.array(H, dtype=np.intp)
            x, y = table[h[:, None], h], table[h, h[:, None]]  # sigma(g, h), sigma(h, g)
            agree = x == y if exact else np.hypot((x - y).real, (x - y).imag) <= CLOSE_TOL
            gh = G.compose_array[h[:, None], h]
            regular = (agree | (gh != gh.T)).all(axis=1)  # over the h commuting with g
            least = G.compose_array[gh.T, inverse[h]].min(axis=1) == h  # of h g h^-1
            total += int((regular & least).sum())
        self._center_dimension = total
        return total

    def __repr__(self):
        return f"C({self.groupoid.name}, w^{self.power})"


class AlgebraElement:
    """A finitely-supported coefficient vector over the arrows of one algebra."""

    __slots__ = ("algebra", "coeff")

    def __init__(self, algebra: TwistedAlgebra, coeff: dict):
        self.algebra = algebra
        self.coeff = {a: c for a, c in coeff.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.coeff

    @property
    def is_numeric(self) -> bool:
        """Every coefficient is a float or a complex (so the zero element is)."""
        return all(isinstance(c, (float, complex)) for c in self.coeff.values())

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not self.algebra.same_tag(other.algebra):
            raise AlgebraError("mixing algebra tags")
        out = dict(self.coeff)
        for a, c in other.coeff.items():
            out[a] = out[a] + c if a in out else c
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {a: v * c for a, v in self.coeff.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.convolve(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def star(self) -> "AlgebraElement":
        return self.algebra.involute(self)

    def value(self, arrow: int):
        return self.coeff.get(arrow, 0)

    def equals(self, other: "AlgebraElement", tol: float = 0.0) -> bool:
        if not self.algebra.same_tag(other.algebra):
            return False
        for a in set(self.coeff) | set(other.coeff):
            d = self.value(a) - other.value(a)
            # an exact difference must vanish exactly, a numeric one within tol
            close = abs(d) <= tol if isinstance(d, (float, complex)) else not d
            if not close:
                return False
        return True

    def sup_difference(self, other: "AlgebraElement") -> float:
        d = 0.0
        for a in set(self.coeff) | set(other.coeff):
            d = max(d, abs(complex(self.value(a)) - complex(other.value(a))))
        return d

    def __repr__(self):
        labels = self.algebra.groupoid.arrow_labels
        if not self.coeff:
            return "0"
        parts = [f"{c!r}*d[{labels[a]}]" for a, c in sorted(self.coeff.items())]
        return " + ".join(parts)


def _support(f: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """f's arrows in support order, and its coefficients as complex."""
    n = len(f.coeff)
    return (
        np.fromiter(f.coeff, dtype=np.intp, count=n),
        np.fromiter(map(complex, f.coeff.values()), dtype=complex, count=n),
    )


def _unit(rows: list) -> np.ndarray:
    """z / abs(z) for the complex values z of a table, as CircleScalar
    normalizes them: by Python's own division, whose signs of zero parts
    differ between Python versions and from numpy's."""
    return np.array([[z / abs(z) for z in row] for row in rows], dtype=complex)


@dataclass
class RegularRep:
    """Matrix of the left-regular representation at one unit, on the source
    fiber in ascending arrow order."""

    unit: int
    basis: tuple[int, ...]
    matrix: np.ndarray


@dataclass
class NormReport:
    reduced_norm: float
    attained_at: int | None
    faithful: bool


@dataclass
class FullNormCertificate:
    faithful: bool
    rank: int
    dimension: int
    note: str
