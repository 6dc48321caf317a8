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

Coefficients may be exact (int/Fraction/Cyclo) or numeric (complex) and are
combined with plain operators; exact coefficients with exact cocycle values
stay exact through products and involutions, which is what the
structure-constant certificates use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import TwoCocycle
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
        self._twist = cocycle.power_table(self.power).tolist()
        self._faithfulness = None
        self._center_dimension = None

    def sigma(self, a: int, b: int):
        """The twisting value w^n(a, b), read off the table of w^n."""
        return self.cocycle.circle(self._twist[a][b])

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

    def convolve(self, f: "AlgebraElement", g: "AlgebraElement") -> "AlgebraElement":
        if f.algebra is not self or not self.same_tag(g.algebra):
            raise AlgebraError("convolution across different algebra tags")
        G = self.groupoid
        out: dict = {}
        for a, ca in f.coeff.items():
            for b, cb in g.coeff.items():
                c = G.compose_or_none(a, b)
                if c is None:
                    continue
                term = self.sigma(a, b).times(ca * cb)
                acc = out.get(c)
                out[c] = term if acc is None else acc + term
        return AlgebraElement(self, out)

    def involute(self, f: "AlgebraElement") -> "AlgebraElement":
        G = self.groupoid
        out = {}
        for a, ca in f.coeff.items():
            ai = G.inv(a)
            out[ai] = self.sigma(ai, a).conj().times(ca.conjugate())
        return AlgebraElement(self, out)

    # -- representation and norms ----------------------------------------------

    def regular_rep(self, f: "AlgebraElement", u: int) -> "RegularRep":
        G = self.groupoid
        if not (0 <= u < G.n_units):
            raise AlgebraError(f"unknown unit {u}")
        basis = G.source_fiber(u)
        pos = {b: i for i, b in enumerate(basis)}
        M = np.zeros((len(basis), len(basis)), dtype=complex)
        for a, ca in f.coeff.items():
            za = complex(ca)
            for j, b in enumerate(basis):
                c = G.compose_or_none(a, b)
                if c is None:
                    continue
                M[pos[c], j] += za * self.sigma(a, b).to_complex()
        return RegularRep(unit=u, basis=basis, matrix=M)

    def reduced_norm(self, f: "AlgebraElement") -> "NormReport":
        best = 0.0
        best_u = None
        for u in self.groupoid.units():
            m = self.regular_rep(f, u).matrix
            nrm = float(np.linalg.norm(m, 2)) if m.size else 0.0
            if best_u is None or nrm > best:
                best, best_u = nrm, u
        return NormReport(
            reduced_norm=best,
            attained_at=best_u,
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
        *Projective Representations of Finite Groups*, 1985).  Circle values
        are compared by ``CircleScalar.isclose``, exactly on exact angles.
        """
        if self._center_dimension is not None:
            return self._center_dimension
        G = self.groupoid
        dec = orbit_decomposition(G)
        total = 0
        for orbit in dec.orbits:
            H = dec.isotropy[orbit[0]]
            seen = set()
            for g in H:
                if g in seen:
                    continue
                seen.update(G.compose(G.compose(h, g), G.inv(h)) for h in H)
                total += all(
                    self.sigma(g, h).isclose(self.sigma(h, g))
                    for h in H
                    if G.compose(g, h) == G.compose(h, g)
                )
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


def cocycle_change_isomorphism(
    alg_src: TwistedAlgebra, alg_dst: TwistedAlgebra, b
) -> bool:
    """Verify on structure constants that f -> b.f is a *-isomorphism from
    C(G, w) onto C(G, w * conj(coboundary(b))), for a cochain b that is 1 on
    unit arrows.  This witnesses that the algebra depends on the cocycle only
    through its cohomology class."""
    G = alg_src.groupoid
    if alg_dst.groupoid is not G:
        raise AlgebraError("isomorphism check needs a common groupoid")

    def T(f: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            alg_dst, {a: b.value(a).times(c) for a, c in f.coeff.items()}
        )

    for x in G.arrows():
        dx = alg_src.delta(x)
        if not T(dx.star()).equals(T(dx).star(), tol=1e-10):
            return False
        for y in G.arrows():
            dy = alg_src.delta(y)
            lhs = T(dx * dy)
            rhs = T(dx) * T(dy)
            if not lhs.equals(rhs, tol=1e-10):
                return False
    return True
