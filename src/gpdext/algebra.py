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

Coefficients may be exact (int/Fraction/Cyclo) or numeric (complex) and are
combined with plain operators; exact coefficients with exact cocycle values
stay exact through products and involutions, which is what the
structure-constant certificates use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import TwoCocycle
from .groupoid import FiniteGroupoid


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
        self._sigma_cache: dict = {}
        self._faithfulness = None
        self._center_dimension = None

    def sigma(self, a: int, b: int):
        """The twisting value w^n(a, b)."""
        key = (a, b)
        v = self._sigma_cache.get(key)
        if v is None:
            v = self.cocycle.value(a, b) ** self.power
            self._sigma_cache[key] = v
        return v

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

    def structure_constant(self, a: int, b: int):
        """delta_a * delta_b = sigma(a,b) delta_{ab}, or None when not composable."""
        c = self.groupoid.compose_or_none(a, b)
        if c is None:
            return None
        return c, self.sigma(a, b)

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

        The direct sum of the left-regular representations over all units is
        checked to be injective by an explicit rank computation.  A faithful
        *-representation of a finite-dimensional *-algebra carries its unique
        C*-norm, so the maximal norm over all representations is already
        attained by the regular ones.
        """
        if self._faithfulness is not None:
            return self._faithfulness
        G = self.groupoid
        dim = G.n_arrows
        blocks = []
        per_unit_rank = {}
        for u in G.units():
            fiber = G.source_fiber(u)
            cols = np.zeros((len(fiber) ** 2, dim), dtype=complex)
            for a in G.arrows():
                cols[:, a] = self.regular_rep(self.delta(a), u).matrix.reshape(-1)
            per_unit_rank[u] = int(np.linalg.matrix_rank(cols)) if cols.size else 0
            blocks.append(cols)
        stacked = np.vstack(blocks) if blocks else np.zeros((0, dim))
        rank = int(np.linalg.matrix_rank(stacked)) if stacked.size else 0
        cert = FullNormCertificate(
            faithful=(rank == dim),
            rank=rank,
            dimension=dim,
            per_unit_rank=per_unit_rank,
            note=(
                "finite-dimensional *-algebra with a faithful *-representation "
                "has a unique C*-norm; hence full norm = reduced norm"
            ),
        )
        self._faithfulness = cert
        return cert

    def center_dimension(self) -> int:
        """Dimension of the center, by solving [x, delta_b] = 0 for all b."""
        if self._center_dimension is not None:
            return self._center_dimension
        G = self.groupoid
        m = G.n_arrows
        if m == 0:
            return 0
        rows = np.zeros((m * m, m), dtype=complex)
        for b in G.arrows():
            for a in G.arrows():
                ab = G.compose_or_none(a, b)
                if ab is not None:
                    rows[b * m + ab, a] += self.sigma(a, b).to_complex()
                ba = G.compose_or_none(b, a)
                if ba is not None:
                    rows[b * m + ba, a] -= self.sigma(b, a).to_complex()
        self._center_dimension = m - int(np.linalg.matrix_rank(rows))
        return self._center_dimension

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

    def isclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        return self.equals(other, tol=tol)

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
    per_unit_rank: dict
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
