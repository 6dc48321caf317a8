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
matrices of all listed units come from one gather (``regular_reps``), or
from one scatter of products (``fiber_products``), per fiber size.  The
reduced norm is the largest spectral norm of these matrices over the units;
the units of one orbit give unitarily equivalent ones, so one unit per
orbit is enough.

Faithfulness and the center dimension are decided exactly, by the
structural arguments in ``full_norm_certificate`` and ``center_dimension``.

An element is exact or numeric.  An exact one is a dict of int, Fraction or
Cyclo coefficients; over an exact cocycle its products and involutions run
on a dict loop that rotates each coefficient by the int angle of w^n, so
they stay exact for the structure-constant certificates.  A numeric one is a
complex array over the arrows, with optional leading batch axes, so that one
call acts on a whole stack of samples; mixing it with an exact one, or a
numeric cocycle, makes the result numeric.  A product is one scatter of the
terms w^n(a, b) f(a) g(b) onto a.b, summed in ``pair_table`` order over
every composable pair; the involution is a gather through the inverse map.
Each term rounds as Python's complex product does (``exact.cmul``): numpy's
own array multiply may fuse multiply-adds, which would make the reported
residuals depend on the CPU.  The complex table of w^n holds e(x / N) as
``CircleScalar.to_complex`` gives it for each exact angle x, and the powers
z ** n of a numeric cocycle's values as numpy takes them.
"""

from __future__ import annotations

import math
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
        """w^n as complex values: e(x / N) as ``CircleScalar.to_complex`` gives
        it for each int angle x, or the numeric power table itself."""
        w = self.cocycle
        return root_values(self.powers, w.conductor) if w.is_exact else self.powers

    @cached_property
    def orbit_units(self) -> list[int]:
        """The first unit of each orbit, ascending: the units u that are the
        least range of an arrow with source u."""
        G = self.groupoid
        least = np.arange(G.n_units)
        np.minimum.at(least, np.asarray(G.source_map, dtype=np.intp), G.range_map)
        return np.flatnonzero(least == np.arange(G.n_units)).tolist()

    @property
    def dimension(self) -> int:
        return self.groupoid.n_arrows

    def same_tag(self, other: "TwistedAlgebra") -> bool:
        same = other.groupoid is self.groupoid and other.cocycle is self.cocycle
        return same and other.power == self.power

    # -- element constructors ------------------------------------------------

    def element(self, coeff) -> "AlgebraElement":
        return AlgebraElement(self, coeff)

    def delta(self, arrow: int, coeff=1) -> "AlgebraElement":
        return AlgebraElement(self, {arrow: coeff})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def identity(self) -> "AlgebraElement":
        """Indicator of the unit arrows; the multiplicative unit because the
        cocycle is normalized."""
        return AlgebraElement(self, {a: 1 for a in self.groupoid.unit_to_arrow})

    # -- operations ------------------------------------------------------------

    def _rotated(self, a: int, b: int, coeff, sign: int):
        """The exact coefficient rotated by sign times the angle of w^n(a, b)."""
        angle = Fraction(sign * self.powers.item(a, b), self.cocycle.conductor)
        return Cyclo.coerce(coeff).rotated(angle)

    def convolve(self, f: "AlgebraElement", g: "AlgebraElement") -> "AlgebraElement":
        if f.algebra is not self or not self.same_tag(g.algebra):
            raise AlgebraError("convolution across different algebra tags")
        if f.is_numeric or g.is_numeric or not self.cocycle.is_exact:
            return AlgebraElement(self, products(self.groupoid, self.twist, f.array(), g.array()))
        G = self.groupoid
        out: dict = {}
        for a, ca in f.coeff.items():
            for b, cb in g.coeff.items():
                c = G.compose_or_none(a, b)
                if c is not None:
                    term = self._rotated(a, b, ca * cb, 1)
                    out[c] = out[c] + term if c in out else term
        return AlgebraElement(self, out)

    def involute(self, f: "AlgebraElement") -> "AlgebraElement":
        if f.is_numeric or not self.cocycle.is_exact:
            return AlgebraElement(self, stars(self.groupoid, self.twist, f.array()))
        inv = self.groupoid.inverse_map
        out = {inv[a]: self._rotated(inv[a], a, c.conjugate(), -1) for a, c in f.coeff.items()}
        return AlgebraElement(self, out)

    # -- representation and norms ----------------------------------------------

    def regular_rep(self, f: "AlgebraElement", u: int) -> "RegularRep":
        """lambda_u(f), the ``regular_reps`` gather at the one unit u; over a
        batch of elements, one matrix per batch row."""
        if not (0 <= u < self.groupoid.n_units):
            raise AlgebraError(f"unknown unit {u}")
        [(_, fiber)] = fibers(self.groupoid, [u])
        M = regular_reps(self.groupoid, self.twist, f.array(), fiber)[..., 0, :, :]
        return RegularRep(unit=u, basis=self.groupoid.source_fiber(u), matrix=M)

    def reduced_norm(self, f: "AlgebraElement") -> "NormReport":
        """The largest norm of lambda_u(f), over the first unit u of each
        orbit: the regular representations at the units of one orbit are
        unitarily equivalent (J. Renault, *A Groupoid Approach to
        C*-Algebras*, LNM 793, 1980), so they share one norm.  Attained at the
        first such unit that reaches it; all of them in one ``unit_norms``
        pass.  Over a batch of elements both are arrays over the batch axes."""
        units = self.orbit_units
        faithful = self.full_norm_certificate().faithful
        if not units:
            return NormReport(reduced_norm=0.0, attained_at=None, faithful=faithful)
        norms = unit_norms(self.groupoid, self.twist, f.array(), units)
        norm, at = norms.max(axis=-1), np.array(units)[norms.argmax(axis=-1)]
        return NormReport(norm if norm.ndim else float(norm), at if at.ndim else int(at), faithful)

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
        G, arrows = self.groupoid, np.arange(self.groupoid.n_arrows)
        units = np.array(G.unit_to_arrow, dtype=np.intp)[np.array(G.source_map, dtype=np.intp)]
        rank = int((G.compose_array[arrows, units] == arrows).sum())
        note = (
            "finite-dimensional *-algebra with a faithful *-representation "
            "has a unique C*-norm; hence full norm = reduced norm"
        )
        self._faithfulness = FullNormCertificate(rank == G.n_arrows, rank, G.n_arrows, note)
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
    """An element of one algebra: exact coefficients as a dict over the
    arrows, or numeric ones as a complex array ``values`` over the arrows,
    with optional leading batch axes.  A dict with a float or complex
    coefficient, or an array, makes a numeric element."""

    __slots__ = ("algebra", "_coeff", "values")

    def __init__(self, algebra: TwistedAlgebra, coeff):
        self.algebra = algebra
        if isinstance(coeff, dict) and all(isinstance(c, _EXACT) for c in coeff.values()):
            self._coeff, self.values = {a: c for a, c in coeff.items() if c}, None
        elif isinstance(coeff, dict):
            self._coeff, self.values = None, np.zeros(algebra.dimension, dtype=complex)
            self.values[list(coeff)] = [complex(c) for c in coeff.values()]
        else:
            self._coeff, self.values = None, np.asarray(coeff, dtype=complex)

    @property
    def coeff(self) -> dict:
        """The nonzero coefficients by arrow; a numeric element's in ascending
        arrow order, as complex values."""
        if self.values is None:
            return self._coeff
        arrows = np.flatnonzero(self.values)
        return dict(zip(arrows.tolist(), self.values[arrows].tolist()))

    def array(self) -> np.ndarray:
        """The coefficients as a complex array over the arrows."""
        if self.values is not None:
            return self.values
        out = np.zeros(self.algebra.dimension, dtype=complex)
        out[list(self._coeff)] = [complex(c) for c in self._coeff.values()]
        return out

    @property
    def is_zero(self) -> bool:
        return not self._coeff if self.values is None else not self.values.any()

    @property
    def is_numeric(self) -> bool:
        return self.values is not None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not self.algebra.same_tag(other.algebra):
            raise AlgebraError("mixing algebra tags")
        if self.is_numeric or other.is_numeric:
            return AlgebraElement(self.algebra, self.array() + other.array())
        out = dict(self._coeff)
        for a, c in other._coeff.items():
            out[a] = out[a] + c if a in out else c
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "AlgebraElement":
        if self.is_numeric or not isinstance(c, _EXACT):
            return AlgebraElement(self.algebra, self.array() * c)
        return AlgebraElement(self.algebra, {a: v * c for a, v in self._coeff.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.convolve(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def star(self) -> "AlgebraElement":
        return self.algebra.involute(self)

    def value(self, arrow: int):
        return self._coeff.get(arrow, 0) if self.values is None else self.values[..., arrow]

    def equals(self, other: "AlgebraElement", tol: float = 0.0) -> bool:
        """Equal coefficients: exact ones exactly, numeric ones (on every
        batch row) within tol."""
        if not self.algebra.same_tag(other.algebra):
            return False
        if self.is_numeric or other.is_numeric:
            return bool((np.abs(self.array() - other.array()) <= tol).all())
        return not any(self.value(a) - other.value(a) for a in set(self._coeff) | set(other._coeff))

    def sup_difference(self, other: "AlgebraElement") -> float:
        """The largest modulus of a coefficient difference, over every batch row."""
        return float(np.abs(self.array() - other.array()).max(initial=0.0))

    def __repr__(self):
        labels = self.algebra.groupoid.arrow_labels
        if self.values is not None and self.values.ndim > 1:
            return f"<{self.values.shape[:-1]} stack of elements of {self.algebra!r}>"
        parts = [f"{c!r}*d[{labels[a]}]" for a, c in sorted(self.coeff.items())]
        return " + ".join(parts) or "0"


_EXACT = (int, Fraction, Cyclo)


def summed(terms: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """out[..., i], the sum of terms[..., p] over the p with index[p] = i,
    added in order of p from 0.0 (as ``np.bincount`` adds), for every leading
    index of terms."""
    lead = terms.shape[:-1]
    n = math.prod(lead) * size
    at = (np.arange(math.prod(lead))[:, None] * size + index).ravel()
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(at, terms.real.ravel(), n)
    out.imag = np.bincount(at, terms.imag.ravel(), n)
    return out.reshape(lead + (size,))


def fibers(G: FiniteGroupoid, units) -> list[tuple[np.ndarray, np.ndarray]]:
    """The listed units grouped by the size d of their source fibers, in
    order of first appearance: each group's positions in the list, and its
    fibers as an int array (units, d), each in ascending arrow order."""
    fiber, groups = G.source_fiber, {}
    for i, u in enumerate(units):
        groups.setdefault(len(fiber(u)), []).append(i)
    return [(np.array(at), np.array([fiber(units[i]) for i in at])) for at in groups.values()]


def regular_reps(G: FiniteGroupoid, twist: np.ndarray, x: np.ndarray, fiber: np.ndarray):
    """lambda_u(x) at the unit of each row of ``fiber`` (units, d), gathered:
    M[..., u, i, j] = x[a] w^n(a, b_j), a = b_i b_j^-1, over u's fiber b.
    ``twist`` is one table of w^n, or a stack broadcast against x (...,
    arrows), as in ``products``; the matrices are (..., units, d, d)."""
    a = G.compose_array[fiber[:, :, None], np.asarray(G.inverse_map, dtype=np.intp)[fiber[:, None]]]
    return cmul(x[..., a], twist[..., a, fiber[:, None]])


def fiber_products(G: FiniteGroupoid, twist: np.ndarray, x: np.ndarray, fiber: np.ndarray):
    """lambda_u(x) at the unit of each row of ``fiber``, built from the
    product instead: column j holds x * delta_b for the j-th arrow b of u's
    fiber.  x meets every delta in one scatter of the product's terms over
    the pairs (a, b) of ``pair_table`` with b in a listed fiber (then a.b is
    in it too), keyed (unit, pos(a.b), pos(b)) and summed in pair order."""
    (A, B, C), (units, d) = G.pair_table, fiber.shape
    key = np.full(G.n_arrows, -1)
    key[fiber.ravel()] = np.arange(units * d)  # the unit's row times d, plus pos
    p = np.flatnonzero(key[B] >= 0)
    one = np.ones(len(p), dtype=complex)  # each delta's coefficient, as 1 + 0j
    terms = cmul(twist[..., A[p], B[p]], cmul(x[..., A[p]], one))
    out = summed(terms, key[C[p]] * d + key[B[p]] % d, units * d * d)
    return out.reshape(terms.shape[:-1] + (units, d, d))


def unit_norms(G: FiniteGroupoid, twist: np.ndarray, x: np.ndarray, units) -> np.ndarray:
    """The spectral norm of lambda_u(x) at each listed unit, (..., units):
    one ``regular_reps`` gather and one SVD call per fiber size."""
    groups = fibers(G, units)
    norms = spectral_norms([regular_reps(G, twist, x, fiber) for _, fiber in groups])
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], twist.shape[:-2]) + (len(units),))
    for (at, _), norm in zip(groups, norms):
        out[..., at] = norm
    return out


def products(G: FiniteGroupoid, twist: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The twisted products of the coefficient arrays x and y (..., arrows):
    the terms twist[a, b] (x[a] y[b]) of every composable pair, each rounded
    as Python's complex product, summed onto a.b in ``pair_table`` order.
    ``twist`` is one table of w^n, or a stack broadcast against x and y."""
    A, B, C = G.pair_table
    return summed(cmul(twist[..., A, B], cmul(x[..., A], y[..., B])), C, G.n_arrows)


def stars(G: FiniteGroupoid, twist: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The involutions of the coefficient arrays x (..., arrows), gathered:
    conj(w^n(c, c^-1)) conj(x[c^-1]) at each arrow c."""
    inv = np.asarray(G.inverse_map, dtype=np.intp)
    return cmul(twist[..., np.arange(G.n_arrows), inv].conj(), x[..., inv].conj())


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
