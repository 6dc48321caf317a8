"""Fixed-point algebra and imprimitivity inner products at finite scale.

For a principal finite groupoid the algebra-valued inner product of two
functions on units is

    <f, g>(a) = f(range(a)) * conj(g(source(a))),

an element of the untwisted algebra C(G).  Lifted to any circle extension it
is independent of the circle coordinate, hence purely mode 0; the two-sided
ideal it generates inside C(G) is everything, while inside the extension
algebra it only ever fills the mode-0 summand (the action is far from
saturated).  Those three statements are what this module checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclic_oracle as oracle
from .algebra import AlgebraElement, TwistedAlgebra
from .cocycle import TwoCocycle
from .groupoid import FiniteGroupoid, orbit_decomposition, principal_obstruction


class MoritaError(ValueError):
    pass


@dataclass
class BimoduleElement:
    """A finitely-supported function on units, the dense part of the
    imprimitivity bimodule."""

    groupoid: FiniteGroupoid
    coeff: dict

    def value(self, u: int):
        return self.coeff.get(u, 0)

    @staticmethod
    def delta(groupoid: FiniteGroupoid, u: int, c=1) -> "BimoduleElement":
        return BimoduleElement(groupoid, {u: c})


def _require_principal(g: FiniteGroupoid, what: str):
    bad = principal_obstruction(g)
    if bad is not None:
        raise MoritaError(
            f"{what}: proposition hypotheses not met (isotropy arrow "
            f"{g.arrow_labels[bad]})"
        )


def left_inner(f: BimoduleElement, g: BimoduleElement, algebra: TwistedAlgebra) -> AlgebraElement:
    """<f, g>(a) = f(r(a)) conj(g(s(a))) in the untwisted algebra."""
    if algebra.power != 0:
        raise MoritaError("inner products land in the untwisted algebra (power 0)")
    G = algebra.groupoid
    if f.groupoid is not G or g.groupoid is not G:
        raise MoritaError("bimodule elements live on a different groupoid")
    _require_principal(G, "left_inner")
    out = {}
    for a in G.arrows():
        v = f.value(G.r(a)) * g.value(G.s(a)).conjugate()
        if v:
            out[a] = v
    return AlgebraElement(algebra, out)


@dataclass
class FixedPointAlgebra:
    """Complex functions on the orbit space, with pointwise operations."""

    groupoid: FiniteGroupoid
    orbits: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.orbits)

    def multiply(self, x: dict, y: dict) -> dict:
        return {o: x[o] * y[o] for o in set(x) & set(y)}


def fixed_point_algebra(g: FiniteGroupoid) -> FixedPointAlgebra:
    _require_principal(g, "fixed_point_algebra")
    return FixedPointAlgebra(g, orbit_decomposition(g).orbits)


def positivity_check(f: BimoduleElement, tol: float = 1e-12) -> bool:
    """Every regular-representation matrix of <f, f> is positive
    semidefinite (it is a rank-one Gram matrix)."""
    g = f.groupoid
    algebra = TwistedAlgebra(g, TwoCocycle.trivial(g), 0)
    x = left_inner(f, f, algebra)
    for u in g.units():
        m = algebra.regular_rep(x, u).matrix
        if m.size == 0:
            continue
        vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if vals.min() < -tol:
            return False
    return True


@dataclass
class FullnessCertificate:
    ideal_dimension: int
    algebra_dimension: int
    orbit_count: int

    @property
    def full(self) -> bool:
        return self.ideal_dimension == self.algebra_dimension


def fullness_check(g: FiniteGroupoid) -> FullnessCertificate:
    """The ideal of C(G) generated by the inner products of unit deltas has
    dimension |arrows|: the bimodule is full over the groupoid algebra."""
    _require_principal(g, "fullness_check")
    algebra = TwistedAlgebra(g, TwoCocycle.trivial(g), 0)
    gens = [
        left_inner(BimoduleElement.delta(g, u), BimoduleElement.delta(g, v), algebra)
        for u in g.units()
        for v in g.units()
    ]

    def dense(x: AlgebraElement) -> np.ndarray:
        v = np.zeros(algebra.dimension, dtype=complex)
        for a, c in x.coeff.items():
            v[a] = complex(c)
        return v

    def element(v: np.ndarray) -> AlgebraElement:
        return algebra.element({int(a): complex(v[a]) for a in np.flatnonzero(v)})

    dim = oracle.ideal_dimension(
        [dense(x) for x in gens],
        lambda F, H: [dense(element(f) * element(h)) for f, h in zip(F, H)],
    )
    return FullnessCertificate(
        ideal_dimension=dim,
        algebra_dimension=g.n_arrows,
        orbit_count=len(orbit_decomposition(g).orbits),
    )


# ---------------------------------------------------------------------------
# lifts into a circle extension, checked against the cyclic oracle

@dataclass
class SaturationReport:
    k: int
    inner_products: int
    mode_zero_ok: bool
    ideal_dimension: int
    mode_zero_summand_dimension: int
    nonzero_mode_leakage: float

    @property
    def not_saturated(self) -> bool:
        # at k = 1 the extension is trivial and mode 0 is the whole algebra;
        # for k >= 2 the ideal misses the other modes
        return self.k > 1 and self.ideal_dimension == self.mode_zero_summand_dimension


def saturation_report(
    g: FiniteGroupoid, w: TwoCocycle, k: int, pairs: list[tuple[BimoduleElement, BimoduleElement]]
) -> SaturationReport:
    """Lift inner products into the finite cyclic extension and measure their
    mode content: all mass in mode 0, and the generated ideal exactly the
    mode-0 summand (dimension |arrows|), never the whole extension algebra."""
    _require_principal(g, "saturation_report")
    ext = oracle.CyclicExtension(g, w, k)

    def lift(f: BimoduleElement, h: BimoduleElement) -> np.ndarray:
        # constant along the circle coordinate
        row = np.zeros(g.n_arrows, dtype=complex)
        for a in g.arrows():
            row[a] = f.value(g.r(a)) * h.value(g.s(a)).conjugate()
        return np.tile(row, k)

    leakage = 0.0
    for L in (lift(f, h) for f, h in pairs):
        for n in range(1, k):
            p = oracle.mode_projection(ext, L, n)
            leakage = max(leakage, float(oracle.magnitude(p).max(initial=0.0)))
        p0 = oracle.mode_projection(ext, L, 0)
        leakage = max(leakage, float(oracle.magnitude(L - p0).max(initial=0.0)))
    mode_zero_ok = leakage <= 1e-12

    unit_gens = [
        lift(BimoduleElement.delta(g, u), BimoduleElement.delta(g, v))
        for u in g.units()
        for v in g.units()
    ]
    ideal_dim = oracle.ideal_dimension(unit_gens, lambda F, H: oracle.conv(ext, F, H))
    return SaturationReport(
        k=k,
        inner_products=len(pairs),
        mode_zero_ok=mode_zero_ok,
        ideal_dimension=ideal_dim,
        mode_zero_summand_dimension=g.n_arrows,
        nonzero_mode_leakage=leakage,
    )
