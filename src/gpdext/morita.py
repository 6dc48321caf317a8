"""Imprimitivity inner products and the ideals they generate, at finite scale.

For a principal finite groupoid the algebra-valued inner product of two
functions on units is

    <f, g>(a) = f(range(a)) * conj(g(source(a))),

an element of the untwisted algebra C(G).  Lifted to the algebra of a cyclic
extension mu_k x_w G it is constant along the circle coordinate, hence purely
mode 0, and the two-sided ideal that the inner products of unit deltas
generate there is exactly the mode-0 summand: for k >= 2 the action is far
from saturated.  At k = 1 the extension is G itself, so the same ideal
computation shows the bimodule is full over C(G).  Both ideals are computed
in the cyclic oracle's algebra by ``cyclic_oracle.ideal_dimension``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclic_oracle as oracle
from .algebra import AlgebraElement, TwistedAlgebra, fibers, regular_reps
from .cocycle import TwoCocycle
from .exact import cmul
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
    out = {a: f.value(G.r(a)) * g.value(G.s(a)).conjugate() for a in G.arrows()}
    return AlgebraElement(algebra, out)


# Smallest eigenvalue accepted in a positive semidefinite regular matrix:
# the matrices of <f, f> are rank-one Gram matrices v v*, whose computed
# eigenvalues sit a few rounding errors below 0 at worst.
POSITIVITY_TOL = 1e-12


def positivity_check(g: FiniteGroupoid, elements: list[BimoduleElement]) -> bool:
    """Every regular-representation matrix of <f, f>, for every f of the
    elements on g, is positive semidefinite (it is a rank-one Gram matrix);
    one untwisted algebra serves them all.  The matrices of every element
    at every unit come from one ``regular_reps`` gather per fiber size,
    their eigenvalues from one ``eigvalsh`` call per fiber shape."""
    algebra = TwistedAlgebra(g, TwoCocycle.trivial(g), 0)
    x = np.array([left_inner(f, f, algebra).array() for f in elements])
    x = x.reshape(len(elements), g.n_arrows)
    for _, fiber in fibers(g, g.units()):
        m = regular_reps(g, algebra.twist, x, fiber)
        m = (m + m.conj().swapaxes(-1, -2)) / 2
        if np.linalg.eigvalsh(m).min(initial=0.0) < -POSITIVITY_TOL:
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


def _lifts(ext: oracle.CyclicExtension, pairs) -> np.ndarray:
    """The inner products <f, h>(a) = f(r(a)) conj(h(s(a))) of the pairs as
    a stack of numeric elements of the extension algebra, constant along the
    circle coordinate."""
    g = ext.base
    V = np.array(
        [[x.value(u) for u in g.units()] for pair in pairs for x in pair], dtype=complex
    ).reshape(len(pairs), 2, g.n_units)
    r, s = (np.asarray(m, dtype=np.intp) for m in (g.range_map, g.source_map))
    rows = cmul(V[:, 0, r], V[:, 1, s].conj())
    return np.tile(rows, ext.k)


def _unit_pair_lifts(ext: oracle.CyclicExtension) -> np.ndarray:
    """The lifts of <delta_u, delta_v> over all pairs of units."""
    g = ext.base
    delta = BimoduleElement.delta
    return _lifts(ext, [(delta(g, u), delta(g, v)) for u in g.units() for v in g.units()])


def fullness_check(g: FiniteGroupoid) -> FullnessCertificate:
    """The ideal of C(G) generated by the inner products of unit deltas has
    dimension |arrows|: the bimodule is full over the groupoid algebra.  This
    is the ideal of ``saturation_report`` at k = 1, where mu_1 x G is G."""
    _require_principal(g, "fullness_check")
    ext = oracle.CyclicExtension(g, TwoCocycle.trivial(g), 1)
    return FullnessCertificate(
        ideal_dimension=oracle.ideal_dimension(ext, _unit_pair_lifts(ext)),
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


# Mass outside mode 0 at or below this is rounding: each projected value is
# a sum of k values of size about 1, each turned by a root of unity.
LEAKAGE_TOL = 1e-12


def saturation_report(
    g: FiniteGroupoid, w: TwoCocycle, k: int, pairs: list[tuple[BimoduleElement, BimoduleElement]]
) -> SaturationReport:
    """Lift inner products into the finite cyclic extension and measure their
    mode content: all mass in mode 0, and the generated ideal exactly the
    mode-0 summand (dimension |arrows|), never the whole extension algebra."""
    _require_principal(g, "saturation_report")
    ext = oracle.CyclicExtension(g, w, k)
    L = _lifts(ext, pairs)
    # what mode 0 misses, and every other mode, over the whole stack at once
    off = [L - oracle.mode_projection(ext, L, 0)]
    off += [oracle.mode_projection(ext, L, n) for n in range(1, k)]
    leakage = max(float(oracle.magnitude(p).max(initial=0.0)) for p in off)
    return SaturationReport(
        k=k,
        inner_products=len(pairs),
        mode_zero_ok=leakage <= LEAKAGE_TOL,
        ideal_dimension=oracle.ideal_dimension(ext, _unit_pair_lifts(ext)),
        mode_zero_summand_dimension=g.n_arrows,
        nonzero_mode_leakage=leakage,
    )
