"""Imprimitivity inner products and the ideals they generate, at finite scale.

An element of the dense part of the imprimitivity bimodule is a function on
the units, held as a complex array (..., units) with optional leading batch
axes.  For a principal finite groupoid the algebra-valued inner product of
two of them is

    <f, g>(a) = f(range(a)) * conj(g(source(a))),

an element of the untwisted algebra C(G); ``inner_products`` takes it over
whole stacks at once, one gather through the range and source maps.  Lifted
to the algebra of a cyclic extension mu_k x_w G it is constant along the
circle coordinate, hence purely mode 0, and the two-sided ideal that the
inner products of unit deltas generate there is exactly the mode-0 summand:
for k >= 2 the action is far from saturated.  At k = 1 the extension is G
itself, so the same ideal computation shows the bimodule is full over C(G).
Both ideals are computed in the cyclic oracle's algebra by
``cyclic_oracle.ideal_dimension``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclic_oracle as oracle
from .algebra import fibers, regular_reps
from .cocycle import TwoCocycle
from .exact import cmul
from .groupoid import FiniteGroupoid, orbit_units, principal_obstruction


class MoritaError(ValueError):
    pass


def _require_principal(g: FiniteGroupoid, what: str):
    bad = principal_obstruction(g)
    if bad is not None:
        raise MoritaError(
            f"{what}: proposition hypotheses not met (isotropy arrow "
            f"{g.arrow_labels[bad]})"
        )


def inner_products(g: FiniteGroupoid, f, h) -> np.ndarray:
    """<f, h>(a) = f(r(a)) conj(h(s(a))) for stacks f, h (..., units) of
    functions on the units of g, broadcast against each other: (..., arrows),
    each product rounded as Python's complex product."""
    f, h = np.asarray(f, dtype=complex), np.asarray(h, dtype=complex)
    if f.shape[-1:] != (g.n_units,) or h.shape[-1:] != (g.n_units,):
        raise MoritaError(
            f"bimodule elements of {g.n_units} units expected, got shapes {f.shape} and {h.shape}"
        )
    return cmul(f[..., g.range_map], h[..., g.source_map].conj())


# Smallest eigenvalue accepted in a positive semidefinite regular matrix:
# the matrices of <f, f> are rank-one Gram matrices v v*, whose computed
# eigenvalues sit a few rounding errors below 0 at worst.
POSITIVITY_TOL = 1e-12


@dataclass
class PositivityWitness:
    """A failing positivity check: the sample, the unit whose regular matrix
    of <f, f> has an eigenvalue below ``-POSITIVITY_TOL``, and that matrix's
    least eigenvalue."""

    sample: int
    unit: int
    eigenvalue: float


def positivity_check(g: FiniteGroupoid, elements) -> PositivityWitness | None:
    """None when every regular-representation matrix of <f, f>, for every
    row f of the stack (samples, units) on g, is positive semidefinite (it
    is a rank-one Gram matrix); else the first failing (sample, unit).  The
    untwisted algebra's table of w^0 is all ones on the composable pairs;
    the matrices of every row at every unit come from one ``regular_reps``
    gather per fiber size, their eigenvalues from one ``eigvalsh`` call per
    fiber shape."""
    _require_principal(g, "positivity_check")
    x = inner_products(g, elements, elements)
    ones = np.broadcast_to(np.complex128(1), len(g.pair_table[0]))
    least = np.zeros((len(x), g.n_units))  # by (sample, unit)
    for at, fiber in fibers(g, g.units()):
        m = regular_reps(g, ones, x, fiber)
        least[:, at] = np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2).min(axis=-1)
    for i, u in np.argwhere(least < -POSITIVITY_TOL)[:1].tolist():
        return PositivityWitness(i, u, float(least[i, u]))
    return None


@dataclass
class FullnessCertificate:
    ideal_dimension: int
    algebra_dimension: int
    orbit_count: int

    @property
    def full(self) -> bool:
        return self.ideal_dimension == self.algebra_dimension


def _lifts(ext: oracle.CyclicExtension, f, h) -> np.ndarray:
    """The inner products <f, h> of two stacks (..., units) as a stack of
    numeric elements of the extension algebra, constant along the circle
    coordinate."""
    return np.tile(inner_products(ext.base, f, h), ext.k)


def _unit_pair_lifts(ext: oracle.CyclicExtension) -> np.ndarray:
    """The lifts of <delta_u, delta_v> over all pairs (u, v) of units, u
    outer: one row of the identity matrix against another."""
    n = ext.base.n_units
    e = np.eye(n, dtype=complex)
    return _lifts(ext, e[:, None], e[None]).reshape(n * n, ext.dimension)


def fullness_check(g: FiniteGroupoid) -> FullnessCertificate:
    """The ideal of C(G) generated by the inner products of unit deltas has
    dimension |arrows|: the bimodule is full over the groupoid algebra.  This
    is the ideal of ``saturation_report`` at k = 1, where mu_1 x G is G."""
    _require_principal(g, "fullness_check")
    ext = oracle.CyclicExtension(g, TwoCocycle.trivial(g), 1)
    return FullnessCertificate(
        ideal_dimension=oracle.ideal_dimension(ext, _unit_pair_lifts(ext)),
        algebra_dimension=g.n_arrows,
        orbit_count=len(orbit_units(g)),
    )


# ---------------------------------------------------------------------------
# lifts into a circle extension, checked against the cyclic oracle

@dataclass
class LeakageWitness:
    """The largest leakage of a failing mode-zero check: the sample's index,
    the extension arrow (circle exponent t, base arrow a) where it sits, the
    mode n >= 1 whose projection carries the most mass there, and the
    leakage."""

    sample: int
    circle: int
    arrow: int
    mode: int
    leakage: float


@dataclass
class SaturationReport:
    k: int
    mode_zero_ok: bool
    ideal_dimension: int
    mode_zero_summand_dimension: int
    nonzero_mode_leakage: float
    witness: LeakageWitness | None = None

    @property
    def not_saturated(self) -> bool:
        # at k = 1 the extension is trivial and mode 0 is the whole algebra;
        # for k >= 2 the ideal misses the other modes
        return self.k > 1 and self.ideal_dimension == self.mode_zero_summand_dimension


# Mass outside mode 0 at or below this is rounding: each projected value is
# a sum of k values of size about 1, each turned by a root of unity.
LEAKAGE_TOL = 1e-12


def saturation_report(ext: oracle.CyclicExtension, pairs) -> SaturationReport:
    """Lift the inner products <f, h> of a stack of pairs (samples, 2, units)
    into the finite cyclic extension mu_k x_w G and measure their mode
    content: all mass in mode 0, and the generated ideal exactly the mode-0
    summand (dimension |arrows|), never the whole extension algebra.  A
    leakage above ``LEAKAGE_TOL`` is named by its witness, at the first
    largest one in (sample, t, a) order."""
    g, k = ext.base, ext.k
    _require_principal(g, "saturation_report")
    L = _lifts(ext, pairs[..., 0, :], pairs[..., 1, :])
    # what mode 0 misses, and every other mode, over the whole stack at once
    off = np.stack([oracle.mode_projection(ext, L, n) for n in range(k)])
    off[0] = L - off[0]
    mass = oracle.magnitude(off)
    leakage = float(mass.max(initial=0.0))
    witness = None
    if leakage > LEAKAGE_TOL:  # so the stack is not empty, and k > 1
        mass = mass.reshape(k, -1, k, g.n_arrows)  # (mode, sample, t, a)
        at = np.unravel_index(mass.max(axis=0).argmax(), mass.shape[1:])
        mode = 1 + int(mass[(slice(1, None), *at)].argmax())
        witness = LeakageWitness(*(int(i) for i in at), mode, leakage)
    return SaturationReport(
        k=k,
        mode_zero_ok=leakage <= LEAKAGE_TOL,
        ideal_dimension=oracle.ideal_dimension(ext, _unit_pair_lifts(ext)),
        mode_zero_summand_dimension=g.n_arrows,
        nonzero_mode_leakage=leakage,
        witness=witness,
    )
