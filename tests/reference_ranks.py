"""Floating-point rank references for the structural certificates.

The library decides faithfulness and center dimension by closed forms.  The
functions here compute the same numbers the long way, with
``np.linalg.matrix_rank`` on the stacked regular representations and on the
commutator system, so the tests can cross-check the closed forms.

The library spans a two-sided ideal in two batched products.  The functions
here span it by closure under products with the delta basis, repeated until
the span stops growing, and compute fullness through the graded model's
products, one ``AlgebraElement`` at a time.
"""

import numpy as np

from gpdext import cyclic_oracle as oracle
from gpdext.algebra import TwistedAlgebra
from gpdext.cocycle import TwoCocycle
from gpdext.morita import BimoduleElement, left_inner
from reference_algebra import sigma, value

# Singular values of the commutator system at or below this are rounding.
# Each entry is a sum of values of w^n of modulus 1, so a pair whose values
# w^n(a, b) and w^n(b, a) agree up to rounding leaves entries of a few ulps,
# and a pair that does not commute leaves a column of norm at least their
# distance, which the closed form counts as a difference above
# ``exact.CLOSE_TOL`` = 1e-10.  ``matrix_rank``'s default tolerance is
# relative to the largest singular value, which is itself rounding when
# every pair commutes: it would count that rounding as rank.
CENTER_RANK_TOL = 1e-10


def stacked_faithfulness(alg) -> tuple[int, dict]:
    """Rank of the direct sum of the left-regular representations of a
    TwistedAlgebra over all units, on the delta basis, and the rank at each
    unit.  Column a at unit u is the flattened matrix of delta_a on the
    source fiber of u."""
    G = alg.groupoid
    dim = G.n_arrows
    blocks = []
    per_unit_rank = {}
    for u in G.units():
        fiber = G.source_fiber(u)
        pos = {b: i for i, b in enumerate(fiber)}
        cols = np.zeros((len(fiber) ** 2, dim), dtype=complex)
        for j, b in enumerate(fiber):
            for a in G.source_fiber(G.r(b)):
                cols[pos[G.compose(a, b)] * len(fiber) + j, a] = value(sigma(alg, a, b))
        per_unit_rank[u] = int(np.linalg.matrix_rank(cols)) if cols.size else 0
        blocks.append(cols)
    stacked = np.vstack(blocks) if blocks else np.zeros((0, dim))
    rank = int(np.linalg.matrix_rank(stacked)) if stacked.size else 0
    return rank, per_unit_rank


def commutator_center_dimension(alg) -> int:
    """Dimension of the center of a TwistedAlgebra, by solving
    [x, delta_b] = 0 for all b."""
    G = alg.groupoid
    m = G.n_arrows
    if m == 0:
        return 0
    rows = np.zeros((m * m, m), dtype=complex)
    for b in G.arrows():
        for a in G.arrows():
            ab = G.compose_or_none(a, b)
            if ab is not None:
                rows[b * m + ab, a] += value(sigma(alg, a, b))
            ba = G.compose_or_none(b, a)
            if ba is not None:
                rows[b * m + ba, a] -= value(sigma(alg, b, a))
    return m - int(np.linalg.matrix_rank(rows, tol=CENTER_RANK_TOL))


def regular_rep_matrix(ext, f: np.ndarray, u: int) -> np.ndarray:
    """Matrix of convolution by the numeric oracle element f on the source
    fiber over unit u."""
    fiber = list(ext.groupoid.source_fiber(u))
    columns = oracle.conv(ext, f, oracle.deltas(ext, fiber, exact=False))
    return columns[:, fiber].T


def oracle_stacked_rank(ext) -> tuple[int, int]:
    """Rank of the direct sum of the oracle's regular representations on the
    delta basis, against the dimension k*|arrows|."""
    dim = ext.dimension
    blocks = []
    for u in ext.groupoid.units():
        fiber = ext.groupoid.source_fiber(u)
        cols = np.zeros((len(fiber) ** 2, dim), dtype=complex)
        for x, delta in enumerate(oracle.deltas(ext, range(dim), exact=False)):
            cols[:, x] = regular_rep_matrix(ext, delta, u).reshape(-1)
        blocks.append(cols)
    stacked = np.vstack(blocks) if blocks else np.zeros((0, dim))
    rank = int(np.linalg.matrix_rank(stacked)) if stacked.size else 0
    return rank, dim


def _orthonormal_rows(rows: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: int((s > tol * max(1.0, float(s[0]))).sum())]


def closure_ideal_dimension(generators, product) -> int:
    """Dimension of the two-sided ideal generated by dense complex
    coefficient vectors, by span closure under products with the delta
    basis.  product(F, H) multiplies two stacks of dense vectors row by
    row."""
    rows = [g for g in generators if g.any()]
    if not rows:
        return 0
    dim = len(rows[0])
    basis_deltas = np.eye(dim, dtype=complex)
    basis = _orthonormal_rows(np.array(rows))
    while True:
        cand = list(basis)
        for g in basis:
            g = np.broadcast_to(np.where(np.abs(g) > 1e-13, g, 0), (dim, dim))
            cand.extend(product(g, basis_deltas))
            cand.extend(product(basis_deltas, g))
        new_basis = _orthonormal_rows(np.array(cand))
        if len(new_basis) == len(basis):
            return len(basis)
        basis = new_basis


def unit_pair_lifts(ext, units=None) -> np.ndarray:
    """The indicators of the arrows from v to u, one row per pair (u, v) of
    the given units (all by default), repeated along the circle coordinate:
    the lifts of <delta_u, delta_v> into the oracle's algebra."""
    G = ext.base
    units = list(G.units()) if units is None else list(units)
    rows = np.zeros((len(units) ** 2, G.n_arrows), dtype=complex)
    for i, (u, v) in enumerate((u, v) for u in units for v in units):
        for a in G.arrows():
            if G.r(a) == u and G.s(a) == v:
                rows[i, a] = 1
    return np.tile(rows, ext.k)


def oracle_closure_dimension(ext, generators) -> int:
    """The closure loop on the oracle's own products."""
    return closure_ideal_dimension(list(generators), lambda F, H: oracle.conv(ext, F, H))


def graded_fullness_dimension(g) -> int:
    """Dimension of the ideal of C(G) generated by the inner products of
    unit deltas, by the closure loop on the graded model's products."""
    algebra = TwistedAlgebra(g, TwoCocycle.trivial(g), 0)
    gens = [
        left_inner(BimoduleElement.delta(g, u), BimoduleElement.delta(g, v), algebra)
        for u in g.units()
        for v in g.units()
    ]

    def dense(x) -> np.ndarray:
        v = np.zeros(algebra.dimension, dtype=complex)
        for a, c in x.coeff.items():
            v[a] = complex(c)
        return v

    def element(v: np.ndarray):
        return algebra.element({int(a): complex(v[a]) for a in np.flatnonzero(v)})

    return closure_ideal_dimension(
        [dense(x) for x in gens],
        lambda F, H: [dense(element(f) * element(h)) for f, h in zip(F, H)],
    )
