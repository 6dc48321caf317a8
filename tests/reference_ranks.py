"""Floating-point rank references for the structural certificates.

The library decides faithfulness and center dimension by closed forms.  The
functions here compute the same numbers the long way, with
``np.linalg.matrix_rank`` on the stacked regular representations and on the
commutator system, so the tests can cross-check the closed forms.
"""

import numpy as np

from gpdext import cyclic_oracle as oracle


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
                cols[pos[G.compose(a, b)] * len(fiber) + j, a] = alg.sigma(a, b).to_complex()
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
                rows[b * m + ab, a] += alg.sigma(a, b).to_complex()
            ba = G.compose_or_none(b, a)
            if ba is not None:
                rows[b * m + ba, a] -= alg.sigma(b, a).to_complex()
    return m - int(np.linalg.matrix_rank(rows))


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
