"""Finite cyclic-extension oracle: the groupoid mu_k x_w G.

For a normalized cocycle w whose values are k-th roots of unity, the set
mu_k x G becomes an honest finite groupoid under

    (s, a)(t, b) = (s t w(a, b), a b),    (t, a)^-1 = (t^-1 w(a, a^-1)^-1, a^-1),

with unit space identified with the units of G.  Associativity of this
multiplication is literally the cocycle identity, so building the extension
and validating it re-proves the identity through an independent code path.
The composition goes to ``FiniteGroupoid`` as pair arrays, the composable
pairs of the base's table tiled over every (t1, t2) in ascending order, and
the inverse is one broadcast, with w(a, b) = e(twist(a, b)/k) read off the
cocycle's table at once.

The algebra of the extension carries the convolution with the circle factor
averaged (weight 1/k per circle coordinate, counting measure along G), which
is the finite analogue of normalized Haar measure on the circle.  With that
weight, restriction to the fiber over 1 is exactly multiplicative on each
Fourier mode.  Everything in this module is written directly against the
extension's composition table: nothing is delegated to the twisted
convolution machinery, so agreement between the two is evidence, not
tautology.

Every value of this algebra on exact data lies in Z[zeta_k][1/k], so the
oracle works at the one conductor k, in integer arrays.  Extension arrows
are indexed x = t * |A| + a (circle exponent t, base arrow a).  The only
exact elements the certificate takes are mode deltas and deltas, and each
is a list of unit entries (batch row, arrow, exponent), zeta_k^exponent at
that arrow: ``mode_delta_entries`` gives those of the mode deltas
q_(n m + a), which hold zeta_k^(-tn) at each (t, a), and the delta at x is
the one entry (row, x, 0).  The exact products, involutions and Fourier
projections are term steps, ``mode_product_terms``, ``star_terms`` and
``projection_terms``, each term a power of zeta_k at one arrow in one batch
row, all with coefficient 1.  ``mode_product_terms`` reads its terms
straight off the rows of the extension's own composition table at the
arrows of the left mode deltas' entries: each composable pair gives one
term per right mode, and no meeting of entries is dropped.
``moved_arrows`` reads the product of every delta with its source unit off
that table at once and lists the deltas it moves; ``faithfulness_rank``
counts the others.

A numeric element is a complex array of shape (..., k*|A|), taken by
``delta_products``, ``mode_projection``, ``embed_mode``, ``reduced_norm``
and ``ideal_dimension``.  Leading axes are batch axes, and every operation
broadcasts over them, so a certificate handles a whole stack of elements in
one call.  Every numeric product is one with a delta, one term per entry,
so ``delta_products`` takes an element against every delta from one side
in one scatter over the extension's pairs (y, z, y z).  ``embed_mode``
embeds any list of modes in one gather of roots, ``reduced_norm`` gathers
all source fibers of one size from the right delta products at once, and
``ideal_dimension`` spans an ideal from the left delta products of the
generators and the right ones of a basis of those, each rank SVD on the
distinct nonzero rows of its stack.

``nonzero_sums`` decides which sums of terms are zero without scattering
them: each term goes through row j of the map into the power basis of
Q(zeta_k), row j being x^j mod Phi_k (H. Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, 1993, section 4.2), into one
accumulator per key, so the work of deciding a product grows with its
terms, not with its arrows.  That map and the roots e(j/k) depend on k
alone, so ``circle_constants`` builds them once per k for every extension.

Certificates cut their term steps into row chunks of about
``STACK_ENTRIES`` entries, so that their memory grows with a chunk, not
with the whole step.  A chunk holds at least one row, though, and one left
row of the products makes k**3 terms per base pair of its arrow, so the
memory of a certificate has that floor, which grows as k**3: a chunk is
bounded by ``STACK_ENTRIES`` only while one row fits in it.  A product, a
star or a projection decided from its terms counts four entries per term
(row, arrow, exponent and the key it is summed under), since its terms,
not its dense values, are what a chunk holds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exact import cmul, cyclotomic_polynomial, spectral_norms
from .cocycle import TwoCocycle, circle_values
from .groupoid import (
    FiniteGroupoid,
    is_principal,
    isomorphism_violations,
    quotient_by_isotropy,
    validate,
)

# Integer results at or above this bound are computed on Python ints.
_INT64_LIMIT = 2**63
# Term steps that would hold more entries than this run in row chunks of at
# least one row each, so the memory of a certificate grows with one row's
# terms (k**3 per base pair of a product row's arrow), not with the step.
STACK_ENTRIES = 2**14
# Singular values at or below this fraction of the largest (or of 1) count
# as zero in an ideal's rank: the spanning products have entries of size
# about 1, so rounding leaves the null directions near 1e-16.
RANK_TOL = 1e-10


class OracleError(ValueError):
    pass


def magnitude(z: np.ndarray) -> np.ndarray:
    """|z| for complex arrays, rounded as abs(complex) rounds (np.abs on
    complex arrays does not)."""
    return np.hypot(z.real, z.imag)


@lru_cache(maxsize=None)
def circle_constants(k: int) -> tuple:
    """The constants of the oracle at k, built once per k and read-only: the
    roots e(j/k), j < k, as ``circle_values`` gives them; the k x phi(k)
    matrix R, as Python ints, whose row j holds x^j mod Phi_k in the basis
    1, x, ..., x^(phi(k)-1); and the largest column sum of |R|."""
    phi = cyclotomic_polynomial(k)  # ascending and monic
    rows = [[1] + [0] * (len(phi) - 2)]
    for _ in range(1, k):
        top, shifted = rows[-1][-1], [0] + rows[-1][:-1]
        rows.append([c - top * p for c, p in zip(shifted, phi)])
    roots, R = circle_values(range(k), k), np.array(rows, dtype=object)
    roots.flags.writeable = R.flags.writeable = False
    return roots, R, int(np.abs(R).sum(axis=0).max())


class CyclicExtension:
    """The finite groupoid mu_k x_w G with its circle coordinate laid bare.

    Arrow ids are t * |arrows(G)| + a for circle exponent t and base arrow a;
    units coincide with the units of the base.
    """

    def __init__(self, base: FiniteGroupoid, cocycle: TwoCocycle, k: int):
        if k < 1:
            raise OracleError("k must be positive")
        if cocycle.base is not base:
            raise OracleError("cocycle is not defined on this groupoid")
        cocycle.require_checked("cyclic extension")
        if not cocycle.normalized:
            raise OracleError("cyclic extension needs a normalized cocycle")
        self.base, self.cocycle, self.k, self.dimension = base, cocycle, k, k * base.n_arrows
        n, lab = base.n_arrows, base.arrow_labels

        twist, bad = cocycle.root_exponents(k)
        if bad is not None:
            a, b = bad
            raise OracleError(
                f"cocycle value {cocycle.value(a, b)!r} on ({lab[a]},{lab[b]}) is not a mu_{k} root"
            )
        # extension arrow t * n + a: the pairs (t1 n + a, t2 n + b) over the base
        # pairs (a, b), ascending, and the twist of (a, b) adds to t1 + t2
        defined, tiled = np.zeros((n, n), dtype=bool), np.arange(k * n) % n  # a of t * n + a
        defined[base.pair_table[:2]] = True
        Y, Z = defined[tiled[:, None], tiled].nonzero()
        (t1, a), (t2, b) = divmod(Y, n), divmod(Z, n)
        inv = base.inverse_map
        self.inverse = ((-np.arange(k)[:, None] - twist[np.arange(n), inv]) % k * n + inv).ravel()
        labels = [f"(e({t}/{k})|{lab[a]})" for t in range(k) for a in range(n)]
        self.groupoid = FiniteGroupoid(
            base.n_units, base.range_map[tiled], base.source_map[tiled],
            (Y, Z, (t1 + t2 + twist[a, b]) % k * n + base.compose_array[a, b]), self.inverse,
            base.unit_to_arrow,  # the t = 0 block
            unit_labels=base.unit_labels, arrow_labels=labels,
            name=f"mu{k}x{base.name}",
        )
        self.validation = validate(self.groupoid)
        self.validation.raise_if_failed()
        # y z for extension arrows y, z as a table, -1 where they do not compose
        self.compose = self.groupoid.compose_array
        self.roots, self.reduction, self._reduction_bound = circle_constants(k)


# ---------------------------------------------------------------------------
# the extension algebra, written directly against the composition table.

def mode_delta_entries(ext: CyclicExtension, ids) -> tuple:
    """The unit entries (row, arrow, exponent) of the mode deltas
    q_(n m + a) = sum_t zeta_k^(-tn) delta_(t, a) at the ids: batch row i
    holds zeta_k^(-tn) at the arrow t m + a for each t, in ascending (i, t)
    order."""
    k, m = ext.k, ext.base.n_arrows
    n, a = divmod(np.asarray(ids, dtype=np.intp), m)
    t = np.arange(k)
    return np.arange(len(n)).repeat(k), (t * m + a[:, None]).ravel(), (-t * n[:, None] % k).ravel()


class Terms(NamedTuple):
    """The terms of an exact product, star or projection before they are
    summed: term i is zeta_k**exponent[i] at (batch row[i], arrow[i]), and
    the result is their sum over k**e."""

    row: np.ndarray
    arrow: np.ndarray
    exponent: np.ndarray
    e: int


def mode_product_terms(ext: CyclicExtension, left) -> Terms:
    """The terms of the products q_L * q_R of the mode deltas, the left ones
    at the ids ``left`` against all N right ones, read straight off the
    extension's composition table at the arrows of the left entries: each
    composable pair (y, z) = ((t1, a), (t2, b)) of a left q_L, L = n m + a,
    and each right mode p give zeta_k^(-(t1 n + t2 p)) at y z in batch row
    (L, p m + b), with the weight 1/k.  Batch rows are flat over
    (len(left), N), and the terms come in ascending (L, y, z, p) order."""
    k, m, N = ext.k, ext.base.n_arrows, ext.dimension
    row, y, s = mode_delta_entries(ext, left)
    yz = ext.compose[y]  # (entry, z): y z for the entry's arrow y
    i, z = (yz >= 0).nonzero()
    t2, b = divmod(z, m)
    p = np.arange(k)
    # axes (pair, right mode p)
    exponent = s[i, None] - t2[:, None] * p
    return Terms(
        ((row[i] * N + b)[:, None] + p * m).ravel(), yz[i, z].repeat(k), (exponent % k).ravel(), 1
    )


def delta_products(ext: CyclicExtension, f: np.ndarray, left: bool) -> np.ndarray:
    """Numeric elements f (..., dimension) against every delta, as (...,
    dimension, dimension): row x is delta_x * f when ``left``, else
    f * delta_x.  Each entry is one term, f(z) / k at x z or f(y) / k at
    y x, so one scatter over the pairs (y, z, y z) places them all; f + 0.0
    makes each -0.0 a 0.0, as a sum into zeros does, so the rows match a
    convolution that adds terms, bit for bit."""
    Y, Z, YZ = ext.groupoid.pair_table
    values = (f + 0.0) * (1.0 / ext.k)
    out = np.zeros(f.shape[:-1] + (ext.dimension, ext.dimension), dtype=complex)
    if left:
        out[..., Y, YZ] = values[..., Z]
    else:
        out[..., Z, YZ] = values[..., Y]
    return out


def star_terms(ext: CyclicExtension, entries) -> Terms:
    """The terms of f*(x) = conj(f(x^-1)) on the unit entries (row, arrow,
    exponent) of exact elements: zeta_k^s at x gives zeta_k^(-s) at x^-1, in
    the order of the entries."""
    row, x, s = entries
    return Terms(row, ext.inverse[x], -s % ext.k, 0)


def projection_terms(ext: CyclicExtension, entries, modes) -> Terms:
    """The terms of the Fourier projections p_n(f), n in ``modes``, on the
    unit entries (row, arrow, exponent) of exact elements: zeta_k^s at
    (t, a) gives zeta_k^(s + jn) at (t - j, a) for every shift j, with the
    weight 1/k.  Batch rows are (row, n), the mode innermost, and the terms
    come in (entry, j, n) order."""
    k, m, N, M = ext.k, ext.base.n_arrows, ext.dimension, len(modes)
    row, x, s = entries
    j = np.arange(k)
    # axes (entry, shift j, mode n): each index spans all three by + 0 * exponent
    exponent = (s[:, None, None] + j[:, None] * np.asarray(modes)) % k
    zero = 0 * exponent
    arrow = (x[:, None] - j * m) % N  # (t - j, a) = (t - j) m + a, cyclic in t
    return Terms(
        (row[:, None, None] * M + np.arange(M) + zero).ravel(),
        (arrow[..., None] + zero).ravel(),
        exponent.ravel(),
        1,
    )


def mode_projection(ext: CyclicExtension, f: np.ndarray, n: int) -> np.ndarray:
    """The n-th Fourier projection p_n(f)(t, a) = (1/k) sum_j f(t + j, a) e(jn/k)
    of numeric elements: shift the circle coordinate by j, rotate by
    e(jn/k), and sum."""
    k, m = ext.k, ext.base.n_arrows
    t, a, j = np.ix_(range(k), range(m), range(k))
    source = ((t + j) % k * m + a).reshape(k * m, k)  # term j at (t, a) reads (t + j, a)
    acc = cmul(ext.roots[0], f[..., source[:, 0]])
    for i in range(1, k):
        acc = acc + cmul(ext.roots[i * n % k], f[..., source[:, i]])
    return acc * (1.0 / k)


def embed_mode(ext: CyclicExtension, n, coeffs: np.ndarray) -> np.ndarray:
    """The inverse identification: numeric base coefficients F_n, a complex
    array (..., |A|), into the mode-n homogeneous part, (t, a) -> e(-tn/k) F_n(a).
    An array of modes n embeds the stack coeffs (..., modes, |A|) of those
    modes in one gather of roots, as (..., modes, k*|A|)."""
    k, m = ext.k, ext.base.n_arrows
    turns = -np.arange(k)[:, None] * np.asarray(n, dtype=np.intp)[..., None, None] % k
    out = cmul(ext.roots[turns], coeffs[..., None, :])
    return out.reshape(out.shape[:-2] + (k * m,))


def nonzero_sums(ext: CyclicExtension, size: int, *terms) -> np.ndarray:
    """Which of ``size`` keys hold a nonzero sum of c * zeta_k^j over the
    terms, given in groups (key, j, c): arrays key and j, and one int c for
    the whole group.  Each term is mapped through row j of the power-basis
    matrix and added into one accumulator keyed (key, power-basis index),
    in int64 when the sum of |c| times the group's size, times the largest
    column sum of |R|, stays in range and on Python ints otherwise."""
    bound = sum([abs(c) * key.size for key, _, c in terms])
    R = ext.reduction
    if bound * ext._reduction_bound < _INT64_LIMIT:
        R = R.astype(np.int64)
    acc = np.zeros((R.shape[1], size), dtype=R.dtype)
    for b, column in enumerate(R.T):
        for key, j, c in terms:
            np.add.at(acc[b], key, column[j] * c)
    return acc.any(axis=0)


def reduced_norm(ext: CyclicExtension, f: np.ndarray):
    """The largest norm of convolution by the numeric element f on a source
    fiber; row x of the right ``delta_products`` is f * delta_x.  The fibers
    of one size d are one gather (units, d, d), their arrows read off the
    arrows sorted by source.  A stack of elements (..., dimension) gets an
    array of norms over its leading axes."""
    G = ext.groupoid
    columns = delta_products(ext, f, left=False)
    by_source, size = G.source_map.argsort(kind="stable"), np.bincount(G.source_map)
    first = size.cumsum() - size
    fibers = [by_source[first[size == d, None] + np.arange(d)] for d in set(size.tolist())]
    norms = spectral_norms([columns[..., F[:, None, :], F[..., None]] for F in fibers])
    return np.max([n.max(axis=-1) for n in norms], axis=0, initial=0.0)


def faithfulness_rank(ext: CyclicExtension) -> tuple[int, int]:
    """Rank of the direct sum of all regular representations on the delta
    basis, against the algebra dimension k*|arrows|.

    At unit u the column of the unit arrow is f * delta_u = (1/k) f
    restricted to s^-1(u), so the unit columns read off f.  The product
    delta_x * delta_u, with u the unit at s(x), is (1/k) delta at x u, so
    the rank counts the arrows x with x u = x, all read at once off the
    extension's own composition table.  Faithfulness is what makes the full
    and reduced norms agree (J. Renault, *A Groupoid Approach to
    C*-Algebras*, LNM 793, 1980)."""
    return ext.dimension - len(moved_arrows(ext)), ext.dimension


def moved_arrows(ext: CyclicExtension) -> np.ndarray:
    """The extension arrows x with x u != x, u the unit at s(x), ascending:
    the deltas ``faithfulness_rank`` does not count."""
    G, x = ext.groupoid, np.arange(ext.dimension)
    return np.flatnonzero(ext.compose[x, G.unit_to_arrow[G.source_map]] != x)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct nonzero rows of a 2-d stack, each at its first place,
    compared by their bytes as one void scalar per row."""
    rows = np.ascontiguousarray(rows[rows.any(axis=1)])
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return rows[np.sort(np.unique(keys, return_index=True)[1])]


def _rank(s: np.ndarray) -> int:
    """How many singular values, in descending order, exceed ``RANK_TOL``
    times the largest (or 1)."""
    return int((s > RANK_TOL * max(1.0, float(s[0]))).sum()) if len(s) else 0


def ideal_dimension(ext: CyclicExtension, generators: np.ndarray) -> int:
    """Dimension of the two-sided ideal generated by a stack of numeric
    elements (n, dimension).  The algebra has a unit, so the ideal is the
    span of the products delta_x s delta_y: the left ``delta_products`` of
    the generators span the left ideal, and the right ones of an
    orthonormal basis of it the two-sided one.  Each SVD takes the
    distinct nonzero rows of its stack, the last one singular values alone."""
    n, N = len(generators), ext.dimension
    rows = _distinct_rows(delta_products(ext, generators, left=True).reshape(n * N, N))
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    basis = vh[: _rank(s)]
    rows = _distinct_rows(delta_products(ext, basis, left=False).reshape(len(basis) * N, N))
    return _rank(np.linalg.svd(rows, compute_uv=False))


def quotient_matches_base(ext: CyclicExtension) -> list[str]:
    """For principal base, verify the canonical isomorphism between the
    extension modulo its isotropy bundle and the base groupoid.

    Classes of the quotient are matched to base arrows through the circle
    projection; the check confirms the projection is constant on classes,
    bijective on classes, and a groupoid isomorphism.
    """
    if not is_principal(ext.base):
        return ["base groupoid is not principal"]
    q, proj = quotient_by_isotropy(ext.groupoid)
    x, cls, m = np.arange(ext.dimension), np.array(proj, dtype=np.intp), ext.base.n_arrows
    first = np.full(q.n_arrows, ext.dimension)
    np.minimum.at(first, cls, x)  # each class's first member
    mixed = np.flatnonzero(first[cls] % m != x % m)  # base arrow a of x = t * m + a
    if len(mixed):
        return [f"class {proj[mixed[0]]} mixes distinct base arrows"]
    if (first == ext.dimension).any():
        return ["projection misses a class"]
    return isomorphism_violations(q, ext.base, (first % m).tolist())
