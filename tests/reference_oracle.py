"""Loop references for the cyclic oracle's convolution and the mode
decomposition certificate.

``scan_conv`` finds the composable pairs of a convolution by testing every
pair of the extension against every batch row, ``gather_projection`` takes
an exact Fourier projection as one gather of shifted coefficients and
``gather_star`` an exact involution as one gather at the inverses, where
the library builds both from the terms of each nonzero entry, which
``scatter_projection`` and ``scatter_star`` add up, as ``scatter`` adds up
the terms of the library's products of mode deltas.  ``embed_mode`` embeds
exact base coefficients in a mode, which the library no longer does, and
``mode_deltas`` stacks every mode delta with it;
``combined`` and ``nonzero_rows`` add exact stacks and decide their rows
dense, which the library no longer does either.  ``loop_reduced_norm`` takes
one spectral norm per unit, of ``regular_rep_matrix``, the scan's products
against the deltas of the unit's source fiber, ``loop_norm_deviation``
embeds a graded element one mode at a time and takes every norm of the norm
agreement per unit, and
``loop_decompose`` runs the comparisons of ``cyclic_decompose`` one
(mode, mode) block at a time: products (n, p, a, b), then stars (n, a),
then projections (n, mm, a), then the Fourier block.  Its expected values cross into the oracle one at a time: a
value of w^n per composable pair from ``sigma``, and a star per mode
delta from the graded model's own ``involute``, so matching it also checks
that involution against the oracle.  A numeric value is snapped to the
k-th root nearest its phase, and every comparison is exact; a pair's value
more than ``ORACLE_TOL`` from its root fails as its product within the
mode, with that distance as its residual, and the largest such distance
is ``max_residual``.  The tests compare the library with them field for
field and bit for bit.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from gpdext import cyclic_oracle as oracle
from gpdext.exact import CircleScalar, Cyclo, cmul
from gpdext.extension import (
    ORACLE_TOL,
    CyclicDecomposition,
    ExtensionAlgebra,
    ModeSummand,
    OracleWitness,
)
from gpdext.groupoid import orbit_units
from reference_algebra import sigma


def scan_conv(ext, f, g):
    """(f*g)(x) = (1/k) * sum over x = y.z of f(y) g(z), with the pairs found
    by a boolean scan of every extension pair for every batch row; numeric
    terms add per batch row in ascending pair order."""
    Y, Z = np.nonzero(ext.compose >= 0)  # every composable pair, in (y, z) order
    YZ = ext.compose[Y, Z]
    exact = isinstance(f, oracle.Exact)
    fv, gv = (f.num, g.num) if exact else (f, g)
    tail = 2 if exact else 1
    lead = np.broadcast_shapes(fv.shape[:-tail], gv.shape[:-tail])
    fz = fv.any(axis=-1) if exact else fv != 0
    gz = gv.any(axis=-1) if exact else gv != 0
    *batch, p = np.nonzero(fz[..., Y] & gz[..., Z])
    x = np.broadcast_to(fv, lead + fv.shape[-tail:])[(*batch, Y[p])]
    y = np.broadcast_to(gv, lead + gv.shape[-tail:])[(*batch, Z[p])]
    if not exact:
        out = np.zeros(lead + fv.shape[-1:], dtype=complex)
        np.add.at(out, (*batch, YZ[p]), cmul(x, y))
        return out * (1.0 / ext.k)
    k = ext.k
    bound = oracle._max_abs(fv) * oracle._max_abs(gv) * k * ext.dimension
    x, y = oracle._widened(x, bound), oracle._widened(y, bound)
    # the cyclic convolution of the coefficient vectors: zeta^i * zeta^j = zeta^(i + j)
    s, i = np.ogrid[:k, :k]
    products = (x[:, None, :] * y[:, (s - i) % k]).sum(axis=-1)
    out = np.zeros(lead + fv.shape[-2:], dtype=x.dtype)
    np.add.at(out, (*batch, YZ[p]), products)
    return oracle.Exact(out, f.e + g.e + 1)


def regular_rep_matrix(ext, f: np.ndarray, u: int) -> np.ndarray:
    """Matrix of convolution by the numeric oracle element f on the source
    fiber over unit u, from ``scan_conv`` against the deltas of the fiber."""
    fiber = list(ext.groupoid.source_fiber(u))
    columns = scan_conv(ext, f, np.eye(ext.dimension, dtype=complex)[fiber])
    return columns[:, fiber].T


def gather_projection(ext, f, n: int):
    """The n-th Fourier projection p_n(f)(t, a) = (1/k) sum_j f(t + j, a) e(jn/k),
    of exact values by one gather: coefficient s of the projection at (t, a)
    sums coefficient s - jn of f at (t + j, a) over the shifts j."""
    k, m = ext.k, ext.base.n_arrows
    t = np.arange(k)[:, None, None]
    a = np.arange(m)[None, :, None]
    j = np.arange(k)
    source = ((t + j) % k * m + a).reshape(k * m, k)
    s = np.arange(k)[:, None]
    index = (source[:, None, :] * k + (s - j * n) % k).reshape(k * m * k, k)
    num = oracle._widened(f.num, oracle._max_abs(f.num) * k)
    flat = num.reshape(math.prod(num.shape[:-2]), k * m * k)
    return oracle.Exact(flat[:, index].sum(axis=-1).reshape(f.num.shape), f.e + 1)


def scatter(ext, t):
    """The exact elements whose values are the sums of the oracle's terms t."""
    N, k = ext.dimension, ext.k
    out = np.zeros(math.prod(t.lead) * N * k, dtype=t.coefficient.dtype)
    np.add.at(out, (t.row * N + t.arrow) * k + t.exponent, t.coefficient)
    return oracle.Exact(out.reshape(t.lead + (N, k)), t.e)


def scatter_projection(ext, f, n: int):
    """p_n(f) of exact values, the scatter of the oracle's ``projection_terms``."""
    p = scatter(ext, oracle.projection_terms(ext, f, [n]))
    return oracle.Exact(p.num.reshape(f.num.shape), p.e)


def gather_star(ext, f):
    """f*(x) = conj(f(x^-1)) of exact values by one gather at the inverses;
    conjugation sends zeta_k^j to zeta_k^-j."""
    conj = -np.arange(ext.k) % ext.k
    return oracle.Exact(f.num[..., ext.inverse, :][..., conj], f.e)


def scatter_star(ext, f):
    """f* of exact values, the scatter of the oracle's ``star_terms``."""
    return scatter(ext, oracle.star_terms(ext, f))


def mode_deltas(ext):
    """Every mode delta q_(n m + a), the delta at base arrow a embedded in
    mode n, as one exact stack (k*m, k*m, k) from ``embed_mode``."""
    k, m = ext.k, ext.base.n_arrows
    one = np.zeros((m, m, k), dtype=np.int64)
    one[np.arange(m), np.arange(m), 0] = 1
    stacks = [embed_mode(ext, n, oracle.Exact(one)).num for n in range(k)]
    return oracle.Exact(np.concatenate(stacks))


def embed_mode(ext, n: int, coeffs):
    """Exact base coefficients F_n, an ``Exact`` with num of shape
    (..., |A|, k), into the mode-n homogeneous part, (t, a) -> e(-tn/k) F_n(a),
    by rotating each coefficient vector."""
    k, m = ext.k, ext.base.n_arrows
    # rotating by e(-tn/k) moves coefficient s + tn to s
    num = coeffs.num[..., (np.arange(k) + np.arange(k)[:, None] * n) % k]  # (..., a, t, s)
    num = np.swapaxes(num, -3, -2)
    return oracle.Exact(num.reshape(num.shape[:-3] + (k * m, k)), coeffs.e)


def over(f, e: int) -> np.ndarray:
    """The numerators of an exact stack over the denominator k**e, for e >= f.e."""
    factor = f.num.shape[-1] ** (e - f.e)
    if factor == 1:
        return f.num
    return oracle._widened(f.num, oracle._max_abs(f.num) * factor) * factor


def combined(f, g, sign: int = 1):
    """f + sign * g of exact stacks, over the larger denominator."""
    e = max(f.e, g.e)
    a, b = over(f, e), over(g, e)
    bound = oracle._max_abs(a) + oracle._max_abs(b)
    return oracle.Exact(oracle._widened(a, bound) + sign * oracle._widened(b, bound), e)


def nonzero_rows(ext, D: np.ndarray) -> np.ndarray:
    """Which rows of the int matrix D (B, k) hold a nonzero value
    sum_j D[i, j] zeta_k^j.  A row is zero exactly when its image in the
    power basis of Q(zeta_k) is, and the image is one integer product,
    taken in int64 when max |D| times the largest column sum of |R| stays
    in range and on Python ints otherwise."""
    R = ext.reduction
    if max(oracle._max_abs(D), 1) * ext._reduction_bound < oracle._INT64_LIMIT:
        D, R = D.astype(np.int64, copy=False), R.astype(np.int64)
    else:
        D = D.astype(object)
    return (D @ R != 0).any(axis=1)


def loop_reduced_norm(ext, f: np.ndarray) -> float:
    """The largest spectral norm of convolution by f on a source fiber, one
    ``np.linalg.norm`` per unit."""
    best = 0.0
    for u in ext.groupoid.units():
        m = regular_rep_matrix(ext, f, u)
        if m.size:
            best = max(best, float(np.linalg.norm(m, 2)))
    return best


def loop_norm_deviation(F, ext) -> float:
    """``oracle_norm_deviation`` of one graded element, a mode and a unit at
    a time: the image of F in the oracle is the sum from zero of the
    library's ``embed_mode`` of each mode, in F's mode order, and each side
    takes one spectral norm per unit, of each mode's regular representation
    at the least unit of each orbit, and of the oracle's convolution on each
    source fiber (``loop_reduced_norm``)."""
    img, norm = np.zeros(ext.dimension, dtype=complex), 0.0
    for n, f in F.modes.items():
        img = img + oracle.embed_mode(ext, n, f.array())
        for u in orbit_units(F.algebra.groupoid):
            norm = max(norm, float(np.linalg.norm(f.algebra.regular_rep(f, u).matrix, 2)))
    return abs(norm - loop_reduced_norm(ext, img))


def _coefficients(c: Cyclo, k: int) -> list[int]:
    """The ints c_j with c = sum_j c_j zeta_k^j, j in [0, k): its
    coordinates in Z[zeta_k], when k is a multiple of the conductor and the
    denominator is 1; ValueError otherwise."""
    if k % c.n or c.den != 1:
        raise ValueError(f"{c!r} is not written over Z[zeta_{k}]")
    out = [0] * k
    s = k // c.n
    for e, x in c.terms.items():
        out[e * s] = x
    return out


def _root(c, k: int):
    """The k-th root of unity a graded value names, as a Cyclo, and the
    value's distance from it: an exact value is its own root, at distance
    0.0; a numeric one is snapped to the k-th root nearest its phase."""
    if isinstance(c, CircleScalar) and c.is_exact:
        return Cyclo.from_root(c.angle), 0.0
    if not isinstance(c, (CircleScalar, float, complex)):
        return Cyclo.coerce(c), 0.0
    z = c.to_complex() if isinstance(c, CircleScalar) else complex(c)
    j = round(k * cmath.phase(z) / (2 * math.pi)) % k
    return Cyclo.from_root(Fraction(j, k)), abs(z - CircleScalar(angle=Fraction(j, k)).to_complex())


def loop_decompose(ext, skip_centers: bool = False) -> CyclicDecomposition:
    """The mode decomposition certificate, one comparison per (mode, mode)
    block, with ``scan_conv`` for the products."""
    base = ext.base
    k, m = ext.k, base.n_arrows
    exact = ext.cocycle.is_exact
    alg = ExtensionAlgebra(base, ext.cocycle)

    def embedded(n, values, shape):
        """Graded values {index: value} in mode n, each snapped to its root,
        as one exact stack, and their distances from their roots over all
        but the last axis of ``shape``."""
        num = np.zeros(shape + (k,), dtype=np.int64)
        distance = np.zeros(shape[:-1])
        for index, c in values.items():
            root, distance[index[:-1]] = _root(c, k)
            num[index] = _coefficients(root, k)
        return embed_mode(ext, n, oracle.Exact(num)), distance

    q = [embedded(n, {(a, a): 1 for a in base.arrows()}, (m, m))[0] for n in range(k)]
    none = np.zeros(m)  # no expected value snapped along a block's rows

    def comparisons():
        for n in range(k):
            alg_n = alg.twisted(n)
            within = {(a, b, c): sigma(alg_n, a, b) for (a, b), c in base.compose_table.items()}
            for p in range(k):
                got = scan_conv(ext, q[p][:, None], q[n][None, :])
                if p == n:
                    want, distance = embedded(n, within, (m, m, m))
                    yield "product", (p, n), combined(got, want, -1), distance
                else:
                    yield "product", (p, n), got, none[:, None] + none
        one = Fraction(1) if exact else 1.0
        for n in range(k):
            stars = {
                (a, b): c
                for a in base.arrows()
                for b, c in alg.twisted(n).delta(a, one).star().coeff.items()
            }
            # a star's value is its pair's value of w^n conjugated, whose
            # distance from its root the products count
            want, _ = embedded(n, stars, (m, m))
            yield "star", (n,), combined(gather_star(ext, q[n]), want, -1), none
        for n in range(k):
            for mm in range(k):
                got = gather_projection(ext, q[n], mm)
                yield "projection", (n, mm), combined(got, q[n], -1) if mm == n else got, none
        deltas = oracle.deltas(ext, range(ext.dimension))
        total = gather_projection(ext, deltas, 0)
        for n in range(1, k):
            total = combined(total, gather_projection(ext, deltas, n))
        diff = combined(total, deltas, -1)
        for t in range(k):
            block = slice(t * m, (t + 1) * m)
            yield "projection", tuple(range(k)), diff[block], none

    max_residual = 0.0
    witness = None
    for kind, modes, diff, distance in comparisons():
        shape = diff.num.shape[:-1]
        max_residual = max(max_residual, float(distance.max(initial=0.0)))
        bad = nonzero_rows(ext, diff.num.reshape(-1, k)).reshape(shape)
        for index in np.ndindex(shape if witness is None else (0,)):
            *arrows, x = index
            # a value far from its root fails first in its own rows
            far = x == 0 and distance[tuple(arrows)] > ORACLE_TOL
            if far or bad[index]:
                residual = distance[tuple(arrows)] if far else oracle.to_complex(ext, diff)[index]
                witness = OracleWitness(
                    kind, modes, tuple(int(a) for a in arrows), float(oracle.magnitude(residual))
                )
                break

    summands = [
        ModeSummand(n, m, -1 if skip_centers else alg.twisted(n).center_dimension())
        for n in range(k)
    ]
    return CyclicDecomposition(
        k=k,
        summands=summands,
        products_checked=(k * m) ** 2,
        stars_checked=k * m,
        projections_checked=k * k * m + ext.dimension,
        exact=exact,
        max_residual=max_residual,
        ok=witness is None,
        witness=witness,
    )
