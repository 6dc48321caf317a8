"""Loop references for the cyclic oracle's convolution and the mode
decomposition certificate.

``scan_conv`` finds the composable pairs of a convolution by testing every
pair of the extension against every batch row, ``gather_projection`` takes
an exact Fourier projection as one gather of shifted coefficients, where the
library scatters the terms of each nonzero entry, ``embed_mode`` embeds
exact base coefficients in a mode, which the library no longer does,
``loop_reduced_norm`` takes
one spectral norm per unit, and ``loop_decompose`` runs the comparisons of
``cyclic_decompose`` one (mode, mode) block at a time: products
(n, p, a, b), then stars (n, a), then projections (n, mm, a), then the
Fourier block.  Its expected values cross into the oracle one at a time: a
``CircleScalar`` per composable pair from ``sigma``, and a star per mode
delta from the graded model's own ``involute``, so matching it also checks
that involution against the oracle.  The tests compare the library with
them field for field and bit for bit.
"""

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
from reference_algebra import sigma
from reference_ranks import regular_rep_matrix


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


def gather_projection(ext, f, n: int):
    """The n-th Fourier projection p_n(f)(t, a) = (1/k) sum_j f(t + j, a) e(jn/k),
    exact values by one gather: coefficient s of the projection at (t, a)
    sums coefficient s - jn of f at (t + j, a) over the shifts j.  Numeric
    values take the oracle's own ``mode_projection``."""
    if not isinstance(f, oracle.Exact):
        return oracle.mode_projection(ext, f, n)
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


def embed_mode(ext, n: int, coeffs):
    """Base coefficients F_n into the mode-n homogeneous part,
    (t, a) -> e(-tn/k) F_n(a): exact ones, an ``Exact`` with num of shape
    (..., |A|, k), by rotating each coefficient vector; numeric ones by the
    oracle's own ``embed_mode``."""
    if not isinstance(coeffs, oracle.Exact):
        return oracle.embed_mode(ext, n, coeffs)
    k, m = ext.k, ext.base.n_arrows
    # rotating by e(-tn/k) moves coefficient s + tn to s
    num = coeffs.num[..., (np.arange(k) + np.arange(k)[:, None] * n) % k]  # (..., a, t, s)
    num = np.swapaxes(num, -3, -2)
    return oracle.Exact(num.reshape(num.shape[:-3] + (k * m, k)), coeffs.e)


def loop_reduced_norm(ext, f: np.ndarray) -> float:
    """The largest spectral norm of convolution by f on a source fiber, one
    ``np.linalg.norm`` per unit."""
    best = 0.0
    for u in ext.groupoid.units():
        m = regular_rep_matrix(ext, f, u)
        if m.size:
            best = max(best, float(np.linalg.norm(m, 2)))
    return best


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


def _oracle_form(values: dict, shape: tuple[int, ...], k: int, exact: bool):
    """Graded-model values {index: value} (circle values or algebra
    coefficients) as one dense array in the oracle's form: exact values as
    their coefficients of zeta_k^j, each value in Z[zeta_k], numeric ones as
    complex."""
    if exact:
        num = np.zeros(shape + (k,), dtype=np.int64)
        for index, c in values.items():
            c = Cyclo.from_root(c.angle) if isinstance(c, CircleScalar) else Cyclo.coerce(c)
            num[index] = _coefficients(c, k)
        return oracle.Exact(num)
    out = np.zeros(shape, dtype=complex)
    for index, c in values.items():
        out[index] = c.to_complex() if isinstance(c, CircleScalar) else complex(c)
    return out


def loop_decompose(ext, skip_centers: bool = False) -> CyclicDecomposition:
    """The mode decomposition certificate, one comparison per (mode, mode)
    block, with ``scan_conv`` for the products."""
    base = ext.base
    k, m = ext.k, base.n_arrows
    exact = ext.cocycle.is_exact
    one = Fraction(1) if exact else 1.0
    tol = 0.0 if exact else ORACLE_TOL
    alg = ExtensionAlgebra(base, ext.cocycle)

    def embedded(n, values, shape):
        return embed_mode(ext, n, _oracle_form(values, shape, k, exact))

    q = [embedded(n, {(a, a): one for a in base.arrows()}, (m, m)) for n in range(k)]

    def comparisons():
        for n in range(k):
            alg_n = alg.twisted(n)
            within = {(a, b, c): sigma(alg_n, a, b) for (a, b), c in base.compose_table.items()}
            for p in range(k):
                got = scan_conv(ext, q[p][:, None], q[n][None, :])
                yield "product", (p, n), got - embedded(n, within, (m, m, m)) if p == n else got
        for n in range(k):
            stars = {
                (a, b): c
                for a in base.arrows()
                for b, c in alg.twisted(n).delta(a, one).star().coeff.items()
            }
            yield "star", (n,), oracle.star(ext, q[n]) - embedded(n, stars, (m, m))
        for n in range(k):
            for mm in range(k):
                want = q[n] if mm == n else embedded(n, {}, (m, m))
                yield "projection", (n, mm), gather_projection(ext, q[n], mm) - want
        deltas = oracle.deltas(ext, range(ext.dimension), exact)
        total = gather_projection(ext, deltas, 0)
        for n in range(1, k):
            total = total + gather_projection(ext, deltas, n)
        for t in range(k):
            block = slice(t * m, (t + 1) * m)
            yield "projection", tuple(range(k)), total[block] - deltas[block]

    max_residual = 0.0
    witness = None
    for kind, modes, diff in comparisons():
        if exact:
            bad = oracle.nonzero_rows(ext, diff.num.reshape(-1, k))
        else:
            deviation = oracle.magnitude(diff).reshape(-1)
            max_residual = max(max_residual, float(deviation.max(initial=0.0)))
            bad = deviation > tol
        for row in range(len(bad)):
            if bad[row] and witness is None:
                value = (oracle.to_complex(ext, diff) if exact else diff).reshape(-1)[row]
                *arrows, _ = np.unravel_index(row, diff.num.shape[:-1] if exact else diff.shape)
                witness = OracleWitness(
                    kind, modes, tuple(int(a) for a in arrows), float(oracle.magnitude(value))
                )

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
