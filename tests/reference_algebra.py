"""Loop references for the twisted algebra and the graded fibre matrix.

The library combines numeric elements by array scatter and gather over the
compiled groupoid and cocycle tables.  The functions here are the dict loops
those replaced: one ``CircleScalar`` per composable pair, read off the table
of w^n by ``sigma``, with each sum taken in the left operand's support
order and each product's keys in the order they are first touched; and the
reduced norm as one spectral norm per unit.  The tests compare the two bit
for bit.
"""

from fractions import Fraction

import numpy as np

from gpdext.algebra import AlgebraElement
from gpdext.exact import CircleScalar, Cyclo


def sigma(alg, a: int, b: int) -> CircleScalar:
    """The twisting value w^n(a, b) of the algebra C(G, w^n), read off its
    table of w^n: an angle over the cocycle's conductor, or a complex value."""
    x, w = alg.powers.item(a, b), alg.cocycle
    return CircleScalar(angle=Fraction(x, w.conductor)) if w.is_exact else CircleScalar(z=x)


def times(w: CircleScalar, coeff):
    """coeff times the circle value w, exact when both are exact."""
    if w.is_exact:
        if isinstance(coeff, Cyclo):
            return coeff.rotated(w.angle)
        if isinstance(coeff, (int, Fraction)):
            return Cyclo.from_root(w.angle, coeff)
    return w.to_complex() * complex(coeff)


def conj(w: CircleScalar) -> CircleScalar:
    return CircleScalar(angle=-w.angle) if w.is_exact else CircleScalar(z=w.z.conjugate())


def loop_convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    alg = f.algebra
    G = alg.groupoid
    out: dict = {}
    for a, ca in f.coeff.items():
        for b, cb in g.coeff.items():
            c = G.compose_or_none(a, b)
            if c is None:
                continue
            term = times(sigma(alg, a, b), ca * cb)
            acc = out.get(c)
            out[c] = term if acc is None else acc + term
    return AlgebraElement(alg, out)


def loop_involute(f: AlgebraElement) -> AlgebraElement:
    alg = f.algebra
    G = alg.groupoid
    out = {}
    for a, ca in f.coeff.items():
        ai = G.inv(a)
        out[ai] = times(conj(sigma(alg, ai, a)), ca.conjugate())
    return AlgebraElement(alg, out)


def loop_regular_rep(f: AlgebraElement, u: int) -> np.ndarray:
    alg = f.algebra
    G = alg.groupoid
    basis = G.source_fiber(u)
    pos = {b: i for i, b in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for a, ca in f.coeff.items():
        za = complex(ca)
        for j, b in enumerate(basis):
            c = G.compose_or_none(a, b)
            if c is None:
                continue
            M[pos[c], j] += za * sigma(alg, a, b).to_complex()
    return M


def loop_extension_regular_matrix(F, u: int, window: tuple[int, int]) -> np.ndarray:
    """Graded convolution by F on the windowed fibre over u, one product of
    F's mode-m component with a delta per column (m, a)."""
    lo, hi = window
    modes = range(lo, hi + 1)
    fiber = F.algebra.groupoid.source_fiber(u)
    d = len(fiber)
    M = np.zeros((d * len(modes), d * len(modes)), dtype=complex)
    for i, m in enumerate(modes):
        alg = F.algebra.twisted(m)
        for j, a in enumerate(fiber):
            image = loop_convolve(F.mode(m), alg.delta(a))
            for c, v in image.coeff.items():
                M[i * d + fiber.index(c), i * d + j] = complex(v)
    return M


def loop_reduced_norm(alg, f: AlgebraElement) -> tuple[float, int | None]:
    """The largest spectral norm of lambda_u(f) over the units, one
    ``np.linalg.norm`` per unit, and the first unit that attains it."""
    best, best_u = 0.0, None
    for u in alg.groupoid.units():
        m = alg.regular_rep(f, u).matrix
        nrm = float(np.linalg.norm(m, 2)) if m.size else 0.0
        if best_u is None or nrm > best:
            best, best_u = nrm, u
    return best, best_u
