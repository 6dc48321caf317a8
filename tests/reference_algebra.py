"""Loop references for the twisted algebra and the graded fibre matrix.

The library combines numeric elements, complex arrays over the arrows, by
array scatter and gather over the compiled groupoid and cocycle tables.  The
functions here are the loops those replaced: one value of w^n per
composable pair, read off the algebra's table of w^n by ``sigma``, and one
Python complex product per term.  A numeric product sums its terms over
every composable pair in ``pair_table`` order, starting from 0j; an exact
one, of two dict elements over an exact cocycle, runs over the left
operand's support order, each product's keys in the order they are first
touched.  The reduced norm is
one spectral norm per unit, over every unit.  The tests compare the two bit
for bit, apart from the reduced norm, which the library takes at one unit
per orbit.
"""

from fractions import Fraction

import numpy as np

from gpdext.algebra import AlgebraElement
from gpdext.exact import CircleScalar, Cyclo
from gpdext.extension import INTERTWINE_TOL, NORM_TOL


def sigma(alg, a: int, b: int):
    """The twisting value w^n(a, b) of the algebra C(G, w^n), read off its
    table of w^n: an exact ``CircleScalar`` of the angle over the cocycle's
    conductor, or the complex value of a numeric cocycle's power table."""
    x, w = alg.powers.item(a, b), alg.cocycle
    return CircleScalar(angle=Fraction(x, w.conductor)) if w.is_exact else x


def value(w) -> complex:
    return w.to_complex() if isinstance(w, CircleScalar) else w


def times(w, coeff):
    """coeff times the circle value w, exact when both are exact."""
    if isinstance(w, CircleScalar) and w.is_exact:
        if isinstance(coeff, Cyclo):
            return coeff.rotated(w.angle)
        if isinstance(coeff, (int, Fraction)):
            return Cyclo.from_root(w.angle, coeff)
    return value(w) * complex(coeff)


def conj(w):
    return CircleScalar(angle=-w.angle) if isinstance(w, CircleScalar) else w.conjugate()


def coefficients(f: AlgebraElement) -> list[complex]:
    """f's coefficients as Python complex values, one per arrow."""
    return [complex(f.value(a)) for a in f.algebra.groupoid.arrows()]


def loop_convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    alg = f.algebra
    G = alg.groupoid
    if f.is_numeric or g.is_numeric or not alg.cocycle.is_exact:
        x, y = coefficients(f), coefficients(g)
        out = [0j] * G.n_arrows
        for a, b, c in zip(*(t.tolist() for t in G.pair_table)):
            out[c] += value(sigma(alg, a, b)) * (x[a] * y[b])
        return AlgebraElement(alg, np.array(out, dtype=complex))
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
    if f.is_numeric or not alg.cocycle.is_exact:
        x = coefficients(f)
        out = [0j] * G.n_arrows
        for a in G.arrows():
            ai = G.inv(a)
            out[ai] = value(sigma(alg, ai, a)).conjugate() * x[a].conjugate()
        return AlgebraElement(alg, np.array(out, dtype=complex))
    out = {}
    for a, ca in f.coeff.items():
        ai = G.inv(a)
        out[ai] = times(conj(sigma(alg, ai, a)), ca.conjugate())
    return AlgebraElement(alg, out)


def loop_regular_rep(f: AlgebraElement, u: int) -> np.ndarray:
    alg = f.algebra
    G = alg.groupoid
    basis = G.source_fiber(u)
    x = coefficients(f)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, b in enumerate(basis):
        for i, c in enumerate(basis):
            a = G.compose_or_none(c, G.inv(b))
            M[i, j] = x[a] * value(sigma(alg, a, b))
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
        f = alg.element(np.array(coefficients(F.mode(m))))  # numeric, exact modes included
        for j, a in enumerate(fiber):
            image = coefficients(loop_convolve(f, alg.delta(a)))
            for r, c in enumerate(fiber):
                M[i * d + r, i * d + j] = image[c]
    return M


def loop_reduced_norm(alg, f: AlgebraElement) -> tuple[float, int | None]:
    """The largest spectral norm of lambda_u(f) over every unit, one
    ``np.linalg.norm`` per unit, and the first unit that attains it."""
    best, best_u = 0.0, None
    for u in alg.groupoid.units():
        m = alg.regular_rep(f, u).matrix
        nrm = float(np.linalg.norm(m, 2)) if m.size else 0.0
        if best_u is None or nrm > best:
            best, best_u = nrm, u
    return best, best_u


def loop_reduced_decomposition(elements) -> tuple:
    """The reduced-decomposition certificate one sample and one unit at a
    time, over each sample's own mode span, with the loop fibre matrices and
    one ``np.linalg.norm`` per matrix: (max norm deviation, max unit
    deviation, max residual, first failing (sample, unit) or None).  The
    extension norm is the largest block norm at the first unit of each orbit."""
    max_dev = max_unit_dev = max_res = 0.0
    witness = None
    for i, F in enumerate(elements):
        if F.is_zero:
            continue
        window = (min(F.modes), max(F.modes))
        G = F.algebra.groupoid
        firsts = [u for u in G.units() if min(G.r(a) for a in G.source_fiber(u)) == u]
        overall = extension_norm = 0.0
        for u in G.units():
            R = loop_extension_regular_matrix(F, u, window)
            blocks = [loop_regular_rep(F.mode(n), u) for n in range(window[0], window[1] + 1)]
            L = np.zeros_like(R)
            d = len(blocks[0])
            for j, block in enumerate(blocks):
                L[j * d : (j + 1) * d, j * d : (j + 1) * d] = block
            residual = float(np.abs(R - L).max())
            nR = float(np.linalg.norm(R, 2))
            nL = max(float(np.linalg.norm(block, 2)) for block in blocks)
            if witness is None and (residual > INTERTWINE_TOL or abs(nR - nL) > NORM_TOL):
                witness = (i, u)
            max_res = max(max_res, residual)
            max_unit_dev = max(max_unit_dev, abs(nR - nL))
            overall = max(overall, nR)
            if u in firsts:
                extension_norm = max(extension_norm, nL)
        max_dev = max(max_dev, abs(overall - extension_norm))
    return max_dev, max_unit_dev, max_res, witness
