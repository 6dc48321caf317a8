"""Loop references for ``TwoCocycle.check_identity`` and ``TwoCocycle.twists``,
and a ``Fraction`` reference for ``exact.solve_mod1``.

``check_identity`` decides the cocycle identity on index arrays.  The
function here checks it the long way, two ``CircleScalar`` products per
composable triple, with its own triple enumeration over the composition
dict, so the tests can compare the two violation for violation.

``twists`` gathers the complex tables of w^n from one table of roots per
cocycle; ``root_values`` takes one table of angles at a time, one
``CircleScalar.to_complex`` per distinct angle, so the tests can compare
the two bit for bit.

``solve_mod1`` runs its unimodular elimination on ints;
``fraction_solve_mod1`` is the same elimination with the right-hand side,
the column transform and the solution held as ``Fraction``s, so the tests
can compare the two answers value for value.
"""

from fractions import Fraction

import numpy as np

from gpdext.exact import CLOSE_TOL, CircleScalar
from gpdext.groupoid import ValidationReport


def _close(x: CircleScalar, y: CircleScalar) -> bool:
    """Equal angles when both are exact, values within CLOSE_TOL otherwise."""
    if x.is_exact and y.is_exact:
        return x.angle == y.angle
    return abs(x.to_complex() - y.to_complex()) <= CLOSE_TOL


def loop_check_identity(w) -> ValidationReport:
    g = w.base
    rep = ValidationReport(subject=f"cocycle on {g.name}")
    lab = g.arrow_labels
    table = g.compose_table
    for a, b in sorted(table):
        ab = table[(a, b)]
        for c in range(g.n_arrows):
            if g.range_map[c] != g.source_map[b]:
                continue
            lhs = w.value(a, b) * w.value(ab, c)
            rhs = w.value(b, c) * w.value(a, table[(b, c)])
            if not _close(lhs, rhs):
                rep.add(
                    "cocycle-identity",
                    (a, b, c),
                    f"identity fails on ({lab[a]},{lab[b]},{lab[c]}): "
                    f"lhs={lhs!r} rhs={rhs!r}",
                )
    return rep


def root_values(angles: np.ndarray, n: int) -> np.ndarray:
    """The complex values e(x / n) of a table of int angles x, each the float
    ``CircleScalar.to_complex`` gives, taken once per distinct angle."""
    keys, inverse = np.unique(angles, return_inverse=True)
    values = [CircleScalar(angle=Fraction(x, n)).to_complex() for x in keys.tolist()]
    return np.array(values, dtype=complex)[inverse].reshape(angles.shape)


def fraction_solve_mod1(rows: list[list[int]], rhs) -> list[Fraction] | None:
    """Solve an integer linear system modulo 1, on ``Fraction``s.

    Diagonalizes A by unimodular row and column operations (mirrored on the
    right-hand side and on a column-transform accumulator), then reads off
    solvability per diagonal entry.  Returns angles in [0, 1) or ``None``
    when no rational solution exists; the criterion is exact, so ``None``
    certifies unsolvability over the reals as well (the right-hand side is
    rational).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    S = [list(map(int, r)) for r in rows]
    w = [Fraction(x) for x in rhs]
    # columns transform: x = C @ y
    C = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def row_addmul(i, j, q):  # row_i -= q * row_j
        Si, Sj = S[i], S[j]
        for t in range(n):
            Si[t] -= q * Sj[t]
        w[i] -= q * w[j]

    def col_addmul(i, j, q):  # col_i -= q * col_j
        for r in S:
            r[i] -= q * r[j]
        for r in C:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in C:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        # locate a nonzero pivot of smallest magnitude
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = S[t][t]
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // p
                    row_addmul(i, t, q)
                    if S[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        p = S[t][t]
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // p
                    col_addmul(j, t, q)
                    if S[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        p = S[t][t]
            if not dirty:
                break
        t += 1
    rank = t

    y = [Fraction(0)] * n
    for i in range(rank):
        y[i] = w[i] / S[i][i] % 1
    for i in range(rank, m):
        if w[i].denominator != 1:
            return None
    x = []
    for i in range(n):
        acc = Fraction(0)
        Ci = C[i]
        for j in range(rank):
            if Ci[j]:
                acc += Ci[j] * y[j]
        x.append(acc % 1)
    return x
