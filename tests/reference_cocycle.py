"""Loop references for ``TwoCocycle.check_identity`` and ``TwoCocycle.twists``.

``check_identity`` decides the cocycle identity on index arrays.  The
function here checks it the long way, two ``CircleScalar`` products per
composable triple, with its own triple enumeration over the composition
dict, so the tests can compare the two violation for violation.

``twists`` gathers the complex tables of w^n from one table of roots per
cocycle; ``root_values`` takes one table of angles at a time, one
``CircleScalar.to_complex`` per distinct angle, so the tests can compare
the two bit for bit.
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
