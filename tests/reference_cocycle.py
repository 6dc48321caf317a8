"""A loop reference for ``TwoCocycle.check_identity``.

``check_identity`` decides the cocycle identity on index arrays.  The
function here checks it the long way, two ``CircleScalar`` products per
composable triple, with its own triple enumeration over the composition
dict, so the tests can compare the two violation for violation.
"""

from gpdext.groupoid import ValidationReport


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
            if not lhs.isclose(rhs):
                rep.add(
                    "cocycle-identity",
                    (a, b, c),
                    f"identity fails on ({lab[a]},{lab[b]},{lab[c]}): "
                    f"lhs={lhs!r} rhs={rhs!r}",
                )
    return rep
