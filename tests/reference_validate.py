"""A loop reference for ``groupoid.validate``.

``validate`` decides the groupoid axioms on index arrays.  The function here
checks them the long way, one dict lookup per pair and per triple, with its
own fibres and its own triple enumeration, so the tests can compare the two
violation for violation.
"""

from gpdext.groupoid import ValidationReport


def loop_validate(g) -> ValidationReport:
    rep = ValidationReport(subject=g.name)
    lab = g.arrow_labels
    n_u, n_a = g.n_units, g.n_arrows
    r, s, inv, unit = g.range_map, g.source_map, g.inverse_map, g.unit_to_arrow
    table = g.compose_table

    for name, m in (("source_map", s), ("inverse_map", inv)):
        if len(m) != n_a:
            rep.add("index", (), f"{name} has wrong length")
    if not rep.ok:
        return rep
    for a in range(n_a):
        if not (0 <= r[a] < n_u) or not (0 <= s[a] < n_u):
            rep.add("index", (a,), f"range/source of {lab[a]} out of bounds")
        if not (0 <= inv[a] < n_a):
            rep.add("index", (a,), f"inverse of {lab[a]} out of bounds")
    if len(unit) != n_u:
        rep.add("index", (), "unit_to_arrow has wrong length")
    for u, e in enumerate(unit):
        if not 0 <= e < n_a:
            rep.add("index", (u,), f"unit arrow of unit {u} out of bounds")
    for a, b in sorted(table):
        if not (0 <= a < n_a and 0 <= b < n_a):
            rep.add("index", (a, b), f"compose key ({a}, {b}) outside the arrows")
    if not rep.ok:
        return rep

    for u in range(n_u):
        e = unit[u]
        if r[e] != u or s[e] != u:
            rep.add("unit-embedding", (u,), f"unit arrow {lab[e]} not over unit {u}")

    for a in range(n_a):
        for b in range(n_a):
            defined = (a, b) in table
            if defined != (s[a] == r[b]):
                rep.add(
                    "composability",
                    (a, b),
                    f"compose({lab[a]},{lab[b]}) "
                    + ("defined but sources/ranges mismatch" if defined else "missing"),
                )
    for (a, b), c in table.items():
        if not (0 <= c < n_a):
            rep.add("index", (a, b), f"compose({lab[a]},{lab[b]}) out of bounds")
            continue
        if r[c] != r[a] or s[c] != s[b]:
            rep.add(
                "range-source",
                (a, b, c),
                f"compose({lab[a]},{lab[b]})={lab[c]} has wrong range or source",
            )

    if any(v.rule == "index" for v in rep.violations):
        return rep

    for a in range(n_a):
        e_r, e_s = unit[r[a]], unit[s[a]]
        if table.get((e_r, a)) != a or table.get((a, e_s)) != a:
            rep.add("unit-law", (a,), f"unit law fails at {lab[a]}")
        ai = inv[a]
        if inv[ai] != a:
            rep.add("inverse-involution", (a,), f"inverse of inverse of {lab[a]} differs")
        if r[ai] != s[a] or s[ai] != r[a]:
            rep.add("inverse-range", (a,), f"inverse of {lab[a]} swaps range/source incorrectly")
        if table.get((a, ai)) != unit[r[a]]:
            rep.add("inverse-law", (a,), f"{lab[a]} composed with its inverse is not the unit at its range")
        if table.get((ai, a)) != unit[s[a]]:
            rep.add("inverse-law", (a,), f"inverse of {lab[a]} composed with it is not the unit at its source")

    range_fiber = [[c for c in range(n_a) if r[c] == u] for u in range(n_u)]
    for a, b in sorted(table):
        for c in range_fiber[s[b]]:
            ab, bc = table[(a, b)], table.get((b, c))
            if bc is None:
                continue  # gap already reported by the composability check
            left, right = table.get((ab, c)), table.get((a, bc))
            if left != right or left is None:
                rep.add(
                    "associativity",
                    (a, b, c),
                    f"({lab[a]}{lab[b]}){lab[c]} != {lab[a]}({lab[b]}{lab[c]})",
                )
    return rep
