"""Loop references for the orbits, principality and the isotropy quotient.

``groupoid.py`` decides these on its index arrays.  The functions here
decide them the long way, arrow by arrow: the orbits by union-find, the
witness of non-principality by a walk over the isotropy groups unit by unit,
the isotropy classes by collecting each arrow's class a.H in turn, and the
oracle's quotient check by matching classes to base arrows one extension
arrow at a time, so the tests can compare the two field by field.
"""

from typing import NamedTuple

from gpdext.groupoid import (
    FiniteGroupoid,
    GroupoidError,
    isomorphism_violations,
)


class LoopOrbits(NamedTuple):
    orbit_of: tuple[int, ...]  # unit -> orbit id
    orbits: tuple[tuple[int, ...], ...]  # orbit id -> sorted units
    isotropy: tuple[tuple[int, ...], ...]  # unit -> arrows with r = s = u


def loop_orbit_decomposition(g) -> LoopOrbits:
    """Orbits by union-find over the arrows, ids ordered by least unit."""
    parent = list(range(g.n_units))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in g.arrows():
        ru, su = find(g.r(a)), find(g.s(a))
        if ru != su:
            parent[max(ru, su)] = min(ru, su)

    roots = sorted({find(u) for u in g.units()})
    orbit_id = {root: i for i, root in enumerate(roots)}
    orbit_of = tuple(orbit_id[find(u)] for u in g.units())
    orbits = tuple(tuple(u for u in g.units() if orbit_of[u] == i) for i in range(len(roots)))
    iso = tuple(
        tuple(a for a in g.source_fiber(u) if g.r(a) == u) for u in g.units()
    )
    return LoopOrbits(orbit_of, orbits, iso)


def loop_orbit_units(g) -> list[int]:
    return [orbit[0] for orbit in loop_orbit_decomposition(g).orbits]


def loop_principal_obstruction(g):
    """The first non-unit isotropy arrow, unit by unit and then by arrow id."""
    iso = loop_orbit_decomposition(g).isotropy
    for u in g.units():
        for a in iso[u]:
            if a != g.unit_arrow(u):
                return a
    return None


def loop_quotient_by_isotropy(g):
    """The quotient by the isotropy bundle, one class a.H at a time, classes
    in order of their least member."""
    iso = loop_orbit_decomposition(g).isotropy
    class_of = [None] * g.n_arrows
    reps = []
    for a in g.arrows():
        if class_of[a] is not None:
            continue
        members = sorted(g.compose_table[a, h] for h in iso[g.s(a)])
        cid = len(reps)
        reps.append(members[0])
        for m in members:
            if class_of[m] is not None and class_of[m] != cid:
                raise GroupoidError("isotropy classes are inconsistent; input not a groupoid?")
            class_of[m] = cid
    compose = {}
    for (a, b), c in g.compose_table.items():
        val = class_of[c]
        if compose.setdefault((class_of[a], class_of[b]), val) != val:
            raise GroupoidError("quotient composition not well defined; input not a groupoid?")
    q = FiniteGroupoid(
        g.n_units,
        [g.r(rep) for rep in reps],
        [g.s(rep) for rep in reps],
        compose,
        [class_of[g.inv(rep)] for rep in reps],
        [class_of[g.unit_arrow(u)] for u in g.units()],
        unit_labels=g.unit_labels,
        arrow_labels=[f"[{g.arrow_labels[rep]}]" for rep in reps],
        name=f"{g.name}/iso",
    )
    return q, tuple(class_of)


def loop_quotient_matches_base(ext, q, proj) -> list[str]:
    """``cyclic_oracle.quotient_matches_base`` for a given quotient and
    projection, one extension arrow at a time."""
    arrow_map = [None] * q.n_arrows
    for x in range(ext.dimension):
        a = x % ext.base.n_arrows
        cls = proj[x]
        if arrow_map[cls] is None:
            arrow_map[cls] = a
        elif arrow_map[cls] != a:
            return [f"class {cls} mixes distinct base arrows"]
    if any(a is None for a in arrow_map):
        return ["projection misses a class"]
    return isomorphism_violations(q, ext.base, arrow_map)
