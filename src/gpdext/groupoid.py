"""Finite groupoids with table-backed composition.

Units and arrows are dense integer indices; composition is a partial map
stored as a dict keyed by composable pairs, so composition is O(1) and every
composable pair/triple can be enumerated exhaustively.  Instances are treated
as immutable after construction: all operations here are pure functions and
may be evaluated in parallel on disjoint inputs.

Construction does not validate; ``validate`` reports every violated axiom
with witnessing arrows, which lets tests build deliberately broken tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations


class GroupoidError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: tuple
    message: str


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, witness: tuple, message: str):
        self.violations.append(Violation(rule, witness, message))

    def raise_if_failed(self):
        if not self.ok:
            first = self.violations[0]
            raise GroupoidError(
                f"{self.subject}: {len(self.violations)} violation(s); "
                f"first: [{first.rule}] {first.message}"
            )

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.rule}] {v.message}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


class FiniteGroupoid:
    """A finite groupoid.

    range_map/source_map send arrow ids to unit ids, compose_table maps
    composable pairs (a, b) to a∘b, inverse_map is an involution on arrows,
    and unit_to_arrow embeds units as identity arrows.
    """

    def __init__(
        self,
        n_units: int,
        range_map,
        source_map,
        compose_table: dict,
        inverse_map,
        unit_to_arrow,
        unit_labels=None,
        arrow_labels=None,
        name: str = "groupoid",
    ):
        self.n_units = int(n_units)
        self.range_map = tuple(range_map)
        self.source_map = tuple(source_map)
        self.compose_table = dict(compose_table)
        self.inverse_map = tuple(inverse_map)
        self.unit_to_arrow = tuple(unit_to_arrow)
        self.name = name
        self.n_arrows = len(self.range_map)
        if unit_labels is None:
            unit_labels = [f"u{u}" for u in range(self.n_units)]
        if arrow_labels is None:
            arrow_labels = [f"a{a}" for a in range(self.n_arrows)]
        self.unit_labels = tuple(str(x) for x in unit_labels)
        self.arrow_labels = tuple(str(x) for x in arrow_labels)
        self._source_fibers = None
        self._range_fibers = None

    # -- basic queries ------------------------------------------------------

    def r(self, a: int) -> int:
        return self.range_map[a]

    def s(self, a: int) -> int:
        return self.source_map[a]

    def inv(self, a: int) -> int:
        return self.inverse_map[a]

    def unit_arrow(self, u: int) -> int:
        return self.unit_to_arrow[u]

    def is_composable(self, a: int, b: int) -> bool:
        return self.source_map[a] == self.range_map[b]

    def compose(self, a: int, b: int) -> int:
        try:
            return self.compose_table[(a, b)]
        except KeyError:
            raise GroupoidError(
                f"{self.arrow_labels[a]} and {self.arrow_labels[b]} are not composable"
            ) from None

    def compose_or_none(self, a: int, b: int):
        return self.compose_table.get((a, b))

    def units(self):
        return range(self.n_units)

    def arrows(self):
        return range(self.n_arrows)

    def _build_fibers(self):
        src = [[] for _ in range(self.n_units)]
        rng = [[] for _ in range(self.n_units)]
        for a in range(self.n_arrows):
            src[self.source_map[a]].append(a)
            rng[self.range_map[a]].append(a)
        self._source_fibers = tuple(tuple(f) for f in src)
        self._range_fibers = tuple(tuple(f) for f in rng)

    def source_fiber(self, u: int) -> tuple[int, ...]:
        """Arrows with source u, in ascending id order."""
        if self._source_fibers is None:
            self._build_fibers()
        return self._source_fibers[u]

    def range_fiber(self, u: int) -> tuple[int, ...]:
        if self._range_fibers is None:
            self._build_fibers()
        return self._range_fibers[u]

    def composable_pairs(self):
        return sorted(self.compose_table)

    def composable_triples(self):
        """All (a, b, c) with s(a) = r(b) and s(b) = r(c)."""
        for a, b in self.composable_pairs():
            for c in self.range_fiber(self.source_map[b]):
                yield (a, b, c)

    def isotropy(self, u: int) -> tuple[int, ...]:
        return tuple(a for a in self.range_fiber(u) if self.source_map[a] == u)

    def __repr__(self):
        return f"{self.name}({self.n_units} units, {self.n_arrows} arrows)"


# ---------------------------------------------------------------------------
# validation

def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exhaustively; violations are data."""
    rep = ValidationReport(subject=g.name)
    lab = g.arrow_labels
    n_u, n_a = g.n_units, g.n_arrows

    for a in range(n_a):
        if not (0 <= g.range_map[a] < n_u) or not (0 <= g.source_map[a] < n_u):
            rep.add("index", (a,), f"range/source of {lab[a]} out of bounds")
        if not (0 <= g.inverse_map[a] < n_a):
            rep.add("index", (a,), f"inverse of {lab[a]} out of bounds")
    if len(g.unit_to_arrow) != n_u:
        rep.add("index", (), "unit_to_arrow has wrong length")
    if not rep.ok:
        return rep  # further checks would index out of bounds

    for u in range(n_u):
        e = g.unit_arrow(u)
        if g.r(e) != u or g.s(e) != u:
            rep.add("unit-embedding", (u,), f"unit arrow {lab[e]} not over unit {u}")

    # compose defined exactly on composable pairs, with coherent range/source
    for a in range(n_a):
        for b in range(n_a):
            defined = (a, b) in g.compose_table
            if defined != g.is_composable(a, b):
                rep.add(
                    "composability",
                    (a, b),
                    f"compose({lab[a]},{lab[b]}) "
                    + ("defined but sources/ranges mismatch" if defined else "missing"),
                )
    for (a, b), c in g.compose_table.items():
        if not (0 <= c < n_a):
            rep.add("index", (a, b), f"compose({lab[a]},{lab[b]}) out of bounds")
            continue
        if g.r(c) != g.r(a) or g.s(c) != g.s(b):
            rep.add(
                "range-source",
                (a, b, c),
                f"compose({lab[a]},{lab[b]})={lab[c]} has wrong range or source",
            )

    if any(v.rule == "index" for v in rep.violations):
        return rep

    for a in range(n_a):
        e_r, e_s = g.unit_arrow(g.r(a)), g.unit_arrow(g.s(a))
        if g.compose_or_none(e_r, a) != a or g.compose_or_none(a, e_s) != a:
            rep.add("unit-law", (a,), f"unit law fails at {lab[a]}")
        ai = g.inv(a)
        if g.inv(ai) != a:
            rep.add("inverse-involution", (a,), f"inverse of inverse of {lab[a]} differs")
        if g.r(ai) != g.s(a) or g.s(ai) != g.r(a):
            rep.add("inverse-range", (a,), f"inverse of {lab[a]} swaps range/source incorrectly")
        if g.compose_or_none(a, ai) != g.unit_arrow(g.r(a)):
            rep.add("inverse-law", (a,), f"{lab[a]} composed with its inverse is not the unit at its range")
        if g.compose_or_none(ai, a) != g.unit_arrow(g.s(a)):
            rep.add("inverse-law", (a,), f"inverse of {lab[a]} composed with it is not the unit at its source")

    for a, b, c in g.composable_triples():
        ab = g.compose_or_none(a, b)
        bc = g.compose_or_none(b, c)
        if ab is None or bc is None:
            continue  # gap already reported by the composability check
        left = g.compose_or_none(ab, c)
        right = g.compose_or_none(a, bc)
        if left != right or left is None:
            rep.add(
                "associativity",
                (a, b, c),
                f"({lab[a]}{lab[b]}){lab[c]} != {lab[a]}({lab[b]}{lab[c]})",
            )
    return rep


# ---------------------------------------------------------------------------
# structural predicates

PROPER_NOTE = (
    "every map from a finite space is proper, so (range, source) is proper "
    "for any finite groupoid"
)


def is_principal(g: FiniteGroupoid) -> bool:
    """True when arrows are determined by their (range, source) pair."""
    seen = set()
    for a in range(g.n_arrows):
        key = (g.r(a), g.s(a))
        if key in seen:
            return False
        seen.add(key)
    return True


def principal_obstruction(g: FiniteGroupoid):
    """A non-unit isotropy arrow witnessing failure of principality, or None."""
    for u in range(g.n_units):
        for a in g.isotropy(u):
            if a != g.unit_arrow(u):
                return a
    return None


def is_transitive(g: FiniteGroupoid) -> bool:
    return len(orbit_decomposition(g).orbits) <= 1


def is_proper(g: FiniteGroupoid) -> bool:
    return True


@dataclass
class OrbitDecomposition:
    orbit_of: tuple[int, ...]           # unit -> orbit id
    orbits: tuple[tuple[int, ...], ...]  # orbit id -> sorted units
    isotropy: tuple[tuple[int, ...], ...]  # unit -> arrows with r = s = u


def orbit_decomposition(g: FiniteGroupoid) -> OrbitDecomposition:
    """Orbits of the unit space (ids ordered by minimal unit) and isotropy groups."""
    parent = list(range(g.n_units))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(g.n_arrows):
        ru, su = find(g.r(a)), find(g.s(a))
        if ru != su:
            parent[max(ru, su)] = min(ru, su)

    roots = sorted({find(u) for u in range(g.n_units)})
    orbit_id = {root: i for i, root in enumerate(roots)}
    orbit_of = tuple(orbit_id[find(u)] for u in range(g.n_units))
    orbits = tuple(
        tuple(u for u in range(g.n_units) if orbit_of[u] == i) for i in range(len(roots))
    )
    iso = tuple(g.isotropy(u) for u in range(g.n_units))
    return OrbitDecomposition(orbit_of, orbits, iso)


# ---------------------------------------------------------------------------
# constructions

def pair_groupoid(n: int) -> FiniteGroupoid:
    """Arrows (i, j) on n units with (i, j)(j, k) = (i, k); principal and transitive."""
    if n < 1:
        raise GroupoidError("pair groupoid needs at least one unit")
    idx = lambda i, j: i * n + j
    rng = [i for i in range(n) for _ in range(n)]
    src = [j for _ in range(n) for j in range(n)]
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[(idx(i, j), idx(j, k))] = idx(i, k)
    inverse = [idx(j, i) for i in range(n) for j in range(n)]
    unit_to_arrow = [idx(u, u) for u in range(n)]
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    return FiniteGroupoid(
        n, rng, src, compose, inverse, unit_to_arrow,
        unit_labels=[str(u) for u in range(n)],
        arrow_labels=labels,
        name=f"pair({n})",
    )


def group_groupoid(table: list[list[int]], labels=None, name: str = "group") -> FiniteGroupoid:
    """A finite group, given by its multiplication table, as a one-unit groupoid."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise GroupoidError("multiplication table must be square and nonempty")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupoidError("table has no identity element")
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise GroupoidError(f"element {a} has no inverse")
    compose = {(a, b): table[a][b] for a in range(n) for b in range(n)}
    if labels is None:
        labels = [f"g{a}" for a in range(n)]
    return FiniteGroupoid(
        1, [0] * n, [0] * n, compose, inverse, [identity],
        unit_labels=["*"], arrow_labels=labels, name=name,
    )


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_groupoid(table, labels=[str(i) for i in range(n)], name=f"Z{n}")


def abelian_group_groupoid(orders: tuple[int, ...]) -> FiniteGroupoid:
    """Direct product of cyclic groups, componentwise addition."""
    elems = [()]
    for m in orders:
        elems = [e + (i,) for e in elems for i in range(m)]
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = [
        [index[tuple((x + y) % m for x, y, m in zip(a, b, orders))] for b in elems]
        for a in elems
    ]
    labels = ["(" + ",".join(map(str, e)) + ")" for e in elems]
    name = "x".join(f"Z{m}" for m in orders)
    return group_groupoid(table, labels=labels, name=name)


def symmetric_group_groupoid(n: int) -> FiniteGroupoid:
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in elems]
        for p in elems
    ]
    labels = ["".join(map(str, p)) for p in elems]
    return group_groupoid(table, labels=labels, name=f"S{n}")


def disjoint_union(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    du, da = g.n_units, g.n_arrows
    rng = list(g.range_map) + [u + du for u in h.range_map]
    src = list(g.source_map) + [u + du for u in h.source_map]
    compose = dict(g.compose_table)
    compose.update({(a + da, b + da): c + da for (a, b), c in h.compose_table.items()})
    inverse = list(g.inverse_map) + [a + da for a in h.inverse_map]
    unit_to_arrow = list(g.unit_to_arrow) + [a + da for a in h.unit_to_arrow]
    return FiniteGroupoid(
        g.n_units + h.n_units, rng, src, compose, inverse, unit_to_arrow,
        unit_labels=[f"L.{x}" for x in g.unit_labels] + [f"R.{x}" for x in h.unit_labels],
        arrow_labels=[f"L.{x}" for x in g.arrow_labels] + [f"R.{x}" for x in h.arrow_labels],
        name=f"{g.name}+{h.name}",
    )


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(0, [], [], {}, [], [], name="empty")


def cover_groupoid(points, cover) -> FiniteGroupoid:
    """The groupoid of an indexed cover: units (x, i) with x in U_i, one arrow
    ((x, i), (x, j)) for every x in the overlap of U_i and U_j."""
    points = list(points)
    cover = [set(U) for U in cover]
    for x in points:
        if not any(x in U for U in cover):
            raise GroupoidError(f"point {x!r} lies outside every cover set")
    units = [(x, i) for i, U in enumerate(cover) for x in points if x in U]
    uindex = {xu: k for k, xu in enumerate(units)}
    arrows = _cover_arrows(points, cover)
    aindex = {a: k for k, a in enumerate(arrows)}
    rng = [uindex[(x, i)] for (x, i, j) in arrows]
    src = [uindex[(x, j)] for (x, i, j) in arrows]
    compose = {}
    for (x, i, j) in arrows:
        for k2 in range(len(cover)):
            b = (x, j, k2)
            if b in aindex:
                compose[(aindex[(x, i, j)], aindex[b])] = aindex[(x, i, k2)]
    inverse = [aindex[(x, j, i)] for (x, i, j) in arrows]
    unit_to_arrow = [aindex[(x, i, i)] for (x, i) in units]
    return FiniteGroupoid(
        len(units), rng, src, compose, inverse, unit_to_arrow,
        unit_labels=[f"({x}|U{i})" for (x, i) in units],
        arrow_labels=[f"({x}|U{i}<-U{j})" for (x, i, j) in arrows],
        name="cover",
    )


def _cover_arrows(points, cover) -> list[tuple]:
    """The arrows (x, i, j) of ``cover_groupoid(points, cover)`` in arrow-id
    order: x in the overlap of U_i and U_j, the range at (x, i)."""
    points = list(points)
    cover = [set(U) for U in cover]
    return [
        (x, i, j)
        for i, U in enumerate(cover)
        for j, V in enumerate(cover)
        for x in points
        if x in U and x in V
    ]


# ---------------------------------------------------------------------------
# quotient by isotropy

def quotient_by_isotropy(g: FiniteGroupoid):
    """Collapse the isotropy bundle.

    Arrows of the quotient are classes gamma*A (A the isotropy bundle, which
    is normal: conjugation maps isotropy groups to isotropy groups), ordered
    and labelled by the minimal member arrow.  Returns the quotient groupoid
    and the projection arrow -> class id, which is a groupoid morphism.
    """
    dec = orbit_decomposition(g)
    class_of = [None] * g.n_arrows
    reps = []
    for a in range(g.n_arrows):
        if class_of[a] is not None:
            continue
        members = sorted(g.compose(a, al) for al in dec.isotropy[g.s(a)])
        cid = len(reps)
        reps.append(members[0])
        for m in members:
            if class_of[m] is not None and class_of[m] != cid:
                raise GroupoidError("isotropy classes are inconsistent; input not a groupoid?")
            class_of[m] = cid
    n_q = len(reps)
    rng = [g.r(rep) for rep in reps]
    src = [g.s(rep) for rep in reps]
    compose = {}
    for (a, b), c in g.compose_table.items():
        key = (class_of[a], class_of[b])
        val = class_of[c]
        if compose.setdefault(key, val) != val:
            raise GroupoidError("quotient composition not well defined; input not a groupoid?")
    inverse = [class_of[g.inv(rep)] for rep in reps]
    unit_to_arrow = [class_of[g.unit_arrow(u)] for u in range(g.n_units)]
    q = FiniteGroupoid(
        g.n_units, rng, src, compose, inverse, unit_to_arrow,
        unit_labels=g.unit_labels,
        arrow_labels=[f"[{g.arrow_labels[rep]}]" for rep in reps],
        name=f"{g.name}/iso",
    )
    return q, tuple(class_of)


def isomorphism_violations(g: FiniteGroupoid, h: FiniteGroupoid, arrow_map) -> list[str]:
    """Check that arrow_map: arrows(g) -> arrows(h) is a groupoid isomorphism.

    The unit correspondence is derived from the unit arrows.  Returns a list
    of human-readable defects; empty means arrow_map is an isomorphism.
    """
    out = []
    if g.n_arrows != h.n_arrows or g.n_units != h.n_units:
        out.append("size mismatch")
        return out
    if sorted(arrow_map) != list(range(h.n_arrows)):
        out.append("arrow map is not a bijection")
        return out
    unit_map = {}
    for u in range(g.n_units):
        img = arrow_map[g.unit_arrow(u)]
        if img not in set(h.unit_to_arrow):
            out.append(f"unit arrow of {u} does not map to a unit arrow")
            return out
        unit_map[u] = h.r(img)
    if len(set(unit_map.values())) != g.n_units:
        out.append("unit correspondence is not a bijection")
    for a in range(g.n_arrows):
        if h.r(arrow_map[a]) != unit_map[g.r(a)] or h.s(arrow_map[a]) != unit_map[g.s(a)]:
            out.append(f"range/source not preserved at arrow {g.arrow_labels[a]}")
            break
    for (a, b), c in g.compose_table.items():
        if h.compose_or_none(arrow_map[a], arrow_map[b]) != arrow_map[c]:
            out.append(
                f"composition not preserved at ({g.arrow_labels[a]},{g.arrow_labels[b]})"
            )
            break
    return out
