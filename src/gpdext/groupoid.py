"""Finite groupoids with table-backed composition.

Units and arrows are dense integer indices, and the range, source, inverse
and unit maps read-only ``intp`` arrays.  Composition is a partial map held
as index arrays: the composable pairs (A, B, C = A∘B) in ascending (A, B)
order, a dense compose array holding -1 off the table, and a dense
``pair_position`` array holding each pair's place in those arrays (-1 off
the table).  These arrays are its one stored form: pair arrays given to
the constructor are checked, and a dict keyed by composable pairs is
sorted into them, so nothing depends on the order a dict was written in.
``compose_table`` is a dict view built from the arrays, in pair order.  The
composable triples are generated from these in row blocks of bounded size.
``validate``, the triple enumeration, the cocycle identity check, the
orbits, principality and the isotropy quotient read these tables.  The
orbits have one rule: each unit's orbit is named by its least unit
(``least_units``), and ``orbit_units`` lists those least units; an orbit's
isotropy group is ``FiniteGroupoid.isotropy`` at its least unit.
Instances are treated as immutable after construction: all
operations here are pure functions and may be evaluated in parallel on
disjoint inputs.

Construction checks only the shape of pair arrays; ``validate`` reports
every violated axiom with witnessing arrows, which lets tests build
deliberately broken tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

# Entries (pairs times candidate arrows) per block of the composable-triple
# walk, so that it holds memory proportional to this bound, not to the
# triple count.
_TRIPLE_BLOCK = 2**11


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


def _pair_arrays(A, B, C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair arrays as intp copies, once they are checked to be of one
    length and strictly ascending in (A, B)."""
    A, B, C = (np.array(x, dtype=np.intp) for x in (A, B, C))
    if A.ndim != 1 or A.shape != B.shape or A.shape != C.shape:
        raise GroupoidError("pair arrays must be one-dimensional and of one length")
    step = np.where(A[1:] == A[:-1], B[1:] - B[:-1], A[1:] - A[:-1])
    repeated = np.flatnonzero(step == 0)
    if len(repeated):
        i = repeated[0] + 1
        raise GroupoidError(f"pair ({A[i]}, {B[i]}) repeated in the pair arrays")
    if (step < 0).any():
        raise GroupoidError("pair arrays not ascending in (A, B)")
    return A, B, C


class FiniteGroupoid:
    """A finite groupoid.

    range_map/source_map send arrow ids to unit ids, inverse_map is an
    involution on arrows, and unit_to_arrow embeds units as identity arrows.
    The four maps are stored as read-only intp arrays over the arrows (over
    the units for unit_to_arrow), whatever sequences they are given as;
    ``r``, ``s``, ``inv`` and ``unit_arrow`` read one entry as a Python int.
    The composition is stored as the pair arrays ``pair_table`` (A, B,
    C = A∘B), strictly ascending in (A, B).  It is given either as those
    arrays, where arrays of unequal length, out of order or with a repeated
    pair raise ``GroupoidError``, or as a dict mapping composable pairs
    (a, b) to a∘b, which is sorted into them.
    """

    def __init__(
        self,
        n_units: int,
        range_map,
        source_map,
        compose_table,
        inverse_map,
        unit_to_arrow,
        unit_labels=None,
        arrow_labels=None,
        name: str = "groupoid",
    ):
        self.n_units = int(n_units)
        maps = [np.array(m, np.intp) for m in (range_map, source_map, inverse_map, unit_to_arrow)]
        for m in maps:
            m.flags.writeable = False
        self.range_map, self.source_map, self.inverse_map, self.unit_to_arrow = maps
        if isinstance(compose_table, dict):
            triples = sorted((a, b, c) for (a, b), c in compose_table.items())
            compose_table = np.array(triples, np.intp).reshape(-1, 3).T
        self.pair_table = _pair_arrays(*compose_table)
        self._compose_table = None
        self.name = name
        self.n_arrows = len(self.range_map)
        if unit_labels is None:
            unit_labels = [f"u{u}" for u in range(self.n_units)]
        if arrow_labels is None:
            arrow_labels = [f"a{a}" for a in range(self.n_arrows)]
        self.unit_labels = tuple(str(x) for x in unit_labels)
        self.arrow_labels = tuple(str(x) for x in arrow_labels)
        self._source_fibers = None
        self._compose_array = None
        self._pair_position = None

    # -- basic queries ------------------------------------------------------

    def r(self, a: int) -> int:
        return self.range_map.item(a)

    def s(self, a: int) -> int:
        return self.source_map.item(a)

    def inv(self, a: int) -> int:
        return self.inverse_map.item(a)

    def unit_arrow(self, u: int) -> int:
        return self.unit_to_arrow.item(u)

    def compose_or_none(self, a: int, b: int):
        return self.compose_table.get((a, b))

    def units(self):
        return range(self.n_units)

    def arrows(self):
        return range(self.n_arrows)

    def source_fiber(self, u: int) -> tuple[int, ...]:
        """Arrows with source u, in ascending id order."""
        if self._source_fibers is None:
            fibers = [[] for _ in range(self.n_units)]
            for a, v in enumerate(self.source_map.tolist()):
                fibers[v].append(a)
            self._source_fibers = tuple(tuple(f) for f in fibers)
        return self._source_fibers[u]

    @property
    def compose_table(self) -> dict:
        """The composition as a dict {(a, b): a∘b}, built from ``pair_table``
        on first read and in its order, whatever form it was given in."""
        if self._compose_table is None:
            A, B, C = self.pair_table
            self._compose_table = dict(zip(zip(A.tolist(), B.tolist()), C.tolist()))
        return self._compose_table

    @property
    def compose_array(self) -> np.ndarray:
        """compose_or_none as an n_arrows x n_arrows array, -1 off the table."""
        if self._compose_array is None:
            A, B, C = self.pair_table
            self._compose_array = np.full((self.n_arrows, self.n_arrows), -1, dtype=np.intp)
            self._compose_array[A, B] = C
        return self._compose_array

    @property
    def pair_position(self) -> np.ndarray:
        """The position of each composable pair (a, b) in ``pair_table`` as an
        n_arrows x n_arrows array, -1 off the table: where a table held in
        pair order, such as ``TwoCocycle.twists``, keeps its value at (a, b)."""
        if self._pair_position is None:
            A, B, _ = self.pair_table
            self._pair_position = np.full((self.n_arrows, self.n_arrows), -1, dtype=np.intp)
            self._pair_position[A, B] = np.arange(len(A))
        return self._pair_position

    def triple_blocks(self):
        """The composable triples in row blocks: per block, pairs (a, b, ab)
        of pair_table, in its order, against every arrow x as columns, with
        bc = compose_array[b], the composites b∘x (-1 off the table), and the
        mask r(x) = s(b) that marks the triples (a, b, x).  A block holds at
        most about _TRIPLE_BLOCK (pair, x) entries."""
        A, B, C = self.pair_table
        s_b = self.source_map[B, None]
        step = max(1, _TRIPLE_BLOCK // max(1, self.n_arrows))
        for lo in range(0, len(A), step):
            p = slice(lo, lo + step)
            yield A[p], B[p], C[p], self.compose_array[B[p]], s_b[p] == self.range_map

    def isotropy(self, u: int) -> tuple[int, ...]:
        """Arrows with range and source u, in ascending id order."""
        return tuple(np.flatnonzero((self.range_map == u) & (self.source_map == u)).tolist())

    def __repr__(self):
        return f"{self.name}({self.n_units} units, {self.n_arrows} arrows)"


# ---------------------------------------------------------------------------
# validation

def _outside(x: np.ndarray, n: int) -> np.ndarray:
    return (x < 0) | (x >= n)


def _report_arrows(rep: ValidationReport, lab, checks):
    """Report each (rule, message, failing-arrow mask) check, arrow by arrow
    and in the order of the checks at one arrow."""
    for a, i in np.argwhere(np.array([bad for _, _, bad in checks]).T).tolist():
        rep.add(checks[i][0], (a,), checks[i][1].format(lab[a]))


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exhaustively; violations are data.  Each rule
    is decided on index arrays; only failing entries are visited one by one."""
    rep = ValidationReport(subject=g.name)
    lab = g.arrow_labels
    n_u, n_a = g.n_units, g.n_arrows
    rng, src, inv, unit = g.range_map, g.source_map, g.inverse_map, g.unit_to_arrow
    A, B, C = g.pair_table

    for name, m in (("source_map", src), ("inverse_map", inv)):
        if len(m) != n_a:
            rep.add("index", (), f"{name} has wrong length")
    if not rep.ok:
        return rep  # the per-arrow checks need one entry per arrow
    _report_arrows(rep, lab, [
        ("index", "range/source of {} out of bounds", _outside(rng, n_u) | _outside(src, n_u)),
        ("index", "inverse of {} out of bounds", _outside(inv, n_a)),
    ])
    if len(unit) != n_u:
        rep.add("index", (), "unit_to_arrow has wrong length")
    for u in np.flatnonzero(_outside(unit, n_a)).tolist():
        rep.add("index", (u,), f"unit arrow of unit {u} out of bounds")
    bad_key = _outside(A, n_a) | _outside(B, n_a)
    for a, b in zip(A[bad_key].tolist(), B[bad_key].tolist()):
        rep.add("index", (a, b), f"compose key ({a}, {b}) outside the arrows")
    if not rep.ok:
        return rep  # further checks would index out of bounds

    units = np.arange(n_u)
    for u in np.flatnonzero((rng[unit] != units) | (src[unit] != units)).tolist():
        rep.add("unit-embedding", (u,), f"unit arrow {lab[unit[u]]} not over unit {u}")

    # compose defined exactly on composable pairs, with coherent range/source
    defined = np.zeros((n_a, n_a), dtype=bool)  # by key: a composite may be negative
    defined[A, B] = True
    for a, b in np.argwhere(defined != (src[:, None] == rng[None, :])).tolist():
        what = "defined but sources/ranges mismatch" if defined[a, b] else "missing"
        rep.add("composability", (a, b), f"compose({lab[a]},{lab[b]}) {what}")
    bad_c = _outside(C, n_a)
    c_in = np.where(bad_c, 0, C)
    fail = np.flatnonzero(bad_c | (rng[c_in] != rng[A]) | (src[c_in] != src[B]))
    for a, b, c in zip(A[fail].tolist(), B[fail].tolist(), C[fail].tolist()):
        ab = f"compose({lab[a]},{lab[b]})"
        if not 0 <= c < n_a:
            rep.add("index", (a, b), f"{ab} out of bounds")
        else:
            rep.add("range-source", (a, b, c), f"{ab}={lab[c]} has wrong range or source")
    if bad_c.any():
        return rep

    D, x = g.compose_array, np.arange(n_a)
    at_r, at_s = unit[rng], unit[src]
    _report_arrows(rep, lab, [
        ("unit-law", "unit law fails at {}", (D[at_r, x] != x) | (D[x, at_s] != x)),
        ("inverse-involution", "inverse of inverse of {} differs", inv[inv] != x),
        ("inverse-range", "inverse of {} swaps range/source incorrectly",
         (rng[inv] != src) | (src[inv] != rng)),
        ("inverse-law", "{} composed with its inverse is not the unit at its range",
         D[x, inv] != at_r),
        ("inverse-law", "inverse of {} composed with it is not the unit at its source",
         D[inv, x] != at_s),
    ])

    flat = D.ravel()
    for a, b, ab, bc, triple in g.triple_blocks():
        left, right = D[ab], flat[a[:, None] * n_a + bc]
        # a gap (b, c), bc = -1, was already reported by the composability check
        p, c = np.nonzero(triple & (bc >= 0) & ((left != right) | (left < 0)))
        for x1, x2, x3 in zip(a[p].tolist(), b[p].tolist(), c.tolist()):
            l1, l2, l3 = lab[x1], lab[x2], lab[x3]
            rep.add("associativity", (x1, x2, x3), f"({l1}{l2}){l3} != {l1}({l2}{l3})")
    return rep


# ---------------------------------------------------------------------------
# structural predicates

PROPER_NOTE = (
    "every map from a finite space is proper, so (range, source) is proper "
    "for any finite groupoid"
)


def is_principal(g: FiniteGroupoid) -> bool:
    """True when arrows are determined by their (range, source) pair: on a
    groupoid, when every isotropy arrow is a unit."""
    return principal_obstruction(g) is None


def principal_obstruction(g: FiniteGroupoid):
    """A non-unit isotropy arrow witnessing failure of principality, or
    None: the first in (unit, arrow) order."""
    s = g.source_map
    bad = np.flatnonzero((g.range_map == s) & (g.unit_to_arrow[s] != np.arange(g.n_arrows)))
    return int(bad[np.argmin(s[bad])]) if len(bad) else None


def is_transitive(g: FiniteGroupoid) -> bool:
    return len(orbit_units(g)) <= 1


def is_proper(g: FiniteGroupoid) -> bool:
    return True


def least_units(g: FiniteGroupoid) -> np.ndarray:
    """The least unit of the orbit of each unit u, as an array over the
    units: the arrows with source u reach exactly u's orbit, so it is the
    least of their ranges."""
    least = np.arange(g.n_units)
    np.minimum.at(least, g.source_map, g.range_map)
    return least


def _classes(least: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given the least member of each element's class, the class id of each
    element, ids ascending with the least member, and the least members in
    id order."""
    firsts = least == np.arange(len(least))
    return (np.cumsum(firsts) - 1)[least], np.flatnonzero(firsts)


def orbit_units(g: FiniteGroupoid) -> list[int]:
    """The least unit of each orbit, ascending: the units that are their own
    ``least_units``."""
    return np.flatnonzero(least_units(g) == np.arange(g.n_units)).tolist()


# ---------------------------------------------------------------------------
# constructions

def pair_groupoid(n: int) -> FiniteGroupoid:
    """Arrows (i, j) on n units with (i, j)(j, k) = (i, k); principal and transitive."""
    if n < 1:
        raise GroupoidError("pair groupoid needs at least one unit")
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    rng, src = np.indices((n, n)).reshape(2, -1)
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    return FiniteGroupoid(
        n, rng, src, (i * n + j, j * n + k, i * n + k), src * n + rng, np.arange(n) * (n + 1),
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
    if labels is None:
        labels = [f"g{a}" for a in range(n)]
    A, B = np.indices((n, n)).reshape(2, -1)
    return FiniteGroupoid(
        1, [0] * n, [0] * n, (A, B, np.ravel(table)), inverse, [identity],
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
    compose = [np.concatenate((x, y + da)) for x, y in zip(g.pair_table, h.pair_table)]
    rng = np.concatenate((g.range_map, h.range_map + du))
    src = np.concatenate((g.source_map, h.source_map + du))
    inverse = np.concatenate((g.inverse_map, h.inverse_map + da))
    unit_to_arrow = np.concatenate((g.unit_to_arrow, h.unit_to_arrow + da))
    return FiniteGroupoid(
        g.n_units + h.n_units, rng, src, compose, inverse, unit_to_arrow,
        unit_labels=[f"L.{x}" for x in g.unit_labels] + [f"R.{x}" for x in h.unit_labels],
        arrow_labels=[f"L.{x}" for x in g.arrow_labels] + [f"R.{x}" for x in h.arrow_labels],
        name=f"{g.name}+{h.name}",
    )


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
    order: x in the overlap of U_i and U_j, the range at (x, i).  The points
    are a list and the cover a list of sets, as ``cover_groupoid`` makes them."""
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

    Arrows of the quotient are the classes a.H, H the isotropy group at
    s(a) (the isotropy bundle is normal: conjugation maps isotropy groups to
    isotropy groups).  Each class is ordered and labelled by its least
    member, the least a.h over the rows of ``pair_table`` whose right factor
    h is an isotropy arrow, all in one ``np.minimum.at``.  The quotient's
    composition is the pair table's, class by class, read off the class
    table that checks it is well defined.  Returns the quotient groupoid
    and the projection arrow -> class id, which is a groupoid morphism.
    """
    A, B, C = g.pair_table
    p = np.flatnonzero(g.range_map[B] == g.source_map[B])
    least = np.arange(g.n_arrows)
    np.minimum.at(least, A[p], C[p])
    if (least[C[p]] != least[A[p]]).any():
        raise GroupoidError("isotropy classes are inconsistent; input not a groupoid?")
    class_of, reps = _classes(least)
    qa, qb, qc = class_of[A], class_of[B], class_of[C]
    table = np.full((len(reps), len(reps)), -1)
    table[qa, qb] = qc
    if (table[qa, qb] != qc).any():
        raise GroupoidError("quotient composition not well defined; input not a groupoid?")
    q = FiniteGroupoid(
        g.n_units, g.range_map[reps], g.source_map[reps],
        (*np.nonzero(table >= 0), table[table >= 0]),
        class_of[g.inverse_map[reps]], class_of[g.unit_to_arrow],
        unit_labels=g.unit_labels,
        arrow_labels=[f"[{g.arrow_labels[rep]}]" for rep in reps.tolist()],
        name=f"{g.name}/iso",
    )
    return q, tuple(class_of.tolist())


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
    m, (A, B, C) = np.asarray(arrow_map, np.intp), g.pair_table
    bad = np.flatnonzero(h.compose_array[m[A], m[B]] != m[C])
    if len(bad):
        a, b = A[bad[0]], B[bad[0]]
        out.append(f"composition not preserved at ({g.arrow_labels[a]},{g.arrow_labels[b]})")
    return out
