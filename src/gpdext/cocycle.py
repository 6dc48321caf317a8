"""Circle-valued 2-cocycles on finite groupoids.

A 2-cocycle assigns a circle value to every composable pair subject to
    w(a,b) * w(ab,c) = w(b,c) * w(a,bc)
on composable triples; it is normalized when it is 1 on every pair that
involves a unit arrow.  Values are stored sparsely with implicit default 1,
so normalized cocycles serialize compactly.  Everything here is a pure
function over immutable data; the only mutable state is the
``identity_checked`` flag, set once by a successful exhaustive check.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import CircleScalar, ONE, frac_mod1, solve_mod1
from .groupoid import (
    FiniteGroupoid,
    ValidationReport,
    _cover_arrows,
    cover_groupoid,
    orbit_decomposition,
    principal_obstruction,
)


class CocycleError(ValueError):
    pass


class IsotropyObstruction(CocycleError):
    """Raised when an operation requires a principal groupoid; carries a
    witnessing non-unit isotropy arrow."""

    def __init__(self, groupoid: FiniteGroupoid, arrow: int, what: str):
        self.arrow = arrow
        super().__init__(
            f"{what}: isotropy obstruction at arrow "
            f"{groupoid.arrow_labels[arrow]} (range = source, not a unit)"
        )


class ExactnessError(CocycleError):
    pass


class OneCochain:
    """A circle-valued function on arrows, default 1 off the stored support."""

    def __init__(self, base: FiniteGroupoid, values: dict[int, CircleScalar] | None = None):
        self.base = base
        vals = {}
        for a, v in (values or {}).items():
            v = CircleScalar.coerce(v)
            if not v.is_one():
                vals[a] = v
        self.values = vals

    def value(self, a: int) -> CircleScalar:
        return self.values.get(a, ONE)

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.values.values())

    def coboundary(self) -> "TwoCocycle":
        """The 2-cocycle  (a, b) -> b(a) b(b) conj(b(ab)); always satisfies
        the cocycle identity."""
        g = self.base
        vals = {}
        for (a, b), c in g.compose_table.items():
            vals[(a, b)] = self.value(a) * self.value(b) * self.value(c).conj()
        w = TwoCocycle(g, vals)
        w.identity_checked = True
        return w

    def __repr__(self):
        return f"OneCochain({len(self.values)} non-unit values on {self.base.name})"


class TwoCocycle:
    """A circle-valued function on composable pairs of a finite groupoid."""

    def __init__(self, base: FiniteGroupoid, values=None, identity_checked: bool = False):
        self.base = base
        vals = {}
        for pair, v in (values or {}).items():
            if pair not in base.compose_table:
                raise CocycleError(f"cocycle value on non-composable pair {pair}")
            v = CircleScalar.coerce(v)
            if not v.is_one():
                vals[pair] = v
        self.values = vals
        self.identity_checked = identity_checked

    # -- constructors --------------------------------------------------------

    @staticmethod
    def trivial(base: FiniteGroupoid) -> "TwoCocycle":
        w = TwoCocycle(base, {})
        w.identity_checked = True
        return w

    # -- queries --------------------------------------------------------------

    def value(self, a: int, b: int) -> CircleScalar:
        if (a, b) not in self.base.compose_table:
            raise CocycleError(
                f"pair ({self.base.arrow_labels[a]},{self.base.arrow_labels[b]}) is not composable"
            )
        return self.values.get((a, b), ONE)

    @property
    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.values.values())

    @property
    def normalized(self) -> bool:
        g = self.base
        for a in g.arrows():
            if not self.value(g.unit_arrow(g.r(a)), a).is_one():
                return False
            if not self.value(a, g.unit_arrow(g.s(a))).is_one():
                return False
        return True

    def check_identity(self) -> ValidationReport:
        """Exhaustively verify the cocycle identity on all composable triples."""
        g = self.base
        rep = ValidationReport(subject=f"cocycle on {g.name}")
        lab = g.arrow_labels
        for block in g.triple_blocks():
            for a, b, c, ab, bc in zip(*(x.tolist() for x in block)):
                lhs = self.value(a, b) * self.value(ab, c)
                rhs = self.value(b, c) * self.value(a, bc)
                if not lhs.isclose(rhs):
                    rep.add(
                        "cocycle-identity",
                        (a, b, c),
                        f"identity fails on ({lab[a]},{lab[b]},{lab[c]}): "
                        f"lhs={lhs!r} rhs={rhs!r}",
                    )
        if rep.ok:
            self.identity_checked = True
        return rep

    def require_checked(self, what: str):
        if not self.identity_checked:
            rep = self.check_identity()
            if not rep.ok:
                raise CocycleError(f"{what}: cocycle identity fails; {rep.summary()}")

    def mul(self, other: "TwoCocycle") -> "TwoCocycle":
        if other.base is not self.base:
            raise CocycleError("cocycles live on different groupoids")
        return TwoCocycle(
            self.base,
            {p: self.value(*p) * other.value(*p) for p in self.base.compose_table},
        )

    def conj(self) -> "TwoCocycle":
        return TwoCocycle(self.base, {p: v.conj() for p, v in self.values.items()})

    def pointwise_equal(self, other: "TwoCocycle") -> bool:
        """Equal on every composable pair, by ``CircleScalar.isclose``."""
        return other.base is self.base and all(
            self.value(*p).isclose(other.value(*p)) for p in self.base.compose_table
        )

    def __repr__(self):
        return f"TwoCocycle({len(self.values)} non-unit values on {self.base.name})"


def normalize(w: TwoCocycle) -> tuple[TwoCocycle, OneCochain]:
    """Normalize a cocycle by dividing out the coboundary of
    b(a) = w(unit at range(a), a).

    The result is 1 on all unit pairs and still satisfies the cocycle
    identity; both facts are re-verified on the output rather than assumed.
    """
    w.require_checked("normalize")
    g = w.base
    b = OneCochain(g, {a: w.value(g.unit_arrow(g.r(a)), a) for a in g.arrows()})
    w2 = w.mul(b.coboundary().conj())
    rep = w2.check_identity()
    if not rep.ok:
        raise CocycleError("normalized cocycle failed the identity check")
    if not w2.normalized:
        raise CocycleError("normalization postcondition failed")
    return w2, b


def trivialize_principal(w: TwoCocycle) -> OneCochain:
    """Write a cocycle on a principal groupoid as a coboundary.

    Per orbit, fix the minimal unit u; for each arrow a let alpha be the
    unique arrow from u to source(a) and set b(a) = w(a, alpha).  Uniqueness
    of arrows between units forces  w = coboundary(b)  exactly, which is
    verified pointwise before returning.
    """
    g = w.base
    bad = principal_obstruction(g)
    if bad is not None:
        raise IsotropyObstruction(g, bad, "trivialize")
    w.require_checked("trivialize")
    dec = orbit_decomposition(g)
    base_unit = [orb[0] for orb in dec.orbits]
    arrow_by_rs = {(g.r(a), g.s(a)): a for a in g.arrows()}
    vals = {}
    for a in g.arrows():
        u = base_unit[dec.orbit_of[g.s(a)]]
        alpha = arrow_by_rs[(g.s(a), u)]
        vals[a] = w.value(a, alpha)
    b = OneCochain(g, vals)
    db = b.coboundary()
    if not db.pointwise_equal(w):
        raise CocycleError("trivialization postcondition failed")
    return b


class CechDataError(CocycleError):
    pass


def cech_cocycle(points, cover, lam) -> TwoCocycle:
    """Turn Cech 2-cochain data on an indexed cover into a groupoid cocycle.

    ``lam`` maps (i, j, k, x) with x in the triple overlap of U_i, U_j, U_k
    to a circle value (a mapping or a callable).  The resulting cocycle on
    the cover groupoid assigns lam(i,j,k,x) to the composable pair
    ((x,i),(x,j)), ((x,j),(x,k)); it passes the cocycle identity exactly
    when lam satisfies the Cech 2-cocycle condition on quadruple overlaps.
    """
    g = cover_groupoid(points, cover)
    arrows = _cover_arrows(points, cover)

    if callable(lam):
        getter = lam
    else:
        def getter(i, j, k, x):
            return lam[(i, j, k, x)]

    vals = {}
    for a, b in g.compose_table:
        x, i, j = arrows[a]
        k = arrows[b][2]
        try:
            v = getter(i, j, k, x)
        except KeyError:
            raise CechDataError(
                f"cochain value missing on triple overlap (i={i}, j={j}, k={k}, x={x!r})"
            ) from None
        vals[(a, b)] = CircleScalar.coerce(v)
    return TwoCocycle(g, vals)


def solve_coboundary(w: TwoCocycle) -> OneCochain | None:
    """Decide whether a cocycle with exact angles is a coboundary.

    Writes the multiplicative problem additively over Q/Z: unknown angles
    beta(a) must satisfy  beta(a) + beta(b) - beta(ab) = angle(w(a,b)) mod 1
    for every composable pair.  The integer system is diagonalized exactly,
    so a ``None`` certifies that no circle-valued cochain works.  A returned
    cochain is re-verified pointwise before being handed back.
    """
    if not w.is_exact:
        raise ExactnessError("exact angles required")
    w.require_checked("solve_coboundary")
    g = w.base
    rows = []
    rhs = []
    for a, b, c in zip(*(x.tolist() for x in g.pair_table)):
        row = [0] * g.n_arrows
        row[a] += 1
        row[b] += 1
        row[c] -= 1
        rows.append(row)
        rhs.append(w.value(a, b).angle)
    if not rows:
        return OneCochain(g, {})
    x = solve_mod1(rows, rhs)
    if x is None:
        return None
    b = OneCochain(g, {a: CircleScalar(angle=x[a]) for a in g.arrows() if x[a]})
    if not b.coboundary().pointwise_equal(w):
        raise CocycleError("coboundary solver produced a non-solution (internal error)")
    return b


# ---------------------------------------------------------------------------
# stock cocycles

def pauli_cocycle(base: FiniteGroupoid) -> TwoCocycle:
    """The sign bicharacter (-1)^(b*c) on the Klein four-group Z2 x Z2, read
    off the second coordinate of the first factor and the first coordinate
    of the second; its twisted algebra is the 2x2 matrix algebra."""
    if base.n_units != 1 or base.n_arrows != 4:
        raise CocycleError("pauli cocycle needs the Klein four-group")
    # arrow ids in abelian_group_groupoid((2,2)) order: (0,0),(0,1),(1,0),(1,1)
    coords = [(0, 0), (0, 1), (1, 0), (1, 1)]
    vals = {}
    for a in range(4):
        for b in range(4):
            if (coords[a][1] * coords[b][0]) % 2:
                vals[(a, b)] = CircleScalar(angle=Fraction(1, 2))
    w = TwoCocycle(base, vals)
    rep = w.check_identity()
    assert rep.ok
    return w


def bicharacter_cocycle(base: FiniteGroupoid, orders: tuple[int, ...], k: int) -> TwoCocycle:
    """On a product of cyclic groups, the bilinear cocycle  e(x*y/d)  where x
    is the last coordinate of the first element, y the first coordinate of
    the second, and d = gcd(first order, last order, k); values land in the
    k-th roots of unity and the pairing is well defined modulo the orders."""
    import math

    d = math.gcd(orders[0], orders[-1], k)
    elems = [()]
    for m in orders:
        elems = [e + (i,) for e in elems for i in range(m)]
    vals = {}
    for a, ea in enumerate(elems):
        for b, eb in enumerate(elems):
            t = frac_mod1(Fraction(ea[-1] * eb[0], d))
            if t:
                vals[(a, b)] = CircleScalar(angle=t)
    w = TwoCocycle(base, vals)
    rep = w.check_identity()
    if not rep.ok:
        raise CocycleError("bicharacter failed the identity check")
    return w
