"""Circle-valued 2-cocycles on finite groupoids.

A 2-cocycle assigns a circle value to every composable pair subject to
    w(a,b) * w(ab,c) = w(b,c) * w(a,bc)
on composable triples; it is normalized when it is 1 on every pair that
involves a unit arrow.  A cocycle is one n_arrows x n_arrows ``table``
aligned with the groupoid's compose array: int angles W over one
``conductor`` N, the least one, with w(a, b) = e(W[a, b] / N), when every
value is exact, else the complex values (a numeric cocycle).  A 1-cochain
is one such array over the arrows.  The exact array operations
(``coboundary``, ``mul``, ``conj``, ``bicharacter_cocycle``) compute int
angles and end in the table, over the least conductor; a cocycle given by
its values, and every numeric one, is compiled into the table once, at
construction.  Every operation reads the table, which is read-only, so
``normalized`` is decided once per cocycle.  ``values``, the sparse
``CircleScalar`` view of the entries other than 1, is what documents parse
and serialize; for a table an operation wrote, it is built on first read,
in pair order.  An exact cocycle also holds its N roots e(j / N), so the
complex tables of w^n for a list of modes n are one gather: each mode's
roots e(nj / N), read at the angles j = W.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import APPROX_TOL, CLOSE_TOL, CircleScalar, ONE, cmul, solve_mod1
from .groupoid import FiniteGroupoid, ValidationReport, least_units, principal_obstruction

# a numeric value this close to e(t/k) is that k-th root: computed values sit
# a few rounding errors off, and two roots are at least |e(1/k) - 1| apart
ROOT_TOL = 1e-9
# angles over a conductor this large are Python ints, so products stay exact
_INT64_CONDUCTOR = 2**31


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


def circle_values(angles, n: int) -> np.ndarray:
    """e(x / n) for each listed int angle x, the float that
    ``CircleScalar.to_complex`` gives."""
    values = [CircleScalar(angle=Fraction(x, n)).to_complex() for x in angles]
    return np.array(values, dtype=complex)


def _compile(values: dict, shape) -> tuple[int | None, np.ndarray]:
    """(N, W) with values[i] = e(W[i] / N) when every value is exact, else
    (None, values as complex); the angle 0, or 1, off the dict."""
    if not all(v.is_exact for v in values.values()):
        table = np.ones(shape, dtype=complex)
        for i, v in values.items():
            table[i] = v.to_complex()
        return None, table
    n = math.lcm(*(v.angle.denominator for v in values.values()))
    table = np.zeros(shape, dtype=np.int64 if n < _INT64_CONDUCTOR else object)
    for i, v in values.items():
        table[i] = v.angle.numerator * (n // v.angle.denominator)
    return n, table


def _reduced(n: int, x) -> tuple[int, np.ndarray]:
    """(N, x / (n / N)) for int angles x in [0, n): the same angles over the
    least conductor N = n / gcd(n, x), as ``_compile`` types them."""
    x = np.asarray(x, dtype=np.int64 if n < _INT64_CONDUCTOR else object)
    step = math.gcd(n, int(np.gcd.reduce(x)))
    n //= step
    return n, np.asarray(x // step, dtype=np.int64 if n < _INT64_CONDUCTOR else object)


def _angle_view(keys, x: np.ndarray, n: int) -> dict:
    """{key: e(x / n)} over the keys whose int angle x is not 0, in order: the
    sparse ``CircleScalar`` view of an angle array, one scalar per angle."""
    x = x.tolist()
    scalar = {t: CircleScalar(angle=Fraction(t, n)) for t in set(x) if t}
    return {key: scalar[t] for key, t in zip(keys, x) if t}


def _cocycle(base: FiniteGroupoid, n: int | None, entries: np.ndarray, checked=False):
    """The cocycle with these entries on ``base.pair_table``'s pairs: int
    angles in [0, n), written into the table over their least conductor, or
    complex values, read as a dict of values."""
    A, B, _ = base.pair_table
    if n is None:
        return TwoCocycle(base, dict(zip(zip(A.tolist(), B.tolist()), entries.tolist())), checked)
    w = TwoCocycle.__new__(TwoCocycle)
    w.base, w.identity_checked = base, checked
    w.conductor, x = _reduced(n, entries)
    w.table = np.zeros((base.n_arrows, base.n_arrows), dtype=x.dtype)
    w.table[A, B] = x
    w.table.flags.writeable = False
    return w


def _circle_values(values) -> dict:
    vals = {key: CircleScalar.coerce(v) for key, v in (values or {}).items()}
    return {key: v for key, v in vals.items() if not v.is_one()}


class OneCochain:
    """A circle-valued function on arrows, default 1 off the stored support,
    compiled like a cocycle into one array ``table`` over the arrows."""

    def __init__(self, base: FiniteGroupoid, values: dict[int, CircleScalar] | None = None):
        self.base = base
        self.values = _circle_values(values)
        self.conductor, self.table = _compile(self.values, base.n_arrows)

    @staticmethod
    def from_angles(base: FiniteGroupoid, n: int, angles: np.ndarray) -> "OneCochain":
        """The cochain a -> e(angles[a] / n) of int angles in [0, n), held
        over their least conductor; ``values`` is built on first read."""
        b = OneCochain.__new__(OneCochain)
        b.base = base
        b.conductor, b.table = _reduced(n, angles)
        return b

    @cached_property
    def values(self) -> dict:
        return _angle_view(range(self.base.n_arrows), self.table, self.conductor)

    def value(self, a: int) -> CircleScalar:
        return self.values.get(a, ONE)

    def coboundary(self) -> "TwoCocycle":
        """The 2-cocycle  (a, b) -> b(a) b(b) conj(b(ab)); always satisfies
        the cocycle identity."""
        g = self.base
        A, B, C = g.pair_table
        n, x = self.conductor, self.table
        db = (x[A] + x[B] - x[C]) % n if n else cmul(cmul(x[A], x[B]), x[C].conj())
        return _cocycle(g, n, db, checked=True)

    def __repr__(self):
        return f"OneCochain({len(self.values)} non-unit values on {self.base.name})"


class TwoCocycle:
    """A circle-valued function on composable pairs of a finite groupoid,
    compiled into one table (see the module docstring); every complex table
    of its powers w^n comes from ``twists``, through ``roots`` when exact."""

    def __init__(self, base: FiniteGroupoid, values=None, identity_checked: bool = False):
        self.base = base
        for pair in values or {}:
            if pair not in base.compose_table:
                raise CocycleError(f"cocycle value on non-composable pair {pair}")
        vals = _circle_values(values)
        if not all(v.is_exact for v in vals.values()):  # then every value is numeric
            vals = {p: CircleScalar(z=v.to_complex()) if v.is_exact else v for p, v in vals.items()}
        self.values = vals
        self.identity_checked = identity_checked
        self.conductor, self.table = _compile(vals, (base.n_arrows, base.n_arrows))
        self.table.flags.writeable = False

    # -- constructors --------------------------------------------------------

    @staticmethod
    def trivial(base: FiniteGroupoid) -> "TwoCocycle":
        return TwoCocycle(base, identity_checked=True)

    # -- queries --------------------------------------------------------------

    @cached_property
    def values(self) -> dict:
        A, B, _ = self.base.pair_table
        return _angle_view(zip(A.tolist(), B.tolist()), self.table[A, B], self.conductor)

    def value(self, a: int, b: int) -> CircleScalar:
        if (a, b) not in self.base.compose_table:
            raise CocycleError(
                f"pair ({self.base.arrow_labels[a]},{self.base.arrow_labels[b]}) is not composable"
            )
        return self.values.get((a, b), ONE)

    @property
    def is_exact(self) -> bool:
        return self.conductor is not None

    def _entries(self, n: int | None = None) -> np.ndarray:
        """The entries on ``base.pair_table``'s pairs: angles over n, a multiple
        of the conductor, or else complex values."""
        A, B, _ = self.base.pair_table
        x = self.table[A, B]
        if n is not None:
            return (x.astype(object) if n >= _INT64_CONDUCTOR else x) * (n // self.conductor)
        return self.twists([1])[0, A, B] if self.is_exact else x

    @cached_property
    def normalized(self) -> bool:
        g, T = self.base, self.table
        units, arrows = g.unit_to_arrow, np.arange(g.n_arrows)
        r, s = units[g.range_map], units[g.source_map]  # unit arrows at r(a), s(a)
        x = np.concatenate((T[r, arrows], T[arrows, s]))
        return bool((x == 0).all() if self.is_exact else (np.abs(x - 1) <= APPROX_TOL).all())

    def check_identity(self) -> ValidationReport:
        """Exhaustively verify the cocycle identity on all composable triples,
        as W[a,b] + W[ab,c] - W[b,c] - W[a,bc] = 0 mod N (numeric: within
        CLOSE_TOL) per triple block; Python visits only failing triples."""
        g = self.base
        rep = ValidationReport(subject=f"cocycle on {g.name}")
        lab, T, n, D = g.arrow_labels, self.table, self.conductor, g.compose_array
        for a, b, ab, bc, triple in g.triple_blocks():
            a_bc = a[:, None] * g.n_arrows + bc  # (a, bc) in the flat tables
            w_ab, w_abc, w_bc, w_a_bc = T[a, b, None], T[ab], T[b], T.ravel()[a_bc]
            if n is None:
                bad = np.abs(w_ab * w_abc - w_bc * w_a_bc) > CLOSE_TOL
            else:
                bad = (w_ab + w_abc - w_bc - w_a_bc) % n != 0
            # a pair missing from the table (no groupoid) raises in value()
            bad |= (bc < 0) | (D[ab] < 0) | (D.ravel()[a_bc] < 0)
            p, c = np.nonzero(bad & triple)
            for a, b, c, ab, bc in zip(*(x.tolist() for x in (a[p], b[p], c, ab[p], bc[p, c]))):
                lhs = self.value(a, b) * self.value(ab, c)
                rhs = self.value(b, c) * self.value(a, bc)
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

    def power_table(self, n: int) -> np.ndarray:
        """The table of w^n: the angles n W mod N over the conductor, or the
        powers z ** n of the complex values, as numpy takes them."""
        if self.is_exact:
            return n % self.conductor * self.table % self.conductor
        return self.table**n

    @cached_property
    def roots(self) -> np.ndarray | None:
        """e(j / N) for j < N, as ``CircleScalar.to_complex`` gives each; None
        for a numeric cocycle or a conductor above the composable pairs."""
        n = self.conductor
        if not self.is_exact or n > len(self.base.pair_table[0]):
            return None
        return circle_values(range(n), n)

    def twists(self, modes) -> np.ndarray:
        """The complex tables of w^n over the listed modes n, stacked: e(x / N)
        at the angles x = n W mod N of ``power_table(n)``, gathered from the
        roots e(nj / N) of each mode at j = W (one value per distinct angle
        without ``roots``), or the numeric powers."""
        n = self.conductor
        if self.roots is not None:
            modes = np.array([p % n for p in modes], dtype=np.int64)
            return self.roots[modes[:, None] * np.arange(n) % n][:, self.table]
        tables = np.array([self.power_table(p) for p in modes], dtype=self.table.dtype)
        tables = tables.reshape(len(tables), *self.table.shape)
        if not self.is_exact:
            return tables
        keys, inverse = np.unique(tables, return_inverse=True)
        return circle_values(keys.tolist(), n)[inverse].reshape(tables.shape)

    def root_exponents(self, k: int) -> tuple[np.ndarray, tuple[int, int] | None]:
        """The table of exponents t with w(a, b) = e(t / k), and the first
        composable pair whose value is not a k-th root of unity, or None."""
        if self.is_exact:  # e(W / N) is a k-th root when N / gcd(N, k) divides W
            g = math.gcd(self.conductor, k)
            step = self.conductor // g
            root, twist = self.table % step == 0, (self.table // step * (k // g)).astype(np.intp)
        else:
            twist = np.rint(k * (np.angle(self.table) / (2 * np.pi))).astype(np.intp) % k
            root = np.abs(self.table - np.exp(2j * np.pi * twist / k)) <= ROOT_TOL
        A, B, _ = self.base.pair_table
        bad = np.flatnonzero(~root[A, B])
        return twist, (int(A[bad[0]]), int(B[bad[0]])) if len(bad) else None

    def mul(self, other: "TwoCocycle") -> "TwoCocycle":
        if other.base is not self.base:
            raise CocycleError("cocycles live on different groupoids")
        n = math.lcm(self.conductor, other.conductor) if self.is_exact and other.is_exact else None
        x, y = self._entries(n), other._entries(n)
        return _cocycle(self.base, n, (x + y) % n if n else cmul(x, y))

    def conj(self) -> "TwoCocycle":
        n, x = self.conductor, self._entries(self.conductor)
        return _cocycle(self.base, n, -x % n if n else x.conj())

    def pointwise_equal(self, other: "TwoCocycle") -> bool:
        """Equal on every composable pair: equal angles when both are exact,
        values within CLOSE_TOL otherwise."""
        if other.base is not self.base:
            return False
        n = math.lcm(self.conductor, other.conductor) if self.is_exact and other.is_exact else None
        x, y = self._entries(n), other._entries(n)
        return bool((x == y).all() if n else (np.abs(x - y) <= CLOSE_TOL).all())

    def __repr__(self):
        return f"TwoCocycle({len(self.values)} non-unit values on {self.base.name})"


def _cochain_at(w: TwoCocycle, a: np.ndarray, b: np.ndarray) -> OneCochain:
    """The cochain x -> w(a[x], b[x]) on composable pairs: read off the int
    table when w is exact, else off its values."""
    if w.is_exact:
        return OneCochain.from_angles(w.base, w.conductor, w.table[a, b])
    return OneCochain(w.base, {x: w.value(*p) for x, p in enumerate(zip(a.tolist(), b.tolist()))})


def normalize(w: TwoCocycle) -> tuple[TwoCocycle, OneCochain]:
    """Normalize a cocycle by dividing out the coboundary of
    b(a) = w(unit at range(a), a).

    The result is 1 on all unit pairs and still satisfies the cocycle
    identity; both facts are re-verified on the output rather than assumed.
    """
    w.require_checked("normalize")
    g = w.base
    b = _cochain_at(w, g.unit_to_arrow[g.range_map], np.arange(g.n_arrows))
    w2 = w.mul(b.coboundary().conj())
    rep = w2.check_identity()
    if not rep.ok:
        raise CocycleError("normalized cocycle failed the identity check")
    if not w2.normalized:
        raise CocycleError("normalization postcondition failed")
    return w2, b


def trivialize_principal(w: TwoCocycle) -> OneCochain:
    """Write a cocycle on a principal groupoid as a coboundary.

    Per orbit, fix the least unit u (``least_units``); for each arrow a let
    alpha be the unique arrow from u to source(a) and set b(a) = w(a, alpha).
    Uniqueness of arrows between units forces  w = coboundary(b)  exactly,
    which is verified pointwise before returning.
    """
    g = w.base
    bad = principal_obstruction(g)
    if bad is not None:
        raise IsotropyObstruction(g, bad, "trivialize")
    w.require_checked("trivialize")
    arrow_at = np.zeros((g.n_units, g.n_units), dtype=np.intp)  # by (range, source)
    arrow_at[g.range_map, g.source_map] = np.arange(g.n_arrows)
    alpha = arrow_at[g.source_map, least_units(g)[g.source_map]]
    b = _cochain_at(w, np.arange(g.n_arrows), alpha)
    db = b.coboundary()
    if not db.pointwise_equal(w):
        raise CocycleError("trivialization postcondition failed")
    return b


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
    A, B, C = g.pair_table
    if not len(A):
        return OneCochain(g, {})
    rows = np.zeros((len(A), g.n_arrows), dtype=np.int64)
    for sign, x in ((1, A), (1, B), (-1, C)):
        np.add.at(rows, (np.arange(len(A)), x), sign)
    rhs = [Fraction(x, w.conductor) for x in w.table[A, B].tolist()]
    x = solve_mod1(rows.tolist(), rhs)
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
    return bicharacter_cocycle(base, (2, 2), 2)


def bicharacter_cocycle(base: FiniteGroupoid, orders: tuple[int, ...], k: int) -> TwoCocycle:
    """On a product of cyclic groups, the bilinear cocycle  e(x*y/d)  where x
    is the last coordinate of the first element, y the first coordinate of
    the second, and d = gcd(first order, last order, k); values land in the
    k-th roots of unity and the pairing is well defined modulo the orders."""
    d = math.gcd(orders[0], orders[-1], k)
    A, B, _ = base.pair_table
    coords = np.indices(orders).reshape(len(orders), -1)  # in arrow order
    w = _cocycle(base, d, coords[-1][A] * coords[0][B] % d)
    if not w.check_identity().ok:
        raise CocycleError("bicharacter failed the identity check")
    return w
