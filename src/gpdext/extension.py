"""The graded (Laurent-mode) model of the circle-extension algebra.

A LaurentElement is a finitely-supported family of twisted-algebra elements,
mode n carrying an element of C(G, w^n); it stands for the function
sum_n s^{-n} (x) f_n on the product of the circle with G.  Integrals over the
circle are never discretized: Fourier orthogonality makes them exact mode
bookkeeping, so the graded product of homogeneous elements vanishes across
modes and is the w^n-twisted convolution within a mode.  A numeric element
is one complex array (..., modes, arrows) over its mode window, so that a
stack of samples takes each product, star and certificate in one pass.

The certification entry points compare this model against two other code
paths: the left-regular matrices of the twisted algebras (intertwining and
reduced-norm agreement), built for every unit and mode of a stack at once by
one scatter of products and one separate gather per fiber size, and the
independent finite cyclic oracle (structure constants and norms of
mu_k x_w G).  The oracle comparison reads
its expected values off the tables of w^n in array expressions, as exponents
of zeta_k, numeric values snapped to their nearest k-th roots, and decides
every comparison exactly from the oracle's terms; the graded involution is
certified by the reports' C*-identity and star checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cyclic_oracle as oracle
from .algebra import AlgebraElement, AlgebraError, TwistedAlgebra, products, stars
from .algebra import fiber_products, fibers, regular_reps, unit_norms
from .cocycle import TwoCocycle, root_values
from .cyclic_oracle import CyclicExtension
from .exact import spectral_norms
from .groupoid import FiniteGroupoid

# Tolerances of the numeric certificates, each far above the rounding of
# what it bounds and far below the error it catches:
ORACLE_TOL = 1e-10  # a graded value of w^n from its nearest k-th root; roots |e(1/k) - 1| apart
INTERTWINE_TOL = 1e-12  # R_u against L_u: the same products, summed in other orders
NORM_TOL = 1e-9  # two spectral norms of one operator, by separate SVDs


class WindowError(ValueError):
    """A mode window fails to cover the modes it must."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"mode window too small; truncated modes {self.missing}")


class ExtensionAlgebra:
    """Tag object for the graded model over one (groupoid, cocycle) pair;
    caches the twisted algebra of each cocycle power."""

    def __init__(self, groupoid: FiniteGroupoid, cocycle: TwoCocycle):
        if cocycle.base is not groupoid:
            raise AlgebraError("cocycle is not defined on this groupoid")
        cocycle.require_checked("extension algebra")
        if not cocycle.normalized:
            raise AlgebraError("extension algebra needs a normalized cocycle")
        self.groupoid = groupoid
        self.cocycle = cocycle
        self._twisted: dict[int, TwistedAlgebra] = {}

    def twisted(self, n: int) -> TwistedAlgebra:
        if n not in self._twisted:
            self._twisted[n] = TwistedAlgebra(self.groupoid, self.cocycle, n)
        return self._twisted[n]

    def element(self, modes: dict) -> "LaurentElement":
        out = {}
        for n, f in modes.items():
            if not isinstance(f, AlgebraElement):
                f = self.twisted(n).element(f)
            elif not self.twisted(n).same_tag(f.algebra):
                raise AlgebraError(f"mode {n} component carries the wrong tag")
            out[n] = f
        return LaurentElement(self, out)

    def delta(self, n: int, arrow: int, coeff=1) -> "LaurentElement":
        return self.element({n: {arrow: coeff}})

    def zero(self) -> "LaurentElement":
        return LaurentElement(self, {})

    def identity(self) -> "LaurentElement":
        return self.element({0: self.twisted(0).identity()})

    def stack(self, lo: int, values: np.ndarray) -> "LaurentElement":
        """The numeric element of coefficients ``values`` (..., modes, arrows) from mode lo."""
        F = LaurentElement(self, {})
        F._hold(lo, values)
        return F

    def __repr__(self):
        return f"ExtensionAlgebra({self.groupoid.name})"


class LaurentElement:
    """Finitely many modes, each an element of the matching twisted algebra; a
    numeric element also holds them as one complex array ``values`` (...,
    modes, arrows) from mode ``lo``, each numeric mode a view of it."""

    __slots__ = ("algebra", "modes", "lo", "values")

    def __init__(self, algebra: ExtensionAlgebra, modes: dict[int, AlgebraElement]):
        self.algebra = algebra
        self.modes = {n: f for n, f in modes.items() if not f.is_zero}
        self.lo = self.values = None
        if any(f.is_numeric for f in self.modes.values()):
            self._hold(min(self.modes), self.on(min(self.modes), max(self.modes)))

    def _hold(self, lo: int, values: np.ndarray):
        self.lo, self.values = lo, values
        modes = range(lo, lo + values.shape[-2])
        modes = {n: self.algebra.twisted(n).element(values[..., n - lo, :]) for n in modes}
        self.modes = {n: f for n, f in modes.items() if not f.is_zero}

    def mode(self, n: int) -> AlgebraElement:
        return self.modes[n] if n in self.modes else self.algebra.twisted(n).zero()

    def on(self, lo: int, hi: int) -> np.ndarray:
        """The coefficients of the modes lo..hi as a complex array (...,
        modes, arrows)."""
        arrays = np.broadcast_arrays(*(self.mode(n).array() for n in range(lo, hi + 1)))
        return np.stack(arrays, axis=-2)

    def __getitem__(self, index) -> "LaurentElement":
        """The batch rows at index of a numeric element."""
        return self.algebra.stack(self.lo, self.values[index])

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.modes))

    def _require_same(self, other: "LaurentElement"):
        if other.algebra is not self.algebra and (
            other.algebra.groupoid is not self.algebra.groupoid
            or other.algebra.cocycle is not self.algebra.cocycle
        ):
            raise AlgebraError("mixing extension tags")

    def _twists(self, modes) -> np.ndarray:
        """The complex tables of w^n for the listed modes, stacked."""
        return np.stack([self.algebra.twisted(n).twist for n in modes])

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._require_same(other)
        out = dict(self.modes)
        for n, f in other.modes.items():
            out[n] = out[n] + f if n in out else f
        return LaurentElement(self.algebra, out)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + other.scaled(-1)

    def scaled(self, c) -> "LaurentElement":
        return LaurentElement(self.algebra, {n: f.scaled(c) for n, f in self.modes.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            return self.scaled(other)
        self._require_same(other)
        # cross-mode products vanish by circle-average orthogonality
        common = set(self.modes) & set(other.modes)
        if not common or (self.values is None and other.values is None):
            return LaurentElement(self.algebra, {n: self.modes[n] * other.modes[n] for n in common})
        lo, hi = min(common), max(common)
        x, y, twists = self.on(lo, hi), other.on(lo, hi), self._twists(range(lo, hi + 1))
        return self.algebra.stack(lo, products(self.algebra.groupoid, twists, x, y))

    __rmul__ = scaled

    def star(self) -> "LaurentElement":
        if self.values is None:
            return LaurentElement(self.algebra, {n: f.star() for n, f in self.modes.items()})
        twists = self._twists(range(self.lo, self.lo + self.values.shape[-2]))
        return self.algebra.stack(self.lo, stars(self.algebra.groupoid, twists, self.values))

    def equals(self, other: "LaurentElement", tol: float = 0.0) -> bool:
        self._require_same(other)
        modes = set(self.modes) | set(other.modes)
        return all(self.mode(n).equals(other.mode(n), tol) for n in modes)

    def __repr__(self):
        if not self.modes:
            return "0"
        return " + ".join(f"s^{-n}(x)[{f!r}]" for n, f in sorted(self.modes.items()))


# ---------------------------------------------------------------------------
# mode calculus

def mode_projection(F: LaurentElement, n: int) -> LaurentElement:
    """Circle-average against the n-th character: keeps mode n, kills the
    rest; a *-homomorphism of the graded model onto its n-th summand."""
    return LaurentElement(F.algebra, {n: F.modes[n]} if n in F.modes else {})


@dataclass
class DecompositionReport:
    mode_norms: dict[int, float]
    extension_norm: float
    attained_mode: int | None
    faithful_modes: dict[int, bool]
    mode_dimensions: dict[int, int] = field(default_factory=dict)
    center_dimensions: dict[int, int] = field(default_factory=dict)


def decompose(F: LaurentElement, with_centers: bool = False):
    """Split into mode components and compute the extension norm as the
    largest per-mode reduced norm, attained at the first mode reaching it;
    returns (components, report)."""
    comps = dict(sorted(F.modes.items()))
    norms = dict(zip(comps, _mode_norms(F, list(comps)).tolist()))
    attained = max(norms, key=norms.get, default=None)
    centers = {n: F.algebra.twisted(n).center_dimension() for n in comps} if with_centers else {}
    faithful = {n: F.algebra.twisted(n).full_norm_certificate().faithful for n in comps}
    dims = {n: F.algebra.groupoid.n_arrows for n in comps}
    report = DecompositionReport(norms, norms.get(attained, 0.0), attained, faithful, dims, centers)
    return comps, report


def _mode_norms(F: LaurentElement, modes: list[int]) -> np.ndarray:
    """The reduced norm of each listed mode of F, (..., modes), as
    ``reduced_norm`` takes it: one gather over the stacked tables of w^n."""
    if not modes:
        return np.zeros(0)
    x = np.stack(np.broadcast_arrays(*(F.mode(n).array() for n in modes)), axis=-2)
    units = F.algebra.twisted(0).orbit_units
    return unit_norms(F.algebra.groupoid, F._twists(modes), x, units).max(axis=-1, initial=0.0)


# ---------------------------------------------------------------------------
# regular representation of the graded model and the intertwining check

@dataclass
class IntertwineResidual:
    unit: int
    window: tuple[int, int]
    residual: float
    dimension: int


def fiber_sides(F: LaurentElement, window: tuple[int, int], units) -> list[tuple]:
    """Both sides of the fiber over every listed unit at once, per group of
    one fiber size d: (the group's positions in the list, R, L, the largest
    entry of |R_u - L_u| per unit), over F's batch axes.  R (..., units,
    modes * d, modes * d) is graded convolution by F on the windowed fiber
    space, from the graded product: circle orthogonality keeps mode m on the
    basis slots (m, fiber), where F acts by the products F_m * delta_b, one
    ``fiber_products`` scatter.  L (..., modes, units, d, d) holds the
    blocks lambda_u(F_n), one ``regular_reps`` gather, a separate code path;
    L_u is their block-diagonal sum."""
    lo, hi = window
    missing = [n for n in F.modes if not lo <= n <= hi]
    if missing:
        raise WindowError(missing)
    G, x, twists = F.algebra.groupoid, F.on(lo, hi), F._twists(range(lo, hi + 1))
    out = []
    for at, fiber in fibers(G, units):
        blocks, L = fiber_products(G, twists, x, fiber), regular_reps(G, twists, x, fiber)
        *lead, M, U, d, _ = blocks.shape
        R, n = np.zeros((*lead, U, M, d, M, d), dtype=complex), np.arange(M)
        R[..., n, :, n, :] = np.moveaxis(blocks, -4, 0)  # mode n's block at the slots (n, fiber)
        residual = np.abs(blocks - L).max(axis=(-4, -2, -1), initial=0.0)
        out.append((at, R.reshape(*lead, U, M * d, M * d), L, residual))
    return out


def intertwine_check(F: LaurentElement, u: int, window: tuple[int, int]) -> IntertwineResidual:
    """Compare graded convolution on the extension fiber against the direct
    sum of twisted-algebra regular representations, two unrelated code
    paths: the ``fiber_sides`` pass of check_reduced_decomposition on u."""
    [(_, R, _, residual)] = fiber_sides(F, window, [u])
    return IntertwineResidual(u, window, float(residual[..., 0]), R.shape[-1])


@dataclass
class UnitWitness:
    """The first failing fiber of a reduced decomposition: the sample's index,
    the unit, the mode window, | ||R_u|| - max_n ||lambda_u(F_n)|| | and the
    largest entry of |R_u - L_u| there."""

    sample: int
    unit: int
    window: tuple[int, int]
    deviation: float
    residual: float


@dataclass
class ReducedDecompositionCertificate:
    samples: int
    max_norm_deviation: float
    max_unit_deviation: float
    max_residual: float
    witness: UnitWitness | None = None

    @property
    def ok(self) -> bool:
        return self.max_norm_deviation <= NORM_TOL and self.max_unit_deviation <= NORM_TOL


def check_reduced_decomposition(elements: list[LaurentElement]) -> ReducedDecompositionCertificate:
    """For every sample and unit, over the sample's own mode span: record
    the intertwining residual of R_u and the mode blocks, and verify that
    ||R_u|| equals the largest block norm.  The extension norm, the largest
    block norm at the first unit of each orbit, as ``decompose`` reads it,
    must agree with the largest ||R_u||.  The samples of one algebra and
    span go as one stack through one ``fiber_sides`` pass over every unit
    and mode, with one SVD call per matrix shape.  The witness is the first
    fiber, in (sample, unit) order, whose residual exceeds ``INTERTWINE_TOL``
    or whose norms differ by more than ``NORM_TOL``."""
    stacks: dict[tuple, list[int]] = {}
    for i, F in enumerate(elements):
        if not F.is_zero:
            stacks.setdefault((F.algebra, min(F.modes), max(F.modes)), []).append(i)
    max_dev = max_unit_dev = max_res = 0.0
    witnesses = []
    for (algebra, lo, hi), index in stacks.items():
        F = algebra.stack(lo, np.stack([elements[i].on(lo, hi) for i in index]))
        sides = fiber_sides(F, (lo, hi), algebra.groupoid.units())
        norms = spectral_norms([M for _, R, L, _ in sides for M in (R, L)])
        residual, nR, nL = (np.zeros((len(index), algebra.groupoid.n_units)) for _ in range(3))
        for (at, *_, r), of_R, of_L in zip(sides, norms[::2], norms[1::2]):  # (sample, unit)
            residual[:, at], nR[:, at], nL[:, at] = r, of_R, of_L.max(axis=-2)  # max over modes
        deviation = np.abs(nR - nL)
        max_res = max(max_res, float(residual.max()))
        max_unit_dev = max(max_unit_dev, float(deviation.max()))
        extension_norm = nL[:, algebra.twisted(0).orbit_units].max(axis=1)
        max_dev = max(max_dev, float(np.abs(nR.max(axis=1) - extension_norm).max()))
        for i, u in np.argwhere((residual > INTERTWINE_TOL) | (deviation > NORM_TOL))[:1]:
            d, r = float(deviation[i, u]), float(residual[i, u])
            witnesses.append(UnitWitness(index[i], int(u), (lo, hi), d, r))
    witness = min(witnesses, key=lambda w: (w.sample, w.unit), default=None)
    return ReducedDecompositionCertificate(len(elements), max_dev, max_unit_dev, max_res, witness)


# ---------------------------------------------------------------------------
# the finite cyclic oracle comparison

def cyclic_extension(g: FiniteGroupoid, w: TwoCocycle, k: int) -> CyclicExtension:
    return CyclicExtension(g, w, k)


@dataclass
class ModeSummand:
    mode: int
    dimension: int
    center_dimension: int


@dataclass
class OracleWitness:
    """The first failing comparison of a cyclic decomposition: its kind
    ("product", "star" or "projection"), the modes and base arrows it
    compares at, and the size of the difference."""

    kind: str
    modes: tuple[int, ...]
    arrows: tuple[int, ...]
    residual: float


@dataclass
class CyclicDecomposition:
    """Certificate that the extension algebra of mu_k x_w G is the direct sum
    of the twisted algebras C(G, w^n), n = 0..k-1, matched basis-by-basis."""

    k: int
    summands: list[ModeSummand]
    products_checked: int
    stars_checked: int
    projections_checked: int
    exact: bool
    max_residual: float
    ok: bool
    witness: OracleWitness | None = None


def cyclic_decompose(ext: CyclicExtension, skip_centers: bool = False) -> CyclicDecomposition:
    """Certify the mode decomposition of the cyclic extension algebra.

    For every pair of modes and every pair of base arrows, the product of the
    embedded basis elements is computed with the oracle convolution (written
    against the extension's composition table) and compared against the
    twisted structure constants: zero across modes, w^n(a,b) delta_{ab}
    within a mode.  Involutions and the Fourier projections are checked the
    same way.  Each kind runs on stacks of all k*m mode deltas, in row chunks
    of about ``oracle.STACK_ENTRIES`` entries but at least one mode's m rows,
    and each chunk is decided exactly from its terms, from ``conv_terms``,
    ``star_terms`` and ``projection_terms``, with the expected values
    negated, by ``oracle.nonzero_sums``: one call per chunk covers all k
    target modes of the projections, and one the sum over the modes of the
    Fourier block.  The witness is the first failing comparison in the
    order products (n, p, a, b), stars (n, a), projections (n, mm, a),
    Fourier block (t, a), and its residual is the modulus of that one
    difference.

    The expected values are the tables of w^n as exponents of zeta_k, read
    in array expressions: w^n(a, b) at (a, b, ab), conj w^n(a^-1, a) at
    (a, a^-1).  An exact angle over the conductor (which divides k: every
    value is a k-th root) is scaled to k.  A numeric value is snapped to
    its nearest k-th root, and a pair whose value of w^n lies more than
    ``ORACLE_TOL`` from it fails as the product (n, n, a, b), its residual
    that distance; ``max_residual`` is the largest distance, 0.0 on exact
    cocycles.  The oracle's own twist is not read, or the comparison would
    check the oracle against itself.
    """
    base, w = ext.base, ext.cocycle
    k, m, N = ext.k, base.n_arrows, ext.dimension
    alg = ExtensionAlgebra(base, w)
    A, B, C = base.pair_table
    inv = np.asarray(base.inverse_map, dtype=np.intp)
    rows, t = np.arange(N), np.arange(k)

    def chunks(rows: int, per_row: int):
        step = max(1, m, oracle.STACK_ENTRIES // max(1, per_row))
        return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))

    # P[n, a, b]: w^n(a, b) = zeta_k^P, and each pair's distance from it
    twisted = [alg.twisted(n) for n in range(k)]
    if w.is_exact:
        P = np.array([T.powers for T in twisted], dtype=np.int64).reshape(k, m, m)
        P *= k // w.conductor
        distance = np.zeros((k, len(A)))
    else:  # the nearest k-th root, from the value and k alone
        z = np.array([T.twist for T in twisted]).reshape(k, m, m)
        P = np.rint(k * np.angle(z) / (2 * np.pi)).astype(np.intp) % k
        distance = oracle.magnitude(z - root_values(P, k))[:, A, B]
    max_residual = float(distance.max(initial=0.0))
    first = None  # (rank, position, residual) of the first failing comparison
    far = np.argwhere(distance > ORACLE_TOL)  # ascending in (n, a, b)
    if len(far):
        n, i = far[0]
        first = (0, int(((n * k + n) * m + A[i]) * m + B[i]), float(distance[n, i]))
    # Q[n * m + a]: the delta at base arrow a in mode n, e(-tn/k) at each
    # arrow (t, a), as one stack of exact oracle elements
    Q = oracle.Exact(np.zeros((N, N, k), dtype=np.int64))
    Q.num[rows[:, None], t * m + rows[:, None] % m, -t * (rows // m)[:, None] % k] = 1

    def summed(size: int, row: np.ndarray, terms, expected):
        """The failing (row, arrow) flags of ``size`` exact rows given by
        their terms, the batch row of each term being ``row``, against the
        expected values, zeta_k^j at each (row, arrow, j) of ``expected``,
        and the difference at a flat (row, arrow), from that row's terms."""
        scale = k**terms.e  # the expected values over k**e, as the terms are
        key, arrow, exponent = (x.ravel() for x in np.broadcast_arrays(*expected))
        bad = oracle.nonzero_sums(
            ext,
            size * N,
            (row * N + terms.arrow, terms.exponent, terms.coefficient),
            (key * N + arrow, exponent, -scale),
        )

        def value(i: int):
            p, x = divmod(i, N)
            diff = np.zeros((N, k), dtype=terms.coefficient.dtype)
            mine = row == p
            np.add.at(diff, (terms.arrow[mine], terms.exponent[mine]), terms.coefficient[mine])
            mine = key == p
            diff[arrow[mine], exponent[mine]] -= scale
            return oracle.to_complex(ext, oracle.Exact(diff, terms.e))[x]

        return bad, value

    def comparisons():
        """(rank of the kind, the search position of each batch row, the
        failing (row, arrow) flags, the difference at one of them)"""
        for n in range(k):
            # delta_a * delta_b = w^n(a, b) delta_ab within mode n, 0 otherwise:
            # product (n * m + a) * m + b is e(-tn/k) w^n(a, b) at each arrow (t, ab)
            product, arrow = (n * m + A) * m + B, t * m + C[:, None]
            expected = (P[n, A, B, None] - t * n) % k
            right = Q[n * m : (n + 1) * m][None, :]
            # a left row meets m right rows, k by k entries each; the terms of
            # one meeting hold four entries (row, arrow, exponent, coefficient)
            for lo, hi in chunks(N, 4 * m * k * k):
                own = (lo * m <= product) & (product < hi * m)
                terms = oracle.conv_terms(ext, Q[lo:hi, None], right)
                expect = (product[own, None] - lo * m, arrow[own], expected[own])
                position = n * k * m * m + np.arange(lo * m, hi * m)
                yield 0, position, *summed(len(position), terms.row, terms, expect)
        # delta_a* = conj w^n(a^-1, a) delta_(a^-1) within mode n: row
        # n * m + a is e(-tn/k) conj w^n(a^-1, a) at each arrow (t, a^-1);
        # k terms per row
        for lo, hi in chunks(N, 4 * k):
            n, a = divmod(rows[lo:hi, None], m)
            terms = oracle.star_terms(ext, Q[lo:hi])
            expect = (rows[lo:hi, None] - lo, t * m + inv[a], (-P[n, inv[a], a] - t * n) % k)
            yield 1, rows[lo:hi], *summed(hi - lo, terms.row, terms, expect)
        # projecting onto mode mm keeps the deltas of mode mm and kills the
        # rest: batch row (r, mm) of a chunk, for all k target modes mm at
        # once; k shifts of k entries in k modes, k**3 terms per row
        for lo, hi in chunks(N, 4 * k**3):
            n, a = divmod(rows[lo:hi], m)
            position = (((n * k)[:, None] + t) * m + a[:, None]).ravel()
            terms = oracle.projection_terms(ext, Q[lo:hi], t)
            r, x, s = np.nonzero(Q.num[lo:hi])
            yield 2, position, *summed((hi - lo) * k, terms.row, terms, (r * k + n[r], x, s))
        # Fourier projections resolve every delta of the extension; a chunk
        # holds its dense deltas and k shifts in k modes of each, and the
        # terms of batch row (x, n) add into x
        for lo, hi in chunks(N, max(N, 4 * k) * k):
            x = rows[lo:hi]
            terms = oracle.projection_terms(ext, oracle.deltas(ext, x, True), t)
            yield 3, x, *summed(hi - lo, terms.row // k, terms, (x - lo, x, 0))

    for rank, position, bad, value in comparisons():
        failing = np.flatnonzero(bad)
        if failing.size:
            # a chunk's flat (row, arrow) order need not be its search order
            at = position[failing // N]
            least = int(at.argmin())
            if first is None or (rank, int(at[least])) < first[:2]:
                first = (rank, int(at[least]), float(oracle.magnitude(value(int(failing[least])))))

    centers = [-1 if skip_centers else alg.twisted(n).center_dimension() for n in range(k)]
    summands = [ModeSummand(mode=n, dimension=m, center_dimension=c) for n, c in enumerate(centers)]
    return CyclicDecomposition(
        k=k,
        summands=summands,
        products_checked=(k * m) ** 2,
        stars_checked=k * m,
        projections_checked=k * k * m + ext.dimension,
        exact=w.is_exact,
        max_residual=max_residual,
        ok=first is None,
        witness=None if first is None else _witness(k, m, *first),
    )


def _witness(k: int, m: int, rank: int, position: int, residual: float) -> OracleWitness:
    """The comparison at ``position`` in the search order of the kind of ``rank``."""
    shape, named = (
        ((k, k, m, m), lambda n, p, a, b: ("product", (p, n), (a, b))),
        ((k, m), lambda n, a: ("star", (n,), (a,))),
        ((k, k, m), lambda n, mm, a: ("projection", (n, mm), (a,))),
        ((k, m), lambda t, a: ("projection", tuple(range(k)), (a,))),  # the Fourier block
    )[rank]
    return OracleWitness(*named(*(int(i) for i in np.unravel_index(position, shape))), residual)


def oracle_norm_deviation(F: LaurentElement, ext: CyclicExtension):
    """Distance between the max-of-modes extension norm of F and the reduced
    norm of its image in the finite cyclic oracle; over a stack of elements,
    an array of distances over the batch axes.

    F must be supported on modes 0..k-1: the finite extension cannot separate
    modes that differ by k."""
    k = ext.k
    if any(not 0 <= n < k for n in F.modes):
        raise WindowError([n for n in F.modes if not 0 <= n < k])
    img = np.zeros(ext.dimension, dtype=complex)
    for n, comp in F.modes.items():
        img = img + oracle.embed_mode(ext, n, comp.array())
    norm = _mode_norms(F, list(F.modes)).max(axis=-1, initial=0.0)
    return np.abs(norm - oracle.reduced_norm(ext, img))
