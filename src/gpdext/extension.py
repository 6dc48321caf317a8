"""The graded (Laurent-mode) model of the circle-extension algebra.

A LaurentElement is a finitely-supported family of twisted-algebra elements,
mode n carrying an element of C(G, w^n); it stands for the function
sum_n s^{-n} (x) f_n on the product of the circle with G.  Integrals over the
circle are never discretized: Fourier orthogonality makes them exact mode
bookkeeping, so the graded product of homogeneous elements vanishes across
modes and is the w^n-twisted convolution within a mode.  A numeric element
is one complex array (..., modes, arrows) from its lowest mode and nothing
else, so that a stack of samples takes each product, star and certificate
in one pass; an exact one is a dict of its nonzero exact modes.

The certificates compare this model against two other code paths: the
left-regular matrices of the twisted algebras (``fiber_sides``), and the
independent finite cyclic oracle mu_k x_w G (``cyclic_decompose``,
``oracle_norm_deviation``); the reports' star checks cover the involution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cyclic_oracle as oracle
from .algebra import AlgebraElement, AlgebraError, TwistedAlgebra, products, stars
from .algebra import fiber_products, fibers, regular_reps, unit_norms
from .cocycle import TwoCocycle, circle_values
from .cyclic_oracle import CyclicExtension
from .exact import spectral_norms
from .groupoid import FiniteGroupoid, orbit_units

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
        self.groupoid = groupoid
        self.cocycle = cocycle
        # mode 0's algebra checks the cocycle as every mode's does
        self._twisted = {0: TwistedAlgebra(groupoid, cocycle, 0)}

    def twisted(self, n: int) -> TwistedAlgebra:
        if n not in self._twisted:
            self._twisted[n] = TwistedAlgebra(self.groupoid, self.cocycle, n)
        return self._twisted[n]

    def element(self, modes: dict) -> "LaurentElement":
        """The graded element of the listed modes, each an element of mode
        n's algebra or its coefficients; zero modes are dropped."""
        out = {}
        for n, f in modes.items():
            if not isinstance(f, AlgebraElement):
                f = self.twisted(n).element(f)
            elif not self.twisted(n).same_tag(f.algebra):
                raise AlgebraError(f"mode {n} component carries the wrong tag")
            if not f.is_zero:
                out[n] = f
        F = LaurentElement(self, None, out)
        if any(f.is_numeric for f in out.values()):
            F.lo, F.values = min(out), F.on(min(out), max(out))
        return F

    def delta(self, n: int, arrow: int) -> "LaurentElement":
        return self.element({n: {arrow: 1}})

    def zero(self) -> "LaurentElement":
        return LaurentElement(self, None, {})

    def identity(self) -> "LaurentElement":
        return self.element({0: self.twisted(0).identity()})

    def stack(self, lo: int, values: np.ndarray) -> "LaurentElement":
        """The numeric element of coefficients ``values`` (..., modes, arrows) from mode lo."""
        return LaurentElement(self, lo, values)

    def __repr__(self):
        return f"ExtensionAlgebra({self.groupoid.name})"


class LaurentElement:
    """Finitely many modes, each an element of the matching twisted algebra.
    A numeric element is only the complex array ``values`` (..., modes,
    arrows) from mode ``lo``, each mode a view of it made when asked; an
    exact one has ``lo`` None and ``values`` a dict of its nonzero modes."""

    __slots__ = ("algebra", "lo", "values")

    def __init__(self, algebra: ExtensionAlgebra, lo: int | None, values):
        self.algebra, self.lo, self.values = algebra, lo, values

    @property
    def support(self) -> list[int]:
        """The nonzero modes: ascending if numeric, in dict order if exact."""
        if self.lo is None:
            return list(self.values)
        nonzero = self.values.any(axis=-1).reshape(-1, self.values.shape[-2]).any(axis=0)
        return (np.flatnonzero(nonzero) + self.lo).tolist()

    @property
    def modes(self) -> dict[int, AlgebraElement]:
        return {n: self.mode(n) for n in self.support}

    def mode(self, n: int) -> AlgebraElement:
        if self.lo is None and n in self.values:
            return self.values[n]
        if self.lo is not None and 0 <= n - self.lo < self.values.shape[-2]:
            return self.algebra.twisted(n).element(self.values[..., n - self.lo, :])
        return self.algebra.twisted(n).zero()

    def on(self, lo: int, hi: int) -> np.ndarray:
        """The ``stacked`` coefficients of the modes lo..hi."""
        return self.stacked(range(lo, hi + 1))

    def stacked(self, modes) -> np.ndarray:
        """The coefficients of the listed modes as a complex array (...,
        modes, arrows): a gather from ``values`` when its window holds them
        all, else each mode's array, with zeros outside the window."""
        at = np.array(modes, dtype=np.intp) - (self.lo or 0)
        if self.lo is not None and ((0 <= at) & (at < self.values.shape[-2])).all():
            return self.values[..., at, :]
        arrays = [self.mode(n).array() for n in modes]
        lead = np.broadcast_shapes(*(x.shape[:-1] for x in arrays))
        out = np.zeros((*lead, len(arrays), self.algebra.groupoid.n_arrows), dtype=complex)
        for i, x in enumerate(arrays):
            out[..., i, :] = x
        return out

    def __getitem__(self, index) -> "LaurentElement":
        """The batch rows at index of a numeric element."""
        return self.algebra.stack(self.lo, self.values[index])

    @property
    def is_zero(self) -> bool:
        return not self.values if self.lo is None else not self.values.any()

    def _require_same(self, other: "LaurentElement"):
        if not self.algebra.twisted(0).same_tag(other.algebra.twisted(0)):
            raise AlgebraError("mixing extension tags")

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        # a mode of one summand alone is copied, so its signed zeros keep their bits
        self._require_same(other)
        out = self.modes
        for n, f in other.modes.items():
            out[n] = out[n] + f if n in out else f
        return self.algebra.element(out)

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._require_same(other)
        # cross-mode products vanish by circle-average orthogonality
        common = set(self.support) & set(other.support)
        if not common or (self.lo is None and other.lo is None):
            return self.algebra.element({n: self.mode(n) * other.mode(n) for n in common})
        lo, hi = min(common), max(common)
        G, twists = self.algebra.groupoid, self.algebra.cocycle.twists(range(lo, hi + 1))
        return self.algebra.stack(lo, products(G, twists, self.on(lo, hi), other.on(lo, hi)))

    def star(self) -> "LaurentElement":
        if self.lo is None:
            return self.algebra.element({n: f.star() for n, f in self.values.items()})
        twists = self.algebra.cocycle.twists(range(self.lo, self.lo + self.values.shape[-2]))
        return self.algebra.stack(self.lo, stars(self.algebra.groupoid, twists, self.values))

    def equals(self, other: "LaurentElement", tol: float = 0.0) -> bool:
        self._require_same(other)
        modes = set(self.support) | set(other.support)
        return all(self.mode(n).equals(other.mode(n), tol) for n in modes)

    def __repr__(self):
        return " + ".join(f"s^{-n}(x)[{f!r}]" for n, f in sorted(self.modes.items())) or "0"


# ---------------------------------------------------------------------------
# mode calculus

def mode_projection(F: LaurentElement, n: int) -> LaurentElement:
    """Circle-average against the n-th character: keeps mode n, kills the
    rest; a *-homomorphism of the graded model onto its n-th summand."""
    return F.algebra.element({n: F.mode(n)} if n in F.support else {})


@dataclass
class DecompositionReport:
    mode_norms: dict[int, float | list]  # lists over the batch of a stack
    extension_norm: float | list
    attained_mode: int | list | None
    faithful_modes: dict[int, bool]
    mode_dimensions: dict[int, int] = field(default_factory=dict)
    center_dimensions: dict[int, int] = field(default_factory=dict)


def decompose(F: LaurentElement) -> DecompositionReport:
    """The extension norm of F, the largest reduced norm of its components
    ``F.modes``, attained at the first mode reaching it, with each mode's
    dimension, faithfulness and center dimension (closed forms, cached on
    each summand's algebra).  On a stack each mode maps to its norms per
    sample, and the extension norm and its mode are lists over the batch."""
    modes = sorted(F.support)
    x = _mode_norms(F, modes, F.stacked(modes))  # (..., modes)
    norms = dict(zip(modes, np.moveaxis(x, -1, 0).tolist()))
    attained = np.take(modes, x.argmax(axis=-1)).tolist() if modes else None
    centers = {n: F.algebra.twisted(n).center_dimension() for n in modes}
    faithful = {n: F.algebra.twisted(n).full_norm_certificate().faithful for n in modes}
    dims = {n: F.algebra.groupoid.n_arrows for n in modes}
    return DecompositionReport(
        norms, x.max(axis=-1, initial=0.0).tolist(), attained, faithful, dims, centers
    )


def _mode_norms(F: LaurentElement, modes: list[int], x: np.ndarray) -> np.ndarray:
    """The reduced norm of each listed mode of F, of coefficients x, as
    ``reduced_norm`` takes it: one gather over the stacked tables of w^n."""
    G, twists = F.algebra.groupoid, F.algebra.cocycle.twists(modes)
    return unit_norms(G, twists, x, orbit_units(G)).max(axis=-1, initial=0.0)


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
    missing = [n for n in F.support if not lo <= n <= hi]
    if missing:
        raise WindowError(missing)
    G, x, twists = F.algebra.groupoid, F.on(lo, hi), F.algebra.cocycle.twists(range(lo, hi + 1))
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
            stacks.setdefault((F.algebra, min(F.support), max(F.support)), []).append(i)
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
        extension_norm = nL[:, orbit_units(algebra.groupoid)].max(axis=1)
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
    embedded basis elements in the oracle is compared against the twisted
    structure constants: zero across modes, w^n(a,b) delta_{ab} within a
    mode.  Involutions and the Fourier projections are checked the same way.
    Each kind runs on stacks of all k*m mode deltas, in row chunks of about
    ``oracle.STACK_ENTRIES`` entries (at least one row), and each chunk is
    decided exactly from its terms, with the expected values negated, by
    ``oracle.nonzero_sums``: one call per chunk covers its left mode deltas
    times all k right-hand modes, all k target modes of the projections, and
    the sum over the modes of the Fourier block.  The products' terms come
    from ``mode_product_terms``, one per composable pair of the extension's
    own composition table and right mode, so a chunk is sized by the terms
    its left rows make; the stars' from ``star_terms`` and the projections'
    from ``projection_terms``.  The witness is the first failing comparison
    in the order products (n, p, a, b), stars (n, a), projections
    (n, mm, a), Fourier block (t, a), which need not be a chunk's row order,
    and its residual is the modulus of that one difference.

    The expected values are the cocycle's tables of w^n (``power_table``)
    as exponents of zeta_k, read in array expressions: w^n(a, b) at
    (a, b, ab), conj w^n(a^-1, a) at (a, a^-1).  An exact angle over the
    conductor (which divides k: every value is a k-th root) is scaled to k.
    A numeric value (``twists``) is snapped to its nearest k-th root, and a
    pair whose value of w^n lies more than ``ORACLE_TOL`` from it fails as
    the product (n, n, a, b), its residual that distance; ``max_residual``
    is the largest distance, 0.0 on exact cocycles.  The oracle's own twist
    is not read, or the comparison would check the oracle against itself.
    """
    base, w = ext.base, ext.cocycle
    k, m, N = ext.k, base.n_arrows, ext.dimension
    A, B, C = base.pair_table
    inv = base.inverse_map
    rows, t = np.arange(N), np.arange(k)

    def chunks(rows: int, per_row: int):
        step = max(1, oracle.STACK_ENTRIES // max(1, per_row))
        return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))

    # P[n, a, b]: w^n(a, b) = zeta_k^P, and each pair's distance from it
    if w.is_exact:
        P = np.array([w.power_table(n) for n in range(k)], dtype=np.int64).reshape(k, m, m)
        P *= k // w.conductor
        distance = np.zeros((k, len(A)))
    else:  # the nearest k-th root, from the value and k alone
        z = w.twists(range(k))
        P = np.rint(k * np.angle(z) / (2 * np.pi)).astype(np.intp) % k
        distance = oracle.magnitude(z - circle_values(range(k), k)[P])[:, A, B]
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

    def summed(size: int, row: np.ndarray, terms, flat: np.ndarray, exponent: np.ndarray):
        """The failing flat (row, arrow) flags of ``size`` exact rows given
        by their terms, each in batch row ``row``, against the expected
        values zeta_k^exponent at the flat (row, arrow) keys ``flat``, and
        the difference at one flat (row, arrow), from that row's terms."""
        scale = k**terms.e  # the expected values over k**e, as the terms are
        bad = oracle.nonzero_sums(
            ext,
            size * N,
            (row * N + terms.arrow, terms.exponent, terms.coefficient),
            (flat, exponent, -scale),
        )

        def value(i: int):
            p, x = divmod(i, N)
            diff = np.zeros((N, k), dtype=terms.coefficient.dtype)
            mine = row == p
            np.add.at(diff, (terms.arrow[mine], terms.exponent[mine]), terms.coefficient[mine])
            mine = flat // N == p
            diff[flat[mine] % N, exponent[mine]] -= scale
            return oracle.to_complex(ext, oracle.Exact(diff, terms.e))[x]

        return bad, value

    def comparisons():
        """(rank of the kind, the search position of each batch row, the
        failing (row, arrow) flags, the difference at one of them)"""
        # delta_a * delta_b = w^n(a, b) delta_ab within mode n, 0 otherwise:
        # left row p * m + a times right row n * m + b is product (n, p, a, b),
        # at search position (n * k * m + b) + (p * m + a) * m, and within
        # mode n it is e(-tn/k) w^n(a, b) at each arrow (t, ab), listed over
        # (n, pair), so that the left rows ascend
        n, pair = divmod(np.arange(k * len(A)), len(A))
        a, b = A[pair], B[pair]
        left, right = n * m + a, n * m + b
        arrow = t * m + C[pair, None]
        expected = (P[n, a, b, None] - t * n[:, None]) % k
        by_right = rows // m * k * m * m + rows % m
        # left row p * m + a makes k**3 terms per base pair (a, b), k circle
        # exponents on each side and k right modes, and a term holds four
        # entries (row, arrow, exponent, coefficient)
        for lo, hi in chunks(N, 4 * k**3 * int(np.bincount(A).max(initial=0))):
            i, j = left.searchsorted((lo, hi))
            terms = oracle.mode_product_terms(ext, rows[lo:hi])
            position = (rows[lo:hi, None] * m + by_right).ravel()
            flat = ((left[i:j, None] - lo) * N + right[i:j, None]) * N + arrow[i:j]
            yield 0, position, *summed(len(position), terms.row, terms, flat, expected[i:j])
        # delta_a* = conj w^n(a^-1, a) delta_(a^-1) within mode n: row
        # n * m + a is e(-tn/k) conj w^n(a^-1, a) at each arrow (t, a^-1);
        # k terms per row
        for lo, hi in chunks(N, 4 * k):
            n, a = divmod(rows[lo:hi, None], m)
            terms = oracle.star_terms(ext, Q[lo:hi])
            flat = (rows[lo:hi, None] - lo) * N + t * m + inv[a]
            exponent = (-P[n, inv[a], a] - t * n) % k
            yield 1, rows[lo:hi], *summed(hi - lo, terms.row, terms, flat, exponent)
        # projecting onto mode mm keeps the deltas of mode mm and kills the
        # rest: batch row (r, mm) of a chunk, for all k target modes mm at
        # once; k shifts of k entries in k modes, k**3 terms per row
        for lo, hi in chunks(N, 4 * k**3):
            n, a = divmod(rows[lo:hi], m)
            position = (((n * k)[:, None] + t) * m + a[:, None]).ravel()
            terms = oracle.projection_terms(ext, Q[lo:hi], t)
            r, x, s = Q.num[lo:hi].nonzero()
            yield 2, position, *summed((hi - lo) * k, terms.row, terms, (r * k + n[r]) * N + x, s)
        # Fourier projections resolve every delta of the extension; a chunk
        # holds its dense deltas and k shifts in k modes of each, and the
        # terms of batch row (x, n) add into x
        for lo, hi in chunks(N, max(N, 4 * k) * k):
            x = rows[lo:hi]
            terms = oracle.projection_terms(ext, oracle.deltas(ext, x), t)
            yield 3, x, *summed(hi - lo, terms.row // k, terms, (x - lo) * N + x, 0 * x)

    for rank, position, bad, value in comparisons():
        failing = bad.nonzero()[0]
        if failing.size:
            # a chunk's flat (row, arrow) order need not be its search order
            at = position[failing // N]
            least = int(at.argmin())
            if first is None or (rank, int(at[least])) < first[:2]:
                first = (rank, int(at[least]), float(oracle.magnitude(value(int(failing[least])))))

    centers = [-1] * k
    if not skip_centers:
        centers = [TwistedAlgebra(base, w, n).center_dimension() for n in range(k)]
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
    k, modes = ext.k, F.support
    if any(not 0 <= n < k for n in modes):
        raise WindowError([n for n in modes if not 0 <= n < k])
    x = F.stacked(modes)
    parts = oracle.embed_mode(ext, modes, x)
    img = np.zeros(x.shape[:-2] + (ext.dimension,), dtype=complex)
    for i in range(len(modes)):
        img = img + parts[..., i, :]  # from zero, in F's mode order, as one sum adds them
    norm = _mode_norms(F, modes, x).max(axis=-1, initial=0.0)
    return np.abs(norm - oracle.reduced_norm(ext, img))
