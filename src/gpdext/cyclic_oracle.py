"""Finite cyclic-extension oracle: the groupoid mu_k x_w G.

For a normalized cocycle w whose values are k-th roots of unity, the set
mu_k x G becomes an honest finite groupoid under

    (s, a)(t, b) = (s t w(a, b), a b),    (t, a)^-1 = (t^-1 w(a, a^-1)^-1, a^-1),

with unit space identified with the units of G.  Associativity of this
multiplication is literally the cocycle identity, so building the extension
and validating it re-proves the identity through an independent code path.

The algebra of the extension carries the convolution with the circle factor
averaged (weight 1/k per circle coordinate, counting measure along G), which
is the finite analogue of normalized Haar measure on the circle.  With that
weight, restriction to the fiber over 1 is exactly multiplicative on each
Fourier mode.  Everything in this module is written directly against the
extension's composition table: nothing is delegated to the twisted
convolution machinery, so agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exact import CircleScalar
from .cocycle import TwoCocycle
from .groupoid import (
    FiniteGroupoid,
    is_principal,
    isomorphism_violations,
    quotient_by_isotropy,
    validate,
)


class OracleError(ValueError):
    pass


def _root_exponent(value: CircleScalar, k: int, pair_label: str) -> int:
    """Write a circle value as e(c/k); error when it is not a k-th root."""
    if value.is_exact:
        a = value.angle
        if (a * k).denominator != 1:
            raise OracleError(f"cocycle value {value!r} on {pair_label} is not a mu_{k} root")
        return int(a * k) % k
    z = value.to_complex()
    import cmath
    import math

    c = round(k * (cmath.phase(z) / (2 * math.pi))) % k
    if abs(z - cmath.exp(2j * math.pi * c / k)) > 1e-9:
        raise OracleError(f"cocycle value {value!r} on {pair_label} is not a mu_{k} root")
    return c


class CyclicExtension:
    """The finite groupoid mu_k x_w G with its circle coordinate laid bare.

    Arrow ids are t * |arrows(G)| + a for circle exponent t and base arrow a;
    units coincide with the units of the base.
    """

    def __init__(self, base: FiniteGroupoid, cocycle: TwoCocycle, k: int):
        if k < 1:
            raise OracleError("k must be positive")
        if cocycle.base is not base:
            raise OracleError("cocycle is not defined on this groupoid")
        cocycle.require_checked("cyclic extension")
        if not cocycle.normalized:
            raise OracleError("cyclic extension needs a normalized cocycle")
        self.base = base
        self.cocycle = cocycle
        self.k = k
        n = base.n_arrows
        lab = base.arrow_labels

        twist = {}
        for (a, b), c in base.compose_table.items():
            twist[(a, b)] = _root_exponent(
                cocycle.value(a, b), k, f"({lab[a]},{lab[b]})"
            )
        self.twist = twist

        rng = [base.r(a) for t in range(k) for a in range(n)]
        src = [base.s(a) for t in range(k) for a in range(n)]
        compose = {}
        for (a, b), c in base.compose_table.items():
            w = twist[(a, b)]
            for t1 in range(k):
                for t2 in range(k):
                    compose[(t1 * n + a, t2 * n + b)] = ((t1 + t2 + w) % k) * n + c
        inverse = []
        for t in range(k):
            for a in range(n):
                ai = base.inv(a)
                w = twist[(a, ai)]
                inverse.append(((-t - w) % k) * n + ai)
        unit_to_arrow = [base.unit_arrow(u) for u in base.units()]  # t = 0 block
        labels = [f"(e({t}/{k})|{lab[a]})" for t in range(k) for a in range(n)]
        self.groupoid = FiniteGroupoid(
            base.n_units, rng, src, compose, inverse, unit_to_arrow,
            unit_labels=base.unit_labels, arrow_labels=labels,
            name=f"mu{k}x{base.name}",
        )
        self.validation = validate(self.groupoid)
        self.validation.raise_if_failed()
        self._roots = tuple(CircleScalar(angle=Fraction(j, k)) for j in range(k))
        self.weight = Fraction(1, k)

    # -- indexing -------------------------------------------------------------

    def arrow(self, t: int, a: int) -> int:
        return (t % self.k) * self.base.n_arrows + a

    def parts(self, arrow_id: int) -> tuple[int, int]:
        return divmod(arrow_id, self.base.n_arrows)

    @property
    def dimension(self) -> int:
        return self.k * self.base.n_arrows

    def root(self, j: int) -> CircleScalar:
        return self._roots[j % self.k]


# ---------------------------------------------------------------------------
# the extension algebra, written directly against the composition table.
# Elements are sparse dicts arrow_id -> scalar.

def _average(ext: CyclicExtension, v):
    """v / k, the circle average: by the exact weight 1/k on exact values and
    by the float 1.0 / k on numeric ones."""
    return v * (1.0 / ext.k) if isinstance(v, (float, complex)) else v * ext.weight


def conv(ext: CyclicExtension, f: dict, g: dict) -> dict:
    """Convolution over mu_k x_w G with the circle factor averaged:
    (f*g)(x) = (1/k) * sum over factorizations x = y.z of f(y) g(z)."""
    G = ext.groupoid
    acc: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            c = G.compose_or_none(a, b)
            if c is None:
                continue
            term = ca * cb
            prev = acc.get(c)
            acc[c] = term if prev is None else prev + term
    out = {}
    for c, v in acc.items():
        v = _average(ext, v)
        if v:
            out[c] = v
    return out


def star(ext: CyclicExtension, f: dict) -> dict:
    G = ext.groupoid
    return {G.inv(a): c.conjugate() for a, c in f.items()}


def mode_projection(ext: CyclicExtension, f: dict, n: int) -> dict:
    """The n-th Fourier projection p_n(f)(t, a) = (1/k) sum_j f(t + j, a) e(jn/k)."""
    out = {}
    for a in {ext.parts(x)[1] for x in f}:
        for t in range(ext.k):
            acc = None
            for j in range(ext.k):
                c = f.get(ext.arrow(t + j, a))
                if c is None:
                    continue
                term = ext.root(j * n).times(c)
                acc = term if acc is None else acc + term
            if acc is not None:
                v = _average(ext, acc)
                if v:
                    out[ext.arrow(t, a)] = v
    return out


def embed_mode(ext: CyclicExtension, n: int, coeffs: dict) -> dict:
    """The inverse identification: base coefficients F_n into the mode-n
    homogeneous part, (t, a) -> e(-tn/k) F_n(a)."""
    out = {}
    for a, c in coeffs.items():
        for t in range(ext.k):
            v = ext.root(-t * n).times(c)
            if v:
                out[ext.arrow(t, a)] = v
    return out


def regular_rep_matrix(ext: CyclicExtension, f: dict, u: int) -> np.ndarray:
    """Matrix of convolution by f on the source fiber over unit u."""
    fiber = ext.groupoid.source_fiber(u)
    pos = {x: i for i, x in enumerate(fiber)}
    M = np.zeros((len(fiber), len(fiber)), dtype=complex)
    for j, x in enumerate(fiber):
        col = conv(ext, f, {x: 1})
        for y, c in col.items():
            M[pos[y], j] = complex(c)
    return M


def reduced_norm(ext: CyclicExtension, f: dict) -> float:
    best = 0.0
    for u in ext.groupoid.units():
        m = regular_rep_matrix(ext, f, u)
        if m.size:
            best = max(best, float(np.linalg.norm(m, 2)))
    return best


def faithfulness_rank(ext: CyclicExtension) -> tuple[int, int]:
    """Rank of the direct sum of all regular representations on the delta
    basis, against the algebra dimension k*|arrows|.

    At unit u the column of the unit arrow is conv(f, delta at u) = (1/k) f
    restricted to s^-1(u), so the unit columns read off f, and the rank
    counts the arrows x whose product with the unit at s(x) is supported on
    {x} alone, in O(arrows) with this module's own conv.  Faithfulness is
    what makes the full and reduced norms agree (J. Renault, *A Groupoid
    Approach to C*-Algebras*, LNM 793, 1980)."""
    G = ext.groupoid
    rank = sum(
        conv(ext, {x: 1}, {G.unit_arrow(G.s(x)): 1}).keys() == {x} for x in G.arrows()
    )
    return rank, ext.dimension


def _orthonormal_rows(rows: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim > 1 else 0)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if len(s) == 0:
        return vh[:0]
    r = int((s > tol * max(1.0, float(s[0]))).sum())
    return vh[:r]


def ideal_dimension(dim: int, generators: list[dict], product) -> int:
    """Dimension of the two-sided ideal generated by sparse coefficient dicts
    in a dim-dimensional algebra, by span closure under products with the
    delta basis.  product(f, g) is f * g as a sparse dict; each caller passes
    its own algebra's product (the oracle's is conv)."""

    def vec(d: dict) -> np.ndarray:
        v = np.zeros(dim, dtype=complex)
        for a, c in d.items():
            v[a] = complex(c)
        return v

    rows = [vec(g) for g in generators if g]
    if not rows:
        return 0
    basis = _orthonormal_rows(np.array(rows))
    while True:
        cand = list(basis)
        for g in basis:
            gd = {int(a): complex(g[a]) for a in np.nonzero(np.abs(g) > 1e-13)[0]}
            for x in range(dim):
                cand.append(vec(product(gd, {x: 1})))
                cand.append(vec(product({x: 1}, gd)))
        new_basis = _orthonormal_rows(np.array(cand))
        if len(new_basis) == len(basis):
            return len(basis)
        basis = new_basis


def quotient_matches_base(ext: CyclicExtension) -> list[str]:
    """For principal base, verify the canonical isomorphism between the
    extension modulo its isotropy bundle and the base groupoid.

    Classes of the quotient are matched to base arrows through the circle
    projection; the check confirms the projection is constant on classes,
    bijective on classes, and a groupoid isomorphism.
    """
    if not is_principal(ext.base):
        return ["base groupoid is not principal"]
    q, proj = quotient_by_isotropy(ext.groupoid)
    n_classes = q.n_arrows
    arrow_map = [None] * n_classes
    for x in range(ext.dimension):
        _, a = ext.parts(x)
        cls = proj[x]
        if arrow_map[cls] is None:
            arrow_map[cls] = a
        elif arrow_map[cls] != a:
            return [f"class {cls} mixes distinct base arrows"]
    if any(a is None for a in arrow_map):
        return ["projection misses a class"]
    return isomorphism_violations(q, ext.base, arrow_map)
