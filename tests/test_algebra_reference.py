"""The twisted algebra and the graded fibre matrix against their loop
references, bit for bit.

`convolve`, `involute`, `regular_rep`, `reduced_norm`, and the matrices,
residuals and norms of every unit and mode from `fiber_sides`, are compared
with the loops of `reference_algebra` on seeded elements: dense and sparse
complex ones, exact ones (int, Fraction and Cyclo coefficients) and mixed
ones, which are numeric, in shuffled support orders, on every bundled
fixture, every `randgen` family and `pair_groupoid(2..8)`, each cocycle
also with its values as complex numbers; the fibres also on the
`algebra_ladder` groupoids and on groupoids whose units have fibres of
different sizes.  Numeric results must have the same bits entry by entry;
exact ones the same keys in the same order, with the same values.  Stacks
of elements are compared row by row with the single elements.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from gpdext.algebra import TwistedAlgebra, unit_norms
from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import TwoCocycle, bicharacter_cocycle, normalize
from gpdext.exact import Cyclo
from gpdext.extension import (
    NORM_TOL,
    ExtensionAlgebra,
    check_reduced_decomposition,
    decompose,
    fiber_sides,
)
from gpdext.groupoid import (
    abelian_group_groupoid,
    cover_groupoid,
    disjoint_union,
    orbit_decomposition,
    pair_groupoid,
)
from gpdext.randgen import _FAMILIES, random_laurents, random_mu_k_coboundary
from helpers import random_element
from reference_algebra import (
    loop_convolve,
    loop_extension_regular_matrix,
    loop_involute,
    loop_reduced_decomposition,
    loop_reduced_norm,
    loop_regular_rep,
)

FAMILY_ORDERS = (2, 3, 4, 6)
POWERS = (1, -1, 2)
WINDOW = (-1, 2)


def _complex_copy(w: TwoCocycle) -> TwoCocycle:
    return TwoCocycle(w.base, {p: v.to_complex() for p, v in w.values.items()})


def _instances():
    """(name, groupoid, normalized cocycle): the bundled fixtures, the randgen
    families with a mu_k coboundary times the family's own cocycle, and pair
    groupoids with a mu_4 coboundary; then each with complex values."""
    rng = random.Random(7)
    out = []
    for path in sorted(_fixture_dir().glob("*.json")):
        spec, _ = load_spec(None, path.stem)
        w = spec.cocycle_or_trivial()
        out.append((path.stem, spec.groupoid, w if w.normalized else normalize(w)[0]))
    for i, (_, build) in enumerate(_FAMILIES):
        k = FAMILY_ORDERS[i % len(FAMILY_ORDERS)]
        g, seed = build(k)
        w = random_mu_k_coboundary(rng, g, k)
        out.append((f"family{i}-k{k}", g, w if seed is None else w.mul(seed)))
    for n in range(2, 9):
        g = pair_groupoid(n)
        out.append((f"pair{n}", g, random_mu_k_coboundary(rng, g, 4)))
    return out + [(f"{name}-complex", g, _complex_copy(w)) for name, g, w in out]


INSTANCES = _instances()


def _gauss(rng) -> complex:
    return complex(rng.gauss(0, 1), rng.gauss(0, 1))


def _exact(rng):
    return rng.choice(
        (1, -2, Fraction(1, 3), Cyclo.from_root(Fraction(rng.randrange(12), 12), rng.randint(1, 3)))
    )


def _coefficient_maps(rng, m: int) -> list[dict]:
    """Dense complex (ascending), sparse complex, exact and mixed (shuffled)."""
    arrows = list(range(m))
    rng.shuffle(arrows)
    half = arrows[: max(1, m // 2)]
    few = arrows[: min(m, 6)]
    return [
        {a: _gauss(rng) for a in range(m)},
        {a: _gauss(rng) for a in half},
        {a: _exact(rng) for a in few},
        {a: rng.randint(1, 3) if i % 2 else _gauss(rng) for i, a in enumerate(half)},
    ]


def _bits(x):
    if isinstance(x, Cyclo):
        return ("Cyclo", x.n, list(x.terms.items()), x.den)
    if isinstance(x, (float, complex)):
        z = complex(x)
        return (type(x).__name__, z.real.hex(), z.imag.hex())
    return (type(x).__name__, x)


def assert_same(f, ref):
    assert f.is_numeric == ref.is_numeric
    if f.is_numeric:
        assert_same_matrix(f.values, ref.values)
        return
    assert [(a, _bits(c)) for a, c in f.coeff.items()] == [
        (a, _bits(c)) for a, c in ref.coeff.items()
    ]


def assert_same_matrix(M, ref):
    assert M.dtype == ref.dtype and M.shape == ref.shape
    assert M.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name,g,w", INSTANCES, ids=[x[0] for x in INSTANCES])
def test_products_and_stars_match_the_loops(name, g, w):
    rng = random.Random(name)
    for n in POWERS:
        alg = TwistedAlgebra(g, w, n)
        dense, sparse, exact, mixed = (alg.element(c) for c in _coefficient_maps(rng, g.n_arrows))
        for f, h in (
            (dense, dense),
            (sparse, dense),
            (dense, sparse),
            (exact, sparse),
            (sparse, exact),
            (exact, exact),
            (mixed, exact),
            (mixed, mixed),
        ):
            assert_same(f * h, loop_convolve(f, h))
        for f in (dense, sparse, exact, mixed):
            assert_same(f.star(), loop_involute(f))
            assert_same(f.star() * f, loop_convolve(loop_involute(f), f))
        triples = ((sparse, dense, sparse), (dense.star(), sparse, dense), (exact, mixed, sparse))
        for f, h, x in triples:
            assert_same((f * h) * x, loop_convolve(loop_convolve(f, h), x))
            assert_same((f * h).star(), loop_involute(loop_convolve(f, h)))


@pytest.mark.parametrize("name,g,w", INSTANCES, ids=[x[0] for x in INSTANCES])
def test_regular_representations_match_the_loop(name, g, w):
    rng = random.Random(name)
    for n in POWERS:
        alg = TwistedAlgebra(g, w, n)
        elements = [alg.element(c) for c in _coefficient_maps(rng, g.n_arrows)]
        f = random_element(rng, alg)
        for x in elements + [f.star() * f]:
            for u in g.units():
                assert_same_matrix(alg.regular_rep(x, u).matrix, loop_regular_rep(x, u))


def _assert_fibres_match_the_loop(F, window):
    """Every unit's R_u and mode blocks from one ``fiber_sides`` pass, and
    its residual, against the loops unit by unit, bit for bit; with each
    mode's norms at every unit (``unit_norms``) against ``np.linalg.norm``
    of the loop blocks."""
    G = F.algebra.groupoid
    units, modes = list(G.units()[::-1]), range(window[0], window[1] + 1)  # units out of order
    sides = fiber_sides(F, window, units)
    assert sorted(i for at, *_ in sides for i in at) == list(range(len(units)))
    twists = np.stack([F.algebra.twisted(n).twist for n in modes])
    norms = unit_norms(G, twists, F.on(*window), units)
    for at, R, L, residual in sides:
        assert R.shape[:-2] == residual.shape == (len(at),) and L.shape[:2] == (len(modes), len(at))
        for j, u in enumerate(units[i] for i in at):
            blocks = [loop_regular_rep(F.mode(n), u) for n in modes]
            R_u = loop_extension_regular_matrix(F, u, window)
            assert_same_matrix(R[j], R_u)
            for n, block in enumerate(blocks):
                assert_same_matrix(L[n, j], block)
                assert norms[n, at[j]].hex() == float(np.linalg.norm(block, 2)).hex()
            L_u = np.zeros_like(R_u)
            for n, block in enumerate(blocks):
                d = len(block)
                L_u[n * d : (n + 1) * d, n * d : (n + 1) * d] = block
            assert residual[j].hex() == float(np.abs(R_u - L_u).max()).hex()


def _assert_stack_rows(F, window):
    """The sides of a stack, row by row, have the bits of each row's own."""
    units = F.algebra.groupoid.units()
    for i in range(len(F.values)):
        for stacked, alone in zip(fiber_sides(F, window, units), fiber_sides(F[i], window, units)):
            assert stacked[0].tolist() == alone[0].tolist()
            for M, ref in zip(stacked[1:], alone[1:]):
                assert_same_matrix(M[i], ref)


@pytest.mark.parametrize("name,g,w", INSTANCES, ids=[x[0] for x in INSTANCES])
def test_fibre_matrices_match_the_loop(name, g, w):
    rng = random.Random(name)
    ea = ExtensionAlgebra(g, w)
    dense, sparse, exact, mixed = _coefficient_maps(rng, g.n_arrows)
    # numeric modes with mode 1 empty, then exact, mixed and numeric ones with mode -1 empty
    for modes in ({-1: dense, 0: sparse, 2: dense}, {0: exact, 1: mixed, 2: sparse}):
        _assert_fibres_match_the_loop(ea.element(modes), WINDOW)
    F = random_laurents(rng, ea, WINDOW, (3,))
    _assert_fibres_match_the_loop(F[0], WINDOW)
    _assert_stack_rows(F, WINDOW)


def _ladder_instances():
    """The groupoids of the algebra_ladder benchmark: pair groupoids on 2..11
    units with mu_k coboundaries, and Z_a x Z_b with a bicharacter cocycle
    times a mu_k coboundary."""
    rng = random.Random(11)
    out = []
    for n in range(2, 12):
        g = pair_groupoid(n)
        out.append((f"ladder-pair{n}", g, random_mu_k_coboundary(rng, g, rng.choice((2, 3, 4, 6)))))
    for orders, k in (((2, 2), 2), ((2, 4), 4), ((3, 3), 3), ((4, 4), 4), ((3, 6), 3)):
        g = abelian_group_groupoid(orders)
        w = bicharacter_cocycle(g, orders, k).mul(random_mu_k_coboundary(rng, g, k))
        out.append((f"ladder-z{orders[0]}z{orders[1]}", g, w))
    return out


LADDER = _ladder_instances()


def _assert_norms_per_orbit(alg, elements):
    """reduced_norm at the first unit of each orbit against the loop over
    every unit: the unit is the first of its orbit, the norm is the bits of
    np.linalg.norm there, and it is the loop's largest norm within NORM_TOL;
    a stack of the elements gets the same bits row by row."""
    firsts = [orbit[0] for orbit in orbit_decomposition(alg.groupoid).orbits]
    reports = [alg.reduced_norm(x) for x in elements]
    for x, rep in zip(elements, reports):
        norm, _ = loop_reduced_norm(alg, x)
        assert rep.attained_at in firsts
        at = alg.regular_rep(x, rep.attained_at).matrix
        assert rep.reduced_norm.hex() == float(np.linalg.norm(at, 2)).hex()
        assert abs(rep.reduced_norm - norm) <= NORM_TOL
    stacked = alg.reduced_norm(alg.element(np.stack([x.array() for x in elements])))
    assert stacked.reduced_norm.tolist() == [rep.reduced_norm for rep in reports]
    assert stacked.attained_at.tolist() == [rep.attained_at for rep in reports]


@pytest.mark.parametrize("name,g,w", INSTANCES, ids=[x[0] for x in INSTANCES])
def test_reduced_norms_match_the_loop(name, g, w):
    rng = random.Random(name)
    for n in POWERS:
        alg = TwistedAlgebra(g, w, n)
        elements = [alg.element(c) for c in _coefficient_maps(rng, g.n_arrows)]
        # the identity has norm 1 at every unit: the first unit attains it
        _assert_norms_per_orbit(alg, elements + [alg.identity(), alg.zero()])


@pytest.mark.parametrize("name,g,w", LADDER, ids=[x[0] for x in LADDER])
def test_reduced_norms_on_the_ladder_match_the_loop(name, g, w):
    rng = random.Random(name)
    alg = TwistedAlgebra(g, w, 1)
    f = random_element(rng, alg)
    _assert_norms_per_orbit(alg, [f, f.star() * f, alg.identity()])


@pytest.mark.parametrize("name,g,w", LADDER, ids=[x[0] for x in LADDER])
def test_fibres_on_the_ladder_match_the_loop(name, g, w):
    rng = random.Random(name)
    ea = ExtensionAlgebra(g, w)
    # the benchmark's element, modes 0 and 1, in a stack
    F = random_laurents(rng, ea, (0, 1), (3,))
    _assert_fibres_match_the_loop(F[0], (0, 1))
    _assert_stack_rows(F, (0, 1))
    _assert_decomposition_matches_the_loop([F[1]])


def _uneven_instances():
    """Groupoids whose units have fibres of different sizes, each with a
    mu_4 coboundary: pair(2)+pair(1), pair(3)+pair(2), and the cover of
    {1, 2, 3} by {1, 2, 3} and {1}; then each with complex values."""
    rng = random.Random(13)
    out = []
    for name, g in (
        ("pair2+pair1", disjoint_union(pair_groupoid(2), pair_groupoid(1))),
        ("pair3+pair2", disjoint_union(pair_groupoid(3), pair_groupoid(2))),
        ("cover", cover_groupoid([1, 2, 3], [{1, 2, 3}, {1}])),
    ):
        assert len({len(g.source_fiber(u)) for u in g.units()}) > 1
        out.append((name, g, random_mu_k_coboundary(rng, g, 4)))
    return out + [(f"{name}-complex", g, _complex_copy(w)) for name, g, w in out]


UNEVEN = _uneven_instances()


def _assert_decomposition_matches_the_loop(elements):
    """check_reduced_decomposition against the loop, its deviations and
    residual bit for bit."""
    cert = check_reduced_decomposition(elements)
    *ref, witness = loop_reduced_decomposition(elements)
    got = (cert.max_norm_deviation, cert.max_unit_deviation, cert.max_residual)
    assert [x.hex() for x in got] == [x.hex() for x in ref]
    assert (cert.witness and (cert.witness.sample, cert.witness.unit)) == witness


@pytest.mark.parametrize("name,g,w", UNEVEN, ids=[x[0] for x in UNEVEN])
def test_fibres_of_different_sizes_match_the_loop(name, g, w):
    rng = random.Random(name)
    ea = ExtensionAlgebra(g, w)
    dense, sparse, exact, mixed = _coefficient_maps(rng, g.n_arrows)
    for modes in ({-1: dense, 0: sparse, 2: dense}, {0: exact, 1: mixed, 2: sparse}):
        _assert_fibres_match_the_loop(ea.element(modes), WINDOW)
    F = random_laurents(rng, ea, WINDOW, (3,))
    _assert_fibres_match_the_loop(F[0], WINDOW)
    _assert_stack_rows(F, WINDOW)
    _assert_decomposition_matches_the_loop([F[i] for i in range(3)] + [ea.element({0: exact})])
    for n in POWERS:
        alg = TwistedAlgebra(g, w, n)
        elements = [alg.element(c) for c in _coefficient_maps(rng, g.n_arrows)]
        for x in elements:
            for u in g.units():
                assert_same_matrix(alg.regular_rep(x, u).matrix, loop_regular_rep(x, u))
        _assert_norms_per_orbit(alg, elements + [alg.identity(), alg.zero()])


@pytest.mark.parametrize("name,g,w", INSTANCES + UNEVEN, ids=[x[0] for x in INSTANCES + UNEVEN])
def test_decompose_takes_each_mode_norm_as_reduced_norm_does(name, g, w):
    # every mode's norm from one gather over the stacked tables of w^n, with
    # the bits of the mode's own reduced_norm
    rng = random.Random(name)
    ea = ExtensionAlgebra(g, w)
    dense, sparse, exact, mixed = _coefficient_maps(rng, g.n_arrows)
    for F in (ea.element({-1: dense, 0: exact, 2: mixed, 3: sparse}), ea.identity(), ea.zero()):
        _, report = decompose(F)
        reports = {n: ea.twisted(n).reduced_norm(f) for n, f in sorted(F.modes.items())}
        assert list(report.mode_norms) == list(reports)
        assert [x.hex() for x in report.mode_norms.values()] == [
            r.reduced_norm.hex() for r in reports.values()
        ]
        assert report.faithful_modes == {n: r.faithful for n, r in reports.items()}
        assert report.extension_norm == max(report.mode_norms.values(), default=0.0)
