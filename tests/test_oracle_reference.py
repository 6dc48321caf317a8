"""The oracle convolution and the mode decomposition certificate against
their loop references.

The scatter of `mode_product_terms` (`reference_oracle.scatter`) is
compared with `reference_oracle.scan_conv` of every mode delta against
every other, whole and one left row at a time, by numerators, dtype and
denominator, also on k = 1 and on the empty groupoid, and one decomposition
makes k**2 product terms per composable pair of mu_k x_w G, no more.
`delta_products` is compared by its bytes with `scan_conv` against every
delta from either side, on single elements and stacks, some entries with
signed zeros, on the same instances.
`reduced_norm` is compared with one spectral norm per unit, bit for bit.
`cyclic_decompose` is compared with `reference_oracle.loop_decompose` field
for field, witness and `max_residual` included, on every bundled fixture and
every `randgen` family at k = 2, 3, 4, 6, each also with its cocycle values
as complex numbers, on k = 1 and on the empty groupoid, and on seeded
single-point mutants: one twist exponent changed in the oracle's
composition, one cocycle value changed after the oracle was built, by a
k-th root or by a turn off its root, and projections that fail for two
(source, target) mode pairs whose search order differs from their target
order, or for two mode deltas of one chunk whose search order is the
reverse of the chunk's flat (row, target) order; some of them again with
the stacks cut into chunks of a few rows.  Both snap a complex value of
w^n to its nearest k-th root and compare exactly from there, so the
complex copies take the exact path, and `max_residual` is the largest
distance of a value from its root; a value that lies more than
`ORACLE_TOL` from it fails as its product within the mode.  The library
takes its roots from the values and k alone, never from the oracle's own
twist.  The exact projections and stars are decided from the terms of
`projection_terms` and `star_terms`, so the projection mutants add a term
there, and the loop's projections, one gather per (mode, mode) block in
`reference_oracle.gather_projection`, are spoiled alike; the gathers of
projections and stars match the scatters of their terms for k = 1 to 6.  A
changed graded involution leaves the library, which reads its stars off the
table of w^n, passing, and fails the loop, which reads them from
`involute`, so the two no longer match.  The exact products are decided
from the terms of `mode_product_terms`, so their mutants act there and,
alike, on the loop's `scan_conv`, and the two witnesses match: a term
added to the products of two (left, right) mode pairs whose search order
differs from their left order, and one term dropped from one product,
which must be named with a residual of 1/k.  A chunk multiplies its left
mode deltas by all k right-hand modes at once, so its rows are not in
search order: the cross-mode products (1, 0) and (0, 1) and one in-mode
product of a later chunk are spoiled.
"""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from gpdext import cyclic_oracle as oracle
from gpdext.algebra import TwistedAlgebra
from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import ROOT_TOL, TwoCocycle, normalize
from gpdext.exact import CircleScalar
from gpdext.extension import ORACLE_TOL, ExtensionAlgebra, cyclic_decompose, oracle_norm_deviation
from gpdext.groupoid import symmetric_group_groupoid
from gpdext.randgen import (
    _FAMILIES,
    draw_oracle_instance,
    random_laurent,
    random_laurents,
    random_mu_k_coboundary,
)
from helpers import empty_groupoid
from reference_algebra import sigma
import reference_oracle
from reference_oracle import (
    gather_projection,
    gather_star,
    loop_decompose,
    loop_norm_deviation,
    loop_reduced_norm,
    mode_deltas,
    scan_conv,
    scatter,
    scatter_projection,
    scatter_star,
)

ORDERS = (2, 3, 4, 6)


def _complex_copy(w: TwoCocycle) -> TwoCocycle:
    numeric = TwoCocycle(w.base, {p: v.to_complex() for p, v in w.values.items()})
    numeric.check_identity()
    return numeric


def _instances():
    """(name, groupoid, normalized mu_k cocycle, k): the bundled fixtures at
    their own k, every randgen family at every k of ORDERS with a mu_k
    coboundary times the family's own cocycle; then each with complex values."""
    rng = random.Random(12)
    out = []
    for path in sorted(_fixture_dir().glob("*.json")):
        spec, _ = load_spec(None, path.stem)
        w = spec.cocycle_or_trivial()
        w = w if w.normalized else normalize(w)[0]
        out.append((path.stem, spec.groupoid, w, int(spec.params["k"])))
    for i, (_, build) in enumerate(_FAMILIES):
        for k in ORDERS:
            g, seed = build(k)
            w = random_mu_k_coboundary(rng, g, k)
            out.append((f"family{i}-k{k}", g, w if seed is None else w.mul(seed), k))
    return out + [(f"{name}-complex", g, _complex_copy(w), k) for name, g, w, k in out]


INSTANCES = _instances()
IDS = [x[0] for x in INSTANCES]
# k = 1 has no turn to make and the empty groupoid no pair, so no mutant of
# either changes a value: the product, norm and decomposition matches take these
EDGES = [
    (name, g, TwoCocycle.trivial(g), k)
    for name, g, k in (
        ("k1-trivial", symmetric_group_groupoid(3), 1),
        ("empty", empty_groupoid(), 2),
    )
]
EDGE_IDS = [x[0] for x in EDGES]


def _random_num(rng, shape, k, density):
    num = np.array([rng.choice((1, -2, 3, 5)) if rng.random() < density else 0
                    for _ in range(int(np.prod(shape)) * k)], dtype=np.int64)
    return num.reshape(shape + (k,))


def _random_complex(rng, shape, density):
    values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) if rng.random() < density else 0j
              for _ in range(int(np.prod(shape)))]
    return np.array(values, dtype=complex).reshape(shape)


def _operand_pairs(rng, ext):
    """Exact (f, g) pairs: dense, sparse, broadcast stacks, dense against
    deltas in both orders, deltas against unit deltas, mode deltas against
    each other."""
    N, k = ext.dimension, ext.k
    G = ext.groupoid

    def element(shape, density, e=0):
        return oracle.Exact(_random_num(rng, shape + (N,), k, density), e)

    fiber = list(G.source_fiber(rng.randrange(G.n_units))) if G.n_units else []
    deltas = oracle.deltas(ext, fiber)
    units = [G.unit_arrow(G.s(x)) for x in G.arrows()]
    modes = oracle.deltas(ext, rng.sample(range(N), min(N, 5)))
    yield element((), 0.9), element((), 0.9, 1)
    yield element((), 0.2, 2), element((), 0.6)
    yield element((3, 1), 0.3), element((1, 4), 0.5)
    yield element((2, 3), 0.1), element((3,), 0.7)
    yield element((), 1.0), deltas
    yield deltas, element((), 1.0)
    yield oracle.deltas(ext, G.arrows()), oracle.deltas(ext, units)
    yield modes[:, None], modes[None, :]
    yield element((2,), 0.0), element((2,), 0.5)


def assert_same_product(got, want):
    if isinstance(want, oracle.Exact):
        assert got.e == want.e
        got, want = got.num, want.num
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,g,w,k", INSTANCES + EDGES, ids=IDS + EDGE_IDS)
def test_mode_product_terms_match_the_scan(name, g, w, k):
    # scattered per (left, right) row, the terms are the scan's products of
    # every mode delta with every other, whole and one left row at a time
    ext = oracle.CyclicExtension(g, w, k)
    q, rows = mode_deltas(ext), np.arange(ext.dimension)
    want = scan_conv(ext, q[:, None], q[None, :])
    assert_same_product(scatter(ext, oracle.mode_product_terms(ext, rows)), want)
    for lo in rows:
        got = scatter(ext, oracle.mode_product_terms(ext, rows[lo : lo + 1]))
        assert_same_product(got, want[lo : lo + 1])


def _counted_product_terms(monkeypatch) -> list:
    """The number of terms of each ``mode_product_terms`` call from here on."""
    made, step = [], oracle.mode_product_terms

    def counted(e, left):
        terms = step(e, left)
        made.append(len(terms.row))
        return terms

    monkeypatch.setattr(oracle, "mode_product_terms", counted)
    return made


@pytest.mark.parametrize("entries", (None, 1))
@pytest.mark.parametrize("name,g,w,k", INSTANCES + EDGES, ids=IDS + EDGE_IDS)
def test_a_decomposition_makes_k2_product_terms_per_extension_pair(
    monkeypatch, entries, name, g, w, k
):
    # no meeting is made only to be dropped: each composable pair of
    # mu_k x_w G gives one term per (left, right) mode pair
    made = _counted_product_terms(monkeypatch)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    ext = oracle.CyclicExtension(g, w, k)
    assert cyclic_decompose(ext, skip_centers=True).ok
    assert sum(made) == k * k * len(ext.groupoid.pair_table[0])


def test_the_fixtures_make_their_product_terms(monkeypatch):
    made = _counted_product_terms(monkeypatch)
    counts = {}
    for name, g, w, k in INSTANCES:
        if name in {"cover3_cech5", "pair3_cobound", "z6_bichar"}:
            made.clear()
            assert cyclic_decompose(oracle.CyclicExtension(g, w, k), skip_centers=True).ok
            counts[name] = sum(made)
    assert counts == {"cover3_cech5": 16875, "pair3_cobound": 34992, "z6_bichar": 46656}


@pytest.mark.parametrize("name,g,w,k", INSTANCES + EDGES, ids=IDS + EDGE_IDS)
def test_delta_products_match_the_scan(name, g, w, k):
    # row x is delta_x * f on the left and f * delta_x on the right; the
    # scan adds each entry's one term into zeros, so a -0.0 part reads 0.0
    rng = random.Random(name)
    ext = oracle.CyclicExtension(g, w, k)
    d = np.eye(ext.dimension, dtype=complex)
    for shape in ((), (3,), (2, 3)):
        f = _random_complex(rng, shape + (ext.dimension,), 0.7)
        f.real[..., ::4] = -0.0
        f[..., 1::5] = complex(-0.0, -0.0)
        left, right = (oracle.delta_products(ext, f, side) for side in (True, False))
        assert_same_product(left, scan_conv(ext, d, f[..., None, :]))
        assert_same_product(right, scan_conv(ext, f[..., None, :], d))


@pytest.mark.parametrize("k", ORDERS)
def test_extensions_at_one_k_share_read_only_constants(klein, pauli, k):
    # the roots and the power basis are built once per k, so no extension
    # may write into them; the roots are CircleScalar's floats
    w = pauli if k % 2 == 0 else TwoCocycle.trivial(klein)
    first, second = oracle.CyclicExtension(klein, w, k), oracle.CyclicExtension(klein, w, k)
    assert first.roots is second.roots and first.reduction is second.reduction
    assert not first.roots.flags.writeable and not first.reduction.flags.writeable
    roots = [CircleScalar(angle=Fraction(j, k)).to_complex() for j in range(k)]
    assert first.roots.tolist() == roots


@pytest.mark.parametrize("name,g,w,k", INSTANCES + EDGES, ids=IDS + EDGE_IDS)
def test_reduced_norm_matches_the_loop(name, g, w, k):
    rng = random.Random(name)
    ext = oracle.CyclicExtension(g, w, k)
    for density in (1.0, 0.3, 0.0):
        f = _random_complex(rng, (ext.dimension,), density)
        assert oracle.reduced_norm(ext, f).hex() == loop_reduced_norm(ext, f).hex()


# acceptance test 01's seed: its first draws, in its order
TEST_01_SEED = 20260808


def _test_01_draws(count: int) -> list[tuple]:
    """(groupoid, cocycle, k, sample) of the first ``count`` draws of
    acceptance test 01, k cycling over 2, 3, 4 and 6."""
    rng, out = random.Random(TEST_01_SEED), []
    for i in range(count):
        k = ORDERS[i % len(ORDERS)]
        g, w = draw_oracle_instance(rng, k)
        out.append((g, w, k, random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))))
    return out


TEST_01_DRAWS = _test_01_draws(16)


@pytest.mark.parametrize(
    "g,w,k,F", TEST_01_DRAWS, ids=[f"{i}-k{x[2]}-{x[0].name}" for i, x in enumerate(TEST_01_DRAWS)]
)
def test_norm_agreement_matches_the_loop_bit_for_bit(g, w, k, F):
    # the golden reports print this distance to 11 digits: the one-gather
    # embedding and the per-size fibre gathers keep every bit of the loop
    ext = oracle.CyclicExtension(g, w, k)
    assert oracle_norm_deviation(F, ext) == loop_norm_deviation(F, ext)
    stack = random_laurents(random.Random(k), F.algebra, (0, k - 1), (3,))
    got = oracle_norm_deviation(stack, ext)
    assert got.shape == (3,)
    assert got.tolist() == [loop_norm_deviation(stack[i], ext) for i in range(3)]


def assert_same_decomposition(got, want):
    assert got == want
    assert got.max_residual.hex() == want.max_residual.hex()
    if want.witness is not None:
        assert got.witness.residual.hex() == want.witness.residual.hex()


@pytest.mark.parametrize("name,g,w,k", INSTANCES + EDGES, ids=IDS + EDGE_IDS)
def test_decomposition_matches_the_loop(name, g, w, k):
    ext = oracle.CyclicExtension(g, w, k)
    got = cyclic_decompose(ext, skip_centers=k > 2)
    assert got.ok
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=k > 2))


def _shift_one_twist(rng, ext):
    """The oracle's composition table with the circle exponent of every
    product over one base pair (a, b) moved by one; the graded model is
    untouched."""
    m, k = ext.base.n_arrows, ext.k
    a, b = rng.choice(sorted(ext.base.compose_table))
    Y, Z = np.nonzero(ext.compose >= 0)
    YZ = ext.compose[Y, Z]
    over = (Y % m == a) & (Z % m == b)
    ext.compose = ext.compose.copy()  # the extension groupoid's own table stays
    ext.compose[Y, Z] = np.where(over, (YZ // m + 1) % k * m + YZ % m, YZ)


@pytest.mark.parametrize("name,g,w,k", INSTANCES, ids=IDS)
def test_a_shifted_oracle_twist_fails_as_in_the_loop(name, g, w, k):
    ext = oracle.CyclicExtension(g, w, k)
    _shift_one_twist(random.Random(name), ext)
    got = cyclic_decompose(ext, skip_centers=True)
    assert not got.ok and got.witness.kind == "product"
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("name,g,w,k", INSTANCES, ids=IDS)
def test_a_changed_structure_constant_fails_as_in_the_loop(name, g, w, k):
    # one non-unit pair's value turned by e(1/k) in a cocycle installed after
    # the oracle's composition was built, so the library and the loop both
    # read it; w^0 = 1 keeps, so mode 1 fails first.  The changed cocycle
    # need not satisfy the identity, so it is not checked.
    rng = random.Random(name)
    units = set(g.unit_to_arrow)
    pair = rng.choice([p for p in sorted(g.compose_table) if not units & set(p)])
    ext = oracle.CyclicExtension(g, w, k)
    values = {p: w.value(*p) for p in g.compose_table}
    values[pair] = values[pair] * CircleScalar(angle=Fraction(1, k))
    ext.cocycle = TwoCocycle(g, values, identity_checked=True)
    got = cyclic_decompose(ext, skip_centers=True)
    assert not got.ok
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("product", (1, 1), pair)
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


COMPLEX = [x for x in INSTANCES if not x[2].is_exact]


def _turned_off_its_root(name, g, w, k, angle: float):
    """w as complex values with one non-unit pair's value turned by the
    angle, installed after the oracle was built, and the distances of that
    pair's value of w^n from its nearest k-th root, n = 0..k-1."""
    units = set(g.unit_to_arrow)
    pair = random.Random(name).choice([p for p in sorted(g.compose_table) if not units & set(p)])
    values = {p: w.value(*p).to_complex() for p in g.compose_table}
    values[pair] *= cmath.exp(1j * angle)
    turned = TwoCocycle(g, values, identity_checked=True)
    distances = [
        reference_oracle._root(sigma(TwistedAlgebra(g, turned, n), *pair), k)[1] for n in range(k)
    ]
    return turned, pair, distances


@pytest.mark.parametrize("name,g,w,k", COMPLEX, ids=[x[0] for x in COMPLEX])
def test_a_value_off_its_root_fails_as_in_the_loop(name, g, w, k):
    # 5e-10 off in mode 1: above ORACLE_TOL, and below the ROOT_TOL that the
    # oracle's build allows, so that only the comparison can catch it
    ext = oracle.CyclicExtension(g, w, k)
    ext.cocycle, pair, distances = _turned_off_its_root(name, g, w, k, 5e-10)
    assert ORACLE_TOL < distances[1] < ROOT_TOL
    got = cyclic_decompose(ext, skip_centers=True)
    assert not got.ok
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("product", (1, 1), pair)
    assert got.witness.residual == distances[1]
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("name,g,w,k", COMPLEX, ids=[x[0] for x in COMPLEX])
def test_a_value_near_its_root_passes_with_its_distance(name, g, w, k):
    # w^n turns the value n times as far, so mode k - 1 is 5e-11 off, below
    # ORACLE_TOL, and that is the largest distance of any value
    ext = oracle.CyclicExtension(g, w, k)
    ext.cocycle, _, distances = _turned_off_its_root(name, g, w, k, 5e-11 / (k - 1))
    assert max(distances) == pytest.approx(5e-11, rel=1e-3)
    got = cyclic_decompose(ext, skip_centers=True)
    assert got.ok
    assert abs(got.max_residual - max(distances)) <= 1e-15
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


def test_the_roots_are_never_read_off_the_oracle(monkeypatch):
    # the oracle builds its composition from TwoCocycle.root_exponents; the
    # certificate must take its roots from the graded values alone
    fixtures = [x for x in INSTANCES if not x[0].startswith("family")]
    assert len(fixtures) == 2 * len(list(_fixture_dir().glob("*.json")))
    exts = [oracle.CyclicExtension(g, w, k) for _, g, w, k in fixtures]

    def refused(self, k):
        raise AssertionError("the certificate read the oracle's own twist")

    monkeypatch.setattr(TwoCocycle, "root_exponents", refused)
    for ext in exts:
        assert cyclic_decompose(ext, skip_centers=True).ok


@pytest.mark.parametrize("name,g,w,k", INSTANCES, ids=IDS)
def test_a_changed_involution_fails_as_in_the_loop(monkeypatch, name, g, w, k):
    # the library reads its stars off the table of w^n and still passes; the
    # loop reads them from the changed involute and fails, so the two differ
    rng = random.Random(name)
    power, arrow = rng.randrange(k), rng.randrange(g.n_arrows)
    involute = TwistedAlgebra.involute

    def changed(self, f):
        out = involute(self, f)
        return out.scaled(-1) if (self.power, list(f.coeff)) == (power, [arrow]) else out

    monkeypatch.setattr(TwistedAlgebra, "involute", changed)
    ext = oracle.CyclicExtension(g, w, k)
    got, want = cyclic_decompose(ext, skip_centers=True), loop_decompose(ext, skip_centers=True)
    assert got.ok and not want.ok
    assert (want.witness.kind, want.witness.modes, want.witness.arrows) == (
        "star", (power,), (arrow,)
    )
    with pytest.raises(AssertionError):
        assert_same_decomposition(got, want)


@pytest.mark.parametrize("entries", (1, 700))
@pytest.mark.parametrize("name,g,w,k", INSTANCES[::9], ids=IDS[::9])
def test_stacks_cut_into_chunks_keep_the_certificate(monkeypatch, entries, name, g, w, k):
    # a budget of one entry puts one row in each chunk
    monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    ext = oracle.CyclicExtension(g, w, k)
    got = cyclic_decompose(ext, skip_centers=True)
    assert got.ok
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))
    _shift_one_twist(random.Random(name), ext)
    got = cyclic_decompose(ext, skip_centers=True)
    assert not got.ok
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


def _source_modes(e, num: np.ndarray) -> np.ndarray:
    """The mode s of each mode delta in a stack: it holds zeta^(-s) at the
    extension arrow (1, a) of its base arrow a."""
    m = e.base.n_arrows
    rows = num.reshape(-1, e.dimension, e.k)[:, m : 2 * m]
    return (-rows.any(axis=1).argmax(axis=-1) % e.k).reshape(num.shape[:-2])


def _added(terms, rows, arrow: int = 0):
    """The terms with one more, 1 at ``arrow`` in exponent 0, in each of
    the batch rows ``rows``."""
    rows = np.asarray(rows, dtype=np.intp)
    return terms._replace(
        row=np.concatenate([terms.row, rows]),
        arrow=np.concatenate([terms.arrow, np.full_like(rows, arrow)]),
        exponent=np.concatenate([terms.exponent, np.zeros_like(rows)]),
        coefficient=np.concatenate([terms.coefficient, np.ones_like(rows)]),
    )


def _spoil_projections(monkeypatch, spoiled, arrow: int = 0):
    """Spoil p_n(f) in the batch rows of f that spoiled(e, f, n) flags, flat,
    by 1 more at ``arrow`` in exponent 0: in the library as one more term
    from ``projection_terms``, in the loop reference on its gather."""
    projection_terms = oracle.projection_terms
    gather_projection = reference_oracle.gather_projection

    def terms(e, f, modes):
        out = projection_terms(e, f, modes)
        hit = np.stack([spoiled(e, f, int(n)).ravel() for n in modes], axis=-1)
        return _added(out, np.flatnonzero(hit), arrow)

    def gathered(e, f, n):
        out = gather_projection(e, f, n)
        num = out.num.reshape(-1, e.dimension, e.k).copy()
        num[spoiled(e, f, n).ravel(), arrow, 0] += 1
        return oracle.Exact(num.reshape(out.num.shape), out.e)

    monkeypatch.setattr(oracle, "projection_terms", terms)
    monkeypatch.setattr(reference_oracle, "gather_projection", gathered)


@pytest.mark.parametrize("entries", (None, 1))
@pytest.mark.parametrize("k", (3, 6))
def test_projections_fail_first_in_source_mode_order(monkeypatch, k, entries):
    # the projection onto mode 2 of the mode-0 deltas and the projection onto
    # mode 0 of the mode-1 deltas are both spoiled; the search runs over
    # (source, target, arrow), so the first is the witness
    g, _ = _FAMILIES[3][1](k)
    w = random_mu_k_coboundary(random.Random(k), g, k)
    ext = oracle.CyclicExtension(g, w, k)
    spoiled = {(0, 2), (1, 0)}

    def spoils(e, f, n):
        return np.array([(int(s), n) in spoiled for s in _source_modes(e, f.num).ravel()], bool)

    _spoil_projections(monkeypatch, spoils)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    got = cyclic_decompose(ext, skip_centers=True)
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("projection", (0, 2), (0,))
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("entries", (None, 1))
def test_projections_fail_first_in_search_order_within_a_chunk(monkeypatch, entries):
    # the projections of the mode-0 delta at arrow 0 onto mode 2 and of the
    # one at arrow 1 onto mode 1 are spoiled, in one chunk: its flat
    # (row, target) order puts (0, 2) first, the search order (source,
    # target, arrow) puts (0, 1) at arrow 1 first
    k = 3
    g, _ = _FAMILIES[3][1](k)
    ext = oracle.CyclicExtension(g, random_mu_k_coboundary(random.Random(k), g, k), k)
    spoiled = {(0, 0, 2), (0, 1, 1)}

    def spoils(e, f, n):
        labels = zip(_source_modes(e, f.num).ravel(), _source_arrows(e, f.num).ravel())
        return np.array([(int(s), int(a), n) in spoiled for s, a in labels], bool)

    _spoil_projections(monkeypatch, spoils)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    got = cyclic_decompose(ext, skip_centers=True)
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("projection", (0, 1), (1,))
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("k", range(1, 7))
def test_projection_scatter_matches_the_gather(k):
    # the scatters of the projection and star terms match the gathers on
    # the operands of the conv, all-zero rows included, on the empty
    # groupoid too, and again scaled beyond int64
    rng = random.Random(k)
    g, _ = _FAMILIES[3][1](k)
    empty = empty_groupoid()
    for ext in (
        oracle.CyclicExtension(g, random_mu_k_coboundary(rng, g, k), k),
        oracle.CyclicExtension(empty, TwoCocycle.trivial(empty), k),
    ):
        for pair in _operand_pairs(rng, ext):
            for f in pair:
                for scaled in (f, oracle.Exact(f.num * 2**61, f.e)):
                    for n in range(k):
                        got = scatter_projection(ext, scaled, n)
                        assert_same_product(got, gather_projection(ext, scaled, n))
                    assert_same_product(scatter_star(ext, scaled), gather_star(ext, scaled))


def _source_arrows(e, num: np.ndarray) -> np.ndarray:
    """The base arrow a of each mode delta in a stack: its first nonzero
    extension arrow is (0, a), which is a."""
    return num.reshape(-1, e.dimension, e.k).any(axis=-1).argmax(axis=-1).reshape(num.shape[:-2])


def _factors(e, f, h) -> list:
    """((p, a), (n, b)) for each batch row of the product of two stacks of
    mode deltas, flat: the left factor is the delta at a in mode p, the
    right one the delta at b in mode n."""
    p, n, a, b = (
        v.ravel().tolist()
        for label in (_source_modes, _source_arrows)
        for v in np.broadcast_arrays(label(e, f.num), label(e, h.num))
    )
    return list(zip(zip(p, a), zip(n, b)))


def _row_factors(e, left) -> list:
    """((p, a), (n, b)) for each batch row of ``mode_product_terms`` on the
    left mode deltas ``left``, flat: the left factor p * m + a, the right
    one n * m + b, for every right one."""
    m = e.base.n_arrows
    return [(divmod(int(x), m), divmod(y, m)) for x in left for y in range(e.dimension)]


def _spoil_products(monkeypatch, spoiled):
    """Spoil the products of mode deltas whose factors spoiled((p, a),
    (n, b)) flags by 1 more at arrow 0 in exponent 0: in the library as one
    more term from ``mode_product_terms``, in the loop reference on its scan."""
    step, scan = oracle.mode_product_terms, reference_oracle.scan_conv

    def spoiling(e, left):
        hit = [i for i, factors in enumerate(_row_factors(e, left)) if spoiled(*factors)]
        return _added(step(e, left), hit)

    def scanned(e, f, h):
        out = scan(e, f, h)
        num = out.num.reshape(-1, e.dimension, e.k).copy()
        num[[i for i, factors in enumerate(_factors(e, f, h)) if spoiled(*factors)], 0, 0] += 1
        return oracle.Exact(num.reshape(out.num.shape), out.e)

    monkeypatch.setattr(oracle, "mode_product_terms", spoiling)
    monkeypatch.setattr(reference_oracle, "scan_conv", scanned)


@pytest.mark.parametrize("entries", (None, 1))
@pytest.mark.parametrize("k", (3, 4))
def test_products_fail_first_in_right_mode_order(monkeypatch, k, entries):
    # the products of mode-0 deltas with mode-1 deltas and of mode-2 deltas
    # with mode-0 deltas each gain a term; the search runs over (n, p, a, b)
    # for the product of mode p with mode n, so (p, n) = (2, 0) comes first
    g, _ = _FAMILIES[5][1](k)
    ext = oracle.CyclicExtension(g, random_mu_k_coboundary(random.Random(k), g, k), k)
    _spoil_products(monkeypatch, lambda left, right: (left[0], right[0]) in {(0, 1), (2, 0)})
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    got = cyclic_decompose(ext, skip_centers=True)
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("product", (2, 0), (0, 0))
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("entries", (None, 1))
def test_products_keep_their_search_order_across_chunks(monkeypatch, entries):
    # the cross-mode products (p, n) = (1, 0) and (0, 1) each gain a term,
    # and so does the in-mode product of mode 2 at the last composable pair,
    # which lies in a later chunk; the search runs over (n, p, a, b), so
    # (1, 0) at (0, 0) is the witness, in the library and in the loop, with
    # one row per chunk or several
    k = 3
    g, _ = _FAMILIES[11][1](k)  # pair(3): nine arrows, so three modes fill two chunks
    ext = oracle.CyclicExtension(g, random_mu_k_coboundary(random.Random(k), g, k), k)
    a, b = max(g.compose_table)

    def spoiled(left, right) -> bool:
        return (left[0], right[0]) in {(1, 0), (0, 1)} or (left, right) == ((2, a), (2, b))

    _spoil_products(monkeypatch, spoiled)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    got = cyclic_decompose(ext, skip_centers=True)
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("product", (1, 0), (0, 0))
    assert got.witness.residual == pytest.approx(1 / k, abs=1e-12)
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


EXACT = [x for x in INSTANCES if x[2].is_exact]


@pytest.mark.parametrize("entries", (None, 1))
@pytest.mark.parametrize("name,g,w,k", EXACT[::4], ids=[x[0] for x in EXACT[::4]])
def test_a_dropped_meeting_names_its_product(monkeypatch, entries, name, g, w, k):
    # the term step loses the first term of one product of mode deltas,
    # across modes or within one, so that product alone comes out wrong, by
    # one term zeta^0 / k of modulus 1/k: that of the pair ((0, a), (0, b)),
    # the scan's first meeting, which the loop loses alike
    rng = random.Random(name)
    p, n = rng.randrange(k), rng.randrange(k)
    a, b = rng.choice(sorted(g.compose_table))
    target = ((p, a), (n, b))
    step, scan = oracle.mode_product_terms, reference_oracle.scan_conv

    def dropping(e, left):
        terms = step(e, left)
        hit = [i for i, factors in enumerate(_row_factors(e, left)) if factors == target]
        if not hit:
            return terms
        keep = np.ones(len(terms.row), dtype=bool)
        keep[np.flatnonzero(terms.row == hit[0])[0]] = False
        return terms._replace(
            row=terms.row[keep],
            arrow=terms.arrow[keep],
            exponent=terms.exponent[keep],
            coefficient=terms.coefficient[keep],
        )

    def scanned(e, f, h):
        out = scan(e, f, h)
        num = out.num.reshape(-1, e.dimension, e.k).copy()
        hit = [i for i, factors in enumerate(_factors(e, f, h)) if factors == target]
        num[hit, e.compose[a, b], 0] -= 1  # y z of y = (0, a), z = (0, b)
        return oracle.Exact(num.reshape(out.num.shape), out.e)

    monkeypatch.setattr(oracle, "mode_product_terms", dropping)
    monkeypatch.setattr(reference_oracle, "scan_conv", scanned)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    ext = oracle.CyclicExtension(g, w, k)
    got = cyclic_decompose(ext, skip_centers=True)
    assert not got.ok
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == ("product", (p, n), (a, b))
    assert got.witness.residual == pytest.approx(1 / k, abs=1e-12)
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))


@pytest.mark.parametrize("entries", (None, 1))
def test_a_spoiled_fourier_resolution_names_its_arrow(monkeypatch, entries):
    # only the projections of single extension deltas are spoiled (a mode
    # delta has k nonzero entries), at the delta of (e(1/k), a) with a = 2
    k = 3
    g, _ = _FAMILIES[3][1](k)
    ext = oracle.CyclicExtension(g, random_mu_k_coboundary(random.Random(1), g, k), k)
    target = g.n_arrows + 2  # (e(1/k), 2)

    def spoils(e, f, n):
        single = f.num.reshape(-1, e.dimension, e.k).any(axis=-1)
        return (single.sum(axis=1) == 1) & single[:, target]

    _spoil_projections(monkeypatch, spoils, target)
    if entries is not None:
        monkeypatch.setattr(oracle, "STACK_ENTRIES", entries)
    got = cyclic_decompose(ext, skip_centers=True)
    assert (got.witness.kind, got.witness.modes, got.witness.arrows) == (
        "projection", (0, 1, 2), (2,)
    )
    assert_same_decomposition(got, loop_decompose(ext, skip_centers=True))
