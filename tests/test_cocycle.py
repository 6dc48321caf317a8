import cmath
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdext.algebra import TwistedAlgebra
from gpdext.cli import _fixture_dir, load_spec
from gpdext.exact import CircleScalar
from gpdext.cocycle import (
    CocycleError,
    ExactnessError,
    IsotropyObstruction,
    OneCochain,
    TwoCocycle,
    bicharacter_cocycle,
    normalize,
    solve_coboundary,
    trivialize_principal,
)
from gpdext.groupoid import (
    abelian_group_groupoid,
    cyclic_group_groupoid,
    pair_groupoid,
)
from gpdext.randgen import _FAMILIES, random_mu_k_coboundary
from helpers import CechDataError, cech_cocycle, random_exact_cochain, random_principal_groupoid
from reference_algebra import sigma
from reference_cocycle import loop_check_identity, root_values

angles = st.fractions(min_value=0, max_value=1, max_denominator=12).map(lambda a: a % 1)


class TestCheckIdentity:
    def test_trivial_cocycle(self):
        w = TwoCocycle.trivial(pair_groupoid(3))
        assert w.check_identity().ok

    def test_sign_bicharacter_against_brute_force(self, klein, pauli):
        # independent oracle: evaluate (-1)^(b*c) on both sides of the identity
        coords = [(0, 0), (0, 1), (1, 0), (1, 1)]

        def wf(a, b):
            return -1 if (coords[a][1] * coords[b][0]) % 2 else 1

        for a, b, c in itertools.product(range(4), repeat=3):
            ab, bc = klein.compose_table[a, b], klein.compose_table[b, c]
            assert wf(a, b) * wf(ab, c) == wf(b, c) * wf(a, bc)
        assert pauli.check_identity().ok
        for a, b in klein.compose_table:
            assert pauli.value(a, b).to_complex().real == pytest.approx(wf(a, b))

    def test_single_negated_value_is_caught(self, klein, pauli):
        vals = {p: pauli.value(*p) for p in klein.compose_table}
        vals[(1, 2)] = vals[(1, 2)] * CircleScalar(angle=Fraction(1, 2))
        bad = TwoCocycle(klein, vals)
        rep = bad.check_identity()
        assert not rep.ok
        assert all(v.rule == "cocycle-identity" for v in rep.violations)

    def test_an_unchecked_failing_cocycle_is_refused_with_its_summary(self, klein, pauli):
        # w(a, b) = e(a^2 b / 5) on Z/5 misses the identity by e(2abc / 5),
        # on the 64 triples with abc != 0; the summary lists the first 20
        z5 = cyclic_group_groupoid(5)
        w = TwoCocycle(z5, {(a, b): Fraction(a * a * b, 5) for a, b in z5.compose_table})
        summary = w.check_identity().summary()
        lines = summary.splitlines()
        assert lines[0] == "cocycle on Z5: 64 violation(s)"
        assert len(lines) == 22 and lines[-1] == "  ... and 44 more"
        with pytest.raises(CocycleError) as refused:
            TwistedAlgebra(z5, w, 1)
        assert str(refused.value) == f"twisted algebra: cocycle identity fails; {summary}"
        # ten violations are all listed; a cocycle that holds reads ok
        vals = {p: pauli.value(*p) for p in klein.compose_table}
        vals[(1, 2)] = vals[(1, 2)] * CircleScalar(angle=Fraction(1, 4))
        lines = TwoCocycle(klein, vals).check_identity().summary().splitlines()
        assert len(lines) == 11 and lines[0] == "cocycle on Z2xZ2: 10 violation(s)"
        assert TwoCocycle.trivial(z5).check_identity().summary() == "cocycle on Z5: ok"


def _identity_cases():
    """(name, cocycle, k): every bundled fixture's cocycle and every
    randgen family's cocycle (a random mu_k coboundary times the family's
    seed cocycle, as drawn for test 01), at k = 2, 3, 4, 6."""
    rng = random.Random(11)
    specs = [load_spec(None, path.stem) for path in sorted(_fixture_dir().glob("*.json"))]
    for k in (2, 3, 4, 6):
        for spec, source in specs:
            yield f"{source} k={k}", spec.cocycle_or_trivial(), k
        for i, (_, family) in enumerate(_FAMILIES):
            g, seed_cocycle = family(k)
            w = random_mu_k_coboundary(rng, g, k)
            if seed_cocycle is not None:
                w = w.mul(seed_cocycle)
            yield f"family {i} ({g.name}) k={k}", w, k


def _mutant(w, rng: random.Random, factor) -> TwoCocycle:
    """w with its value at one seeded non-unit pair multiplied by factor."""
    g = w.base
    units = set(g.unit_to_arrow)
    pair = rng.choice(sorted(p for p in g.compose_table if not units & set(p)))
    values = {p: w.value(*p) for p in g.compose_table}
    values[pair] = values[pair] * CircleScalar.coerce(factor)
    return TwoCocycle(g, values)


def _complex_copy(w) -> TwoCocycle:
    return TwoCocycle(w.base, {p: v.to_complex() for p, v in w.values.items()})


def _assert_same_report(w):
    got, want = w.check_identity(), loop_check_identity(w)
    assert got.subject == want.subject
    assert got.violations == want.violations


class TestCheckIdentityAgainstLoop:
    # check_identity reports exactly the violations of the per-triple loop,
    # with the same witnesses and messages, in the same order.  On Z2 the
    # only non-unit pair sits on both sides of every triple it enters, so
    # some mutants are still cocycles; the reports agree all the same.
    @pytest.mark.parametrize("case", list(_identity_cases()), ids=lambda case: case[0])
    def test_root_mutants(self, case):
        name, w, k = case
        mutant = _mutant(w, random.Random(name), Fraction(1, k))
        _assert_same_report(w)
        _assert_same_report(mutant)
        _assert_same_report(_complex_copy(w))
        _assert_same_report(_complex_copy(mutant))

    def test_numeric_mutants_at_the_tolerance(self, pauli):
        # |exp(i eps) - 1| is eps to within eps^3 / 24, so a triple through
        # the mutated pair once lands 1e-12 inside or outside the 1e-10
        # tolerance
        inside = _mutant(_complex_copy(pauli), random.Random(1), cmath.exp(0.99e-10j))
        outside = _mutant(_complex_copy(pauli), random.Random(1), cmath.exp(1.01e-10j))
        _assert_same_report(inside)
        _assert_same_report(outside)
        assert not outside.check_identity().ok
        assert len(inside.check_identity().violations) < len(outside.check_identity().violations)


class TestLargeConductors:
    # angle tables over a conductor of 2**31 or more hold Python ints, so
    # that sums and products of angles never wrap around int64

    def test_identity_and_powers_stay_exact(self):
        p = 2**61 - 1  # prime
        z3 = cyclic_group_groupoid(3)
        w = TwoCocycle(z3, {(1, 1): Fraction(1, p)})
        assert w.conductor == p
        _assert_same_report(w)
        assert not w.check_identity().ok
        z2 = cyclic_group_groupoid(2)
        w = TwoCocycle(z2, {(1, 1): Fraction(p - 1, p)})
        assert w.check_identity().ok and w.normalized
        assert sigma(TwistedAlgebra(z2, w, p), 1, 1).is_one()
        assert sigma(TwistedAlgebra(z2, w, -1), 1, 1).angle == Fraction(1, p)
        assert w.mul(w.conj()).pointwise_equal(TwoCocycle.trivial(z2))

    def test_product_over_a_large_common_conductor(self):
        # an int64 table brought over a conductor beyond int64
        p = 2**89 - 1  # prime
        z2 = cyclic_group_groupoid(2)
        u = TwoCocycle(z2, {(1, 1): Fraction(1, 3)})
        v = TwoCocycle(z2, {(1, 1): Fraction(1, p)})
        uv = u.mul(v)
        assert uv.conductor == 3 * p and uv.value(1, 1).angle == Fraction(1, 3) + Fraction(1, p)
        assert not uv.pointwise_equal(u) and uv.mul(v.conj()).pointwise_equal(u)


class TestNormalize:
    def test_each_side_of_the_unit_pairs_is_read(self, pair2):
        # arrow 1 is (0,1), with range unit arrow 0 and source unit arrow 3
        for pair in ((0, 1), (1, 3)):
            w = TwoCocycle(pair2, {pair: Fraction(1, 2)})
            assert not w.normalized
            assert not _complex_copy(w).normalized

    def test_the_table_is_read_only_and_normalized_is_decided_once(self, pair2):
        for w in (TwoCocycle(pair2, {(0, 1): Fraction(1, 2)}), TwoCocycle(pair2, {(0, 1): 1j})):
            with pytest.raises(ValueError):
                w.table[0, 1] = 0
            assert not w.normalized
            assert w.__dict__["normalized"] is False

    def test_already_normalized_gives_unit_cochain(self, pauli):
        w2, b = normalize(pauli)
        assert not b.values  # identically 1
        assert w2.pointwise_equal(pauli)

    def test_constant_third_on_z2(self):
        z2 = cyclic_group_groupoid(2)
        w = TwoCocycle(z2, {p: Fraction(1, 3) for p in z2.compose_table})
        assert w.check_identity().ok
        assert not w.normalized
        w2, b = normalize(w)
        assert w2.normalized and w2.check_identity().ok
        e = z2.unit_arrow(0)
        for g in z2.arrows():
            assert w2.value(e, g).is_one()
            assert b.value(g).angle == Fraction(1, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 5))
    def test_random_cocycles_normalize(self, seed, q):
        # arbitrary cochain coboundaries (non-unit on units) satisfy the
        # identity but are not normalized; normalize must fix that
        rng = random.Random(seed)
        g = pair_groupoid(2)
        b = OneCochain(g, {a: Fraction(rng.randrange(q), q) for a in g.arrows()})
        w = b.coboundary()
        w2, _ = normalize(w)
        assert w2.normalized
        assert w2.check_identity().ok

    def test_normalize_idempotent(self, rng):
        g = pair_groupoid(2)
        b = OneCochain(g, {a: Fraction(rng.randrange(8), 8) for a in g.arrows()})
        w = b.coboundary()
        w1, _ = normalize(w)
        w2, c = normalize(w1)
        assert w2.pointwise_equal(w1)
        assert not c.values


class TestPower:
    # the n-th power of a cocycle is read through the twisting values
    # sigma = w^n, off the table of C(G, w^n), the one place the program
    # takes powers

    def test_zeroth_power_trivial(self, pauli):
        p0 = TwistedAlgebra(pauli.base, pauli, 0)
        assert all(sigma(p0, *p).is_one() for p in pauli.base.compose_table)

    def test_power_is_read_modulo_the_conductor(self, pauli):
        # the exponent is reduced first, so a huge power does not wrap int64
        huge = TwistedAlgebra(pauli.base, pauli, 2**64 + 1)
        assert all(sigma(huge, *p) == pauli.value(*p) for p in pauli.base.compose_table)

    def test_signs_square_away(self, pauli):
        p2 = TwistedAlgebra(pauli.base, pauli, 2)
        assert all(sigma(p2, *p).is_one() for p in pauli.base.compose_table)

    def test_root_order(self):
        # normalized, so the twisted algebra accepts it: e(2/5) on the one
        # pair of non-unit arrows
        z2 = cyclic_group_groupoid(2)
        w = TwoCocycle(z2, {(1, 1): Fraction(2, 5)})
        w.check_identity()
        p5 = TwistedAlgebra(z2, w, 5)
        assert all(sigma(p5, *p).is_one() for p in z2.compose_table)

    def test_power_additive(self, pauli):
        powers = {n: TwistedAlgebra(pauli.base, pauli, n) for n in range(-4, 5)}
        for m, n in itertools.product(range(-2, 3), repeat=2):
            pm, pn, pmn = powers[m], powers[n], powers[m + n]
            for p in pauli.base.compose_table:
                assert (sigma(pm, *p) * sigma(pn, *p)).angle == sigma(pmn, *p).angle


    @pytest.mark.parametrize("n", range(-3, 5))
    def test_numeric_power_table_is_the_entrywise_power(self, n):
        # the array power against Python's, value by value: both take w^n of
        # unit-modulus values, a few roundings apart at most
        g = pair_groupoid(5)
        exact = random_mu_k_coboundary(random.Random(n), g, 6)
        w = TwoCocycle(g, {p: v.to_complex() for p, v in exact.values.items()})
        want = [[z**n for z in row] for row in w.table.tolist()]
        assert abs(w.power_table(n) - want).max() <= 8 * n * n * 2.0**-52


class TestCoboundary:
    def test_unit_cochain(self):
        g = pair_groupoid(2)
        assert all(
            OneCochain(g, {}).coboundary().value(*p).is_one() for p in g.compose_table
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(angles, min_size=4, max_size=4))
    def test_coboundaries_satisfy_identity(self, vals):
        g = pair_groupoid(2)
        b = OneCochain(g, dict(enumerate(vals)))
        assert b.coboundary().check_identity().ok

    def test_constant_quarter_on_z2(self):
        # b constant at angle 1/4: db(g,h) = b(g)b(h)conj(b(gh)) = b-value
        z2 = cyclic_group_groupoid(2)
        b = OneCochain(z2, {0: Fraction(1, 4), 1: Fraction(1, 4)})
        db = b.coboundary()
        e = z2.unit_arrow(0)
        assert db.value(1, 1).angle == Fraction(1, 4)  # b(g)^2 conj(b(e))
        assert db.value(e, e).angle == Fraction(1, 4)


class TestTrivializePrincipal:
    def test_trivial_cocycle(self):
        g = pair_groupoid(3)
        b = trivialize_principal(TwoCocycle.trivial(g))
        assert b.coboundary().pointwise_equal(TwoCocycle.trivial(g))

    def test_random_exact_cocycles_reproduced(self, rng):
        for _ in range(25):
            g = pair_groupoid(3)
            w = random_exact_cochain(rng, g).coboundary()
            b = trivialize_principal(w)
            assert b.coboundary().pointwise_equal(w)

    def test_multi_orbit(self, rng):
        g = random_principal_groupoid(rng)
        w = random_exact_cochain(rng, g).coboundary()
        b = trivialize_principal(w)
        assert b.coboundary().pointwise_equal(w)

    def test_isotropy_obstruction(self):
        z2 = cyclic_group_groupoid(2)
        with pytest.raises(IsotropyObstruction) as exc:
            trivialize_principal(TwoCocycle.trivial(z2))
        assert exc.value.arrow == 1

    def test_approximate_angles_within_tolerance(self, rng):
        import cmath

        g = pair_groupoid(3)
        b = OneCochain(
            g,
            {
                a: CircleScalar(z=cmath.exp(1j * rng.uniform(0, 6.28)))
                for a in g.arrows()
                if a not in g.unit_to_arrow
            },
        )
        w = b.coboundary()
        assert not w.is_exact
        assert w.check_identity().ok
        bb = trivialize_principal(w)
        assert bb.coboundary().pointwise_equal(w)

    def test_cech_cocycle_agrees_with_linear_solver(self):
        w = _cech_fifth_root()
        b1 = trivialize_principal(w)
        b2 = solve_coboundary(w)
        assert b2 is not None
        assert b1.coboundary().pointwise_equal(w)
        assert b2.coboundary().pointwise_equal(w)
        # the two trivializations differ by a closed cochain
        g = w.base
        ratio = OneCochain(
            g, {a: b1.value(a) * CircleScalar(angle=-b2.value(a).angle) for a in g.arrows()}
        )
        assert all(
            ratio.coboundary().value(*p).is_one() for p in w.base.compose_table
        )


def _cech_fifth_root():
    def mu(i, j):
        if (i, j) == (0, 1):
            return Fraction(1, 5)
        if (i, j) == (1, 0):
            return Fraction(4, 5)
        return Fraction(0)

    def lam(i, j, k, x):
        return CircleScalar(angle=mu(j, k) - mu(i, k) + mu(i, j))

    return cech_cocycle(["x"], [{"x"}, {"x"}, {"x"}], lam)


class TestCechCocycle:
    def test_unit_data(self):
        w = cech_cocycle(["x"], [{"x"}, {"x"}], lambda i, j, k, x: 1)
        assert all(w.value(*p).is_one() for p in w.base.compose_table)

    def test_fifth_root_coboundary_data_passes(self):
        w = _cech_fifth_root()
        assert w.base.n_arrows == 9
        assert w.check_identity().ok
        assert any(v.angle == Fraction(1, 5) for v in w.values.values())

    def test_non_cocycle_data_caught(self):
        lam = {
            (i, j, k, "x"): CircleScalar.one()
            for i, j, k in itertools.product(range(2), repeat=3)
        }
        lam[(0, 1, 0, "x")] = CircleScalar(angle=Fraction(1, 3))
        w = cech_cocycle(["x"], [{"x"}, {"x"}], lam)
        assert not w.check_identity().ok

    def test_missing_overlap_value(self):
        with pytest.raises(CechDataError) as exc:
            cech_cocycle(["x"], [{"x"}, {"x"}], {})
        assert "x" in str(exc.value)


class TestSolveCoboundary:
    def test_trivial(self):
        g = pair_groupoid(3)
        b = solve_coboundary(TwoCocycle.trivial(g))
        assert b is not None

    def test_round_trip(self, rng):
        for _ in range(20):
            g = random_principal_groupoid(rng)
            w = random_exact_cochain(rng, g).coboundary()
            b = solve_coboundary(w)
            assert b is not None
            assert b.coboundary().pointwise_equal(w)

    def test_group_coboundary_round_trip(self, rng):
        z4 = cyclic_group_groupoid(4)
        w = random_exact_cochain(rng, z4).coboundary()
        b = solve_coboundary(w)
        assert b is not None and b.coboundary().pointwise_equal(w)

    def test_pauli_is_not_a_coboundary(self, klein, pauli):
        assert solve_coboundary(pauli) is None
        # independent oracle at this size: exhaust all mu_4-valued cochains
        roots = [Fraction(j, 4) for j in range(4)]
        for combo in itertools.product(roots, repeat=4):
            b = OneCochain(klein, dict(enumerate(combo)))
            if b.coboundary().pointwise_equal(pauli):
                pytest.fail(f"unexpected trivialization {combo}")

    def test_requires_exact(self, klein, pauli):
        import cmath

        w = TwoCocycle(
            klein,
            {p: CircleScalar(z=pauli.value(*p).to_complex()) for p in klein.compose_table},
        )
        w.check_identity()
        assert not w.is_exact
        with pytest.raises(ExactnessError):
            solve_coboundary(w)


class TestBicharacter:
    def test_klein_matches_pauli(self, klein, pauli):
        w = bicharacter_cocycle(klein, (2, 2), 2)
        assert w.pointwise_equal(pauli)

    def test_mixed_orders(self):
        g = abelian_group_groupoid((2, 4))
        w = bicharacter_cocycle(g, (2, 4), 4)
        assert w.check_identity().ok and w.normalized

    def test_z6(self):
        z6 = cyclic_group_groupoid(6)
        w = bicharacter_cocycle(z6, (6,), 6)
        assert w.check_identity().ok and w.normalized
        assert any(v.angle.denominator == 6 for v in w.values.values())


def test_cocycle_value_on_non_composable_pair_rejected():
    g = pair_groupoid(2)
    with pytest.raises(CocycleError):
        TwoCocycle(g, {(1, 1): Fraction(1, 2)})  # (0,1) does not follow itself


def _twist_cases():
    """(name, cocycle): every bundled fixture's cocycle and its complex copy,
    every randgen family at k = 2, 3, 4, 6 (a mu_k coboundary times the
    family's own cocycle), and Z3 over conductors at, just above and far
    above its nine composable pairs."""
    for path in sorted(_fixture_dir().glob("*.json")):
        w = load_spec(None, path.stem)[0].cocycle_or_trivial()
        yield path.stem, w
        numeric = {p: v.to_complex() for p, v in w.values.items()}
        yield f"{path.stem}-complex", TwoCocycle(w.base, numeric)
    for i, (_, build) in enumerate(_FAMILIES):
        for k in (2, 3, 4, 6):
            g, seed = build(k)
            w = random_mu_k_coboundary(random.Random(f"{i}-{k}"), g, k)
            yield f"family{i}-k{k}", w if seed is None else w.mul(seed)
    z3 = cyclic_group_groupoid(3)
    for n in (9, 10, 2**61 - 1):
        w = TwoCocycle(z3, {(1, 1): Fraction(1, n), (2, 2): Fraction(2, 3)})
        yield f"Z3-conductor-{w.conductor}", w


TWIST_CASES = list(_twist_cases())


@pytest.mark.parametrize("name,w", TWIST_CASES, ids=[name for name, _ in TWIST_CASES])
def test_stacked_twist_tables_match_the_per_mode_ones(name, w):
    # one gather from the table of roots (or one value per distinct angle,
    # over a conductor above the pair count) gives every mode's table as the
    # per-mode reference gives it, bit for bit; numeric ones are the powers
    modes = range(-3, 7)
    got = w.twists(modes)
    assert got.shape == (len(modes), w.base.n_arrows, w.base.n_arrows)
    for n, table in zip(modes, got):
        if w.is_exact:
            want = root_values(w.power_table(n), w.conductor)
        else:
            want = w.table**n
        assert table.dtype == want.dtype == complex and table.tobytes() == want.tobytes()
    pairs = len(w.base.pair_table[0])
    assert (w.roots is None) == (not w.is_exact or w.conductor > pairs)
