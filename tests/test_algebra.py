import itertools
from fractions import Fraction

import numpy as np
import pytest

from gpdext import algebra
from gpdext.algebra import AlgebraElement, AlgebraError, TwistedAlgebra
from gpdext.cocycle import OneCochain, TwoCocycle
from gpdext.groupoid import FiniteGroupoid, abelian_group_groupoid, disjoint_union, pair_groupoid
from helpers import empty_groupoid, random_element
from reference_algebra import times
from reference_ranks import stacked_faithfulness


@pytest.fixture
def pair_algebra(pair2, pair2_trivial):
    return TwistedAlgebra(pair2, pair2_trivial, 1)


@pytest.fixture
def pauli_algebra(klein, pauli):
    return TwistedAlgebra(klein, pauli, 1)


# arrow ids in pair_groupoid(2): (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
# arrow ids in the Klein group:  (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3


class TestConvolve:
    def test_matrix_units(self, pair_algebra):
        A = pair_algebra
        assert (A.delta(1) * A.delta(2)).equals(A.delta(0))

    def test_non_composable_product_vanishes(self, pair_algebra):
        A = pair_algebra
        assert (A.delta(1) * A.delta(1)).is_zero

    def test_pauli_anticommutation(self, pauli_algebra):
        P = pauli_algebra
        assert (P.delta(1) * P.delta(2)).equals(P.delta(3).scaled(-1))
        assert (P.delta(2) * P.delta(1)).equals(P.delta(3))

    def test_tag_mismatch(self, pair_algebra, pauli_algebra):
        with pytest.raises(AlgebraError):
            pair_algebra.convolve(pair_algebra.delta(0), pauli_algebra.delta(0))

    def test_associativity_exhaustive_on_delta_basis(self, pair_algebra, pauli_algebra):
        for A in (pair_algebra, pauli_algebra):
            ds = [A.delta(a) for a in A.groupoid.arrows()]
            for f, g, h in itertools.product(ds, repeat=3):
                assert ((f * g) * h).equals(f * (g * h))

    def test_associativity_random_dense(self, pauli_algebra, rng):
        for _ in range(20):
            f, g, h = (random_element(rng, pauli_algebra) for _ in range(3))
            assert ((f * g) * h).equals(f * (g * h), 1e-10)

    def test_bilinear(self, pauli_algebra, rng):
        f, g, h = (random_element(rng, pauli_algebra) for _ in range(3))
        assert ((f + g) * h).equals(f * h + g * h, 1e-10)
        assert (f * (g + h)).equals(f * g + f * h, 1e-10)


class TestInvolute:
    def test_pair_transpose(self, pair_algebra):
        assert pair_algebra.delta(1).star().equals(pair_algebra.delta(2))

    def test_pauli_self_inverse_sign(self, pauli_algebra):
        # the (1,1) delta squares to -identity, so its star is its negative
        d = pauli_algebra.delta(3)
        assert d.star().equals(d.scaled(-1))

    def test_involutive(self, pauli_algebra, rng):
        for _ in range(20):
            f = random_element(rng, pauli_algebra)
            assert f.star().star().equals(f, 1e-12)

    def test_star_antihomomorphism(self, pauli_algebra, rng):
        for _ in range(20):
            f = random_element(rng, pauli_algebra)
            g = random_element(rng, pauli_algebra)
            assert (f * g).star().equals(g.star() * f.star(), 1e-10)


class TestIdentity:
    def test_pair(self, pair_algebra):
        e = pair_algebra.identity()
        assert e.equals(pair_algebra.delta(0) + pair_algebra.delta(3))
        assert (e * pair_algebra.delta(1)).equals(pair_algebra.delta(1))

    def test_group(self, pauli_algebra):
        assert pauli_algebra.identity().equals(pauli_algebra.delta(0))

    def test_unit_law_random(self, pauli_algebra, rng):
        e = pauli_algebra.identity()
        for _ in range(20):
            f = random_element(rng, pauli_algebra)
            assert (e * f).equals(f, 1e-12) and (f * e).equals(f, 1e-12)

    def test_needs_normalized_cocycle(self, klein):
        w = TwoCocycle(klein, {p: Fraction(1, 3) for p in klein.compose_table})
        w.check_identity()
        with pytest.raises(AlgebraError):
            TwistedAlgebra(klein, w, 1)


class TestRegularRep:
    def test_matrix_unit(self, pair_algebra):
        rep = pair_algebra.regular_rep(pair_algebra.delta(2), 0)
        assert rep.basis == (0, 2)
        assert np.array_equal(rep.matrix, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_identity_matrix(self, pair_algebra):
        rep = pair_algebra.regular_rep(pair_algebra.identity(), 0)
        assert np.array_equal(rep.matrix, np.eye(2, dtype=complex))

    def test_pauli_signed_permutation(self, pauli_algebra):
        M = pauli_algebra.regular_rep(pauli_algebra.delta(1), 0).matrix
        # signed permutation squaring to the identity with signs from the twist
        expected = np.zeros((4, 4))
        signs = {0: 1, 1: 1, 2: -1, 3: -1}  # w((0,1), g) over g ids
        k4 = pauli_algebra.groupoid
        for j in range(4):
            expected[k4.compose_table[1, j], j] = signs[j]
        assert np.array_equal(M, expected)
        assert np.array_equal(M @ M, np.eye(4))

    def test_multiplicative_and_star(self, pauli_algebra, rng):
        for _ in range(10):
            f = random_element(rng, pauli_algebra)
            g = random_element(rng, pauli_algebra)
            Mf = pauli_algebra.regular_rep(f, 0).matrix
            Mg = pauli_algebra.regular_rep(g, 0).matrix
            assert np.allclose(pauli_algebra.regular_rep(f * g, 0).matrix, Mf @ Mg)
            assert np.allclose(
                pauli_algebra.regular_rep(f.star(), 0).matrix, Mf.conj().T
            )

    def test_multiplicative_at_every_unit(self, pair_algebra, rng):
        for _ in range(10):
            f = random_element(rng, pair_algebra)
            g = random_element(rng, pair_algebra)
            for u in pair_algebra.groupoid.units():
                Mf = pair_algebra.regular_rep(f, u).matrix
                Mg = pair_algebra.regular_rep(g, u).matrix
                assert np.allclose(pair_algebra.regular_rep(f * g, u).matrix, Mf @ Mg)
                assert np.allclose(
                    pair_algebra.regular_rep(f.star(), u).matrix, Mf.conj().T
                )

    def test_unknown_unit(self, pair_algebra):
        with pytest.raises(AlgebraError):
            pair_algebra.regular_rep(pair_algebra.delta(0), 7)


class TestReducedNorm:
    def test_partial_isometry(self, pair_algebra):
        rep = pair_algebra.reduced_norm(pair_algebra.delta(1) + pair_algebra.delta(2))
        assert rep.reduced_norm == pytest.approx(1.0)
        assert rep.faithful

    def test_identity_norm(self, pair_algebra, pauli_algebra):
        for A in (pair_algebra, pauli_algebra):
            assert A.reduced_norm(A.identity()).reduced_norm == pytest.approx(1.0)

    def test_projection_plus_unitary(self, pauli_algebra):
        # eigenvalues of I + M for a self-adjoint involution M are 0 and 2
        f = pauli_algebra.delta(0) + pauli_algebra.delta(1)
        M = pauli_algebra.regular_rep(f, 0).matrix
        eigs = sorted(np.linalg.eigvalsh(M))
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[-1] == pytest.approx(2.0)
        assert pauli_algebra.reduced_norm(f).reduced_norm == pytest.approx(2.0)

    def test_cstar_identity(self, pauli_algebra, pair_algebra, rng):
        for A in (pauli_algebra, pair_algebra):
            for _ in range(25):
                f = random_element(rng, A)
                n1 = A.reduced_norm(f.star() * f).reduced_norm
                n2 = A.reduced_norm(f).reduced_norm
                assert abs(n1 - n2 * n2) <= 1e-9 * max(1.0, n2 * n2)

    def test_empty_groupoid(self):
        g = empty_groupoid()
        A = TwistedAlgebra(g, TwoCocycle.trivial(g), 1)
        rep = A.reduced_norm(A.zero())
        assert rep.reduced_norm == 0.0 and rep.attained_at is None and rep.faithful


class TestFullNormCertificate:
    def test_pair_full_matrix_blocks(self, pair_algebra):
        cert = pair_algebra.full_norm_certificate()
        assert cert.faithful
        assert cert.rank == cert.dimension == 4
        # each block is all of M_2
        assert stacked_faithfulness(pair_algebra) == (4, {0: 4, 1: 4})

    def test_pauli(self, pauli_algebra):
        cert = pauli_algebra.full_norm_certificate()
        assert cert.faithful and cert.dimension == 4

    def test_commutative_case(self, klein):
        A = TwistedAlgebra(klein, TwoCocycle.trivial(klein), 1)
        assert A.full_norm_certificate().faithful
        assert A.center_dimension() == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_groupoid_realizes_full_matrix_algebra(self, n):
        g = pair_groupoid(n)
        A = TwistedAlgebra(g, TwoCocycle.trivial(g), 1)
        cert = A.full_norm_certificate()
        rank, per_unit_rank = stacked_faithfulness(A)
        assert cert.rank == rank
        assert per_unit_rank[0] == n * n


class TestCenters:
    def test_pauli_center_is_scalars(self, pauli_algebra):
        assert pauli_algebra.center_dimension() == 1

    def test_untwisted_klein_is_commutative(self, klein, pauli):
        assert TwistedAlgebra(klein, pauli, 0).center_dimension() == 4

    def test_pair_groupoid_center(self, pair_algebra):
        # the pair groupoid algebra is a full matrix algebra
        assert pair_algebra.center_dimension() == 1

    def test_second_call_is_cached(self, pauli_algebra, monkeypatch):
        calls = []
        orbit_units = algebra.orbit_units

        def counted(*args, **kwargs):
            calls.append(1)
            return orbit_units(*args, **kwargs)

        monkeypatch.setattr(algebra, "orbit_units", counted)
        assert pauli_algebra.center_dimension() == 1
        assert len(calls) == 1
        assert pauli_algebra.center_dimension() == 1
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "g, dimension, orbits",
        [
            (pair_groupoid(3), 1, 1),
            (disjoint_union(pair_groupoid(2), abelian_group_groupoid((2, 2))), 5, 2),
        ],
        ids=["pair3", "pair2+klein"],
    )
    def test_one_isotropy_group_per_orbit(self, g, dimension, orbits, monkeypatch):
        alg = TwistedAlgebra(g, TwoCocycle.trivial(g), 1)
        calls = []
        isotropy = FiniteGroupoid.isotropy

        def counted(self, u):
            calls.append(u)
            return isotropy(self, u)

        monkeypatch.setattr(FiniteGroupoid, "isotropy", counted)
        assert alg.center_dimension() == dimension
        assert len(calls) == orbits


def cocycle_change_isomorphism(alg_src: TwistedAlgebra, alg_dst: TwistedAlgebra, b) -> bool:
    """Verify on structure constants that f -> b.f is a *-isomorphism from
    C(G, w) onto C(G, w * conj(coboundary(b))), for a cochain b that is 1 on
    unit arrows.  This witnesses that the algebra depends on the cocycle only
    through its cohomology class."""
    G = alg_src.groupoid
    assert alg_dst.groupoid is G

    def T(f: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(alg_dst, {a: times(b.value(a), c) for a, c in f.coeff.items()})

    for x in G.arrows():
        dx = alg_src.delta(x)
        if not T(dx.star()).equals(T(dx).star(), tol=1e-10):
            return False
        for y in G.arrows():
            dy = alg_src.delta(y)
            if not T(dx * dy).equals(T(dx) * T(dy), tol=1e-10):
                return False
    return True


class TestCocycleClassInvariance:
    def test_twisting_by_coboundary(self, pair2, pair2_trivial, rng):
        for _ in range(10):
            b = OneCochain(
                pair2,
                {
                    a: Fraction(rng.randrange(8), 8)
                    for a in pair2.arrows()
                    if a not in pair2.unit_to_arrow
                },
            )
            w2 = pair2_trivial.mul(b.coboundary().conj())
            assert w2.check_identity().ok
            src = TwistedAlgebra(pair2, pair2_trivial, 1)
            dst = TwistedAlgebra(pair2, w2, 1)
            assert cocycle_change_isomorphism(src, dst, b)

    def test_pauli_shifted_by_coboundary(self, klein, pauli, rng):
        b = OneCochain(klein, {a: Fraction(rng.randrange(4), 4) for a in (1, 2, 3)})
        w2 = pauli.mul(b.coboundary().conj())
        assert w2.check_identity().ok
        src = TwistedAlgebra(klein, pauli, 1)
        dst = TwistedAlgebra(klein, w2, 1)
        assert cocycle_change_isomorphism(src, dst, b)
        # the shifted algebra is still the 2x2 matrix algebra
        assert dst.center_dimension() == 1

    def test_numeric_cochain_is_compared_within_tolerance(self, pair2, pair2_trivial):
        # an exact source cocycle twisted by a numeric cochain: products and
        # stars agree only up to rounding, which must not count as a mismatch
        b = OneCochain(pair2, {1: complex(np.exp(0.7j)), 2: complex(np.exp(0.3j))})
        w2 = pair2_trivial.mul(b.coboundary().conj())
        assert w2.check_identity().ok
        src = TwistedAlgebra(pair2, pair2_trivial, 1)
        dst = TwistedAlgebra(pair2, w2, 1)
        assert cocycle_change_isomorphism(src, dst, b)
