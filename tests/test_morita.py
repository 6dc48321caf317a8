import numpy as np
import pytest

from gpdext.algebra import TwistedAlgebra
from gpdext.cocycle import TwoCocycle
from gpdext.groupoid import (
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    pair_groupoid,
)
from gpdext.morita import (
    BimoduleElement,
    MoritaError,
    fixed_point_algebra,
    fullness_check,
    left_inner,
    positivity_check,
    saturation_report,
)
from gpdext.randgen import random_bimodule, random_mu_k_coboundary


@pytest.fixture
def pair_untwisted(pair2, pair2_trivial):
    return TwistedAlgebra(pair2, pair2_trivial, 0)


class TestLeftInner:
    def test_unit_deltas_give_matrix_units(self, pair2, pair_untwisted):
        f = BimoduleElement.delta(pair2, 0)
        g = BimoduleElement.delta(pair2, 1)
        assert left_inner(f, g, pair_untwisted).equals(pair_untwisted.delta(1))

    def test_diagonal_is_projection(self, pair2, pair_untwisted):
        f = BimoduleElement.delta(pair2, 0)
        p = left_inner(f, f, pair_untwisted)
        assert p.equals(pair_untwisted.delta(0))
        assert (p * p).equals(p)

    def test_hermitian_symmetry(self, pair2, pair_untwisted, rng):
        for _ in range(20):
            f = random_bimodule(rng, pair2)
            g = random_bimodule(rng, pair2)
            assert left_inner(f, g, pair_untwisted).star().equals(
                left_inner(g, f, pair_untwisted), 1e-12
            )

    def test_requires_untwisted_tag(self, pair2, pair2_trivial):
        twisted = TwistedAlgebra(pair2, pair2_trivial, 1)
        f = BimoduleElement.delta(pair2, 0)
        with pytest.raises(MoritaError):
            left_inner(f, f, twisted)

    def test_requires_principal(self):
        z2 = cyclic_group_groupoid(2)
        alg = TwistedAlgebra(z2, TwoCocycle.trivial(z2), 0)
        f = BimoduleElement.delta(z2, 0)
        with pytest.raises(MoritaError, match="hypotheses not met"):
            left_inner(f, f, alg)


class TestPositivity:
    def test_delta(self, pair2):
        assert positivity_check(BimoduleElement.delta(pair2, 0))

    def test_random(self, pair2, rng):
        for _ in range(30):
            assert positivity_check(random_bimodule(rng, pair2))

    def test_zero(self, pair2):
        assert positivity_check(BimoduleElement(pair2, {}))

    def test_gram_matrix_is_rank_one(self, pair2, rng):
        # the regular matrices of <f,f> are v v*, hence PSD of rank <= 1
        alg = TwistedAlgebra(pair2, TwoCocycle.trivial(pair2), 0)
        f = random_bimodule(rng, pair2)
        x = left_inner(f, f, alg)
        for u in pair2.units():
            m = alg.regular_rep(x, u).matrix
            assert np.linalg.matrix_rank(m) <= 1
            assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -1e-12


class TestFullness:
    def test_pair_groupoid(self, pair2):
        cert = fullness_check(pair2)
        assert cert.full
        assert cert.ideal_dimension == 4 and cert.algebra_dimension == 4
        assert cert.orbit_count == 1

    def test_disjoint_union_full_on_each_block(self):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(1))
        cert = fullness_check(g)
        assert cert.full and cert.ideal_dimension == 5 and cert.orbit_count == 2

    def test_cover_groupoid(self):
        g = cover_groupoid([1, 2], [{1, 2}, {1}])
        cert = fullness_check(g)
        assert cert.full and cert.algebra_dimension == 5

    def test_group_rejected(self):
        with pytest.raises(MoritaError):
            fullness_check(cyclic_group_groupoid(2))


class TestFixedPointAlgebra:
    def test_single_orbit(self):
        assert fixed_point_algebra(pair_groupoid(3)).dimension == 1

    def test_two_orbits(self):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(2))
        assert fixed_point_algebra(g).dimension == 2

    def test_cover_single_point(self):
        g = cover_groupoid(["x"], [{"x"}, {"x"}, {"x"}])
        assert fixed_point_algebra(g).dimension == 1

    def test_pointwise_product(self):
        fpa = fixed_point_algebra(disjoint_union(pair_groupoid(2), pair_groupoid(1)))
        assert fpa.multiply({0: 2.0, 1: 3.0}, {0: 5.0}) == {0: 10.0}


class TestSaturation:
    def test_trivial_cocycle(self, pair2, pair2_trivial, rng):
        pairs = [(random_bimodule(rng, pair2), random_bimodule(rng, pair2)) for _ in range(10)]
        rep = saturation_report(pair2, pair2_trivial, 2, pairs)
        assert rep.mode_zero_ok
        assert rep.not_saturated
        assert rep.ideal_dimension == 4
        assert rep.nonzero_mode_leakage <= 1e-12

    def test_trivial_extension_is_saturated(self, pair2, pair2_trivial, rng):
        # at k = 1 the extension is G itself: the ideal fills all of it
        pairs = [(random_bimodule(rng, pair2), random_bimodule(rng, pair2))]
        rep = saturation_report(pair2, pair2_trivial, 1, pairs)
        assert rep.ideal_dimension == rep.k * pair2.n_arrows == 4
        assert not rep.not_saturated

    def test_twisted_cocycle(self, rng):
        g = pair_groupoid(2)
        w = random_mu_k_coboundary(rng, g, 3)
        pairs = [(random_bimodule(rng, g), random_bimodule(rng, g)) for _ in range(10)]
        rep = saturation_report(g, w, 3, pairs)
        assert rep.mode_zero_ok and rep.not_saturated
        assert rep.ideal_dimension == 4
        # the whole extension algebra is strictly bigger
        assert rep.k * g.n_arrows == 12
