import random

import numpy as np
import pytest

from gpdext import cyclic_oracle as oracle
from gpdext import morita
from gpdext.algebra import TwistedAlgebra
from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import TwoCocycle, normalize
from gpdext.groupoid import (
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    is_principal,
    orbit_decomposition,
    pair_groupoid,
)
from gpdext.morita import (
    BimoduleElement,
    MoritaError,
    fullness_check,
    left_inner,
    positivity_check,
    saturation_report,
)
from gpdext.randgen import random_bimodule, random_mu_k_coboundary

from reference_ranks import (
    graded_fullness_dimension,
    oracle_closure_dimension,
    unit_pair_lifts,
)


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
        assert positivity_check(pair2, [BimoduleElement.delta(pair2, 0)])

    def test_random(self, pair2, rng):
        assert positivity_check(pair2, [random_bimodule(rng, pair2) for _ in range(30)])

    def test_zero(self, pair2):
        assert positivity_check(pair2, [BimoduleElement(pair2, {})])

    def test_one_algebra_serves_every_sample(self, pair2, rng, monkeypatch):
        built = []
        init = TwistedAlgebra.__init__
        monkeypatch.setattr(
            TwistedAlgebra, "__init__", lambda self, *args: built.append(args) or init(self, *args)
        )
        assert positivity_check(pair2, [random_bimodule(rng, pair2) for _ in range(10)])
        assert len(built) == 1

    def test_one_negative_sample_fails_the_batch(self, pair2, rng, monkeypatch):
        samples = [random_bimodule(rng, pair2) for _ in range(5)]
        inner = morita.left_inner

        def negated(f, g, algebra):
            x = inner(f, g, algebra)
            return x.scaled(-1) if f is samples[3] else x

        monkeypatch.setattr(morita, "left_inner", negated)
        assert not positivity_check(pair2, samples)
        assert positivity_check(pair2, samples[:3])

    def test_a_negative_sample_at_the_unit_of_the_smaller_fibre_fails(self, rng, monkeypatch):
        # pair(2)+pair(1) has fibres of sizes 2 and 1, so the matrices come
        # in two gathers; <f, f> of the delta at the pair(1) unit, negated,
        # is nonzero only at that unit
        g = disjoint_union(pair_groupoid(2), pair_groupoid(1))
        samples = [random_bimodule(rng, g) for _ in range(4)]
        lone = BimoduleElement.delta(g, 2, 1.5)
        inner = morita.left_inner

        def negated(f, h, algebra):
            x = inner(f, h, algebra)
            return x.scaled(-1) if f is lone else x

        monkeypatch.setattr(morita, "left_inner", negated)
        assert positivity_check(g, samples) and positivity_check(g, [])
        assert not positivity_check(g, samples + [lone])
        assert not positivity_check(g, [lone])

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


def _principal_fixtures():
    params = []
    for path in sorted(_fixture_dir().glob("*.json")):
        spec, _ = load_spec(None, path.stem)
        if is_principal(spec.groupoid):
            params.append(pytest.param(spec, id=path.stem))
    return params


SMALL_PRINCIPAL = {
    "pair2": lambda: pair_groupoid(2),
    "pair3": lambda: pair_groupoid(3),
    "cover": lambda: cover_groupoid([1, 2], [{1, 2}, {1}]),
    "pair2+pair1": lambda: disjoint_union(pair_groupoid(2), pair_groupoid(1)),
    "pair2+pair3": lambda: disjoint_union(pair_groupoid(2), pair_groupoid(3)),
}


class TestIdealReference:
    """Both Morita ideals against the closure loop, and fullness against the
    graded model's products as well."""

    def _check(self, g, w, k):
        ext = oracle.CyclicExtension(g, w, k)
        expected = oracle_closure_dimension(ext, unit_pair_lifts(ext))
        assert oracle.ideal_dimension(ext, unit_pair_lifts(ext)) == expected
        assert saturation_report(g, w, k, []).ideal_dimension == expected
        return expected

    @pytest.mark.parametrize("spec", _principal_fixtures())
    def test_principal_fixtures(self, spec):
        g, k = spec.groupoid, int(spec.params["k"])
        w = spec.cocycle_or_trivial()
        w = w if w.normalized else normalize(w)[0]
        assert fullness_check(g).ideal_dimension == graded_fullness_dimension(g) == g.n_arrows
        assert self._check(g, TwoCocycle.trivial(g), 1) == g.n_arrows
        for kk in (k, 2 * k):
            assert self._check(g, w, kk) == g.n_arrows

    @pytest.mark.parametrize("name", SMALL_PRINCIPAL)
    def test_fullness(self, name):
        g = SMALL_PRINCIPAL[name]()
        assert fullness_check(g).ideal_dimension == graded_fullness_dimension(g) == g.n_arrows

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("name", SMALL_PRINCIPAL)
    def test_random_coboundaries(self, name, k):
        g = SMALL_PRINCIPAL[name]()
        w = random_mu_k_coboundary(random.Random(k), g, k)
        assert self._check(g, w, k) == g.n_arrows

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", SMALL_PRINCIPAL)
    def test_ideals_larger_than_their_generators(self, name, k):
        # one delta, a sparse element and one mode of it: each generates
        # more than its left ideal, unlike the unit-pair lifts
        g = SMALL_PRINCIPAL[name]()
        ext = oracle.CyclicExtension(g, random_mu_k_coboundary(random.Random(k), g, k), k)
        rng = np.random.default_rng(k)
        sparse = np.zeros(ext.dimension, dtype=complex)
        sparse[rng.choice(ext.dimension, 2, replace=False)] = rng.normal(size=2) + 1j
        delta = oracle.deltas(ext, [ext.dimension - 1], exact=False)
        for gens in (delta, sparse[None], oracle.mode_projection(ext, sparse[None], k - 1)):
            assert oracle.ideal_dimension(ext, gens) == oracle_closure_dimension(ext, gens)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_proper_ideal_of_one_orbit(self, k):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(3))
        w = random_mu_k_coboundary(random.Random(k), g, k)
        ext = oracle.CyclicExtension(g, w, k)
        for units in orbit_decomposition(g).orbits:
            lifts = unit_pair_lifts(ext, units)
            dim = oracle.ideal_dimension(ext, lifts)
            assert dim == oracle_closure_dimension(ext, lifts) == len(units) ** 2


class TestNegativeControls:
    """The Morita certificates can fail."""

    def test_lost_products_break_fullness(self, monkeypatch):
        conv = oracle.conv

        def lossy(ext, f, h):
            out = conv(ext, f, h)
            out[..., 1] = 0  # every product landing on arrow 1 is lost
            return out

        monkeypatch.setattr(oracle, "conv", lossy)
        cert = fullness_check(pair_groupoid(2))
        assert not cert.full and cert.ideal_dimension == 3

    def test_lift_varying_along_the_circle_leaks(self, pair2, pair2_trivial, rng, monkeypatch):
        lifts = morita._lifts

        def varying(ext, pairs):
            L = lifts(ext, pairs)
            L[:, : ext.base.n_arrows] *= 2  # the t = 0 sheet differs from t = 1
            return L

        monkeypatch.setattr(morita, "_lifts", varying)
        pairs = [(random_bimodule(rng, pair2), random_bimodule(rng, pair2))]
        rep = saturation_report(pair2, pair2_trivial, 2, pairs)
        assert rep.nonzero_mode_leakage > 1e-12 and not rep.mode_zero_ok

    def test_missing_orbit_is_not_full(self, monkeypatch):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(3))
        small, big = orbit_decomposition(g).orbits
        missing = [a for a in g.arrows() if g.r(a) in big]
        lifts = morita._unit_pair_lifts

        def without_big_orbit(ext):
            L = lifts(ext)
            return L[~L[:, missing].any(axis=1)]

        monkeypatch.setattr(morita, "_unit_pair_lifts", without_big_orbit)
        cert = fullness_check(g)
        assert cert.ideal_dimension == len(small) ** 2 < cert.algebra_dimension
        assert not cert.full
