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
    pair_groupoid,
)
from gpdext.morita import (
    MoritaError,
    fullness_check,
    inner_products,
    positivity_check,
    saturation_report,
)
from gpdext.randgen import random_mu_k_coboundary, random_values

from helpers import empty_groupoid
from reference_groupoid import loop_orbit_decomposition
from reference_ranks import (
    graded_fullness_dimension,
    oracle_closure_dimension,
    unit_pair_lifts,
)


@pytest.fixture
def pair_untwisted(pair2, pair2_trivial):
    return TwistedAlgebra(pair2, pair2_trivial, 0)


def delta(g, u, c=1.0):
    """The function on the units of g that is c at u and 0 elsewhere."""
    return c * np.eye(g.n_units, dtype=complex)[u]


class TestLeftInner:
    def test_unit_deltas_give_matrix_units(self, pair2, pair_untwisted):
        f, g = delta(pair2, 0), delta(pair2, 1)
        assert pair_untwisted.element(inner_products(pair2, f, g)).equals(pair_untwisted.delta(1))

    def test_diagonal_is_projection(self, pair2, pair_untwisted):
        f = delta(pair2, 0)
        p = pair_untwisted.element(inner_products(pair2, f, f))
        assert p.equals(pair_untwisted.delta(0))
        assert (p * p).equals(p)

    def test_hermitian_symmetry(self, pair2, pair_untwisted, rng):
        f, g = random_values(rng, (2, 20, pair2.n_units))
        fg, gf = inner_products(pair2, f, g), inner_products(pair2, g, f)
        assert pair_untwisted.element(fg).star().equals(pair_untwisted.element(gf), 1e-12)

    @pytest.mark.parametrize("name", ["pair2", "pair2+pair1", "cover"])
    def test_a_stack_matches_the_arrow_loop(self, name, rng):
        # bit for bit, each product as Python's complex product rounds it
        g = SMALL_PRINCIPAL[name]()
        f, h = random_values(rng, (2, 5, g.n_units))
        stack = inner_products(g, f, h)
        assert stack.shape == (5, g.n_arrows)
        for i in range(5):
            loop = [complex(f[i, g.r(a)]) * complex(h[i, g.s(a)]).conjugate() for a in g.arrows()]
            assert stack[i].tolist() == loop

    def test_requires_principal(self):
        z2 = cyclic_group_groupoid(2)
        f = delta(z2, 0)
        with pytest.raises(MoritaError, match="hypotheses not met"):
            positivity_check(z2, f[None])

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 1), ()])
    def test_last_axis_must_be_the_units(self, pair2, shape):
        good = np.ones(pair2.n_units)
        bad = np.ones(shape)
        for f, h in ((bad, good), (good, bad)):
            with pytest.raises(MoritaError, match="2 units expected"):
                inner_products(pair2, f, h)


def negated_at(row, monkeypatch):
    """Make ``inner_products`` negate <f, h> wherever f is the given row."""
    inner = morita.inner_products

    def negated(g, f, h):
        x = inner(g, f, h)
        return np.where((f == row).all(axis=-1, keepdims=True), -x, x)

    monkeypatch.setattr(morita, "inner_products", negated)


class TestPositivity:
    def test_delta(self, pair2):
        assert positivity_check(pair2, delta(pair2, 0)[None])

    def test_random(self, pair2, rng):
        assert positivity_check(pair2, random_values(rng, (30, pair2.n_units)))

    def test_zero(self, pair2):
        assert positivity_check(pair2, np.zeros((1, pair2.n_units)))

    def test_builds_no_algebra_and_no_cocycle(self, pair2, rng, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(TwistedAlgebra, "__init__", refuse)
        monkeypatch.setattr(TwoCocycle, "__init__", refuse)
        assert positivity_check(pair2, random_values(rng, (10, pair2.n_units)))

    def test_one_negative_sample_fails_the_batch(self, pair2, rng, monkeypatch):
        samples = random_values(rng, (5, pair2.n_units))
        negated_at(samples[3], monkeypatch)
        assert not positivity_check(pair2, samples)
        assert positivity_check(pair2, samples[:3])

    def test_a_negative_sample_at_the_unit_of_the_smaller_fibre_fails(self, rng, monkeypatch):
        # pair(2)+pair(1) has fibres of sizes 2 and 1, so the matrices come
        # in two gathers; <f, f> of the delta at the pair(1) unit, negated,
        # is nonzero only at that unit
        g = disjoint_union(pair_groupoid(2), pair_groupoid(1))
        samples = random_values(rng, (4, g.n_units))
        lone = delta(g, 2, 1.5)
        negated_at(lone, monkeypatch)
        assert positivity_check(g, samples) and positivity_check(g, samples[:0])
        assert not positivity_check(g, np.vstack([samples, lone]))
        assert not positivity_check(g, lone[None])

    def test_gram_matrix_is_rank_one(self, pair2, rng):
        # the regular matrices of <f,f> are v v*, hence PSD of rank <= 1
        alg = TwistedAlgebra(pair2, TwoCocycle.trivial(pair2), 0)
        f = random_values(rng, (pair2.n_units,))
        x = alg.element(inner_products(pair2, f, f))
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
        pairs = random_values(rng, (10, 2, pair2.n_units))
        rep = saturation_report(oracle.CyclicExtension(pair2, pair2_trivial, 2), pairs)
        assert rep.mode_zero_ok
        assert rep.not_saturated
        assert rep.ideal_dimension == 4
        assert rep.nonzero_mode_leakage <= 1e-12

    def test_trivial_extension_is_saturated(self, pair2, pair2_trivial, rng):
        # at k = 1 the extension is G itself: the ideal fills all of it
        pairs = random_values(rng, (1, 2, pair2.n_units))
        rep = saturation_report(oracle.CyclicExtension(pair2, pair2_trivial, 1), pairs)
        assert rep.ideal_dimension == rep.k * pair2.n_arrows == 4
        assert not rep.not_saturated

    def test_twisted_cocycle(self, rng):
        g = pair_groupoid(2)
        w = random_mu_k_coboundary(rng, g, 3)
        pairs = random_values(rng, (10, 2, g.n_units))
        rep = saturation_report(oracle.CyclicExtension(g, w, 3), pairs)
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
        assert saturation_report(ext, np.zeros((0, 2, g.n_units))).ideal_dimension == expected
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
        delta = np.eye(ext.dimension, dtype=complex)[-1:]
        for gens in (delta, sparse[None], oracle.mode_projection(ext, sparse[None], k - 1)):
            assert oracle.ideal_dimension(ext, gens) == oracle_closure_dimension(ext, gens)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_proper_ideal_of_one_orbit(self, k):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(3))
        w = random_mu_k_coboundary(random.Random(k), g, k)
        ext = oracle.CyclicExtension(g, w, k)
        for units in loop_orbit_decomposition(g).orbits:
            lifts = unit_pair_lifts(ext, units)
            dim = oracle.ideal_dimension(ext, lifts)
            assert dim == oracle_closure_dimension(ext, lifts) == len(units) ** 2

    def test_zero_generators_and_the_empty_groupoid_span_nothing(self):
        # no nonzero row is left to span with, down to rows of no entries
        for g in (pair_groupoid(2), empty_groupoid()):
            ext = oracle.CyclicExtension(g, TwoCocycle.trivial(g), 2)
            for n in (0, 3):
                assert oracle.ideal_dimension(ext, np.zeros((n, ext.dimension), dtype=complex)) == 0


class TestNegativeControls:
    """The Morita certificates can fail."""

    def test_lost_products_break_fullness(self, monkeypatch):
        products = oracle.delta_products

        def lossy(ext, f, left):
            out = products(ext, f, left)
            out[..., 1] = 0  # every product landing on arrow 1 is lost
            return out

        monkeypatch.setattr(oracle, "delta_products", lossy)
        cert = fullness_check(pair_groupoid(2))
        assert not cert.full and cert.ideal_dimension == 3

    def test_lift_varying_along_the_circle_leaks(self, pair2, pair2_trivial, rng, monkeypatch):
        lifts = morita._lifts

        def varying(ext, f, h):
            L = lifts(ext, f, h)
            L[:, : ext.base.n_arrows] *= 2  # the t = 0 sheet differs from t = 1
            return L

        monkeypatch.setattr(morita, "_lifts", varying)
        pairs = random_values(rng, (1, 2, pair2.n_units))
        rep = saturation_report(oracle.CyclicExtension(pair2, pair2_trivial, 2), pairs)
        assert rep.nonzero_mode_leakage > 1e-12 and not rep.mode_zero_ok
        assert rep.witness is not None and rep.witness.leakage == rep.nonzero_mode_leakage

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_the_witness_names_the_largest_leakage(self, pair2, pair2_trivial, monkeypatch, k):
        # one sample's lift gains 5 e(-tn/k) along the circle over one base
        # arrow, mass in mode n alone; the witness names that sample, that
        # base arrow at some circle exponent, mode n and the largest mass
        # outside mode 0, as a loop over the projections finds it
        lifts, m = morita._lifts, pair2.n_arrows
        sample, a, n = 3, 2, k - 1
        t = np.arange(k)

        def leaking(ext, f, h):
            L = lifts(ext, f, h)
            if L.ndim == 2:  # the samples' lifts, not the unit pairs' ones
                L[sample, t * m + a] += 5 * ext.roots[-t * n % k]
            return L

        monkeypatch.setattr(morita, "_lifts", leaking)
        pairs = random_values(random.Random(k), (5, 2, pair2.n_units))
        ext = oracle.CyclicExtension(pair2, pair2_trivial, k)
        rep = saturation_report(ext, pairs)
        L = leaking(ext, pairs[:, 0], pairs[:, 1])
        off = [L - oracle.mode_projection(ext, L, 0)]
        off += [oracle.mode_projection(ext, L, j) for j in range(1, k)]
        largest = max(float(abs(v[i, x])) for v in off for i in range(5) for x in range(k * m))
        w = rep.witness
        assert not rep.mode_zero_ok and w.leakage == rep.nonzero_mode_leakage == largest
        assert (w.sample, w.arrow, w.mode) == (sample, a, n) and 0 <= w.circle < k
        assert max(float(abs(v[w.sample, w.circle * m + w.arrow])) for v in off) == largest
        assert largest == pytest.approx(5)

    def test_a_passing_report_has_no_witness(self, pair2, pair2_trivial, rng):
        pairs = random_values(rng, (4, 2, pair2.n_units))
        rep = saturation_report(oracle.CyclicExtension(pair2, pair2_trivial, 3), pairs)
        assert rep.mode_zero_ok and rep.witness is None

    def test_missing_orbit_is_not_full(self, monkeypatch):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(3))
        small, big = loop_orbit_decomposition(g).orbits
        missing = [a for a in g.arrows() if g.r(a) in big]
        lifts = morita._unit_pair_lifts

        def without_big_orbit(ext):
            L = lifts(ext)
            return L[~L[:, missing].any(axis=1)]

        monkeypatch.setattr(morita, "_unit_pair_lifts", without_big_orbit)
        cert = fullness_check(g)
        assert cert.ideal_dimension == len(small) ** 2 < cert.algebra_dimension
        assert not cert.full
