import ast
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gpdext import cyclic_oracle as oracle
from gpdext.algebra import AlgebraError
from gpdext.cli import load_spec
from gpdext.cocycle import TwoCocycle, bicharacter_cocycle, pauli_cocycle
from gpdext.exact import Cyclo
from gpdext.extension import (
    ExtensionAlgebra,
    WindowError,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    decompose,
    fiber_sides,
    intertwine_check,
    mode_projection,
    oracle_norm_deviation,
)
from gpdext.groupoid import (
    abelian_group_groupoid,
    cyclic_group_groupoid,
    pair_groupoid,
    validate,
)
from gpdext.randgen import (
    draw_oracle_instance,
    random_laurent,
    random_laurents,
    random_mu_k_coboundary,
)
from helpers import empty_groupoid, oracle_batch_pool
import reference_oracle


@pytest.fixture
def pair_ext(pair2, pair2_trivial):
    return ExtensionAlgebra(pair2, pair2_trivial)


@pytest.fixture
def pauli_ext(klein, pauli):
    return ExtensionAlgebra(klein, pauli)


@pytest.fixture(params=["pauli", "pair3_mu4_coboundary"])
def shared_pass_ext(request, klein, pauli, rng):
    if request.param == "pauli":
        return ExtensionAlgebra(klein, pauli)
    g = pair_groupoid(3)
    return ExtensionAlgebra(g, random_mu_k_coboundary(rng, g, 4))


class TestGradedProduct:
    def test_mode_zero_is_plain_convolution(self, pair_ext):
        F = pair_ext.delta(0, 1)
        G = pair_ext.delta(0, 2)
        assert (F * G).mode(0).equals(pair_ext.twisted(0).delta(0))

    def test_cross_mode_products_vanish(self, pair_ext, rng):
        f = {a: complex(rng.gauss(0, 1)) for a in range(4)}
        F = pair_ext.element({-1: f})
        G = pair_ext.element({0: dict(f)})
        assert (F * G).is_zero
        assert (G * F).is_zero

    def test_pauli_mode_one_square(self, pauli_ext):
        F = pauli_ext.delta(1, 1)
        sq = F * F
        assert list(sq.modes) == [1]
        assert sq.mode(1).equals(pauli_ext.twisted(1).delta(0))

    def test_grading_exhaustive_on_delta_basis(self, pauli_ext):
        arrows = range(4)
        for m, n in itertools.product(range(-2, 3), repeat=2):
            for a, b in itertools.product(arrows, repeat=2):
                P = pauli_ext.delta(m, a) * pauli_ext.delta(n, b)
                if m != n:
                    assert P.is_zero
                else:
                    tw = pauli_ext.twisted(n)
                    assert P.mode(n).equals(tw.delta(a) * tw.delta(b))

    def test_mixing_extensions_rejected(self, pair_ext, pauli_ext):
        with pytest.raises(AlgebraError):
            pair_ext.delta(0, 0) * pauli_ext.delta(0, 0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_elements_multiply_only_elements(self, pauli_ext, exact):
        # a graded or a summand element times a number is no product here
        F = pauli_ext.element({1: {1: 1 if exact else 1.0}})
        for x in (F, F.mode(1)):
            for a, b in ((x, 2), (2, x), (x, 0.5j), (0.5j, x)):
                with pytest.raises(TypeError):
                    a * b

    def test_cocycle_on_another_groupoid_rejected(self):
        with pytest.raises(AlgebraError):
            ExtensionAlgebra(pair_groupoid(3), TwoCocycle.trivial(pair_groupoid(2)))


class TestModeCalculus:
    def test_projection_picks_modes(self, pauli_ext):
        F = pauli_ext.delta(1, 1) + pauli_ext.delta(0, 0)
        assert mode_projection(F, 1).equals(pauli_ext.delta(1, 1))
        assert mode_projection(F, 0).equals(pauli_ext.delta(0, 0))
        assert mode_projection(F, 2).is_zero

    def test_projection_idempotent(self, pauli_ext, rng):
        F = random_laurent(rng, pauli_ext, (-2, 2))
        for n in range(-3, 4):
            P = mode_projection(F, n)
            assert mode_projection(P, n).equals(P)

    def test_projections_resolve_identity(self, pauli_ext, rng):
        F = random_laurent(rng, pauli_ext, (-2, 2))
        total = pauli_ext.zero()
        for n in range(-2, 3):
            total = total + mode_projection(F, n)
        assert total.equals(F)

    def test_projection_star_homomorphism(self, pauli_ext, rng):
        for _ in range(25):
            F = random_laurent(rng, pauli_ext, (-1, 1))
            G = random_laurent(rng, pauli_ext, (-1, 1))
            for n in (-1, 0, 1):
                assert mode_projection(F * G, n).equals(
                    mode_projection(F, n) * mode_projection(G, n), 1e-10
                )
                assert mode_projection(F.star(), n).equals(mode_projection(F, n).star())

    def test_component_homomorphism_exhaustive(self, pair_ext):
        # delta-basis structure constants for every window mode; the exact
        # product of two deltas that do not compose is the zero element
        for n in range(-2, 3):
            tw = pair_ext.twisted(n)
            for a, b in itertools.product(range(4), repeat=2):
                P = pair_ext.delta(n, a) * pair_ext.delta(n, b)
                assert P.mode(n).equals(tw.delta(a) * tw.delta(b))
                assert P.is_zero == (pair_ext.groupoid.compose_or_none(a, b) is None)

    def test_component_star_random(self, pauli_ext, rng):
        for _ in range(25):
            F = random_laurent(rng, pauli_ext, (-2, 2))
            for n in range(-2, 3):
                assert F.star().mode(n).equals(F.mode(n).star(), 1e-12)

    def test_embed_inverts_component(self, pauli_ext, rng):
        F = random_laurent(rng, pauli_ext, (-1, 1))
        for n in (-1, 0, 1):
            f = F.mode(n)
            assert pauli_ext.element({n: f}).mode(n).equals(f)
            assert pauli_ext.element({n: f}).equals(mode_projection(F, n))


class TestOneForm:
    """A numeric graded element is its array from its lowest mode and
    nothing else; an exact one is a dict of its nonzero exact modes."""

    @staticmethod
    def numeric_elements(ea):
        rng = random.Random(3)
        F = random_laurents(rng, ea, (-1, 1), (3,))
        G = random_laurents(rng, ea, (0, 2), (3,))
        E = ea.element({0: {0: 1.0}, 2: {1: 0.5j}})
        return {
            "stack": F, "element": E, "sum": F + G, "mixed sum": E + ea.delta(1, 2),
            "product": F * G, "star": F.star(), "projection": mode_projection(F, 0), "row": F[1],
        }

    def test_numeric_elements_store_only_their_array(self, pauli_ext):
        for how, F in self.numeric_elements(pauli_ext).items():
            assert not hasattr(F, "__dict__") and F.__slots__ == ("algebra", "lo", "values")
            assert isinstance(F.lo, int) and type(F.values) is np.ndarray, how
            assert F.modes and list(F.modes) == F.support, how
            for n, f in F.modes.items():
                assert np.shares_memory(f.values, F.values), (how, n)
                assert f.equals(F.mode(n)) and not f.is_zero

    def test_zero_modes_inside_the_window_are_not_listed(self, pauli_ext):
        F = pauli_ext.element({-1: {0: 1.0}, 2: {3: 2.0}})
        assert (F.lo, F.values.shape) == (-1, (4, 4))
        assert F.support == [-1, 2] and F.mode(0).is_zero and F.mode(5).is_zero

    def test_exact_star_is_each_modes_star_in_cyclo(self, pauli_ext):
        F = pauli_ext.element({
            1: {1: Cyclo.from_root(Fraction(1, 3), 2), 2: Fraction(1, 2)},
            -2: {3: Cyclo.from_root(Fraction(1, 4), -1)},
            0: {0: 1},
        })
        S = F.star()
        assert S.lo is None and list(S.modes) == list(F.modes) == [1, -2, 0]
        for n, f in F.modes.items():
            assert S.mode(n).equals(f.star()) and not S.mode(n).is_numeric
            assert all(isinstance(c, Cyclo) for c in S.mode(n).coeff.values())
        assert S.star().equals(F)


class TestDecompose:
    def test_identity(self, pair_ext):
        F = pair_ext.identity()
        rep = decompose(F)
        assert list(F.modes) == [0] and list(rep.mode_norms) == [0]
        assert rep.extension_norm == pytest.approx(1.0)

    def test_two_mode_element(self, pauli_ext):
        F = pauli_ext.delta(1, 1) + pauli_ext.delta(0, 0)
        rep = decompose(F)
        assert rep.mode_norms == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}
        assert rep.extension_norm == pytest.approx(1.0)
        assert rep.center_dimensions == {0: 4, 1: 1}
        assert rep.faithful_modes == {0: True, 1: True}

    def test_a_stack_maps_each_mode_to_its_norms_per_sample(self, pauli_ext):
        F = random_laurents(random.Random(4), pauli_ext, (0, 1), (3,))
        rep = decompose(F)
        assert list(F.modes) == list(rep.mode_norms) == [0, 1]
        each = [decompose(F[i]) for i in range(3)]
        assert rep.mode_norms == {n: [r.mode_norms[n] for r in each] for n in (0, 1)}
        assert rep.extension_norm == [r.extension_norm for r in each]
        assert rep.attained_mode == [r.attained_mode for r in each]
        for r in each:  # the samples' modes differ in norm
            assert r.mode_norms[r.attained_mode] == r.extension_norm == max(r.mode_norms.values())
        assert rep.faithful_modes == each[0].faithful_modes
        assert rep.center_dimensions == each[0].center_dimensions

    def test_zero_element(self, pair_ext):
        F = pair_ext.zero()
        rep = decompose(F)
        assert F.modes == {} and rep.mode_norms == {} and rep.extension_norm == 0.0

    def test_empty_groupoid(self):
        g = empty_groupoid()
        ea = ExtensionAlgebra(g, TwoCocycle.trivial(g))
        rep = decompose(ea.zero())
        assert rep.extension_norm == 0.0


class TestIntertwining:
    def test_single_mode_unit(self, pair_ext):
        res = intertwine_check(pair_ext.delta(0, 1), 0, (0, 0))
        assert res.residual == 0.0

    def test_random_windowed(self, pauli_ext, rng):
        for _ in range(30):
            F = random_laurent(rng, pauli_ext, (-1, 1))
            res = intertwine_check(F, 0, (-1, 1))
            assert res.residual <= 1e-12

    def test_all_units_of_pair_groupoid(self, pair_ext, rng):
        for _ in range(10):
            F = random_laurent(rng, pair_ext, (-2, 2))
            for u in (0, 1):
                assert intertwine_check(F, u, (-2, 2)).residual <= 1e-12

    def test_window_error_lists_modes(self, pauli_ext):
        with pytest.raises(WindowError) as exc:
            intertwine_check(pauli_ext.delta(2, 0) + pauli_ext.delta(-3, 0), 0, (0, 1))
        assert exc.value.missing == (-3, 2)

    def test_wider_window_gives_the_same_residual(self, shared_pass_ext, rng):
        # outside F's span the rows and columns of both sides are exactly zero
        for _ in range(8):
            F = random_laurent(rng, shared_pass_ext, (-2, 2), density=0.6)
            if F.is_zero:
                continue
            lo, hi = min(F.modes), max(F.modes)
            for u in shared_pass_ext.groupoid.units():
                span = intertwine_check(F, u, (lo, hi))
                wide = intertwine_check(F, u, (lo - 1, hi + 2))
                assert wide.residual == span.residual
                assert wide.dimension > span.dimension


class TestReducedDecomposition:
    def test_max_residual_is_the_worst_intertwining_residual(self, shared_pass_ext, rng):
        units = shared_pass_ext.groupoid.units()
        for _ in range(6):
            F = random_laurent(rng, shared_pass_ext, (-2, 2), density=0.6)
            if F.is_zero:
                continue
            span = (min(F.modes), max(F.modes))
            cert = check_reduced_decomposition([F])
            assert cert.max_residual == max(intertwine_check(F, u, span).residual for u in units)
            assert cert.max_residual <= 1e-12

    def test_norm_deviation_matches_decompose(self, shared_pass_ext, rng):
        units = shared_pass_ext.groupoid.units()
        for _ in range(6):
            F = random_laurent(rng, shared_pass_ext, (-2, 2), density=0.6)
            if F.is_zero:
                continue
            span = (min(F.modes), max(F.modes))
            fiber_norm = max(
                float(np.linalg.norm(M, 2)) for _, R, _, _ in fiber_sides(F, span, units) for M in R
            )
            report = decompose(F)
            cert = check_reduced_decomposition([F])
            assert cert.max_norm_deviation == abs(fiber_norm - report.extension_norm)

    def test_identity_norms_agree(self, pair_ext):
        cert = check_reduced_decomposition([pair_ext.identity()])
        assert cert.ok and cert.max_norm_deviation == 0.0

    def test_random_elements(self, pauli_ext, pair_ext, rng):
        elements = [random_laurent(rng, pauli_ext, (-1, 2)) for _ in range(15)]
        elements += [random_laurent(rng, pair_ext, (-2, 1)) for _ in range(15)]
        cert = check_reduced_decomposition(elements)
        assert cert.ok, cert

    def test_memory_stays_bounded_on_pair11(self):
        # the tracemalloc peak of one certificate of a 2-mode sample on
        # pair(11) under a mu_4 coboundary, once a first call has built the
        # groupoid's compiled tables: about 0.30 MB with the tables of w^n on
        # the 1 331 composable pairs, 0.73 MB on the 14 641 arrows x arrows
        g = pair_groupoid(11)
        rng = random.Random(11)
        F = random_laurent(rng, ExtensionAlgebra(g, random_mu_k_coboundary(rng, g, 4)), (0, 1))
        assert F.support == [0, 1] and check_reduced_decomposition([F]).ok
        tracemalloc.start()
        try:
            cert = check_reduced_decomposition([F])
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert cert.ok
        assert peak <= 450_000


class TestCyclicExtension:
    def test_trivial_cocycle_on_z2_splits(self):
        z2 = cyclic_group_groupoid(2)
        ext = cyclic_extension(z2, TwoCocycle.trivial(z2), 2)
        G = ext.groupoid
        assert G.n_arrows == 4
        # abelian with exponent 2: the Klein group, a split extension
        C = G.compose_table
        assert all(C[a, b] == C[b, a] for a in G.arrows() for b in G.arrows())
        assert all(C[a, a] == G.unit_arrow(0) for a in G.arrows())

    def test_pauli_extension_is_nonabelian_of_order_eight(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        G = ext.groupoid
        assert G.n_arrows == 8 and validate(G).ok
        assert any(
            G.compose_table[a, b] != G.compose_table[b, a] for a in G.arrows() for b in G.arrows()
        )
        # central extension: the circle fiber commutes with everything
        center = klein.n_arrows + klein.unit_arrow(0)  # (e(1/2), unit)
        assert all(
            G.compose_table[center, a] == G.compose_table[a, center] for a in G.arrows()
        )

    def test_random_mu3_cocycles_validate(self, rng):
        g = pair_groupoid(2)
        for _ in range(10):
            w = random_mu_k_coboundary(rng, g, 3)
            ext = cyclic_extension(g, w, 3)
            assert ext.validation.ok
            assert ext.groupoid.n_arrows == 3 * g.n_arrows

    @staticmethod
    def loop_tables(base, cocycle, k):
        """The extension's composition, inverse and sorted (y, z, yz) rows,
        built one pair and one circle exponent at a time."""
        n = base.n_arrows
        twist = {p: int(cocycle.value(*p).angle * k) % k for p in base.compose_table}
        compose = {}
        for (a, b), c in base.compose_table.items():
            for t1 in range(k):
                for t2 in range(k):
                    compose[(t1 * n + a, t2 * n + b)] = ((t1 + t2 + twist[(a, b)]) % k) * n + c
        inverse = [
            ((-t - twist[(a, base.inv(a))]) % k) * n + base.inv(a) for t in range(k) for a in range(n)
        ]
        rows = sorted((y, z, yz) for (y, z), yz in compose.items())
        return compose, inverse, np.array(rows).reshape(-1, 3).T

    def test_tables_match_a_loop_build_on_test_01_draws(self):
        # the first 40 instances of the test-01 batch, drawn in the same order
        rng = random.Random(20260808)
        for i in range(40):
            k = (2, 3, 4, 6)[i % 4]
            g, w = draw_oracle_instance(rng, k)
            ext = cyclic_extension(g, w, k)
            compose, inverse, pairs = self.loop_tables(g, w, k)
            assert ext.groupoid.compose_table == compose, (i, g.name, k)
            assert ext.inverse.tolist() == inverse, (i, g.name, k)
            assert np.array_equal(np.asarray(ext.groupoid.pair_table), pairs), (i, g.name, k)

    def test_fiber_size(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        for a in klein.arrows():
            fiber = [x for x in ext.groupoid.arrows() if x % klein.n_arrows == a]
            assert len(fiber) == 2

    def test_value_outside_mu_k_rejected(self, klein, pauli):
        with pytest.raises(oracle.OracleError) as exc:
            cyclic_extension(klein, pauli, 3)
        assert "mu_3" in str(exc.value)

    def test_first_pair_outside_mu_k_is_named(self, klein, pauli):
        with pytest.raises(oracle.OracleError) as exc:
            cyclic_extension(klein, pauli, 3)
        assert str(exc.value) == "cocycle value e(1/2) on ((0,1),(1,0)) is not a mu_3 root"
        numeric = TwoCocycle(klein, {p: v.to_complex() for p, v in pauli.values.items()})
        numeric.check_identity()
        with pytest.raises(oracle.OracleError) as exc:
            cyclic_extension(klein, numeric, 3)
        assert str(exc.value) == (
            "cocycle value circle(-1.000000+0.000000j) on ((0,1),(1,0)) is not a mu_3 root"
        )

    def test_non_normalized_rejected(self, klein):
        w = TwoCocycle(klein, {p: Fraction(1, 2) for p in klein.compose_table})
        w.check_identity()
        with pytest.raises(oracle.OracleError):
            cyclic_extension(klein, w, 2)


class TestCyclicDecompose:
    def test_trivial_cocycle_two_copies(self):
        z2 = cyclic_group_groupoid(2)
        ext = cyclic_extension(z2, TwoCocycle.trivial(z2), 2)
        cd = cyclic_decompose(ext)
        assert cd.ok and cd.exact and cd.max_residual == 0.0
        assert [s.dimension for s in cd.summands] == [2, 2]
        # both summands are the commutative algebra of Z2
        assert [s.center_dimension for s in cd.summands] == [2, 2]

    def test_pauli_summands(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        cd = cyclic_decompose(ext)
        assert cd.ok and cd.exact
        assert [s.dimension for s in cd.summands] == [4, 4]
        assert [s.center_dimension for s in cd.summands] == [4, 1]

    def test_mu4_coboundary(self, rng):
        g = pair_groupoid(2)
        w = random_mu_k_coboundary(rng, g, 4)
        cd = cyclic_decompose(cyclic_extension(g, w, 4), skip_centers=True)
        assert cd.ok and cd.exact and cd.max_residual == 0.0
        assert cd.products_checked == (4 * 4) ** 2

    def test_float_mode(self, klein, pauli):
        vals = {p: pauli.value(*p).to_complex() for p in klein.compose_table}
        w = TwoCocycle(klein, vals)
        w.check_identity()
        ext = cyclic_extension(klein, w, 2)
        cd = cyclic_decompose(ext)
        assert cd.ok and not cd.exact
        assert cd.max_residual <= 1e-10

    def test_memory_stays_bounded_on_the_oracle_batch_pool(self):
        # the tracemalloc peak of each decomposition over the instances of
        # the seed-1 pool of the oracle_batch benchmark workload: its worst
        # items (k = 6, six arrows) stay within 1.1 MB
        peaks = []
        for g, w, k in oracle_batch_pool(1):
            ext = cyclic_extension(g, w, k)
            tracemalloc.start()
            try:
                cd = cyclic_decompose(ext, skip_centers=True)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert cd.ok and cd.exact and cd.max_residual == 0.0
        assert len(peaks) == 4 * 18 and max(peaks) <= 1_100_000

    def test_build_memory_stays_bounded_on_the_oracle_batch_pool(self):
        # the tracemalloc peak of building mu_k x_w G, its full validate
        # included, on the largest extensions of the seed-1 oracle_batch
        # pool (k = 6 over six base arrows, 36 arrows): about 475 kB when
        # the build went through a dict of composable pairs
        peaks = []
        for g, w, k in oracle_batch_pool(1):
            if (k, g.n_arrows) != (6, 6):
                continue
            tracemalloc.start()
            try:
                ext = oracle.CyclicExtension(g, w, k)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert ext.validation.ok
        assert len(peaks) == 4 and max(peaks) <= 480_000

    def test_memory_stays_bounded_on_pair3_cobound_at_k12(self):
        # the tracemalloc peak of one decomposition of the pair3_cobound
        # fixture at k = 12 (N = 108 mode deltas) stays within 1.5 MB: about
        # 0.86 MB with the stars and projections read off the unit entries
        # of the mode deltas, 2.06 MB with a dense (N, N, k) stack of them
        spec, _ = load_spec(None, "pair3_cobound")
        ext = cyclic_extension(spec.groupoid, spec.cocycle_or_trivial(), 12)
        tracemalloc.start()
        try:
            cd = cyclic_decompose(ext, skip_centers=True)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert cd.ok and cd.exact
        assert peak <= 1_500_000

    def test_memory_at_k24_is_the_one_row_floor(self):
        # a chunk holds at least one left row, whose product terms grow as
        # k**3 times the base pairs of its arrow, so the peak is not bounded
        # for any k: on pair3_cobound it is about 6.0 MB at k = 24 (0.86 MB
        # at k = 12, 46.4 MB at k = 48)
        spec, _ = load_spec(None, "pair3_cobound")
        ext = cyclic_extension(spec.groupoid, spec.cocycle_or_trivial(), 24)
        tracemalloc.start()
        try:
            cd = cyclic_decompose(ext, skip_centers=True)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert cd.ok and cd.exact
        assert peak <= 7_500_000


class TestOracleNormAgreement:
    def test_pauli(self, klein, pauli, pauli_ext, rng):
        ext = cyclic_extension(klein, pauli, 2)
        for _ in range(20):
            F = random_laurent(rng, pauli_ext, (0, 1))
            assert oracle_norm_deviation(F, ext) <= 1e-9

    def test_identity_norm(self, pair_ext, pair2, pair2_trivial):
        ext = cyclic_extension(pair2, pair2_trivial, 2)
        assert oracle_norm_deviation(pair_ext.identity(), ext) <= 1e-12

    def test_modes_outside_oracle_range_rejected(self, pauli_ext, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        with pytest.raises(WindowError):
            oracle_norm_deviation(pauli_ext.delta(-1, 0), ext)


class TestQuotientOfExtension:
    def test_trivial_extension_of_pair_groupoid(self, pair2, pair2_trivial):
        ext = cyclic_extension(pair2, pair2_trivial, 2)
        assert oracle.quotient_matches_base(ext) == []

    def test_twisted_extension_of_pair_groupoid(self, rng):
        g = pair_groupoid(3)
        w = random_mu_k_coboundary(rng, g, 4)
        ext = cyclic_extension(g, w, 4)
        assert oracle.quotient_matches_base(ext) == []

    def test_group_base_reports_defect(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        assert oracle.quotient_matches_base(ext) != []


class TestOracleFaithfulness:
    def test_pauli_extension(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)
        rank, dim = oracle.faithfulness_rank(ext)
        assert rank == dim == 8


class TestOracleArraysAgainstLoops:
    """The array operations of the oracle against loops over coefficient
    dicts: exact values in Cyclo arithmetic, numeric ones in Python complex
    arithmetic summed in the same order, so both must agree to the bit."""

    @staticmethod
    def extensions(rng):
        yield cyclic_extension(*_klein_pauli(), 2)
        pair = pair_groupoid(2)
        yield cyclic_extension(pair, random_mu_k_coboundary(rng, pair, 3), 3)
        z2x4 = abelian_group_groupoid((2, 4))
        w = bicharacter_cocycle(z2x4, (2, 4), 4).mul(random_mu_k_coboundary(rng, z2x4, 4))
        yield cyclic_extension(z2x4, w, 4)

    @staticmethod
    def exact_pair(rng, ext):
        """A random exact element, dense, and as a dict of Cyclo values."""
        k = ext.k
        num = np.array(
            [[rng.choice((0, 0, 1, -2, 3)) for _ in range(k)] for _ in range(ext.dimension)]
        )
        values = {
            x: sum((Cyclo.from_root(Fraction(j, k), int(c)) for j, c in enumerate(row)), Cyclo())
            for x, row in enumerate(num)
            if row.any()
        }
        return reference_oracle.Dense(num), values

    @staticmethod
    def as_cyclo(f: reference_oracle.Dense, x: int) -> Cyclo:
        k = f.num.shape[-1]
        total = sum(
            (Cyclo.from_root(Fraction(j, k), int(c)) for j, c in enumerate(f.num[x])), Cyclo()
        )
        return total * Fraction(1, k**f.e)

    @staticmethod
    def loop_conv(ext, f: dict, g: dict, weight) -> dict:
        out = {}
        for y in sorted(f):
            for z in sorted(g):
                x = ext.groupoid.compose_or_none(y, z)
                if x is not None:
                    out[x] = f[y] * g[z] if x not in out else out[x] + f[y] * g[z]
        return {x: v * weight for x, v in out.items()}

    @staticmethod
    def loop_projection(ext, f: dict, n: int) -> dict:
        out = {}
        for x in range(ext.dimension):
            t, a = divmod(x, ext.base.n_arrows)
            acc = None
            for j in range(ext.k):
                c = f.get((t + j) % ext.k * ext.base.n_arrows + a)
                if c is not None:
                    term = ext.roots[j * n % ext.k].item() * c
                    acc = term if acc is None else acc + term
            if acc is not None:
                out[x] = acc * (1.0 / ext.k)
        return out

    def test_exact_conv_star_and_projection(self, rng):
        for ext in self.extensions(rng):
            k, m, N = ext.k, ext.base.n_arrows, ext.dimension
            f, fd = self.exact_pair(rng, ext)
            # the mode deltas, q_(n m + a) being e(-tn/k) at (t, a), and the deltas
            q = [
                {t * m + a: Cyclo.from_root(Fraction(-t * n % k, k)) for t in range(k)}
                for n in range(k)
                for a in range(m)
            ]
            ids, one = np.arange(N), Cyclo.from_root(Fraction(0))
            products = reference_oracle.scatter(ext, oracle.mode_product_terms(ext, ids), (N, N))
            for left, right in rng.sample(list(itertools.product(range(N), repeat=2)), 8):
                expected = self.loop_conv(ext, q[left], q[right], Fraction(1, k))
                product = products[left, right]
                assert all(self.as_cyclo(product, x) == expected.get(x, 0) for x in range(N))
            # the stars and projections of both, from their unit entries
            for entries, values in (
                (oracle.mode_delta_entries(ext, ids), q),
                ((ids, ids, 0 * ids), [{x: one} for x in range(N)]),
            ):
                star = reference_oracle.scatter_star(ext, entries, N)
                p = [reference_oracle.scatter_projection(ext, entries, N, n) for n in range(k)]
                for i, gd in enumerate(values):
                    assert all(
                        self.as_cyclo(star[i], ext.groupoid.inv(x)) == gd.get(x, Cyclo()).conjugate()
                        for x in range(N)
                    )
                    for n, x in itertools.product(range(k), range(N)):
                        t, a = divmod(x, m)
                        want = sum(
                            (gd.get((t + j) % k * m + a, Cyclo()).rotated(Fraction(j * n, k))
                             for j in range(k)),
                            Cyclo(),
                        ) * Fraction(1, k)
                        assert self.as_cyclo(p[n][i], x) == want
            # the loop reference embeds base coefficients in mode n: (t, a) -> e(-tn/k) F(a)
            base = reference_oracle.Dense(f.num[: ext.base.n_arrows])
            for n in range(k):
                embedded = reference_oracle.embed_mode(ext, n, base)
                for x in range(N):
                    t, a = divmod(x, m)
                    want = fd.get(a, Cyclo()).rotated(Fraction(-t * n, k))
                    assert self.as_cyclo(embedded, x) == want

    def test_numeric_conv_and_projection_to_the_bit(self, rng):
        for ext in self.extensions(rng):
            N = ext.dimension
            f = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(N)])
            g = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(N)])
            fd = {x: complex(v) for x, v in enumerate(f)}
            gd = {x: complex(v) for x, v in enumerate(g)}
            product = reference_oracle.scan_conv(ext, f, g)
            expected = self.loop_conv(ext, fd, gd, 1.0 / ext.k)
            assert [complex(v) for v in product] == [expected.get(x, 0j) for x in range(N)]
            for n in range(ext.k):
                p = oracle.mode_projection(ext, f, n)
                expected = self.loop_projection(ext, fd, n)
                assert [complex(v) for v in p] == [expected.get(x, 0j) for x in range(N)]
                embedded = oracle.embed_mode(ext, n, f[: ext.base.n_arrows])
                m = ext.base.n_arrows
                expected = [ext.roots[-(x // m) * n % ext.k].item() * fd[x % m] for x in range(N)]
                assert [complex(v) for v in embedded] == expected

    def test_sums_leave_int64_when_they_could_overflow(self):
        # the loop reference adds exact stacks dense
        added, Dense = reference_oracle.combined, reference_oracle.Dense
        big = Dense(np.array([[2**62, 0]]))
        assert added(big, big).num.tolist() == [[2**63, 0]]
        assert added(Dense(-big.num), big, -1).num.tolist() == [[-(2**63), 0]]
        # over a larger denominator the numerators scale by k first
        assert added(big, Dense(np.array([[1, 0]]), 1), -1).num.tolist() == [[2**63 - 1, 0]]

    def test_zero_test_leaves_int64_when_it_could_overflow(self, klein, pauli):
        ext = cyclic_extension(klein, pauli, 2)  # zeta_2 = -1
        big = 2**70
        for D in (
            np.array([[big, big], [big, big + 1], [0, 0]], dtype=object),
            np.array([[3, 3], [3, 2], [0, 0]]),
        ):
            # row i of D as terms keyed i, one int per group: rows 0 and 1
            # hold c (1 + zeta) with c = D[0, 0], and row 1 D[1, 1] - c more at zeta
            key, j, c = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), D[0, 0]
            got = oracle.nonzero_sums(ext, len(D), (key, j, c), (key[3:], j[3:], D[1, 1] - c))
            assert got.tolist() == [False, True, False]
            assert reference_oracle.nonzero_rows(ext, D).tolist() == [False, True, False]


def _klein_pauli():
    g = abelian_group_groupoid((2, 2))
    return g, pauli_cocycle(g)


def test_oracle_imports_nothing_from_the_graded_model():
    # the oracle's agreement with the graded model is evidence only while
    # the two share no code
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"algebra", "extension", "morita", "Cyclo"}
