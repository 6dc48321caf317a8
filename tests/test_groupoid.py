import random

import numpy as np
import pytest

from gpdext.groupoid import (
    FiniteGroupoid,
    GroupoidError,
    abelian_group_groupoid,
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    group_groupoid,
    is_principal,
    is_proper,
    is_transitive,
    isomorphism_violations,
    orbit_units,
    pair_groupoid,
    principal_obstruction,
    quotient_by_isotropy,
    symmetric_group_groupoid,
    validate,
)
from helpers import empty_groupoid


class TestValidate:
    def test_pair_groupoid_clean(self):
        assert validate(pair_groupoid(2)).ok

    def test_group_clean(self):
        assert validate(cyclic_group_groupoid(2)).ok

    def test_broken_compose_cites_offending_arrow(self):
        g = pair_groupoid(2)
        tbl = dict(g.compose_table)
        tbl[(1, 2)] = 3  # (0,1)(1,0) redirected from (0,0) to (1,1)
        broken = FiniteGroupoid(
            2, g.range_map, g.source_map, tbl, g.inverse_map, g.unit_to_arrow,
            arrow_labels=g.arrow_labels, name="broken",
        )
        rep = validate(broken)
        assert not rep.ok
        assert any(v.rule == "inverse-law" and 1 in v.witness for v in rep.violations)
        with pytest.raises(GroupoidError):
            rep.raise_if_failed()

    def test_missing_compose_entry(self):
        g = pair_groupoid(2)
        tbl = dict(g.compose_table)
        del tbl[(1, 2)]
        broken = FiniteGroupoid(
            2, g.range_map, g.source_map, tbl, g.inverse_map, g.unit_to_arrow, name="missing"
        )
        rep = validate(broken)
        assert any(v.rule == "composability" for v in rep.violations)

    def test_empty(self):
        assert validate(empty_groupoid()).ok


class TestPairGroupoid:
    def test_one_unit(self):
        g = pair_groupoid(1)
        assert g.n_units == 1 and g.n_arrows == 1

    def test_two_units(self):
        g = pair_groupoid(2)
        assert g.n_arrows == 4
        assert is_principal(g) and is_transitive(g)

    def test_isotropy_trivial_by_enumeration(self):
        g = pair_groupoid(3)
        assert g.n_arrows == 9
        for u in g.units():
            iso = [a for a in g.arrows() if g.r(a) == u and g.s(a) == u]
            assert iso == [g.unit_arrow(u)]

    def test_zero_rejected(self):
        with pytest.raises(GroupoidError):
            pair_groupoid(0)


class TestCoverGroupoid:
    def test_point_covered_thrice_is_pair_groupoid(self):
        g = cover_groupoid(["x"], [{"x"}, {"x"}, {"x"}])
        assert validate(g).ok
        assert g.n_units == 3 and g.n_arrows == 9
        # explicit isomorphism with the pair groupoid on the set indices
        p3 = pair_groupoid(3)
        arrow_map = []
        for a in g.arrows():
            i, j = g.r(a), g.s(a)  # unit ids equal set indices here
            arrow_map.append(i * 3 + j)
        assert isomorphism_violations(g, p3, arrow_map) == []

    def test_disjoint_cover(self):
        g = cover_groupoid([1, 2], [{1}, {2}])
        assert validate(g).ok
        assert g.n_units == 2 and g.n_arrows == 2

    def test_overlapping_cover(self):
        g = cover_groupoid([1, 2], [{1, 2}, {1}])
        assert validate(g).ok
        assert g.n_units == 3 and g.n_arrows == 5
        cross = [a for a in g.arrows() if g.r(a) != g.s(a)]
        assert len(cross) == 2

    def test_uncovered_point_rejected(self):
        with pytest.raises(GroupoidError):
            cover_groupoid([1, 2], [{1}])

    @pytest.mark.parametrize("seed", range(8))
    def test_always_principal(self, seed):
        rng = random.Random(seed)
        points = list(range(rng.randrange(1, 4)))
        cover = [
            {x for x in points if rng.random() < 0.7} for _ in range(rng.randrange(1, 4))
        ]
        for x in points:
            cover[rng.randrange(len(cover))].add(x)
        g = cover_groupoid(points, cover)
        assert validate(g).ok
        assert is_principal(g)


class TestPredicates:
    def test_pair(self):
        g = pair_groupoid(2)
        assert is_principal(g) and is_transitive(g) and is_proper(g)

    def test_group_is_not_principal(self):
        z2 = cyclic_group_groupoid(2)
        assert not is_principal(z2)
        assert principal_obstruction(z2) is not None
        assert is_proper(z2)

    def test_disjoint_union_not_transitive(self):
        g = disjoint_union(pair_groupoid(2), pair_groupoid(1))
        assert not is_transitive(g)
        assert is_principal(g)
        assert orbit_units(g) == [0, 2]


class TestGroupConstructions:
    def test_klein(self):
        g = abelian_group_groupoid((2, 2))
        assert validate(g).ok and g.n_arrows == 4

    def test_symmetric(self):
        g = symmetric_group_groupoid(3)
        assert validate(g).ok and g.n_arrows == 6
        assert any(
            g.compose_table[a, b] != g.compose_table[b, a] for a in g.arrows() for b in g.arrows()
        )

    def test_bad_table_rejected(self):
        with pytest.raises(GroupoidError):
            group_groupoid([[0, 1], [0, 1]])  # no identity


def test_a_map_breaking_composition_is_named_at_its_first_pair():
    # on Z4, swapping 1 and 2 first breaks 1+1 = 2 in pair order; a dict
    # written in reverse would meet 3+3 = 2 first, but it is sorted
    z4 = cyclic_group_groupoid(4)
    written = dict(reversed(z4.compose_table.items()))
    g = FiniteGroupoid(1, [0] * 4, [0] * 4, written, z4.inverse_map, [0], arrow_labels="0123")
    assert isomorphism_violations(g, z4, [0, 2, 1, 3]) == ["composition not preserved at (1,1)"]


class TestQuotient:
    def test_principal_quotient_is_identity(self):
        g = pair_groupoid(2)
        q, proj = quotient_by_isotropy(g)
        assert validate(q).ok
        assert q.n_arrows == g.n_arrows
        assert isomorphism_violations(g, q, list(proj)) == []

    def test_group_quotient_collapses(self):
        z2 = cyclic_group_groupoid(2)
        q, proj = quotient_by_isotropy(z2)
        assert validate(q).ok
        assert q.n_arrows == 1
        assert proj == (0, 0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pair_groupoid(3),
            lambda: cyclic_group_groupoid(6),
            lambda: symmetric_group_groupoid(3),
            lambda: disjoint_union(cyclic_group_groupoid(2), pair_groupoid(2)),
            lambda: abelian_group_groupoid((2, 2)),
        ],
    )
    def test_quotient_is_valid_and_projection_is_morphism(self, build):
        g = build()
        q, proj = quotient_by_isotropy(g)
        assert validate(q).ok
        for a in g.arrows():
            assert q.r(proj[a]) == g.r(a)
            assert q.s(proj[a]) == g.s(a)
        for (a, b), c in g.compose_table.items():
            assert q.compose_table[proj[a], proj[b]] == proj[c]
        assert is_principal(q)  # collapsing the isotropy leaves none but the units
        assert all(len(q.isotropy(u)) == 1 for u in q.units())


def composable_triples(g):
    """All (a, b, c) with (a, b) in the table and r(c) = s(b): the entries
    of each row block where its mask holds."""
    for a, b, _, _, triple in g.triple_blocks():
        p, c = np.nonzero(triple)
        yield from zip(a[p].tolist(), b[p].tolist(), c.tolist())


def test_associativity_exhaustive_on_samples():
    for g in (pair_groupoid(3), symmetric_group_groupoid(3)):
        for a, b, c in composable_triples(g):
            ab, bc = g.compose_table[a, b], g.compose_table[b, c]
            assert g.compose_table[ab, c] == g.compose_table[a, bc]
