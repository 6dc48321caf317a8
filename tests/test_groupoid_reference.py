"""The orbits, the principality witness and the isotropy quotient against
their loop references, field by field.

The groupoids are every bundled fixture, every ``randgen`` family,
disjoint unions and covers, groupoids whose unit and arrow ids are shuffled
so that orbits interleave, and non-principal groupoids with isotropy at
several units, so that the witness order is tested.
"""

import random

import numpy as np
import pytest

from gpdext import cyclic_oracle as oracle
from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import TwoCocycle, pauli_cocycle
from gpdext.extension import cyclic_extension
from gpdext.groupoid import (
    FiniteGroupoid,
    GroupoidError,
    abelian_group_groupoid,
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    is_transitive,
    least_units,
    orbit_units,
    pair_groupoid,
    principal_obstruction,
    quotient_by_isotropy,
    symmetric_group_groupoid,
    validate,
)
from gpdext.randgen import _FAMILIES
from helpers import empty_groupoid
from reference_groupoid import (
    loop_orbit_decomposition,
    loop_orbit_units,
    loop_principal_obstruction,
    loop_quotient_by_isotropy,
    loop_quotient_matches_base,
)

MAPS = ("range_map", "source_map", "inverse_map", "unit_to_arrow")


def relabelled(g, units, arrows, name=None) -> FiniteGroupoid:
    """g with unit u renamed units[u] and arrow a renamed arrows[a]."""
    rng, src, inv = ([0] * g.n_arrows for _ in range(3))
    for a in g.arrows():
        x = arrows[a]
        rng[x], src[x], inv[x] = units[g.r(a)], units[g.s(a)], arrows[g.inv(a)]
    unit_to_arrow = [0] * g.n_units
    for u in g.units():
        unit_to_arrow[units[u]] = arrows[g.unit_arrow(u)]
    compose = {(arrows[a], arrows[b]): arrows[c] for (a, b), c in g.compose_table.items()}
    return FiniteGroupoid(
        g.n_units, rng, src, compose, inv, unit_to_arrow, name=name or f"{g.name}~"
    )


def shuffled(g, seed: int) -> FiniteGroupoid:
    rng = random.Random(seed)
    units, arrows = list(g.units()), list(g.arrows())
    rng.shuffle(units)
    rng.shuffle(arrows)
    return relabelled(g, units, arrows, f"{g.name}~{seed}")


def pair_times_cyclic(n: int, m: int, table=None) -> FiniteGroupoid:
    """pair(n) x Z_m: arrows (i, j, t) with (i, j, t)(j, l, s) = (i, l, t + s),
    so that every unit has the isotropy group Z_m.  ``table`` edits the
    composition, keyed by the cells of the factors."""
    idx = {cell: x for x, cell in enumerate(
        (i, j, t) for i in range(n) for j in range(n) for t in range(m)
    )}
    compose = {
        ((i, j, t), (j, l, s)): (i, l, (t + s) % m)
        for (i, j, t) in idx for l in range(n) for s in range(m)
    }
    compose.update(table or {})
    return FiniteGroupoid(
        n,
        [i for i, _, _ in idx],
        [j for _, j, _ in idx],
        {(idx[a], idx[b]): idx[c] for (a, b), c in compose.items()},
        [idx[(j, i, -t % m)] for i, j, t in idx],
        [idx[(u, u, 0)] for u in range(n)],
        name=f"pair({n})xZ{m}",
    )


def _groupoids():
    for path in sorted(_fixture_dir().glob("*.json")):
        yield load_spec(None, path.stem)[0].groupoid
    for _, family in _FAMILIES:
        yield family(4)[0]
    yield empty_groupoid()
    yield disjoint_union(cyclic_group_groupoid(2), pair_groupoid(2))
    yield disjoint_union(
        pair_groupoid(2), disjoint_union(cyclic_group_groupoid(3), pair_groupoid(1))
    )
    yield disjoint_union(symmetric_group_groupoid(3), abelian_group_groupoid((2, 2)))
    yield cover_groupoid([1, 2, 3], [{1, 2}, {2, 3}, {3}])
    yield cover_groupoid(["x", "y"], [{"x"}, {"x", "y"}, {"y"}])
    # the unit ids of two orbits interleave: 0 and 2 in one, 1 and 3 in the other
    yield relabelled(
        disjoint_union(pair_groupoid(2), pair_groupoid(2)), [0, 2, 1, 3], range(8), "interleaved"
    )
    # isotropy at several units, the witness at a later unit having a lower id
    yield relabelled(
        disjoint_union(cyclic_group_groupoid(2), cyclic_group_groupoid(3)), [1, 0], range(5),
        "Z2+Z3-units-swapped",
    )
    yield pair_times_cyclic(2, 2)
    yield pair_times_cyclic(3, 2)
    pair2 = pair_groupoid(2)
    yield cyclic_extension(pair2, TwoCocycle.trivial(pair2), 3).groupoid
    klein = abelian_group_groupoid((2, 2))
    yield cyclic_extension(klein, pauli_cocycle(klein), 2).groupoid
    for seed, g in enumerate([
        pair_times_cyclic(3, 2),
        disjoint_union(
            cyclic_group_groupoid(3), disjoint_union(pair_groupoid(2), symmetric_group_groupoid(3))
        ),
        disjoint_union(pair_groupoid(3), pair_times_cyclic(2, 3)),
        cover_groupoid([1, 2, 3], [{1, 2}, {2, 3}, {1, 3}]),
    ]):
        yield shuffled(g, seed)


GROUPOIDS = list(_groupoids())


def _all_ints(x) -> bool:
    if isinstance(x, tuple):
        return all(map(_all_ints, x))
    return type(x) is int


def test_the_cases_are_groupoids_with_the_shapes_they_claim():
    assert all(validate(g).ok for g in GROUPOIDS)
    shapes = [(len(orbit_units(g)), principal_obstruction(g) is None) for g in GROUPOIDS]
    assert (2, True) in shapes and (2, False) in shapes and (1, False) in shapes
    by_name = {g.name: g for g in GROUPOIDS}
    assert least_units(by_name["interleaved"]).tolist() == [0, 1, 0, 1]
    # the first non-unit isotropy arrow by id alone is 1, at unit 1
    assert principal_obstruction(by_name["Z2+Z3-units-swapped"]) == 3


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: g.name)
def test_orbits_match_the_union_find(g):
    want = loop_orbit_decomposition(g)
    assert least_units(g).tolist() == [want.orbits[i][0] for i in want.orbit_of]
    iso = tuple(map(g.isotropy, g.units()))
    assert iso == want.isotropy and _all_ints(iso)
    units = orbit_units(g)
    assert units == loop_orbit_units(g) and _all_ints(tuple(units))
    assert is_transitive(g) == (len(want.orbits) <= 1)


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: g.name)
def test_principal_obstruction_matches_the_walk(g):
    got = principal_obstruction(g)
    assert got == loop_principal_obstruction(g)
    assert got is None or type(got) is int


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: g.name)
def test_quotient_matches_the_loop(g):
    (q, proj), (want, want_proj) = quotient_by_isotropy(g), loop_quotient_by_isotropy(g)
    assert proj == want_proj and _all_ints(proj)
    assert (q.n_units, q.n_arrows, q.name) == (want.n_units, want.n_arrows, want.name)
    assert (q.unit_labels, q.arrow_labels) == (want.unit_labels, want.arrow_labels)
    for field in MAPS:
        assert getattr(q, field).tolist() == getattr(want, field).tolist(), field
    assert list(q.compose_table.items()) == list(want.compose_table.items())
    assert validate(q).ok and principal_obstruction(q) is None


PRINCIPAL = [g for g in GROUPOIDS if g.n_arrows and principal_obstruction(g) is None]


@pytest.mark.parametrize("g", PRINCIPAL, ids=lambda g: g.name)
def test_the_oracle_quotient_check_matches_the_loop(g, monkeypatch):
    # the true projection, one arrow moved into the next class at either
    # end, and two classes swapped
    ext = cyclic_extension(g, TwoCocycle.trivial(g), 3)
    q, proj = quotient_by_isotropy(ext.groupoid)
    moved = [proj[:x] + ((proj[x] + 1) % q.n_arrows,) + proj[x + 1 :] for x in (0, len(proj) - 1)]
    swapped = tuple({0: 1, 1: 0}.get(c, c) for c in proj)
    for case in [proj, *moved, swapped]:
        monkeypatch.setattr(oracle, "quotient_by_isotropy", lambda _, case=case: (q, case))
        assert oracle.quotient_matches_base(ext) == loop_quotient_matches_base(ext, q, case)
    assert oracle.quotient_matches_base(ext) != [] or q.n_arrows == 1


def test_a_class_overlapping_another_is_not_a_groupoid():
    # (0,1,1)(1,1,1) = (0,1,1) puts (0,1,1) in a class of its own, though it
    # is (0,1,0)(1,1,1), in the class of (0,1,0)
    g = pair_times_cyclic(2, 2, {((0, 1, 1), (1, 1, 1)): (0, 1, 1)})
    with pytest.raises(GroupoidError, match="isotropy classes are inconsistent"):
        quotient_by_isotropy(g)


def test_a_product_in_two_classes_is_not_a_groupoid():
    # [(0,1)][(1,0)] holds (0,0,0) and, through (0,1,1)(1,0,0), also (0,1,0)
    g = pair_times_cyclic(2, 2, {((0, 1, 1), (1, 0, 0)): (0, 1, 0)})
    with pytest.raises(GroupoidError, match="quotient composition not well defined"):
        quotient_by_isotropy(g)
    with pytest.raises(GroupoidError, match="quotient composition not well defined"):
        loop_quotient_by_isotropy(g)


@pytest.mark.parametrize("field", MAPS)
def test_the_maps_are_read_only_intp_arrays_of_their_own(field):
    given = {f: list(getattr(pair_groupoid(2), f)) for f in MAPS}
    g = FiniteGroupoid(2, compose_table=pair_groupoid(2).compose_table, **given)
    m = getattr(g, field)
    assert m.dtype == np.intp
    with pytest.raises(ValueError):
        m[0] = 1
    given[field][0] = 1
    assert m[0] != 1
    assert type(g.r(0)) is type(g.s(0)) is type(g.inv(0)) is type(g.unit_arrow(0)) is int
