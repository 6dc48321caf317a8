"""``validate`` against its loop reference, and one negative control per rule.

Every bundled fixture and every ``randgen`` family is mutated at one point:
a range, source, inverse or unit arrow moved (also out of bounds), a
composite changed, a composable pair deleted or a pair added (also one
outside the arrows).  ``validate`` must report exactly
the violations of ``reference_validate.loop_validate``, in the same order.
"""

import random

import pytest

from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import pauli_cocycle
from gpdext.extension import cyclic_extension
from gpdext.groupoid import (
    FiniteGroupoid,
    abelian_group_groupoid,
    cyclic_group_groupoid,
    group_groupoid,
    pair_groupoid,
    validate,
)
from gpdext.randgen import _FAMILIES
from reference_validate import loop_validate


def rebuild(g, **changes) -> FiniteGroupoid:
    fields = dict(
        n_units=g.n_units,
        range_map=g.range_map,
        source_map=g.source_map,
        compose_table=g.compose_table,
        inverse_map=g.inverse_map,
        unit_to_arrow=g.unit_to_arrow,
        unit_labels=g.unit_labels,
        arrow_labels=g.arrow_labels,
        name=g.name,
    )
    fields.update(changes)
    return FiniteGroupoid(**fields)


def _set(seq, i, value) -> list:
    out = list(seq)
    out[i] = value
    return out


def mutants(g, rng: random.Random):
    """Single-point mutants of g, each kind once per call."""
    n_u, n_a = g.n_units, g.n_arrows
    a, u = rng.randrange(n_a), rng.randrange(n_u)
    table = dict(g.compose_table)
    key = rng.choice(sorted(table))
    yield rebuild(g, range_map=_set(g.range_map, a, rng.randrange(n_u + 1)))
    yield rebuild(g, source_map=_set(g.source_map, a, rng.randrange(n_u + 1)))
    yield rebuild(g, inverse_map=_set(g.inverse_map, a, rng.randrange(n_a + 1)))
    yield rebuild(g, unit_to_arrow=_set(g.unit_to_arrow, u, rng.randrange(-1, n_a + 1)))
    yield rebuild(g, unit_to_arrow=g.unit_to_arrow[:-1])
    yield rebuild(g, compose_table={**table, key: rng.randrange(-1, n_a + 1)})
    yield rebuild(g, compose_table={p: c for p, c in table.items() if p != key})
    extra = (rng.randrange(-1, n_a + 1), rng.randrange(-1, n_a + 1))
    yield rebuild(g, compose_table={**table, extra: table.get(extra, rng.randrange(n_a))})


def _groupoids():
    for path in sorted(_fixture_dir().glob("*.json")):
        yield load_spec(None, path.stem)[0].groupoid
    for _, family in _FAMILIES:
        yield family(4)[0]
    klein = abelian_group_groupoid((2, 2))
    yield cyclic_extension(klein, pauli_cocycle(klein), 2).groupoid
    # a dict written in reverse is sorted at construction, so its violations
    # come in pair order, as the loop reference reads compose_table
    g = pair_groupoid(3)
    yield rebuild(g, compose_table=dict(reversed(g.compose_table.items())), name="pair(3)-reversed")


GROUPOIDS = list(_groupoids())


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: g.name)
def test_validate_matches_the_loop_reference_on_mutants(g):
    assert validate(g).violations == loop_validate(g).violations == []
    rng = random.Random(f"validate-mutants-{g.name}")
    for _ in range(3):
        for m in mutants(g, rng):
            assert validate(m).violations == loop_validate(m).violations


# -- one negative control per rule ----------------------------------------


def rules(g) -> list[tuple[str, tuple]]:
    rep = validate(g)
    assert rep.violations == loop_validate(g).violations
    return [(v.rule, v.witness) for v in rep.violations]


def test_range_out_of_bounds_is_an_index_violation():
    g = pair_groupoid(2)
    assert rules(rebuild(g, range_map=_set(g.range_map, 1, 2))) == [("index", (1,))]


def test_inverse_out_of_bounds_is_an_index_violation():
    g = pair_groupoid(2)
    assert rules(rebuild(g, inverse_map=_set(g.inverse_map, 2, 4))) == [("index", (2,))]


@pytest.mark.parametrize("field", ["source_map", "inverse_map"])
@pytest.mark.parametrize("change", [lambda m: m[:-1], lambda m: (*m, 0)], ids=["short", "long"])
def test_arrow_map_of_wrong_length_is_an_index_violation(field, change):
    g = pair_groupoid(2)
    assert rules(rebuild(g, **{field: change(getattr(g, field))})) == [("index", ())]


def test_unit_arrow_list_of_wrong_length_is_an_index_violation():
    g = pair_groupoid(2)
    assert rules(rebuild(g, unit_to_arrow=[0])) == [("index", ())]


def test_unit_arrow_out_of_bounds_is_an_index_violation():
    g = pair_groupoid(2)
    assert rules(rebuild(g, unit_to_arrow=[0, 9])) == [("index", (1,))]


def test_negative_unit_arrow_is_an_index_violation_not_the_last_arrow():
    g = pair_groupoid(2)
    assert rules(rebuild(g, unit_to_arrow=[0, -1])) == [("index", (1,))]


def test_compose_key_outside_the_arrows_is_an_index_violation():
    g = pair_groupoid(2)
    assert rules(rebuild(g, compose_table={**g.compose_table, (7, 0): 0})) == [("index", (7, 0))]


@pytest.mark.parametrize("composite", [4, -1])
def test_composite_out_of_bounds_is_an_index_violation(composite):
    g = pair_groupoid(2)
    table = {**g.compose_table, (0, 1): composite}
    assert rules(rebuild(g, compose_table=table)) == [("index", (0, 1))]


def test_unit_arrow_off_its_unit_breaks_the_embedding():
    g = pair_groupoid(2)  # arrow 1 is (0,1), arrow 3 is (1,1)
    assert ("unit-embedding", (1,)) in rules(rebuild(g, unit_to_arrow=[0, 1]))


def test_missing_composite_breaks_composability():
    g = pair_groupoid(2)
    table = {p: c for p, c in g.compose_table.items() if p != (1, 2)}
    assert rules(rebuild(g, compose_table=table))[0] == ("composability", (1, 2))


def test_composite_on_a_mismatched_pair_breaks_composability():
    g = pair_groupoid(2)  # s((0,0)) = 0 but r((1,0)) = 1
    found = rules(rebuild(g, compose_table={**g.compose_table, (0, 2): 0}))
    assert found[0] == ("composability", (0, 2))


def test_composite_with_wrong_source_breaks_range_source():
    g = pair_groupoid(2)  # (0,0)(0,1) redirected from (0,1) to (0,0)
    assert ("range-source", (0, 1, 0)) in rules(
        rebuild(g, compose_table={**g.compose_table, (0, 1): 0})
    )


def test_identity_that_moves_an_element_breaks_the_unit_law():
    g = cyclic_group_groupoid(3)
    assert ("unit-law", (1,)) in rules(rebuild(g, compose_table={**g.compose_table, (0, 1): 2}))


def test_inverse_that_is_no_involution():
    g = cyclic_group_groupoid(3)
    assert ("inverse-involution", (1,)) in rules(rebuild(g, inverse_map=[0, 2, 2]))


def test_inverse_that_keeps_range_and_source():
    g = pair_groupoid(2)  # (0,1) made its own inverse
    assert ("inverse-range", (1,)) in rules(rebuild(g, inverse_map=_set(g.inverse_map, 1, 1)))


def test_inverse_that_composes_to_no_unit_breaks_both_inverse_laws():
    g = rebuild(cyclic_group_groupoid(3), inverse_map=[0, 1, 2])
    assert rules(g)[:2] == [("inverse-law", (1,))] * 2
    first, second = validate(g).violations[:2]
    assert "composed with its inverse is not the unit at its range" in first.message
    assert "composed with it is not the unit at its source" in second.message


def test_non_associative_loop_breaks_associativity():
    # an order-5 loop: a unital Latin square that is not associative
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    found = rules(group_groupoid(loop))
    assert found and {rule for rule, _ in found} == {"associativity"}
    a, b, c = found[0][1]
    assert loop[loop[a][b]][c] != loop[a][loop[b][c]]
