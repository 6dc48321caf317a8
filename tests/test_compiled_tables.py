"""The groupoid's compiled tables and the walks over them.

A groupoid given its composition as pair arrays must be the groupoid given
the same pairs as a dict, in whatever order the dict is written: the same
pair table, compose array, dict view (in pair order), ``validate`` report
and isotropy quotient, on every bundled fixture, every ``randgen`` family,
broken tables, and mu_k x_w G.  Pair arrays of unequal length, out of order
or with a repeated pair are refused at construction.  The row-block triples
of ``triple_blocks`` are checked against a plain loop.
"""

import random

import numpy as np
import pytest

from gpdext.cli import _fixture_dir, load_spec
from gpdext.cyclic_oracle import CyclicExtension
from gpdext.groupoid import (
    _TRIPLE_BLOCK,
    FiniteGroupoid,
    GroupoidError,
    cyclic_group_groupoid,
    disjoint_union,
    pair_groupoid,
    quotient_by_isotropy,
    symmetric_group_groupoid,
    validate,
)
from gpdext.randgen import _FAMILIES, _MAX_ARROWS_BY_K, random_mu_k_coboundary
from helpers import empty_groupoid

MAPS = ("range_map", "source_map", "inverse_map", "unit_to_arrow")


def rebuilt(g, compose) -> FiniteGroupoid:
    return FiniteGroupoid(
        g.n_units, g.range_map, g.source_map, compose, g.inverse_map, g.unit_to_arrow,
        unit_labels=g.unit_labels, arrow_labels=g.arrow_labels, name=g.name,
    )


def both_forms(g, pairs=None) -> tuple[FiniteGroupoid, FiniteGroupoid]:
    """g built from its pair arrays and from the dict of the same pairs in
    the same order; ``pairs`` (A, B, C) replaces g's own."""
    A, B, C = (np.asarray(x) for x in (pairs or g.pair_table))
    as_dict = dict(zip(zip(A.tolist(), B.tolist()), C.tolist()))
    return rebuilt(g, (A, B, C)), rebuilt(g, as_dict)


def _extensions():
    """mu_k x_w G over the families that test 01 draws at each k."""
    rng = random.Random(23)
    for k in (2, 3, 4, 6):
        for size, build in _FAMILIES:
            if size <= _MAX_ARROWS_BY_K[k]:
                g, seed = build(k)
                w = random_mu_k_coboundary(rng, g, k)
                yield CyclicExtension(g, w if seed is None else w.mul(seed), k).groupoid


def _bases():
    for path in sorted(_fixture_dir().glob("*.json")):
        yield load_spec(None, path.stem)[0].groupoid
    for _, family in _FAMILIES:
        yield family(4)[0]


BASES = list(_bases())
GROUPOIDS = BASES + [empty_groupoid(), *_extensions()]


def same_quotient(g, h):
    (q, proj), (r, proj_r) = quotient_by_isotropy(g), quotient_by_isotropy(h)
    assert proj == proj_r
    assert (q.n_units, q.unit_labels, q.arrow_labels) == (r.n_units, r.unit_labels, r.arrow_labels)
    for field in MAPS:
        assert getattr(q, field).tolist() == getattr(r, field).tolist(), field
    assert list(q.compose_table.items()) == list(r.compose_table.items())


def same_tables(g, h):
    for x, y in zip(g.pair_table, h.pair_table):
        assert x.dtype == y.dtype == np.intp and x.tolist() == y.tolist()
    A, B, _ = g.pair_table
    if ((0 <= A) & (A < g.n_arrows) & (0 <= B) & (B < g.n_arrows)).all():
        assert np.array_equal(g.compose_array, h.compose_array)
    assert list(g.compose_table.items()) == list(h.compose_table.items())
    assert all(type(x) is int for pair in g.compose_table.items() for x in (*pair[0], pair[1]))
    assert validate(g) == validate(h)


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: g.name)
def test_pair_arrays_and_the_dict_give_one_groupoid(g):
    arrays, table = both_forms(g)
    same_tables(arrays, table)
    assert validate(arrays).ok
    same_quotient(arrays, table)


def test_the_extensions_cover_every_order_and_are_built_from_arrays():
    extensions = [g for g in GROUPOIDS if g.name.startswith("mu")]
    assert {g.name.split("x")[0] for g in extensions} == {"mu2", "mu3", "mu4", "mu6"}
    # built from pair arrays, the dict is made only when it is read
    g = pair_groupoid(2)
    ext = CyclicExtension(g, random_mu_k_coboundary(random.Random(0), g, 3), 3)
    assert ext.groupoid._compose_table is None


def broken_tables(g):
    """Pair arrays of g with a changed composite (also out of bounds), a
    deleted pair and an added pair (also outside the arrows), each kept in
    ascending order, three times over."""
    rng = random.Random(f"broken-{g.name}")
    A, B, C = g.pair_table
    n = g.n_arrows
    for _ in range(3):
        i = rng.randrange(len(A))
        changed = C.copy()
        changed[i] = rng.randrange(-1, n + 1)
        keep = np.arange(len(A)) != i
        extra = (rng.randrange(-1, n + 1), rng.randrange(-1, n + 1))
        pairs = dict(zip(zip(A.tolist(), B.tolist()), C.tolist()))
        pairs.setdefault(extra, rng.randrange(n))
        added = [np.array(x) for x in zip(*sorted((a, b, c) for (a, b), c in pairs.items()))]
        yield from ((A, B, changed), (A[keep], B[keep], C[keep]), added)


@pytest.mark.parametrize("g", BASES, ids=lambda g: g.name)
def test_broken_pair_arrays_report_as_the_dict_does(g):
    for case in broken_tables(g):
        arrays, table = both_forms(g, case)
        same_tables(arrays, table)


@pytest.mark.parametrize("g", BASES, ids=lambda g: g.name)
def test_the_order_a_dict_is_written_in_does_not_matter(g):
    # reversed and shuffled dicts give the sorted build's pair table, dict
    # view in pair order, quotient, and validate report of broken tables
    rng = random.Random(f"written-order-{g.name}")
    for case in (g.pair_table, *broken_tables(g)):
        arrays = rebuilt(g, case)
        items = list(arrays.compose_table.items())
        for written in (items[::-1], rng.sample(items, len(items))):
            h = rebuilt(g, dict(written))
            same_tables(arrays, h)
            if case is g.pair_table:
                same_quotient(arrays, h)


@pytest.mark.parametrize(
    "pairs,message",
    [
        (([0, 1], [0, 1], [0]), "of one length"),
        (([0, 1], [1], [0, 1]), "of one length"),
        (([[0, 1]], [[0, 1]], [[0, 1]]), "one-dimensional"),
        (([0, 0, 1], [1, 0, 1], [0, 1, 1]), "not ascending"),
        (([1, 0], [0, 1], [1, 0]), "not ascending"),
        (([0, 1, 1], [0, 1, 1], [0, 1, 1]), r"pair \(1, 1\) repeated"),
        (([0, 0, 1], [0, 0, 1], [0, 0, 1]), r"pair \(0, 0\) repeated"),
    ],
    ids=["short-C", "short-B", "2-d", "B-descends", "A-descends", "repeat-last", "repeat-first"],
)
def test_malformed_pair_arrays_are_refused(pairs, message):
    g = disjoint_union(cyclic_group_groupoid(1), cyclic_group_groupoid(1))
    with pytest.raises(GroupoidError, match=message):
        rebuilt(g, pairs)


def test_the_pair_arrays_are_copies():
    g = pair_groupoid(2)
    A, B, C = (x.copy() for x in g.pair_table)
    h = rebuilt(g, (A, B, C))
    C[0] = 3
    assert h.pair_table[2][0] == g.pair_table[2][0] != 3


# -- the row-block triples -----------------------------------------------------


def loop_triples(g) -> list[tuple]:
    """(a, b, c, ab, bc) for (a, b) in the table in pair order and every c
    with r(c) = s(b), bc being -1 where (b, c) is not in the table."""
    table = g.compose_table
    return [
        (a, b, c, ab, table.get((b, c), -1))
        for (a, b), ab in sorted(table.items())
        for c in g.arrows()
        if g.r(c) == g.s(b)
    ]


def block_triples(g) -> list[tuple]:
    out = []
    for a, b, ab, bc, triple in g.triple_blocks():
        assert triple.shape == bc.shape == (len(a), g.n_arrows)
        assert triple.size <= max(_TRIPLE_BLOCK, g.n_arrows)
        p, c = np.nonzero(triple)
        out += zip(*(x.tolist() for x in (a[p], b[p], c, ab[p], bc[p, c])))
    return out


def _gapped():
    """pair(2) whose table also defines b x where r(x) != s(b): the pairs
    ((0,0), (1,1)) and ((0,1), (0,1)) compose though they should not."""
    g = pair_groupoid(2)
    return rebuilt(g, {**g.compose_table, (0, 3): 0, (1, 1): 1})


TRIPLE_CASES = [family(4)[0] for _, family in _FAMILIES] + [
    disjoint_union(pair_groupoid(2), cyclic_group_groupoid(3)),
    disjoint_union(symmetric_group_groupoid(3), disjoint_union(pair_groupoid(1), pair_groupoid(3))),
    disjoint_union(cyclic_group_groupoid(50), pair_groupoid(2)),  # several blocks
    empty_groupoid(),
    _gapped(),
]


@pytest.mark.parametrize("g", TRIPLE_CASES, ids=lambda g: g.name)
def test_row_block_triples_match_the_loop(g):
    assert block_triples(g) == loop_triples(g)


def test_the_mask_not_a_composite_marks_the_triples():
    g = _gapped()
    off = [
        (b, x)
        for _, b, _, bc, triple in g.triple_blocks()
        for b, row, mask in zip(b.tolist(), bc, triple)
        for x in np.flatnonzero((row >= 0) & ~mask).tolist()
    ]
    assert (0, 3) in off and (1, 1) in off
    assert block_triples(g) == loop_triples(g)


def test_the_blocks_span_several_blocks_on_a_large_table():
    g = disjoint_union(cyclic_group_groupoid(50), pair_groupoid(2))
    assert len(list(g.triple_blocks())) > 1
