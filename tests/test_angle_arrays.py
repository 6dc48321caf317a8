"""Cocycles made by array operations against the ones their values make.

``coboundary``, ``mul``, ``conj``, ``bicharacter_cocycle`` and ``normalize``
compute int angle arrays; each result must be the cocycle that a document
with its values would build: the same conductor, table and dtype, values
in pair order, and the same flags.  A hash over seeded oracle draws pins
every drawn value.  The operations make no ``CircleScalar`` until
``values`` is read, and ``solve_mod1`` on ints answers as the ``Fraction``
elimination of ``reference_cocycle`` does.
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import (
    OneCochain,
    TwoCocycle,
    bicharacter_cocycle,
    normalize,
    pauli_cocycle,
    trivialize_principal,
)
from gpdext.exact import CircleScalar, solve_mod1
from gpdext.extension import ExtensionAlgebra, decompose
from gpdext.groupoid import abelian_group_groupoid, cyclic_group_groupoid, pair_groupoid
from gpdext.randgen import _FAMILIES, draw_oracle_instance, random_mu_k_coboundary, random_unit_cochain
from helpers import empty_groupoid, random_exact_cochain
from reference_cocycle import fraction_solve_mod1


def _pair_order(w) -> list:
    A, B, _ = w.base.pair_table
    return [(a, b) for a, b in zip(A.tolist(), B.tolist()) if w.table[a, b] != 0]


def _assert_twin(w, checked: bool):
    """w is the cocycle its values make, with the flags an operation sets."""
    twin = TwoCocycle(w.base, dict(w.values))
    assert w.conductor == twin.conductor
    assert w.table.dtype == twin.table.dtype and np.array_equal(w.table, twin.table)
    assert not w.table.flags.writeable
    assert list(w.values) == _pair_order(w)
    assert list(w.values.items()) == list(twin.values.items())
    assert all(v.angle == Fraction(int(w.table[p]), w.conductor) for p, v in w.values.items())
    assert w.identity_checked is checked
    assert w.normalized == twin.normalized


def _assert_cochain_twin(b):
    twin = OneCochain(b.base, dict(b.values))
    assert list(b.values) == sorted(b.values)
    assert list(b.values.items()) == list(twin.values.items())


def _made_from(w, cochains) -> list:
    """(cocycle, identity_checked) for what each operation makes from w and
    the cochains."""
    made = [(w.conj(), False), (w.mul(w), False), (w.mul(w.conj()), False)]
    for b in cochains:
        _assert_cochain_twin(b)
        db = b.coboundary()
        made += [(db, True), (w.mul(db), False), (db.mul(w).conj(), False)]
    if w.check_identity().ok:
        w2, b = normalize(w)
        _assert_cochain_twin(b)
        made += [(w2, True), (b.coboundary(), True)]
    return made


def _cases():
    """(name, cocycle, cochains): the bundled fixtures' cocycles and every
    randgen family's at k = 2, 3, 4, 6, with a random mu_k cochain and one
    of exact angles; and Z2 and Z3 over conductors of 2**31 and more."""
    rng = random.Random(7)
    specs = [load_spec(None, path.stem) for path in sorted(_fixture_dir().glob("*.json"))]
    for k in (2, 3, 4, 6):
        for spec, source in specs:
            g, w = spec.groupoid, spec.cocycle_or_trivial()
            yield f"{source} k={k}", w, [random_unit_cochain(rng, g, k), random_exact_cochain(rng, g)]
        for i, (_, family) in enumerate(_FAMILIES):
            g, seed = family(k)
            w = random_mu_k_coboundary(rng, g, k)
            cochains = [random_unit_cochain(rng, g, k), random_exact_cochain(rng, g)]
            yield f"family {i} ({g.name}) k={k}", w if seed is None else w.mul(seed), cochains
    z2, z3 = cyclic_group_groupoid(2), cyclic_group_groupoid(3)
    for p in (2**31, 2**61 - 1, 2**89 - 1):
        yield f"Z2 over {p}", TwoCocycle(z2, {(1, 1): Fraction(p - 1, p)}), [OneCochain(z2, {1: Fraction(1, p)})]
        w = TwoCocycle(z3, {(1, 1): Fraction(1, p), (2, 2): Fraction(2, 3)})
        yield f"Z3 over {3 * p}", w, [OneCochain(z3, {1: Fraction(1, 3), 2: Fraction(3, p)})]


CASES = list(_cases())


@pytest.mark.parametrize("name,w,cochains", CASES, ids=[name for name, _, _ in CASES])
def test_array_operations_make_the_cocycle_their_values_make(name, w, cochains):
    for made, checked in _made_from(w, cochains):
        _assert_twin(made, checked)


def test_bicharacters_are_the_cocycles_their_values_make():
    rng = random.Random(3)
    for _, family in _FAMILIES:
        for k in (2, 3, 4, 6):
            _, seed = family(k)
            if seed is not None:
                _assert_twin(seed, True)
                _assert_twin(seed.mul(random_mu_k_coboundary(rng, seed.base, k)), False)
    for orders, k in (((3, 6), 3), ((4, 6), 12), ((5,), 5), ((2, 3, 4), 2)):
        _assert_twin(bicharacter_cocycle(abelian_group_groupoid(orders), orders, k), True)


# sha256 over 120 draws of randgen.draw_oracle_instance from rng seed 5, k
# cycling through 2, 3, 4, 6: per draw the groupoid's name, k, the conductor,
# the table's bytes and the values as (a, b, "p/q") in order
DRAWS_SHA256 = "9e585f5504042acb2acaac00e5c8371a632785eaa67607de4d23fd7b91d17733"


def test_seeded_oracle_draws_are_pinned():
    rng, h = random.Random(5), hashlib.sha256()
    for i in range(120):
        k = (2, 3, 4, 6)[i % 4]
        g, w = draw_oracle_instance(rng, k)
        values = [(a, b, str(v.angle)) for (a, b), v in w.values.items()]
        h.update(repr((g.name, k, w.conductor, w.table.tobytes(), values)).encode())
    assert h.hexdigest() == DRAWS_SHA256


def test_array_operations_make_no_circle_scalar(monkeypatch):
    # a coboundary on pair(11) has 1 331 composable pairs; neither drawing
    # it nor its product, conjugate, normalization and trivialization
    # builds a CircleScalar per pair; reading values builds one per angle
    made = []
    init = CircleScalar.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    g = pair_groupoid(11)
    monkeypatch.setattr(CircleScalar, "__init__", counted)
    w = random_mu_k_coboundary(random.Random(1), g, 6)
    assert len(made) == 0
    made_by = {"mul": w.mul(w), "conj": w.conj(), "normalize": normalize(w)[0]}
    assert trivialize_principal(w).coboundary().pointwise_equal(w)
    assert len(made) == 0
    for v in (w, *made_by.values()):
        A, B, _ = g.pair_table
        want = {
            (a, b): Fraction(t, v.conductor)
            for a, b, t in zip(A.tolist(), B.tolist(), v.table[A, B].tolist())
            if t
        }
        before = len(made)
        assert {p: x.angle for p, x in v.values.items()} == want and want
        assert all(isinstance(x, CircleScalar) for x in v.values.values())
        # one per distinct angle, on first read only
        assert len(made) - before == len(set(want.values()))


def test_a_cochain_of_angles_is_held_over_its_least_conductor():
    g = cyclic_group_groupoid(4)
    b = OneCochain.from_angles(g, 12, [0, 3, 6, 9])
    assert b.conductor == 4 and b.table.tolist() == [0, 1, 2, 3]
    assert list(b.values.items()) == list(OneCochain(g, {1: Fraction(1, 4), 2: "1/2", 3: "3/4"}).values.items())
    b = OneCochain.from_angles(g, 2**61 - 1, [0, 0, 0, 5])
    assert b.conductor == 2**61 - 1 and b.table.dtype == object
    _assert_twin(b.coboundary(), True)
    assert OneCochain.from_angles(g, 6, [0] * 4).conductor == 1


def _twist_paths():
    """(name, cocycle) reaching each path of ``twists``: the roots of pauli,
    a numeric copy of it, and exact ones without roots."""
    klein = abelian_group_groupoid((2, 2))
    pauli = pauli_cocycle(klein)
    yield "pauli", pauli
    yield "pauli-complex", TwoCocycle(klein, {p: v.to_complex() for p, v in pauli.values.items()})
    yield "empty-trivial", TwoCocycle.trivial(empty_groupoid())
    z2 = cyclic_group_groupoid(2)
    yield "Z2-conductor-5", TwoCocycle(z2, {(1, 1): Fraction(1, 5)})
    yield "Z2-conductor-2**61-1", TwoCocycle(z2, {(1, 1): Fraction(1, 2**61 - 1)})


TWIST_PATHS = list(_twist_paths())


@pytest.mark.parametrize("name,w", TWIST_PATHS, ids=[name for name, _ in TWIST_PATHS])
def test_no_modes_twist_to_an_empty_stack(name, w):
    pairs = len(w.base.pair_table[0])
    assert (w.roots is not None) == (name == "pauli")
    empty = w.twists([])
    assert empty.shape == (0, pairs) and empty.dtype == complex
    assert w.twists(range(0)).shape == (0, pairs)
    # the zero element has no modes, and decomposes to no norms
    report = decompose(ExtensionAlgebra(w.base, w).element({}))
    assert report.mode_norms == {} and report.extension_norm == 0.0
    assert report.attained_mode is None


def _random_system(rng: random.Random):
    """A small integer system with zero rows and columns now and then, and
    a right side that is either A x mod 1 for a random x or random."""
    m, n = rng.randrange(0, 7), rng.randrange(1, 6)
    rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.15:
            rows[i] = [0] * n
    for j in range(n):
        if rng.random() < 0.15:
            for r in rows:
                r[j] = 0
    if rng.random() < 0.5:
        x = [Fraction(rng.randrange(12), 12) for _ in range(n)]
        rhs = [sum(c * t for c, t in zip(r, x)) % 1 for r in rows]
    else:
        rhs = [Fraction(rng.randrange(60), rng.choice((1, 2, 3, 4, 5, 6, 12, 60))) % 1 for _ in rows]
    return rows, rhs


def test_the_int_solver_answers_as_the_fraction_one_on_random_systems():
    rng = random.Random(2024)
    answers = {"solved": 0, "none": 0}
    for _ in range(600):
        rows, rhs = _random_system(rng)
        got = solve_mod1(rows, rhs)
        assert got == fraction_solve_mod1(rows, rhs)
        answers["none" if got is None else "solved"] += 1
        if got is not None:
            assert all(isinstance(x, Fraction) and 0 <= x < 1 for x in got)
    assert min(answers.values()) > 100


def _coboundary_system(w):
    """The rows and right side ``solve_coboundary`` hands to ``solve_mod1``."""
    g = w.base
    A, B, C = g.pair_table
    rows = np.zeros((len(A), g.n_arrows), dtype=np.int64)
    for sign, x in ((1, A), (1, B), (-1, C)):
        np.add.at(rows, (np.arange(len(A)), x), sign)
    return rows.tolist(), [Fraction(x, w.conductor) for x in w.table[A, B].tolist()]


def _coboundary_systems():
    rng = random.Random(5)
    for path in sorted(_fixture_dir().glob("*.json")):
        yield path.stem, load_spec(None, path.stem)[0].cocycle_or_trivial()
    for i, (_, family) in enumerate(_FAMILIES):
        for k in (2, 3, 4, 6):
            g, seed = family(k)
            w = random_mu_k_coboundary(rng, g, k)
            yield f"family{i}-k{k}", w if seed is None else w.mul(seed)
    z3 = cyclic_group_groupoid(3)
    p = 2**61 - 1
    yield "Z3-conductor-3p", OneCochain(z3, {1: Fraction(1, 3), 2: Fraction(5, p)}).coboundary()


SYSTEMS = list(_coboundary_systems())


@pytest.mark.parametrize("name,w", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_the_int_solver_answers_as_the_fraction_one_on_coboundary_systems(name, w):
    rows, rhs = _coboundary_system(w)
    assert solve_mod1(rows, rhs) == fraction_solve_mod1(rows, rhs)
    if name == "Z3-conductor-3p":
        assert w.conductor == 3 * (2**61 - 1) and solve_mod1(rows, rhs) is not None


def test_a_numeric_cocycle_normalizes_off_its_values():
    # the normalizing cochain of a numeric cocycle holds its stored values
    # at (unit at r(a), a), bit for bit; the exact one reads the same angles
    g = abelian_group_groupoid((2, 2))
    w = pauli_cocycle(g).mul(OneCochain(g, {a: Fraction(a + 1, 5) for a in g.arrows()}).coboundary())
    numeric = TwoCocycle(g, {p: v.to_complex() for p, v in w.values.items()})
    w2, b = normalize(numeric)
    assert not w2.is_exact and w2.normalized and b.conductor is None
    units = g.unit_to_arrow[g.range_map].tolist()
    at_units = [(a, numeric.value(u, a)) for a, u in enumerate(units)]
    assert list(b.values.items()) == [(a, v) for a, v in at_units if not v.is_one()]
    assert all(b.values[a].z == v.z for a, v in at_units if not v.is_one())
    exact2, c = normalize(w)
    assert w2.pointwise_equal(exact2)
    want = [(a, w.value(u, a)) for a, u in enumerate(units)]
    assert list(c.values.items()) == [(a, v) for a, v in want if not v.is_one()] and c.values


def test_normalize_divides_out_the_values_at_the_range_unit():
    # b(a) = w(unit at r(a), a) on a groupoid whose unit arrows carry
    # distinct values, so that w(a, unit at s(a)) would be another cochain
    g = pair_groupoid(3)
    exact = OneCochain(g, {a: Fraction(a + 1, 7) for a in g.arrows()}).coboundary()
    numeric = TwoCocycle(g, {p: v.to_complex() for p, v in exact.values.items()})
    r = g.unit_to_arrow[g.range_map].tolist()
    for w in (exact, numeric):
        w2, b = normalize(w)
        assert w2.normalized and not w.normalized
        assert all(b.value(a) == w.value(u, a) for a, u in enumerate(r))
