import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdext.exact import (
    TWO_PI,
    CircleScalar,
    Cyclo,
    cyclotomic_polynomial,
    solve_mod1,
)

angles = st.fractions(min_value=0, max_value=1, max_denominator=24).map(lambda a: a % 1)

# (conductor d | 60, exponent j, coefficient c) stands for c * e(j / d)
divisors_of_60 = st.sampled_from([d for d in range(1, 61) if 60 % d == 0])
roots = st.tuples(
    divisors_of_60,
    st.integers(0, 59),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
root_sums = st.lists(roots, max_size=4)
angles_60 = st.builds(lambda d, j: Fraction(j, d), divisors_of_60, st.integers(0, 59))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("k", range(2, 13))
def test_full_root_sums_vanish(k):
    s = Cyclo.zero()
    for j in range(k):
        s = s + Cyclo.from_root(Fraction(j, k))
    assert s.is_zero()
    assert abs(s.to_complex()) < 1e-12


def test_partial_root_sums_do_not_vanish():
    s = Cyclo.from_root(Fraction(1, 5)) + Cyclo.from_root(Fraction(2, 5))
    assert not s.is_zero()
    assert (Cyclo.from_root(Fraction(0)) + Cyclo.from_root(Fraction(1, 2))).is_zero()
    assert not (Cyclo.from_root(Fraction(0), 2) + Cyclo.from_root(Fraction(1, 2), 3)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(angles, st.integers(-3, 3)), min_size=1, max_size=5))
def test_cyclo_zero_test_matches_complex_evaluation(terms):
    x = Cyclo.zero()
    for a, c in terms:
        x = x + Cyclo.from_root(a, c)
    assert x.is_zero() == (abs(x.to_complex()) < 1e-9)


def _cyclo(terms) -> tuple[Cyclo, complex]:
    """The sum of the roots in terms, exactly and by complex evaluation."""
    x, z = Cyclo.zero(), 0j
    for d, j, c in terms:
        x = x + Cyclo.from_root(Fraction(j, d), c)
        z += float(c) * cmath.exp(1j * TWO_PI * j / d)
    return x, z


def _assert_representation(x: Cyclo, z: complex):
    assert abs(x.to_complex() - z) < 1e-9
    assert type(x.n) is int and 60 % x.n == 0
    assert type(x.den) is int and x.den >= 1
    for e, c in x.terms.items():
        assert type(e) is int and 0 <= e < x.n
        assert type(c) is int and c != 0
    assert math.gcd(x.den, *x.terms.values()) == 1


@settings(max_examples=60, deadline=None)
@given(root_sums, root_sums, angles_60)
def test_cyclo_representation_invariants(xs, ys, angle):
    (x, zx), (y, zy) = _cyclo(xs), _cyclo(ys)
    _assert_representation(x, zx)
    _assert_representation(x + y, zx + zy)
    _assert_representation(x - y, zx - zy)
    _assert_representation(x * y, zx * zy)
    _assert_representation(x.rotated(angle), zx * cmath.exp(1j * TWO_PI * float(angle)))
    _assert_representation(x.conjugate(), zx.conjugate())


@settings(max_examples=60, deadline=None)
@given(root_sums, root_sums)
def test_cyclo_to_complex_matches_fraction_angles(xs, ys):
    x, y = _cyclo(xs)[0], _cyclo(ys)[0]
    for x in (x, x * y):
        expected = sum(
            (
                float(Fraction(c, x.den)) * cmath.exp(1j * TWO_PI * float(Fraction(e, x.n)))
                for e, c in x.terms.items()
            ),
            0j,
        )
        assert repr(x.to_complex()) == repr(expected)


def test_cyclo_lifts_to_the_lcm_conductor():
    x = Cyclo.from_root(Fraction(1, 2)) + Cyclo.from_root(Fraction(1, 3))
    assert x.n == 6 and x.terms == {3: 1, 2: 1}
    assert Cyclo.from_root(Fraction(1, 4)) * Cyclo.from_root(Fraction(3, 4)) == 1


@settings(max_examples=40, deadline=None)
@given(angles, angles, st.integers(-3, 3), st.integers(-3, 3))
def test_cyclo_ring_laws(a, b, c, d):
    x = Cyclo.from_root(a, c)
    y = Cyclo.from_root(b, d)
    assert (x * y - y * x).is_zero()
    assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) < 1e-12
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-12
    assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-12


@settings(max_examples=40, deadline=None)
@given(angles, angles)
def test_circle_scalar_products_stay_exact(a, b):
    x = CircleScalar(angle=a)
    y = CircleScalar(angle=b)
    z = x * y
    assert z.is_exact
    assert z.angle == (a + b) % 1
    assert abs(z.to_complex() - x.to_complex() * y.to_complex()) < 1e-12
    assert (x * CircleScalar(angle=-a)).is_one()


def test_circle_scalar_keeps_an_angle_in_range_and_reduces_the_rest():
    # a Fraction in [0, 1) is stored as it is; any other angle is reduced mod 1
    for a in (Fraction(0), Fraction(1, 3), Fraction(5, 6)):
        assert CircleScalar(angle=a).angle is a
    for a, want in (
        (Fraction(1), 0),
        (Fraction(5, 4), Fraction(1, 4)),
        (Fraction(-1, 3), Fraction(2, 3)),
    ):
        got = CircleScalar(angle=a).angle
        assert got == want and type(got) is Fraction
    for a, want in ((0, 0), (3, 0), (-1, 0), (0.25, 0.25), (1.75, 0.75)):
        got = CircleScalar(angle=a).angle
        assert got == want and type(got) is type(a)


def test_circle_scalar_approx():
    z = CircleScalar(z=1j)
    assert not z.is_exact
    assert (z * z * z * z).is_one()
    with pytest.raises(ValueError):
        CircleScalar(z=2.0)
    mixed = z * CircleScalar(angle=Fraction(1, 4))
    assert not mixed.is_exact
    assert abs(mixed.to_complex() + 1) < 1e-12


def test_circle_scalar_coerce():
    assert CircleScalar.coerce(1).is_one()
    assert CircleScalar.coerce(-1).angle == Fraction(1, 2)
    assert CircleScalar.coerce("2/3").angle == Fraction(2, 3)
    assert CircleScalar.coerce(Fraction(5, 4)).angle == Fraction(1, 4)
    with pytest.raises(ValueError):
        CircleScalar.coerce(3)


def test_scalar_operators_mix_modes():
    # int, Fraction and Cyclo products and sums stay exact
    assert Fraction(1, 2) * 4 == 2
    assert 1 + Fraction(1, 2) == Fraction(3, 2)
    root = Cyclo.from_root(Fraction(1, 3))
    for x in (root * Fraction(2), Fraction(2) * root, root * 2, 2 * root, root + 1, 1 + root):
        assert isinstance(x, Cyclo)
    assert Fraction(2) * root == root + root
    assert isinstance(root * root, Cyclo) and isinstance(root - Fraction(1, 2), Cyclo)
    # a float or complex operand demotes the result to complex
    mixed = (root * 0.5, 0.5 * root, root * 1j, 1j * root, root + 0.5, 0.5 + root, 1j - root)
    for x in mixed:
        assert isinstance(x, complex)
    assert abs(root * 2j - 2j * root.to_complex()) < 1e-12
    assert abs((1j - root) - (1j - root.to_complex())) < 1e-12
    # bool is the exact zero test
    assert not Cyclo.zero() and Cyclo.one()
    assert not (root + Cyclo.from_root(Fraction(2, 3)) + 1)
    assert root
    # complex() and conjugate()
    assert complex(root) == root.to_complex()
    assert root.conjugate() == Cyclo.from_root(Fraction(2, 3))
    assert abs(complex(root.conjugate()) - complex(root).conjugate()) < 1e-12
    assert (root * root.conjugate()) == 1


class TestSolveMod1:
    def test_scalar_division(self):
        assert solve_mod1([[2]], [Fraction(1, 2)]) == [Fraction(1, 4)]

    def test_wraparound_consistency(self):
        # x - y = 1/2 and y - x = 1/2 agree modulo 1 though not over Q
        x = solve_mod1([[1, -1], [-1, 1]], [Fraction(1, 2), Fraction(1, 2)])
        assert x is not None
        assert (x[0] - x[1]) % 1 == Fraction(1, 2)

    def test_inconsistent(self):
        assert solve_mod1([[1, -1], [1, -1]], [Fraction(1, 2), Fraction(1, 3)]) is None

    def test_zero_row(self):
        assert solve_mod1([[0]], [Fraction(1, 2)]) is None
        assert solve_mod1([[0]], [Fraction(0)]) == [Fraction(0)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=5
        ),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6), min_size=5, max_size=5),
    )
    def test_solutions_verify(self, rows, rhs):
        rhs = [r % 1 for r in rhs[: len(rows)]]
        x = solve_mod1(rows, rhs)
        if x is None:
            return
        for row, w in zip(rows, rhs):
            total = sum(c * xi for c, xi in zip(row, x))
            assert (total - w) % 1 == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=1, max_size=4
        ),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=4), min_size=4, max_size=4),
    )
    def test_never_misses_small_solutions(self, rows, rhs):
        # brute-force oracle: if a solution exists on the 1/12 grid, the
        # solver must not report unsolvable
        from itertools import product

        rhs = [r % 1 for r in rhs[: len(rows)]]
        x = solve_mod1(rows, rhs)
        if x is not None:
            return
        grid = [Fraction(j, 12) for j in range(12)]
        for cand in product(grid, repeat=2):
            if all(
                (sum(c * xi for c, xi in zip(row, cand)) - w) % 1 == 0
                for row, w in zip(rows, rhs)
            ):
                raise AssertionError(f"solver missed the solution {cand}")
