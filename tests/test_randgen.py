"""The sample draws of ``randgen`` against ``random.gauss``: the same values
bit for bit, over many seeds and shapes, and the generator left in the same
state."""

import random

import numpy as np
import pytest

from gpdext.cocycle import TwoCocycle, pauli_cocycle
from gpdext.extension import ExtensionAlgebra
from gpdext.groupoid import abelian_group_groupoid, pair_groupoid
from helpers import empty_groupoid
from gpdext.randgen import random_laurent, random_laurents, random_values
from reference_draws import gauss_laurent, gauss_laurents, gauss_values

SEEDS = range(25)
# an empty stack, single values, and the stacks verify-all draws
SHAPES = [(0,), (0, 3, 4), (), (1,), (1, 1), (7,), (5, 3, 1), (5, 3, 4), (10, 2, 9), (2, 3, 36)]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _algebras():
    klein = abelian_group_groupoid((2, 2))
    pair3 = pair_groupoid(3)
    empty = empty_groupoid()
    return [
        ExtensionAlgebra(klein, pauli_cocycle(klein)),
        ExtensionAlgebra(pair3, TwoCocycle.trivial(pair3)),
        ExtensionAlgebra(empty, TwoCocycle.trivial(empty)),
    ]


ALGEBRAS = _algebras()
ALGEBRA_IDS = ["pauli", "pair3", "empty"]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_values_match_gauss(shape):
    for seed in SEEDS:
        drawn, reference = random.Random(seed), random.Random(seed)
        _same_bits(random_values(drawn, shape), gauss_values(reference, shape))
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("ea", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("window", [(0, 0), (0, 5), (-2, 2)], ids=str)
@pytest.mark.parametrize("shape", [(0,), (1,), (10,), (4, 2)], ids=str)
def test_laurent_stacks_match_gauss(ea, window, shape):
    for seed in SEEDS:
        drawn, reference = random.Random(seed), random.Random(seed)
        F, R = random_laurents(drawn, ea, window, shape), gauss_laurents(reference, ea, window, shape)
        assert F.lo == R.lo
        _same_bits(F.values, R.values)
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("ea", ALGEBRAS, ids=ALGEBRA_IDS)
@pytest.mark.parametrize("density", [1.0, 0.6, 0.0])
def test_laurent_matches_gauss(ea, density):
    for seed in SEEDS:
        drawn, reference = random.Random(seed), random.Random(seed)
        for window in ((0, 0), (-1, 2), (0, 5)):
            F = random_laurent(drawn, ea, window, density)
            R = gauss_laurent(reference, ea, window, density)
            assert F.modes.keys() == R.modes.keys()
            for n in F.modes:
                _same_bits(F.modes[n].array(), R.modes[n].array())
        assert drawn.getstate() == reference.getstate()


class _Scripted(random.Random):
    """A generator whose random() returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_a_zero_radius_reads_as_gauss_reads_it():
    # 1 - 0.0 = 1 gives a radius of -0.0, so both parts come out as -0.0
    # times a cosine or sine; gauss adds them to mu = 0 and returns 0.0
    script = [0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.25, 0.5]
    _same_bits(random_values(_Scripted(script), (4,)), gauss_values(_Scripted(script), (4,)))


def test_a_pending_gauss_value_is_refused():
    # after one rng.gauss the generator holds the second value of its pair,
    # which the next rng.gauss would hand out first
    ea = ALGEBRAS[0]
    for draw in (
        lambda rng: random_values(rng, (2, 3)),
        lambda rng: random_laurents(rng, ea, (0, 1), (2,)),
        lambda rng: random_laurent(rng, ea, (0, 1), 1.0),
    ):
        rng = random.Random(3)
        rng.gauss(0, 1)
        with pytest.raises(ValueError, match="pending"):
            draw(rng)
