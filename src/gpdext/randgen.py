"""Seeded random instances for verification runs.

All drawing goes through a caller-supplied random.Random so batch runs are
reproducible; the library modules themselves stay deterministic and pure.
Instance pools are sized so that validating and decomposing the cyclic
extension mu_k x G stays cheap even at k = 6.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .cocycle import OneCochain, TwoCocycle, bicharacter_cocycle, pauli_cocycle
from .groupoid import (
    FiniteGroupoid,
    abelian_group_groupoid,
    cover_groupoid,
    cyclic_group_groupoid,
    disjoint_union,
    pair_groupoid,
    symmetric_group_groupoid,
)


def _klein_with_pauli(k: int):
    g = abelian_group_groupoid((2, 2))
    return g, (pauli_cocycle(g) if k % 2 == 0 else None)


def _abelian_with_bicharacter(orders):
    def build(k: int):
        g = abelian_group_groupoid(orders)
        return g, bicharacter_cocycle(g, orders, k)

    return build


def _plain(builder):
    return lambda k: (builder(), None)


# families keyed by the arrow-count they produce; drawn per k so that
# k^3 * |composable triples| stays bounded
_FAMILIES = [
    (2, _plain(lambda: cyclic_group_groupoid(2))),
    (3, _plain(lambda: cyclic_group_groupoid(3))),
    (4, _plain(lambda: cyclic_group_groupoid(4))),
    (4, _klein_with_pauli),
    (4, _abelian_with_bicharacter((2, 2))),
    (4, _plain(lambda: pair_groupoid(2))),
    (5, _plain(lambda: disjoint_union(pair_groupoid(2), pair_groupoid(1)))),
    (6, _plain(lambda: cyclic_group_groupoid(6))),
    (6, _plain(lambda: symmetric_group_groupoid(3))),
    (8, _plain(lambda: disjoint_union(pair_groupoid(2), pair_groupoid(2)))),
    (8, _abelian_with_bicharacter((2, 4))),
    (9, _plain(lambda: pair_groupoid(3))),
    (9, _abelian_with_bicharacter((3, 3))),
    (8, _plain(lambda: cover_groupoid([1, 2], [{1, 2}, {1}, {2}]))),
    (12, _plain(lambda: cyclic_group_groupoid(12))),
    (12, _abelian_with_bicharacter((2, 6))),
]

_MAX_ARROWS_BY_K = {2: 12, 3: 12, 4: 9, 6: 6}


def draw_oracle_instance(rng: random.Random, k: int):
    """A groupoid (at most 12 arrows) together with a normalized mu_k-valued
    cocycle: a random coboundary times, when the family carries one, a
    bilinear seed cocycle that is not a coboundary."""
    cap = _MAX_ARROWS_BY_K.get(k, 6)
    pool = [f for size, f in _FAMILIES if size <= cap]
    g, seed = rng.choice(pool)(k)
    w = random_mu_k_coboundary(rng, g, k)
    if seed is not None and rng.random() < 0.7:
        w = w.mul(seed)
    rep = w.check_identity()
    assert rep.ok
    assert w.normalized
    return g, w


def random_mu_k_coboundary(rng: random.Random, g: FiniteGroupoid, k: int) -> TwoCocycle:
    b = random_unit_cochain(rng, g, k)
    w = b.coboundary()
    return w


def random_unit_cochain(rng: random.Random, g: FiniteGroupoid, k: int) -> OneCochain:
    """Random mu_k-valued cochain equal to 1 on unit arrows, so its
    coboundary is normalized."""
    units = set(g.unit_to_arrow)
    return OneCochain.from_angles(g, k, [0 if a in units else rng.randrange(k) for a in g.arrows()])


def random_laurent(rng: random.Random, ext_algebra, window: tuple[int, int], density: float = 1.0):
    modes = {}
    for n in range(window[0], window[1] + 1):
        if rng.random() <= density:
            modes[n] = random_values(rng, (ext_algebra.groupoid.n_arrows,))
    return ext_algebra.element(modes)


def _gaussians(rng: random.Random, count: int) -> list[complex]:
    """``count`` values complex(rng.gauss(0, 1), rng.gauss(0, 1)), bit for bit
    and leaving rng in the same state: each is one Box-Muller pair, made from
    two rng.random() draws by the formulas of random.gauss with the libm
    functions of ``math`` (numpy's vectorised ones may round differently).
    ``0.0 +`` turns -0.0 into 0.0, as gauss's ``mu + z * sigma`` does.  A
    generator holding gauss's pending second value is refused: its stream
    is half a value ahead."""
    if rng.gauss_next is not None:
        raise ValueError("the generator holds a pending rng.gauss value; reseed it first")
    draw = rng.random
    out = []
    for _ in range(count):
        x = draw() * math.tau
        r = math.sqrt(-2.0 * math.log(1.0 - draw()))
        out.append(complex(0.0 + math.cos(x) * r, 0.0 + math.sin(x) * r))
    return out


def random_values(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Complex values complex(rng.gauss(0, 1), rng.gauss(0, 1)) in the C order
    of shape: a stack of elements' coefficients, drawn one element after
    another and, within one, arrow by arrow."""
    return np.array(_gaussians(rng, math.prod(shape)), dtype=complex).reshape(shape)


def random_laurents(rng: random.Random, ext_algebra, window: tuple[int, int], shape):
    """A stack of the given batch shape of graded elements, drawn one after
    another as random_laurent draws them at density 1: per element and mode
    one rng.random(), then the mode's coefficients."""
    lo, hi = window
    m = ext_algebra.groupoid.n_arrows
    values = []
    for _ in range(math.prod(shape) * (hi - lo + 1)):
        rng.random()  # random_laurent's draw against its density
        values += _gaussians(rng, m)
    return ext_algebra.stack(lo, np.array(values, dtype=complex).reshape(*shape, hi - lo + 1, m))

