"""The sample draws as ``random.gauss`` makes them, one call per real part
and one per imaginary part.

``randgen`` draws the same values by writing out the Box-Muller formulas of
``random.gauss``.  The loops here are the ones it replaced, and the tests
require its draws to match them bit for bit, with the generator left in the
same state.
"""

import math

import numpy as np


def gauss_values(rng, shape) -> np.ndarray:
    """complex(rng.gauss(0, 1), rng.gauss(0, 1)) per entry, in the C order of
    shape."""
    draws = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(math.prod(shape))]
    return np.array(draws, dtype=complex).reshape(shape)


def gauss_laurent(rng, ext_algebra, window, density: float):
    """One graded element: per mode of the window one rng.random() against
    the density, then, when it is kept, the mode's values arrow by arrow."""
    modes = {}
    for n in range(window[0], window[1] + 1):
        if rng.random() <= density:
            modes[n] = gauss_values(rng, (ext_algebra.groupoid.n_arrows,))
    return ext_algebra.element(modes)


def gauss_laurents(rng, ext_algebra, window, shape):
    """A stack of graded elements of the given batch shape, drawn one after
    another as ``gauss_laurent`` draws them at density 1."""
    lo, hi = window
    m = ext_algebra.groupoid.n_arrows
    rows = []
    for _ in range(math.prod(shape) * (hi - lo + 1)):
        rng.random()
        rows.append(gauss_values(rng, (m,)))
    return ext_algebra.stack(lo, np.array(rows, dtype=complex).reshape(*shape, hi - lo + 1, m))
