"""The sample laws of `cmd_algebra`, `cmd_decompose` and `cmd_cyclic_oracle`,
checked once over a stack of samples, against the per-sample loops they
replaced, bit for bit.

The stacks are drawn by `randgen.random_values` and `randgen.random_laurents`;
they must hold the values that one `random_element` or `random_laurent` call
per sample draws from the same seed, and leave the generator in the same
state.  Each law is then taken over the stack and one sample at a time: the
C*-identity, associativity, the star-antihomomorphism, the projection laws,
the mode homomorphism, the mode star, the reduced decomposition and the norm
agreement with the oracle.
"""

import random

import numpy as np
import pytest

from gpdext.algebra import TwistedAlgebra
from gpdext.cli import _fixture_dir, load_spec
from gpdext.cocycle import TwoCocycle, normalize
from gpdext.extension import (
    ExtensionAlgebra,
    check_reduced_decomposition,
    cyclic_extension,
    mode_projection,
    oracle_norm_deviation,
)
from gpdext.randgen import random_laurent, random_laurents, random_values
from helpers import random_element
from reference_algebra import loop_reduced_decomposition
from reference_draws import gauss_laurent

SAMPLES = 4
SEEDS = (0, 1)


def _instances():
    """(name, groupoid, normalized cocycle, k, mode window): the bundled
    fixtures, then each with its cocycle's values as complex numbers."""
    out = []
    for path in sorted(_fixture_dir().glob("*.json")):
        spec, _ = load_spec(None, path.stem)
        w = spec.cocycle_or_trivial()
        w = w if w.normalized else normalize(w)[0]
        k = int(spec.params["k"])
        window = tuple(spec.params.get("modes", (-2, 2)))
        out.append((path.stem, spec.groupoid, w, k, window))
    for name, g, w, k, window in list(out):
        numeric = TwoCocycle(g, {p: v.to_complex() for p, v in w.values.items()})
        numeric.check_identity()
        out.append((f"{name}-complex", g, numeric, k, window))
    return out


INSTANCES = _instances()
IDS = [x[0] for x in INSTANCES]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_draws_match_the_per_sample_draws(name, g, w, k, window, seed):
    alg = TwistedAlgebra(g, w, 1)
    ea = ExtensionAlgebra(g, w)
    # cmd_algebra: f, h, x per sample
    stacked, single = random.Random(seed), random.Random(seed)
    values = random_values(stacked, (SAMPLES, 3, g.n_arrows))
    for row in values.reshape(-1, g.n_arrows):
        _same_bits(row, random_element(single, alg).array())
    assert stacked.getstate() == single.getstate()
    # cmd_decompose: F, G per sample; cmd_cyclic_oracle: F per sample on 0..k-1
    for win, shape in ((window, (SAMPLES, 2)), ((0, k - 1), (SAMPLES,))):
        stacked, single, library = random.Random(seed), random.Random(seed), random.Random(seed)
        draws = random_laurents(stacked, ea, win, shape)
        rows = draws.values.reshape(-1, *draws.values.shape[-2:])
        assert draws.lo == win[0] and len(rows) == np.prod(shape)
        for row in rows:
            want = gauss_laurent(single, ea, win, 1.0)
            _same_bits(row, want.on(*win))
            _same_bits(row, random_laurent(library, ea, win).on(*win))
        assert stacked.getstate() == single.getstate() == library.getstate()


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
@pytest.mark.parametrize("power", (0, 1))
def test_algebra_laws_over_a_stack_match_the_per_sample_loop(name, g, w, k, window, power):
    alg = TwistedAlgebra(g, w, power)
    draws = random_values(random.Random(power), (SAMPLES, 3, g.n_arrows))
    f, h, x = (alg.element(draws[:, i]) for i in range(3))
    cstar = alg.reduced_norm(f.star() * f).reduced_norm, alg.reduced_norm(f).reduced_norm
    assoc = (f * h) * x - f * (h * x)
    star = (f * h).star() - h.star() * f.star()
    for i in range(SAMPLES):
        fi, hi, xi = (alg.element(draws[i, j]) for j in range(3))
        want = alg.reduced_norm(fi.star() * fi).reduced_norm, alg.reduced_norm(fi).reduced_norm
        assert (cstar[0][i].hex(), cstar[1][i].hex()) == (want[0].hex(), want[1].hex())
        _same_bits(assoc.values[i], ((fi * hi) * xi - fi * (hi * xi)).values)
        _same_bits(star.values[i], ((fi * hi).star() - hi.star() * fi.star()).values)


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
def test_graded_laws_over_a_stack_match_the_per_sample_loop(name, g, w, k, window):
    ea = ExtensionAlgebra(g, w)
    draws = random_laurents(random.Random(3), ea, window, (SAMPLES, 2))
    F, G = draws[:, 0], draws[:, 1]
    lo, hi = window[0] - 1, window[1] + 1

    def rows(X, a: int, b: int):
        """X's coefficients on the modes a..b, one row per sample."""
        return np.broadcast_to(X.on(a, b), (SAMPLES, b - a + 1, g.n_arrows))

    FG, F_star = rows(F * G, *window), rows(F.star(), *window)
    projections = {n: rows(mode_projection(F, n), lo, hi) for n in range(lo, hi + 1)}
    for i in range(SAMPLES):
        Fi, Gi = F[i], G[i]
        # the projections, each idempotent and together F, on the stack's row
        # and on the sample alone
        for n in range(lo, hi + 1):
            P = mode_projection(Fi, n)
            assert mode_projection(P, n).equals(P)
            _same_bits(projections[n][i], P.on(lo, hi))
        assert sum((mode_projection(Fi, n) for n in range(lo, hi + 1)), ea.zero()).equals(Fi)
        # the graded product and star against each mode's own, sample by sample
        modes = range(window[0], window[1] + 1)
        _same_bits(FG[i], np.stack([(Fi.mode(n) * Gi.mode(n)).array() for n in modes]))
        _same_bits(F_star[i], np.stack([Fi.mode(n).star().array() for n in modes]))


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
def test_reduced_decomposition_over_a_stack_matches_the_per_sample_loop(name, g, w, k, window):
    ea = ExtensionAlgebra(g, w)
    rng = random.Random(5)
    # the stack's own rows, and samples with fewer modes, which form stacks of their own
    F = random_laurents(rng, ea, window, (SAMPLES,))
    elements = [F[i] for i in range(SAMPLES)]
    elements += [random_laurent(rng, ea, window, density=0.6) for _ in range(SAMPLES)]
    cert = check_reduced_decomposition(elements)
    witness = cert.witness and (cert.witness.sample, cert.witness.unit)
    got = (cert.max_norm_deviation, cert.max_unit_deviation, cert.max_residual, witness)
    assert got == loop_reduced_decomposition(elements)


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_norm_agreement_over_an_all_zero_stack_keeps_its_batch_shape(name, g, w, k, window, lead):
    F = ExtensionAlgebra(g, w).stack(0, np.zeros(lead + (k, g.n_arrows), dtype=complex))
    assert F.is_zero
    _same_bits(oracle_norm_deviation(F, cyclic_extension(g, w, k)), np.zeros(lead))


@pytest.mark.parametrize("name,g,w,k,window", INSTANCES, ids=IDS)
def test_norm_agreement_over_a_stack_matches_the_per_sample_loop(name, g, w, k, window):
    ext = cyclic_extension(g, w, k)
    ea = ExtensionAlgebra(g, w)
    F = random_laurents(random.Random(7), ea, (0, k - 1), (SAMPLES,))
    got = oracle_norm_deviation(F, ext)
    _same_bits(got, [oracle_norm_deviation(F[i], ext) for i in range(SAMPLES)])
