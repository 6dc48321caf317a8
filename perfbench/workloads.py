"""The four benchmark workloads.

Every workload turns a seed into a fixed pool of items during set-up.  An
item is one unit of work that ends in a verdict; its ``run`` callable does
the work through the public gpdext API and returns ``None`` when the verdict
is right, or a one-line reason when it is wrong.  A timed run repeats whole
passes over the pool, so every run measures the same mix of work and only
the number of passes depends on speed.

Pools are stratified over the structure that decides an item's cost (the
groupoid family and k, the conductor, the ladder rung), and the seed draws
everything else (cocycle values, sample elements, rotations, scalars).  A
pool drawn entirely at random would let the seed decide the mix: single
test-01 instances range from 3 ms to 1.2 s, so one run's throughput would
say more about its seed than about the code.

Algebras, extensions and elements are built inside the timed item from
plain coefficient dicts.  Objects such as ``TwistedAlgebra`` cache their
certificates, and reusing them across passes would time the cache instead
of the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from gpdext.algebra import TwistedAlgebra
from gpdext.cli import cmd_verify_all, load_spec
from gpdext.cocycle import bicharacter_cocycle
from gpdext.cyclic_oracle import faithfulness_rank
from gpdext.exact import Cyclo
from gpdext.extension import (
    ExtensionAlgebra,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    intertwine_check,
    oracle_norm_deviation,
)
from gpdext.groupoid import abelian_group_groupoid, pair_groupoid, validate

# The family table and per-k size cap of the test-01 draw.
from gpdext.randgen import _FAMILIES, _MAX_ARROWS_BY_K, random_laurent, random_mu_k_coboundary

# Acceptance tolerances of the test suite; a gate never loosens them.
NORM_TOL = 1e-9
RESIDUAL_TOL = 1e-12
STAR_TOL = 1e-10


@dataclass
class Item:
    label: str
    size: int  # position on the workload's size axis; 0 when off the axis
    run: Callable[[], str | None]


@dataclass
class Workload:
    name: str
    why: str
    item: str
    layers: tuple[str, ...]
    size_axis: str | None
    # The tail percentile reported, fixed per workload so that runs and
    # commits compare like with like, and the fewest items a timed run
    # completes so that at least 10 items lie beyond it.
    tail_percentile: int
    min_items: int
    # Run one untimed pass first, for a workload whose first pass fills a
    # lazy cache that users pay for once per process.
    warm_up: bool
    setup: Callable[[int, Path], Callable[[int], list[Item]]]


# ---------------------------------------------------------------------------
# verify_fixtures

FIXTURES = ("pair2_trivial", "pair3_cobound", "pauli", "z6_bichar", "cover3_cech5")
FIXTURE_SAMPLES = 10
GOLDEN = ("pauli", 0, "tests/golden/verify_all_pauli_seed0.json")
SEEDS_PER_RUN = 64


def _verify_one(spec, source: str, seed: int, golden: str | None) -> str | None:
    report = cmd_verify_all(spec, source, seed, FIXTURE_SAMPLES)
    text = report.to_machine()
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        return f"checks failed: {', '.join(failed)}"
    if golden is not None and text != golden:
        return "machine report differs from the golden bytes"
    return None


def setup_verify_fixtures(seed: int, root: Path):
    specs = [(name, *load_spec(None, name)) for name in FIXTURES]
    golden = (root / GOLDEN[2]).read_text()
    rng = random.Random(seed)
    # Pass 0 always runs seed 0, so every run checks the golden bytes.
    seeds = [0] + [rng.randrange(1, 2**31) for _ in range(SEEDS_PER_RUN - 1)]

    def items(r: int) -> list[Item]:
        s = seeds[r % len(seeds)]
        out = []
        for name, spec, source in specs:
            ref = golden if (name, s) == GOLDEN[:2] else None
            out.append(
                Item(
                    f"{name}@{s}",
                    0,
                    lambda spec=spec, source=source, s=s, ref=ref: _verify_one(spec, source, s, ref),
                )
            )
        return out

    return items


# ---------------------------------------------------------------------------
# oracle_batch

ORACLE_ORDERS = (2, 3, 4, 6)
# Items per k.  Test 01 cycles k over 2, 3, 4, 6, so each k gets a quarter
# of the items; within one k, the pool cycles the families that k admits
# in their fixed order.  18 runs each of the 9 families admitted at k = 6
# twice, where most of the time goes; at the other k the first families
# (the smallest) come round a second time.
ORACLE_PER_K = 18
# Share of instances with a seed cocycle that get it, as in test 01.
SEED_COCYCLE_RATE = 0.7


def _oracle_one(g, w, k: int, modes: dict) -> str | None:
    ext = cyclic_extension(g, w, k)
    cd = cyclic_decompose(ext, skip_centers=True)
    rank, dim = faithfulness_rank(ext)
    dev = oracle_norm_deviation(ExtensionAlgebra(g, w).element(modes), ext)
    if not (cd.ok and cd.exact and cd.max_residual == 0.0):
        return f"decomposition ok={cd.ok} exact={cd.exact} residual={cd.max_residual}"
    if not rank == dim == k * g.n_arrows:
        return f"oracle rank {rank} of dimension {dim}"
    if not dev <= NORM_TOL:
        return f"norm deviation {dev}"
    return None


def setup_oracle_batch(seed: int, root: Path):
    """ORACLE_PER_K instances per k, over the families of the test-01 draw:
    a random mu_k coboundary, times the family's seed cocycle with
    probability SEED_COCYCLE_RATE, plus one random_laurent sample on modes
    0..k-1."""
    rng = random.Random(seed)
    pool = []
    for k in ORACLE_ORDERS:
        builds = [build for size, build in _FAMILIES if size <= _MAX_ARROWS_BY_K[k]]
        for i in range(ORACLE_PER_K):
            g, seed_cocycle = builds[i % len(builds)](k)
            w = random_mu_k_coboundary(rng, g, k)
            if seed_cocycle is not None and rng.random() < SEED_COCYCLE_RATE:
                w = w.mul(seed_cocycle)
            if not (w.check_identity().ok and w.normalized):
                raise RuntimeError(f"bad oracle instance k={k} {g.name}")
            F = random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))
            modes = {n: dict(f.coeff) for n, f in F.modes.items()}
            pool.append(
                Item(f"k={k} {g.name}", 0, lambda g=g, w=w, k=k, m=modes: _oracle_one(g, w, k, m))
            )
    return lambda r: pool


# ---------------------------------------------------------------------------
# cyclo_ladder

# An odd number of rungs keeps the median inside one rung.
CONDUCTORS = (12, 60, 210, 420, 770, 1155, 1540, 2310, 3080, 3465, 4620)
SUMS_PER_RUNG = 5


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


def _unit_mod(rng: random.Random, n: int) -> int:
    while True:
        x = rng.randrange(1, n)
        if math.gcd(x, n) == 1:
            return x


def _zero_sum(rng: random.Random, n: int) -> Cyclo:
    """Sum over the primes p | n of c_p * e(x_p / n) * (sum of all p-th roots
    of unity).  Each full sum vanishes, so the total is zero; x_p is a unit
    mod n, so the conductor of the terms is exactly n."""
    total = Cyclo.zero()
    for p in _prime_divisors(n):
        x = _unit_mod(rng, n)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        for j in range(p):
            total = total + Cyclo.from_root(Fraction(x, n) + Fraction(j, p), c)
    return total


def _decide(value: Cyclo, expected: bool) -> str | None:
    got = value.is_zero()
    return None if got == expected else f"is_zero gave {got}"


def setup_cyclo_ladder(seed: int, root: Path):
    """Per conductor, SUMS_PER_RUNG sums that are zero by construction and as
    many such sums plus one nonzero multiple of a root of unity, which are
    nonzero.  The reduction's cost depends on where the terms fall, so each
    rung averages several draws.  Pass 0, the untimed warm-up, decides one
    sum per conductor, which builds the cyclotomic polynomials is_zero
    caches."""
    rng = random.Random(seed)
    pool = []
    for n in CONDUCTORS:
        for _ in range(SUMS_PER_RUNG):
            zero = _zero_sum(rng, n)
            root_term = Cyclo.from_root(Fraction(rng.randrange(n), n), rng.randint(1, 9))
            nonzero = _zero_sum(rng, n) + root_term
            pool.append(Item(f"N={n} zero", n, lambda v=zero: _decide(v, True)))
            pool.append(Item(f"N={n} nonzero", n, lambda v=nonzero: _decide(v, False)))
    warm_up = pool[:: 2 * SUMS_PER_RUNG]
    return lambda r: warm_up if r == 0 else pool


# ---------------------------------------------------------------------------
# algebra_ladder

PAIR_UNITS = tuple(range(2, 12))
# (orders, k) of the bicharacter cocycles; d = gcd(orders, k) sets the twist.
BICHAR = (((2, 2), 2), ((2, 4), 4), ((3, 3), 3), ((4, 4), 4), ((3, 6), 3))
LADDER_K = (2, 3, 4, 6)


def _random_coeffs(rng: random.Random, arrows: int) -> dict:
    return {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in range(arrows)}


def _bichar_center(g, w) -> int:
    """Center dimension of a twisted group algebra of an abelian group: the
    number of x with w(x, y) = w(y, x) for every y."""
    arrows = range(g.n_arrows)
    return sum(all(w.value(x, y) == w.value(y, x) for y in arrows) for x in arrows)


def _algebra_one(g, w, center: int, coeffs: tuple[dict, ...]) -> str | None:
    f_c, h_c, F0, F1 = coeffs
    alg = TwistedAlgebra(g, w, 1)
    f, h = alg.element(f_c), alg.element(h_c)
    star_dev = (f * h).star().sup_difference(h.star() * f.star())
    nf = alg.reduced_norm(f).reduced_norm
    nff = alg.reduced_norm(f.star() * f).reduced_norm
    cstar = abs(nff - nf * nf) / max(1.0, nf * nf)
    cert = alg.full_norm_certificate()
    cdim = alg.center_dimension()
    F = ExtensionAlgebra(g, w).element({0: F0, 1: F1})
    residual = intertwine_check(F, 0, (0, 1)).residual
    reduced = check_reduced_decomposition([F])
    if not star_dev <= STAR_TOL:
        return f"star antihomomorphism residual {star_dev}"
    if not cstar <= NORM_TOL:
        return f"C*-identity relative error {cstar}"
    if not (cert.faithful and cert.rank == g.n_arrows):
        return f"not faithful: rank {cert.rank} of {g.n_arrows}"
    if cdim != center:
        return f"center dimension {cdim}, closed form {center}"
    if not residual <= RESIDUAL_TOL:
        return f"intertwining residual {residual}"
    if not reduced.ok:
        return f"reduced decomposition deviation {reduced.max_norm_deviation}"
    return None


def setup_algebra_ladder(seed: int, root: Path):
    """Pair groupoids with random mu_k coboundaries (the size axis: a
    coboundary twist leaves M_n, so the center has dimension 1), then
    bicharacter cocycles on Z_a x Z_b (center from the commutator pairing)."""
    rng = random.Random(seed)
    cases = []
    for n in PAIR_UNITS:
        g = pair_groupoid(n)
        cases.append((g, random_mu_k_coboundary(rng, g, rng.choice(LADDER_K)), 1, g.n_arrows))
    for orders, k in BICHAR:
        g = abelian_group_groupoid(orders)
        w = bicharacter_cocycle(g, orders, k).mul(random_mu_k_coboundary(rng, g, k))
        cases.append((g, w, None, 0))
    pool = []
    for g, w, center, size in cases:
        validate(g).raise_if_failed()
        if not (w.check_identity().ok and w.normalized):
            raise RuntimeError(f"bad ladder cocycle on {g.name}")
        if center is None:
            center = _bichar_center(g, w)
        m = g.n_arrows
        coeffs = tuple(_random_coeffs(rng, m) for _ in range(4))
        pool.append(
            Item(
                f"{g.name} ({m} arrows)",
                size,
                lambda g=g, w=w, c=center, x=coeffs: _algebra_one(g, w, c, x),
            )
        )
    return lambda r: pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify_fixtures",
            why=(
                "the user-facing path: verify-all on every bundled fixture touches every "
                "layer; most time is cyclic_decompose on small k"
            ),
            item=(
                "cmd_verify_all(spec, source, seed, samples=10) plus its machine report, on one "
                "of the five bundled fixtures; pass r runs all five at one seed, pass 0 at seed 0"
            ),
            layers=("extension", "cyclic_oracle", "exact", "algebra", "morita", "cli", "linalg"),
            size_axis=None,
            tail_percentile=76,
            min_items=40,
            warm_up=False,
            setup=setup_verify_fixtures,
        ),
        Workload(
            name="oracle_batch",
            why=(
                "the test-01 seeded audit: exact arithmetic at tiny conductor, smul/sadd "
                "dispatch and oracle.conv dominate; ROADMAP items 2 and 3 act here"
            ),
            item=(
                "one (G, w, k) instance: cyclic_extension, cyclic_decompose(skip_centers=True), "
                "faithfulness_rank and oracle_norm_deviation of one random_laurent sample"
            ),
            layers=("exact", "cyclic_oracle", "extension", "groupoid", "linalg"),
            size_axis=None,
            tail_percentile=80,
            min_items=72,
            warm_up=False,
            setup=setup_oracle_batch,
        ),
        Workload(
            name="cyclo_ladder",
            why=(
                "few large dense Phi_N reductions in Cyclo.is_zero on a conductor ladder "
                "12..4620, the other side of the exact layer from oracle_batch"
            ),
            item="one Cyclo.is_zero decision on a sum whose answer is known by construction",
            layers=("exact",),
            size_axis="conductor",
            tail_percentile=95,
            min_items=200,
            warm_up=True,
            setup=setup_cyclo_ladder,
        ),
        Workload(
            name="algebra_ladder",
            why=(
                "numeric algebra and extension certificates on groupoids up to 121 arrows, "
                "where the O(m^2)-O(m^3) terms show instead of per-call overhead"
            ),
            item=(
                "one (groupoid, cocycle): random convolve/star, reduced_norm, "
                "full_norm_certificate, center_dimension, intertwine_check and "
                "check_reduced_decomposition"
            ),
            layers=("algebra", "extension", "linalg", "groupoid", "cocycle"),
            size_axis="arrows",
            tail_percentile=90,
            min_items=100,
            warm_up=False,
            setup=setup_algebra_ladder,
        ),
    )
}
