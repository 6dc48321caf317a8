#!/usr/bin/env python3
"""Per-stage cost of the cyclic-oracle audit on seeded random instances,
or of verify-all's oracle stages on the bundled fixtures.

Draws ``--count`` instances as the random audit does (k cycling over
2, 3, 4, 6, each a ``randgen.draw_oracle_instance`` with one
``random_laurent`` sample on modes 0..k-1) and runs every instance through
the four stages of one audit item: the build of mu_k x_w G, its
``cyclic_decompose`` (without centers), its ``faithfulness_rank`` and the
norm agreement (``oracle_norm_deviation`` of the sample).  One warm pass
goes first.  A timed pass gives each stage's wall time per instance, and a
pass under cProfile its Python calls per instance, as cProfile counts them
(calls into numpy's C functions included).

With ``--fixtures`` it runs verify-all's oracle stages on each bundled
fixture instead, at the k verify-all picks: every sample draw verify-all
makes, of ``SAMPLES`` samples at ``--seed``; the build of every extension
verify-all makes (mu_k x_w G, and for a principal base the extension of
the fullness check at k = 1 and, when k = 1, that of the saturation report
at k = 2, which otherwise reads mu_k x_w G); the ``cyclic_decompose`` of
mu_k x_w G (without centers: verify-all reads those off the algebras of
its session); the norm agreement of cyclic-oracle's samples;
and the ``ideal_dimension`` of the unit-pair lifts in each extension of a
principal base.  One warm pass goes first, then ``--count`` timed passes
and one pass under cProfile, and it prints each stage's wall time and
Python calls per pass, one line per fixture and stage.

Examples:
    python scripts/oracle_profile.py --count 40 --seed 1
    python scripts/oracle_profile.py --fixtures --count 20
"""

import argparse
import cProfile
import pstats
import random
import sys
import time
from contextlib import contextmanager, nullcontext

from gpdext.cli import Session, _fixture_dir, _window, load_spec
from gpdext.cocycle import TwoCocycle
from gpdext.cyclic_oracle import CyclicExtension, faithfulness_rank, ideal_dimension
from gpdext.extension import ExtensionAlgebra, cyclic_decompose, oracle_norm_deviation
from gpdext.groupoid import is_principal
from gpdext.morita import _unit_pair_lifts
from gpdext.randgen import draw_oracle_instance, random_laurent, random_laurents, random_values

ORDERS = (2, 3, 4, 6)
STAGES = ("build", "cyclic_decompose", "faithfulness_rank", "norm_agreement")
FIXTURE_STAGES = ("draws", "build", "cyclic_decompose", "norm_agreement", "ideal_dimension")
SAMPLES = 10  # verify-all's samples, as scripts/verify_fixtures.py runs it


def instances(count: int, seed: int) -> list[tuple]:
    """(groupoid, cocycle, k, sample) for each of ``count`` seeded draws."""
    rng, out = random.Random(seed), []
    for i in range(count):
        k = ORDERS[i % len(ORDERS)]
        g, w = draw_oracle_instance(rng, k)
        out.append((g, w, k, random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))))
    return out


def fixtures() -> list[tuple]:
    """(name, groupoid, prepared cocycle, k, decompose's mode window) for
    each bundled fixture that verify-all runs the oracle on, as verify-all's
    session reads them."""
    out = []
    for path in sorted(_fixture_dir().glob("*.json")):
        session = Session(*load_spec(None, path.stem))
        g, w, k = session.groupoid, session.cocycle, session.order(None)
        if k is not None:
            out.append((path.stem, g, w, k, _window(session.spec, None)))
    return out


def verify_all_draws(g, w, k: int, window, seed: int):
    """Every sample draw verify-all makes on (g, w), as its sub-suites make
    them; returns cyclic-oracle's stack of samples on modes 0..k-1."""
    ea = ExtensionAlgebra(g, w)
    for _ in range(2):  # algebra[n=0] and algebra[n=1]
        random_values(random.Random(seed), (SAMPLES, 3, g.n_arrows))
    random_laurents(random.Random(seed), ea, window, (SAMPLES, 2))
    draws = random_laurents(random.Random(seed), ea, (0, k - 1), (SAMPLES,))
    if is_principal(g):  # morita: positivity, then the saturation pairs
        rng = random.Random(seed)
        random_values(rng, (SAMPLES, g.n_units))
        random_values(rng, (SAMPLES, 2, g.n_units))
    return draws


def run_pass(pool: list[tuple], around) -> None:
    """One pass of every stage over the pool, each stage call made inside
    ``around(stage)``, a context manager."""
    for g, w, k, F in pool:
        with around("build"):
            ext = CyclicExtension(g, w, k)
        with around("cyclic_decompose"):
            cd = cyclic_decompose(ext, skip_centers=True)
        with around("faithfulness_rank"):
            faithfulness_rank(ext)
        with around("norm_agreement"):
            oracle_norm_deviation(F, ext)
        if not cd.ok:
            raise RuntimeError(f"decomposition fails at k={k} on {g.name}")


def run_fixture_pass(pool: list[tuple], seed: int, around) -> None:
    """One pass of verify-all's oracle stages over the fixtures, each made
    inside ``around((fixture, stage))``."""
    for name, g, w, k, window in pool:
        with around((name, "draws")):
            draws = verify_all_draws(g, w, k, window, seed)
        with around((name, "build")):
            ext = CyclicExtension(g, w, k)
            ideals = []  # fullness at k = 1 and saturation at max(k, 2)
            if is_principal(g):
                trivial = TwoCocycle.trivial(g)
                saturation = ext if k >= 2 else CyclicExtension(g, w, 2)
                ideals = [CyclicExtension(g, trivial, 1), saturation]
        with around((name, "cyclic_decompose")):
            cd = cyclic_decompose(ext, skip_centers=True)
        with around((name, "norm_agreement")):
            oracle_norm_deviation(draws, ext)
        with around((name, "ideal_dimension")):
            for e in ideals:
                ideal_dimension(e, _unit_pair_lifts(e))
        if not cd.ok:
            raise RuntimeError(f"decomposition fails at k={k} on {name}")


def timed_passes(run, keys, passes: int) -> dict:
    """The wall time of each key over ``passes`` timed calls of
    run(around), after one warm call."""
    seconds = dict.fromkeys(keys, 0.0)

    @contextmanager
    def timed(key):
        start = time.perf_counter()
        yield
        seconds[key] += time.perf_counter() - start

    run(lambda key: nullcontext())  # warm
    for _ in range(passes):
        run(timed)
    return seconds


def profile_fixtures(count: int, seed: int) -> None:
    pool = fixtures()
    keys = [(name, stage) for name, *_ in pool for stage in FIXTURE_STAGES]
    seconds = timed_passes(lambda around: run_fixture_pass(pool, seed, around), keys, count)
    profiles = {key: cProfile.Profile() for key in keys}
    run_fixture_pass(pool, seed, profiles.__getitem__)
    calls = {key: pstats.Stats(profile).total_calls for key, profile in profiles.items()}
    print(f"{len(pool)} fixtures, {count} passes, seed {seed}")
    print(f"{'fixture':<16} {'stage':<18} {'ms/pass':>11} {'calls/pass':>10}")
    for name, *_ in pool:
        rows = [(stage, 1000 * seconds[name, stage] / count, calls[name, stage])
                for stage in FIXTURE_STAGES]
        rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
        for stage, ms, n in rows:
            print(f"{name:<16} {stage:<18} {ms:>11.3f} {n:>10}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fixtures", action="store_true")
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be positive")
    if args.fixtures:
        profile_fixtures(args.count, args.seed)
        return 0

    pool = instances(args.count, args.seed)
    seconds = timed_passes(lambda around: run_pass(pool, around), STAGES, 1)
    profiles = {stage: cProfile.Profile() for stage in STAGES}
    run_pass(pool, profiles.__getitem__)  # a Profile enables on entry, disables on exit
    n = len(pool)
    calls = {stage: pstats.Stats(profile).total_calls for stage, profile in profiles.items()}
    rows = [(stage, 1000 * seconds[stage] / n, calls[stage] / n) for stage in STAGES]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{n} instances, seed {args.seed}")
    print(f"{'stage':<18} {'ms/instance':>11} {'calls/instance':>14}")
    for stage, ms, calls in rows:
        print(f"{stage:<18} {ms:>11.3f} {calls:>14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
