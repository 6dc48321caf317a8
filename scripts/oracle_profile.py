#!/usr/bin/env python3
"""Per-stage cost of the cyclic-oracle audit on seeded random instances.

Draws ``--count`` instances as the random audit does (k cycling over
2, 3, 4, 6, each a ``randgen.draw_oracle_instance`` with one
``random_laurent`` sample on modes 0..k-1) and runs every instance through
the four stages of one audit item: the build of mu_k x_w G, its
``cyclic_decompose`` (without centers), its ``faithfulness_rank`` and the
norm agreement (``oracle_norm_deviation`` of the sample).  One warm pass
goes first.  A timed pass gives each stage's wall time per instance, and a
pass under cProfile its Python calls per instance, as cProfile counts them
(calls into numpy's C functions included).

Example:
    python scripts/oracle_profile.py --count 40 --seed 1
"""

import argparse
import cProfile
import pstats
import random
import sys
import time
from contextlib import contextmanager, nullcontext

from gpdext.cyclic_oracle import CyclicExtension, faithfulness_rank
from gpdext.extension import ExtensionAlgebra, cyclic_decompose, oracle_norm_deviation
from gpdext.randgen import draw_oracle_instance, random_laurent

ORDERS = (2, 3, 4, 6)
STAGES = ("build", "cyclic_decompose", "faithfulness_rank", "norm_agreement")


def instances(count: int, seed: int) -> list[tuple]:
    """(groupoid, cocycle, k, sample) for each of ``count`` seeded draws."""
    rng, out = random.Random(seed), []
    for i in range(count):
        k = ORDERS[i % len(ORDERS)]
        g, w = draw_oracle_instance(rng, k)
        out.append((g, w, k, random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))))
    return out


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.count < 1:
        ap.error("--count must be positive")

    pool, seconds = instances(args.count, args.seed), dict.fromkeys(STAGES, 0.0)

    @contextmanager
    def timed(stage: str):
        start = time.perf_counter()
        yield
        seconds[stage] += time.perf_counter() - start

    run_pass(pool, lambda stage: nullcontext())  # warm
    run_pass(pool, timed)
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
