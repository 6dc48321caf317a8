#!/usr/bin/env python3
"""Seeded batch audit: random groupoids with mu_k cocycles, each run through
the cyclic oracle, the norm comparison, and the quotient check.

Example:
    python scripts/random_audit.py --count 40 --seed 7
"""

import argparse
import random
import sys
import time

from gpdext.cyclic_oracle import faithfulness_rank, quotient_matches_base
from gpdext.extension import (
    NORM_TOL,
    ExtensionAlgebra,
    cyclic_decompose,
    cyclic_extension,
    oracle_norm_deviation,
)
from gpdext.groupoid import is_principal
from gpdext.randgen import draw_oracle_instance, random_laurent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--orders", type=int, nargs="*", default=[2, 3, 4, 6])
    args = ap.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    bad = 0
    for i in range(args.count):
        k = args.orders[i % len(args.orders)]
        g, w = draw_oracle_instance(rng, k)
        ext = cyclic_extension(g, w, k)
        cd = cyclic_decompose(ext, skip_centers=True)
        rank, dim = faithfulness_rank(ext)
        dev = oracle_norm_deviation(
            random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1)), ext
        )
        quot = quotient_matches_base(ext) if is_principal(g) else None
        ok = cd.ok and rank == dim and dev <= NORM_TOL and not quot
        bad += 0 if ok else 1
        status = "ok " if ok else "BAD"
        print(
            f"[{status}] k={k} {g.name:<14} arrows={g.n_arrows:>2} "
            f"exact={cd.exact} residual={cd.max_residual:.1e} norm_dev={dev:.1e}"
            + (f" quotient={'ok' if not quot else quot}" if quot is not None else "")
        )
    print(f"{args.count} instances, {bad} failures, {time.time()-t0:.1f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
