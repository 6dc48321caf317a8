#!/usr/bin/env python3
"""Print one line `fixture seed sha256` for the `verify-all --samples 10`
machine report of every bundled fixture at seeds 0-4, then one line
`fixture k=<2k> sha256` for the `cyclic-oracle --samples 10` machine report
of every bundled fixture at seed 0 with twice the fixture's own k, where the
cocycle values, k-th roots of unity, are lifted into mu_2k.

A change meant to leave every report byte-identical is checked by running
this once against each tree and diffing the outputs:

    PYTHONPATH=/path/to/parent/src python scripts/report_digests.py > before
    PYTHONPATH=src python scripts/report_digests.py > after
    diff before after
"""

import hashlib
import sys

from gpdext.cli import _fixture_dir, cmd_cyclic_oracle, cmd_verify_all, load_spec

SEEDS = range(5)
SAMPLES = 10


def _digest(report) -> str:
    return hashlib.sha256(report.to_machine().encode()).hexdigest()


def main() -> int:
    paths = sorted(_fixture_dir().glob("*.json"))
    for path in paths:
        for seed in SEEDS:
            spec, source = load_spec(None, path.stem)
            print(path.stem, seed, _digest(cmd_verify_all(spec, source, seed, SAMPLES)))
    for path in paths:
        spec, source = load_spec(None, path.stem)
        k = 2 * int(spec.params["k"])
        print(path.stem, f"k={k}", _digest(cmd_cyclic_oracle(spec, source, 0, SAMPLES, k=k)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
