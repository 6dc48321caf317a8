#!/usr/bin/env python3
"""Print one line `fixture seed sha256` for the `verify-all --samples 10`
machine report of every bundled fixture at seeds 0-4.

A change meant to leave every report byte-identical is checked by running
this once against each tree and diffing the outputs:

    PYTHONPATH=/path/to/parent/src python scripts/report_digests.py > before
    PYTHONPATH=src python scripts/report_digests.py > after
    diff before after
"""

import hashlib
import sys

from gpdext.cli import _fixture_dir, cmd_verify_all, load_spec

SEEDS = range(5)
SAMPLES = 10


def main() -> int:
    for path in sorted(_fixture_dir().glob("*.json")):
        for seed in SEEDS:
            spec, source = load_spec(None, path.stem)
            report = cmd_verify_all(spec, source, seed, SAMPLES)
            digest = hashlib.sha256(report.to_machine().encode()).hexdigest()
            print(path.stem, seed, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
