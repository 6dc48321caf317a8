#!/usr/bin/env python3
"""Print one line `fixture seed sha256` for the `verify-all --samples 10`
machine report of every bundled fixture at seeds 0-4, then one line
`fixture k=<2k> sha256` for the `cyclic-oracle --samples 10` machine report
of every bundled fixture at seed 0 with twice the fixture's own k, where the
cocycle values, k-th roots of unity, are lifted into mu_2k.

Then, per fixture, the structural certificates as plain numbers: one line
`fixture n=<n> center=<c> rank=<r>/<dim>` for C(G, w^n) at every power n in
-k..2k, on the normalized cocycle, and one line
`fixture oracle k=<k> rank=<r>/<dim>` for the oracle's `faithfulness_rank`
at k and at 2k.  A diff that moves one of these names the power or the
order at which it moved.  Then one line
`fixture float k=<k> ok=<ok> products=<p> stars=<s> projections=<q>
max_residual=<repr>` for `cyclic_decompose` at k with the cocycle values
given as complex numbers, whose values of w^n the oracle comparison snaps
to their nearest k-th roots; the residual, the largest distance of a value
from its root, is printed to the last bit.  For each principal
fixture, one line `fixture morita k=<k> ideal=<d> full=<f> leakage=<repr>`
at k = 1, at the fixture's k and at 2k: at k = 1 the ideal and the verdict
of `fullness_check`, above it the ideal of `saturation_report` and whether
it fills the extension algebra, and at each k the mode leakage of ten seeded
inner products, to the last bit.

Last, per fixture at seed 0, one line
`fixture main <command> exit=<code> sha256` for the standard output of the
command-line entry point `main([...])`: validate, normalize, trivialize,
`algebra --power 1`, decompose, morita and verify-all in machine format,
then verify-all in human format.  These go through argument parsing and
command dispatch, with the sample count each fixture's params give.

Then, per fixture at seed 0, one line `fixture complex <command> sha256` for
the `algebra` and `decompose --samples 10` machine reports on a spec that
carries the cocycle's values as complex numbers, which takes the numeric
path of the twisted algebras, and one line
`fixture complex cyclic-oracle k=<k> sha256` for the `cyclic-oracle
--samples 10 --k <k>` machine report on that spec at the fixture's own k,
which snaps the complex values in the oracle comparison and prints its
`max_residual`.

Last, one line `<instance> wide <command> sha256` for the `algebra` and
`decompose --samples 10` machine reports at seed 0 on two larger instances:
pair_groupoid(6) with a mu_4 coboundary, and Z3 x Z6 with its bicharacter
cocycle.  Their products and involutions sum over supports whose
first-touch order is not the ascending arrow order.

Then, per fixture at seed 0, the command-line flags: one line
`fixture main decompose --modes=-1..3 --format machine exit=<code> sha256`
for `main([...])` with that mode window, and one line
`fixture element algebra sha256` for the `algebra --samples 10` machine
report given an element document (`--element`) with a dyadic coefficient
on every arrow of the fixture.

The lines are committed as tests/golden/report_digests.txt, and
tests/test_scripts.py compares this script's output with them, so a change
that moves a report fails there.  A change meant to move one rewrites that
file and says why:

    PYTHONPATH=src python scripts/report_digests.py > tests/golden/report_digests.txt
"""

import contextlib
import hashlib
import io
import random
import sys

from gpdext.algebra import TwistedAlgebra
from gpdext.cli import (
    Session,
    _fixture_dir,
    cmd_algebra,
    cmd_cyclic_oracle,
    cmd_decompose,
    cmd_verify_all,
    load_spec,
)
from gpdext.cli import main as cli_main
from gpdext.cocycle import TwoCocycle, bicharacter_cocycle
from gpdext.cyclic_oracle import faithfulness_rank
from gpdext.documents import SpecDocument
from gpdext.extension import cyclic_decompose, cyclic_extension
from gpdext.groupoid import abelian_group_groupoid, is_principal, pair_groupoid
from gpdext.morita import fullness_check, saturation_report
from gpdext.randgen import random_mu_k_coboundary, random_values

SEEDS = range(5)
SAMPLES = 10
MAIN_RUNS = (
    ("validate", "--format", "machine"),
    ("normalize", "--format", "machine"),
    ("trivialize", "--format", "machine"),
    ("algebra", "--power", "1", "--format", "machine"),
    ("decompose", "--format", "machine"),
    ("morita", "--format", "machine"),
    ("verify-all", "--format", "machine"),
    ("verify-all", "--format", "human"),
)


def _digest(report) -> str:
    return hashlib.sha256(report.to_machine().encode()).hexdigest()


def _main_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of the standard output of `gpdext <argv>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _wide_instances():
    """(name, groupoid, cocycle): pair_groupoid(6) with a seeded mu_4
    coboundary, and Z3 x Z6 with its bicharacter cocycle."""
    pair6 = pair_groupoid(6)
    z3z6 = abelian_group_groupoid((3, 6))
    return (
        ("pair6_mu4", pair6, random_mu_k_coboundary(random.Random(0), pair6, 4)),
        ("z3z6_bichar", z3z6, bicharacter_cocycle(z3z6, (3, 6), 3)),
    )


def _element_doc(g) -> dict:
    """An element document with the coefficient 1 + i/4 - (-1)^i i/2 j on
    the i-th arrow of g: dyadic, so that it parses to the same bits."""
    coeff = {a: [1 + i / 4, -((-1) ** i) * i / 2] for i, a in enumerate(g.arrow_labels)}
    return {"coeff": coeff}


def _print_morita(name, g, w, k) -> None:
    rng = random.Random(0)
    pairs = random_values(rng, (SAMPLES, 2, g.n_units))
    cert = fullness_check(g)
    for kk, ww in ((1, TwoCocycle.trivial(g)), (k, w), (2 * k, w)):
        rep = saturation_report(cyclic_extension(g, ww, kk), pairs)
        ideal, full = rep.ideal_dimension, rep.ideal_dimension == kk * g.n_arrows
        if kk == 1:
            ideal, full = cert.ideal_dimension, cert.full
        print(name, f"morita k={kk} ideal={ideal} full={full} leakage={rep.nonzero_mode_leakage!r}")


def main() -> int:
    paths = sorted(_fixture_dir().glob("*.json"))
    for path in paths:
        for seed in SEEDS:
            spec, source = load_spec(None, path.stem)
            print(path.stem, seed, _digest(cmd_verify_all(spec, source, seed, SAMPLES)))
    for path in paths:
        session = Session(*load_spec(None, path.stem))
        k = 2 * int(session.spec.params["k"])
        print(path.stem, f"k={k}", _digest(cmd_cyclic_oracle(session, 0, SAMPLES, k=k)))
    for path in paths:
        session = Session(*load_spec(None, path.stem))
        g, w, k = session.groupoid, session.cocycle, int(session.spec.params["k"])
        for n in range(-k, 2 * k + 1):
            alg = TwistedAlgebra(g, w, n)
            cert = alg.full_norm_certificate()
            print(
                path.stem,
                f"n={n} center={alg.center_dimension()} rank={cert.rank}/{cert.dimension}",
            )
        for kk in (k, 2 * k):
            rank, dim = faithfulness_rank(cyclic_extension(g, w, kk))
            print(path.stem, f"oracle k={kk} rank={rank}/{dim}")
        numeric = TwoCocycle(g, {p: v.to_complex() for p, v in w.values.items()})
        numeric.check_identity()
        cd = cyclic_decompose(cyclic_extension(g, numeric, k), skip_centers=True)
        print(
            path.stem,
            f"float k={k} ok={cd.ok} products={cd.products_checked} stars={cd.stars_checked}"
            f" projections={cd.projections_checked} max_residual={cd.max_residual!r}",
        )
        if is_principal(g):
            _print_morita(path.stem, g, w, k)
    for path in paths:
        for run in MAIN_RUNS:
            code, digest = _main_digest([*run, "--fixture", path.stem, "--seed", "0"])
            print(path.stem, "main", " ".join(run), f"exit={code}", digest)
    for path in paths:
        spec, source = load_spec(None, path.stem)
        w = spec.cocycle_or_trivial()
        numeric = TwoCocycle(spec.groupoid, {p: v.to_complex() for p, v in w.values.items()})
        spec = SpecDocument(groupoid=spec.groupoid, cocycle=numeric, params=spec.params)
        for command in (cmd_algebra, cmd_decompose):
            report = command(Session(spec, source), 0, SAMPLES)
            print(path.stem, "complex", report.command, _digest(report))
        k = int(spec.params["k"])
        report = cmd_cyclic_oracle(Session(spec, source), 0, SAMPLES, k=k)
        print(path.stem, "complex", report.command, f"k={k}", _digest(report))
    for name, g, w in _wide_instances():
        spec = SpecDocument(groupoid=g, cocycle=w, params={})
        for command in (cmd_algebra, cmd_decompose):
            report = command(Session(spec, name), 0, SAMPLES)
            print(name, "wide", report.command, _digest(report))
    for path in paths:
        run = ("decompose", "--modes=-1..3", "--format", "machine")
        code, digest = _main_digest([*run, "--fixture", path.stem, "--seed", "0"])
        print(path.stem, "main", " ".join(run), f"exit={code}", digest)
        session = Session(*load_spec(None, path.stem))
        report = cmd_algebra(session, 0, SAMPLES, element_doc=_element_doc(session.groupoid))
        print(path.stem, "element", report.command, _digest(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
