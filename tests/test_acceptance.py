"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to watch them).  The
expensive randomized batch (a hundred cyclic-oracle instances) runs once per
session and feeds the criteria that quantify over it.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from gpdext import cyclic_oracle as oracle
from gpdext.algebra import TwistedAlgebra
from gpdext.cli import load_spec, main
from gpdext.cocycle import (
    OneCochain,
    normalize,
    pauli_cocycle,
    solve_coboundary,
    trivialize_principal,
)
from gpdext.extension import (
    ExtensionAlgebra,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    intertwine_check,
    mode_projection,
    oracle_norm_deviation,
)
from gpdext.groupoid import abelian_group_groupoid, is_principal
from gpdext.morita import fullness_check, positivity_check, saturation_report
from gpdext.randgen import (
    draw_oracle_instance,
    random_laurent,
    random_mu_k_coboundary,
    random_values,
)
from helpers import random_exact_cochain, random_principal_groupoid

SEED = 20260808
FIXTURES = ("pair2_trivial", "pair3_cobound", "pauli", "z6_bichar", "cover3_cech5")
WINDOW = (-2, 2)


def accept(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number:>2}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


@dataclass
class OracleRun:
    k: int
    name: str
    arrows: int
    decomposition_ok: bool
    exact: bool
    residual: float
    faithful_rank: int
    dimension: int
    norm_deviation: float


@pytest.fixture(scope="module")
def fixture_specs():
    out = []
    for name in FIXTURES:
        spec, _ = load_spec(None, name)
        w = spec.cocycle_or_trivial()
        assert w.check_identity().ok and w.normalized
        out.append((name, spec.groupoid, w))
    return out


@pytest.fixture(scope="module")
def oracle_batch():
    rng = random.Random(SEED)
    runs = []
    for i in range(100):
        k = (2, 3, 4, 6)[i % 4]
        g, w = draw_oracle_instance(rng, k)
        ext = cyclic_extension(g, w, k)
        cd = cyclic_decompose(ext, skip_centers=True)
        rank, dim = oracle.faithfulness_rank(ext)
        ea = ExtensionAlgebra(g, w)
        dev = oracle_norm_deviation(random_laurent(rng, ea, (0, k - 1)), ext)
        runs.append(
            OracleRun(
                k=k,
                name=g.name,
                arrows=g.n_arrows,
                decomposition_ok=cd.ok,
                exact=cd.exact,
                residual=cd.max_residual,
                faithful_rank=rank,
                dimension=k * g.n_arrows,
                norm_deviation=dev,
            )
        )
    return runs


def test_01_cyclic_oracle_decomposition(oracle_batch):
    bad = [
        r
        for r in oracle_batch
        if not r.decomposition_ok or not r.exact or r.residual != 0.0 or r.arrows > 12
    ]
    accept(
        1,
        "extension algebra of mu_k x G decomposes into twisted summands",
        not bad and len(oracle_batch) >= 100,
        f"{len(oracle_batch)} instances, exact residual 0",
    )


def test_02_pauli_fixture_summands():
    k4 = abelian_group_groupoid((2, 2))
    w = pauli_cocycle(k4)
    cd = cyclic_decompose(cyclic_extension(k4, w, 2))
    dims = [s.dimension for s in cd.summands]
    centers = [s.center_dimension for s in cd.summands]
    ok = cd.ok and dims == [4, 4] and centers == [4, 1]
    accept(
        2,
        "sign bicharacter on the Klein group gives C^4 (+) M_2",
        ok,
        f"summand dims {dims}, center dims {centers}",
    )


def test_03_mode_grading_exhaustive(fixture_specs):
    checked = 0
    ok = True
    for _, g, w in fixture_specs:
        ea = ExtensionAlgebra(g, w)
        for m, n in itertools.product(range(WINDOW[0], WINDOW[1] + 1), repeat=2):
            tw = ea.twisted(n)
            for a, b in itertools.product(g.arrows(), repeat=2):
                P = ea.delta(m, a) * ea.delta(n, b)
                if m != n:
                    ok = ok and P.is_zero
                else:
                    ok = ok and P.mode(n).equals(tw.delta(a) * tw.delta(b))
                checked += 1
    accept(
        3,
        "cross-mode products vanish, same-mode products are twisted convolution",
        ok,
        f"{checked} delta-basis products, exact",
    )


def test_04_mode_projection_and_component_maps(fixture_specs):
    rng = random.Random(SEED + 4)
    ok_exhaustive = True
    for _, g, w in fixture_specs:
        ea = ExtensionAlgebra(g, w)
        for n in range(WINDOW[0], WINDOW[1] + 1):
            tw = ea.twisted(n)
            for a, b in itertools.product(g.arrows(), repeat=2):
                F, G = ea.delta(n, a), ea.delta(n, b)
                ok_exhaustive = ok_exhaustive and (F * G).mode(n).equals(
                    tw.delta(a) * tw.delta(b)
                )
    worst = 0.0
    projection_ok = True
    for _ in range(100):
        name, g, w = fixture_specs[rng.randrange(len(fixture_specs))]
        ea = ExtensionAlgebra(g, w)
        F = random_laurent(rng, ea, WINDOW)
        G = random_laurent(rng, ea, WINDOW)
        total = ea.zero()
        for n in range(WINDOW[0], WINDOW[1] + 1):
            P = mode_projection(F, n)
            projection_ok = projection_ok and mode_projection(P, n).equals(P)
            projection_ok = projection_ok and mode_projection(P, n + 1).is_zero
            total = total + P
            worst = max(
                worst,
                ((F * G).mode(n) - F.mode(n) * G.mode(n)).sup_difference(ea.twisted(n).zero()),
                (F.star().mode(n) - F.mode(n).star()).sup_difference(ea.twisted(n).zero()),
            )
        projection_ok = projection_ok and total.equals(F)
    accept(
        4,
        "mode projections are *-projections and components are *-homomorphisms",
        ok_exhaustive and projection_ok and worst <= 1e-12,
        f"max residual {worst:.2e}",
    )


def test_05_regular_representation_intertwining(fixture_specs, oracle_batch):
    rng = random.Random(SEED + 5)
    worst_intertwine = 0.0
    elements_for_reduced = []
    for _, g, w in fixture_specs:
        ea = ExtensionAlgebra(g, w)
        for i in range(100):
            F = random_laurent(rng, ea, WINDOW, density=0.7)
            if F.is_zero:
                continue
            u = rng.randrange(g.n_units)
            worst_intertwine = max(worst_intertwine, intertwine_check(F, u, WINDOW).residual)
            if i < 20:
                elements_for_reduced.append(F)
    reduced = check_reduced_decomposition(elements_for_reduced)
    worst_oracle = max(r.norm_deviation for r in oracle_batch)
    ok = (
        worst_intertwine <= 1e-12
        and reduced.max_norm_deviation <= 1e-9
        and reduced.max_unit_deviation <= 1e-9
        and worst_oracle <= 1e-9
    )
    accept(
        5,
        "graded convolution matches the direct sum of regular representations",
        ok,
        f"intertwine {worst_intertwine:.2e}, reduced {reduced.max_unit_deviation:.2e}, "
        f"oracle norms {worst_oracle:.2e}",
    )


def test_06_faithfulness_everywhere(fixture_specs, oracle_batch):
    algebras = 0
    ok = True
    for _, g, w in fixture_specs:
        for n in range(WINDOW[0], WINDOW[1] + 1):
            cert = TwistedAlgebra(g, w, n).full_norm_certificate()
            ok = ok and cert.faithful and cert.rank == g.n_arrows
            algebras += 1
    extensions = 0
    for r in oracle_batch:
        ok = ok and r.faithful_rank == r.dimension
        extensions += 1
    accept(
        6,
        "regular representations are jointly faithful (full = reduced)",
        ok,
        f"{algebras} twisted algebras, {extensions} cyclic extensions",
    )


def test_07_cstar_identity(fixture_specs):
    rng = random.Random(SEED + 7)
    worst = 0.0
    count = 0
    algebras = [
        TwistedAlgebra(g, w, n) for _, g, w in fixture_specs for n in (0, 1, 2)
    ]
    while count < 500:
        alg = algebras[count % len(algebras)]
        f = alg.element(
            {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in alg.groupoid.arrows()}
        )
        n1 = alg.reduced_norm(f.star() * f).reduced_norm
        n2 = alg.reduced_norm(f).reduced_norm
        worst = max(worst, abs(n1 - n2 * n2) / max(1.0, n2 * n2))
        count += 1
    accept(7, "norm of f*f equals norm of f squared", worst <= 1e-9, f"{count} elements, max relative error {worst:.2e}")


def test_08_cocycle_calculus():
    rng = random.Random(SEED + 8)
    normalize_ok = True
    for _ in range(50):
        g = random_principal_groupoid(rng)
        b = OneCochain(
            g, {a: Fraction(rng.randrange(8), 8) for a in g.arrows()}
        )  # nontrivial on units: generally not normalized
        w = b.coboundary()
        w2, _ = normalize(w)
        normalize_ok = normalize_ok and w2.normalized and w2.check_identity().ok

    trivialize_ok = True
    for _ in range(100):
        g = random_principal_groupoid(rng)
        w = random_exact_cochain(rng, g).coboundary()
        bb = trivialize_principal(w)  # verifies reproduction internally
        trivialize_ok = trivialize_ok and bb.coboundary().pointwise_equal(w)

    k4 = abelian_group_groupoid((2, 2))
    pauli = pauli_cocycle(k4)
    solver_none = solve_coboundary(pauli) is None
    search_none = True
    roots = [Fraction(j, 4) for j in range(4)]
    for combo in itertools.product(roots, repeat=4):
        if OneCochain(k4, dict(enumerate(combo))).coboundary().pointwise_equal(pauli):
            search_none = False
    accept(
        8,
        "normalization, principal trivialization, and coboundary decision",
        normalize_ok and trivialize_ok and solver_none and search_none,
        "50 normalizations, 100 exact trivializations, sign class nontrivial "
        "(solver and exhaustive mu_4 search agree)",
    )


def test_09_isotropy_quotient_of_extensions():
    rng = random.Random(SEED + 9)
    ok = True
    for i in range(50):
        k = (2, 3, 4, 6)[i % 4]
        g = random_principal_groupoid(rng)
        w = random_mu_k_coboundary(rng, g, k)
        ext = cyclic_extension(g, w, k)
        defects = oracle.quotient_matches_base(ext)
        ok = ok and not defects
    accept(
        9,
        "collapsing isotropy of mu_k x G recovers the principal base",
        ok,
        "50 instances, explicit isomorphisms",
    )


def test_10_imprimitivity(fixture_specs):
    rng = random.Random(SEED + 10)
    principal_fixtures = [(n, g, w) for n, g, w in fixture_specs if is_principal(g)]
    assert principal_fixtures
    fullness_ok = True
    mode_zero_ok = True
    for _, g, w in principal_fixtures:
        cert = fullness_check(g)
        fullness_ok = fullness_ok and cert.full and cert.ideal_dimension == g.n_arrows
        dens = [v.angle.denominator for v in w.values.values() if v.is_exact]
        from math import lcm

        k = max(2, lcm(*dens) if dens else 1)
        pairs = random_values(rng, (10, 2, g.n_units))
        rep = saturation_report(cyclic_extension(g, w, k), pairs)
        mode_zero_ok = mode_zero_ok and rep.mode_zero_ok and rep.not_saturated

    positivity_ok = True
    count = 0
    while count < 200:
        _, g, w = principal_fixtures[count % len(principal_fixtures)]
        sample = random_values(rng, (1, g.n_units))
        positivity_ok = positivity_ok and positivity_check(g, sample)
        count += 1
    accept(
        10,
        "inner products are positive, mode-zero, and generate the full base ideal",
        fullness_ok and mode_zero_ok and positivity_ok,
        f"{len(principal_fixtures)} principal fixtures, 200 positivity samples",
    )


def test_11_cli_golden_report(capsys):
    golden = Path(__file__).parent / "golden" / "verify_all_pauli_seed0.json"
    rc = main(
        ["verify-all", "--fixture", "pauli", "--seed", "0", "--samples", "10", "--format", "machine"]
    )
    out = capsys.readouterr().out
    ok = rc == 0 and out == golden.read_text()
    with capsys.disabled():
        accept(11, "verify-all reproduces the committed golden report byte-for-byte", ok,
               f"{len(out)} bytes")
