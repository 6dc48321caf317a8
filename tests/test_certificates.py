"""The structural certificates against their floating-point references.

`full_norm_certificate`, `center_dimension` and the oracle's
`faithfulness_rank` are decided by closed forms.  Here they are
cross-checked against the rank computations of `reference_ranks` on every
bundled fixture and on random, multi-orbit and nonabelian instances, and
each is fed a single-point mutant that it must reject.
"""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from gpdext import cyclic_oracle as oracle
from gpdext import cli, extension
from gpdext.algebra import TwistedAlgebra
from gpdext.cli import Session, _fixture_dir, cmd_decompose, load_spec
from gpdext.cocycle import (
    OneCochain,
    TwoCocycle,
    bicharacter_cocycle,
    pauli_cocycle,
)
from gpdext.exact import CircleScalar
from gpdext.extension import (
    ExtensionAlgebra,
    OracleWitness,
    UnitWitness,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    intertwine_check,
)
from gpdext.groupoid import (
    GroupoidError,
    abelian_group_groupoid,
    disjoint_union,
    pair_groupoid,
    symmetric_group_groupoid,
)
from gpdext.randgen import (
    _FAMILIES,
    draw_oracle_instance,
    random_laurent,
    random_mu_k_coboundary,
)
from reference_ranks import (
    commutator_center_dimension,
    oracle_stacked_rank,
    stacked_faithfulness,
)

POWERS = range(-2, 7)
FAMILY_ORDERS = (2, 3, 4, 6)
# (orders, k) of the bicharacter cocycles on Z_a x Z_b
BICHAR = (((2, 2), 2), ((2, 4), 4), ((3, 3), 3), ((4, 4), 4), ((3, 6), 3))


def _numeric_coboundary(rng: random.Random, g) -> TwoCocycle:
    units = set(g.unit_to_arrow)
    b = OneCochain(
        g,
        {
            a: cmath.exp(1j * rng.uniform(0, 6.28))
            for a in g.arrows()
            if a not in units
        },
    )
    return b.coboundary()


def _mixed_union():
    """Klein (carrying the sign cocycle) + S3 + pair(3): three orbits with
    isotropy Z2 x Z2, S3 and the trivial group."""
    klein = abelian_group_groupoid((2, 2))
    pauli = pauli_cocycle(klein)
    g = disjoint_union(disjoint_union(klein, symmetric_group_groupoid(3)), pair_groupoid(3))
    # the Klein arrows keep their ids 0..3 in the union
    return g, TwoCocycle(g, pauli.values)


def _instances():
    rng = random.Random(20261018)
    out = []
    for path in sorted(_fixture_dir().glob("*.json")):
        spec, _ = load_spec(None, path.stem)
        out.append((f"fixture-{path.stem}", spec.groupoid, spec.cocycle_or_trivial()))
    for i, (_, family) in enumerate(_FAMILIES):
        for k in FAMILY_ORDERS:
            g, seed = family(k)
            w = random_mu_k_coboundary(rng, g, k)
            if seed is not None:
                w = w.mul(seed)
            out.append((f"family{i}-{g.name}-k{k}", g, w))
    for n in range(2, 12):
        g = pair_groupoid(n)
        out.append((g.name, g, random_mu_k_coboundary(rng, g, rng.choice(FAMILY_ORDERS))))
    for orders, k in BICHAR:
        g = abelian_group_groupoid(orders)
        w = bicharacter_cocycle(g, orders, k).mul(random_mu_k_coboundary(rng, g, k))
        out.append((f"{g.name}-bichar-k{k}", g, w))
    for n in (3, 4):
        g = symmetric_group_groupoid(n)
        out.append((f"{g.name}-untwisted", g, TwoCocycle.trivial(g)))
    g, w = _mixed_union()
    out.append(("klein-pauli+S3+pair3", g, w.mul(random_mu_k_coboundary(rng, g, 4))))
    out.append(("klein-pauli+S3+pair3-numeric", g, w.mul(_numeric_coboundary(rng, g))))
    klein = abelian_group_groupoid((2, 2))
    w = pauli_cocycle(klein).mul(_numeric_coboundary(rng, klein))
    out.append(("klein-pauli-numeric", klein, w))
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("name,g,w", INSTANCES, ids=[name for name, _, _ in INSTANCES])
def test_closed_forms_match_the_rank_references(name, g, w):
    assert w.check_identity().ok and w.normalized
    for n in POWERS:
        A = TwistedAlgebra(g, w, n)
        cert = A.full_norm_certificate()
        rank, _ = stacked_faithfulness(A)
        assert (cert.rank, cert.dimension, cert.faithful) == (
            rank,
            g.n_arrows,
            rank == g.n_arrows,
        ), f"power {n}"
        assert A.center_dimension() == commutator_center_dimension(A), f"power {n}"


def test_the_center_reference_reads_through_a_one_ulp_asymmetry(monkeypatch):
    # klein-pauli-numeric at each power, with w^n((0,1), (1,0)) turned by
    # one ulp: the closed form counts it equal to w^n((1,0), (0,1)), so the
    # center is C^4 at even powers and M_2's at odd ones, and the reference
    # must not count the rounding as rank
    klein = abelian_group_groupoid((2, 2))
    w = pauli_cocycle(klein).mul(_numeric_coboundary(random.Random(3), klein))
    for n in POWERS:
        A = TwistedAlgebra(klein, w, n)
        table = A.powers.copy()
        table[1, 2] = complex(np.nextafter(table[1, 2].real, 2.0), table[1, 2].imag)
        assert table[1, 2] != table[2, 1] or n % 2
        monkeypatch.setattr(A, "powers", table)
        assert A.center_dimension() == commutator_center_dimension(A) == (1 if n % 2 else 4)


def test_mixed_union_centers():
    # Klein with the sign cocycle: C^4 at even powers, M_2 at odd ones;
    # S3 has 3 classes; pair(3) is M_3
    g, w = _mixed_union()
    assert [TwistedAlgebra(g, w, n).center_dimension() for n in (0, 1, 2)] == [8, 5, 8]


def test_oracle_rank_matches_the_reference_on_test_01_draws():
    # the first 40 instances of the test-01 batch, drawn in the same order
    rng = random.Random(20260808)
    for i in range(40):
        k = (2, 3, 4, 6)[i % 4]
        g, w = draw_oracle_instance(rng, k)
        ext = cyclic_extension(g, w, k)
        assert oracle.faithfulness_rank(ext) == oracle_stacked_rank(ext), (i, g.name, k)
        random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))


# -- negative controls: single-point mutants each certificate must reject --


def test_cocycle_off_by_a_root_at_one_pair_is_caught_twice(monkeypatch, klein, pauli):
    # w at the non-unit pair (0,1),(1,0) multiplied by e(1/k): check_identity
    # names a failing triple, and mu_k x_w G, built with the identity check
    # bypassed, fails associativity on its own
    k, pair = 2, (1, 2)
    values = {p: pauli.value(*p) for p in klein.compose_table}
    values[pair] = values[pair] * CircleScalar(angle=Fraction(1, k))
    w = TwoCocycle(klein, values)
    assert w.normalized
    rep = w.check_identity()
    assert not rep.ok and rep.violations[0].rule == "cocycle-identity"
    a, b, c = rep.violations[0].witness
    lhs = w.value(a, b) * w.value(klein.compose_table[a, b], c)
    rhs = w.value(b, c) * w.value(a, klein.compose_table[b, c])
    assert lhs != rhs
    monkeypatch.setattr(TwoCocycle, "require_checked", lambda self, what: None)
    with pytest.raises(GroupoidError, match=r"80 violation\(s\); first: \[associativity\]"):
        cyclic_extension(klein, w, k)


def test_missing_unit_composition_is_not_faithful(monkeypatch):
    g = pair_groupoid(3)
    a = 1  # the arrow (0,1)
    unit = g.unit_arrow(g.s(a))
    w = TwoCocycle.trivial(g)  # before the patch: only the certificate reads it
    table = g.compose_array.copy()
    table[a, unit] = -1  # a . 1_{s(a)} off the composition table
    monkeypatch.setattr(g, "_compose_array", table)
    cert = TwistedAlgebra(g, w, 1).full_norm_certificate()
    assert cert.rank == cert.dimension - 1 == 8
    assert not cert.faithful


def test_oracle_table_moving_a_unit_product_loses_rank(monkeypatch, klein, pauli):
    ext = cyclic_extension(klein, pauli, 2)
    moved = klein.n_arrows + 3  # (e(1/2), 3)
    unit = ext.groupoid.unit_to_arrow[ext.groupoid.source_map[moved]]
    table = ext.compose.copy()
    table[moved, unit] = klein.n_arrows  # x . 1_{s(x)} moved off x, to (e(1/2), unit)
    monkeypatch.setattr(ext, "compose", table)
    rank, dim = oracle.faithfulness_rank(ext)
    assert rank == dim - 1 == 7


def test_one_noncommuting_twist_value_shrinks_the_klein_center(monkeypatch, klein, pauli):
    A = TwistedAlgebra(klein, pauli, 2)  # w^2 = 1, the angles 0 over the conductor 2
    table = A.powers.copy()
    table[1, 2] = 1  # a half turn
    # (0,1) and (1,0) commute, and now w^2((0,1), (1,0)) != w^2((1,0), (0,1))
    monkeypatch.setattr(A, "powers", table)
    assert A.center_dimension() < 4


def _conjugated_blocks(monkeypatch, P, mode, unit=None, rows=None):
    """The gathered blocks lambda_u(F_n) of the fiber pass, the L side,
    replaced by P M P^T at window position ``mode`` (an index or a slice):
    at every unit, or at ``unit`` only, and on every batch row, or on the
    rows where ``rows(x)`` holds."""
    regular_reps = extension.regular_reps

    def conjugated(G, twist, x, fiber):
        M = regular_reps(G, twist, x, fiber)  # (..., modes, units, d, d)
        j = slice(None) if unit is None else [G.s(b) for b in fiber[:, 0]].index(unit)
        at = (...,) if rows is None else (rows(x), ...)
        at += (mode, j, slice(None), slice(None))
        M[at] = P @ M[at] @ P.T
        return M

    monkeypatch.setattr(extension, "regular_reps", conjugated)


def test_permuted_mode_block_is_caught_by_the_residual_not_the_norms(monkeypatch, klein, pauli):
    # mode 1's regular representation replaced by a unitary conjugate P M P^T,
    # P swapping the first two of the four fiber arrows: every norm is kept,
    # the block-sum identity R_u = L_u is not
    _conjugated_blocks(monkeypatch, np.eye(4)[[1, 0, 2, 3]], 1)
    ea = ExtensionAlgebra(klein, pauli)
    F = ea.element({0: {0: 1.0, 1: 0.5j}, 1: {0: 0.3, 1: 2.0, 2: -1.0j, 3: 0.7}})
    assert intertwine_check(F, 0, (0, 1)).residual > 1e-12
    cert = check_reduced_decomposition([F])
    assert cert.max_residual > 1e-12
    assert cert.max_norm_deviation <= 1e-9 and cert.max_unit_deviation <= 1e-9
    assert cert.witness == UnitWitness(0, 0, (0, 1), cert.witness.deviation, cert.max_residual)
    assert cert.witness.deviation <= 1e-9


def test_permuted_mode_block_at_one_unit_is_named_by_the_witness(monkeypatch):
    # pair(3) has three units; mode 1's block is conjugated by a swap of two
    # fiber arrows at unit 2 only, in the second sample: the batch row whose
    # mode-1 coefficient at arrow 0 is 0.25
    g = pair_groupoid(3)
    w = random_mu_k_coboundary(random.Random(5), g, 4)
    rows = lambda x: x[..., 1, 0] == 0.25  # mode 1 at arrow 0
    _conjugated_blocks(monkeypatch, np.eye(3)[[1, 0, 2]], 1, unit=2, rows=rows)
    ea = ExtensionAlgebra(g, w)
    values = {a: complex(1 + a, 2 - a) for a in g.arrows()}
    F = ea.element({0: values, 1: {**values, 0: 0.5}})
    H = ea.element({0: values, 1: {**values, 0: 0.25}})
    cert = check_reduced_decomposition([F, H])
    assert cert.max_residual > 1e-12 and cert.ok
    assert (cert.witness.sample, cert.witness.unit, cert.witness.window) == (1, 2, (0, 1))
    assert cert.witness.residual == cert.max_residual
    assert cert.witness.deviation <= 1e-9


def test_a_failing_decompose_report_names_the_fiber(monkeypatch):
    # every mode block at every unit conjugated by the reversal of the fiber
    spec, source = load_spec(None, "pauli")
    passing = cmd_decompose(Session(spec, source), 0, 4).to_doc()["checks"]
    assert all("witness" not in c["details"] for c in passing)
    _conjugated_blocks(monkeypatch, np.eye(4)[::-1], slice(None))
    report = cmd_decompose(Session(spec, source), 0, 4)
    checks = {c["name"]: c for c in report.to_doc()["checks"]}
    assert not checks["intertwining"]["passed"]
    witness = checks["intertwining"]["details"]["witness"]
    assert (witness["sample"], witness["unit"]) == (0, spec.groupoid.unit_labels[0])
    assert witness["residual"] == checks["intertwining"]["details"]["residual"]
    assert checks["reduced-decomposition"]["passed"]
    assert "witness" not in checks["reduced-decomposition"]["details"]


def _decompose_checks(window=(-1, 2)):
    """The checks of a pauli decompose report over the mode window, by name."""
    report = cmd_decompose(Session(*load_spec(None, "pauli")), 0, 4, modes=window)
    return {c["name"]: c for c in report.to_doc()["checks"]}


def test_passing_mode_laws_name_no_witness():
    checks = _decompose_checks()
    assert checks["mode-projection-laws"] == {
        "name": "mode-projection-laws", "passed": True, "details": {}
    }
    for name in ("mode-homomorphism", "mode-star"):
        assert checks[name]["passed"] and list(checks[name]["details"]) == ["residual"]


def test_a_projection_that_is_not_idempotent_is_named_with_its_mode(monkeypatch):
    # the projection onto mode 1 doubles it: P = 2 F_1, and P projects to 4 F_1
    def doubled(F, n):
        P = extension.mode_projection(F, n)
        return P + P if n == 1 else P

    monkeypatch.setattr(cli, "mode_projection", doubled)
    check = _decompose_checks()["mode-projection-laws"]
    assert not check["passed"]
    assert check["details"] == {"law": "idempotence", "mode": 1}


def test_projections_that_miss_a_mode_fail_the_sum(monkeypatch):
    # the projection onto mode 0 is zero: idempotent, but the sum lacks F_0
    def missing(F, n):
        return F.algebra.zero() if n == 0 else extension.mode_projection(F, n)

    monkeypatch.setattr(cli, "mode_projection", missing)
    check = _decompose_checks()["mode-projection-laws"]
    assert not check["passed"] and check["details"] == {"law": "sum"}


@pytest.mark.parametrize(
    "name, kernel, mode", [("mode-homomorphism", "products", 1), ("mode-star", "stars", 2)]
)
def test_a_failing_mode_law_names_its_worst_mode(monkeypatch, name, kernel, mode):
    # the graded product (or star) is off by 1e-3 at one arrow of one mode,
    # by 1e-6 at another; each mode's own product (or star) is untouched
    original = getattr(extension, kernel)

    def perturbed(G, twist, *x):
        out = original(G, twist, *x)
        out[..., mode + 1, 0] += 1e-3  # the window starts at mode -1
        out[..., 0, 1] += 1e-6
        return out

    monkeypatch.setattr(extension, kernel, perturbed)
    checks = _decompose_checks()
    assert checks["mode-projection-laws"]["passed"]
    details = checks[name]["details"]
    assert not checks[name]["passed"] and details["mode"] == mode
    assert float(details["residual"]) == pytest.approx(1e-3)


def test_twist_flipped_in_the_product_scatter_only_is_caught_by_the_residual(
    monkeypatch, klein, pauli
):
    # R_u's blocks (fiber_products, a scatter of products) read w(a, b) with
    # the value at ((0,1), (1,0)) negated in every mode; the regular_reps
    # gather of the mode blocks reads the true table
    fiber_products = extension.fiber_products

    def flipped(G, twist, x, fiber):
        twist = twist.copy()
        twist[..., 1, 2] *= -1
        return fiber_products(G, twist, x, fiber)

    ea = ExtensionAlgebra(klein, pauli)
    F = ea.element({0: {0: 1.0, 1: 0.5j}, 1: {0: 0.3, 1: 2.0, 2: -1.0j, 3: 0.7}})
    assert intertwine_check(F, 0, (0, 1)).residual == 0.0
    monkeypatch.setattr(extension, "fiber_products", flipped)
    # at mode 1, column (1,0), row (1,1): 2.0 * w against 2.0 * (-w)
    assert intertwine_check(F, 0, (0, 1)).residual == 4.0
    assert check_reduced_decomposition([F]).max_residual == 4.0


def test_cyclic_decompose_rejects_the_next_mode_summand(monkeypatch, klein, pauli):
    # expected values read from the table of w^(n+1): the sign cocycle has w^n != w^(n+1)
    power_table = TwoCocycle.power_table
    monkeypatch.setattr(TwoCocycle, "power_table", lambda self, n: power_table(self, n + 1))
    cd = cyclic_decompose(cyclic_extension(klein, pauli, 2), skip_centers=True)
    assert not cd.ok
    # first at mode 0: delta_a * delta_b = delta_ab, where w(a, b) = -1 was expected
    assert (cd.witness.kind, cd.witness.modes) == ("product", (0, 0))
    assert pauli.value(*cd.witness.arrows) == -1
    assert cd.witness.residual == 2.0


def test_cyclic_decompose_rejects_conv_without_the_circle_weight(monkeypatch, klein, pauli):
    mode_product_terms = oracle.mode_product_terms

    def unweighted(e, left):
        terms = mode_product_terms(e, left)
        return terms._replace(e=terms.e - 1)  # over one power of k less

    monkeypatch.setattr(oracle, "mode_product_terms", unweighted)
    cd = cyclic_decompose(cyclic_extension(klein, pauli, 2), skip_centers=True)
    assert not cd.ok
    # the first product, of the unit with itself, comes out k = 2 times too large
    assert cd.witness == OracleWitness("product", (0, 0), (0, 0), 1.0)


def test_cyclic_decompose_rejects_a_coboundary_twisted_oracle(klein, pauli):
    # the oracle built on w * db is isomorphic to the one on w, but its
    # structure constants differ from those of C(G, w^n) basis by basis
    b = OneCochain(klein, {1: Fraction(1, 2)})
    ext = cyclic_extension(klein, pauli.mul(b.coboundary()), 2)
    ext.cocycle = pauli
    cd = cyclic_decompose(ext, skip_centers=True)
    assert not cd.ok
    # mode 0 sees no twist at all; mode 1 sees db
    assert (cd.witness.kind, cd.witness.modes) == ("product", (1, 1))
    assert not b.coboundary().value(*cd.witness.arrows).is_one()
