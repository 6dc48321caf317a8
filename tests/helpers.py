"""Writers, readers, builders and random draws that only the tests use.

No command writes a spec, a groupoid or an element document, serializes a
groupoid or a cocycle on its own, reads a graded element, builds the empty
groupoid or a cocycle from Cech data, or draws these cochains, principal
groupoids, single algebra elements or the oracle batch pool; the tests use
them to build their inputs and to round-trip the formats.
"""

import random
from fractions import Fraction

from gpdext.cocycle import CocycleError, OneCochain, TwoCocycle
from gpdext.documents import (
    DocumentError,
    SpecDocument,
    canonical_json,
    _coeffs_from_doc,
    _coeffs_to_doc,
    _load,
    cocycle_to_doc,
)
from gpdext.exact import CircleScalar
from gpdext.extension import ExtensionAlgebra
from gpdext.groupoid import (
    FiniteGroupoid,
    _cover_arrows,
    cover_groupoid,
    disjoint_union,
    pair_groupoid,
)
from gpdext.randgen import _FAMILIES, _MAX_ARROWS_BY_K, random_laurent, random_mu_k_coboundary


def groupoid_to_doc(g: FiniteGroupoid) -> dict:
    return {
        "name": g.name,
        "units": list(g.unit_labels),
        "arrows": [
            {"id": g.arrow_labels[a], "range": g.unit_labels[g.r(a)], "source": g.unit_labels[g.s(a)]}
            for a in g.arrows()
        ],
        "compose": sorted(
            [g.arrow_labels[a], g.arrow_labels[b], g.arrow_labels[c]]
            for (a, b), c in g.compose_table.items()
        ),
        "inverse": sorted([g.arrow_labels[a], g.arrow_labels[g.inv(a)]] for a in g.arrows()),
    }


def spec_to_doc(spec: SpecDocument) -> dict:
    out = {"groupoid": groupoid_to_doc(spec.groupoid)}
    if spec.cocycle is not None:
        out["cocycle"] = cocycle_to_doc(spec.cocycle)
    if spec.params:
        out["params"] = spec.params
    return out


def serialize_groupoid(g: FiniteGroupoid) -> str:
    return canonical_json(groupoid_to_doc(g))


def serialize_cocycle(w: TwoCocycle) -> str:
    return canonical_json(cocycle_to_doc(w))


def element_to_doc(f) -> dict:
    """Sparse {arrow_id: [re, im]} map plus the algebra tag."""
    alg = f.algebra
    return {
        "tag": {
            "groupoid": alg.groupoid.name,
            "power": alg.power,
        },
        "coeff": _coeffs_to_doc(alg.groupoid, f.coeff),
    }


def parse_laurent(doc, ext_algebra):
    doc = _load(doc)
    modes = doc.get("modes")
    if modes is None:
        raise DocumentError("laurent document missing field 'modes'")
    out = {}
    for mode, coeff in modes.items():
        try:
            n = int(mode)
        except ValueError:
            raise DocumentError(f"bad mode index {mode!r}") from None
        out[n] = _coeffs_from_doc(coeff, ext_algebra.groupoid)
    return ext_algebra.element(out)


def random_exact_cochain(rng: random.Random, g: FiniteGroupoid, max_den: int = 12) -> OneCochain:
    units = set(g.unit_to_arrow)
    vals = {}
    for a in g.arrows():
        if a in units:
            continue
        q = rng.randrange(1, max_den + 1)
        vals[a] = Fraction(rng.randrange(q), q)
    return OneCochain(g, vals)


def random_principal_groupoid(rng: random.Random) -> FiniteGroupoid:
    builders = [
        lambda: pair_groupoid(2),
        lambda: pair_groupoid(3),
        lambda: disjoint_union(pair_groupoid(2), pair_groupoid(1)),
        lambda: disjoint_union(pair_groupoid(2), pair_groupoid(2)),
        lambda: cover_groupoid(["x"], [{"x"}, {"x"}, {"x"}]),
        lambda: cover_groupoid([1, 2], [{1, 2}, {1}]),
        lambda: cover_groupoid([1, 2, 3], [{1, 2}, {2, 3}, {3}]),
    ]
    return rng.choice(builders)()


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid(0, [], [], {}, [], [], name="empty")


class CechDataError(CocycleError):
    pass


def cech_cocycle(points, cover, lam) -> TwoCocycle:
    """Turn Cech 2-cochain data on an indexed cover into a groupoid cocycle.

    ``lam`` maps (i, j, k, x) with x in the triple overlap of U_i, U_j, U_k
    to a circle value (a mapping or a callable).  The resulting cocycle on
    the cover groupoid assigns lam(i,j,k,x) to the composable pair
    ((x,i),(x,j)), ((x,j),(x,k)); it passes the cocycle identity exactly
    when lam satisfies the Cech 2-cocycle condition on quadruple overlaps.
    """
    g = cover_groupoid(points, cover)
    arrows = _cover_arrows(points, cover)

    if callable(lam):
        getter = lam
    else:
        def getter(i, j, k, x):
            return lam[(i, j, k, x)]

    vals = {}
    for a, b in g.compose_table:
        x, i, j = arrows[a]
        k = arrows[b][2]
        try:
            v = getter(i, j, k, x)
        except KeyError:
            raise CechDataError(
                f"cochain value missing on triple overlap (i={i}, j={j}, k={k}, x={x!r})"
            ) from None
        vals[(a, b)] = CircleScalar.coerce(v)
    return TwoCocycle(g, vals)


def random_element(rng: random.Random, algebra):
    """One element of the algebra, its coefficients drawn one arrow at a time,
    as ``randgen.random_values`` draws each row of a stack."""
    return algebra.element(
        {a: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for a in algebra.groupoid.arrows()}
    )


# The oracle batch pool: instances per k, and the share of instances with a
# seed cocycle that get it, as in acceptance test 01.
ORACLE_ORDERS = (2, 3, 4, 6)
ORACLE_PER_K = 18
SEED_COCYCLE_RATE = 0.7


def oracle_batch_pool(seed: int):
    """The (groupoid, cocycle, k) instances of the oracle_batch benchmark
    pool at a seed, in its order and from the same draws: per k, ORACLE_PER_K
    instances cycling over the test-01 families that k admits, each a random
    mu_k coboundary times the family's seed cocycle with probability
    SEED_COCYCLE_RATE.  Each instance's sample element is drawn too, so the
    next instance comes from the same state of the rng."""
    rng = random.Random(seed)
    for k in ORACLE_ORDERS:
        builds = [build for size, build in _FAMILIES if size <= _MAX_ARROWS_BY_K[k]]
        for i in range(ORACLE_PER_K):
            g, seed_cocycle = builds[i % len(builds)](k)
            w = random_mu_k_coboundary(rng, g, k)
            if seed_cocycle is not None and rng.random() < SEED_COCYCLE_RATE:
                w = w.mul(seed_cocycle)
            random_laurent(rng, ExtensionAlgebra(g, w), (0, k - 1))
            yield g, w, k
