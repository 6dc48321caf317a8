"""Writers, readers and random draws that only the tests use.

No command writes a spec or an element document, reads a graded element, or
draws these cochains and principal groupoids; the tests use them to build
their inputs and to round-trip the formats.
"""

import random
from fractions import Fraction

from gpdext.cocycle import OneCochain
from gpdext.documents import (
    DocumentError,
    SpecDocument,
    _coeffs_from_doc,
    _coeffs_to_doc,
    _load,
    cocycle_to_doc,
    groupoid_to_doc,
)
from gpdext.groupoid import FiniteGroupoid, cover_groupoid, disjoint_union, pair_groupoid


def spec_to_doc(spec: SpecDocument) -> dict:
    out = {"groupoid": groupoid_to_doc(spec.groupoid)}
    if spec.cocycle is not None:
        out["cocycle"] = cocycle_to_doc(spec.cocycle)
    if spec.params:
        out["params"] = spec.params
    return out


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
