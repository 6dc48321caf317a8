import json

import pytest

from gpdext.documents import (
    DocumentError,
    SpecDocument,
    canonical_json,
    parse_cocycle,
    parse_element,
    parse_groupoid,
    parse_spec,
)
from gpdext.algebra import TwistedAlgebra
from gpdext.groupoid import (
    cover_groupoid,
    disjoint_union,
    pair_groupoid,
    symmetric_group_groupoid,
    validate,
)
from helpers import (
    element_to_doc,
    parse_laurent,
    serialize_cocycle,
    serialize_groupoid,
    spec_to_doc,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: pair_groupoid(1),
        lambda: pair_groupoid(3),
        lambda: symmetric_group_groupoid(3),
        lambda: disjoint_union(pair_groupoid(2), pair_groupoid(1)),
        lambda: cover_groupoid([1, 2], [{1, 2}, {1}]),
    ],
)
def test_groupoid_round_trip_is_canonical(build):
    g = build()
    text = serialize_groupoid(g)
    g2 = parse_groupoid(text)
    assert validate(g2).ok
    assert serialize_groupoid(g2) == text
    assert g2.n_units == g.n_units and g2.n_arrows == g.n_arrows


def test_compose_entries_are_sorted():
    doc = json.loads(serialize_groupoid(pair_groupoid(2)))
    assert doc["compose"] == sorted(doc["compose"])
    assert doc["inverse"] == sorted(doc["inverse"])


def test_cocycle_round_trip(klein, pauli):
    text = serialize_cocycle(pauli)
    w = parse_cocycle(text, klein)
    assert serialize_cocycle(w) == text
    assert w.pointwise_equal(pauli)


def test_cocycle_defaults_to_angle_zero(pair2):
    w = parse_cocycle('{"entries": []}', pair2)
    assert all(w.value(*p).is_one() for p in pair2.compose_table)


def test_cocycle_float_angles(pair2):
    w = parse_cocycle('{"entries": [[["(0,1)", "(1,0)"], 0.25]]}', pair2)
    assert not w.is_exact
    assert abs(w.value(1, 2).to_complex() - 1j) < 1e-12


def test_mixed_angles_make_a_numeric_cocycle(pair2):
    # one float angle makes the whole table numeric, and serializing then
    # writes every angle as a float
    doc = '{"entries": [[["(0,1)", "(1,0)"], "1/4"], [["(1,0)", "(0,1)"], 0.75]]}'
    w = parse_cocycle(doc, pair2)
    assert not w.is_exact and w.conductor is None
    assert not any(v.is_exact for v in w.values.values())
    entries = json.loads(serialize_cocycle(w))["entries"]
    assert [type(angle) for _, angle in entries] == [float, float]
    assert [angle for _, angle in entries] == pytest.approx([0.25, 0.75])
    assert serialize_cocycle(parse_cocycle(serialize_cocycle(w), pair2)) == serialize_cocycle(w)


def test_spec_round_trip(klein, pauli):
    spec = SpecDocument(groupoid=klein, cocycle=pauli, params={"k": 2, "seed": 0})
    text = canonical_json(spec_to_doc(spec))
    spec2 = parse_spec(text)
    assert canonical_json(spec_to_doc(spec2)) == text
    assert spec2.params["k"] == 2


def test_spec_without_cocycle(pair2):
    spec = parse_spec(canonical_json(spec_to_doc(SpecDocument(groupoid=pair2))))
    assert spec.cocycle is None
    assert spec.cocycle_or_trivial().check_identity().ok


class TestErrors:
    def test_missing_fields(self):
        with pytest.raises(DocumentError, match="missing field"):
            parse_groupoid('{"units": []}')

    def test_bad_json_carries_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_groupoid("{bad")

    def test_unknown_unit(self):
        with pytest.raises(DocumentError, match="unknown unit"):
            parse_groupoid(
                '{"units": ["u"], "arrows": [{"id": "a", "range": "u", "source": "v"}],'
                ' "compose": [], "inverse": [["a", "a"]]}'
            )

    def test_duplicate_arrow_ids(self):
        with pytest.raises(DocumentError, match="duplicate"):
            parse_groupoid(
                '{"units": ["u"], "arrows": [{"id": "a", "range": "u", "source": "u"},'
                ' {"id": "a", "range": "u", "source": "u"}], "compose": [], "inverse": []}'
            )

    def test_missing_identity_arrow(self):
        with pytest.raises(DocumentError, match="identity arrow"):
            parse_groupoid(
                '{"units": ["u"], "arrows": [{"id": "a", "range": "u", "source": "u"}],'
                ' "compose": [], "inverse": [["a", "a"]]}'
            )

    def test_cocycle_on_non_composable_pair(self, pair2):
        with pytest.raises(DocumentError, match="non-composable"):
            parse_cocycle('{"entries": [[["(0,1)", "(0,1)"], "1/2"]]}', pair2)

    def test_bad_angle(self, pair2):
        with pytest.raises(DocumentError, match="angle"):
            parse_cocycle('{"entries": [[["(0,1)", "(1,0)"], 1.5]]}', pair2)
        with pytest.raises(DocumentError, match="angle"):
            parse_cocycle('{"entries": [[["(0,1)", "(1,0)"], "x/y"]]}', pair2)
        # a JSON boolean is no number here, as in the run parameters
        for flag in ("false", "true"):
            with pytest.raises(DocumentError, match="bad angle value"):
                parse_cocycle('{"entries": [[["(0,1)", "(1,0)"], %s]]}' % flag, pair2)


def test_element_round_trip(pair2, pair2_trivial):
    alg = TwistedAlgebra(pair2, pair2_trivial, 1)
    f = alg.element({0: 1.5 + 0.5j, 3: -2.0})
    doc = element_to_doc(f)
    assert doc["tag"]["power"] == 1
    f2 = parse_element(canonical_json(doc), alg)
    assert f2.equals(f, 1e-12)


def test_laurent_round_trip(pair2, pair2_trivial):
    from gpdext.documents import laurent_to_doc
    from gpdext.extension import ExtensionAlgebra

    ea = ExtensionAlgebra(pair2, pair2_trivial)
    F = ea.element({-1: {0: 1.0 + 2.0j}, 2: {3: -0.5j}})
    doc = laurent_to_doc(F)
    assert set(doc["modes"]) == {"-1", "2"}
    F2 = parse_laurent(canonical_json(doc), ea)
    assert F2.equals(F, 1e-12)
    with pytest.raises(DocumentError):
        parse_laurent('{"modes": {"x": {}}}', ea)


@pytest.mark.parametrize("pair", [["x", 0], 1.5, [1, 2, 3], [1], [True, 0], None])
def test_malformed_coefficient_is_a_document_error(pair, pair2, pair2_trivial):
    from gpdext.extension import ExtensionAlgebra

    with pytest.raises(DocumentError, match="coefficient"):
        parse_element({"coeff": {"(0,0)": pair}}, TwistedAlgebra(pair2, pair2_trivial, 1))
    with pytest.raises(DocumentError, match="coefficient"):
        parse_laurent({"modes": {"0": {"(0,0)": pair}}}, ExtensionAlgebra(pair2, pair2_trivial))


def test_decomposition_report_doc(pair2, pair2_trivial):
    from gpdext.documents import decomposition_report_to_doc
    from gpdext.extension import ExtensionAlgebra, decompose

    ea = ExtensionAlgebra(pair2, pair2_trivial)
    rep = decompose(ea.identity())
    doc = decomposition_report_to_doc(rep)
    assert doc["modes"]["0"]["dimension"] == 4
    assert doc["modes"]["0"]["norm"] == "1.0000000000e+00"
