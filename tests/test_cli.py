import json
from pathlib import Path

import pytest

from gpdext import morita
from gpdext.cli import load_spec, main
from gpdext.documents import DocumentError, fmt_float
from helpers import spec_to_doc

GOLDEN = Path(__file__).parent / "golden" / "verify_all_pauli_seed0.json"
FIXTURES = ["pauli", "pair2_trivial", "pair3_cobound", "z6_bichar", "cover3_cech5"]


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


# a field of pauli.json and a value there that no spec document may hold
MALFORMED_SPECS = [
    (("groupoid", "units"), 5),
    (("groupoid", "units"), None),
    (("groupoid", "compose"), 5),
    (("groupoid", "compose"), None),
    (("groupoid", "inverse"), 5),
    (("groupoid", "inverse"), None),
    (("groupoid", "compose", 0), 5),
    (("groupoid", "inverse", 0), 5),
    (("cocycle", "entries", 0), 5),
    (("cocycle", "entries", 0), [5, "1/2"]),
    (("cocycle", "entries"), 5),
    (("cocycle", "entries", 0, 1), False),
    (("cocycle", "entries", 0, 1), True),
    (("params", "k"), "x"),
    (("params", "modes"), [1]),
    (("params", "samples"), -2),
    (("params", "k"), 2.5),
    (("params", "k"), True),
    (("params", "k"), "4"),
    (("params", "seed"), 0.5),
    (("params", "samples"), True),
    (("params", "modes"), [-1.5, 1]),
    (("params", "modes"), [0, "1"]),
]

# an entry of pair2_trivial.json written again, with another value, before
# the correct one: (field, entry, what the error names)
REPEATED_ENTRIES = [
    (("groupoid", "compose"), ["(0,0)", "(0,0)", "(0,1)"], "compose entry for ('(0,0)', '(0,0)')"),
    (("groupoid", "inverse"), ["(0,1)", "(0,1)"], "inverse entry for arrow '(0,1)'"),
    (("cocycle", "entries"), [["(0,1)", "(1,0)"], "1/2"], "cocycle entry on ('(0,1)', '(1,0)')"),
]


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        rc, out = run(capsys, "validate", "--fixture", "pauli")
        assert rc == 0
        assert "overall: pass" in out

    def test_check_failure_is_one(self, tmp_path, capsys):
        # a cocycle value that breaks the cocycle identity: parses fine,
        # fails verification
        spec = json.loads((Path(__file__).parents[1] / "src/gpdext/fixtures/pauli.json").read_text())
        spec["cocycle"]["entries"] = spec["cocycle"]["entries"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc, out = run(capsys, "validate", str(bad))
        assert rc == 1
        assert "FAIL" in out

    def test_parse_error_is_two(self, tmp_path, capsys):
        doc = tmp_path / "broken.json"
        doc.write_text("{not json")
        assert main(["validate", str(doc)]) == 2

    def test_unknown_fixture_is_two(self):
        assert main(["validate", "--fixture", "does_not_exist"]) == 2

    def test_missing_input_is_two(self):
        assert main(["validate"]) == 2

    def test_missing_document_is_two(self, tmp_path, capsys):
        assert main(["verify-all", str(tmp_path / "absent.json")]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "verify-all"])
    @pytest.mark.parametrize(
        "window, message",
        [("1-2", "wants the form a..b, got '1-2'"), ("2..1", "window is empty, got '2..1'")],
    )
    def test_malformed_mode_flag_is_two(self, command, window, message, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--fixture", "pauli", f"--modes={window}"])
        assert exited.value.code == 2
        assert f"argument --modes: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cyclic-oracle", "verify-all"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_two(self, command, k, capsys):
        assert main([command, "--fixture", "pauli", "--samples", "2", f"--k={k}"]) == 2
        assert "--k must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, fixture", [("cyclic-oracle", "pauli"), ("morita", "pair3_cobound")]
    )
    @pytest.mark.parametrize("k", [0, -1])
    def test_document_k_below_one_is_two(self, command, fixture, k, tmp_path, capsys):
        path = Path(__file__).parents[1] / f"src/gpdext/fixtures/{fixture}.json"
        spec = json.loads(path.read_text())
        spec["params"]["k"] = k
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps(spec))
        assert main([command, str(doc), "--samples", "2"]) == 2
        assert "params.k must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "verify-all"])
    def test_empty_document_mode_window_is_two(self, command, tmp_path, capsys):
        # as --modes=2..1 is: an empty window would pass every mode check
        # with nothing drawn
        spec = json.loads((Path(__file__).parents[1] / "src/gpdext/fixtures/pauli.json").read_text())
        spec.setdefault("params", {})["modes"] = [2, 1]
        doc = tmp_path / "modes.json"
        doc.write_text(json.dumps(spec))
        assert main([command, str(doc), "--samples", "2"]) == 2
        assert "params.modes window is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["algebra", "decompose", "morita", "verify-all"])
    def test_negative_sample_flag_is_two(self, command, capsys):
        assert main([command, "--fixture", "pair3_cobound", "--samples", "-2"]) == 2
        assert "--samples must be at least 0, got -2" in capsys.readouterr().err
        assert main([command, "--fixture", "pair3_cobound", "--samples", "0"]) == 0

    @pytest.mark.parametrize("command", ["morita", "verify-all"])
    def test_k_outside_the_cocycle_values_fails_the_morita_suite(self, command, tmp_path, capsys):
        path = Path(__file__).parents[1] / "src/gpdext/fixtures/pair3_cobound.json"
        spec = json.loads(path.read_text())
        spec["params"]["k"] = 4
        doc = tmp_path / "k4.json"
        doc.write_text(json.dumps(spec))
        rc, out = run(capsys, command, str(doc), "--samples", "2", "--format", "machine")
        assert rc == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        failed = checks["extension-groupoid" if command == "morita" else "morita/extension-groupoid"]
        assert not failed["passed"]
        assert failed["details"]["error"].endswith("is not a mu_4 root")

    @pytest.mark.parametrize("pair", ['["x", 0]', "1.5", "[1e400, 0]", "[%s, 0]" % ("9" * 400)])
    def test_malformed_element_coefficient_is_two(self, pair, tmp_path, capsys):
        elem = tmp_path / "e.json"
        elem.write_text('{"coeff": {"(0,0)": %s}}' % pair)
        assert main(["algebra", "--fixture", "pair2_trivial", "--element", str(elem)]) == 2
        assert "coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, text",
        [
            (["algebra", "--fixture", "pair2_trivial", "--element"], "[1]"),
            (["validate"], "5"),
        ],
    )
    def test_document_that_is_no_json_object_is_two(self, args, text, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        assert main([*args, str(doc)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        MALFORMED_SPECS,
        ids=[".".join(map(str, path)) + "=" + json.dumps(value) for path, value in MALFORMED_SPECS],
    )
    def test_malformed_spec_is_two(self, path, value, tmp_path, capsys):
        spec = json.loads((Path(__file__).parents[1] / "src/gpdext/fixtures/pauli.json").read_text())
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        doc = tmp_path / "spec.json"
        doc.write_text(json.dumps(spec))
        assert main(["verify-all", str(doc), "--samples", "2"]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, entry, named", REPEATED_ENTRIES, ids=[path[-1] for path, _, _ in REPEATED_ENTRIES]
    )
    def test_repeated_entry_is_two(self, path, entry, named, tmp_path, capsys):
        spec = json.loads(
            (Path(__file__).parents[1] / "src/gpdext/fixtures/pair2_trivial.json").read_text()
        )
        spec.setdefault("cocycle", {"entries": [[["(0,1)", "(1,0)"], "0/1"]]})
        spec[path[0]][path[1]].insert(0, entry)
        doc = tmp_path / "repeated.json"
        doc.write_text(json.dumps(spec))
        assert main(["validate", str(doc)]) == 2
        assert f"{named} repeated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["normalize", "trivialize", "algebra", "decompose", "cyclic-oracle", "morita", "verify-all"],
    )
    def test_non_groupoid_base_fails_the_suite(self, command, tmp_path, capsys):
        # an order-5 loop: a unital Latin square that is not associative
        from gpdext.documents import SpecDocument, canonical_json
        from gpdext.groupoid import group_groupoid

        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        doc = tmp_path / "loop.json"
        doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=group_groupoid(loop)))))
        assert main([command, str(doc), "--samples", "2", "--format", "machine"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = [c for c in json.loads(captured.out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["groupoid-axioms"]
        assert failed[0]["details"]["first"].startswith("(")  # a failing associativity triple


class TestCommands:
    def test_normalize_emits_documents(self, capsys):
        rc, out = run(capsys, "normalize", "--fixture", "pauli", "--format", "machine")
        assert rc == 0
        doc = json.loads(out)
        assert "normalized_cocycle" in doc["extras"]
        assert "normalizing_cochain" in doc["extras"]

    def test_trivialize_principal_fixture(self, capsys):
        rc, out = run(capsys, "trivialize", "--fixture", "pair3_cobound", "--format", "machine")
        assert rc == 0
        doc = json.loads(out)
        assert "trivializing_cochain" in doc["extras"]

    def test_trivialize_obstruction_fails(self, capsys):
        rc, out = run(capsys, "trivialize", "--fixture", "pauli")
        assert rc == 1
        assert "obstruction" in out

    def test_algebra_power_flag(self, capsys):
        rc, out = run(capsys, "algebra", "--fixture", "pauli", "--power", "2", "--format", "machine")
        assert rc == 0
        assert json.loads(out)["extras"]["power"] == 2

    def test_algebra_element_document(self, tmp_path, capsys):
        elem = tmp_path / "elem.json"
        elem.write_text('{"coeff": {"(0,0)": [1.0, 0.0], "(0,1)": [1.0, 0.0]}}')
        rc, out = run(capsys, "algebra", "--fixture", "pauli", "--element", str(elem),
                      "--format", "machine")
        assert rc == 0
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        # identity plus a self-adjoint involution: norm exactly 2
        assert checks["element-norm"]["details"]["reduced_norm"] == "2.0000000000e+00"
        mat = doc["extras"]["element_regular_rep"]["*"]
        assert mat[0][0] == ["1.0000000000e+00", "0.0000000000e+00"]
        assert len(mat) == 4

    def test_decompose_sample_documents(self, capsys):
        rc, out = run(capsys, "decompose", "--fixture", "pauli", "--samples", "3",
                      "--format", "machine")
        assert rc == 0
        extras = json.loads(out)["extras"]
        assert "sample_element" in extras
        assert "extension_norm" in extras["sample_decomposition"]

    def test_cyclic_oracle_agreement_flag(self, capsys):
        rc, out = run(capsys, "cyclic-oracle", "--fixture", "pauli", "--samples", "3",
                      "--format", "machine")
        assert rc == 0
        assert json.loads(out)["extras"]["oracle_agreement"] is True

    def test_decompose(self, capsys):
        rc, out = run(capsys, "decompose", "--fixture", "pauli", "--samples", "5",
                      "--modes=-1..1", "--format", "machine")
        assert rc == 0
        doc = json.loads(out)
        assert doc["extras"]["window"] == [-1, 1]
        assert doc["extras"]["modes"]["0"]["center_dimension"] == 4
        assert doc["extras"]["modes"]["1"]["center_dimension"] == 1

    def test_cyclic_oracle_outside_mu_k_fails(self, capsys):
        rc, out = run(capsys, "cyclic-oracle", "--fixture", "pauli", "--k", "3")
        assert rc == 1
        assert "  extension-groupoid  FAIL  error=cocycle value e(1/2) on ((0,1),(1,0))" in out

    def test_cyclic_oracle_pauli(self, capsys):
        rc, out = run(capsys, "cyclic-oracle", "--fixture", "pauli", "--samples", "5",
                      "--format", "machine")
        assert rc == 0
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["mode-decomposition"]["details"]["summand_dimensions"] == [4, 4]
        assert checks["mode-decomposition"]["details"]["center_dimensions"] == [4, 1]
        assert checks["mode-decomposition"]["details"]["exact"] is True

    def test_morita_on_principal_fixture(self, capsys):
        rc, out = run(capsys, "morita", "--fixture", "pair2_trivial", "--samples", "5",
                      "--format", "machine")
        assert rc == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["fullness"]["details"]["ideal_dimension"] == 4
        assert checks["not-saturated"]["passed"]
        assert "witness" not in checks["mode-zero-inner-products"]["details"]

    def test_a_leaking_lift_names_its_witness(self, monkeypatch, capsys):
        # sample 1's lift gains 1 at the extension arrow (e(1/2), (1,0)); at
        # k = 2 the two sheets over (1,0) leak alike, and the first is named
        lifts = morita._lifts

        def leaking(ext, f, h):
            L = lifts(ext, f, h)
            if L.ndim == 2:  # the samples' lifts, not the unit pairs' ones
                L[1, ext.base.n_arrows + 2] += 1
            return L

        monkeypatch.setattr(morita, "_lifts", leaking)
        rc, out = run(capsys, "morita", "--fixture", "pair2_trivial", "--samples", "3",
                      "--format", "machine")
        assert rc == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["mode-zero-inner-products"]
        witness = check["details"]["witness"]
        assert not check["passed"]
        assert (witness["sample"], witness["circle"], witness["arrow"]) == (1, 0, "(1,0)")
        assert witness["mode"] >= 1 and witness["leakage"] == check["details"]["leakage"]

    def test_verify_all_every_fixture(self, capsys):
        for fixture in ("pair2_trivial", "pair3_cobound", "pauli", "z6_bichar", "cover3_cech5"):
            rc, _ = run(capsys, "verify-all", "--fixture", fixture, "--samples", "3")
            assert rc == 0, fixture


class TestDeterminism:
    def test_golden_report_reproduced_byte_for_byte(self, capsys):
        rc, out = run(capsys, "verify-all", "--fixture", "pauli", "--seed", "0",
                      "--samples", "10", "--format", "machine")
        assert rc == 0
        assert out == GOLDEN.read_text()

    def test_same_seed_same_bytes(self, capsys):
        _, out1 = run(capsys, "decompose", "--fixture", "z6_bichar", "--seed", "5",
                      "--samples", "4", "--format", "machine")
        _, out2 = run(capsys, "decompose", "--fixture", "z6_bichar", "--seed", "5",
                      "--samples", "4", "--format", "machine")
        assert out1 == out2

    def test_different_seed_differs(self, capsys):
        _, out1 = run(capsys, "algebra", "--fixture", "pauli", "--seed", "1",
                      "--format", "machine")
        _, out2 = run(capsys, "algebra", "--fixture", "pauli", "--seed", "2",
                      "--format", "machine")
        assert out1 != out2


def test_oracle_skipped_for_non_root_of_unity_cocycles(tmp_path, capsys):
    import cmath

    from gpdext.cocycle import OneCochain
    from gpdext.documents import SpecDocument, canonical_json
    from gpdext.exact import CircleScalar
    from gpdext.groupoid import pair_groupoid

    g = pair_groupoid(2)
    b = OneCochain(
        g,
        {
            a: CircleScalar(z=cmath.exp(1j * 0.91 * a))
            for a in g.arrows()
            if a not in g.unit_to_arrow
        },
    )
    doc = tmp_path / "floaty.json"
    doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=g, cocycle=b.coboundary()))))
    rc, out = run(capsys, "cyclic-oracle", str(doc), "--format", "machine")
    assert rc == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["oracle-order"]["details"]["applicable"] is False


def test_an_oracle_run_of_conductor_13_is_skipped_not_passed(tmp_path, capsys):
    # angles over 13: no mu_k with k <= 12 holds the values, so the oracle
    # does not run; the check is skipped, the verdict and exit code stay pass
    from fractions import Fraction

    from gpdext.cocycle import OneCochain
    from gpdext.documents import SpecDocument, canonical_json
    from gpdext.groupoid import pair_groupoid

    g = pair_groupoid(2)
    b = OneCochain(g, {1: Fraction(1, 13), 2: Fraction(3, 13)})
    assert b.coboundary().conductor == 13
    doc = tmp_path / "conductor13.json"
    doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=g, cocycle=b.coboundary()))))
    checks = (("cyclic-oracle", "oracle-order"), ("verify-all", "cyclic-oracle/oracle-order"))
    for command, name in checks:
        rc, out = run(capsys, command, str(doc), "--format", "machine")
        report = json.loads(out)
        assert rc == 0 and report["passed"] is True
        skipped = [c for c in report["checks"] if "skipped" in c]
        assert [(c["name"], c["passed"], c["skipped"]) for c in skipped] == [(name, True, True)]
        assert skipped[0]["details"]["applicable"] is False
        rc, out = run(capsys, command, str(doc))
        assert rc == 0 and out.rstrip().endswith("overall: pass")
        [line] = [x for x in out.splitlines() if x.split()[:1] == [name]]
        assert line.split()[1] == "skip"
        others = [x.split()[1] for x in out.splitlines()[1:-1] if x.split()[:1] != [name]]
        assert set(others) == {"pass"}


def test_an_unnormalized_cocycle_is_normalized_by_each_suite(tmp_path, capsys, monkeypatch):
    # w = delta b on pair(2) with b = e(1/4) at one unit arrow u, so
    # w(u, u) = e(1/4) and w is not normalized; the document sets no params.k
    from fractions import Fraction

    import gpdext.cli as cli
    from gpdext.cocycle import OneCochain, TwoCocycle
    from gpdext.documents import SpecDocument, canonical_json
    from gpdext.groupoid import pair_groupoid

    g = pair_groupoid(2)
    w = OneCochain(g, {g.unit_arrow(0): Fraction(1, 4)}).coboundary()
    assert not w.normalized
    doc = tmp_path / "unnormalized.json"
    doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=g, cocycle=w))))
    for command in ("trivialize", "algebra", "decompose", "cyclic-oracle", "morita"):
        rc, out = run(capsys, command, str(doc), "--samples", "2", "--format", "machine")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert rc == 0, command
        assert checks["cocycle-normalized"]["passed"] is True
        assert checks["cocycle-normalized"]["details"] == {"auto_normalized": True}
    # verify-all passes, normalizes once, and decides the identity on its
    # input and as normalize's postcondition on the output
    calls = []
    normalize, check_identity = cli.normalize, TwoCocycle.check_identity
    monkeypatch.setattr(cli, "normalize", lambda w: calls.append("normalize") or normalize(w))
    monkeypatch.setattr(
        TwoCocycle, "check_identity", lambda w: calls.append("identity") or check_identity(w)
    )
    rc, out = run(capsys, "verify-all", str(doc), "--samples", "2", "--format", "machine")
    assert rc == 0 and calls == ["identity", "normalize", "identity"]
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for suite in ("algebra[n=0]", "algebra[n=1]", "decompose", "cyclic-oracle"):
        assert checks[f"{suite}/cocycle-normalized"]["passed"] is True
        assert checks[f"{suite}/cocycle-normalized"]["details"] == {"auto_normalized": True}


def test_empty_groupoid_runs_the_whole_suite(tmp_path, capsys):
    from gpdext.documents import SpecDocument, canonical_json
    from helpers import empty_groupoid

    doc = tmp_path / "empty.json"
    doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=empty_groupoid()))))
    rc, out = run(capsys, "verify-all", str(doc), "--samples", "2")
    assert rc == 0
    assert "overall: pass" in out


class TestFixtureLoading:
    def test_env_var_overrides_fixture_dir(self, tmp_path, monkeypatch, capsys):
        fixtures = Path(__file__).parents[1] / "src/gpdext/fixtures"
        (tmp_path / "mine.json").write_text((fixtures / "pair2_trivial.json").read_text())
        monkeypatch.setenv("GPDEXT_FIXTURE_DIR", str(tmp_path))
        rc, _ = run(capsys, "validate", "--fixture", "mine")
        assert rc == 0
        assert main(["validate", "--fixture", "pauli"]) == 2  # not in override dir

    def test_load_spec_rejects_both_path_and_fixture(self):
        with pytest.raises(DocumentError):
            load_spec("x.json", "pauli")


@pytest.mark.parametrize("fixture", ["pauli", "pair3_cobound"])
def test_verify_all_validates_the_base_once(fixture, monkeypatch):
    import gpdext.cli as cli

    calls = []
    validate = cli.validate
    monkeypatch.setattr(cli, "validate", lambda g: calls.append(g) or validate(g))
    spec, source = load_spec(None, fixture)
    assert cli.cmd_verify_all(spec, source, 0, 2).passed
    assert calls == [spec.groupoid]
    # the report does not outlive the call
    cli.cmd_validate(cli.Session(spec, source), 0, 2)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "fixture", ["pauli", "z6_bichar", "pair3_cobound", "cover3_cech5", "pair2_trivial"]
)
def test_verify_all_checks_the_cocycle_identity_once(fixture, monkeypatch):
    import gpdext.cli as cli
    from gpdext.cocycle import TwoCocycle

    calls = []
    check_identity = TwoCocycle.check_identity
    monkeypatch.setattr(
        TwoCocycle, "check_identity", lambda w: calls.append(w) or check_identity(w)
    )
    spec, source = load_spec(None, fixture)
    assert main(["verify-all", "--fixture", fixture, "--samples", "2"]) == 0
    # every fixture's cocycle is normalized, so verify-all checks no other
    assert len(calls) == 1
    calls.clear()
    w = spec.cocycle_or_trivial()
    assert cli.cmd_verify_all(spec, source, 0, 2).passed
    assert calls == [w]
    # the report does not outlive the call
    cli.cmd_algebra(cli.Session(spec, source), 0, 2)
    assert calls == [w, w]


def test_failing_mode_decomposition_names_its_witness(monkeypatch):
    import gpdext.cli as cli
    from gpdext.cocycle import TwoCocycle

    spec, source = load_spec(None, "pauli")
    passing = {c.name: c for c in cli.cmd_cyclic_oracle(cli.Session(spec, source), 0, 2).checks}
    assert "witness" not in passing["mode-decomposition"].details
    # expected values read from the next mode's table of w^n
    power_table = TwoCocycle.power_table
    monkeypatch.setattr(TwoCocycle, "power_table", lambda self, n: power_table(self, n + 1))
    checks = {c.name: c for c in cli.cmd_cyclic_oracle(cli.Session(spec, source), 0, 2).checks}
    check = checks["mode-decomposition"]
    assert not check.passed
    witness = check.details["witness"]
    assert witness["kind"] == "product" and witness["modes"] == [0, 0]
    assert len(witness["arrows"]) == 2 and witness["residual"] != fmt_float(0.0)


def test_normalize_decides_the_identity_twice(monkeypatch, capsys):
    from gpdext.cocycle import TwoCocycle

    calls = []
    check_identity = TwoCocycle.check_identity
    monkeypatch.setattr(
        TwoCocycle, "check_identity", lambda w: calls.append(w) or check_identity(w)
    )
    assert main(["normalize", "--fixture", "pauli", "--format", "machine"]) == 0
    # once on the input, once as normalize's postcondition on its output
    assert len(calls) == 2 and calls[0] is not calls[1]


def _count_builds(monkeypatch) -> list:
    """The k of every mu_k x_w G built from now on, in build order."""
    from gpdext.cyclic_oracle import CyclicExtension

    builds = []
    init = CyclicExtension.__init__

    def counting(self, g, w, k):
        builds.append(k)
        init(self, g, w, k)

    monkeypatch.setattr(CyclicExtension, "__init__", counting)
    return builds


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_verify_all_checks_equal_the_standalone_commands(fixture, seed):
    import gpdext.cli as cli
    from gpdext.groupoid import is_principal

    spec, source = load_spec(None, fixture)
    suites = [
        ("validate", cli.cmd_validate, {}),
        ("algebra[n=0]", cli.cmd_algebra, {"power": 0}),
        ("algebra[n=1]", cli.cmd_algebra, {"power": 1}),
        ("decompose", cli.cmd_decompose, {}),
        ("cyclic-oracle", cli.cmd_cyclic_oracle, {}),
    ]
    if is_principal(spec.groupoid):
        suites += [("trivialize", cli.cmd_trivialize, {}), ("morita", cli.cmd_morita, {})]
    want, extras = [], {}
    for prefix, command, options in suites:
        sub = command(cli.Session(spec, source), seed, 3, **options)
        for c in sub.checks:
            # verify-all reports the cocycle's checks once per suite before
            # trivialize, and none of trivialize's or morita's extras
            if prefix not in ("trivialize", "morita") or not c.name.startswith("cocycle-"):
                want.append((f"{prefix}/{c.name}", c.passed, c.details, c.skipped))
        if prefix not in ("trivialize", "morita"):
            extras |= {f"{prefix}.{key}": value for key, value in sub.extras.items()}
    report = cli.cmd_verify_all(spec, source, seed, 3)
    assert report.passed
    got = [(c.name, c.passed, c.details, c.skipped) for c in report.checks if "/" in c.name]
    assert got == want
    assert report.extras == extras


@pytest.mark.parametrize("fixture,k", [("pair3_cobound", 6), ("cover3_cech5", 5)])
def test_verify_all_builds_each_extension_once(fixture, k, monkeypatch, capsys):
    import gpdext.cli as cli

    builds = _count_builds(monkeypatch)
    rc, _ = run(capsys, "verify-all", "--fixture", fixture, "--samples", "3")
    assert rc == 0
    # cyclic-oracle's mu_k x_w G serves the saturation report; the fullness
    # check builds the extension at k = 1
    assert builds == [k, 1]
    # standalone, the morita suite builds its own, and nothing outlives the call
    builds.clear()
    spec, source = load_spec(None, fixture)
    assert cli.cmd_morita(cli.Session(spec, source), 0, 3).passed
    assert builds == [1, k]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_verify_all_builds_one_algebra_per_mode(fixture, monkeypatch, capsys):
    from gpdext.algebra import TwistedAlgebra

    built = []
    init = TwistedAlgebra.__init__

    def counting(self, g, w, power=1):
        built.append(power)
        init(self, g, w, power)

    monkeypatch.setattr(TwistedAlgebra, "__init__", counting)
    rc, _ = run(capsys, "verify-all", "--fixture", fixture, "--seed", "3", "--samples", "3")
    assert rc == 0
    # the algebra suites' powers 0 and 1, decompose's window, and the
    # oracle's modes 0..k-1, whose centers it reads: one algebra each
    spec, _ = load_spec(None, fixture)
    (lo, hi), k = spec.params["modes"], spec.params["k"]
    assert sorted(built) == sorted({0, 1} | set(range(lo, hi + 1)) | set(range(k)))
    # a standalone command builds its own, so nothing outlives the call
    built.clear()
    rc, _ = run(capsys, "algebra", "--fixture", fixture, "--seed", "3", "--samples", "3")
    assert rc == 0 and built == [0, 1]


def test_verify_all_builds_apart_at_other_orders(monkeypatch, capsys):
    # --k 3 moves the oracle's order, not the saturation report's (the
    # document's k = 2)
    builds = _count_builds(monkeypatch)
    rc, _ = run(capsys, "verify-all", "--fixture", "pair2_trivial", "--samples", "2", "--k", "3")
    assert rc == 0 and builds == [3, 1, 2]
    builds.clear()
    rc, _ = run(capsys, "verify-all", "--fixture", "pair2_trivial", "--samples", "2", "--k", "2")
    assert rc == 0 and builds == [2, 1]


def test_a_failing_positivity_names_its_sample_unit_and_eigenvalue(monkeypatch, capsys):
    # with every inner product negated, each regular matrix of <f, f> is
    # -v v*, whose least eigenvalue is minus the squared norm of sample 0
    rc, out = run(capsys, "morita", "--fixture", "pair2_trivial", "--samples", "3",
                  "--format", "machine")
    assert rc == 0
    assert {c["name"]: c for c in json.loads(out)["checks"]}["positivity"]["details"] == {}
    inner = morita.inner_products
    monkeypatch.setattr(morita, "inner_products", lambda g, f, h: -inner(g, f, h))
    rc, out = run(capsys, "morita", "--fixture", "pair2_trivial", "--samples", "3",
                  "--format", "machine")
    assert rc == 1
    check = {c["name"]: c for c in json.loads(out)["checks"]}["positivity"]
    witness = check["details"]["witness"]
    assert not check["passed"] and (witness["sample"], witness["unit"]) == (0, "0")
    assert float(witness["eigenvalue"]) < -1e-12


def test_a_failing_cocycle_identity_names_its_first_triple(tmp_path, capsys):
    # e(1/4) at (1, 1) alone on Z3 is no cocycle: on (1, 1, 2) the left side
    # w(1,1) w(2,2) is e(1/4) and the right side w(1,2) w(1,0) is 1
    from fractions import Fraction

    from gpdext.cocycle import TwoCocycle
    from gpdext.documents import SpecDocument, canonical_json
    from gpdext.groupoid import cyclic_group_groupoid

    z3 = cyclic_group_groupoid(3)
    doc = tmp_path / "z3_broken.json"
    w = TwoCocycle(z3, {(1, 1): Fraction(1, 4)})
    doc.write_text(canonical_json(spec_to_doc(SpecDocument(groupoid=z3, cocycle=w))))
    for command in ("validate", "normalize", "algebra", "verify-all"):
        rc, out = run(capsys, command, str(doc), "--samples", "2", "--format", "machine")
        checks = [c for c in json.loads(out)["checks"] if c["name"].endswith("cocycle-identity")]
        assert rc == 1 and checks, command
        for check in checks:
            assert not check["passed"]
            assert check["details"]["first"].startswith("identity fails on (1,1,2): "), command


def test_an_unfaithful_regular_representation_names_its_arrow():
    # compose((0,1), (1,1)) and compose((1,0), (0,0)) rewritten after
    # validation: the arrows (0,1) and (1,0) are no longer fixed by the unit
    # at their source, and the first is named
    import gpdext.cli as cli

    spec, source = load_spec(None, "pair2_trivial")
    session = cli.Session(spec, source)
    passing = {c.name: c for c in cli.cmd_algebra(session, 0, 2).checks}
    assert "witness" not in passing["faithful-regular-representation"].details
    session = cli.Session(*load_spec(None, "pair2_trivial"))
    assert all(c.passed for c in session.checks)
    g = session.groupoid
    g.compose_array[g.arrow_labels.index("(0,1)"), g.unit_arrow(1)] = g.unit_arrow(0)
    g.compose_array[g.arrow_labels.index("(1,0)"), g.unit_arrow(0)] = g.unit_arrow(1)
    check = {c.name: c for c in cli.cmd_algebra(session, 0, 2).checks}[
        "faithful-regular-representation"
    ]
    assert not check.passed and (check.details["rank"], check.details["dimension"]) == (2, 4)
    assert check.details["witness"] == {"arrow": "(0,1)"}


def test_an_unfaithful_oracle_names_its_arrow():
    # in mu_2 x pauli, the products of the extension arrows (e(0/2)|(0,1))
    # and (e(1/2)|(1,1)) with their source unit rewritten to the unit arrow,
    # and the first is named
    import gpdext.cli as cli

    spec, source = load_spec(None, "pauli")
    session = cli.Session(spec, source)
    passing = {c.name: c for c in cli.cmd_cyclic_oracle(session, 0, 2).checks}
    assert "witness" not in passing["oracle-faithfulness"].details
    ext = session.extension(2)
    ext.compose = ext.compose.copy()
    for label in ("(e(0/2)|(0,1))", "(e(1/2)|(1,1))"):
        ext.compose[ext.groupoid.arrow_labels.index(label), ext.groupoid.unit_arrow(0)] = 0
    check = {c.name: c for c in cli.cmd_cyclic_oracle(session, 0, 2).checks}["oracle-faithfulness"]
    assert not check.passed and (check.details["rank"], check.details["dimension"]) == (6, 8)
    assert check.details["witness"] == {"arrow": "(e(0/2)|(0,1))"}
