"""The scripts that call the certificates run to a clean exit, in process,
and the report digests match the committed ones line for line."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gpdext.cli import load_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _module(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,args",
    [("random_audit", ["--count", "8", "--seed", "0"]), ("verify_fixtures", ["--seed", "0"])],
)
def test_script_exits_zero(monkeypatch, capsys, name, args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    assert _module(name).main() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_oracle_profile_prints_time_and_calls_for_every_stage(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oracle_profile", "--count", "4", "--seed", "1"])
    assert _module("oracle_profile").main() == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head == "4 instances, seed 1" and columns.split()[0] == "stage"
    stages = ["build", "cyclic_decompose", "faithfulness_rank", "norm_agreement", "total"]
    assert [row.split()[0] for row in rows] == stages
    values = [[float(v) for v in row.split()[1:]] for row in rows]
    assert all(ms > 0 and calls > 0 for ms, calls in values)
    for i in range(2):  # the total is the sum of the stages
        assert values[-1][i] == pytest.approx(sum(v[i] for v in values[:-1]), rel=0.01)


def test_oracle_profile_times_the_oracle_stages_of_every_fixture(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oracle_profile", "--fixtures", "--count", "1", "--seed", "0"])
    module, spanned, built = _module("oracle_profile"), [], []
    ideal_dimension, extension = module.ideal_dimension, module.CyclicExtension

    def counted(ext, generators):
        spanned.append(ext.base.name)
        return ideal_dimension(ext, generators)

    def counted_build(g, w, k):
        built.append((g.name, k))
        return extension(g, w, k)

    monkeypatch.setattr(module, "ideal_dimension", counted)
    monkeypatch.setattr(module, "CyclicExtension", counted_build)
    assert module.main() == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head == "5 fixtures, 1 passes, seed 0"
    assert columns.split() == ["fixture", "stage", "ms/pass", "calls/pass"]
    stages = ["draws", "build", "cyclic_decompose", "norm_agreement", "ideal_dimension", "total"]
    names = ["cover3_cech5", "pair2_trivial", "pair3_cobound", "pauli", "z6_bichar"]
    assert [row.split()[:2] for row in rows] == [[n, s] for n in names for s in stages]
    spans = []
    for i in range(len(names)):
        cells = [row.split()[2:] for row in rows[i * len(stages) : (i + 1) * len(stages)]]
        ms = dict(zip(stages, (float(c[0]) for c in cells)))
        calls = dict(zip(stages, (int(c[1]) for c in cells)))
        assert all(ms[s] > 0 and calls[s] > 0 for s in stages[:4])
        # the six printed times are each rounded by up to 0.0005; calls are whole
        assert ms["total"] == pytest.approx(sum(ms[s] for s in stages[:5]), abs=0.003)
        assert calls["total"] == sum(calls[s] for s in stages[:5])
        spans.append(calls["ideal_dimension"])
    # only the principal bases, the first three, call into ideal_dimension
    assert min(spans[:3]) > 10 * max(spans[3:])
    # a principal base spans its fullness and saturation ideals, in the warm
    # pass, the timed one and the profiled one; the others span none
    principal = [load_spec(None, name)[0].groupoid.name for name in names[:3]]
    assert sorted(spanned) == sorted(principal * 6)
    # as verify-all does, each pass builds mu_k x_w G once, and a principal
    # base also the extension at k = 1 of its fullness check
    one_pass = []
    for spec in (load_spec(None, name)[0] for name in names):
        g = spec.groupoid.name
        one_pass += [(g, spec.params["k"])] + [(g, 1)] * (g in principal)
    assert built == one_pass * 3


def test_report_digests_match_the_golden_lines(monkeypatch, capsys):
    # every report the digests cover stays byte-identical; a change meant to
    # move one rewrites tests/golden/report_digests.txt and says why
    monkeypatch.setattr(sys, "argv", ["report_digests"])
    assert _module("report_digests").main() == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / "report_digests.txt").read_text().splitlines()
    assert len(got) == len(want) == 191
    assert [g for g, w in zip(got, want) if g != w] == []


def test_design_counts_print_each_module_and_the_totals(monkeypatch, capsys):
    module = _module("design_counts")
    # parameters with a default, positional and keyword-only, in every def;
    # functions, methods and nested defs, but no lambda or class
    source = (
        "def f(a, b=1, *, c=2, d):\n    def h(y=0): pass\nclass C:\n"
        "    def g(self, x=None): pass\n    k = lambda z=1: z\n"
    )
    assert module.settable_options(source) == 4
    assert module.def_count(source) == 3
    monkeypatch.setattr(sys, "argv", ["design_counts"])
    assert module.main() == 0
    head, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert head == ["module", "lines", "defs", "options"]
    package = SCRIPTS.parent / "src" / "gpdext"
    assert [name for name, *_ in rows] == sorted(p.name for p in package.glob("*.py"))
    for name, lines, defs, options in rows:
        source = (package / name).read_text()
        assert int(lines) == source.count("\n")
        assert int(defs) == module.def_count(source)
        assert int(options) == module.settable_options(source)
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2, 3))]
