"""The scripts that call the certificates run to a clean exit, in process,
and the report digests match the committed ones line for line."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "name,args",
    [("random_audit", ["--count", "8", "--seed", "0"]), ("verify_fixtures", ["--seed", "0"])],
)
def test_script_exits_zero(monkeypatch, capsys, name, args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    assert _main(name)() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_report_digests_match_the_golden_lines(monkeypatch, capsys):
    # every report the digests cover stays byte-identical; a change meant to
    # move one rewrites tests/golden/report_digests.txt and says why
    monkeypatch.setattr(sys, "argv", ["report_digests"])
    assert _main("report_digests")() == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / "report_digests.txt").read_text().splitlines()
    assert len(got) == len(want) == 181
    assert [g for g, w in zip(got, want) if g != w] == []
