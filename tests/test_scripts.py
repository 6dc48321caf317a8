"""The scripts that call the certificates run to a clean exit, in process."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
