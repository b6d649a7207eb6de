"""Smoke tests for the example scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_example_prints_the_contrapositive(capsys):
    example = _load("run_worked_example")
    assert example.main(example.ExampleConfig()) == 0
    out = capsys.readouterr().out
    assert "lambda0: 21" in out
    assert "rule cmt3: NOT_TOPOLOGICALLY_V_EQUISINGULAR" in out
    # both augmentation tables, at t = 0 and at generic t, pass
    tables = out.split("--- augmentation tables ---")[1]
    assert tables.count("result: PASS") == 2
