"""Golden `family` reports: the text and JSON output of each case must match
the committed file in tests/golden/ byte for byte.

A golden file is the contract that refactors of the verdict rules and the
report code are held to; a change to one needs a CHANGES.md line saying why.
To regenerate a file, run the case's command with ``--seed 0`` (and
``--format json`` for the .json file) and redirect stdout, e.g.::

    PYTHONPATH=src python -m lecalc.cli family --seed 0 \\
        -f src/lecalc/corpus/suspension_family.lec > tests/golden/suspension.txt
"""

from pathlib import Path

import pytest

import lecalc
from lecalc.cli import entrypoint

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(lecalc.__file__).parent / "corpus"

CASES = {
    # every rule reaches EQUIMULTIPLE
    "constant_asserted": ["-f", str(CORPUS / "constant_family.lec"),
                          "--assert-equisingular",
                          "--assert-gamma1-irreducible"],
    # mt2 and homogeneous reach EQUIMULTIPLE
    "suspension": ["-f", str(CORPUS / "suspension_family.lec")],
    # the smallest weight sits on the axis: mt2's axis-weight note
    "axis_weight": ["-e", "z1*z2^2 + z2^3 + z3^3 + t*z1*z2^2",
                    "--param", "t"],
    # cmt3 and homogeneous contrapositives, the contradicted assertion, the
    # irreducibility evidence and the summary's cmt3 clause
    "contrapositive": ["-e", "z1^2*z2^2 + z2^4 + z3^4 + t*z1*z2^2",
                       "--param", "t", "--assert-equisingular",
                       "--assert-gamma1-irreducible"],
    # line_singularities_at_both_slices FAILS
    "line_check_fails": ["-e", "z1^3 + z2^2*z1 + z3^2 + t*z2^2",
                         "--param", "t"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_family_report_matches_golden(capsys, case, fmt):
    code = entrypoint(["family", "--seed", "0", "--format", fmt,
                       *CASES[case]])
    out = capsys.readouterr().out
    suffix = "txt" if fmt == "text" else "json"
    expected = (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")
    assert code == 0
    assert out == expected
