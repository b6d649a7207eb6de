"""Golden reports: the text and JSON output of each case must match the
committed file in tests/golden/ byte for byte, with the expected exit code.

A golden file is the contract that refactors of the verdict rules and the
report code are held to; a change to one needs a CHANGES.md line saying why.
To regenerate a file, run the case's command with ``--seed 0`` (and
``--format json`` for the .json file) and redirect stdout, e.g.::

    PYTHONPATH=src python -m lecalc.cli family --seed 0 \\
        -f src/lecalc/corpus/suspension_family.lec > tests/golden/suspension.txt
"""

import json
from pathlib import Path

import pytest

import lecalc
from lecalc import report
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
    # asserted (never computed) polar curve irreducibility and the summary's
    # cmt3 clause
    "contrapositive": ["-e", "z1^2*z2^2 + z2^4 + z3^4 + t*z1*z2^2",
                       "--param", "t", "--assert-equisingular",
                       "--assert-gamma1-irreducible"],
    # line_singularities_at_both_slices FAILS
    "line_check_fails": ["-e", "z1^3 + z2^2*z1 + z3^2 + t*z2^2",
                         "--param", "t"],
    # the coefficient 2147483647 is a zero divisor mod p1 p2: every generic
    # value is computed once per prime, and the report is the one a run per
    # prime always gave
    "zero_divisor": ["-e", "z2^3 + z3^3 + 2147483647*t*z2^4", "--param", "t"],
}

# name -> (command, arguments, exit code)
COMMAND_CASES = {
    # the worked base: weights, every record line
    "invariants_worked": ("invariants", ["-e", "z1^2*z2^2 + z2^5 + z3^4"], 0),
    # over QQ(t): "weights: skipped" and the parameter warning
    "invariants_param": ("invariants",
                         ["-e", "z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2",
                          "--param", "t"], 0),
    # NOT_LINE_SINGULARITY with the isolated-singularity fallback
    "invariants_not_line": ("invariants", ["-e", "z1^2 + z2^2 + z3^2"], 2),
    "ilm_suspension": ("ilm", ["-f", str(CORPUS / "suspension_family.lec")],
                       0),
    "ilm_constant": ("ilm", ["-f", str(CORPUS / "constant_family.lec")], 0),
    # the two heaviest tables: eight generic rows over GF(p) each, from the
    # members and Jacobians built once per command
    "ilm_homogeneous": ("ilm",
                        ["-f", str(CORPUS / "homogeneous_family.lec")], 0),
    "ilm_nonupper": ("ilm", ["-f", str(CORPUS / "nonupper_family.lec")], 0),
    # weights (8, 6, 7), rows from j = 87 and 62: colengths near 1000 that
    # need the highest-corner cutoff of the local standard bases
    "ilm_corner": ("ilm", ["-e", "z1^3*z2^3 + z2^7 + z3^6 + t*z1*z2^4",
                           "--param", "t"], 0),
    # the ten acceptance criteria and the tally line
    "selftest": ("selftest", [], 0),
}


def _check(capsys, command, args, code, case, fmt):
    got = entrypoint([command, "--seed", "0", "--format", fmt, *args])
    out = capsys.readouterr().out
    suffix = "txt" if fmt == "text" else "json"
    expected = (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")
    assert got == code
    assert out == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_family_report_matches_golden(capsys, case, fmt):
    _check(capsys, "family", CASES[case], 0, case, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_command_report_matches_golden(capsys, case, fmt):
    _check(capsys, *COMMAND_CASES[case], case, fmt)


@pytest.mark.parametrize("case", sorted(CASES) + sorted(COMMAND_CASES))
def test_golden_text_is_rendered_from_golden_json(case):
    doc = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert report.text(doc) == expected
