"""End-to-end command line behavior: exit codes, report formats,
determinism, and input-file handling."""

import json

from lecalc.cli import entrypoint, read_input_file

WORKED_BASE = "z1^2*z2^2 + z2^5 + z3^4"
WORKED_FAMILY = "z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2 + t^2*z1^2*z2^2"
SUSPENSION = "z2^3 + z3^3 + t*z2^4"


def run(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text_report(capsys):
    code, out, err = run(capsys, "invariants", "-e", WORKED_BASE)
    assert code == 0 and err == ""
    assert out.startswith("lecalc invariants\nseed: 0\n")
    assert "line singularity along the z1-axis: yes" in out
    assert "lambda0: 21" in out
    assert "lambda1: 3" in out
    assert "gamma1: 9" in out
    assert "polar ratio: 10/3" in out
    assert "transverse slice milnor number: 12" in out


def test_invariants_json_schema(capsys):
    code, out, err = run(capsys, "invariants", "-e", WORKED_BASE,
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["seed"] == 0
    inv = doc["invariants"]
    assert set(inv) == {"order", "multiplicity", "lambda0", "lambda1",
                        "gamma1", "polar_ratio", "euler_reduced", "mu_slice"}
    assert inv["order"] == 4
    assert inv["lambda0"] == 21
    assert inv["polar_ratio"] == "10/3"
    assert inv["mu_slice"] == 12
    assert doc["weights"]["weights"] == [6, 4, 5]
    assert doc["warnings"] == []


def test_reports_are_deterministic(capsys):
    for fmt in ("text", "json"):
        first = run(capsys, "invariants", "-e", WORKED_BASE, "--format", fmt)
        second = run(capsys, "invariants", "-e", WORKED_BASE, "--format", fmt)
        assert first == second


def test_json_numbers_match_text_report(capsys):
    from fractions import Fraction
    _, text, _ = run(capsys, "invariants", "-e", WORKED_BASE)
    _, raw, _ = run(capsys, "invariants", "-e", WORKED_BASE,
                    "--format", "json")
    inv = json.loads(raw)["invariants"]
    labels = {"order": "order at origin",
              "multiplicity": "multiplicity at origin",
              "lambda0": "lambda0",
              "lambda1": "lambda1",
              "gamma1": "gamma1",
              "polar_ratio": "polar ratio",
              "euler_reduced":
                  "reduced euler characteristic of the milnor fibre",
              "mu_slice": "transverse slice milnor number"}
    lines = {line.split(":", 1)[0].strip(): line.split(":", 1)[1]
             for line in text.splitlines() if ":" in line}
    for key, label in labels.items():
        printed = lines[label].split("(")[0].strip()
        value = inv[key]
        expected = Fraction(value) if isinstance(value, str) else value
        assert Fraction(printed) == expected, (key, printed, value)


def test_permuted_variables_move_the_axis(capsys):
    # same germ written with the singular axis in second position
    code, out, _ = run(capsys, "invariants",
                       "-e", "z2^2*z1^2 + z1^5 + z3^4",
                       "--permute", "2,1,3")
    assert code == 0
    assert "line singularity along the z2-axis: yes" in out
    assert "lambda0: 21" in out


def test_refusal_non_reduced(capsys):
    code, out, err = run(capsys, "invariants", "-e", "z2^2*z3^2")
    assert code == 2
    assert out == ""
    assert err.startswith("refused: NON_REDUCED:")


def test_not_line_singularity_fallback_report(capsys):
    code, out, err = run(capsys, "invariants", "-e", "z1^2 + z2^2 + z3^2")
    assert code == 2
    assert "line singularity along the z1-axis: NO" in out
    assert "first failing check: vanishes_on_axis" in out
    assert "refused: NOT_LINE_SINGULARITY" in out
    assert "fallback: isolated singularity with milnor number 1" in out


def test_not_line_singularity_fallback_json(capsys):
    code, out, _ = run(capsys, "invariants", "-e", "z1^2 + z2^2 + z3^2",
                       "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["refusal"]["token"] == "NOT_LINE_SINGULARITY"
    assert doc["refusal"]["failing_check"] == "vanishes_on_axis"
    assert doc["refusal"]["fallback_milnor"] == 1


def test_not_line_singularity_extra_critical_component(capsys):
    code, out, _ = run(capsys, "invariants", "-e",
                       "z2^2 + z3^2*(z3 - z1)^2")
    assert code == 2
    assert "first failing check: no_extra_critical_component" in out
    assert "refused: NOT_LINE_SINGULARITY" in out


def test_parse_error_exits_one(capsys):
    code, out, err = run(capsys, "invariants", "-e", "z1 +")
    assert code == 1
    assert err.startswith("error:")
    assert "position" in err


def test_usage_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "invariants")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "invariants", "-e", "z1^2", "-f", "x.lec")
    assert code == 1 and "error:" in err


def test_usage_rejects_bad_flags(capsys):
    code, _, err = run(capsys, "invariants", "-e", WORKED_BASE,
                       "--vars", "z1,z1,z3")
    assert code == 1
    code, _, err = run(capsys, "invariants", "-e", WORKED_BASE,
                       "--seed", "-4")
    assert code == 1
    code, _, err = run(capsys, "invariants", "-e", WORKED_BASE,
                       "--budget", "0")
    assert code == 1
    code, _, err = run(capsys, "invariants", "-e", WORKED_BASE,
                       "--no-such-flag")
    assert code == 1


def test_family_command_verdicts(capsys):
    code, out, _ = run(capsys, "family", "-e", SUSPENSION, "--param", "t")
    assert code == 0
    assert "orders: 3 (at t = 0) vs 3 (generic t)" in out \
        or "equimultiple" in out
    assert "mt2" in out and "EQUIMULTIPLE" in out


def test_family_summary_fires_contrapositive(capsys):
    code, out, _ = run(capsys, "family", "-e", WORKED_FAMILY, "--param", "t",
                       "--assert-gamma1-irreducible")
    assert code == 0
    assert "NOT equimultiple (orders 4 vs 3)" in out
    assert "rule cmt3 => NOT topologically V-equisingular" in out
    assert "evidence SUPPORTING, not a certificate" in out


def test_family_with_zero_base_refused(capsys):
    code, out, err = run(capsys, "family", "-e", "t*z2^2", "--param", "t")
    assert code == 2
    assert err.startswith("refused:")


def test_family_requires_parameter(capsys):
    code, _, err = run(capsys, "family", "-e", WORKED_BASE)
    assert code == 1
    assert "param" in err


def test_family_json_structure(capsys):
    code, out, _ = run(capsys, "family", "-e", SUSPENSION, "--param", "t",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["family"]["parameter"] == "t"
    rules = {v["rule"] for v in doc["verdicts"]}
    assert {"mt2", "mt3", "cmt2", "cmt3", "homogeneous"} <= rules
    conclusions = {v["rule"]: v["conclusion"] for v in doc["verdicts"]}
    assert conclusions["mt2"] == "EQUIMULTIPLE"
    assert doc["invariants"]["lambda1"] == 4


def test_ilm_command_passes(capsys):
    code, out, _ = run(capsys, "ilm", "-e", SUSPENSION, "--param", "t")
    assert code == 0
    assert "overall: PASS" in out


def test_ilm_rejects_small_exponents(capsys):
    code, _, err = run(capsys, "ilm", "-e", SUSPENSION, "--param", "t",
                       "--j", "1,2")
    assert code == 1
    assert "threshold" in err


def test_input_file_round_trip(tmp_path, capsys):
    path = tmp_path / "family.lec"
    path.write_text("# demo family\nvars: z1,z2,z3\nparam: t\n"
                    + SUSPENSION + "\n")
    variables, parameter, expression = read_input_file(str(path))
    assert variables == ("z1", "z2", "z3")
    assert parameter == "t"
    assert expression == SUSPENSION
    code, out, _ = run(capsys, "family", "-f", str(path))
    assert code == 0
    assert "EQUIMULTIPLE" in out


def test_input_file_conflicts_with_explicit_flags(tmp_path, capsys):
    path = tmp_path / "family.lec"
    path.write_text("vars: z1,z2,z3\nparam: t\n" + SUSPENSION + "\n")
    code, _, err = run(capsys, "family", "-f", str(path),
                       "--vars", "z1,z2,z3")
    assert code == 1
    assert "error:" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "invariants", "-f", "/nonexistent/x.lec")
    assert code == 1
    assert "error:" in err
