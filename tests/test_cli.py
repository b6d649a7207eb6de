"""End-to-end command line behavior: exit codes, report formats,
determinism, and input-file handling."""

import json
from pathlib import Path

import pytest

import lecalc
from lecalc import errors, report
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


@pytest.mark.parametrize("cls, token", [
    (errors.MathRefusal, "REFUSED"),
    (errors.NonReducedError, "NON_REDUCED"),
    (errors.NonIsolatedError, "NON_ISOLATED"),
    (errors.NotLineSingularityError, "NOT_LINE_SINGULARITY"),
    (errors.ImproperIntersectionError, "IMPROPER_INTERSECTION"),
    (errors.PolarDimensionError, "POLAR_DIMENSION"),
    (errors.NonIntegerResultError, "NON_INTEGER_RESULT"),
    (errors.DegenerateInputError, "DEGENERATE_INPUT"),
    (errors.UnluckySpecializationError, "UNLUCKY_SPECIALIZATION"),
    (errors.BudgetExceededError, "BUDGET_EXCEEDED"),
])
def test_refusal_tokens_are_fixed(cls, token):
    # the tokens are a public contract, printed on stderr and in reports
    assert cls.token == token


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


def test_selftest_out_of_budget_reports_json(capsys):
    code, out, _ = run(capsys, "selftest", "--budget", "50",
                       "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["corpus_files"] == 4
    last = doc["results"][-1]
    assert last["status"] == "BUDGET_EXCEEDED"
    assert all(r["status"] == "PASS" for r in doc["results"][:-1])
    code, text, _ = run(capsys, "selftest", "--budget", "50")
    assert code == 2
    assert text == report.text(doc)
    # the matrix stops at the exhausted criterion, with no tally line
    assert text.endswith(f"[{last['index']:2}/10] BUDGET_EXCEEDED  "
                         f"{last['description']}: {last['detail']}\n")
    assert "result:" not in text


def test_selftest_budget_failure_in_a_slice_is_reraised(capsys):
    # criterion 1 reads only the weights, which need no basis; criterion 2
    # reads the generic slice, which runs out of budget
    code, out, _ = run(capsys, "selftest", "--budget", "1",
                       "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    assert [r["status"] for r in results] == ["PASS", "BUDGET_EXCEEDED"]
    assert results[1]["detail"] == "reduction budget of 1 steps exhausted"


@pytest.mark.parametrize("argv", [
    # the largest basis takes 6 steps, the whole record 22
    ("invariants", "-e", "z1^2*z2^2 + z2^5 + z3^4 + z3*z4^3",
     "--vars", "z1,z2,z3,z4", "--budget", "10"),
    # the largest basis takes 3 steps, the whole command 48
    ("ilm", "-f", str(Path(lecalc.__file__).parent / "corpus"
                      / "homogeneous_family.lec"), "--budget", "30"),
])
def test_budget_bounds_the_whole_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("refused: BUDGET_EXCEEDED: ")


def test_fallback_milnor_number_does_not_hide_budget_exhaustion(capsys):
    # not a line singularity (mu = 8); the line check fails its first test
    # and takes no step, so all 5 steps of the command are the fallback's
    code, out, err = run(capsys, "invariants", "-e",
                         "z1^3 + z2^3 + z3^3 + z1*z2*z3", "--budget", "4")
    assert code == 2 and out == ""
    assert err == ("refused: BUDGET_EXCEEDED: reduction budget of 4 steps "
                   "exhausted\n")


def _family_refuses_for_budget(capsys, expr, budget):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "family", "-e", expr, "--param", "t",
                             "--budget", str(budget), "--format", fmt)
        assert code == 2 and out == ""
        assert err == (f"refused: BUDGET_EXCEEDED: reduction budget of "
                       f"{budget} steps exhausted\n")


def test_slice_cross_check_does_not_hide_budget_exhaustion(capsys):
    # the budget runs out while the generic slice is re-derived at a
    # rational t, which must read neither as a disagreeing specialization
    # nor as a slice failure; the cross-check runs from step 22 to step 57
    # of 105
    _family_refuses_for_budget(capsys, "z1^2*z2^2 + z2^4 + z3^4 + t*z1*z2^2",
                               40)


def test_axis_weight_note_does_not_hide_budget_exhaustion(capsys):
    # the budget runs out in the augmented Milnor numbers of mt2's note,
    # which take steps 5 to 10 of 10
    _family_refuses_for_budget(capsys, "z1*z2^2 + z2^3 + z3^3 + t*z1*z2^2",
                               6)


@pytest.mark.parametrize("flags, message", [
    (("--seed", "-4"), "--seed must be an unsigned 64-bit integer"),
    (("--seed", str(2 ** 64)), "--seed must be an unsigned 64-bit integer"),
    (("--budget", "0"), "--budget must be positive"),
])
def test_selftest_validates_seed_and_budget(capsys, flags, message):
    code, out, err = run(capsys, "selftest", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_usage_errors_after_a_successful_command(capsys):
    # the parser is built once per process; a command that parsed cleanly
    # must leave nothing behind for the next one
    code, _, _ = run(capsys, "invariants", "-e", "z2^3 + z3^3")
    assert code == 0
    for argv in (("invariants", "--budget", "x", "-e", "z2^3"),
                 ("family", "--no-such-flag"), ("invariants",), ()):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")
    code, out, _ = run(capsys, "invariants", "-e", "z2^3 + z3^3",
                       "--format", "json")
    assert code == 0 and json.loads(out)["budget"] == 100000


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


def test_ilm_refuses_a_prime_dividing_a_denominator(capsys):
    code, out, err = run(capsys, "ilm", "-e",
                         SUSPENSION + " + 1/2147483647*t*z2^5", "--param", "t")
    assert code == 2
    assert out == ""
    assert err == ("refused: UNLUCKY_SPECIALIZATION: 1/2147483647 has no "
                   "image in GF(2147483647)\n")


def test_ilm_rejects_small_exponents(capsys):
    code, _, err = run(capsys, "ilm", "-e", SUSPENSION, "--param", "t",
                       "--j", "1,2")
    assert code == 1
    assert "threshold" in err


def test_ilm_rejects_a_single_distinct_exponent(capsys):
    # one exponent gives no slope to infer the Le numbers from
    code, out, err = run(capsys, "ilm", "-e", SUSPENSION, "--param", "t",
                         "--j", "4,4")
    assert code == 1 and out == ""
    assert "at least two distinct exponents" in err


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
