"""End-to-end command line behavior: exit codes, report formats,
determinism, and input-file handling."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lecalc
from lecalc import (cli, engine, errors, families, invariants, poly, report,
                    sparse)
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


def test_upper_line_names_the_first_offending_monomial():
    # the one monomial renderer writes 1 as '', which the line shows as 1
    fam = {"parameter": "t", "upper": {"upper": False, "degree": 6,
                                       "offenders": []}}
    for monomial, shown in (([0, 2, 0], "z2^2"), ([1, 2, 0], "z1*z2^2"),
                            ([0, 0, 0], "1")):
        fam["upper"]["offenders"] = [
            {"power": 2, "monomial": monomial, "weighted_degree": 0},
            {"power": 1, "monomial": [0, 0, 1], "weighted_degree": 2}]
        assert report._upper_text(fam, ["z1", "z2", "z3"]) == (
            f"no (t^2 carries {shown} of weighted degree 0 < 6; "
            "2 offending monomial(s))")


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


def test_a_stalled_reducedness_gcd_ends_in_budget_exhaustion(capsys):
    # the certificate cannot vouch for a square, so the gcd finds it, one
    # step per pseudo-remainder (45 here)
    square = "(z1^2 + z2*z3)^2*(z1 - z3)"
    code, out, err = run(capsys, "invariants", "-e", square)
    assert code == 2 and out == ""
    assert err == ("refused: NON_REDUCED: equation is not reduced; repeated "
                   "factor z1^2 + z2*z3\n")
    code, out, err = run(capsys, "invariants", "-e", square, "--budget", "40")
    assert code == 2 and out == ""
    assert err == ("refused: BUDGET_EXCEEDED: reduction budget of 40 steps "
                   "exhausted\n")


FOUR_VARIABLES = ("-z1^3*z2*z4^2 + 2*z1^2*z2*z4^3 - z1*z2*z4^4 + z3^4 "
                  "- z2^2*z3*z4 + z4^2")


def test_a_certified_germ_takes_no_reducedness_gcd(monkeypatch, capsys):
    # its gcd ran for minutes outside the budget
    def refuse(*args):
        raise AssertionError("reducedness gcd")

    monkeypatch.setattr(poly, "multivariate_gcd", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", "-e", FOUR_VARIABLES,
                         "--vars", "z1,z2,z3,z4")
    assert time.perf_counter() - start < 1
    assert code == 2 and err == ""
    assert "refused: NOT_LINE_SINGULARITY:" in out


def _bench_commands():
    """The argv of every operation of the two benchmark workloads."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(op["argv"], op["expect"]["exit"])
            for ops in workloads.WORKLOADS.values() for op in ops]


def test_the_benchmark_and_corpus_germs_take_no_reducedness_gcd(
        monkeypatch, capsys):
    witnessing, entered = [], []
    witness, gcd = poly.reduced_witness, sparse._gcd_rec

    def spy_witness(f):
        witnessing.append(f)
        try:
            return witness(f)
        finally:
            witnessing.pop()

    def spy_gcd(*args):
        if witnessing:
            entered.append(witnessing[-1])
        return gcd(*args)

    monkeypatch.setattr(poly, "reduced_witness", spy_witness)
    monkeypatch.setattr(sparse, "_gcd_rec", spy_gcd)
    monkeypatch.chdir(Path(__file__).parents[1])
    corpus = Path(lecalc.__file__).parent / "corpus"
    commands = _bench_commands() + [
        ([command, "-f", str(corpus / f"{name}_family.lec")], 0)
        for command in ("family", "ilm")
        for name in ("constant", "homogeneous", "nonupper", "suspension")]
    for argv, expected in commands:
        assert run(capsys, *argv)[0] == expected
    assert entered == []


def test_the_benchmark_builds_no_local_basis_in_three_variables(
        monkeypatch, capsys):
    # gamma1 and the Gamma + (f) cross-check prune the terms that z1 and the
    # pure power of Gamma divide, so every local basis is in two variables
    wide = []
    pair_loop = engine._pair_loop

    def spy(rows, packing, budget):
        if packing.order.kind == "local" and packing.nvars >= 3:
            wide.append(rows)
        return pair_loop(rows, packing, budget)

    monkeypatch.setattr(engine, "_pair_loop", spy)
    monkeypatch.chdir(Path(__file__).parents[1])
    for argv, expected in _bench_commands():
        assert run(capsys, *argv)[0] == expected
    assert wide == []


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
    # the largest basis takes 6 steps, the whole record 14
    ("invariants", "-e", "z1^2*z2^2 + z2^5 + z3^4 + z3*z4^3",
     "--vars", "z1,z2,z3,z4", "--budget", "10"),
    # the largest basis takes 3 steps, the whole command 26
    ("ilm", "-f", str(Path(lecalc.__file__).parent / "corpus"
                      / "homogeneous_family.lec"), "--budget", "20"),
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
    # the budget runs out while the generic slice is re-derived over GF(p)
    # at the family's points, which must read neither as a disagreeing
    # specialization nor as a slice failure; the cross-check runs from step
    # 161 to step 480 of 743
    _family_refuses_for_budget(
        capsys, "z1^2*z2^2 + z2^4 + z3^4 + t*z1*z2^2*z3", 300)


def test_axis_weight_note_does_not_hide_budget_exhaustion(capsys):
    # the budget runs out in the augmented Milnor numbers of mt2's note,
    # which take steps 1 to 3 of 3
    _family_refuses_for_budget(capsys, "z1*z2^2 + z2^3 + z3^3 + t*z1*z2^2",
                               2)


def test_five_dimensional_weight_cone_fits_the_default_budget(capsys):
    # the base's weight cone has dimension 5, so its one vertex (1, ..., 1)
    # is the one 5-subset of the variables; a search over small
    # combinations of a nullspace basis once ran out of the default budget
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "-e",
                         "z1*z2*z3*z4*z5 + t*z1^2*z2", "--param", "t",
                         "--vars", "z1,z2,z3,z4,z5", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    weights = json.loads(out)["weights"]
    assert (weights["weights"], weights["degree"]) == ([1] * 5, 5)
    assert weights["unique"] is False


def test_base_with_a_far_weight_vertex_is_weighted_homogeneous(capsys):
    # the weights (1, 1, 1) of z1*z2^9 + z3^10 need a coefficient ratio of
    # 9 in the nullspace basis, past the bound of a small-combination search
    code, out, err = run(capsys, "family", "-e", "z1*z2^9 + z3^10 + t*z2^10",
                         "--param", "t", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["weights"]["weights"], doc["weights"]["degree"]) == \
        ([1, 1, 1], 10)
    statuses = {h["name"]: h["status"] for v in doc["verdicts"]
                for h in v["hypotheses"]}
    assert statuses["base_weighted_homogeneous"] == "HOLDS"


def test_family_runs_no_factor_search_on_the_polar_curve(capsys):
    # the generic polar ideal has seven generators with coefficients in
    # QQ(t); a gcd-based factor search over them once took 34 s outside the
    # budget, and no verdict read it
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "-e",
                         "z1^3*z2^2 + z2^5 + z3^3 + t*z1^2*z2^3*z3^2",
                         "--param", "t", "--format", "json")
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["summary"] == ("equimultiple (orders 3 = 3); verified "
                              "directly, no rule applies")
    assert [v["conclusion"] for v in doc["verdicts"]] == ["INCONCLUSIVE"] * 5
    assert "irreducibility_evidence" not in doc


@pytest.mark.parametrize("exponent", [200000, 1000000])
def test_high_transverse_powers_take_no_linear_loop(capsys, exponent):
    # parsing z2^e and saturating dz2 = e*z2^(e-1) by z2 each take a
    # bounded number of steps, not e - 1 products or e - 1 gcds
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", "-e",
                         f"z2^{exponent} + z3^2", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["invariants"]["lambda1"] == exponent - 1


def _weight_detections(monkeypatch, capsys, *argv) -> int:
    """How many times one command detects weights, over every module that
    imports detect_weights."""
    calls = []
    detect = invariants.detect_weights

    def spy(f):
        calls.append(f)
        return detect(f)

    for module in (invariants, families, cli):
        monkeypatch.setattr(module, "detect_weights", spy)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(calls)


def test_weights_are_detected_only_where_a_report_uses_them(monkeypatch,
                                                           capsys):
    # family: once, for the base (the weights line and the weight rules);
    # ilm reports no weights; invariants over QQ(t) skips them
    nonupper = str(Path(lecalc.__file__).parent / "corpus"
                   / "nonupper_family.lec")
    assert _weight_detections(monkeypatch, capsys, "family", "-f",
                              nonupper) == 1
    assert _weight_detections(monkeypatch, capsys, "ilm", "-f",
                              nonupper) == 0
    assert _weight_detections(monkeypatch, capsys, "invariants", "-e",
                              WORKED_BASE) == 1
    assert _weight_detections(monkeypatch, capsys, "invariants", "-e",
                              WORKED_FAMILY, "--param", "t") == 0


def test_higher_le_numbers_need_no_hyperplane_cut(capsys):
    # a line singularity whose transverse type changes at z1 = 1; lambda^2
    # is 0 by theorem, so no hyperplane cut is drawn, and none can land on
    # z1 = 1 (a cut there is not zero-dimensional)
    code, out, err = run(capsys, "invariants", "-e",
                         "z2^2 + z1*z3^3 - z3^3", "--seed", "75")
    assert code == 0 and err == ""
    assert "higher le numbers: lambda2 = 0\n" in out


def test_lambda1_redraws_a_witness_on_a_non_isolated_slice(capsys):
    # the first axis draws at this seed are z1 = 1 and -57/59; the slice at
    # z1 = 1 is z2^2, which is not isolated, so that witness is redrawn
    code, out, err = run(capsys, "invariants", "-e",
                         "z2^2 + z1*z3^3 - z3^3", "--seed", "65")
    assert code == 0 and err == ""
    assert "lambda1: 2  (axis witnesses z1 = 71/44, -57/59)\n" in out


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
    assert "(polar curve irreducibility: asserted, not a certificate)" in out
    assert "evidence" not in out


def test_family_with_zero_base_refused(capsys):
    code, out, err = run(capsys, "family", "-e", "t*z2^2", "--param", "t")
    assert code == 2
    assert err.startswith("refused:")


def test_family_reducedness_is_not_refused_at_a_rational_t(capsys):
    # the member at t = 9 is z2^3 + z1*z2^2*z3, which has the repeated
    # factor z2; seed 0 once drew t = 9 and refused the whole family
    code, out, err = run(capsys, "family", "-e",
                         "z2^3 + t*z3^3 - 9*z3^3 + z1*z2^2*z3", "--param", "t",
                         "--seed", "0")
    assert code == 0 and err == ""
    assert "orders at origin: 3 at t = 0, 3 at generic t" in out


@pytest.mark.parametrize("command", ["family", "ilm"])
def test_family_with_a_repeated_factor_over_qq_t_is_refused(capsys, command):
    # the t = 0 member is reduced; the generic slice record finds the
    # repeated factor over QQ(t), and the refusal is not kept as a slice
    # failure
    code, out, err = run(capsys, command, "-e", "(1 + t*z2)^2*(z2^3 + z3^3)",
                         "--param", "t")
    assert code == 2 and out == ""
    assert err == ("refused: NON_REDUCED: equation is not reduced; repeated "
                   "factor z2 + (1)/(t)\n")


def _field(ctx) -> str:
    if ctx.modulus == families.PRIMES[0] * families.PRIMES[1]:
        return "Z/(2147483647*2147483629)"
    if ctx.modulus:
        return f"GF({ctx.modulus})"
    return f"QQ({ctx.parameters[0]})" if ctx.parameters else "QQ"


@pytest.mark.parametrize("command", ["family", "ilm"])
@pytest.mark.parametrize("name", ["constant", "homogeneous", "nonupper",
                                  "suspension"])
def test_reducedness_is_walked_once_per_field(monkeypatch, capsys, command,
                                              name):
    # the t = 0 record over QQ, the generic record over QQ(t) and its
    # cross-check at both generic points in one record mod p1 p2; no record
    # over a single GF(p), none at a rational t
    fields = []
    real = poly.reduced_witness

    def spy(f):
        fields.append(_field(f.context))
        return real(f)

    monkeypatch.setattr(poly, "reduced_witness", spy)
    path = Path(lecalc.__file__).parent / "corpus" / f"{name}_family.lec"
    code, _, _ = run(capsys, command, "-f", str(path))
    assert code == 0
    assert sorted(fields) == ["QQ", "QQ(t)", "Z/(2147483647*2147483629)"]


def test_family_and_ilm_name_the_same_generic_points(capsys):
    docs = [json.loads(run(capsys, command, "-e", SUSPENSION, "--param", "t",
                           "--format", "json")[1])
            for command in ("family", "ilm")]
    points = docs[1]["ilm"]["generic"]["t_witnesses"]
    assert [w["prime"] for w in points] == list(families.PRIMES)
    assert docs[0]["generic_witnesses"] == points


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


def test_an_unlucky_generic_slice_leaves_the_line_hypothesis_unchecked(
        capsys):
    # a denominator the first prime divides refuses the generic slice for
    # the field it is checked over, which says nothing about the slice
    code, out, err = run(capsys, "family", "-e",
                         "z2^3 + z3^3 + 1/2147483647*t*z2^5", "--param", "t",
                         "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["summary"] == ("equimultiple (orders 3 = 3); verified "
                              "directly, no rule applies")
    for verdict in doc["verdicts"]:
        assert verdict["conclusion"] == "INCONCLUSIVE"
        line = verdict["hypotheses"][0]
        assert line == {
            "name": "line_singularities_at_both_slices",
            "status": "NOT_CHECKED",
            "detail": "generic t: UnluckySpecializationError: 1/2147483647 "
                      "has no image in GF(2147483647)"}


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


def test_ilm_rejects_a_repeated_exponent(capsys):
    # a repeated exponent would compute and print the same row twice
    code, out, err = run(capsys, "ilm", "-e", SUSPENSION, "--param", "t",
                         "--j", "2,3,3,5")
    assert code == 1 and out == ""
    assert "an exponent repeats" in err


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


def _probe(*lines: str) -> str:
    """Run LINES in a fresh isolated interpreter that imports lecalc from
    this checkout; return its stdout."""
    src = Path(lecalc.__file__).resolve().parent.parent
    probe = "\n".join(["import sys", "sys.path.insert(0, sys.argv[1])",
                       *lines])
    return subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(src)],
                          capture_output=True, text=True, check=True).stdout


def test_startup_imports_neither_dataclasses_nor_inspect():
    # records are NamedTuples: a dataclass execs generated methods when its
    # class is built, and dataclasses imports inspect, on every start
    out = _probe(
        "import lecalc.cli",
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out == "[]\n"


def test_startup_and_invariants_leave_the_family_layer_unloaded():
    # family, ilm and selftest import lecalc.families when they run; the
    # import and the invariants command never compile it
    loaded = ("print(sorted({'lecalc.families', 'lecalc.selftest'}"
              " & set(sys.modules)))")
    invariants = f"cli.entrypoint(['invariants', '-e', {WORKED_BASE!r}"
    out = _probe(
        "import contextlib, io",
        "import lecalc.cli as cli",
        loaded,
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert {invariants}]) == 0",
        f"    assert {invariants}, '--format', 'json']) == 0",
        loaded,
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.entrypoint(['ilm', '-e', {SUSPENSION!r},"
        " '--param', 't']) == 0",
        loaded)
    assert out == "[]\n[]\n['lecalc.families']\n"


def test_family_names_are_exported_lazily():
    out = _probe(
        "import lecalc",
        "print('lecalc.families' in sys.modules)",
        "namespace = {}",
        "exec('from lecalc import *', namespace)",
        "print(sorted(set(lecalc.__all__) - set(namespace)))",
        "import lecalc.families",
        "print(lecalc.analyze_family is lecalc.families.analyze_family)",
        "try:",
        "    lecalc.no_such_name",
        "except AttributeError as exc:",
        "    print(exc)")
    assert out == ("False\n[]\nTrue\n"
                   "module 'lecalc' has no attribute 'no_such_name'\n")


def test_permuting_the_transverse_variables_keeps_the_numbers(capsys):
    def numbers(*flags):
        code, out, _ = run(capsys, "invariants", "-e",
                           "z1^2*z2^2 + z2^5 + z3^4", "--format", "json",
                           *flags)
        assert code == 0
        return json.loads(out)["invariants"]

    assert numbers("--permute", "1,3,2") == numbers()
