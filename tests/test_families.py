"""Deformation families: decomposition, upper-family detection, slice
invariants, the verdict rules, and the augmentation identity tables."""

from dataclasses import replace
from random import Random

import pytest

from lecalc.engine import Ideal
from lecalc.errors import (DegenerateInputError, InternalCheckError,
                           NonReducedError, UsageError)
from lecalc.families import (EQUIMULTIPLE, FAILS, GENERIC, HOLDS,
                             INCONCLUSIVE, NOT_CHECKED,
                             NOT_TOPOLOGICALLY_V_EQUISINGULAR, USER_ASSERTED,
                             ZERO, EquimultiplicityResult, analyze_family,
                             decompose_family, evaluate_rules,
                             irreducibility_evidence, verify_ilm)
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, render

CTX = Context(("z1", "z2", "z3"), ("t",))

WORKED = "z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2 + t^2*z1^2*z2^2"
SUSPENSION = "z2^3 + z3^3 + t*z2^4"
HOMOGENEOUS = "z1^2*z2^2 + z2^4 + z3^4 + t*z2^4"


def fampoly(text):
    return parse_polynomial(text, CTX)


def verdicts(an, equisingular=False, irreducible=False):
    return {v.theorem: v
            for v in evaluate_rules(an, equisingular, irreducible)[0]}


@pytest.fixture(scope="module")
def worked():
    return analyze_family(fampoly(WORKED), Random(0))


@pytest.fixture(scope="module")
def suspension():
    return analyze_family(fampoly(SUSPENSION), Random(0))


@pytest.fixture(scope="module")
def homogeneous():
    return analyze_family(fampoly(HOMOGENEOUS), Random(0))


def test_decompose_splits_base_and_powers_of_t():
    fam = decompose_family(fampoly(WORKED), Random(0))
    assert fam.parameter == "t"
    assert render(fam.base) == "z2^5 + z1^2*z2^2 + z3^4"
    assert [(j, render(g)) for j, g in fam.deformation] == [
        (1, "z1*z2^2"), (2, "z1^2*z2^2")]
    assert len(fam.reduced_witnesses) == 2


def test_decompose_constant_family_has_empty_deformation():
    fam = decompose_family(fampoly("z2^3 + z3^3"), Random(0))
    assert fam.deformation == ()
    member = fam.member(5)
    assert render(member) == "z2^3 + z3^3"


def test_decompose_rejects_zero_base():
    with pytest.raises(DegenerateInputError):
        decompose_family(fampoly("t*z2^2"), Random(0))


def test_decompose_rejects_non_reduced_member():
    with pytest.raises(NonReducedError):
        decompose_family(fampoly("z2^2*z3 + t*z2^2*z3"), Random(0))


def test_equimultiplicity_ground_truth(worked, suspension):
    eq = worked.equimultiplicity
    assert (eq.order_zero, eq.order_generic) == (4, 3)
    assert not eq.equimultiple
    eqs = suspension.equimultiplicity
    assert (eqs.order_zero, eqs.order_generic) == (3, 3)
    assert eqs.equimultiple


def test_upper_detection(worked, homogeneous):
    assert worked.upper is not None and not worked.upper.upper
    assert worked.upper.offenders == ((1, (1, 2, 0), 14),)
    assert homogeneous.upper.upper
    assert homogeneous.upper.offenders == ()


def test_slice_invariants_of_worked_family(worked):
    r0, rg = worked.zero.record, worked.generic.record
    assert (r0.lambda0, r0.lambda1, r0.gamma1) == (21, 3, 9)
    assert (rg.lambda0, rg.lambda1, rg.gamma1) == (6, 3, 9)
    assert r0.intersection_with_hypersurface == 30
    assert rg.intersection_with_hypersurface == 15
    assert len(worked.generic.t_witnesses) == 2


def test_mt2_inconclusive_on_worked_family(worked):
    verdict = verdicts(worked)["mt2"]
    assert verdict.theorem == "mt2"
    assert verdict.conclusion == INCONCLUSIVE
    status = {h.name: (h.status, h.detail) for h in verdict.hypotheses}
    assert status["le_numbers_constant"][0] == FAILS
    assert "lambda0: 21 vs 6" in status["le_numbers_constant"][1]
    assert status["degree_ratio_meets_augmentation_threshold"][0] == FAILS


def test_mt2_concludes_on_suspension(suspension):
    verdict = verdicts(suspension)["mt2"]
    assert verdict.conclusion == EQUIMULTIPLE
    status = {h.name: h.status for h in verdict.hypotheses}
    assert status["le_numbers_constant"] == HOLDS
    detail = {h.name: h.detail for h in verdict.hypotheses}
    assert "3 >= 2" in detail["degree_ratio_meets_augmentation_threshold"]


def test_mt3_needs_the_irreducibility_assertion(worked, suspension):
    verdict = verdicts(worked, irreducible=True)["mt3"]
    assert verdict.conclusion == INCONCLUSIVE
    status = {h.name: (h.status, h.detail) for h in verdict.hypotheses}
    assert status["le_invariants_constant"][0] == FAILS
    assert "30 vs 15" in status["le_invariants_constant"][1]
    good = verdicts(suspension, irreducible=True)["mt3"]
    assert good.conclusion == EQUIMULTIPLE
    assert good.user_asserted
    unasserted = verdicts(suspension)["mt3"]
    assert unasserted.conclusion == INCONCLUSIVE


def test_contradicted_orders_under_verified_premises(suspension, homogeneous):
    """No real family reaches these branches: all premises of mt2 (or of
    mt3 with the assertion) hold while the computed orders differ."""
    differ = EquimultiplicityResult(4, 3)
    with pytest.raises(InternalCheckError):
        evaluate_rules(replace(suspension, equimultiplicity=differ),
                       False, False)
    # the homogeneous family misses mt2's threshold but meets mt3's premises
    verdict = verdicts(replace(homogeneous, equimultiplicity=differ),
                       irreducible=True)["mt3"]
    assert verdict.conclusion == INCONCLUSIVE
    assert verdict.notes == (
        "computed orders contradict the conclusion; the asserted "
        "irreducibility must fail for this family",)


def test_corollaries_fire_the_contrapositive(worked):
    rules, evidence = evaluate_rules(worked, False, True)
    assert [v.theorem for v in rules] == [
        "mt2", "mt3", "cmt2", "cmt3", "homogeneous"]
    assert evidence.verdict == "SUPPORTING"
    assert evidence.certificate == "NOT_A_CERTIFICATE"
    _, _, c2, c3, _ = rules
    assert c2.conclusion == INCONCLUSIVE
    assert c3.conclusion == NOT_TOPOLOGICALLY_V_EQUISINGULAR
    status = {h.name: h.status for h in c3.hypotheses}
    assert status["polar_number_constant"] == HOLDS
    assert status["generic_polar_curve_irreducible"] == USER_ASSERTED


def test_homogeneous_rule(worked, homogeneous):
    verdict = verdicts(homogeneous)["homogeneous"]
    assert verdict.conclusion == EQUIMULTIPLE
    status = {h.name: h.status for h in verdict.hypotheses}
    assert status["base_homogeneous"] == HOLDS
    assert status["le_numbers_constant"] == HOLDS
    assert status["topologically_V_equisingular"] == NOT_CHECKED
    off_topic = verdicts(worked)["homogeneous"]
    assert off_topic.conclusion == INCONCLUSIVE


def test_homogeneous_family_le_numbers(homogeneous):
    for sl in (homogeneous.zero, homogeneous.generic):
        rec = sl.record
        assert (rec.lambda0, rec.lambda1, rec.gamma1) == (18, 3, 6)
        assert rec.slice_milnor == 9 == rec.gamma1 + rec.lambda1


def test_irreducibility_evidence_counter_case():
    ctx = Context(("z1", "z2", "z3"), ())
    z1 = Polynomial.variable(ctx, "z1")
    z2 = Polynomial.variable(ctx, "z2")
    z3 = Polynomial.variable(ctx, "z3")
    split = irreducibility_evidence(Ideal(ctx, (z2 * z3, z1)))
    assert split.verdict == "COUNTER"
    single = irreducibility_evidence(Ideal(ctx, (z3,)))
    assert single.verdict == "SUPPORTING"


@pytest.mark.parametrize("text, roots", [
    ("z2^2 - 1/4", "-1/2, 1/2"),
    ("z2^2 - 9/4*z2 + 1/2", "1/4, 2"),
    # a 13-digit constant: divisors are found up to its square root
    ("z2^2 - 1000000000000", "-1000000, 1000000"),
])
def test_irreducibility_evidence_finds_rational_roots(text, roots):
    ctx = Context(("z1", "z2", "z3"), ())
    g = parse_polynomial(text, ctx)
    report = irreducibility_evidence(Ideal(ctx, (g,)))
    assert report.verdict == "COUNTER"
    assert report.details == (f"{render(g)}: rational roots {roots}",)


def test_ilm_tables_for_worked_family(worked):
    t0 = verify_ilm(worked.family, ZERO, worked.zero, Random(0))
    assert [r.j for r in t0.rows] == [23, 24, 25, 26]
    assert [r.mu for r in t0.rows] == [87, 90, 93, 96]
    assert t0.passed and t0.inferred == (21, 3, 30)
    assert t0.slice_milnor == 12
    tg = verify_ilm(worked.family, GENERIC, worked.generic, Random(0))
    assert [r.j for r in tg.rows] == [8, 9, 10, 11]
    assert [r.mu for r in tg.rows] == [27, 30, 33, 36]
    assert tg.passed and tg.inferred == (6, 3, 15)
    assert len(tg.t_witnesses) == 2


def test_ilm_custom_exponents_on_suspension(suspension):
    table = verify_ilm(suspension.family, ZERO, suspension.zero, Random(0),
                       j_values=(2, 3, 4, 5))
    assert [r.mu for r in table.rows] == [4, 8, 12, 16]
    assert table.passed and table.inferred == (0, 4, 0)


def test_ilm_rejects_exponents_below_threshold(suspension):
    with pytest.raises(UsageError):
        verify_ilm(suspension.family, ZERO, suspension.zero, Random(0),
                   j_values=(1, 2))
