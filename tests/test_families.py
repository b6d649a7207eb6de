"""Deformation families: decomposition, upper-family detection, slice
invariants, the verdict rules, and the augmentation identity tables."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from lecalc import engine, families
from lecalc.errors import (DegenerateInputError, InternalCheckError,
                           NonReducedError, UnluckySpecializationError,
                           UsageError)
from lecalc.families import (EQUIMULTIPLE, FAILS, GENERIC, HOLDS,
                             INCONCLUSIVE, NOT_CHECKED,
                             NOT_TOPOLOGICALLY_V_EQUISINGULAR, PRIMES,
                             USER_ASSERTED, ZERO, EquimultiplicityResult,
                             SliceRecord, analyze_family, decompose_family,
                             evaluate_rules, invariants_at, verify_ilm)
from lecalc.invariants import germ_record, milnor_number
from lecalc.orders import LOCAL
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Modular, Polynomial, render
from lecalc.report import RunConfig

CTX = Context(("z1", "z2", "z3"), ("t",))

WORKED = "z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2 + t^2*z1^2*z2^2"
SUSPENSION = "z2^3 + z3^3 + t*z2^4"
HOMOGENEOUS = "z1^2*z2^2 + z2^4 + z3^4 + t*z2^4"


def fampoly(text):
    return parse_polynomial(text, CTX)


def verdicts(an, equisingular=False, irreducible=False):
    return {v.theorem: v
            for v in evaluate_rules(an, equisingular, irreducible)}


@pytest.fixture(scope="module")
def worked():
    return analyze_family(fampoly(WORKED), Random(0))


@pytest.fixture(scope="module")
def suspension():
    return analyze_family(fampoly(SUSPENSION), Random(0))


@pytest.fixture(scope="module")
def homogeneous():
    return analyze_family(fampoly(HOMOGENEOUS), Random(0))


def test_records_refuse_assignment(worked):
    rec = worked.zero.record
    verdict = verdicts(worked)["mt2"]
    for obj, name in ((worked, "zero"), (worked.zero, "record"),
                      (worked.family, "points"), (worked.weights, "degree"),
                      (rec, "lambda1"), (rec.line_check, "slice_milnor"),
                      (rec.polar_ideal, "generators"),
                      (rec.polar_ideal.context, "variables"),
                      (verdict, "conclusion"), (verdict.hypotheses[0], "status"),
                      (LOCAL, "key"), (RunConfig(), "seed")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_decompose_splits_base_and_powers_of_t():
    fam = decompose_family(fampoly(WORKED), Random(0))
    assert fam.parameter == "t"
    assert render(fam.base) == "z2^5 + z1^2*z2^2 + z3^4"
    assert [(j, render(g)) for j, g in fam.deformation] == [
        (1, "z1*z2^2"), (2, "z1^2*z2^2")]
    assert [p for p, _ in fam.points] == list(PRIMES)
    assert all(1 <= tau < p for p, tau in fam.points)


def test_decompose_constant_family_has_empty_deformation():
    fam = decompose_family(fampoly("z2^3 + z3^3"), Random(0))
    assert fam.deformation == ()
    member = fam.member(5)
    assert render(member) == "z2^3 + z3^3"


def test_decompose_rejects_zero_base():
    with pytest.raises(DegenerateInputError):
        decompose_family(fampoly("t*z2^2"), Random(0))


def test_analyze_family_rejects_non_reduced_member():
    # decompose_family does not check reducedness; the zero slice's record
    # refuses the repeated factor z2, and analyze_family lets the refusal
    # through instead of keeping it as a slice failure
    f = fampoly("z2^2*z3 + t*z2^2*z3")
    assert render(decompose_family(f, Random(0)).base) == "z2^2*z3"
    with pytest.raises(NonReducedError):
        analyze_family(f, Random(0))


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
    assert worked.generic.t_witnesses == worked.family.points


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
        evaluate_rules(suspension._replace(equimultiplicity=differ),
                       False, False)
    # the homogeneous family misses mt2's threshold but meets mt3's premises
    verdict = verdicts(homogeneous._replace(equimultiplicity=differ),
                       irreducible=True)["mt3"]
    assert verdict.conclusion == INCONCLUSIVE
    assert verdict.notes == (
        "computed orders contradict the conclusion; the asserted "
        "irreducibility must fail for this family",)


def test_corollaries_fire_the_contrapositive(worked):
    rules = evaluate_rules(worked, False, True)
    assert [v.theorem for v in rules] == [
        "mt2", "mt3", "cmt2", "cmt3", "homogeneous"]
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


def test_ilm_tables_for_worked_family(worked):
    t0 = verify_ilm(worked.family, worked.zero, Random(0))
    assert [r.j for r in t0.rows] == [23, 24, 25, 26]
    assert [r.mu for r in t0.rows] == [87, 90, 93, 96]
    assert t0.passed and t0.inferred == (21, 3, 30)
    assert t0.slice_milnor == 12
    tg = verify_ilm(worked.family, worked.generic, Random(0))
    assert [r.j for r in tg.rows] == [8, 9, 10, 11]
    assert [r.mu for r in tg.rows] == [27, 30, 33, 36]
    assert tg.passed and tg.inferred == (6, 3, 15)
    assert [p for p, _ in tg.t_witnesses] == list(PRIMES)
    assert all(1 <= tau < p for p, tau in tg.t_witnesses)


def test_ilm_rows_of_a_separable_germ_build_two_variable_bases(
        worked, monkeypatch):
    # every row's Jacobian, at t = 0 and at both generic points, splits
    # into a (z1, z2) block and 4*z3^3, whose colength is its order
    shapes = []
    pair_loop = engine._pair_loop

    def spy(rows, packing, budget):
        shapes.append((packing.order.kind, packing.nvars))
        return pair_loop(rows, packing, budget)

    monkeypatch.setattr(engine, "_pair_loop", spy)
    verify_ilm(worked.family, worked.zero, Random(0))
    verify_ilm(worked.family, worked.generic, Random(0))
    assert Counter(shapes) == {("local", 2): 4 + 4 * len(PRIMES)}


def _is_prime(n):
    """Deterministic Miller-Rabin: these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_ilm_primes_are_prime():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
    assert [_is_prime(n) for n in (2, 97, 3215031751, 2 ** 31 - 3,
                                   2 ** 61 - 1)] \
        == [True, True, False, False, True]
    assert len(set(PRIMES)) == 2
    assert all(_is_prime(p) and 2 ** 30 < p < 2 ** 31 for p in PRIMES)


def _augmented_mu(g, j):
    z1 = Polynomial.variable(g.context, g.context.variables[0])
    return milnor_number(g + z1 ** j)


@pytest.mark.parametrize("text, j_values", [
    ("z2^3 + z3^3", (2, 3, 4, 5)),            # the constant family
    (SUSPENSION, (2, 3, 4, 5)),
    (HOMOGENEOUS, (2, 3, 4, 5)),
    (WORKED, (8, 11)),
])
def test_augmented_milnor_mod_p_matches_rational(text, j_values):
    fam = decompose_family(fampoly(text), Random(0))
    for tau in (Fraction(91, 9), Fraction(-73, 29)):
        for j in j_values:
            over_q = _augmented_mu(fam.member(tau), j)
            for p in PRIMES:
                image = fam.member(Modular.from_rational(tau, p))
                assert image.context.modulus == p
                assert _augmented_mu(image, j) == over_q


def test_ilm_refuses_a_prime_dividing_a_denominator():
    # the member at t mod 2147483647 has no image: the generic slice, which
    # is cross-checked at the same points as the rows, is refused too
    fam = decompose_family(fampoly(SUSPENSION + " + 1/2147483647*t*z2^5"),
                           Random(0))
    with pytest.raises(UnluckySpecializationError, match="no image"):
        invariants_at(fam, GENERIC, Random(0))
    assert verify_ilm(fam, invariants_at(fam, ZERO, Random(0)),
                      Random(0)).passed
    generic = SliceRecord(GENERIC, germ_record(fam.full, Random(0)), ())
    with pytest.raises(UnluckySpecializationError, match="no image"):
        verify_ilm(fam, generic, Random(0))


def _spy_on_redraws(monkeypatch):
    """Record each pair of points drawn after the family's own (the
    redraws of _at_generic_points) and each specialized member's value of
    t."""
    real_draw = families._draw_mod_points
    real_member = families.Family.member
    draws, members = [], []

    def draw(rng):
        draws.append(real_draw(rng))
        return draws[-1]

    def member(fam, value):
        members.append(value)
        return real_member(fam, value)

    monkeypatch.setattr(families, "_draw_mod_points", draw)
    monkeypatch.setattr(families.Family, "member", member)
    return draws, members


def _disagreeing_on_rows(monkeypatch, bad_rows):
    """Spy on the generic ILM rows: _spy_on_redraws, and (j, prime) per
    augmented Milnor number; make the two primes disagree on the given row
    numbers (1-based, counted over both pairs of points)."""
    real_mu = families._augmented_milnor
    calls = []

    def mu(g, j):
        calls.append((j, g.context.modulus))
        value = real_mu(g, j)
        row = sum(p == PRIMES[1] for _, p in calls)
        return value + 1 if g.context.modulus == PRIMES[1] \
            and row in bad_rows else value

    monkeypatch.setattr(families, "_augmented_milnor", mu)
    return (*_spy_on_redraws(monkeypatch), calls)


def _at(points):
    return [Modular(tau, p) for p, tau in points]


def test_ilm_redraw_recomputes_every_row(worked, monkeypatch):
    # the third row disagrees at the family's points: every row is then
    # recomputed at one redrawn pair, and the table reports the points its
    # rows used
    draws, members, calls = _disagreeing_on_rows(monkeypatch, {3})
    # Random(0) would redraw the points the family drew from Random(0)
    table = verify_ilm(worked.family, worked.generic, Random(1))
    first = worked.family.points
    [redrawn] = draws
    assert first != redrawn and table.t_witnesses == redrawn
    # the family is specialized once per point, not once per row
    assert members == _at(first) + _at(redrawn)
    assert calls == [(j, p) for p in PRIMES for j in (8, 9, 10, 11)] * 2
    assert table.passed and [r.mu for r in table.rows] == [27, 30, 33, 36]


def test_ilm_refuses_a_second_disagreement(worked, monkeypatch):
    draws, members, calls = _disagreeing_on_rows(monkeypatch, {2, 6})
    with pytest.raises(UnluckySpecializationError,
                       match=r"z1\^9\) disagrees at t = \d+ mod 2147483647 "
                             r"and t = \d+ mod 2147483629"):
        verify_ilm(worked.family, worked.generic, Random(0))
    assert len(draws) == 1
    assert members == _at(worked.family.points) + _at(draws[0])
    assert calls == [(j, p) for p in PRIMES for j in (8, 9, 10, 11)] * 2


def _disagreeing_records(monkeypatch, bad):
    """Spy on the generic slice's records over GF(p): _spy_on_redraws, and
    the prime of each record; the records numbered in bad (1-based) read
    lambda1 one too high."""
    real_record = families.germ_record
    primes = []

    def record(g, rng):
        rec = real_record(g, rng)
        if not g.context.modulus:
            return rec
        primes.append(g.context.modulus)
        return rec._replace(lambda1=rec.lambda1 + 1) if len(primes) in bad \
            else rec

    monkeypatch.setattr(families, "germ_record", record)
    return (*_spy_on_redraws(monkeypatch), primes)


def test_generic_slice_recomputes_a_disagreeing_record(worked, monkeypatch):
    # the record at the family's second point disagrees: both records are
    # recomputed at one redrawn pair, which the slice then reports
    draws, members, primes = _disagreeing_records(monkeypatch, {2})
    sl = invariants_at(worked.family, GENERIC, Random(0))
    [redrawn] = draws
    assert sl.t_witnesses == redrawn != worked.family.points
    assert members == _at(worked.family.points) + _at(redrawn)
    assert primes == list(PRIMES) * 2
    assert families._comparable(sl.record) \
        == families._comparable(worked.generic.record)


def test_generic_slice_refuses_a_second_disagreement(worked, monkeypatch):
    draws, members, primes = _disagreeing_records(monkeypatch, {1, 3})
    with pytest.raises(UnluckySpecializationError,
                       match="the invariants disagree with the generic "
                             r"values at t = \d+ mod 2147483647"):
        invariants_at(worked.family, GENERIC, Random(0))
    assert len(draws) == 1 and primes == list(PRIMES) * 2
    assert members == _at(worked.family.points) + _at(draws[0])


def test_ilm_custom_exponents_on_suspension(suspension):
    table = verify_ilm(suspension.family, suspension.zero, Random(0),
                       j_values=(2, 3, 4, 5))
    assert [r.mu for r in table.rows] == [4, 8, 12, 16]
    assert table.passed and table.inferred == (0, 4, 0)


def test_ilm_rejects_exponents_below_threshold(suspension):
    with pytest.raises(UsageError):
        verify_ilm(suspension.family, suspension.zero, Random(0),
                   j_values=(1, 2))
