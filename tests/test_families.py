"""Deformation families: decomposition, upper-family detection, slice
invariants, the verdict rules, and the augmentation identity tables."""

from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lecalc import engine, families
from lecalc.errors import (DegenerateInputError, InternalCheckError,
                           MathRefusal, NonIsolatedError, NonReducedError,
                           UnluckySpecializationError, UsageError)
from lecalc.families import (EQUIMULTIPLE, FAILS, GENERIC, HOLDS,
                             INCONCLUSIVE, NOT_CHECKED,
                             NOT_TOPOLOGICALLY_V_EQUISINGULAR, PRIMES,
                             USER_ASSERTED, ZERO, EquimultiplicityResult,
                             SliceRecord, analyze_family, decompose_family,
                             default_j_values, evaluate_rules, invariants_at,
                             verify_ilm)
from lecalc.cli import entrypoint
from lecalc.invariants import (_jacobian, draw_rational, germ_record,
                               gradient, milnor_number)
from lecalc.orders import LOCAL
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Modular, Polynomial, ZeroDivisor, render
from lecalc.report import RunConfig
from lecalc.sparse import step_budget

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
    # the generic rows of both points come from one run mod p1 p2
    assert Counter(shapes) == {("local", 2): 4 + 4}


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


def _mu_or_none(g, j):
    try:
        return _augmented_mu(g, j)
    except NonIsolatedError:
        return None


@pytest.mark.parametrize("text, j_values, base_rows", [
    # from j = 23 = 2 + lambda0 on, lambda0 + (j - 1) lambda1
    (WORKED, (6, 8, 11, 23), [36, 42, 51, 87]),
    (HOMOGENEOUS, (2, 3, 4, 5), [9, 18, 27, 30]),
    # d1 g carries -4*z1^3, which the row's 4*z1^3 cancels: the base's rows
    # are A_k singularities, z1^(k+1) the lowest power of z1 left
    ("z1^5 - z1^4 + z2^2 + z3^2 + t*z1^2*z2", (3, 4, 5), [2, 4, 3]),
    # at j = 4 the whole first generator cancels, and g + z1^4 is
    # z2^2 + z3^2, singular along the z1-axis: the row is None
    ("z2^2 + z3^2 - z1^4 + t*z2^3", (2, 4, 6), [1, None, 3]),
])
def test_rows_from_a_shared_gradient_are_the_augmented_milnor_numbers(
        text, j_values, base_rows, monkeypatch):
    # over QQ at t = 0 and t = 5/3, and over GF(p) at the family's points:
    # the row built from the gradient of g has mu(g + z1^j), and hands the
    # colength the generators milnor_number(g + z1^j) builds, in order
    real = families.jacobian_colength
    passed = []

    def colength(partials):
        passed.append([p for p in partials if p])
        return real(partials)

    monkeypatch.setattr(families, "jacobian_colength", colength)
    fam = decompose_family(fampoly(text), Random(0))
    members = [fam.base, fam.member(Fraction(5, 3)),
               *(fam.image_at(p, tau) for p, tau in fam.points)]
    rows = []
    for g in members:
        partials = gradient(g)
        for j in j_values:
            passed.clear()
            mu = families._augmented_milnor(partials, j)
            assert mu == _mu_or_none(g, j)
            [generators] = passed
            assert generators == _jacobian(g + Polynomial.monomial(
                g.context, (j, 0, 0)), g.context.variables)
            rows.append(mu)
    assert rows[:len(j_values)] == base_rows


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


def _fresh(fam):
    """fam with no member specialized yet: the module's fixtures share one
    family, whose members earlier tests have already specialized."""
    return fam._replace(images={})


def _spy_on_redraws(monkeypatch):
    """Record each pair of points drawn after the family's own (the
    redraws of _at_generic_points) and each specialized member's value of
    t; Family.image_at specializes through Family.member once per point,
    and once per pair for the joint member mod p1 p2."""
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


JOINT = PRIMES[0] * PRIMES[1]


def _disagreeing_on_rows(monkeypatch, bad_rows, zero_divisors):
    """Spy on the generic ILM rows: _spy_on_redraws, the modulus of each
    gradient taken, and (j, modulus) per augmented Milnor number.  The
    joint rows mod p1 p2 numbered in zero_divisors meet a zero divisor, and
    the two primes disagree on the rows numbered in bad_rows (both 1-based,
    counted over every pair of points)."""
    real_mu = families._augmented_milnor
    real_gradient = families.gradient
    gradients, calls = [], []

    def gradient(g):
        gradients.append(g.context.modulus)
        return real_gradient(g)

    def mu(partials, j):
        modulus = partials[0].context.modulus
        calls.append((j, modulus))
        if modulus == JOINT and sum(
                p == JOINT for _, p in calls) in zero_divisors:
            raise ZeroDivisor("a row met a zero divisor")
        value = real_mu(partials, j)
        row = sum(p == PRIMES[1] for _, p in calls)
        return value + 1 if modulus == PRIMES[1] and row in bad_rows \
            else value

    monkeypatch.setattr(families, "gradient", gradient)
    monkeypatch.setattr(families, "_augmented_milnor", mu)
    return (*_spy_on_redraws(monkeypatch), gradients, calls)


def _at(points):
    return [Modular(tau, p) for p, tau in points]


def _joint_at(points):
    """The joint member's value of t: tau mod p1 p2 with tau = tau_i mod
    p_i, by the Chinese remainder theorem."""
    tau = sum(tau * (JOINT // p) * pow(JOINT // p, -1, p)
              for p, tau in points)
    return [Modular(tau, JOINT)]


def test_ilm_redraw_recomputes_every_row(worked, monkeypatch):
    # the joint run meets a zero divisor at the third row, so every row is
    # computed at each prime, where the third row disagrees: every row is
    # then recomputed at one redrawn pair, in one joint run that completes,
    # and the table reports the points its rows used
    draws, members, gradients, calls = _disagreeing_on_rows(
        monkeypatch, {3}, {3})
    # Random(0) would redraw the points the family drew from Random(0)
    table = verify_ilm(_fresh(worked.family), worked.generic, Random(1))
    first = worked.family.points
    [redrawn] = draws
    assert first != redrawn and table.t_witnesses == redrawn
    # the family is specialized, and each member differentiated, once per
    # point and once per joint pair, not once per row; the primes' members
    # only after the zero divisor
    assert members == _joint_at(first) + _at(first) + _joint_at(redrawn)
    assert gradients == [JOINT, *PRIMES, JOINT]
    rows = (8, 9, 10, 11)
    assert calls == ([(j, JOINT) for j in rows[:3]]
                     + [(j, p) for p in PRIMES for j in rows]
                     + [(j, JOINT) for j in rows])
    assert table.passed and [r.mu for r in table.rows] == [27, 30, 33, 36]


def test_ilm_refuses_a_second_disagreement(worked, monkeypatch):
    # both joint runs meet a zero divisor at their first row, and the
    # primes disagree on the second row each time
    draws, members, gradients, calls = _disagreeing_on_rows(
        monkeypatch, {2, 6}, {1, 2})
    with pytest.raises(UnluckySpecializationError,
                       match=r"z1\^9\) disagrees at t = \d+ mod 2147483647 "
                             r"and t = \d+ mod 2147483629"):
        verify_ilm(_fresh(worked.family), worked.generic, Random(0))
    # Random(0) redraws the points the family drew from Random(0): every
    # row is recomputed there, but the members are not specialized again
    points = worked.family.points
    assert draws == [points]
    assert members == _joint_at(points) + _at(points)
    assert gradients == [JOINT, *PRIMES] * 2
    assert calls == ([(8, JOINT)] + [(j, p) for p in PRIMES
                                     for j in (8, 9, 10, 11)]) * 2


def _disagreeing_records(monkeypatch, bad, zero_divisors=()):
    """Spy on the generic slice's records over GF(p) and mod p1 p2:
    _spy_on_redraws, and the modulus of each record; the records numbered
    in zero_divisors (1-based) meet a zero divisor, and those in bad read
    lambda1 one too high."""
    real_record = families.germ_record
    moduli = []

    def record(g, rng):
        rec = real_record(g, rng)
        if not g.context.modulus:
            return rec
        moduli.append(g.context.modulus)
        if len(moduli) in zero_divisors:
            raise ZeroDivisor("a record met a zero divisor")
        return rec._replace(lambda1=rec.lambda1 + 1) if len(moduli) in bad \
            else rec

    monkeypatch.setattr(families, "germ_record", record)
    return (*_spy_on_redraws(monkeypatch), moduli)


def test_generic_slice_recomputes_a_disagreeing_record(worked, monkeypatch):
    # the joint record meets a zero divisor, and the record at the family's
    # second point then disagrees: both points are recomputed at one
    # redrawn pair, in one joint record, which the slice then reports
    draws, members, moduli = _disagreeing_records(monkeypatch, {3}, {1})
    sl = invariants_at(_fresh(worked.family), GENERIC, Random(0))
    [redrawn] = draws
    first = worked.family.points
    assert sl.t_witnesses == redrawn != first
    assert members == _joint_at(first) + _at(first) + _joint_at(redrawn)
    assert moduli == [JOINT, *PRIMES, JOINT]
    assert families._comparable(sl.record) \
        == families._comparable(worked.generic.record)


def test_generic_slice_redraws_a_disagreeing_joint_record(worked,
                                                          monkeypatch):
    # a joint record that completes stands for both points: when it
    # disagrees with the generic values, one joint record at a redrawn pair
    # replaces it, and no record over a single GF(p) is taken
    draws, members, moduli = _disagreeing_records(monkeypatch, {1})
    sl = invariants_at(_fresh(worked.family), GENERIC, Random(0))
    [redrawn] = draws
    assert sl.t_witnesses == redrawn != worked.family.points
    assert members == _joint_at(worked.family.points) + _joint_at(redrawn)
    assert moduli == [JOINT, JOINT]


def test_generic_slice_refuses_a_second_disagreement(worked, monkeypatch):
    draws, members, moduli = _disagreeing_records(monkeypatch, {1, 2})
    with pytest.raises(UnluckySpecializationError,
                       match="the invariants disagree with the generic "
                             r"values at t = \d+ mod 2147483647"):
        invariants_at(_fresh(worked.family), GENERIC, Random(0))
    assert len(draws) == 1 and moduli == [JOINT, JOINT]
    assert members == _joint_at(worked.family.points) + _joint_at(draws[0])


def test_a_zero_divisor_met_midway_reruns_each_prime_from_the_same_state(
        monkeypatch):
    # the joint record's first axis witness z1 = q is drawn after the
    # record over QQ(t), and t = -q mod p1 makes the slice there lose its
    # z2^3 term mod p1 only: the joint record meets the zero divisor q + t
    # midway, after drawing witnesses and spending 5 steps.  Each prime's
    # record then runs from the rng state and step count at which the
    # joint record started, as a run per prime always did
    fam = decompose_family(
        fampoly("z1^2*z2^2 + z2^4 + z3^4 + z1*z2^3 + t*z2^3"), Random(0))
    probe = Random(0)
    germ_record(fam.full, probe)
    q = draw_rational(probe)
    points = ((PRIMES[0], Modular.from_rational(-q, PRIMES[0]).value),
              (PRIMES[1], 5))
    fam = fam._replace(points=points, images={})
    _, members = _spy_on_redraws(monkeypatch)
    rng = Random(0)
    with step_budget(10 ** 6) as budget:
        sl = invariants_at(fam, GENERIC, rng)
    assert members == _joint_at(points) + _at(points)
    assert sl.t_witnesses == points
    reference = Random(0)
    with step_budget(10 ** 6) as steps:
        for g in (fam.full, *(fam.image_at(p, tau) for p, tau in points)):
            germ_record(g, reference)
    assert rng.getstate() == reference.getstate()
    assert budget.used == steps.used


def _monomial(i, j, k):
    return "*".join(f"{v}^{e}" for v, e in zip(("z1", "z2", "z3"), (i, j, k))
                    if e)


@st.composite
def _small_families(draw):
    """z2^a + z3^b plus one or two terms (c0 + c1*t)*z1^i*z2^j*z3^k with
    j + k >= 2, so that the axis stays singular; a coefficient may be a
    prime of PRIMES, and a point's t may be small, so that a term vanishes
    mod one prime only.  Returns the family and its two points."""
    coeff = st.sampled_from((-2, -1, 1, 2, 3, *PRIMES))
    terms = [f"z2^{draw(st.integers(2, 4))}", f"z3^{draw(st.integers(2, 4))}"]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        k = draw(st.integers(max(0, 2 - j), 3))
        terms.append(f"({draw(coeff)} {draw(coeff):+}*t)*{_monomial(i, j, k)}")
    points = tuple(
        (p, draw(st.one_of(st.integers(1, 4), st.integers(1, p - 1))))
        for p in PRIMES)
    return " + ".join(terms), points


def _record_and_rows(g):
    """The comparable record of g and its first two ILM rows from
    j = 2 + lambda0, where the augmented germ is isolated, as verify_ilm
    takes them; the name of the refusal when one is raised."""
    try:
        with step_budget(20_000):
            rec = germ_record(g, Random(0))
            partials = gradient(g)
            return families._comparable(rec), [
                families._augmented_milnor(partials, j)
                for j in default_j_values(rec.lambda0)[:2]]
    except MathRefusal as exc:
        return type(exc).__name__


@settings(max_examples=40, deadline=None)
@given(_small_families())
@example(("z2^3 + z3^3 + (1 + 2147483647*t)*z2^4",
          ((PRIMES[0], 2), (PRIMES[1], 3))))
# Random(0) draws the axis witness z1 = 9 first: a zero divisor midway
@example(("z2^3 + z3^3 + z1*z2^2 + t*z2^2",
          ((PRIMES[0], PRIMES[0] - 9), (PRIMES[1], 5))))
# the term vanishes at both points: zero mod p1 p2, not a zero divisor
@example(("z2^2 + z3^3 + (-2 + t)*z1*z3^2",
          ((PRIMES[0], 2), (PRIMES[1], 2))))
# the order is 3 at t = 2 mod p1 and 2 at t = 3 mod p2
@example(("z2^3 + z3^3 + (t - 2)*z2^2", ((PRIMES[0], 2), (PRIMES[1], 3))))
def test_the_joint_member_computes_what_each_prime_computes(case):
    # the joint record and ILM rows mod p1 p2 equal those of each prime's
    # member, or the joint run meets a zero divisor
    text, points = case
    fam = decompose_family(fampoly(text), Random(0))
    each = [_record_and_rows(fam.member(Modular(tau, p)))
            for p, tau in points]
    try:
        modulus, tau = families._joint_point(points)
        got = _record_and_rows(fam.member(Modular(tau, modulus)))
    except ZeroDivisor:
        return
    assert got == each[0] == each[1]


def _spy_on_commands(monkeypatch):
    """Record each family a command decomposes and each member it
    specializes (the value of t)."""
    real_decompose = families.decompose_family
    fams = []

    def decompose(f, rng):
        fams.append(real_decompose(f, rng))
        return fams[-1]

    monkeypatch.setattr(families, "decompose_family", decompose)
    return fams, _spy_on_redraws(monkeypatch)[1]


@pytest.mark.parametrize("argv, shown", [
    # the slice record and the eight generic rows
    (["ilm", "-e", WORKED, "--param", "t"], "overall: PASS"),
    # the slice record and the axis-weight note
    (["family", "-e", "z1*z2^2 + z2^3 + z3^3 + t*z1*z2^2", "--param", "t"],
     "mu at generic t with z1^3 added = 8"),
])
def test_a_command_specializes_each_point_of_its_family_once(
        argv, shown, monkeypatch, capsys):
    fams, members = _spy_on_commands(monkeypatch)
    assert entrypoint([*argv, "--seed", "0"]) == 0
    assert shown in capsys.readouterr().out
    [fam] = fams
    # one joint member mod p1 p2 stands for both points
    [joint] = _joint_at(fam.points)
    assert members == [joint]
    assert list(fam.images) == [(JOINT, joint.value)]


def test_a_zero_divisor_in_a_coefficient_falls_back_to_each_prime(
        monkeypatch, capsys):
    # 2147483647 is zero mod p1 only, so the joint member cannot be built:
    # every generic value is computed once per prime, and the report is the
    # golden one, which a run per prime always printed
    fams, members = _spy_on_commands(monkeypatch)
    assert entrypoint(["family", "-e", "z2^3 + z3^3 + 2147483647*t*z2^4",
                       "--param", "t", "--seed", "0"]) == 0
    golden = Path(__file__).parent / "golden" / "zero_divisor.txt"
    out = capsys.readouterr().out
    assert out == golden.read_text(encoding="utf-8")
    assert "orders at origin: 3 at t = 0, 3 at generic t => EQUIMULTIPLE" \
        in out
    [fam] = fams
    assert members == _joint_at(fam.points) + _at(fam.points)
    assert sorted(fam.images) == sorted(fam.points)


def test_a_prime_dividing_a_denominator_refuses_the_generic_slice(
        monkeypatch, capsys):
    # the family decomposes; the generic slice, the first to specialize a
    # member, meets the zero divisor 2147483647 mod p1 p2 in the joint
    # member's denominator, and then refuses the member at t mod 2147483647
    fams, members = _spy_on_commands(monkeypatch)
    real_at = families.invariants_at
    slices = []

    def at(fam, where, rng):
        slices.append(where)
        return real_at(fam, where, rng)

    monkeypatch.setattr(families, "invariants_at", at)
    assert entrypoint(["ilm", "-e", SUSPENSION + " + 1/2147483647*t*z2^5",
                       "--param", "t", "--seed", "0"]) == 2
    assert capsys.readouterr().err == (
        "refused: UNLUCKY_SPECIALIZATION: 1/2147483647 has no image in "
        "GF(2147483647)\n")
    [fam] = fams
    assert slices == [ZERO, GENERIC]
    assert members == _joint_at(fam.points) + _at(fam.points[:1])
    assert fam.images == {}


def test_ilm_custom_exponents_on_suspension(suspension):
    table = verify_ilm(suspension.family, suspension.zero, Random(0),
                       j_values=(2, 3, 4, 5))
    assert [r.mu for r in table.rows] == [4, 8, 12, 16]
    assert table.passed and table.inferred == (0, 4, 0)


def test_ilm_rejects_exponents_below_threshold(suspension):
    with pytest.raises(UsageError):
        verify_ilm(suspension.family, suspension.zero, Random(0),
                   j_values=(1, 2))
