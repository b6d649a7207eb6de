"""Germ invariants: weights, Milnor numbers, the polar curve of the axis,
Le numbers, and the tabulated record for the worked examples."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from lecalc import engine
from lecalc.engine import Ideal, ideals_equal
from lecalc.errors import (DegenerateInputError, NonIsolatedError,
                           NonReducedError, NotLineSingularityError)
from lecalc.invariants import (check_polar_ratio_lemma, detect_weights,
                               euler_reduced, gamma1, germ_record,
                               is_line_singularity, lambda0,
                               lambda_k_vanishing, milnor_number,
                               milnor_orlik, multiplicity_at_origin,
                               order_at_origin, polar_ratio, polar_variety_1,
                               require_line_singularity)
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial

C3 = Context(("z1", "z2", "z3"), ())
BASE = parse_polynomial("z1^2*z2^2 + z2^5 + z3^4", C3)
SUSPENSION = parse_polynomial("z2^3 + z3^3", C3)


def test_order_and_multiplicity():
    assert order_at_origin(BASE) == 4
    assert multiplicity_at_origin(BASE) == 4
    assert order_at_origin(SUSPENSION) == 3


def test_detect_weights_unique_system():
    w = detect_weights(BASE)
    assert w is not None
    assert (w.weights, w.degree) == ((6, 4, 5), 20)
    assert w.unique and w.free == (False, False, False)
    assert w.smallest_weight == 4 and w.smallest_index == 1


def test_detect_weights_free_variable():
    w = detect_weights(SUSPENSION)
    assert (w.weights, w.degree) == ((2, 1, 1), 3)
    assert w.free == (True, False, False)
    assert w.free_variables == ("z1",)


def test_detect_weights_rejects_inhomogeneous():
    assert detect_weights(
        parse_polynomial("z1^3 + z1^2*z2 + z2^4", C3)) is None


def test_milnor_numbers_brieskorn():
    ctx = Context(("z2", "z3"), ())
    a_ = Polynomial.variable(ctx, "z2")
    b_ = Polynomial.variable(ctx, "z3")
    for a in range(2, 6):
        for b in range(2, 6):
            assert milnor_number(a_ ** a + b_ ** b) == (a - 1) * (b - 1)


def test_milnor_number_refuses_non_isolated():
    with pytest.raises(NonIsolatedError):
        milnor_number(BASE)


def test_milnor_orlik_matches_jacobian_colength():
    # product formula for the transverse slice z2^5 + z3^4 (+ z1^2*z2^2|_0)
    w = detect_weights(BASE)
    slice_mu = milnor_orlik(w, (1, 2))
    assert slice_mu == 12
    direct = milnor_number(BASE.eval_variable_zero("z1"), ("z2", "z3"))
    assert direct == slice_mu


def test_line_singularity_check_passes_on_base():
    check = is_line_singularity(BASE)
    assert check.is_line_singularity
    assert check.failing_check is None
    assert check.slice_milnor == 12


def test_line_singularity_check_fails_on_isolated_point():
    check = is_line_singularity(parse_polynomial("z1^2 + z2^2 + z3^2", C3))
    assert not check.is_line_singularity
    assert check.failing_check == "vanishes_on_axis"
    with pytest.raises(NotLineSingularityError) as err:
        require_line_singularity(parse_polynomial("z1^2 + z2^2 + z3^2", C3))
    assert err.value.failing_check == "vanishes_on_axis"
    assert "failing check: vanishes_on_axis" in str(err.value)


def test_line_singularity_check_fails_on_extra_critical_line():
    # the extra critical line {z2 = 0, z3 = z1} lies in {z2 = 0}: saturating
    # by z2 alone removes it, and only the z3 factor keeps it through 0
    f = parse_polynomial("z2^2 + z3^2*(z3 - z1)^2", C3)
    check = is_line_singularity(f)
    assert check.vanishes_on_axis and check.slice_isolated
    assert check.slice_milnor == 3
    assert check.extra_critical_component_at_origin
    assert check.failing_check == "no_extra_critical_component"
    with pytest.raises(NotLineSingularityError) as err:
        germ_record(f, Random(0))
    assert err.value.failing_check == "no_extra_critical_component"


def test_line_singularity_requires_reduced_input():
    with pytest.raises(NonReducedError):
        is_line_singularity(parse_polynomial("z2^2*z3^2", C3))


def test_line_singularity_needs_vanishing_at_origin():
    with pytest.raises(DegenerateInputError):
        is_line_singularity(parse_polynomial("z2^2 + 1", C3))


def test_polar_variety_of_base():
    gamma = polar_variety_1(BASE)
    expected = Ideal(C3, (
        parse_polynomial("z2^3 + 2/5*z1^2", C3),
        parse_polynomial("z3^3", C3)))
    assert ideals_equal(gamma, expected)


def test_le_and_polar_numbers_of_base():
    gamma = polar_variety_1(BASE)
    assert gamma1(gamma) == 9
    assert lambda0(BASE, gamma) == 21
    assert polar_ratio(9, 21) == Fraction(10, 3)
    assert polar_ratio(0, 0) is None
    assert euler_reduced(21, 3, 3) == 18
    assert euler_reduced(0, 4, 3) == -4


def test_lambda_k_vanishing_for_surface_case():
    assert lambda_k_vanishing(BASE, 2, Random(0))


def test_polar_ratio_lemma_report():
    w = detect_weights(BASE)
    report = check_polar_ratio_lemma(BASE, w, Fraction(10, 3))
    assert report.substitution_identity
    assert report.consistent
    bad = check_polar_ratio_lemma(BASE, w, Fraction(7, 2))
    assert not bad.consistent


def test_germ_record_of_base():
    rec = germ_record(BASE, Random(0))
    assert (rec.order, rec.multiplicity) == (4, 4)
    assert (rec.lambda0, rec.lambda1, rec.gamma1) == (21, 3, 9)
    assert rec.polar_ratio == Fraction(10, 3)
    assert rec.euler_reduced == 18
    assert rec.slice_milnor == 12
    assert rec.intersection_with_hypersurface == 30
    assert rec.intersection_with_hypersurface == rec.gamma1 + rec.lambda0
    assert rec.lambda_k_zero == (True,)
    assert not rec.polar_empty


def test_germ_record_bases_by_order_kind(monkeypatch):
    # local: slice Milnor number, polar dimension, gamma1, lambda0, lambda1
    # and its two axis witnesses, the intersection cross-check; elimination:
    # the line check's two saturations and the polar curve's two plus their
    # intersection; grevlex: the two colengths of the lambda^2 test, whose
    # principal polar ideal is saturated without a basis
    kinds = []
    standard_basis = engine.standard_basis

    def spy(ideal, order, *args, **kwargs):
        kinds.append(order.kind)
        return standard_basis(ideal, order, *args, **kwargs)

    monkeypatch.setattr(engine, "standard_basis", spy)
    germ_record(BASE, Random(0))
    assert Counter(kinds) == {"local": 8, "elimination": 5, "grevlex": 2}


def test_germ_record_of_suspension():
    rec = germ_record(SUSPENSION, Random(0))
    assert (rec.lambda0, rec.lambda1, rec.gamma1) == (0, 4, 0)
    assert rec.polar_empty
    assert rec.polar_ratio is None
    assert rec.euler_reduced == -4
    assert rec.slice_milnor == 4


def test_germ_record_refuses_non_line_singularity():
    with pytest.raises(NotLineSingularityError):
        germ_record(parse_polynomial("z1^2 + z2^2 + z3^2", C3), Random(0))
