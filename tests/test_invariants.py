"""Germ invariants: weights, Milnor numbers, the polar curve of the axis,
Le numbers, and the tabulated record for the worked examples."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lecalc import engine
from lecalc.engine import (Ideal, contains_local_unit, ideals_equal,
                           saturate, step_budget)
from lecalc.errors import (BudgetExceededError, DegenerateInputError,
                           NonIsolatedError, NonReducedError,
                           NotLineSingularityError, PolarDimensionError)
from lecalc.invariants import (_line_check, check_polar_ratio_lemma,
                               detect_weights, euler_reduced, gamma1,
                               germ_record, is_line_singularity, lambda0,
                               lambda_k_vanishing, milnor_number,
                               milnor_orlik, multiplicity_at_origin,
                               order_at_origin, polar_ratio, polar_variety_1,
                               require_line_singularity)
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, is_reduced

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


def extra_component_oracle(f: Polynomial) -> bool:
    """Whether V(Jac) has a component through 0 outside the z1-axis: some
    saturation Jac : z_i^infinity, i >= 2, lies in the maximal ideal."""
    ctx = f.context
    jac = Ideal(ctx, tuple(p for p in (f.partial(v) for v in ctx.variables)
                           if not p.is_zero()))
    return not all(
        contains_local_unit(
            saturate(jac, Ideal(ctx, (Polynomial.variable(ctx, v),))))
        for v in ctx.variables[1:])


def test_line_singularity_check_fails_on_extra_critical_line():
    # the extra critical line {z2 = 0, z3 = z1} is a branch of the polar
    # curve along which df/dz1 vanishes, so lambda0's colength is infinite
    f = parse_polynomial("z2^2 + z3^2*(z3 - z1)^2", C3)
    check, gamma, dim, l0 = _line_check(f)
    assert check.vanishes_on_axis and check.slice_isolated
    assert check.slice_milnor == 3
    assert (dim, l0) == (1, None)
    assert check.extra_critical_component_at_origin
    assert extra_component_oracle(f)
    assert check.failing_check == "no_extra_critical_component"
    with pytest.raises(NotLineSingularityError) as err:
        germ_record(f, Random(0))
    assert err.value.failing_check == "no_extra_critical_component"


def test_extra_critical_component_off_a_surface_polar_variety():
    # Gamma = (z1) is a surface; the slice is zero, so the check saturates
    # Jac by z2 and by z3 and reports the z2- and z3-axes through 0
    f = parse_polynomial("z1*z2*z3", C3)
    with pytest.raises(PolarDimensionError):
        polar_variety_1(f)
    check, gamma, dim, l0 = _line_check(f)
    assert gamma is None and l0 is None
    assert check.vanishes_on_axis and not check.slice_isolated
    assert check.extra_critical_component_at_origin
    assert extra_component_oracle(f)
    with pytest.raises(NotLineSingularityError) as err:
        germ_record(f, Random(0))
    assert err.value.failing_check == "slice_isolated"


@st.composite
def _order_two_along_the_axis(draw):
    """A germ in 3 or 4 variables vanishing to order 2 along the z1-axis:
    transverse pure powers, most of the time, plus one to three terms of
    degree >= 2 in z2, ..., zn.  With a shear c, some terms drop their z1
    and take w = zn*(zn - c*z1) for zn.  w vanishes on the axis and on the
    line {z2 = ... = z(n-1) = 0, zn = c*z1}, so the germ may also be
    singular along that line: an extra critical component."""
    n = draw(st.sampled_from((3, 4)))
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), ())
    z = [Polynomial.variable(ctx, v) for v in ctx.variables]
    shear = draw(st.sampled_from((0, 1, -2)))
    w = z[-1] * (z[-1] - Polynomial.constant(ctx, shear) * z[0])

    def term(e):
        if shear and e[-1] and draw(st.integers(0, 3)):
            rest = (0,) + e[1:-1] + (0,)
            return Polynomial.monomial(ctx, rest) * w ** e[-1]
        return Polynomial.monomial(ctx, e)

    f = Polynomial.zero(ctx)
    for i in range(1, n):
        if draw(st.integers(0, 4)):
            a = draw(st.integers(2, 2 if i == n - 1 and shear else 4))
            f = f + term(tuple(a if j == i else 0 for j in range(n)))
    for _ in range(draw(st.integers(1, 3))):
        e = [draw(st.integers(0, 1)) for _ in range(n)]
        for j in draw(st.lists(st.integers(1, n - 1), min_size=2,
                               max_size=2)):
            e[j] += 1
        f = f + term(tuple(e)) * Polynomial.constant(
            ctx, draw(st.sampled_from((-2, -1, 1, 3))))
    return f


@settings(max_examples=50, deadline=None)
@given(_order_two_along_the_axis())
def test_extra_component_flag_matches_the_per_variable_test(f):
    # z1 present (a germ free of it is a suspension) and at most 6 terms:
    # the gcds of the reducedness test, which no budget bounds, took
    # minutes on some larger germs and on some z1-free ones in 4 variables
    if (f.is_zero() or len(f.terms) > 6
            or not any(m[0] for m in f.terms) or not is_reduced(f)):
        reject()
    try:
        with step_budget(1500):
            check, gamma, dim, l0 = _line_check(f)
            expected = extra_component_oracle(f)
    except BudgetExceededError:
        reject()
    assert check.vanishes_on_axis
    assert check.extra_critical_component_at_origin == expected
    if check.slice_isolated:
        # read off the polar curve, which an isolated slice keeps a curve
        assert dim in (None, 1)
        assert (l0 is None) == expected


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
    # local: slice Milnor number, polar dimension, lambda0 (read by the line
    # check and reused), gamma1, lambda1 and its two axis witnesses, the
    # intersection cross-check; elimination: the polar curve's two
    # saturations plus their intersection, which the line check computes
    # and the record reuses; grevlex: the two colengths of the lambda^2
    # test, whose principal polar ideal is saturated without a basis
    kinds = []
    standard_basis = engine.standard_basis

    def spy(ideal, order, *args, **kwargs):
        kinds.append(order.kind)
        return standard_basis(ideal, order, *args, **kwargs)

    monkeypatch.setattr(engine, "standard_basis", spy)
    germ_record(BASE, Random(0))
    assert Counter(kinds) == {"local": 8, "elimination": 3, "grevlex": 2}


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
