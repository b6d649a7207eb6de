"""Germ invariants: weights, Milnor numbers, the polar curve of the axis,
Le numbers, and the tabulated record for the worked examples."""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from lecalc import engine, invariants
from lecalc.engine import (Ideal, contains_local_unit, dimension_at_origin,
                           ideals_equal, saturate, step_budget)
from lecalc.errors import (BudgetExceededError, DegenerateInputError,
                           NonIsolatedError, NonReducedError,
                           NotLineSingularityError, PolarDimensionError)
from lecalc.invariants import (_line_check, check_polar_ratio_lemma,
                               detect_weights, euler_reduced, gamma1,
                               germ_record, is_line_singularity,
                               lambda1, lambda_k_vanishing, milnor_number,
                               milnor_orlik, order_at_origin, polar_ratio,
                               polar_variety_1)
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, is_reduced

C3 = Context(("z1", "z2", "z3"), ())
BASE = parse_polynomial("z1^2*z2^2 + z2^5 + z3^4", C3)
SUSPENSION = parse_polynomial("z2^3 + z3^3", C3)


def test_order_and_multiplicity():
    # the multiplicity of the reduced BASE is in test_germ_record_of_base
    assert order_at_origin(BASE) == 4
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
        germ_record(parse_polynomial("z1^2 + z2^2 + z3^2", C3), Random(0))
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
    check, gamma, l0 = _line_check(f)
    assert check.vanishes_on_axis and check.slice_isolated
    assert check.slice_milnor == 3
    assert l0 is None and dimension_at_origin(gamma) == 1
    assert check.extra_critical_component_at_origin
    assert extra_component_oracle(f)
    assert check.failing_check == "no_extra_critical_component"
    with pytest.raises(NotLineSingularityError) as err:
        germ_record(f, Random(0))
    assert err.value.failing_check == "no_extra_critical_component"


def test_extra_critical_component_off_a_surface_polar_variety():
    # Gamma = (z1) is a surface, which polar_variety_1 refuses; the slice is
    # zero, so the check stops at its second test and leaves the third
    # untested, though the z2- and z3-axes are extra components through 0
    f = parse_polynomial("z1*z2*z3", C3)
    with pytest.raises(PolarDimensionError):
        polar_variety_1(f)
    check, gamma, l0 = _line_check(f)
    assert gamma is None and l0 is None
    assert check.vanishes_on_axis and not check.slice_isolated
    assert check.extra_critical_component_at_origin is None
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
            check, gamma, l0 = _line_check(f)
            if check.slice_isolated:
                expected = extra_component_oracle(f)
                dim = dimension_at_origin(gamma)
    except BudgetExceededError:
        reject()
    assert check.vanishes_on_axis
    if not check.slice_isolated:
        assert check.extra_critical_component_at_origin is None
        return
    # read off the polar curve, which an isolated slice keeps a curve or
    # empty (Krull), so the check needs no dimension of its own
    assert dim in (None, 1)
    assert check.extra_critical_component_at_origin == expected
    assert (l0 is None) == expected


@pytest.mark.parametrize("expr", ["z1^2 + z2^2 + z3^2",
                                  "z1^3 + z2^3 + z3^3 + z1*z2*z3"])
def test_failed_first_test_builds_no_basis_and_no_saturation(monkeypatch,
                                                            expr):
    # df/dz1 restricts to a nonzero multiple of z1^(d-1) on the axis; the
    # slice's Milnor number splits into blocks in one variable each, and
    # the third test is not run
    def refuse(*args, **kwargs):
        raise AssertionError("the line check built a basis or a saturation")

    monkeypatch.setattr(engine, "standard_basis", refuse)
    monkeypatch.setattr(engine, "saturate", refuse)
    monkeypatch.setattr(invariants, "saturate", refuse)
    f = parse_polynomial(expr, C3)
    check = is_line_singularity(f)
    assert check.failing_check == "vanishes_on_axis"
    assert check.extra_critical_component_at_origin is None
    with pytest.raises(NotLineSingularityError):
        germ_record(f, Random(0))


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
    assert _line_check(BASE)[2] == 21      # lambda0
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


def _bases_by_order_kind(monkeypatch, f: Polynomial) -> Counter:
    kinds = []
    standard_basis = engine.standard_basis

    def spy(ideal, order, *args, **kwargs):
        kinds.append(order.kind)
        return standard_basis(ideal, order, *args, **kwargs)

    monkeypatch.setattr(engine, "standard_basis", spy)
    germ_record(f, Random(0))
    return Counter(kinds)


def test_germ_record_bases_by_order_kind(monkeypatch):
    # local: lambda0 (read by the line check and reused) and gamma1 in
    # (z1, z2), and the intersection cross-check Gamma + (f) in all three
    # variables; grevlex: the two colengths of the lambda^2 test.  The polar
    # curve (dz2, dz3) : (z2, z3)^infinity needs no basis: dz3 = 4*z3^3
    # shares no variable with dz2 and with z2, so the saturation by z2
    # strips dz2 by gcds and keeps z3^3, and the one by z3 is (1).  The
    # other colengths and dimensions split into blocks that need no basis:
    # each in one variable, or of one generator
    assert _bases_by_order_kind(monkeypatch, BASE) == {"local": 3,
                                                       "grevlex": 2}


def test_separated_four_variable_germ_builds_no_elimination_basis(
        monkeypatch):
    # dz2, dz3 and dz4 lie in disjoint variables; local: lambda0, gamma1 and
    # the intersection cross-check, as for BASE; grevlex: the colengths of
    # the lambda^2 and lambda^3 tests
    ctx = Context(("z1", "z2", "z3", "z4"), ())
    f = parse_polynomial("z1^2*z2^2 + z2^4 + z3^3 + z4^3", ctx)
    assert _bases_by_order_kind(monkeypatch, f) == {"local": 3,
                                                    "grevlex": 4}


def test_separable_milnor_number_and_lambda1_build_no_basis(monkeypatch):
    # the Jacobian (3*z2^2, 3*z3^2) is two blocks in one variable each, so
    # the colength is the product of their orders, over QQ and over QQ(z1)
    def no_basis(*args, **kwargs):
        raise AssertionError("a separable colength computed a basis")

    monkeypatch.setattr(engine, "standard_basis", no_basis)
    assert milnor_number(SUSPENSION, ("z2", "z3")) == 4
    assert lambda1(SUSPENSION, Random(0))[0] == 4


def test_coupled_germ_keeps_the_elimination_path(monkeypatch):
    # dz3 = 3*z3^2 + 2*z2*z3 shares z2 with dz2, so each saturation of the
    # polar curve is a Rabinowitsch elimination, and their intersection a
    # third one; 7 local bases, as the line check takes no dimension of
    # the polar curve
    f = parse_polynomial("z1^2*z2^2 + z2^4 + z3^3 + z2*z3^2", C3)
    assert _bases_by_order_kind(monkeypatch, f) == {
        "local": 7, "elimination": 3, "grevlex": 2}


@pytest.mark.parametrize("a, b, g, m", [
    *((a, b, f"z3^{d}", d - 1)
      for a in (1, 2, 3) for b in (3, 4, 5) for d in (2, 3, 4)),
    *((a, b, f"z3^{c} + z4^{d}", (c - 1) * (d - 1))
      for a, b in ((1, 3), (2, 4)) for c, d in ((2, 2), (2, 3), (3, 3))),
])
def test_germ_record_closed_forms(a, b, g, m):
    # z1^a*z2^2 + z2^b + g, mu(g) = m: the polar curve is m copies of
    # 2*z1^a + b*z2^(b-2) = 0, which meets z1 = 0 with multiplicity b - 2
    # and a*z1^(a-1)*z2^2 = 0 with (a-1)(b-2) + 2a
    n = 4 if "z4" in g else 3
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), ())
    f = parse_polynomial(f"z1^{a}*z2^2 + z2^{b} + {g}", ctx)
    rec = germ_record(f, Random(0))
    assert rec.lambda0 == m * ((a - 1) * (b - 2) + 2 * a)
    assert rec.lambda1 == m
    assert rec.gamma1 == m * (b - 2)
    assert rec.slice_milnor == m * (b - 1)


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
