"""Germ invariants: weights, Milnor numbers, the polar curve of the axis,
Le numbers, and the tabulated record for the worked examples."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from random import Random

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from lecalc import engine, invariants
from lecalc.engine import (Ideal, colength_at_origin, contains_local_unit,
                           ideals_equal, saturate, standard_basis)
from lecalc.errors import (BudgetExceededError, DegenerateInputError,
                           InternalCheckError, NonIsolatedError,
                           NonReducedError, NotLineSingularityError)
from lecalc.invariants import (WeightSystem, _jacobian, _line_check,
                               _polar_ideal, _vanishes_on_axis,
                               detect_weights, draw_rational, gamma1,
                               germ_record, is_line_singularity, lambda1,
                               milnor_number, order_at_origin)
from lecalc.families import PRIMES, default_j_values
from lecalc.orders import GREVLEX
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, reduced_witness
from lecalc.sparse import step_budget

C3 = Context(("z1", "z2", "z3"), ())
Z1 = Polynomial.variable(C3, "z1")
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


def test_weight_system_must_be_normalized():
    w = detect_weights(BASE)
    for bad in (lambda: WeightSystem(("z1", "z2"), (2, 4), 6, (False,) * 2,
                                     True),
                lambda: w._replace(weights=(12, 8, 10), degree=40)):
        with pytest.raises(InternalCheckError, match="not normalized"):
            bad()


def test_detect_weights_rejects_inhomogeneous():
    assert detect_weights(
        parse_polynomial("z1^3 + z1^2*z2 + z2^4", C3)) is None


@pytest.mark.parametrize("expr, weights, degree", [
    # a small-combination search of the nullspace missed the first two
    # and gave (4, 1, 5, 5, 5; 20) for the third
    ("z1*z2^9 + z3^10", (1, 1, 1), 10),
    ("z1*z2^8 + z3^9", (1, 1, 1), 9),
    ("z1*z2*z3*z4*z5 + z1^5", (1, 1, 1, 1, 1), 5),
])
def test_detect_weights_takes_the_least_degree_vertex(expr, weights, degree):
    ctx = Context(tuple(f"z{i}" for i in range(1, len(weights) + 1)), ())
    w = detect_weights(parse_polynomial(expr, ctx))
    assert (w.weights, w.degree) == (weights, degree)
    assert not w.unique


def test_detect_weights_charges_only_a_cone_wider_than_a_ray():
    # a unique system takes no step; z1*z2^9 + z3^10 has a 2-dimensional
    # cone and solves the three 2-subsets of its variables
    with step_budget(1) as budget:
        detect_weights(BASE)
        assert budget.used == 0
    with step_budget(3):
        detect_weights(parse_polynomial("z1*z2^9 + z3^10", C3))
    with step_budget(2), pytest.raises(BudgetExceededError):
        detect_weights(parse_polynomial("z1*z2^9 + z3^10", C3))


def _monomials_of_degree(w: list[int], d: int) -> list[tuple[int, ...]]:
    if len(w) == 1:
        return [(d // w[0],)] if d % w[0] == 0 else []
    return [(e, *rest) for e in range(d // w[0] + 1)
            for rest in _monomials_of_degree(w[1:], d - e * w[0])]


@st.composite
def _weighted_homogeneous_polynomials(draw):
    """A polynomial in 2 to 4 variables whose monomials all have degree d
    for weights w_i <= 6 drawn with it."""
    n = draw(st.integers(2, 4))
    w = [draw(st.integers(1, 6)) for _ in range(n)]
    monomials = _monomials_of_degree(w, draw(st.integers(max(w), 30)))
    if not monomials:
        reject()
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), ())
    f = Polynomial.zero(ctx)
    for m in draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=4, unique=True)):
        f = f + Polynomial.monomial(ctx, m, draw(st.sampled_from((1, -2, 3))))
    return f


def _rank(rows: list[list[int]]) -> int:
    """Rank over QQ by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            q = rows[i][c] / rows[rank][c]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_weighted_homogeneous_polynomials())
@example(parse_polynomial("z2^7 + z1^6*z3", C3))
def test_detect_weights_agrees_with_a_brute_force_oracle(f):
    # the oracle tries every weight vector in [1, 6] on the variables of f
    present = [i for i in range(f.context.nvars)
               if any(m[i] for m in f.terms)]
    found = [v for v in product(range(1, 7), repeat=len(present))
             if len({sum(m[i] * x for i, x in zip(present, v))
                     for m in f.terms}) == 1]
    assert found       # the drawn weights are among them
    w = detect_weights(f)
    assert w is not None
    assert all(w.weighted_degree(m) == w.degree for m in f.terms)
    assert min(w.weights) >= 1 and gcd(*w.weights, w.degree) == 1
    ours = [w.weights[i] for i in present]
    first = [next(iter(f.terms))[i] for i in present]
    # each oracle solution scaled to w_min = 1 is a point of the polyhedron
    # on which the result has the least degree
    assert all(Fraction(w.degree, w.smallest_weight)
               <= Fraction(sum(map(mul, first, v)), min(v)) for v in found)
    # a unique system leaves the oracle nothing else to find
    proportional = all(a * ours[0] == b * v[0]
                       for v in found for a, b in zip(v, ours))
    assert proportional or not w.unique
    # the converse needs more than the box: z2^7 + z1^6*z3 has a cone of
    # dimension 2, yet 6*w1 - 7*w2 + w3 = 0 has no solution in [1, 6]^3
    # off the diagonal; so the cone's dimension is read off the rank of
    # the degree equations
    differences = [[m[i] - e for i, e in zip(present, first)]
                   for m in f.terms]
    assert w.unique == (_rank(differences) == len(present) - 1)


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


def milnor_orlik(w, indices):
    """Product of (d/w_i - 1) over the given variable indices; the classical
    Milnor number of a weighted homogeneous isolated singularity in those
    variables (Milnor-Orlik).  A non-integer or negative product signals a
    hypothesis violation."""
    acc = Fraction(1)
    for i in indices:
        acc *= Fraction(w.degree, w.weights[i]) - 1
    assert acc.denominator == 1 and acc >= 0, \
        f"weight product {acc} is not a non-negative integer"
    return int(acc)


def test_milnor_orlik_matches_jacobian_colength():
    # product formula for the transverse slice z2^5 + z3^4 (+ z1^2*z2^2|_0)
    w = detect_weights(BASE)
    slice_mu = milnor_orlik(w, (1, 2))
    assert slice_mu == 12
    direct = milnor_number(BASE.eval_variable("z1", 0), ("z2", "z3"))
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
    # Gamma is a curve: its colength is infinite, so dim >= 1, and cut by
    # z1 it is finite, so dim <= 1 (Krull's principal ideal theorem)
    assert l0 is None and colength_at_origin(gamma) is None
    assert colength_at_origin(gamma.with_extra(Z1)) is not None
    assert check.extra_critical_component_at_origin
    assert extra_component_oracle(f)
    assert check.failing_check == "no_extra_critical_component"
    with pytest.raises(NotLineSingularityError) as err:
        germ_record(f, Random(0))
    assert err.value.failing_check == "no_extra_critical_component"


def test_extra_critical_component_off_a_surface_polar_variety():
    # Gamma = (z1) is a surface, not a curve; the slice is zero, so the
    # check stops at its second test and leaves the third untested, though
    # the z2- and z3-axes are extra components through 0
    f = parse_polynomial("z1*z2*z3", C3)
    assert standard_basis(_polar_ideal(f), GREVLEX).elements == (Z1,)
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


def _tractable(f: Polynomial, terms: int = 6) -> bool:
    """z1 present (a germ free of it is a suspension), at most TERMS terms
    and reduced: the gcds of the reducedness test took minutes on some
    larger germs and on some z1-free ones in 4 variables.  A property that draws many germs takes at most 5 terms:
    about one 6-term draw in a thousand still spent over 5 s in them."""
    return not (f.is_zero() or len(f.terms) > terms
                or not any(m[0] for m in f.terms)
                or reduced_witness(f) is not None)


@settings(max_examples=50, deadline=None)
@given(_order_two_along_the_axis())
def test_extra_component_flag_matches_the_per_variable_test(f):
    if not _tractable(f):
        reject()
    try:
        with step_budget(1500):
            check, gamma, l0 = _line_check(f)
            if check.slice_isolated:
                expected = extra_component_oracle(f)
                colength = colength_at_origin(gamma)
                cut = colength_at_origin(gamma.with_extra(
                    Polynomial.variable(f.context, "z1")))
    except BudgetExceededError:
        reject()
    assert check.vanishes_on_axis
    if not check.slice_isolated:
        assert check.extra_critical_component_at_origin is None
        return
    # read off the polar curve, which an isolated slice keeps a curve or
    # empty (Krull), so the check needs no dimension of its own: cut by z1
    # its colength is finite (dim <= 1), and it is 0 (the empty germ) or
    # infinite (dim >= 1)
    assert cut is not None and colength in (0, None)
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

    monkeypatch.setattr(engine, "_pair_loop", refuse)
    monkeypatch.setattr(engine, "saturate", refuse)
    monkeypatch.setattr(invariants, "saturate", refuse)
    f = parse_polynomial(expr, C3)
    check = is_line_singularity(f)
    assert check.failing_check == "vanishes_on_axis"
    assert check.extra_critical_component_at_origin is None
    with pytest.raises(NotLineSingularityError):
        germ_record(f, Random(0))


@st.composite
def _germs_through_the_origin(draw):
    """A germ in 2 to 4 variables over QQ or QQ(t), with no constant term:
    one to five terms of degree at most 3 in each variable."""
    n = draw(st.integers(2, 4))
    params = draw(st.sampled_from(((), ("t",))))
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), params)
    text = "0"
    for _ in range(draw(st.integers(1, 5))):
        e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                 .filter(any))
        coefficient = draw(st.sampled_from(("1", "2", "1/3") + tuple(
            c for p in params for c in (p, f"(1 + {p}^2)"))))
        text += draw(st.sampled_from((" + ", " - "))) + "*".join(
            [coefficient] + [f"z{i + 1}^{a}" for i, a in enumerate(e) if a])
    return parse_polynomial(text, ctx)


def _partials_vanish_on_the_axis(f: Polynomial) -> bool:
    """The definition the exponent test replaces: every partial of f,
    restricted to the z1-axis, is zero."""
    def on_axis(p):
        for v in p.context.variables[1:]:
            p = p.eval_variable(v, 0)
        return p
    return all(on_axis(f.partial(v)).is_zero() for v in f.context.variables)


def _check_axis_test(axis_test) -> None:
    @settings(max_examples=200, deadline=None, database=None)
    @given(_germs_through_the_origin())
    def agrees(f):
        assert axis_test(f) == _partials_vanish_on_the_axis(f)

    agrees()


def test_axis_test_reads_the_exponents():
    _check_axis_test(_vanishes_on_axis)


def test_axis_test_property_rejects_transverse_degree_one():
    # a term such as z1*z2 has df/dz2 = z1 on the axis, so a test that
    # asks only for degree >= 1 in z2, ..., zn must fail the property
    with pytest.raises(AssertionError):
        _check_axis_test(lambda f: all(sum(m[1:]) >= 1 for m in f.terms))


def test_line_singularity_requires_reduced_input():
    with pytest.raises(NonReducedError):
        is_line_singularity(parse_polynomial("z2^2*z3^2", C3))


def test_line_singularity_needs_vanishing_at_origin():
    with pytest.raises(DegenerateInputError):
        is_line_singularity(parse_polynomial("z2^2 + 1", C3))


def test_polar_variety_of_base():
    gamma = _line_check(BASE)[1]
    expected = Ideal(C3, (
        parse_polynomial("z2^3 + 2/5*z1^2", C3),
        parse_polynomial("z3^3", C3)))
    assert ideals_equal(gamma, expected)


def test_le_and_polar_numbers_of_base():
    _, gamma, l0 = _line_check(BASE)
    assert gamma1(gamma) == 9
    assert l0 == 21                        # lambda0
    rec = germ_record(BASE, Random(0))
    assert (rec.polar_ratio, rec.euler_reduced) == (Fraction(10, 3), 18)
    rec = germ_record(SUSPENSION, Random(0))
    assert (rec.polar_ratio, rec.euler_reduced) == (None, -4)


def _hyperplane_cut_sides(f: Polynomial, k: int,
                          rng: Random) -> tuple[Ideal, Ideal]:
    """The hyperplane-cut form of the k-th Le number (2 <= k <= n-1): the
    polar ideals (df/dz_(k+2), ...) : J^infinity + (df/dz_(k+1)) and
    (df/dz_(k+1), ...) : J^infinity, J = (z2, ..., zn), each cut by the
    affine hyperplanes z_i = p_i, i <= k, at random rationals p_i.  Their
    colengths are the intersection numbers [Gamma^(k+1) . V(df/dz_(k+1))]
    and [Gamma^k] at the cut, which differ by lambda^k."""
    ctx = f.context
    axis_ideal = Ideal(ctx, tuple(Polynomial.variable(ctx, v)
                                  for v in ctx.variables[1:]))

    def polar_gens(level: int) -> list[Polynomial]:
        gens = _jacobian(f, ctx.variables[level:])
        if not gens:
            return []  # the zero ideal: the whole space
        return list(saturate(Ideal(ctx, tuple(gens)), axis_ideal).generators)

    cuts = [Polynomial.variable(ctx, v)
            - Polynomial.constant(ctx, draw_rational(rng))
            for v in ctx.variables[:k]]
    d_next = f.partial(ctx.variables[k])
    side1 = polar_gens(k + 1) + ([] if d_next.is_zero() else [d_next])
    return (Ideal(ctx, tuple(side1 + cuts)),
            Ideal(ctx, tuple(polar_gens(k) + cuts)))


@st.composite
def _line_singularities(draw, fields=((), ("t",))):
    """A germ in 3 or 4 variables, over QQ or QQ(t) (the parameter tuples
    in FIELDS), singular along the z1-axis: transverse pure powers, most of
    the time, plus one to three terms of transverse degree 2 or 3 times a
    power of z1."""
    n = draw(st.sampled_from((3, 4)))
    params = draw(st.sampled_from(fields))
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), params)
    text = " + ".join(["0"] + [f"z{i}^{draw(st.integers(2, 4))}"
                               for i in range(2, n + 1)
                               if draw(st.integers(0, 4))])
    for _ in range(draw(st.integers(1, 3))):
        e = [draw(st.integers(0, 2))] + [0] * (n - 1)
        for j in draw(st.lists(st.integers(1, n - 1), min_size=2,
                               max_size=3)):
            e[j] += 1
        coefficient = draw(st.sampled_from(("1", "2", "3") + params))
        text += draw(st.sampled_from((" + ", " - "))) + "*".join(
            [coefficient] + [f"z{i + 1}^{a}" for i, a in enumerate(e) if a])
    return parse_polynomial(text, ctx)


@settings(max_examples=40, deadline=None)
@given(_line_singularities(), st.integers(0, 2 ** 32))
def test_hyperplane_cuts_of_the_polar_cycles_agree(f, seed):
    # germ_record sets lambda^k = 0 for k >= 2 by theorem; in its
    # hyperplane-cut form the two cut ideals are equal, since z2 is a unit
    # modulo either one (p2 != 0), so saturating by J changes nothing.
    # The drawn terms may cancel to 0, which has no reducedness
    if f.is_zero() or reduced_witness(f) is not None:
        reject()
    rng = Random(seed)
    try:
        with step_budget(3000):
            if not is_line_singularity(f).is_line_singularity:
                reject()
            equal = [ideals_equal(*_hyperplane_cut_sides(f, k, rng))
                     for k in range(2, f.context.nvars)]
    except BudgetExceededError:
        reject()
    assert all(equal)


@pytest.mark.parametrize("expr", [
    "t*z1^2*z2*z3 + z3^4 - 3*z1*z2^2 + t*z2^2*z3 + z2^2",
    "3*z1^2*z2^2*z3 + 3*z1^2*z2*z3 + t*z1*z2^2*z3 + z2^3 + z3^3"])
def test_coefficient_gcds_of_a_germ_record_draw_on_the_budget(expr):
    # the seed-14 draw of the lambda1 property below and the seed-11 draw
    # of the hyperplane-cut one above: the gcds that keep the QQ(t)
    # coefficients of one normal-form step reduced once ran for minutes
    # under this budget, which counted reduction steps alone
    f = parse_polynomial(expr, Context(("z1", "z2", "z3"), ("t",)))
    with step_budget(3000), pytest.raises(BudgetExceededError):
        germ_record(f, Random(0))


def _transverse_jacobian_over_qq_z1(f: Polynomial) -> Ideal:
    """df/dz2, ..., df/dzn with z1 moved into the coefficient field as its
    last parameter, by parsing their rendering there: QQ(z1), or QQ(t, z1)
    for a germ over QQ(t).  The colength is the transverse Milnor number at
    the generic point of the axis."""
    ctx = f.context
    pctx = Context(ctx.variables[1:], ctx.parameters + (ctx.variables[0],))
    return Ideal(pctx, tuple(parse_polynomial(str(p), pctx)
                             for p in _jacobian(f, ctx.variables[1:])))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_line_singularities(), _order_two_along_the_axis()),
       st.integers(0, 2 ** 32))
def test_lambda1_is_the_generic_transverse_milnor_number(f, seed):
    # germ_record reads lambda1 off the slice at z1 = 0 as mu_slice -
    # gamma1; the reference computes it at the generic axis point instead
    if not _tractable(f):
        reject()
    try:
        with step_budget(3000):
            rec = germ_record(f, Random(seed))
            generic = colength_at_origin(_transverse_jacobian_over_qq_z1(f))
    except (BudgetExceededError, NotLineSingularityError):
        reject()
    assert rec.lambda1 == generic


# About half the draws of _line_singularities are no line singularity,
# fail the filter or run out of budget, and can only be rejected; a run
# whose first draws are mostly such germs would fail the filter health
# check (it did in 2 of 50 runs) though every checked germ passes
_MOSTLY_REJECTED = settings(
    deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


@settings(_MOSTLY_REJECTED, max_examples=40)
@given(_line_singularities(fields=((),)), st.integers(0, 2 ** 32))
def test_ilm_identity_at_the_first_default_exponents(f, seed):
    # Iomdin-Le-Massey (Massey, LNM 1615): for j large enough,
    # mu(f + z1^j) = lambda0 + (j - 1) * lambda1; the default exponents
    # start at 2 + lambda0.  Over QQ only: ilm computes its rows over QQ at
    # t = 0 and over GF(p) at generic t, never over QQ(t), where one
    # augmented Milnor number can stall on coefficient gcds.  The budget
    # counts reduction steps, not time: with 1000 steps a few draws spent
    # over 8 s (one over 5 minutes) in one augmented Milnor number
    if not _tractable(f, terms=5):
        reject()
    z1 = Polynomial.variable(f.context, "z1")
    try:
        with step_budget(500):
            rec = germ_record(f, Random(seed))
            for j in default_j_values(rec.lambda0)[:2]:
                assert (milnor_number(f + z1 ** j)
                        == rec.lambda0 + (j - 1) * rec.lambda1)
    except (BudgetExceededError, NotLineSingularityError):
        reject()


@settings(_MOSTLY_REJECTED, max_examples=30)
@given(_line_singularities(), st.integers(0, 2 ** 32), st.data())
def test_relabelling_the_transverse_variables_keeps_the_numbers(f, seed,
                                                               data):
    # the numbers are invariants of the germ along the z1-axis, so the
    # order of z2, ..., zn (what --permute 1,3,2 changes) cannot move them,
    # nor the first check a germ that is no line singularity fails.  The
    # budget is the ILM property's: a record can take far longer in one
    # variable order than in the other
    if not _tractable(f, terms=5):
        reject()
    ctx = f.context
    transverse = data.draw(st.permutations(ctx.variables[1:]))
    relabelled = parse_polynomial(
        str(f), Context((ctx.variables[0], *transverse), ctx.parameters))

    def numbers(g):
        try:
            with step_budget(500):
                rec = germ_record(g, Random(seed))
        except NotLineSingularityError as exc:
            return exc.failing_check
        return (rec.order, rec.lambda0, rec.lambda1, rec.gamma1,
                rec.slice_milnor)

    try:
        expected = numbers(f)
        actual = numbers(relabelled)
    except BudgetExceededError:
        reject()
    assert actual == expected


@st.composite
def _weighted_homogeneous_line_singularities(draw):
    """A germ in 3 or 4 variables whose transverse pure powers z_i^a_i fix
    the weights w_i = d / a_i, d = lcm(a_i), plus one or two z1-terms of
    transverse degree at least 2 and at most one z1-free term, each of
    weighted degree d: w1 is the gcd of the z1-terms' weight gaps."""
    n = draw(st.sampled_from((3, 4)))
    powers = [draw(st.integers(2, 5)) for _ in range(n - 1)]
    d = lcm(*powers)
    w = [d // a for a in powers]
    transverse = [e for e in product(*(range(a + 1) for a in powers))
                  if sum(e) >= 2 and sum(map(mul, e, w)) <= d]
    gapped = [e for e in transverse if sum(map(mul, e, w)) < d]
    if not gapped:       # every a_i = 2: no z1-term can have degree d
        reject()
    terms = draw(st.lists(st.sampled_from(gapped), min_size=1, max_size=2,
                          unique=True))
    terms += draw(st.lists(st.sampled_from(
        [e for e in transverse if e not in gapped]), max_size=1))
    gaps = [d - sum(map(mul, e, w)) for e in terms]
    w1 = gcd(*gaps)
    ctx = Context(tuple(f"z{i}" for i in range(1, n + 1)), ())
    f = Polynomial.zero(ctx)
    for i, a in enumerate(powers):
        f = f + Polynomial.monomial(ctx, tuple(
            a if j == i + 1 else 0 for j in range(n)))
    for e, gap in zip(terms, gaps):
        f = f + Polynomial.monomial(ctx, (gap // w1, *e),
                                    draw(st.sampled_from((1, 2, 3, -1))))
    return f


@settings(_MOSTLY_REJECTED, max_examples=40)
@given(_weighted_homogeneous_line_singularities(), st.integers(0, 2 ** 32))
def test_weighted_homogeneous_slice_is_the_milnor_orlik_product(f, seed):
    # at z1 = 0 a weighted homogeneous line singularity leaves a weighted
    # homogeneous germ in z2, ..., zn of the same weights; where it is
    # isolated, its Milnor number is prod (d/w_i - 1) (Milnor-Orlik)
    if not _tractable(f):
        reject()
    try:
        with step_budget(500):
            rec = germ_record(f, Random(seed))
    except (BudgetExceededError, NotLineSingularityError):
        reject()
    w = detect_weights(f)
    assert rec.slice_milnor == milnor_orlik(w, range(1, f.context.nvars))


@st.composite
def _suspensions(draw):
    """(a, b, i, j, c) for z2^a + z3^b + c*z2^i*z3^j, which leaves z1 free;
    the extra term has order at least 2."""
    i, j = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda e: sum(e) >= 2))
    return (draw(st.integers(2, 6)), draw(st.integers(2, 6)), i, j,
            draw(st.sampled_from((-3, -1, 1, 2))))


@settings(max_examples=40, deadline=None)
@given(_suspensions(), st.integers(0, 2 ** 32))
def test_germ_record_of_a_suspension_over_qq_and_mod_p(spec, seed):
    # a suspension of an isolated slice g(z2, z3) is a line singularity with
    # empty polar curve: lambda0 = gamma1 = 0 and lambda1 = mu_slice = mu(g),
    # over QQ and over the prime fields of the generic cross-checks
    a, b, i, j, c = spec
    for modulus in (0, *PRIMES):
        ctx = Context(("z1", "z2", "z3"), (), modulus)
        f = (Polynomial.monomial(ctx, (0, a, 0))
             + Polynomial.monomial(ctx, (0, 0, b))
             + Polynomial.monomial(ctx, (0, i, j), c))
        try:
            mu = milnor_number(f, ("z2", "z3"))
        except NonIsolatedError:
            assert not modulus   # refused over QQ first
            reject()
        rec = germ_record(f, Random(seed))
        assert (rec.lambda0, rec.gamma1) == (0, 0)
        assert rec.lambda1 == rec.slice_milnor == mu


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
    # every basis, a colength's included, goes through the pair loop
    kinds = []
    pair_loop = engine._pair_loop

    def spy(rows, packing, budget):
        kinds.append(packing.order.kind)
        return pair_loop(rows, packing, budget)

    monkeypatch.setattr(engine, "_pair_loop", spy)
    germ_record(f, Random(0))
    return Counter(kinds)


def test_germ_record_bases_by_order_kind(monkeypatch):
    # local: lambda0 (read by the line check and reused) and the
    # intersection cross-check Gamma + (f), both in (z1, z2); lambda^2 = 0
    # by theorem needs no basis.  The polar curve
    # (dz2, dz3) : (z2, z3)^infinity needs no basis: dz3 = 4*z3^3 shares no
    # variable with dz2 and with z2, so the saturation by z2 strips dz2 by
    # gcds and keeps z3^3, and the one by z3 is (1).  The monomial z3^3 of
    # Gamma prunes the z3^4 of f, which leaves Gamma + (f) a block in
    # (z1, z2) and the block z3^3, and the monomial z1 makes gamma1 a
    # colength of blocks in one variable.  The other colengths and
    # dimensions split into blocks that need no basis: each in one
    # variable, or of one generator
    assert _bases_by_order_kind(monkeypatch, BASE) == {"local": 2}


def test_gamma1_of_base_builds_no_basis(monkeypatch):
    # Gamma + (z1): z1 prunes every term of Gamma that it divides, which
    # leaves z2^3 and z3^3 in blocks of one variable each, 3 * 3 = 9
    gamma = invariants._polar_ideal(BASE)

    def no_basis(*args, **kwargs):
        raise AssertionError("gamma1 computed a basis")

    monkeypatch.setattr(engine, "_pair_loop", no_basis)
    assert invariants.gamma1(gamma) == 9


def test_separated_four_variable_germ_builds_no_elimination_basis(
        monkeypatch):
    # dz2, dz3 and dz4 lie in disjoint variables; local: lambda0 and the
    # intersection cross-check, both in (z1, z2), as for BASE
    ctx = Context(("z1", "z2", "z3", "z4"), ())
    f = parse_polynomial("z1^2*z2^2 + z2^4 + z3^3 + z4^3", ctx)
    assert _bases_by_order_kind(monkeypatch, f) == {"local": 2}


def test_separable_milnor_number_and_lambda1_build_no_basis(monkeypatch):
    # the Jacobian (3*z2^2, 3*z3^2) is two blocks in one variable each, so
    # the colength is the product of their orders, at z1 = 0 and at both
    # axis witnesses of lambda1 = mu_slice - gamma1
    def no_basis(*args, **kwargs):
        raise AssertionError("a separable colength computed a basis")

    monkeypatch.setattr(engine, "_pair_loop", no_basis)
    assert milnor_number(SUSPENSION, ("z2", "z3")) == 4
    assert lambda1(SUSPENSION, 4, 0, Random(0))[0] == 4


def test_coupled_germ_keeps_the_elimination_path(monkeypatch):
    # dz3 = 3*z3^2 + 2*z2*z3 shares z2 with dz2, so each saturation of the
    # polar curve is a Rabinowitsch elimination, and their intersection a
    # third one; 6 local bases, as the line check takes no dimension of
    # the polar curve and lambda1 is read off the slice at z1 = 0
    f = parse_polynomial("z1^2*z2^2 + z2^4 + z3^3 + z2*z3^2", C3)
    assert _bases_by_order_kind(monkeypatch, f) == {"local": 6,
                                                    "elimination": 3}


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
