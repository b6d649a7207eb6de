"""Standard bases and ideal operations, checked against hand computations
and independent oracles (iterated-quotient saturation, jet-space
truncation)."""

from fractions import Fraction
from itertools import combinations, product
from random import Random
from time import perf_counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from lecalc import engine
from lecalc.engine import (DEFAULT_BUDGET, Ideal, _Budget, _reduce,
                           colength_at_origin, colength_by_truncation,
                           colength_global, contains_local_unit,
                           dimension_at_origin, eliminate, ideals_equal,
                           intersect, normal_form, saturate, standard_basis,
                           step_budget)
from lecalc.errors import BudgetExceededError, DegenerateInputError
from lecalc.orders import GREVLEX, LOCAL
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, render

C2 = Context(("z1", "z2"), ())
X = Polynomial.variable(C2, "z1")
Y = Polynomial.variable(C2, "z2")
C3 = Context(("z1", "z2", "z3"), ())


def gens(basis):
    return sorted(render(g) for g in basis.elements)


def test_ideal_rejects_empty_and_zero_generators():
    with pytest.raises(DegenerateInputError):
        Ideal(C2, ())
    with pytest.raises(DegenerateInputError):
        Ideal(C2, (Polynomial.zero(C2),))


def test_local_basis_tangent_cone_example(checked_bases):
    # x^2 = y^3 cusp relation plus x*y^2: the S-pair contributes y^5
    ideal = Ideal(C2, (X ** 2 - Y ** 3, X * Y ** 2))
    basis = standard_basis(ideal, LOCAL)
    assert sorted(basis.leading_exponents) == [(0, 5), (1, 2), (2, 0)]
    # standard monomials reach degree 4, so m^5 lies in the ideal
    assert basis.truncation_bound == 5
    assert colength_at_origin(ideal) == 7
    assert sorted(basis.standard_monomials) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)]
    assert colength_by_truncation(ideal) == 7


def test_global_reduced_basis_is_canonical(checked_bases):
    ideal = Ideal(C2, (X ** 2 + X * Y, Y ** 2 - 1, X * Y ** 3))
    reference = standard_basis(ideal, GREVLEX)
    rng = Random(7)
    for _ in range(5):
        shuffled = list(ideal.generators)
        rng.shuffle(shuffled)
        rescaled = tuple(Fraction(rng.randrange(1, 9),
                                  rng.randrange(1, 9)) * g
                         for g in shuffled)
        again = standard_basis(Ideal(C2, rescaled), GREVLEX)
        assert again.elements == reference.elements


def test_membership_via_equality():
    a = Ideal(C2, (X + Y, X - Y))
    b = Ideal(C2, (X, Y))
    assert ideals_equal(a, b)
    assert not ideals_equal(a, Ideal(C2, (X,)))


def test_intersection_of_coordinate_ideals():
    meet = intersect(Ideal(C2, (X,)), Ideal(C2, (Y,)))
    assert gens(standard_basis(meet, GREVLEX)) == ["z1*z2"]


# ---------------------------------------------------------------------------
# independent saturation oracle: the iterated-quotient fixpoint

def ideal_quotient(i: Ideal, k: Ideal) -> Ideal:
    """I : K = { p : p*K ⊆ I }, the intersection over the generators g of K
    of (I ∩ (g)) / g."""
    acc = None
    for g in k.generators:
        inter = intersect(i, Ideal(i.context, (g,)))
        quots = tuple(q.divide_exact(g) for q in inter.generators)
        assert None not in quots, "element of I ∩ (g) not divisible by g"
        part = Ideal(i.context, quots)
        acc = part if acc is None else intersect(acc, part)
    return Ideal(acc.context, standard_basis(acc, GREVLEX).elements)


def quotient_fixpoint_saturation(i: Ideal, k: Ideal) -> Ideal:
    """I : K^infinity as the first I : K^j that equals I : K^(j+1)."""
    current = i
    while True:
        nxt = ideal_quotient(current, k)
        if ideals_equal(nxt, current):
            return current
        current = nxt


def test_quotient_of_principal_ideals():
    q = ideal_quotient(Ideal(C2, (X * Y,)), Ideal(C2, (X,)))
    assert gens(standard_basis(q, GREVLEX)) == ["z2"]


def test_quotient_normalizes_local_units():
    # 3*z2^2 + 4*t*z2^3 = z2^2 * (3 + 4*t*z2) and the trailing factor is a
    # unit of the local ring, so the quotient by the maximal ideal is m^2
    ctx = Context(("z2", "z3"), ("t",))
    y = Polynomial.variable(ctx, "z2")
    z = Polynomial.variable(ctx, "z3")
    t = Polynomial.parameter(ctx, "t")
    ideal = Ideal(ctx, (3 * y ** 2 + 4 * t * y ** 3, z ** 2))
    q = ideal_quotient(ideal, Ideal(ctx, (y, z)))
    assert gens(standard_basis(q, LOCAL)) == ["z2*z3", "z2^2", "z3^2"]


def test_eliminate_auxiliary_variable():
    ctx = Context(("z1", "z2", "u0"), ())
    a, b, u = (Polynomial.variable(ctx, n) for n in ("z1", "z2", "u0"))
    image = eliminate(Ideal(ctx, (u * a - 1, b - u ** 2)), ("u0",))
    assert image.context.variables == ("z1", "z2")
    assert gens(standard_basis(image, GREVLEX)) == ["z1^2*z2 - 1"]


def test_eliminate_keeps_the_modulus():
    ctx = Context(("z1", "z2", "u0"), (), 7)
    a, b, u = (Polynomial.variable(ctx, n) for n in ("z1", "z2", "u0"))
    image = eliminate(Ideal(ctx, (u * a - 1, b - u ** 2)), ("u0",))
    assert image.context == Context(("z1", "z2"), (), 7)
    assert gens(standard_basis(image, GREVLEX)) == ["z1^2*z2 + 6"]


def test_bases_over_a_prime_field(checked_bases):
    c7 = Context(("z1", "z2"), (), 7)
    x, y = Polynomial.variable(c7, "z1"), Polynomial.variable(c7, "z2")
    cusp = Ideal(c7, (x ** 2 - y ** 3, x * y ** 2))
    assert colength_at_origin(cusp) == 7
    # the reduced basis over QQ is z2^2 + 2*z1, z1*z2 - 1, z1^2 + 1/2*z2;
    # 7 is a lucky prime for it, so its image mod 7 is the basis over GF(7)
    basis = standard_basis(Ideal(c7, (2 * x ** 2 + y, x * y - 1)), GREVLEX)
    assert gens(basis) == ["z1*z2 + 6", "z1^2 + 4*z2", "z2^2 + 2*z1"]
    over_q = standard_basis(Ideal(C2, (2 * X ** 2 + Y, X * Y - 1)), GREVLEX)
    assert gens(over_q) == ["z1*z2 - 1", "z1^2 + 1/2*z2", "z2^2 + 2*z1"]


def test_saturation_strips_axis_factor():
    ideal = Ideal(C2, (2 * X ** 2 * Y + 5 * Y ** 4,))
    sat = saturate(ideal, Ideal(C2, (Y,)))
    assert gens(standard_basis(sat, GREVLEX)) == ["z2^3 + 2/5*z1^2"]
    assert ideals_equal(
        sat, quotient_fixpoint_saturation(ideal, Ideal(C2, (Y,))))


def test_saturation_collapses_when_locus_sits_inside_divisor():
    # V(2*x^2*y + 5*y^4, x*y^2) is contained in {y = 0}
    ideal = Ideal(C2, (2 * X ** 2 * Y + 5 * Y ** 4, X * Y ** 2))
    sat = saturate(ideal, Ideal(C2, (Y,)))
    assert contains_local_unit(sat)
    assert ideals_equal(
        sat, quotient_fixpoint_saturation(ideal, Ideal(C2, (Y,))))


def test_saturation_by_local_unit_is_identity():
    ideal = Ideal(C2, (X * Y,))
    sat = saturate(ideal, Ideal(C2, (Y + 1,)))
    assert ideals_equal(sat, ideal)


def _two_variable_ideals():
    """One or two generators, each a power of z2 times a small polynomial,
    so that saturating by z2 has something to strip."""
    term = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(-3, 3).filter(bool))

    def generator(terms, shift):
        p = Polynomial.zero(C2)
        for a, b, c in terms:
            p = p + Polynomial.monomial(C2, (a, b), Fraction(c))
        return p * Y ** shift

    gen = st.builds(generator, st.lists(term, min_size=1, max_size=3),
                    st.integers(0, 2)).filter(lambda p: not p.is_zero())
    return st.lists(gen, min_size=1, max_size=2).map(
        lambda gs: Ideal(C2, tuple(gs)))


def _space_hypersurface():
    # a principal ideal in three variables: the factors z2^2 and z3 vanish
    # on the z1-axis, and saturating by z2 strips z2^2 alone
    x, y, z = (Polynomial.variable(C3, v) for v in C3.variables)
    return Ideal(C3, (3 * y ** 2 * z * (x + z) * (x ** 2 - y * z),))


SATURATE_BY = {C2: (("z2",), ("z1", "z2")), C3: (("z2",), ("z2", "z3"))}


@settings(max_examples=40, deadline=None)
@given(_two_variable_ideals())
@example(_space_hypersurface())
def test_saturation_matches_quotient_fixpoint(ideal):
    ctx = ideal.context
    for names in SATURATE_BY[ctx]:
        k = Ideal(ctx, tuple(Polynomial.variable(ctx, v) for v in names))
        assert ideals_equal(saturate(ideal, k),
                            quotient_fixpoint_saturation(ideal, k))


def test_saturation_matches_quotient_fixpoint_over_rational_functions():
    ctx = Context(("z1", "z2"), ("t",))
    x = Polynomial.variable(ctx, "z1")
    y = Polynomial.variable(ctx, "z2")
    t = Polynomial.parameter(ctx, "t")
    for ideal in (Ideal(ctx, (t * x * y ** 2 + y ** 3, (x - t) * x ** 2 * y)),
                  Ideal(ctx, ((x - t) * y ** 2 * (t * x + y ** 3),))):
        for k in (Ideal(ctx, (y,)), Ideal(ctx, (x, y))):
            sat = saturate(ideal, k)
            assert ideals_equal(sat, quotient_fixpoint_saturation(ideal, k))
            assert ideals_equal(saturate(sat, k), sat)


def test_principal_saturation_builds_no_basis(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a principal saturation computed a basis")

    ideal = _space_hypersurface()
    x, y, z = (Polynomial.variable(C3, v) for v in C3.variables)
    monkeypatch.setattr(engine, "standard_basis", no_basis)
    # a hypersurface has no component inside the z1-axis
    by_axis = saturate(ideal, Ideal(C3, (y, z)))
    assert by_axis.generators == (ideal.generators[0].monic(GREVLEX),)
    by_z2 = saturate(ideal, Ideal(C3, (y,)))
    stripped = z * (x + z) * (x ** 2 - y * z)
    assert by_z2.generators == (stripped.monic(GREVLEX),)
    assert saturate(Ideal(C2, (X * Y,)), Ideal(C2, (X, Y))).generators == (
        X * Y,)
    assert saturate(Ideal(C2, (2 * Y ** 3,)), Ideal(C2, (Y,))).generators == (
        Polynomial.one(C2),)


def test_local_unit_detection(monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("the local-unit test computed a basis")

    monkeypatch.setattr(engine, "standard_basis", no_basis)
    assert contains_local_unit(Ideal(C2, (X + 1,)))
    assert not contains_local_unit(Ideal(C2, (X,)))
    assert not contains_local_unit(Ideal(C2, (X ** 2 + X * Y, Y ** 3)))


def test_dimension_at_origin():
    assert dimension_at_origin(Ideal(C2, (X,))) == 1
    assert dimension_at_origin(Ideal(C2, (X ** 2, Y ** 3))) == 0
    # empty germ: the ideal is the whole local ring
    assert dimension_at_origin(Ideal(C2, (X + 1,))) is None


def _whole_ideal_colength_and_dimension(ideal: Ideal):
    """The reference: one local basis in all variables, its staircase and
    the largest set of variables that carries no leading monomial."""
    basis = standard_basis(ideal, LOCAL)
    exps = basis.leading_exponents
    stairs = basis.standard_monomials
    colength = None if stairs is None else len(stairs)
    if not all(map(any, exps)):
        return colength, None
    n = ideal.context.nvars
    dimension = max(len(s) for k in range(n + 1)
                    for s in combinations(range(n), k)
                    if not any(all(i in s for i, a in enumerate(e) if a)
                               for e in exps))
    return colength, dimension


C4 = Context(("z1", "z2", "z3", "z4"), ())
C4_T = Context(C4.variables, ("t",))
C4_P = Context(C4.variables, (), 2147483647)


def _coefficients(ctx):
    """Small rationals, and over QQ(t) a few polynomials in t."""
    out = [ctx.coefficient(q) for q in (1, -1, 2, -3, Fraction(1, 2))]
    if ctx.parameters:
        t = Polynomial.parameter(ctx, "t").constant_coefficient()
        out += [t, t + ctx.unit]
    return out


@st.composite
def _separable_ideals(draw):
    """An ideal in four variables over QQ, QQ(t) or GF(2147483647) whose
    generators fall into blocks in disjoint variables.  A block of several
    generators has at most 2 variables, one generator may have 3, and every
    generator has 1 to 3 terms of degree 1 to 3, except that over QQ(t) a
    block of several generators keeps to degree 2: with degree 3, when the
    whole ideal has no highest corner (a variable of some generator that
    no pure power of the basis covers, as in a principal block in two
    variables), the reference's coefficients in t swell and one ideal can
    take seconds.
    Sometimes a block's variables are left out, and sometimes a generator
    has a constant term."""
    ctx = draw(st.sampled_from((C4, C4_T, C4_P)))
    coefficient = st.sampled_from(_coefficients(ctx))
    order = draw(st.permutations(range(4)))
    rarely = st.integers(0, 9).map(lambda k: k == 5)
    gens = []
    start = 0
    while start < 4:
        size = min(draw(st.sampled_from((1, 1, 2, 2, 3))), 4 - start)
        block = order[start:start + size]
        start += size
        if draw(rarely):
            continue  # the block's variables appear in no generator
        count = 1 if size == 3 else draw(st.sampled_from((1, 2, 2, 3)))
        degree = 2 if ctx is C4_T and count > 1 else 3
        exponent = st.sampled_from([
            e for e in product(range(4), repeat=4)
            if 1 <= sum(e) <= degree and all(i in block or not a
                                        for i, a in enumerate(e))])
        for _ in range(count):
            p = Polynomial.zero(ctx)
            for e in draw(st.lists(exponent, min_size=1, max_size=3,
                                   unique=True)):
                p = p + Polynomial.monomial(ctx, e, draw(coefficient))
            if not p.is_zero():
                gens.append(p)
    assume(gens)
    if draw(rarely):
        gens[0] = gens[0] + Polynomial.one(ctx)
    return Ideal(ctx, tuple(gens))


def _c4(*exprs):
    return Ideal(C4, tuple(parse_polynomial(e, C4) for e in exprs))


@settings(max_examples=60, deadline=None)
@given(_separable_ideals())
def test_block_colength_and_dimension_match_the_whole_ideal(ideal):
    colength, dimension = _whole_ideal_colength_and_dimension(ideal)
    assert colength_at_origin(ideal) == colength
    assert dimension_at_origin(ideal) == dimension


@pytest.mark.parametrize("exprs, colength, dimension", [
    # z4 absent: infinite colength, and a free direction
    (("z1^2 - z2^3", "z1*z2^2", "z3^4"), None, 1),
    # a unit generator, a constant generator: the empty germ
    (("z1 + 1", "z2^2", "z3", "z4"), 0, None),
    (("3", "z1*z2"), 0, None),
    # principal blocks in 2 and in 3 variables
    (("z1^2 - z2^3", "z3^2", "z4^3"), None, 1),
    (("z1*z2 + z3^2", "z4^3"), None, 2),
    # (z2^3, z2^2 + z2^5) = (z2^2) in one variable: 2, times the cusp's 7
    (("z2^3", "z2^2 + z2^5", "z1^2 - z3^3", "z1*z3^2", "z4"), 14, 0),
    (("z2^3", "z2^2 + z2^5", "z1", "z3", "z4"), 2, 0),
])
def test_block_colengths_and_dimensions(exprs, colength, dimension):
    ideal = _c4(*exprs)
    assert _whole_ideal_colength_and_dimension(ideal) == (colength, dimension)
    assert colength_at_origin(ideal) == colength
    assert dimension_at_origin(ideal) == dimension


def test_highest_corner_waits_only_for_the_variables_in_use(checked_bases):
    # z4 is in no generator, so the corner z1^2, z2, z3^3 shows in the other
    # three variables; waiting for a pure power of z4 as well ran the whole
    # Mora loop without the cutoff, about 10 s as the coefficients in t swell
    exprs = ("t*z1^3", "z1^2", "(t^2 - 2)*z2^3 - z3^3 + (t^2 - 2)*z2*z3",
             "(t^2 - 2)*z2^3 + t*z3^3 + 2*z2",
             "(t + 1)*z2*z3^2 + (t + 1)*z2^2")
    c3_t = Context(C3.variables, ("t",))
    bases = []
    for ctx in (c3_t, C4_T):
        ideal = Ideal(ctx, tuple(parse_polynomial(e, ctx) for e in exprs))
        start = perf_counter()
        bases.append(standard_basis(ideal, LOCAL))
        assert perf_counter() - start < 0.5
    three, four = bases
    assert sorted(three.leading_exponents) == [(0, 0, 3), (0, 1, 0),
                                               (2, 0, 0)]
    assert sorted(four.leading_exponents) == [
        e + (0,) for e in sorted(three.leading_exponents)]
    assert four.standard_monomials is None  # z4 is a free direction


def test_global_colength_counts_all_points():
    ideal = Ideal(C2, ((X - 1) * X, Y))
    assert colength_global(ideal) == 2
    assert colength_at_origin(ideal) == 1


# leading terms share a factor, so S-pairs genuinely reduce (nine steps)
NINE_STEPS = Ideal(C2, (X ** 3 * Y + Y ** 4 + X, X * Y ** 3 + X ** 3))


def test_budget_exhaustion_raises():
    with step_budget(9):
        standard_basis(NINE_STEPS, GREVLEX)
    with step_budget(5), pytest.raises(BudgetExceededError):
        standard_basis(NINE_STEPS, GREVLEX)


def test_step_budget_bounds_the_whole_block():
    # each basis fits in 17 steps, the two together do not
    with step_budget(17) as budget:
        standard_basis(NINE_STEPS, GREVLEX)
        assert budget.used == 9
        with pytest.raises(BudgetExceededError):
            standard_basis(NINE_STEPS, GREVLEX)
    # outside any block every basis gets a fresh default budget
    standard_basis(NINE_STEPS, GREVLEX)
    standard_basis(NINE_STEPS, GREVLEX)


def test_nested_step_budget_restores_the_outer_one():
    with step_budget(100) as outer:
        standard_basis(NINE_STEPS, GREVLEX)
        with step_budget(5) as inner, pytest.raises(BudgetExceededError):
            standard_basis(NINE_STEPS, GREVLEX)
        assert inner.used > inner.limit
        assert engine._active_budget is outer and outer.used == 9
        standard_basis(NINE_STEPS, GREVLEX)
        assert outer.used == 18
    assert engine._active_budget is None


def test_colength_matches_truncation_on_random_zero_dim_ideals():
    rng = Random(20260814)
    for _ in range(20):
        a = rng.randrange(2, 5)
        b = rng.randrange(2, 5)
        pieces = [X ** a, Y ** b]
        extra = Polynomial.zero(C2)
        for _ in range(rng.randrange(3)):
            expo = (rng.randrange(4), rng.randrange(4))
            if expo == (0, 0):
                continue
            extra = extra + Polynomial.monomial(
                C2, expo, Fraction(rng.randrange(-4, 5)))
        if not extra.is_zero():
            pieces.append(extra)
        ideal = Ideal(C2, tuple(pieces))
        assert colength_at_origin(ideal) == colength_by_truncation(ideal)


def _small_polynomials(ctx, min_degree):
    """Up to three terms of total degree at most 5 - nvars (so at most 2 in
    three variables, which keeps the truncation oracle's m^N small)."""
    coefficient = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(Fraction)
    top = 5 - ctx.nvars
    exponent = st.sampled_from([e for e in product(range(top + 1),
                                                   repeat=ctx.nvars)
                                if min_degree <= sum(e) <= top])
    term = st.builds(lambda e, c: Polynomial.monomial(ctx, e, c),
                     exponent, coefficient)
    return st.lists(term, min_size=1, max_size=3).map(sum).filter(
        lambda p: not p.is_zero())


@st.composite
def _ideal_and_polynomial(draw):
    """An ideal of the origin in n = 2 or 3 variables (n to n + 2
    generators), and a polynomial to reduce modulo it."""
    ctx = draw(st.sampled_from((C2, C3)))
    gens = draw(st.lists(_small_polynomials(ctx, 1), min_size=ctx.nvars,
                         max_size=ctx.nvars + 2))
    return Ideal(ctx, tuple(gens)), draw(_small_polynomials(ctx, 0))


def _cusp_and_polynomial():
    # leading terms z1^2 and z1*z2^2: the pure power z2^5 (the corner)
    # appears mid-loop, from the S-polynomial
    return Ideal(C2, (X ** 2 - Y ** 3, X * Y ** 2)), X + 2 * Y ** 4 + 1


def _corner_pair_and_polynomial():
    # corner z1, z2^4, so D = 4; the pair (z1, z1^2*z2 - z2^3) has an lcm of
    # degree D - 1 = 3 and gives z2^3, so the cutoff must not start at D - 1
    return Ideal(C2, (X, X ** 2 * Y - Y ** 3, Y ** 4)), Y ** 3 + X * Y + 1


def _space_germ_and_polynomial():
    # leading terms z2, z1 and z1^2: no pure power of z3 in the input
    x, y, z = (Polynomial.variable(C3, v) for v in C3.variables)
    return Ideal(C3, (y - z ** 2, y * z + 2 * x, x ** 2)), y * z + z ** 3 + 1


def _no_pure_power_and_polynomial():
    # colength 4 and no generator a pure power: the truncation oracle stops
    # at N = 8, where c_N = 4 < N; doubling from N = 6 ran out of budget
    gens = ("-3*z2*z3 - 3*z3^2 + z2", "-3*z1^2 - 3*z1*z2",
            "-z1^2 - 2*z1*z3 + 3*z2")
    ideal = Ideal(C3, tuple(parse_polynomial(g, C3) for g in gens))
    return ideal, Polynomial.variable(C3, "z1") + 1


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ideal_and_polynomial())
@example(_cusp_and_polynomial())
@example(_no_pure_power_and_polynomial())
@example(_corner_pair_and_polynomial())
@example(_space_germ_and_polynomial())
def test_highest_corner_keeps_colength_and_normal_forms(checked_bases, case):
    ideal, p = case
    colength = colength_at_origin(ideal)
    assume(colength is not None)
    assert colength == colength_by_truncation(ideal)
    basis = standard_basis(ideal, LOCAL)
    assert basis.truncation_bound <= colength
    # the old bound (the colength) gives the same canonical normal form
    rows = list(zip((g.terms for g in basis.elements),
                    basis.leading_exponents))
    expected = _reduce(p.terms, rows, LOCAL, _Budget(DEFAULT_BUDGET),
                       colength)
    assert normal_form(p, basis).terms == expected


def _rabinowitsch(i: Ideal, g: Polynomial) -> Ideal:
    """I : g^infinity = (I + (1 - u*g)) ∩ F[z], u a fresh variable."""
    ctx = i.context
    u_name = ctx.fresh_name("u")
    ext = ctx.with_prepended_variable(u_name)
    u = Polynomial.variable(ext, u_name)

    def embed(p):
        return Polynomial(ext, {(0,) + m: c for m, c in p.terms.items()})

    return eliminate(Ideal(ext, tuple(map(embed, i.generators))
                           + (Polynomial.one(ext) - u * embed(g),)),
                     (u_name,))


def elimination_saturation(i: Ideal, k: Ideal) -> Ideal:
    """I : K^infinity by eliminations alone, with no blocks and no gcds: one
    Rabinowitsch elimination per generator of K, intersected by
    `intersect`.  The last elimination leaves the reduced GREVLEX basis."""
    acc = None
    for g in k.generators:
        part = _rabinowitsch(i, g)
        acc = part if acc is None else intersect(acc, part)
    return acc


# supports of the generators: (z1, z2) | z3 splits, z2 or z3 alone may be a
# pure power of a variable of K, z1 or z2 may be absent, and (z1, z2, z3)
# or (z1, z3) link the blocks
_SUPPORTS = ((0, 1), (2,), (1,), (0, 2), (0, 1, 2))


@st.composite
def _block_ideals(draw):
    """One to three generators in three variables, each supported on one of
    _SUPPORTS (up to three terms of degree 1 to 3), and sometimes times a
    power of z2 or z3 for the saturation to strip."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sampled_from(_SUPPORTS))
        exponent = st.sampled_from([
            e for e in product(range(4), repeat=3)
            if 1 <= sum(e) <= 3 and all(i in support or not a
                                        for i, a in enumerate(e))])
        p = Polynomial.zero(C3)
        for e in draw(st.lists(exponent, min_size=1, max_size=3,
                               unique=True)):
            p = p + Polynomial.monomial(
                C3, e, Fraction(draw(st.sampled_from((-2, -1, 1, 3)))))
        shift = draw(st.sampled_from(((0, 0, 0), (0, 1, 0), (0, 0, 1))))
        gens.append(p * Polynomial.monomial(C3, shift))
    return Ideal(C3, tuple(gens))


def _c3(*exprs):
    return Ideal(C3, tuple(parse_polynomial(e, C3) for e in exprs))


@settings(max_examples=40, deadline=None)
@given(_block_ideals())
# the paper's polar ideal, (z1, z2) | z3
@example(_c3("2*z1^2*z2 + 4*z2^3", "3*z3^2"))
# a block of two generators beside a pure power of z3
@example(_c3("z1^2 - z2^3", "z1*z2^2", "z3^4"))
# z3 absent, z1 absent, a connected ideal
@example(_c3("z1^2*z2 + z2^4", "z1*z2^3"))
@example(_c3("z2^2*z3 + z3^3"))
@example(_c3("z1*z2 + z3^2", "z2*z3 - z1^2"))
# a constant generator is a block of its own, and makes every factor (1)
@example(_c3("z1*z2", "3"))
def test_block_saturation_matches_elimination(ideal):
    for names in (("z2",), ("z3",), ("z2", "z3"), ("z1", "z2", "z3")):
        k = Ideal(C3, tuple(Polynomial.variable(C3, v) for v in names))
        sat = saturate(ideal, k)
        assert sat.generators == elimination_saturation(ideal, k).generators
        assert ideals_equal(sat, quotient_fixpoint_saturation(ideal, k))


def _collapsing_saturation():
    # V(2*z1^2*z2 + 5*z2^4, z1*z2^2) lies in {z2 = 0}, so the saturation by
    # z2 is (1), presented by generators that need not be 1 themselves
    ideal = Ideal(C2, (2 * X ** 2 * Y + 5 * Y ** 4, X * Y ** 2))
    return saturate(ideal, Ideal(C2, (Y,)))


@st.composite
def _ideals_and_saturations(draw):
    """An ideal in 2 or 3 variables whose generators may have a constant
    term, or its saturation by z2, which often comes out as (1)."""
    ctx = draw(st.sampled_from((C2, C3)))
    ideal = Ideal(ctx, tuple(draw(st.lists(_small_polynomials(ctx, 0),
                                           min_size=1, max_size=3))))
    if draw(st.booleans()):
        ideal = saturate(ideal, Ideal(ctx, (Polynomial.variable(ctx, "z2"),)))
    return ideal


@settings(max_examples=40, deadline=None)
@given(_ideals_and_saturations())
@example(_collapsing_saturation())
@example(Ideal(C2, (Y * (X + 1),)))
def test_local_unit_agrees_with_a_local_basis(ideal):
    # the oracle: the local standard basis shows a zero leading exponent
    oracle = any(not any(e)
                 for e in standard_basis(ideal, LOCAL).leading_exponents)
    assert contains_local_unit(ideal) == oracle


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((C2, C3)).flatmap(
    lambda ctx: st.lists(_small_polynomials(ctx, 0), min_size=1, max_size=3)))
def test_saturation_is_its_own_reduced_basis(generators):
    ctx = generators[0].context
    ideal = Ideal(ctx, tuple(generators))
    for names in SATURATE_BY[ctx]:
        k = Ideal(ctx, tuple(Polynomial.variable(ctx, v) for v in names))
        sat = saturate(ideal, k)
        assert sat.generators == standard_basis(sat, GREVLEX).elements
