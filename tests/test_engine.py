"""Standard bases and ideal operations, checked against hand computations
and independent oracles (iterated-quotient saturation, jet-space
truncation)."""

import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from random import Random
from time import perf_counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from lecalc import engine, sparse
from lecalc.engine import (Ideal, _reduce, colength_at_origin,
                           colength_by_truncation, contains_local_unit,
                           eliminate, ideals_equal, intersect, normal_form,
                           saturate, standard_basis, verify_basis)
from lecalc.errors import (BudgetExceededError, ContextError,
                           DegenerateInputError, InternalCheckError)
from lecalc.orders import GREVLEX, LOCAL, Packing
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, render
from lecalc.sparse import DEFAULT_BUDGET, _Budget, step_budget

C2 = Context(("z1", "z2"), ())
X = Polynomial.variable(C2, "z1")
Y = Polynomial.variable(C2, "z2")
C3 = Context(("z1", "z2", "z3"), ())


def test_every_path_to_an_ideal_keeps_its_checks():
    ideal = Ideal(C2, (X,))
    for bad in (lambda: Ideal(C2, ()), lambda: ideal._replace(generators=()),
                lambda: Ideal(C2, (X, X - X))):
        with pytest.raises(DegenerateInputError):
            bad()
    with pytest.raises(ContextError, match="context mismatch"):
        ideal._replace(context=C3)
    assert ideal._replace(generators=(Y,)) == Ideal(C2, (Y,))


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
    basis = checked_bases(ideal, LOCAL)
    assert sorted(basis.leading_exponents) == [(0, 5), (1, 2), (2, 0)]
    # the corner y^5, x^2 puts m^(1 + 4 + 1) = m^6 in the ideal
    assert basis.truncation_bound == 6
    # standard monomials 1, y, y^2, y^3, y^4, x, x*y
    assert colength_at_origin(ideal) == 7
    assert colength_by_truncation(ideal) == 7


def test_global_reduced_basis_is_canonical(checked_bases):
    ideal = Ideal(C2, (X ** 2 + X * Y, Y ** 2 - 1, X * Y ** 3))
    reference = checked_bases(ideal, GREVLEX)
    rng = Random(7)
    for _ in range(5):
        shuffled = list(ideal.generators)
        rng.shuffle(shuffled)
        rescaled = tuple(Fraction(rng.randrange(1, 9),
                                  rng.randrange(1, 9)) * g
                         for g in shuffled)
        again = checked_bases(Ideal(C2, rescaled), GREVLEX)
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
    basis = standard_basis(q, LOCAL)
    assert sorted(basis.leading_exponents) == [(0, 2), (1, 1), (2, 0)]
    assert colength_at_origin(q) == 3
    for e in ((2, 0), (1, 1), (0, 2)):
        assert normal_form(Polynomial.monomial(ctx, e), basis).is_zero()


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
    basis = checked_bases(Ideal(c7, (2 * x ** 2 + y, x * y - 1)), GREVLEX)
    assert gens(basis) == ["z1*z2 + 6", "z1^2 + 4*z2", "z2^2 + 2*z1"]
    over_q = checked_bases(Ideal(C2, (2 * X ** 2 + Y, X * Y - 1)), GREVLEX)
    assert gens(over_q) == ["z1*z2 - 1", "z1^2 + 1/2*z2", "z2^2 + 2*z1"]


def test_the_verifier_rejects_a_wrong_basis():
    ideal = Ideal(C2, (X ** 2 + X * Y, Y ** 2 - 1, X * Y ** 3))
    basis = standard_basis(ideal, GREVLEX)
    assert verify_basis(basis) is basis
    dropped = basis._replace(elements=basis.elements[1:],
                             leading_exponents=basis.leading_exponents[1:])
    with pytest.raises(InternalCheckError, match="generator"):
        verify_basis(dropped)
    # the generators themselves: each reduces to zero, an S-pair does not
    rows = tuple(g.monic() for g in ideal.generators)
    unfinished = basis._replace(
        elements=rows,
        leading_exponents=tuple(g.leading()[0] for g in rows))
    with pytest.raises(InternalCheckError, match="S-polynomial"):
        verify_basis(unfinished)
    cusp = standard_basis(Ideal(C2, (X ** 2 - Y ** 3, X * Y ** 2)), LOCAL)
    assert verify_basis(cusp) is cusp
    # z2^4 is a standard monomial of the cusp basis, so not in its ideal
    with pytest.raises(InternalCheckError, match="generator"):
        verify_basis(cusp._replace(ideal=cusp.ideal.with_extra(Y ** 4)))
    # the cusp's generators and z2^6 show a corner, so remainders are taken
    # modulo m^7, and the S-pair of the generators still leaves z2^5
    unfinished = cusp._replace(elements=(X ** 2 - Y ** 3, X * Y ** 2, Y ** 6),
                               leading_exponents=((2, 0), (1, 2), (0, 6)))
    with pytest.raises(InternalCheckError, match="S-polynomial"):
        verify_basis(unfinished)


@pytest.mark.parametrize("n", [2 ** 40, 2 ** 70])
def test_packed_fields_follow_the_exponents_and_never_wrap(n):
    # fields of a fixed 64 bits would wrap at 2^70; the packing takes its
    # width from the input's exponents
    pair = Ideal(C2, (X * Y, Y ** 2 + X ** n))
    assert colength_at_origin(pair) == n + 2
    assert sorted(standard_basis(pair, LOCAL).leading_exponents) == [
        (0, 2), (1, 1), (n + 1, 0)]
    basis = standard_basis(Ideal(C2, (Y ** 2 - X, X ** n * Y)), GREVLEX)
    assert basis.leading_exponents == ((0, 2), (n, 1), (n + 1, 0))


def test_a_product_that_outgrows_its_fields_restarts_wider(monkeypatch):
    # z_i - z_(i-1)^2 for i = 1..6 and z6^2: every input exponent is at most
    # 2, so the fields start 8 bits wide, and the local basis reaches
    # z0^128, which fills a guard; the pair loop starts again 16 bits wide,
    # and the steps of the first run are given back
    ctx = Context(tuple(f"z{i}" for i in range(7)), ())
    z = [Polynomial.variable(ctx, v) for v in ctx.variables]
    chain = Ideal(ctx, (*(z[i] - z[i - 1] ** 2 for i in range(1, 7)),
                        z[6] ** 2))
    widths = []
    pair_loop = engine._pair_loop

    def spy(rows, packing, budget):
        widths.append(packing.width)
        return pair_loop(rows, packing, budget)

    monkeypatch.setattr(engine, "_pair_loop", spy)
    with step_budget(DEFAULT_BUDGET) as budget:
        assert colength_at_origin(chain) == 128
    assert widths == [8, 16]
    monkeypatch.setattr(engine, "_MIN_WIDTH", 16)
    with step_budget(DEFAULT_BUDGET) as wide:
        assert colength_at_origin(chain) == 128
    assert widths == [8, 16, 16]
    assert budget.used == wide.used > 0


def test_the_staircase_count_keeps_no_monomials():
    # the staircase 1, z1, ..., z1^19999, z2 is counted as it is walked;
    # keeping its 20001 monomials peaked at 2 MB
    ideal = Ideal(C2, (X ** 20000, Y ** 2, X * Y))
    tracemalloc.start()
    try:
        assert colength_at_origin(ideal) == 20001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_the_staircase_is_counted_not_walked():
    # column by column in the last variable, a slice per height that the
    # exponents show; a walk takes a step per standard monomial
    a = 10 ** 12
    assert colength_at_origin(Ideal(C2, (X ** a, Y ** 2, X * Y))) == a + 1
    z1, z2, z3 = (Polynomial.variable(C3, n) for n in C3.variables)
    a, b, c = 10 ** 6, 10 ** 6 + 1, 10 ** 6 + 3
    start = perf_counter()
    assert engine._staircase([(a, 0, 0), (0, b, 0), (0, 0, c)], 3) \
        == a * b * c
    # z1*z2*z3 couples the three into one block, so one local basis
    coupled = Ideal(C3, (z1 ** a, z2 ** b, z3 ** c, z1 * z2 * z3))
    assert colength_at_origin(coupled) \
        == a * b * c - (a - 1) * (b - 1) * (c - 1)
    assert perf_counter() - start < 1


@st.composite
def _monomial_generators(draw):
    """Exponents in 2 or 3 variables, each variable with or without a pure
    power among them."""
    n = draw(st.integers(2, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5))
    for i in range(n):
        a = draw(st.none() | st.integers(1, 6))
        if a is not None:
            exps.append(tuple(a if j == i else 0 for j in range(n)))
    return n, exps


@settings(max_examples=200, deadline=None)
@given(_monomial_generators())
def test_the_staircase_count_matches_a_brute_force_count(case):
    n, exps = case
    # the least a with z_i^a among exps (1 = z_i^0 included), per variable
    powers = [min((e[i] for e in exps if not any(e[:i] + e[i + 1:])),
                  default=None) for i in range(n)]
    if None in powers:
        assert engine._staircase(exps, n) is None
        return
    box = product(*(range(a) for a in powers))
    expected = sum(not any(all(a >= b for a, b in zip(m, e)) for e in exps)
                   for m in box)
    assert engine._staircase(exps, n) == expected


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
    # a non-monomial g that is no local unit: a single generator also goes
    # through Rabinowitsch, which removes the factor (z1 + z2)^2
    ideal = Ideal(C2, (X * (X + Y) ** 2,))
    k = Ideal(C2, (X + Y,))
    sat = saturate(ideal, k)
    assert ideals_equal(sat, Ideal(C2, (X,)))
    assert ideals_equal(sat, quotient_fixpoint_saturation(ideal, k))


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
    assert by_axis.generators == (ideal.generators[0].monic(),)
    by_z2 = saturate(ideal, Ideal(C3, (y,)))
    stripped = z * (x + z) * (x ** 2 - y * z)
    assert by_z2.generators == (stripped.monic(),)
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


def _whole_ideal_colength(ideal: Ideal):
    """The reference: the staircase of one local basis in all variables."""
    basis = standard_basis(ideal, LOCAL)
    return engine._staircase(basis.leading_exponents, ideal.context.nvars)


def _least_coordinate_cuts(ideal: Ideal):
    """The least number of coordinate hyperplanes whose section of the germ
    has a finite colength, None for the empty germ.  A finite colength
    after k cuts bounds the germ's dimension by k (Krull's principal ideal
    theorem)."""
    if colength_at_origin(ideal) == 0:
        return None
    ctx = ideal.context
    zs = [Polynomial.variable(ctx, v) for v in ctx.variables]
    return next(k for k in range(ctx.nvars + 1) if any(
        colength_at_origin(ideal.with_extra(*cut)) is not None
        for cut in combinations(zs, k)))


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
    assert colength_at_origin(ideal) == _whole_ideal_colength(ideal)


@pytest.mark.parametrize("exprs, colength, cuts", [
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
    # z1^2 - z1 = z1*(z1 - 1): the point z1 = 1 is not at the origin
    (("z1^2 - z1", "z2", "z3", "z4"), 1, 0),
])
def test_block_colengths_and_dimensions(exprs, colength, cuts):
    ideal = _c4(*exprs)
    assert _whole_ideal_colength(ideal) == colength
    assert colength_at_origin(ideal) == colength
    assert _least_coordinate_cuts(ideal) == cuts


@st.composite
def _ideals_with_monomial_generators(draw):
    """(corner, ideal): an ideal in 2 or 3 variables over QQ or GF(32003)
    whose generators include monomials (mixed ones, and sometimes a
    duplicate, a multiple of another and a coordinate) and polynomials:
    some with all their terms divisible by a monomial generator, some with
    all but one, some with terms that only a divisor of a monomial
    generator may divide, which must stay.  With corner, a one-term pure
    power of every variable is among the generators, so the colength is
    finite and one truncation gives it."""
    n = draw(st.integers(2, 3))
    ctx = Context(C3.variables[:n], (), draw(st.sampled_from((0, 32003))))
    coefficient = st.sampled_from((-2, -1, 1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    shift = st.tuples(*[st.integers(0, 2)] * n)
    mons = draw(st.lists(exponent, min_size=1, max_size=2))
    if draw(st.booleans()):
        mons.append(draw(st.sampled_from(mons)))
    if draw(st.booleans()):
        mons.append(sparse.mmul(draw(st.sampled_from(mons)), draw(shift)))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        mons.append(tuple(int(j == i) for j in range(n)))
    corner = draw(st.integers(0, 3)) > 0
    if corner:
        mons += [tuple(a if j == i else 0 for j in range(n))
                 for i, a in enumerate(draw(st.tuples(
                     *[st.integers(2, 4)] * n)))]
    gens = [Polynomial.monomial(ctx, e, draw(coefficient)) for e in mons]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("free", "near", "covered",
                                     "all but one")))
        count = draw(st.integers(1, 3))
        if kind == "free":
            exps = [draw(exponent) for _ in range(count)]
        elif kind == "near":
            exps = [draw(st.tuples(*map(st.integers, [0] * n,
                                        draw(st.sampled_from(mons)))
                                   ).filter(any)) for _ in range(count)]
        else:
            exps = [sparse.mmul(draw(st.sampled_from(mons)), draw(shift))
                    for _ in range(count)]
            if kind == "all but one":
                exps.append(draw(exponent))
        gens.append(Polynomial(ctx, {e: ctx.coefficient(draw(coefficient))
                                     for e in exps}))
    return corner, Ideal(ctx, tuple(draw(st.permutations(gens))))


@settings(max_examples=100, deadline=None)
@given(_ideals_with_monomial_generators())
def test_pruning_by_monomial_generators_keeps_colength_and_dimension(case):
    # colength_at_origin prunes terms divisible by a monomial generator
    # first; the references see the generators as drawn
    corner, ideal = case
    colength = _whole_ideal_colength(ideal)
    if corner:
        assert colength == colength_by_truncation(ideal)
    assert colength_at_origin(ideal) == colength


@settings(max_examples=100, deadline=None)
@given(_ideals_with_monomial_generators())
def test_pruned_generators_keep_no_term_a_monomial_one_divides(case):
    # the one-term generators left are minimal and divide no term of any
    # other generator, and every other generator is one of the drawn ones
    # with some of its terms dropped
    _, ideal = case
    pruned = engine._prune_by_monomials(ideal.generators)
    mons = [next(iter(g.terms)) for g in pruned if len(g.terms) == 1]
    assert mons
    assert not any(k != m and sparse.mdiv(m, k) is not None
                   for m in mons for k in mons)
    for g in pruned:
        if len(g.terms) == 1:
            continue
        assert not any(sparse.mdiv(m, k) is not None
                       for m in g.terms for k in mons)
        assert any(g.terms.items() <= h.terms.items()
                   for h in ideal.generators)


def test_pruning_cascades_through_generators_shrunk_to_one_term():
    # z1, kept once, prunes z1*z2 and z1*z3 and drops 2*z1^2; then z2^3,
    # left alone, prunes z2^3*z3: three blocks in one variable each
    gens = tuple(parse_polynomial(e, C3) for e in (
        "z1", "z1*z2 + z2^3", "z2^3*z3 + z3^2 + z1*z3", "2*z1^2", "z1"))
    pruned = engine._prune_by_monomials(gens)
    assert sorted(map(render, pruned)) == ["z1", "z2^3", "z3^2"]
    assert colength_at_origin(Ideal(C3, gens)) == 6


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
        bases.append(checked_bases(ideal, LOCAL))
        assert perf_counter() - start < 0.5
    three, four = bases
    assert sorted(three.leading_exponents) == [(0, 0, 3), (0, 1, 0),
                                               (2, 0, 0)]
    assert sorted(four.leading_exponents) == [
        e + (0,) for e in sorted(three.leading_exponents)]
    assert four.truncation_bound is None  # z4 is a free direction


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
        assert sparse._active_budget is outer and outer.used == 9
        standard_basis(NINE_STEPS, GREVLEX)
        assert outer.used == 18
    assert sparse._active_budget is None


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
    basis = checked_bases(ideal, LOCAL)
    assert basis.truncation_bound <= colength
    # the old bound (the colength) gives the same canonical normal form;
    # a remainder keeps only terms of degree below the colength, so fields
    # that hold it and every exponent of the rows and of p never fill
    top = max(colength, *(max(m) for g in (*basis.elements, p)
                          for m in g.terms))
    pk = Packing(LOCAL, ideal.context.nvars, top.bit_length() + 2)
    rows = [({pk.pack(m): c for m, c in g.terms.items()}, pk.pack(lt))
            for g, lt in zip(basis.elements, basis.leading_exponents)]
    expected = _reduce({pk.pack(m): c for m, c in p.terms.items()}, rows, pk,
                       _Budget(DEFAULT_BUDGET), colength)
    assert normal_form(p, basis).terms == {pk.unpack(m): c
                                           for m, c in expected.items()}


C2_P = Context(C2.variables, (), 32003)
C3_P = Context(C3.variables, (), 32003)


@st.composite
def _two_presentations(draw):
    """An ideal of the origin in 2 or 3 variables over QQ or GF(32003),
    presented twice: with its generators shuffled, and with a combination
    of the other generators added to the first; and pairs of polynomials
    in the maximal ideal, congruent modulo the ideal, to reduce."""
    ctx = draw(st.sampled_from((C2, C3, C2_P, C3_P)))
    gens = draw(st.lists(_small_polynomials(ctx, 1), min_size=ctx.nvars,
                         max_size=ctx.nvars + 1))
    shuffled = draw(st.permutations(gens))
    first = gens[0]
    for g in gens[1:]:
        first = first + draw(_small_polynomials(ctx, 0)) * g
    assume(not first.is_zero())
    # p = a * b + c with no constant term, so that reduction has work to
    # do, and p plus an element h * g of the ideal
    terms = _small_polynomials(ctx, 1)
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(terms) * draw(terms) + draw(terms)
        shift = draw(_small_polynomials(ctx, 0)) * draw(st.sampled_from(gens))
        pairs.append((p, p + shift))
    return (Ideal(ctx, tuple(shuffled)),
            Ideal(ctx, (first,) + tuple(gens[1:])), pairs)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_two_presentations())
def test_local_normal_forms_are_canonical_without_reduced_tails(
        checked_bases, case):
    # local bases keep their tails as computed, so two presentations of one
    # ideal may give different elements; the normal forms modulo m^N of two
    # congruent polynomials, and the colength, must not differ
    shuffled, combined, pairs = case
    colength = colength_at_origin(shuffled)
    assume(colength is not None)
    assert colength_at_origin(combined) == colength
    assert colength_by_truncation(combined) == colength
    first = checked_bases(shuffled, LOCAL)
    second = checked_bases(combined, LOCAL)
    assert first.leading_exponents == second.leading_exponents
    for p, q in pairs:
        expected = normal_form(p, first).terms
        assert normal_form(p, second).terms == expected
        assert normal_form(q, first).terms == expected
        assert normal_form(q, second).terms == expected


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
