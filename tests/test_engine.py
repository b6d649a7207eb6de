"""Standard bases and ideal operations, checked against hand computations
and independent oracles (iterated-quotient saturation, jet-space
truncation)."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc.engine import (Ideal, colength_at_origin, colength_by_truncation,
                           colength_global, contains_local_unit,
                           dimension_at_origin, eliminate, ideals_equal,
                           intersect, saturate, standard_basis)
from lecalc.errors import BudgetExceededError, DegenerateInputError
from lecalc.orders import GREVLEX, LOCAL
from lecalc.poly import Context, Polynomial, render

C2 = Context(("z1", "z2"), ())
X = Polynomial.variable(C2, "z1")
Y = Polynomial.variable(C2, "z2")


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
    result = colength_at_origin(ideal)
    assert result.value == 7
    assert sorted(result.standard_monomials) == [
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


@settings(max_examples=40, deadline=None)
@given(_two_variable_ideals())
def test_saturation_matches_quotient_fixpoint(ideal):
    for k in (Ideal(C2, (Y,)), Ideal(C2, (X, Y))):
        assert ideals_equal(saturate(ideal, k),
                            quotient_fixpoint_saturation(ideal, k))


def test_saturation_matches_quotient_fixpoint_over_rational_functions():
    ctx = Context(("z1", "z2"), ("t",))
    x = Polynomial.variable(ctx, "z1")
    y = Polynomial.variable(ctx, "z2")
    t = Polynomial.parameter(ctx, "t")
    ideal = Ideal(ctx, (t * x * y ** 2 + y ** 3, (x - t) * x ** 2 * y))
    for k in (Ideal(ctx, (y,)), Ideal(ctx, (x, y))):
        sat = saturate(ideal, k)
        assert ideals_equal(sat, quotient_fixpoint_saturation(ideal, k))
        assert ideals_equal(saturate(sat, k), sat)


def test_local_unit_detection():
    assert contains_local_unit(Ideal(C2, (X + 1,)))
    assert not contains_local_unit(Ideal(C2, (X,)))


def test_dimension_at_origin():
    assert dimension_at_origin(Ideal(C2, (X,))) == 1
    assert dimension_at_origin(Ideal(C2, (X ** 2, Y ** 3))) == 0
    # empty germ: the ideal is the whole local ring
    assert dimension_at_origin(Ideal(C2, (X + 1,))) is None


def test_global_colength_counts_all_points():
    ideal = Ideal(C2, ((X - 1) * X, Y))
    assert colength_global(ideal) == 2
    assert colength_at_origin(ideal).value == 1


def test_budget_exhaustion_raises():
    # leading terms share a factor, so S-pairs genuinely reduce (nine steps)
    ideal = Ideal(C2, (X ** 3 * Y + Y ** 4 + X, X * Y ** 3 + X ** 3))
    standard_basis(ideal, GREVLEX, budget=9)
    with pytest.raises(BudgetExceededError):
        standard_basis(ideal, GREVLEX, budget=5)


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
        assert colength_at_origin(ideal).value == colength_by_truncation(ideal)
