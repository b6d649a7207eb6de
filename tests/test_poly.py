"""Ring arithmetic, rendering, and structural operations on polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc.errors import ContextError
from lecalc.orders import GREVLEX, LOCAL
from lecalc.poly import (Coefficient, Context, Polynomial, is_reduced,
                         multivariate_gcd, reduced_witness, render)

CTX = Context(("z1", "z2", "z3"), ())
CTXP = Context(("z1", "z2"), ("t",))


def v(name, ctx=CTX):
    return Polynomial.variable(ctx, name)


def test_context_rejects_duplicate_names():
    with pytest.raises(ContextError):
        Context(("z1", "z1"), ())
    with pytest.raises(ContextError):
        Context(("z1",), ("z1",))


def test_context_fresh_name_avoids_collisions():
    assert CTX.fresh_name("u") == "u0"
    taken = Context(("u0", "z1"), ())
    assert taken.fresh_name("u") == "u1"


def test_basic_arithmetic():
    z1, z2 = v("z1"), v("z2")
    p = (z1 + z2) ** 2
    assert p == z1 ** 2 + 2 * z1 * z2 + z2 ** 2
    assert p - p == Polynomial.zero(CTX)
    assert (p * Polynomial.one(CTX)) == p
    assert z1 * 0 == Polynomial.zero(CTX)


def test_pow_and_degree():
    z1, z3 = v("z1"), v("z3")
    p = z1 ** 2 * z3 + z1
    assert p.total_degree() == 3
    assert p.min_total_degree() == 1
    assert (z1 ** 0) == Polynomial.one(CTX)


def test_partial_derivative():
    z1, z2 = v("z1"), v("z2")
    f = z1 ** 2 * z2 ** 2 + z2 ** 5
    assert f.partial("z1") == 2 * z1 * z2 ** 2
    assert f.partial("z2") == 2 * z1 ** 2 * z2 + 5 * z2 ** 4
    assert f.partial("z3").is_zero()


def test_render_frozen_forms():
    z1, z2, z3 = v("z1"), v("z2"), v("z3")
    assert render(Polynomial.zero(CTX)) == "0"
    assert render(Polynomial.constant(CTX, Fraction(-3, 4))) == "-3/4"
    assert render(z1 ** 2 - Fraction(1, 2) * z2 + 1) == "z1^2 - 1/2*z2 + 1"
    # grevlex-descending: the degree-5 term prints first
    f = z1 ** 2 * z2 ** 2 + z2 ** 5 + z3 ** 4
    assert render(f) == "z2^5 + z1^2*z2^2 + z3^4"


def test_render_with_parameter():
    t = Polynomial.parameter(CTXP, "t")
    x, y = v("z1", CTXP), v("z2", CTXP)
    q = (t ** 2 + 1) * x * y - t * y ** 2
    assert render(q) == "(t^2+1)*z1*z2 - t*z2^2"
    assert render(q.monic(GREVLEX)) == "z1*z2 + (-t)/(t^2+1)*z2^2"


def test_leading_term_orders():
    z1, z2 = v("z1"), v("z2")
    f = z1 ** 3 + z2 ** 2
    expo_global, _ = f.leading(GREVLEX)
    expo_local, _ = f.leading(LOCAL)
    assert expo_global == (3, 0, 0)
    assert expo_local == (0, 2, 0)


def test_divide_exact_round_trip():
    z1, z2 = v("z1"), v("z2")
    p = (z1 + z2) * (z1 - 2 * z2)
    q = p.divide_exact(z1 + z2)
    assert q * (z1 + z2) == p


def test_divide_exact_returns_none_when_inexact():
    z1, z2 = v("z1"), v("z2")
    assert (z1 ** 2 + z2).divide_exact(z1 + z2) is None
    with pytest.raises(ZeroDivisionError):
        z1.divide_exact(Polynomial.zero(CTX))


def test_substitute_is_a_ring_map():
    z1, z2 = v("z1"), v("z2")
    f = z1 ** 2 + z1 * z2
    images = {"z1": z2, "z2": z1 + z2, "z3": Polynomial.zero(CTX)}
    g = f.substitute(images, CTX)
    assert g == z2 ** 2 + z2 * (z1 + z2)


def test_eval_variable_zero():
    z1, z2, z3 = v("z1"), v("z2"), v("z3")
    f = z1 * z2 + z3 ** 2 + z1
    g = f.eval_variable_zero("z1")
    assert not g.involves("z1")
    assert g == z3 ** 2


def test_specialize_parameter_drops_it_from_context():
    t = Polynomial.parameter(CTXP, "t")
    x = v("z1", CTXP)
    f = t * x ** 2 + x
    g = f.specialize_parameter("t", Fraction(1, 3))
    assert g.context.parameters == ()
    xx = Polynomial.variable(g.context, "z1")
    assert g == Fraction(1, 3) * xx ** 2 + xx


def test_promote_variable_to_parameter_round_trips_evaluation():
    z1, z2 = v("z1"), v("z2")
    f = z1 ** 2 * z2 + z2 ** 3
    g = f.promote_variable_to_parameter("z1")
    assert "z1" in g.context.parameters and "z1" not in g.context.variables
    h = g.specialize_parameter("z1", Fraction(2))
    direct = f.substitute({"z1": Polynomial.constant(CTX, Fraction(2)),
                           "z2": z2, "z3": v("z3")}, CTX)
    assert render(h) == render(direct.restrict_to(("z2", "z3")))


def test_coefficient_division():
    a = Coefficient.from_fraction(Fraction(3, 7), 0)
    b = Coefficient.from_fraction(Fraction(-2), 0)
    assert (a / b).as_fraction() == Fraction(-3, 14)
    assert b.as_fraction() == Fraction(-2)
    assert (a / a) == Coefficient.one(0)


def test_gcd_and_reducedness():
    z1, z2, z3 = v("z1"), v("z2"), v("z3")
    assert render(multivariate_gcd(z1 ** 2 * z2, z1 * z2 ** 2)) == "z1*z2"
    p = z1 ** 2 * z2 - z1 * z2 ** 2
    assert render(multivariate_gcd(p * z3, p * (z3 + 1))) \
        == "z1^2*z2 - z1*z2^2"
    assert is_reduced(p)
    sq = (z1 + z2) ** 2 * z3
    assert not is_reduced(sq)
    assert render(reduced_witness(sq)) == "z1 + z2"


# ---------------------------------------------------------------------------
# property tests

def _polys(ctx):
    def build(coeffs):
        p = Polynomial.zero(ctx)
        for expo, c in coeffs:
            p = p + Polynomial.monomial(ctx, expo, c)
        return p
    expos = st.tuples(*(st.integers(0, 3) for _ in ctx.variables))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.tuples(expos, fractions), max_size=5).map(build)


@settings(max_examples=100, deadline=None)
@given(_polys(CTX), _polys(CTX), _polys(CTX))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(CTX)


@settings(max_examples=60, deadline=None)
@given(_polys(CTX), _polys(CTX))
def test_degree_of_product(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        # over a domain the top degrees add
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()
        assert (p * q).min_total_degree() \
            == p.min_total_degree() + q.min_total_degree()
