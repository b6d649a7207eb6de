"""Ring arithmetic, rendering, and structural operations on polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc import poly, sparse
from lecalc.engine import Ideal, eliminate
from lecalc.errors import ContextError, UnluckySpecializationError
from lecalc.orders import GREVLEX, LOCAL
from lecalc.parse import parse_polynomial
from lecalc.poly import (Coefficient, Context, Modular, Polynomial,
                         is_reduced, multivariate_gcd, reduced_witness, render)

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


def test_substitute_over_a_prime_field():
    c7 = Context(("z1", "z2"), (), 7)
    z1, z2 = v("z1", c7), v("z2", c7)
    swapped = (3 * z1 + z2).substitute({"z1": z2, "z2": z1}, c7)
    assert swapped.terms == {(1, 0): Modular(1, 7), (0, 1): Modular(3, 7)}
    # residues mod 7 have no image in GF(11) or in QQ
    for target in (Context(("z1", "z2"), (), 11), Context(("z1", "z2"), ())):
        images = {"z1": v("z2", target), "z2": v("z1", target)}
        with pytest.raises(ContextError):
            (3 * z1 + z2).substitute(images, target)
    # 1/7 has no image in GF(7): an unlucky specialization, not a crash
    c2 = Context(("z1", "z2"), ())
    f = Fraction(1, 7) * v("z1", c2) + v("z2", c2)
    with pytest.raises(UnluckySpecializationError):
        f.substitute({"z1": z2, "z2": z1}, c7)
    assert (2 * v("z1", c2)).substitute({"z1": z2, "z2": z1}, c7) == 2 * z2


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
    # in QQ(t): (t^2 - 1) / (2t + 2) = (t - 1)/2 and 2/(t - 1), reduced
    t = Coefficient.from_param_poly({(1,): Fraction(1)}, 1)
    one, two = CTXP.unit, CTXP.coefficient(2)
    a, b = t * t - one, two * t + two
    assert a / b == (t - one) / two
    assert (a / b).num == {(1,): Fraction(1, 2), (0,): Fraction(-1, 2)}
    assert (a / b).den == {(0,): Fraction(1)}
    assert (b / a).num == {(0,): Fraction(2)}
    assert (b / a).den == {(1,): Fraction(1), (0,): Fraction(-1)}
    assert (a / b) * b == a and a / a == one
    with pytest.raises(ZeroDivisionError):
        a / CTXP.coefficient(0)


def test_rational_coefficients_are_fractions():
    """Over QQ every coefficient is a plain Fraction, whichever operation
    produced it; only a context with parameters builds Coefficients."""
    ctx = Context(("z1", "z2"))

    def rational(p):
        return p.terms and all(type(c) is Fraction for c in p.terms.values())

    f = parse_polynomial("z1^3 - 2/3*z1*z2 + z2^2", ctx)
    assert rational(f)
    assert rational(f * f - 3 * f + Fraction(1, 2)) and rational(f.partial("z1"))
    assert rational(f.monic(GREVLEX))
    g = parse_polynomial("t*z1^2 + (t^2 - 1)*z2 + 5", Context(("z1", "z2"), ("t",)))
    assert all(isinstance(c, Coefficient) for c in g.terms.values())
    assert rational(g.specialize_parameter("t", Fraction(2, 3)))
    assert rational((v("z2") ** 2 + v("z3")).restrict_to(("z2", "z3")))
    kept = eliminate(Ideal(ctx, (f, v("z1", ctx) - 2 * v("z2", ctx))), ("z1",))
    assert kept.context.variables == ("z2",)
    assert all(rational(p) for p in kept.generators)


# ---------------------------------------------------------------------------
# prime-field contexts

CTX7 = Context(("z1", "z2", "z3"), (), 7)


def test_context_modulus_excludes_parameters():
    with pytest.raises(ContextError):
        Context(("z1",), ("t",), 7)
    with pytest.raises(ContextError):
        Context(("z1",), (), 1)
    with pytest.raises(ContextError):
        Context(("z1",), (), -7)
    assert Context(("z1",)).modulus == 0


def test_context_moves_keep_the_modulus():
    assert CTX7.with_prepended_variable("u0").modulus == 7
    # a GF(p) context has no parameters: moving a variable into the
    # coefficient field, or dropping a parameter, cannot lose the modulus
    with pytest.raises(ContextError):
        CTX7.variable_as_parameter("z1")
    with pytest.raises(ContextError):
        CTX7.without_parameter("z1")
    assert CTXP.without_parameter("t").modulus == 0
    assert CTX.variable_as_parameter("z1").modulus == 0


def test_restrict_to_keeps_the_modulus():
    f = v("z2", CTX7) ** 2 + 3 * v("z3", CTX7)
    g = f.restrict_to(("z2", "z3"))
    assert g.context == Context(("z2", "z3"), (), 7)
    assert g == v("z2", g.context) ** 2 + 3 * v("z3", g.context)


def test_constructors_follow_the_field():
    z1, z2 = v("z1", CTX7), v("z2", CTX7)
    f = Fraction(1, 2) * z1 ** 3 - z2
    assert all(isinstance(c, Modular) for c in f.terms.values())
    assert f.terms[(3, 0, 0)] == Modular(4, 7)       # 1/2 = 4 in GF(7)
    assert f.partial("z1").terms[(2, 0, 0)] == Modular(5, 7)   # 3 * 4
    assert f.constant_coefficient() == Modular(0, 7)
    assert (f + 1).constant_coefficient() == Modular(1, 7)
    assert 7 * f == Polynomial.zero(CTX7)
    assert f.monic(GREVLEX).leading(GREVLEX)[1] == Modular(1, 7)
    assert Polynomial.monomial(CTX7, (0, 1, 0), 8) == z2
    with pytest.raises(ZeroDivisionError):
        Polynomial.constant(CTX7, Fraction(1, 7))


def test_render_prints_reduced_residues():
    z1, z2 = v("z1", CTX7), v("z2", CTX7)
    assert render(3 * z1 ** 2 - z2 + Fraction(-1, 2)) == "3*z1^2 + 6*z2 + 3"
    assert render(z1 + 1) == "z1 + 1"
    assert render(Polynomial.zero(CTX7)) == "0"


def test_modular_field_operations():
    a, b = Modular(3, 7), Modular(5, 7)
    assert a + b == Modular(1, 7) and a - b == Modular(5, 7)
    assert a * b == Modular(1, 7) and -a == Modular(4, 7)
    assert a / b == Modular(2, 7) and (a / b) * b == a
    assert not Modular(14, 7) and Modular(15, 7)
    assert Modular(10, 7) == Modular(3, 7)
    assert hash(Modular(10, 7)) == hash(Modular(3, 7))
    assert Modular(3, 7) != Modular(3, 11)
    assert Modular.from_rational(Fraction(-1, 3), 7) == Modular(2, 7)
    with pytest.raises(ZeroDivisionError):
        a / Modular(0, 7)
    with pytest.raises(ZeroDivisionError):
        Modular.from_rational(Fraction(1, 14), 7)


PRIME = 2147483629
residues = st.integers(min_value=0, max_value=PRIME - 1).map(
    lambda x: Modular(x, PRIME))


@settings(max_examples=60, deadline=None)
@given(residues, residues, residues)
def test_modular_field_axioms(a, b, c):
    zero, one = Modular(0, PRIME), Modular(1, PRIME)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a + (-a) == zero
    assert a - b == a + (-b)
    if b:
        assert (a / b) * b == a and b / b == one
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


def _small_param_polys(min_size):
    """Small parameter polynomials, so that equal coefficients turn up often
    and from different num/den representations."""
    return st.dictionaries(st.integers(0, 2).map(lambda e: (e,)),
                           st.sampled_from((-2, -1, 1, 2)).map(Fraction),
                           min_size=min_size, max_size=2)


coefficients_qq_t = st.builds(lambda num, den: Coefficient(num, den, 1),
                              _small_param_polys(0), _small_param_polys(1))
residues_mod_5 = st.integers(0, 9).map(lambda x: Modular(x, 5))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(coefficients_qq_t, min_size=3, max_size=3),
                 st.lists(residues_mod_5, min_size=3, max_size=3)))
def test_coefficient_order_is_total_and_agrees_with_equality(elements):
    a, b, c = elements
    assert [a < b, b < a, a == b].count(True) == 1
    if a < b and b < c:
        assert a < c
    assert sorted(elements) == sorted(elements[::-1])


@st.composite
def coefficient_pairs(draw):
    """Two coefficients of one arity (1 or 2) with denominators from a pool
    of three, one of them 1, so shared and unit denominators are common."""
    arity = draw(st.integers(1, 2))
    z = (0,) * arity
    t, s = ((1,), (2,)) if arity == 1 else ((1, 0), (0, 1))
    dens = ({z: Fraction(1)}, {t: Fraction(1), z: Fraction(1)},
            {s: Fraction(2), t: Fraction(-1)})
    expos = st.sampled_from((z, t, s))
    nums = st.dictionaries(expos, st.sampled_from((-2, -1, 1, 3)).map(Fraction),
                           max_size=3)
    a, b = (Coefficient(draw(nums), draw(st.sampled_from(dens)), arity)
            for _ in range(2))
    return a, b


def _generic(op, x, y):
    """x op y the generic way: one numerator over one denominator, both
    built by cross-multiplying, normalized by the constructor's gcd."""
    pm = sparse.pmul
    num, den = {
        "+": (sparse.padd(pm(x.num, y.den), pm(y.num, x.den)), pm(x.den, y.den)),
        "-": (sparse.psub(pm(x.num, y.den), pm(y.num, x.den)), pm(x.den, y.den)),
        "*": (pm(x.num, y.num), pm(x.den, y.den)),
        "/": (pm(x.num, y.den), pm(x.den, y.num)),
    }[op]
    return Coefficient(num, den, x.arity)


def _same(x, y):
    assert (x.num, x.den, hash(x)) == (y.num, y.den, hash(y))


@settings(max_examples=200, deadline=None)
@given(coefficient_pairs(),
       st.fractions(max_denominator=6).filter(bool))
def test_coefficient_fast_paths_match_generic_normalization(pair, q):
    a, b = pair
    # (a, a) shares its denominator and cancels to zero under -
    for x, y in ((a, b), (b, a), (a, a)):
        _same(x + y, _generic("+", x, y))
        _same(x - y, _generic("-", x, y))
        _same(x * y, _generic("*", x, y))
        if y:
            _same(x / y, _generic("/", x, y))
    rational = Coefficient.from_fraction(q, a.arity)
    _same(a / rational, _generic("/", a, rational))
    _same(a * rational, _generic("*", a, rational))
    assert not (a - a)


def test_specialize_parameter_mod_matches_rational_reduction():
    t = Polynomial.parameter(CTXP, "t")
    x, y = v("z1", CTXP), v("z2", CTXP)
    f = Fraction(2, 3) * t ** 2 * x ** 2 + (t - 1) * y + x * y
    for tau in (Fraction(5), Fraction(-3, 4)):
        over_q = f.specialize_parameter("t", tau)
        image = f.specialize_parameter_mod(
            "t", Modular.from_rational(tau, 7).value, 7)
        assert image.context == Context(("z1", "z2"), (), 7)
        assert image.terms == {m: Modular.from_rational(c, 7)
                               for m, c in over_q.terms.items()
                               if c.numerator % 7}
    # t = 1 kills the (t - 1)*z2 term mod 7 as well
    assert f.specialize_parameter_mod("t", 8, 7).terms.keys() \
        == {(2, 0), (1, 1)}
    with pytest.raises(ContextError):
        x.specialize_parameter_mod("s", 1, 7)


def test_specialize_parameter_mod_refuses_unlucky_values():
    x = v("z1", CTXP)
    # 1/(t - 3): the denominator vanishes at t = 3 mod 7, i.e. at t = 10
    c = Coefficient({(0,): Fraction(1)},
                    {(1,): Fraction(1), (0,): Fraction(-3)}, 1)
    f = x * c + x ** 2
    assert f.specialize_parameter_mod("t", 4, 7).terms[(1, 0)] == Modular(1, 7)
    with pytest.raises(UnluckySpecializationError):
        f.specialize_parameter_mod("t", 10, 7)
    # 7 divides a rational denominator: no image in GF(7) at any t
    g = Fraction(1, 14) * x + x ** 2
    with pytest.raises(UnluckySpecializationError):
        g.specialize_parameter_mod("t", 1, 7)


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


def test_reduced_witness_makes_one_gcd_per_nonzero_partial(monkeypatch):
    calls = []
    gcd = poly.multivariate_gcd

    def spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(poly, "multivariate_gcd", spy)
    f = parse_polynomial("z2^2*z3^2", CTX)
    assert render(reduced_witness(f)) == "z2*z3"
    assert [b for _, b in calls] == [f.partial("z2"), f.partial("z3")]
    calls.clear()
    assert not is_reduced(f)
    assert len(calls) == 2
    calls.clear()
    # the gcd with the z1 partial is already constant: the walk stops
    assert is_reduced(parse_polynomial("z1 + z2^2 + z3^2", CTX))
    assert len(calls) == 1


@pytest.mark.parametrize("ctx, text", [
    (CTX, "3*z1^2*z2 - 1/2*z2^3 + z3"),
    (CTXP, "(t^2 + 1)*z1*z2 - t*z2^2 + (t - 1)*z1"),
    (CTX7, "3*z1^2 + 5*z1*z2 + z2"),
])
def test_monic_divides_by_the_leading_coefficient(ctx, text):
    f = parse_polynomial(text, ctx)
    _, lc = f.leading(GREVLEX)
    g = f.monic(GREVLEX)
    assert g.leading(GREVLEX)[1] == ctx.unit
    assert g.terms == sparse.pscale(f.terms, ctx.unit / lc)
    assert g.monic(GREVLEX) is g


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_matches_sympy_up_to_a_unit(data):
    sympy = pytest.importorskip("sympy")
    f, g, h = (data.draw(_polys(CTX, max_terms=3)) for _ in range(3))
    if (f * h).is_zero() and (g * h).is_zero():
        return
    ours = multivariate_gcd(f * h, g * h)
    symbols = sympy.symbols(CTX.variables)

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod(x ** e for x, e in zip(symbols, m))
                    for m, c in p.terms.items()), sympy.Integer(0))

    theirs = sympy.gcd(expr(f * h), expr(g * h))
    assert not sympy.cancel(expr(ours) / theirs).free_symbols


# ---------------------------------------------------------------------------
# property tests

def _polys(ctx, max_terms=5):
    def build(coeffs):
        p = Polynomial.zero(ctx)
        for expo, c in coeffs:
            p = p + Polynomial.monomial(ctx, expo, c)
        return p
    expos = st.tuples(*(st.integers(0, 3) for _ in ctx.variables))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.tuples(expos, fractions), max_size=max_terms).map(build)


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
