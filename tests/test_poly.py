"""Ring arithmetic, rendering, and structural operations on polynomials."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lecalc import poly, sparse, squarefree
from lecalc.engine import Ideal, eliminate
from lecalc.errors import (ContextError, MathRefusal,
                           UnluckySpecializationError)
from lecalc.parse import parse_polynomial
from lecalc.poly import (Coefficient, Context, Modular, Polynomial,
                         ZeroDivisor, multivariate_gcd, reduced_witness,
                         render)

CTX = Context(("z1", "z2", "z3"), ())
CTXP = Context(("z1", "z2"), ("t",))


def v(name, ctx=CTX):
    return Polynomial.variable(ctx, name)


def test_context_rejects_duplicate_names():
    with pytest.raises(ContextError):
        Context(("z1", "z1"), ())
    with pytest.raises(ContextError):
        Context(("z1",), ("z1",))


def test_every_path_to_a_context_keeps_its_checks():
    # _replace, and the two methods built on it, rerun the constructor's
    # checks (the namedtuple _replace would skip them)
    for bad in (lambda: Context(("z1", "z2"), ("z2",)),
                lambda: CTX._replace(parameters=("z3",)),
                lambda: CTX.with_prepended_variable("z2"),
                lambda: v("z1").restrict_to(("z1", "z1"))):
        with pytest.raises(ContextError, match="duplicate"):
            bad()
    for bad in (lambda: Context(("z1", "2z")),
                lambda: CTX._replace(variables=("z1", "z 2")),
                lambda: CTX.with_prepended_variable("1u")):
        with pytest.raises(ContextError, match="bad identifier"):
            bad()
    with pytest.raises(ContextError, match="allows no parameters"):
        CTXP._replace(modulus=7)
    with pytest.raises(ContextError, match="at least one ring variable"):
        Polynomial.one(CTX).restrict_to(())
    image = CTX._replace(modulus=7)
    assert type(image) is Context and image == Context(CTX.variables, (), 7)
    # the cached unit lives in the instance, one per context
    assert image.unit is image.unit and CTX.unit == 1


def test_contexts_are_values_and_always_checked():
    ring = Context(("y1", "y2"), ("s",))
    again = Context(["y1", "y2"], ["s"])
    assert again == ring and hash(again) == hash(ring)
    plain = ring._replace(parameters=())
    assert plain == Context(("y1", "y2"))
    assert hash(plain) == hash(Context(("y1", "y2")))
    # every construction runs the checks, whatever shares its shape
    for bad in (lambda: Context(("y1", "2y"), ("s",)),
                lambda: Context(("y1", "y2"), ("s s",)),
                lambda: ring._replace(variables=("y1", "y 2"))):
        with pytest.raises(ContextError, match="bad identifier"):
            bad()
    with pytest.raises(ContextError, match="duplicate"):
        Context(("y1", "y2"), ("y1",))
    # polynomials over equal contexts add
    assert Polynomial.variable(ring, "y1") + Polynomial.variable(again, "y2") \
        == Polynomial.variable(again, "y1") + Polynomial.variable(again, "y2")
    # the cached zero lives in the instance, one per context
    assert again.zero is again.zero and not again.zero
    y1 = Polynomial.variable(again, "y1")
    assert y1.constant_coefficient() is again.zero


def test_restrict_to_its_own_variables_is_the_polynomial_itself():
    f = v("z1") ** 2 + 3 * v("z2") * v("z3")
    assert f.restrict_to(CTX.variables) is f
    assert f.restrict_to(list(CTX.variables)) is f
    swapped = f.restrict_to(("z2", "z1", "z3"))
    assert swapped.context.variables == ("z2", "z1", "z3")
    assert swapped == v("z1", swapped.context) ** 2 \
        + 3 * v("z2", swapped.context) * v("z3", swapped.context)


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


def test_pow_matches_repeated_products():
    # square and multiply builds the same polynomial as n - 1 products
    p = parse_polynomial("t*z1 - 2/3*z2^2 + 1", CTXP)
    product = Polynomial.one(CTXP)
    for n in range(9):
        assert p ** n == product
        product = product * p


@pytest.mark.parametrize("ctx", [
    CTX, CTXP, Context(("z1", "z2"), (), 32003)])
def test_monomial_pow_matches_repeated_products(ctx):
    # a monic monomial takes one step; a monomial with another coefficient,
    # a constant and (over QQ(t)) a power of t take square and multiply
    bases = [Polynomial.monomial(ctx, (2, 1) + (0,) * (ctx.nvars - 2)),
             Polynomial.monomial(ctx, (0, 3) + (0,) * (ctx.nvars - 2), -2),
             Polynomial.variable(ctx, "z1"), Polynomial.one(ctx),
             Polynomial.constant(ctx, Fraction(3, 2))]
    if ctx.parameters:
        bases.append(Polynomial.parameter(ctx, "t"))
    for p in bases:
        product = Polynomial.one(ctx)
        for n in range(7):
            assert p ** n == product
            product = product * p


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
    assert render(q.monic()) == "z1*z2 + (-t)/(t^2+1)*z2^2"


def test_leading_term_orders():
    # grevlex, the one order outside the engine; the packing property of
    # tests/test_orders.py checks the local leading term
    z1, z2 = v("z1"), v("z2")
    assert (z1 ** 3 + z2 ** 2).leading()[0] == (3, 0, 0)


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


def test_eval_variable_zero():
    z1, z2, z3 = v("z1"), v("z2"), v("z3")
    f = z1 * z2 + z3 ** 2 + z1
    g = f.eval_variable("z1", 0)
    assert all(m[0] == 0 for m in g.terms)
    assert g == z3 ** 2


def test_eval_variable_at_a_rational_over_qq_t():
    # f(-2/3, z2) in the same context; the z2^2 terms cancel
    f = parse_polynomial("t*z1^2*z2 + 9/4*z1*z2^2 + 3/2*z2^2 + z1 - t",
                         CTXP)
    g = f.eval_variable("z1", Fraction(-2, 3))
    assert g.context == CTXP and all(m[0] == 0 for m in g.terms)
    assert g == parse_polynomial("4/9*t*z2 - 2/3 - t", CTXP)


def test_specialize_parameter_drops_it_from_context():
    t = Polynomial.parameter(CTXP, "t")
    x = v("z1", CTXP)
    f = t * x ** 2 + x
    g = f.specialize_parameter("t", Fraction(1, 3))
    assert g.context.parameters == ()
    xx = Polynomial.variable(g.context, "z1")
    assert g == Fraction(1, 3) * xx ** 2 + xx


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
    assert rational(f.monic())
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
    # a GF(p) context has no parameters: dropping a parameter cannot lose
    # the modulus
    with pytest.raises(ContextError):
        CTX7.without_parameter("z1")
    assert CTXP.without_parameter("t").modulus == 0


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
    assert f.monic().leading()[1] == Modular(1, 7)
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


P1, P2 = 2147483647, 2147483629   # families.PRIMES
JOINT = P1 * P2


def test_a_zero_divisor_mod_the_two_primes_is_never_tested_or_divided_by():
    # Z/(p1 p2) stands for GF(p1) x GF(p2) only while every residue it tests
    # or divides by is zero or a unit; p1 is zero mod p1 alone
    zero_divisor = Modular(P1, JOINT)
    with pytest.raises(ZeroDivisor):
        bool(zero_divisor)
    with pytest.raises(ZeroDivisor):
        Modular(1, JOINT) / zero_divisor
    with pytest.raises(ZeroDivisor):
        Modular.from_rational(Fraction(1, P1), JOINT)
    with pytest.raises(ZeroDivisor):
        Polynomial.constant(Context(("z1",), (), JOINT), P2)
    # neither a refusal nor a division by zero, which handlers catch
    assert not issubclass(ZeroDivisor, (ZeroDivisionError, MathRefusal))
    # zero and units pass, and compute the residues of both primes at once
    assert not Modular(JOINT, JOINT) and Modular(P1 + 1, JOINT)
    q = Modular.from_rational(Fraction(-5, 7), JOINT) / Modular(3, JOINT)
    for p in (P1, P2):
        assert Modular(q.value, p) \
            == Modular.from_rational(Fraction(-5, 21), p)
    with pytest.raises(ZeroDivisionError):
        Modular(1, JOINT) / Modular(0, JOINT)
    with pytest.raises(ZeroDivisionError, match="no image"):
        Modular.from_rational(Fraction(1, JOINT), JOINT)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((P1, P2)), st.integers(0, 2 ** 64),
       st.integers(1, 2 ** 64))
@example(P1, P1, P1)
@example(P2, 3 * P2, 2 * P2)
def test_a_prime_modulus_never_meets_a_zero_divisor(p, a, d):
    # every residue mod a prime is zero or a unit: the zero test, division
    # and images of rationals raise ZeroDivisionError at worst
    x, y = Modular(a, p), Modular(d, p)
    assert bool(x) == bool(a % p)
    if d % p:
        assert (x / y) * y == x
        assert Modular.from_rational(Fraction(a, d), p) * y == x
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            Modular.from_rational(Fraction(1, d), p)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.sampled_from((7, PRIME)))
def test_modular_image_of_an_int_is_that_of_its_fraction(n, p):
    # an int takes no inverse; n divisible by p maps to zero
    image = Modular.from_rational(n, p)
    assert image == Modular.from_rational(Fraction(n), p)
    assert 0 <= image.value < p and image.modulus == p
    assert not Modular.from_rational(n * p, p)


_exponent_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-6, 6).filter(bool), max_size=8)


@settings(max_examples=100, deadline=None)
@given(_exponent_terms, st.sampled_from(("QQ", "QQ(t)", "GF(p)")),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
def test_eval_variable_is_the_term_by_term_value(terms, field, value):
    # one field element per distinct exponent of z1 (shared by every term
    # that has it) gives what scaling each term by its own power gives
    ctx = {"QQ": Context(("z1", "z2")), "QQ(t)": CTXP,
           "GF(p)": Context(("z1", "z2"), (), PRIME)}[field]
    t = Polynomial.parameter(ctx, "t") if field == "QQ(t)" \
        else Polynomial.one(ctx)
    f = sum((Polynomial.monomial(ctx, m, c) * t ** m[1]
             for m, c in terms.items()), Polynomial.zero(ctx))
    expected = Polynomial.zero(ctx)
    for (a, b), c in f.terms.items():
        expected = expected + Polynomial.monomial(
            ctx, (0, b), c * ctx.coefficient(value ** a))
    assert f.eval_variable("z1", value) == expected


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


def test_specialize_parameter_at_a_residue_matches_rational_reduction():
    t = Polynomial.parameter(CTXP, "t")
    x, y = v("z1", CTXP), v("z2", CTXP)
    f = Fraction(2, 3) * t ** 2 * x ** 2 + (t - 1) * y + x * y
    for tau in (Fraction(5), Fraction(-3, 4)):
        over_q = f.specialize_parameter("t", tau)
        image = f.specialize_parameter("t", Modular.from_rational(tau, 7))
        assert image.context == Context(("z1", "z2"), (), 7)
        assert image.terms == {m: Modular.from_rational(c, 7)
                               for m, c in over_q.terms.items()
                               if c.numerator % 7}
    # t = 1 kills the (t - 1)*z2 term mod 7 as well
    assert f.specialize_parameter("t", Modular(8, 7)).terms.keys() \
        == {(2, 0), (1, 1)}
    with pytest.raises(ContextError):
        x.specialize_parameter("s", Modular(1, 7))
    # a residue sends QQ(t) to GF(p): no other parameter may remain
    two = Polynomial.parameter(Context(("z1",), ("s", "t")), "t")
    with pytest.raises(ContextError):
        two.specialize_parameter("t", Modular(1, 7))


def test_specialize_parameter_at_a_residue_refuses_unlucky_values():
    x = v("z1", CTXP)
    # 1/(t - 3): the denominator vanishes at t = 3 mod 7, i.e. at t = 10
    c = Coefficient({(0,): Fraction(1)},
                    {(1,): Fraction(1), (0,): Fraction(-3)}, 1)
    f = x * c + x ** 2
    assert f.specialize_parameter("t", Modular(4, 7)).terms[(1, 0)] \
        == Modular(1, 7)
    with pytest.raises(UnluckySpecializationError):
        f.specialize_parameter("t", Modular(10, 7))
    # 7 divides a rational denominator: no image in GF(7) at any t
    g = Fraction(1, 14) * x + x ** 2
    with pytest.raises(UnluckySpecializationError):
        g.specialize_parameter("t", Modular(1, 7))
    # ... even where the rational member has one: t/7 is 1 at t = 7
    h = Fraction(1, 7) * Polynomial.parameter(CTXP, "t") * x
    assert h.specialize_parameter("t", 7) == v("z1", Context(("z1", "z2")))
    with pytest.raises(UnluckySpecializationError):
        h.specialize_parameter("t", Modular(7, 7))


P5 = 5
_q_mod_5 = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 5)))
_t_polys = st.dictionaries(st.integers(0, 2).map(lambda e: (e,)),
                           _q_mod_5.filter(bool), max_size=3)
_qq_t_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(lambda num, den: Coefficient(num, den, 1),
              _t_polys, _t_polys.filter(bool)).filter(bool),
    max_size=4).map(lambda terms: Polynomial(CTXP, terms))


@settings(max_examples=200, deadline=None)
@given(_qq_t_polys,
       st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3))))
def test_specialize_parameter_at_a_residue_is_the_image_of_the_rational_member(
        f, tau):
    """The image of f at tau mod p, when it exists, is the coefficientwise
    GF(p) image of the rational member f(tau).  Reduction mod p can be
    unlucky where QQ is not (t/5 at t = 5), but never the other way."""

    def member(value):
        try:
            return f.specialize_parameter("t", value)
        except UnluckySpecializationError:
            return None

    over_q, image = member(tau), member(Modular.from_rational(tau, P5))
    if image is None:
        return
    assert over_q is not None
    assert image.context == Context(("z1", "z2"), (), P5)
    assert image.terms == {m: r for m, c in over_q.terms.items()
                           if (r := Modular.from_rational(c, P5))}


def test_gcd_and_reducedness():
    z1, z2, z3 = v("z1"), v("z2"), v("z3")
    assert render(multivariate_gcd(z1 ** 2 * z2, z1 * z2 ** 2)) == "z1*z2"
    p = z1 ** 2 * z2 - z1 * z2 ** 2
    assert render(multivariate_gcd(p * z3, p * (z3 + 1))) \
        == "z1^2*z2 - z1*z2^2"
    assert reduced_witness(p) is None
    sq = (z1 + z2) ** 2 * z3
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
    # the certificate answers for a squarefree germ, with no gcd at all
    assert reduced_witness(parse_polynomial("z1 + z2^2 + z3^2", CTX)) is None
    assert calls == []


# ---------------------------------------------------------------------------
# the squarefree certificate against sympy

Z3 = ("z1", "z2", "z3")
_FIELDS = (Context(Z3), Context(Z3, (), 32003), Context(Z3, ("t",)))


def _coordinate(ctx, j):
    if j < ctx.nvars:
        return Polynomial.variable(ctx, ctx.variables[j])
    return Polynomial.parameter(ctx, ctx.parameters[j - ctx.nvars])


@st.composite
def _factors(draw, ctx):
    """One or two terms, each a power of one variable times linear forms
    that vanish at one of the certificate's two points in one coordinate
    each: the leading coefficients of such a factor can vanish there."""
    points = [squarefree.certificate_point(ctx, r) for r in (0, 1)]
    h = Polynomial.zero(ctx)
    for _ in range(draw(st.integers(1, 2))):
        term = Polynomial.variable(ctx, draw(st.sampled_from(ctx.variables))) \
            ** draw(st.integers(0, 2)) * draw(st.integers(-3, 3))
        for j in draw(st.sets(st.integers(0, len(points[0]) - 1),
                              max_size=2)):
            r = draw(st.integers(0, 1))
            term = term * (_coordinate(ctx, j) - points[r][j])
        h = h + term
    return h


def _sympy_squarefree(sympy, g) -> bool:
    """The oracle: sqf_list over QQ and over QQ(t); over GF(p), where sympy
    has no multivariate sqf_list, the gcd of g with its partials."""
    ctx = g.context
    zs, ts = sympy.symbols(ctx.variables), sympy.symbols(ctx.parameters)

    def monomial(names, m):
        return sympy.prod(x ** e for x, e in zip(names, m))

    def rational(d):
        return sum((sympy.Rational(q.numerator, q.denominator)
                    * monomial(ts, m) for m, q in d.items()), sympy.Integer(0))

    def value(c):
        if isinstance(c, Modular):
            return sympy.Integer(c.value)
        if isinstance(c, Fraction):
            return rational({(): c})
        return rational(c.num) / rational(c.den)

    expr = sympy.expand(sum(value(c) * monomial(zs, m)
                            for m, c in g.terms.items()))
    if ctx.modulus:
        common = expr
        for z in zs:
            common = sympy.gcd(common, sympy.diff(expr, z),
                               modulus=ctx.modulus)
        return not common.free_symbols
    _, factors = sympy.sqf_list(expr, *zs,
                                domain="QQ(t)" if ts else "QQ")
    return all(multiplicity == 1 for _, multiplicity in factors)


@st.composite
def _products(draw):
    """(h, k, square): g is h^2 * k when square, h * k otherwise."""
    ctx = draw(st.sampled_from(_FIELDS))
    return draw(_factors(ctx)), draw(_factors(ctx)), draw(st.booleans())


def _trap_case(ctx):
    """(h, k, True) with h's image at the certificate's first point
    constant in each of its variables: its leading coefficients vanish
    there."""
    a = squarefree.certificate_point(ctx, 0)
    z1, z2, z3 = (_coordinate(ctx, j) for j in range(3))
    if ctx.parameters:
        h = (_coordinate(ctx, 3) - a[3]) * z1 + 1
    else:
        h = (z1 - a[0]) * (z3 - a[2]) + 1
    return h, z1 + z2, True


@settings(max_examples=150, deadline=None)
@given(_products())
@example(_trap_case(_FIELDS[0]))
@example(_trap_case(_FIELDS[1]))
@example(_trap_case(_FIELDS[2]))
def test_the_squarefree_certificate_agrees_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    h, k, square = case
    g = h * h * k if square else h * k
    if g.is_zero():
        return
    certified = squarefree.certified_squarefree(g)
    if square and h.total_degree():
        assert not certified
    if certified:
        assert _sympy_squarefree(sympy, g)


@pytest.mark.parametrize("terms, certified", [
    # z1^2 + p1*z2: its image in z1 is z^2 + c with c a zero divisor, which
    # Euclid's second remainder leads with; squarefree mod p2 only
    ({(2, 0, 0): 1, (0, 1, 0): P1}, (False, True)),
    # p1*z1^2 + z1 + z2: the leading coefficient in z1 is a zero divisor;
    # mod p1 the polynomial is linear in z1
    ({(2, 0, 0): P1, (1, 0, 0): 1, (0, 1, 0): 1}, (True, True)),
])
def test_the_certificate_mod_the_two_primes_never_relies_on_a_zero_divisor(
        terms, certified):
    # the polynomials are built term by term: a Polynomial built through
    # the field would already refuse the zero divisor
    def over(modulus):
        ctx = Context(Z3, (), modulus)
        return Polynomial(ctx, {m: Modular(c, modulus)
                                for m, c in terms.items() if c % modulus})

    assert tuple(squarefree.certified_squarefree(over(p))
                 for p in (P1, P2)) == certified
    with pytest.raises(ZeroDivisor):
        squarefree.certified_squarefree(over(JOINT))


@pytest.mark.parametrize("ctx", _FIELDS, ids=["QQ", "GF", "QQ(t)"])
def test_the_gcd_finds_what_the_certificate_cannot(ctx):
    # the first point leaves the trap constant, the second finds it
    # nonconstant in each variable, and the gcd finds it
    h, k, _ = _trap_case(ctx)
    g = h * h * k
    assert not squarefree.certified_squarefree(g)
    assert reduced_witness(g) == h.monic()


@pytest.mark.parametrize("ctx, text", [
    (CTX, "3*z1^2*z2 - 1/2*z2^3 + z3"),
    (CTXP, "(t^2 + 1)*z1*z2 - t*z2^2 + (t - 1)*z1"),
    (CTX7, "3*z1^2 + 5*z1*z2 + z2"),
])
def test_monic_divides_by_the_leading_coefficient(ctx, text):
    f = parse_polynomial(text, ctx)
    _, lc = f.leading()
    g = f.monic()
    assert g.leading()[1] == ctx.unit
    assert g.terms == sparse.pscale(f.terms, ctx.unit / lc)
    assert g.monic() is g


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
