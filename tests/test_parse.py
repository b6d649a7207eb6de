"""Expression parser: accepted grammar, error positions, and the
render/parse round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc.errors import ParseError, UsageError
from lecalc.parse import parse_polynomial
from lecalc.poly import Context, Polynomial, render

CTX = Context(("z1", "z2", "z3"), ())
CTXP = Context(("z1", "z2"), ("t",))


def test_worked_base_polynomial():
    f = parse_polynomial("z1^2*z2^2 + z2^5 + z3^4", CTX)
    z1 = Polynomial.variable(CTX, "z1")
    z2 = Polynomial.variable(CTX, "z2")
    z3 = Polynomial.variable(CTX, "z3")
    assert f == z1 ** 2 * z2 ** 2 + z2 ** 5 + z3 ** 4


def test_rational_coefficients_and_unary_minus():
    from fractions import Fraction
    p = parse_polynomial("-(z1 + z2)^2 + 2/3*z1", CTX)
    z1 = Polynomial.variable(CTX, "z1")
    z2 = Polynomial.variable(CTX, "z2")
    assert p == -((z1 + z2) ** 2) + Fraction(2, 3) * z1


def test_parameters_parse_into_coefficients():
    p = parse_polynomial("t^2*z1 - 1/2", CTXP)
    assert render(p) == "t^2*z1 - 1/2"
    assert any(m[0] for m in p.terms)


@pytest.mark.parametrize("text, fragment, position", [
    ("z1^2 - -z2", "expected a variable", 7),
    ("z1**2", "expected a variable", 3),
    ("z9", "undeclared identifier 'z9'", 0),
    ("z1 +", "end of input", 4),
    ("(z1", "expected ')'", 3),
    ("z1^(2)", "natural number literal", 3),
    ("z1 z2", "trailing input", 3),
    ("", "end of input", 0),
])
def test_parse_errors_carry_positions(text, fragment, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, CTX)
    assert fragment in str(err.value)
    assert f"(at position {position})" in str(err.value)


def test_parse_error_is_a_usage_error():
    with pytest.raises(UsageError):
        parse_polynomial("z1 +", CTX)


def _polys(ctx):
    def build(coeffs):
        p = Polynomial.zero(ctx)
        for expo, c in coeffs:
            p = p + Polynomial.monomial(ctx, expo, c)
        return p
    expos = st.tuples(*(st.integers(0, 4) for _ in ctx.variables))
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(st.tuples(expos, fractions), max_size=6).map(build)


@settings(max_examples=100, deadline=None)
@given(_polys(CTX))
def test_round_trip_rational_coefficients(p):
    assert parse_polynomial(render(p), CTX) == p


def _param_polys():
    def build(rows):
        p = Polynomial.zero(CTXP)
        for expo, c, k in rows:
            term = Polynomial.monomial(CTXP, expo, c)
            p = p + term * Polynomial.parameter(CTXP, "t") ** k
        return p
    expos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = st.tuples(expos, fractions, st.integers(0, 2))
    return st.lists(rows, max_size=5).map(build)


@settings(max_examples=100, deadline=None)
@given(_param_polys())
def test_round_trip_parameter_coefficients(p):
    assert parse_polynomial(render(p), CTXP) == p
