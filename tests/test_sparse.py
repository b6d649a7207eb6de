"""The sparse dict layer: the gcd's monomial closed form against the
pseudo-remainder recursion, the size of that recursion's coefficients,
and the budget steps it draws."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc import sparse
from lecalc.parse import parse_polynomial
from lecalc.poly import Coefficient, Context, Modular
from lecalc.sparse import step_budget

FIELDS = (Fraction, lambda n: Modular(n, 7), lambda n: Modular(n, 2147483629))


@st.composite
def one_term_gcd_inputs(draw):
    """(a, b) over one field and arity 1-3, at least one of them a single
    term and at most one of them zero."""
    arity = draw(st.integers(1, 3))
    field = draw(st.sampled_from(FIELDS))
    expos = st.tuples(*(st.integers(0, 3) for _ in range(arity)))
    coeffs = st.sampled_from((-3, -1, 1, 2, 5)).map(field)
    term = draw(st.dictionaries(expos, coeffs, min_size=1, max_size=1))
    other = draw(st.dictionaries(expos, coeffs, max_size=4))
    return (term, other) if draw(st.booleans()) else (other, term)


def _monic_gcd_rec(a, b):
    g = sparse._gcd_rec(a, b)
    _, lc = sparse.lead(g)
    return {m: c / lc for m, c in g.items()}


@settings(max_examples=300, deadline=None)
@given(one_term_gcd_inputs())
def test_one_term_gcd_is_the_monic_recursive_gcd(inputs):
    a, b = inputs
    g = sparse.pgcd(a, b)
    assert g == _monic_gcd_rec(a, b)
    field = type(next(iter(a.values() or b.values())))
    assert len(g) == 1 and all(type(c) is field for c in g.values())


def test_one_term_gcd_is_the_componentwise_minimum():
    q = Fraction
    assert sparse.pgcd({(2, 1): q(3)}, {(1, 3): q(2), (3, 0): q(5)}) \
        == {(1, 0): q(1)}
    assert sparse.pgcd({}, {(2, 1): q(-4)}) == {(2, 1): q(1)}
    assert sparse.pgcd({(0, 0): Modular(3, 7)}, {(1, 1): Modular(2, 7)}) \
        == {(0, 0): Modular(1, 7)}


def test_remainder_sequence_keeps_coefficients_small(monkeypatch):
    # without rescaling each remainder, the coefficients of this sequence
    # passed a million bits within seconds, and the gcd ran past 10 s
    ctx = Context(("z1", "z2", "z3"), ())
    f = parse_polynomial("4*z1^3*z2^2*z3^2 + 4*z1^2*z2^2*z3^3 + "
                         "z1*z2^2*z3^4 + z1*z2*z3^2 + z2^2 + z3^2", ctx)
    prem = sparse._prem

    def spy(a, b, v):
        r = prem(a, b, v)
        assert all(max(c.numerator.bit_length(), c.denominator.bit_length())
                   < 1000 for c in r.values())
        return r

    monkeypatch.setattr(sparse, "_prem", spy)
    assert sparse.pgcd(f.terms, f.partial("z1").terms) == {(0, 0, 0): 1}


def test_every_pseudo_remainder_draws_a_budget_step():
    # (t^2 - 1)/(t + 1): neither side is one term, so the gcd that reduces
    # the coefficient takes the remainder sequence, and draws on the budget
    # like every other gcd
    q = Fraction
    num = {(2,): q(1), (0,): q(-1)}
    den = {(1,): q(1), (0,): q(1)}
    with step_budget(100) as budget:
        assert sparse.pgcd(num, den) == den
    assert budget.used > 0
    with step_budget(100) as budget:
        c = Coefficient(num, den, 1)
    assert budget.used > 0
    assert (c.num, c.den) == ({(1,): q(1), (0,): q(-1)}, {(0,): q(1)})
