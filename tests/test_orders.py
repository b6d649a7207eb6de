"""Monomial orders: the memoized keys against keys written out here."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc.orders import (GREVLEX, LOCAL, MonomialOrder, clear_key_tables,
                           elimination)


def grevlex(m):
    # total degree first; among equal degrees the smaller exponent in the
    # last variable where they differ wins
    return (sum(m), tuple(-m[i] for i in range(len(m) - 1, -1, -1)))


def local(m):
    # lower total degree is larger, ties broken as in grevlex
    return (-sum(m), grevlex(m)[1])


def block(drop):
    def key(m):
        head = tuple(e for i, e in enumerate(m) if i in drop)
        tail = tuple(e for i, e in enumerate(m) if i not in drop)
        return (grevlex(head), grevlex(tail))
    return key


def negated(k):
    return -k if isinstance(k, int) else tuple(negated(x) for x in k)


@st.composite
def _monomials_and_drop_blocks(draw):
    n = draw(st.integers(1, 5))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                              min_size=1, max_size=8))
    drop = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return monomials, drop


@settings(max_examples=100, deadline=None)
@given(_monomials_and_drop_blocks())
def test_memoized_keys_match_the_reference(case):
    monomials, drop = case
    orders = ((GREVLEX, grevlex), (LOCAL, local),
              (elimination(drop), block(set(drop))))
    for _ in range(2):  # the first lookup fills the tables, the second reads
        for order, reference in orders:
            for m in monomials:
                assert order.key(m) == reference(m)
                assert order.neg_key(m) == negated(reference(m))
    assert elimination(drop) is elimination(sorted(drop, reverse=True))
    clear_key_tables()  # the next example fills the tables again
    assert not any(order.key.__self__ or order.neg_key.__self__
                   for order, _ in orders)


def test_orders_are_equal_and_hashed_by_kind_and_drop():
    assert MonomialOrder("local") == LOCAL
    assert hash(MonomialOrder("local")) == hash(LOCAL)
    assert MonomialOrder("elimination", (0, 2)) == elimination([2, 0])
    assert LOCAL != GREVLEX and elimination([0]) != elimination([1])
    assert repr(elimination([1])) == \
        "MonomialOrder(kind='elimination', drop=(1,))"
    for kind, drop in (("bogus", ()), ("elimination", ())):
        with pytest.raises(ValueError):
            MonomialOrder(kind, drop)
    with pytest.raises(AttributeError):
        LOCAL.kind = "grevlex"
