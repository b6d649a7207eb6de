"""Monomial orders: the grevlex key and the packed monomials against keys
written out here."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lecalc.orders import (GREVLEX, LOCAL, MonomialOrder, Packing,
                           PackingOverflow, elimination, grevlex_key,
                           packing)


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


@st.composite
def _monomials_and_drop_blocks(draw):
    n = draw(st.integers(1, 5))
    small = st.integers(0, 4)
    exponent = draw(st.sampled_from((small, small | st.integers(0, 2 ** 70))))
    monomials = draw(st.lists(st.tuples(*[exponent] * n),
                              min_size=1, max_size=8))
    drop = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return monomials, drop


@settings(max_examples=100, deadline=None)
@given(_monomials_and_drop_blocks())
def test_keys_and_packed_monomials_match_the_reference(case):
    # packed, the leading monomial is the smallest integer, a product is a
    # sum and divisibility is one subtraction and a mask
    monomials, drop = case
    orders = ((GREVLEX, grevlex), (LOCAL, local),
              (elimination(drop), block(set(drop))))
    n = len(monomials[0])
    top = max(max(m) for m in monomials)
    for order, reference in orders:
        # the fields hold every product of two monomials
        pk = Packing(order, n, max(4, (2 * top).bit_length() + 1))
        packed = {m: pk.pack(m) for m in monomials}
        for a in monomials:
            assert pk.unpack(packed[a]) == a
            for b in monomials:
                assert (packed[a] < packed[b]) == (reference(a) > reference(b))
                ab = tuple(x + y for x, y in zip(a, b))
                assert packed[a] + packed[b] == pk.pack(ab)
                divides = all(x >= y for x, y in zip(a, b))
                assert (not (packed[a] - packed[b]) & pk.guards) == divides
            if order is LOCAL:
                assert packed[a] >> pk.shift == sum(a)
    for a in monomials:
        assert grevlex_key(a) == grevlex(a)
    assert elimination(drop) == elimination(sorted(drop, reverse=True))


def test_packings_are_interned_per_order_variables_and_width():
    pk = packing(elimination([1]), 3, 8)
    assert pk is packing(elimination((1,)), 3, 8)
    assert pk is not packing(elimination([1]), 3, 16)
    assert pk is not packing(GREVLEX, 3, 8)
    fresh = Packing(elimination([1]), 3, 8)
    assert (pk.units, pk.guards, pk.shift) \
        == (fresh.units, fresh.guards, fresh.shift)


def test_packing_refuses_an_exponent_that_fills_a_guard():
    pk = Packing(LOCAL, 2, 8)
    assert pk.unpack(pk.pack((127, 0))) == (127, 0)
    with pytest.raises(PackingOverflow):
        pk.pack((0, 128))


def test_orders_are_equal_and_hashed_by_kind_and_drop():
    assert MonomialOrder("local") == LOCAL
    assert hash(MonomialOrder("local")) == hash(LOCAL)
    assert MonomialOrder("elimination", (0, 2)) == elimination([2, 0])
    assert LOCAL != GREVLEX and elimination([0]) != elimination([1])
    assert repr(elimination([1])) == \
        "MonomialOrder(kind='elimination', drop=(1,))"
    with pytest.raises(AttributeError):
        LOCAL.kind = "grevlex"
