"""Monomial orders on exponent tuples.

Orders are exposed as key functions: ``order.key(m)`` returns a tuple and
monomials compare by comparing keys, largest key = leading.
``order.neg_key(m)`` is the same key with every entry negated, so the
leading monomial has the *smallest* ``neg_key`` (the order a ``heapq``
min-heap pops in).  Both are memoized: each order keeps one table per key,
filled on first use, and ``elimination(drop)`` returns one interned order
per drop block, so every elimination basis shares its tables.  A key never
changes, so the tables only save recomputation, and ``clear_key_tables()``
empties them without changing any result.  Three kinds:

* ``grevlex``   -- global degree reverse lexicographic.
* ``local``     -- negative degree reverse lexicographic; lower total degree
                   is *larger*, so the leading term of a unit is its constant
                   term.  Not a well-order (used for standard bases).
* ``elimination(drop)`` -- block order, the ``drop`` block compared grevlex
                   first, the remaining block grevlex second.  Global, and
                   any polynomial whose leading monomial avoids the drop
                   block avoids it entirely.

All three are multiplicative: m1 < m2 implies m1*m < m2*m.
"""

from __future__ import annotations


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _grevlex_neg_key(m):
    return (-sum(m), m[::-1])


def _local_key(m):
    return (-sum(m), tuple(-e for e in reversed(m)))


def _local_neg_key(m):
    return (sum(m), m[::-1])


def _block_keys(drop):
    def split(m):
        head = tuple(m[i] for i in drop)
        tail = tuple(e for i, e in enumerate(m) if i not in drop)
        return head, tail

    def key(m):
        head, tail = split(m)
        return (_grevlex_key(head), _grevlex_key(tail))

    def neg_key(m):
        head, tail = split(m)
        return (_grevlex_neg_key(head), _grevlex_neg_key(tail))

    return key, neg_key


class _KeyTable(dict):
    """monomial -> key, computed by fn on first lookup."""
    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, m):
        k = self[m] = self.fn(m)
        return k


class MonomialOrder:
    """An order of one kind (and drop block); equal and hashed by
    (kind, drop).  ``key`` and ``neg_key`` are its memo tables' lookups,
    built once here; no attribute is reassigned."""

    __slots__ = ("kind", "drop", "key", "neg_key")

    def __init__(self, kind: str, drop: tuple[int, ...] = ()):
        if kind == "grevlex":
            keys = (_grevlex_key, _grevlex_neg_key)
        elif kind == "local":
            keys = (_local_key, _local_neg_key)
        elif kind == "elimination":
            if not drop:
                raise ValueError("elimination order needs a nonempty drop block")
            keys = _block_keys(drop)
        else:
            raise ValueError(f"unknown order kind {kind!r}")
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "drop", drop)
        init(self, "key", _KeyTable(keys[0]).__getitem__)
        init(self, "neg_key", _KeyTable(keys[1]).__getitem__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to MonomialOrder.{name}")

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.kind, self.drop) == (other.kind, other.drop)

    def __hash__(self):
        return hash((self.kind, self.drop))

    def __repr__(self):
        return f"MonomialOrder(kind={self.kind!r}, drop={self.drop!r})"

    @property
    def is_global(self) -> bool:
        return self.kind != "local"


GREVLEX = MonomialOrder("grevlex")
LOCAL = MonomialOrder("local")


_ELIMINATION: dict[tuple[int, ...], MonomialOrder] = {}


def elimination(drop_indices) -> MonomialOrder:
    drop = tuple(sorted(drop_indices))
    order = _ELIMINATION.get(drop)
    if order is None:
        order = _ELIMINATION[drop] = MonomialOrder("elimination", drop)
    return order


def clear_key_tables():
    """Empty the key tables of every order (``key`` and ``neg_key`` are the
    bound ``__getitem__`` of their tables)."""
    for order in (GREVLEX, LOCAL, *_ELIMINATION.values()):
        order.key.__self__.clear()
        order.neg_key.__self__.clear()
