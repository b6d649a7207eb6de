"""Monomial orders on exponent tuples.

Orders are exposed as key functions: ``order.key(m)`` returns a tuple and
monomials compare by comparing keys, largest key = leading.
``order.neg_key(m)`` is the same key with every entry negated, so the
leading monomial has the *smallest* ``neg_key`` (the order a ``heapq``
min-heap pops in).  Both are plain functions bound once per order.  Three
kinds:

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

from collections.abc import Callable
from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class MonomialOrder:
    kind: str
    drop: tuple[int, ...] = field(default=())
    key: Callable = field(init=False, repr=False, compare=False)
    neg_key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "grevlex":
            keys = (_grevlex_key, _grevlex_neg_key)
        elif self.kind == "local":
            keys = (_local_key, _local_neg_key)
        elif self.kind == "elimination":
            if not self.drop:
                raise ValueError("elimination order needs a nonempty drop block")
            keys = _block_keys(self.drop)
        else:
            raise ValueError(f"unknown order kind {self.kind!r}")
        object.__setattr__(self, "key", keys[0])
        object.__setattr__(self, "neg_key", keys[1])

    @property
    def is_global(self) -> bool:
        return self.kind != "local"


GREVLEX = MonomialOrder("grevlex")
LOCAL = MonomialOrder("local")


def elimination(drop_indices) -> MonomialOrder:
    return MonomialOrder("elimination", tuple(sorted(drop_indices)))
