"""Monomial orders, and monomials packed into integers.

A `MonomialOrder` names an order by its kind and drop block, and its
`Packing` (below) is its one definition: the basis engine compares
monomials only as packed integers.  ``elimination(drop)`` sorts the drop
block.  Three kinds, all multiplicative (m1 < m2 implies m1*m < m2*m):

* ``grevlex``   -- global degree reverse lexicographic.
* ``local``     -- negative degree reverse lexicographic; lower total degree
                   is *larger*, so the leading term of a unit is its constant
                   term.  Not a well-order (used for standard bases).
* ``elimination(drop)`` -- block order, the ``drop`` block compared grevlex
                   first, the remaining block grevlex second.  Global, and
                   any polynomial whose leading monomial avoids the drop
                   block avoids it entirely.

The basis engine packs each monomial into one integer (`Packing`), laid
out so that integers compare as the monomials do and the leading monomial
is the *smallest*.  The exponent of variable i fills bits [i*w, (i+1)*w),
w the width, whose top bit is a guard that stays clear.  From bit
``shift`` = n*w up sits one signed linear form in the exponents that
decides first: the total degree under ``local``, minus it under
``grevlex``, and -d_drop*C1 + r_drop*C2 - d_kept under
``elimination(drop)`` (d a block's degree, r_drop the drop block's
exponents in fields of their own, C1 and C2 powers of two wide enough that
each part decides before the next).  Equal forms fall to the variable
fields, the last variable highest: the grevlex tie-break.  All of it is
linear, so a product is a + b, b divides a exactly when (a - b) & guards is
zero (a smaller field borrows its guard), and under ``local`` the total
degree is m >> shift.  `pack` refuses an exponent that would fill a guard
and the engine checks the guards of every product it makes, both raising
`PackingOverflow`: the caller widens and starts again, so no field wraps.

Outside the engine grevlex is the one order: `grevlex_key(m)` returns a
tuple, the largest key leading, by which leading terms, gcds and rendered
terms are taken.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple


def grevlex_key(m):
    """The grevlex key of an exponent tuple; the largest key leads."""
    return (sum(m), tuple(-e for e in reversed(m)))


class MonomialOrder(NamedTuple):
    """An order of one kind, ``grevlex``, ``local`` or ``elimination``,
    and, for ``elimination``, its sorted drop block."""

    kind: str
    drop: tuple[int, ...] = ()

    @property
    def is_global(self) -> bool:
        return self.kind != "local"


GREVLEX = MonomialOrder("grevlex")
LOCAL = MonomialOrder("local")


def elimination(drop_indices) -> MonomialOrder:
    return MonomialOrder("elimination", tuple(sorted(drop_indices)))


# ---------------------------------------------------------------------------
# packed monomials

class PackingOverflow(ArithmeticError):
    """An exponent outgrew its field of a `Packing`."""


class Packing:
    """Monomials in nvars variables under order, packed into integers with
    fields of width bits (see the module docstring).  ``units[i]`` is the
    packed variable i, and a monomial packs to sum(e_i * units[i]).
    `packing` interns them; no attribute changes after __init__."""

    __slots__ = ("order", "nvars", "width", "shift", "guards", "units",
                 "_cap", "_offsets", "_field")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        self.order, self.nvars, self.width = order, nvars, width
        self.shift = shift = nvars * width
        form = [1 if order.kind == "local" else -1] * nvars
        if order.kind == "elimination":
            span = width - 1 + nvars.bit_length()  # holds d_kept
            c1 = 1 << (span + len(order.drop) * width + 1)
            for k, i in enumerate(order.drop):
                form[i] = (1 << (span + k * width)) - c1
        self._offsets = range(0, shift, width)
        self.guards = sum(1 << (k + width - 1) for k in self._offsets)
        self.units = tuple((1 << k) + (f << shift)
                           for k, f in zip(self._offsets, form))
        self._cap, self._field = 1 << (width - 1), (1 << width) - 1

    def pack(self, e) -> int:
        if max(e) >= self._cap:
            raise PackingOverflow(f"exponent beyond {self.width}-bit fields")
        return sum(map(mul, e, self.units))

    def unpack(self, m) -> tuple[int, ...]:
        field = self._field
        return tuple([(m >> k) & field for k in self._offsets])


_PACKINGS: dict[tuple[MonomialOrder, int, int], Packing] = {}


def packing(order: MonomialOrder, nvars: int, width: int) -> Packing:
    """One interned `Packing` per (order, nvars, width)."""
    key = (order, nvars, width)
    pk = _PACKINGS.get(key)
    if pk is None:
        pk = _PACKINGS[key] = Packing(order, nvars, width)
    return pk
