"""Sparse polynomial arithmetic on plain dicts.

A polynomial is a dict mapping exponent tuples (fixed arity) to nonzero
coefficients.  Coefficients only need exact field arithmetic through the
usual operators plus truthiness as a zero test, so every coefficient class
of `lecalc.poly` qualifies: ``fractions.Fraction`` (QQ), ``Coefficient``
(QQ(parameters)) and ``Modular`` (GF(p)).  This module serves two layers at
once: parameter polynomials inside a ``Coefficient``, always over
``Fraction``, and ring polynomials inside the basis engine, over any of the
three.

The gcd here is the classical primitive pseudo-remainder sequence, recursing
one variable at a time down to field constants.  It is quadratic-ish and
entirely adequate for desk-scale inputs.  When either argument is a single
term the gcd is a monomial, x^e with e the componentwise minimum of every
exponent of both arguments, and `pgcd` returns it in closed form without
entering the recursion; a QQ(t) coefficient spends most of its gcds there.
Leading terms (`lead`) and monic gcds are taken under grevlex
(`lecalc.orders.grevlex_key`).

The step budget lives here, the lowest layer that charges a step.
`with step_budget(limit):` makes one budget active for a block, and
`current_budget()` returns it, or outside any block a fresh budget of
DEFAULT_BUDGET steps, taken once per basis, normal form and remainder
sequence.  Two things draw a step: each term-cancellation step of the
basis engine (`lecalc.engine`), and each pseudo-remainder of the gcd
here, wherever the gcd is taken: the normalisation of a QQ(params)
coefficient, the reducedness gcd and the lcms of saturation.  The
closed-form gcd with a one-term side draws none.  Running out raises
`BudgetExceededError`.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import BudgetExceededError
from .orders import grevlex_key

DEFAULT_BUDGET = 100_000


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget of {self.limit} steps exhausted")


_active_budget: _Budget | None = None


@contextmanager
def step_budget(limit: int):
    """One budget of `limit` steps for every step drawn in the block;
    yields it, and restores the outer budget on exit."""
    global _active_budget
    outer, _active_budget = _active_budget, _Budget(limit)
    try:
        yield _active_budget
    finally:
        _active_budget = outer


def current_budget() -> _Budget:
    """The active budget, or a fresh DEFAULT_BUDGET outside any block."""
    return _active_budget or _Budget(DEFAULT_BUDGET)


# ---------------------------------------------------------------------------
# monomial helpers

def mmul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mdiv(a, b):
    """a / b as exponent tuples, or None when not divisible."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mlcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# ring operations

def padd(a, b):
    c = dict(a)
    for m, v in b.items():
        w = c.get(m)
        if w is None:
            c[m] = v
        else:
            w = w + v
            if w:
                c[m] = w
            else:
                del c[m]
    return c


def pneg(a):
    return {m: -v for m, v in a.items()}


def psub(a, b):
    c = dict(a)
    for m, v in b.items():
        w = c.get(m)
        if w is None:
            c[m] = -v
        else:
            w = w - v
            if w:
                c[m] = w
            else:
                del c[m]
    return c


def pscale(a, s):
    if not s:
        return {}
    return {m: v * s for m, v in a.items()}


def pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    c = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            m = mmul(m1, m2)
            w = c.get(m)
            if w is None:
                c[m] = v1 * v2
            else:
                w = w + v1 * v2
                if w:
                    c[m] = w
                else:
                    del c[m]
    return c


def lead(a):
    """(monomial, coefficient) of the grevlex leading term."""
    m = max(a, key=grevlex_key)
    return m, a[m]


def max_total_degree(a):
    return max(sum(m) for m in a)


def min_total_degree(a):
    return min(sum(m) for m in a)


# ---------------------------------------------------------------------------
# exact division and gcd

def pdiv_exact(a, b):
    """Quotient a/b when b divides a exactly; None otherwise."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return {}
    bm, bc = lead(b)
    q = {}
    r = dict(a)
    while r:
        rm, rc = lead(r)
        t = mdiv(rm, bm)
        if t is None:
            return None
        c = rc / bc
        q[t] = c
        for m, v in b.items():
            k = mmul(m, t)
            w = r.get(k)
            if w is None:
                r[k] = -(c * v)
            else:
                w = w - c * v
                if w:
                    r[k] = w
                else:
                    del r[k]
    return q


def _vars_used(a):
    used = set()
    for m in a:
        for i, e in enumerate(m):
            if e:
                used.add(i)
    return used


def _one_like(a):
    """The constant-one polynomial with the same arity and coefficient type."""
    m, c = next(iter(a.items()))
    return {(0,) * len(m): c / c}


def _is_constant(a):
    return len(a) == 1 and not any(next(iter(a)))


def _split(a, v):
    """View a as univariate in variable v: dict degree -> coefficient dict.

    Coefficient dicts keep the full arity with the v-entry zeroed, so all
    helpers keep working on them unchanged."""
    out = {}
    for m, c in a.items():
        d = m[v]
        rm = m[:v] + (0,) + m[v + 1:]
        out.setdefault(d, {})[rm] = c
    return out


def _join(u, v):
    out = {}
    for d, coef in u.items():
        for rm, c in coef.items():
            out[rm[:v] + (d,) + rm[v + 1:]] = c
    return out


def _content(coeffs):
    """gcd of a list of polynomials (the content of a univariate view)."""
    g = {}
    for c in coeffs:
        g = _gcd_rec(g, c)
        if _is_constant(g):
            return _one_like(g)
    return g


def _primitive(a, v):
    """(content, primitive part) of a with respect to variable v."""
    u = _split(a, v)
    cont = _content(list(u.values()))
    if _is_constant(cont):
        return cont, dict(a)
    pp = {d: pdiv_exact(c, cont) for d, c in u.items()}
    return cont, _join(pp, v)


def _prem(f, g, v):
    """Pseudo-remainder of f by g, both viewed univariate in v (deg f >= deg g)."""
    uf, ug = _split(f, v), _split(g, v)
    dg = max(ug)
    lg = ug[dg]
    r = dict(uf)
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r[dr]
        new = {}
        for d, c in r.items():
            if d != dr:
                new[d] = pmul(c, lg)
        for d, c in ug.items():
            if d == dg:
                continue
            k = d + dr - dg
            term = pmul(c, lr)
            w = new.get(k)
            w = psub(w, term) if w is not None else pneg(term)
            if w:
                new[k] = w
            elif k in new:
                del new[k]
        r = new
    return _join(r, v) if r else {}


def _gcd_rec(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    used = _vars_used(a) | _vars_used(b)
    if not used:
        return _one_like(a)
    v = max(used)
    ca, pa = _primitive(a, v)
    cb, pb = _primitive(b, v)
    cont = _gcd_rec(ca, cb)
    f, g = pa, pb
    if max(_split(f, v)) < max(_split(g, v)):
        f, g = g, f
    tick = current_budget().tick
    while True:
        tick()
        r = _prem(f, g, v)
        if not r:
            break
        _, r = _primitive(r, v)
        # the content is only found up to a scalar, so scale the remainder
        # too: pseudo-division multiplies the coefficients by powers of a
        # leading coefficient, and without this their size grows
        # exponentially along the sequence
        c = next(iter(r.values()))
        f, g = g, {m: x / c for m, x in r.items()}
    _, g = _primitive(g, v)
    if _is_constant(g):
        g = _one_like(g)
    return g if _is_constant(cont) else pmul(cont, g)


def pgcd(a, b):
    """Monic gcd (leading grevlex coefficient one). gcd(0, 0) is an error.
    Each pseudo-remainder draws one step of the current budget."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if len(a) == 1 or len(b) == 1:
        # a divisor of a monomial is a monomial, and a monomial divides a
        # polynomial exactly when it divides every term
        e = tuple(map(min, zip(*a, *b)))
        c = next(iter(a.values() or b.values()))
        return {e: c / c}
    g = _gcd_rec(a, b)
    _, lc = lead(g)
    return {m: c / lc for m, c in g.items()}
