"""Exact multivariate polynomials over QQ, over fraction fields QQ(params)
and over prime fields GF(p).

A `Context` fixes the ring: an ordered tuple of ring variables, an ordered
tuple of parameters and a modulus.  Ring arithmetic happens on sparse
exponent dicts whose values are field elements of a class that
`Context.coefficient` alone picks: plain `fractions.Fraction`s over QQ (no
parameters, modulus 0); `Coefficient`s, elements of the fraction field of
the parameter polynomial ring, over QQ(parameters) (at least one); and
`Modular` residues over GF(p) (a prime modulus, no parameters) or over
Z/(p1 p2), the product of the two primes of `families.PRIMES`, which
stands for GF(p1) x GF(p2) as long as every residue it tests or divides
by is zero or a unit (see `ZeroDivisor`).  All three
share one protocol: + - * /, negation, truthiness as a zero test, ==, hash
and a total order < for canonical sorting.  Only the constructors, the moves
between fields and `render` look at the field; the arithmetic never does.
`Polynomial.specialize_parameter` is the one evaluator of a parameter: at a
rational it maps QQ(params) to QQ(the other params), and at a `Modular`
residue it maps QQ(t) to GF(p).  `Polynomial.eval_variable` is the one
evaluator of a ring variable, at a rational, in the same context.
Leading terms (`Polynomial.leading`, `Polynomial.monic`) and `render` take
the grevlex order (`lecalc.orders.grevlex_key`), the one order used outside
the basis engine.

Every gcd here is `sparse.pgcd`, which draws one step of the current
budget (see `lecalc.sparse`) per pseudo-remainder: the gcd that keeps a
`Coefficient` reduced, `multivariate_gcd` and the reducedness gcd of
`reduced_witness`.  Nothing else in this module draws a step.

Everything here is immutable by convention: operations return fresh objects
and never mutate term dicts that have been handed out.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from . import sparse
from .errors import ContextError, DegenerateInputError, NonReducedError, UnluckySpecializationError
from .orders import grevlex_key

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _ContextFields(NamedTuple):
    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()
    modulus: int = 0


class Context(_ContextFields):
    """Ordered ring variables, ordered coefficient-field parameters, and the
    coefficient ring's characteristic: modulus 0 is QQ(parameters), a prime
    p is GF(p), and the product p1 p2 of the two primes of
    `families.PRIMES` is Z/(p1 p2), which stands for GF(p1) x GF(p2) (no
    parameters allowed over either; see `Modular`).  No __slots__: `unit`
    and `zero` are cached in the instance dict.

    Contexts are values: every construction runs the checks below, and two
    contexts with the same fields are equal and hash alike, as tuples."""

    def __new__(cls, variables: tuple[str, ...],
                parameters: tuple[str, ...] = (), modulus: int = 0):
        variables, parameters = tuple(variables), tuple(parameters)
        names = [*variables, *parameters]
        if not variables:
            raise ContextError("a context needs at least one ring variable")
        if modulus < 0 or modulus == 1:
            raise ContextError(f"bad modulus {modulus}")
        if modulus and parameters:
            raise ContextError(
                f"a context over GF({modulus}) allows no parameters")
        for n in names:
            if not _IDENT_RE.match(n):
                raise ContextError(f"bad identifier {n!r}")
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate identifier among {names}")
        return super().__new__(cls, variables, parameters, modulus)

    def _replace(self, **changes) -> "Context":
        # the namedtuple _replace would skip the checks in __new__
        return Context(**{**self._asdict(), **changes})

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def nparams(self) -> int:
        return len(self.parameters)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ContextError(f"{name!r} is not a ring variable of {self}") from None

    def fresh_name(self, stem: str = "u") -> str:
        taken = set(self.variables) | set(self.parameters)
        k = 0
        while f"{stem}{k}" in taken:
            k += 1
        return f"{stem}{k}"

    def without_parameter(self, name: str) -> "Context":
        if name not in self.parameters:
            raise ContextError(f"{name!r} is not a parameter of {self}")
        return self._replace(parameters=tuple(p for p in self.parameters
                                             if p != name))

    def with_prepended_variable(self, name: str) -> "Context":
        return self._replace(variables=(name,) + self.variables)

    def coefficient(self, q) -> "Fraction | Coefficient | Modular":
        """The rational q (an int or Fraction) as an element of this
        context's coefficient field."""
        if self.modulus:
            return Modular.from_rational(q, self.modulus)
        if self.parameters:
            return Coefficient.from_fraction(q, self.nparams)
        return Fraction(q)

    @cached_property
    def unit(self) -> "Fraction | Coefficient | Modular":
        """1 in this context's coefficient field, built once per context
        (field elements are never mutated, so it can be shared)."""
        return self.coefficient(1)

    @cached_property
    def zero(self) -> "Fraction | Coefficient | Modular":
        """0 in this context's coefficient field, built once per context."""
        return self.coefficient(0)


# ---------------------------------------------------------------------------
# the coefficient field QQ(parameters), at least one parameter

_FR_ONE = Fraction(1)


class Coefficient:
    """An element num/den of QQ(p1, ..., pk), k >= 1, stored reduced with
    monic den.

    num and den are sparse dicts over the parameter exponents with Fraction
    values; den is never zero and its grevlex-leading value is one."""

    __slots__ = ("num", "den", "arity")

    def __init__(self, num, den, arity, _reduced=False):
        if not den:
            raise ZeroDivisionError("coefficient with zero denominator")
        if not num:
            self.num = {}
            self.den = {(0,) * arity: _FR_ONE}
            self.arity = arity
            return
        if not _reduced:
            if not _is_den_one(den, arity):
                g = sparse.pgcd(num, den)
                if len(g) > 1 or any(next(iter(g))):
                    num = sparse.pdiv_exact(num, g)
                    den = sparse.pdiv_exact(den, g)
                _, lc = sparse.lead(den)
                if lc != 1:
                    num = {m: c / lc for m, c in num.items()}
                    den = {m: c / lc for m, c in den.items()}
        self.num = num
        self.den = den
        self.arity = arity

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Coefficient":
        return Coefficient({}, {(0,) * arity: _FR_ONE}, arity, _reduced=True)

    @staticmethod
    def from_fraction(q, arity: int) -> "Coefficient":
        q = Fraction(q)
        z = (0,) * arity
        if q == 0:
            return Coefficient.zero(arity)
        return Coefficient({z: q}, {z: _FR_ONE}, arity, _reduced=True)

    @staticmethod
    def from_param_poly(num, arity: int) -> "Coefficient":
        return Coefficient(dict(num), {(0,) * arity: _FR_ONE}, arity, _reduced=True)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    @property
    def den_is_one(self) -> bool:
        return _is_den_one(self.den, self.arity)

    # -- field arithmetic ---------------------------------------------------

    # The fast paths below skip a normalizing gcd only where the result is
    # already reduced; the reduced form with monic den is unique, so they
    # build exactly what the generic constructor would.

    def _combine(self, other, op):
        """self op other for op padd or psub.  Over one shared denominator
        d the only common factors are those of the new numerator and d,
        and there are none when d is one."""
        if self.den == other.den:
            return Coefficient(op(self.num, other.num), self.den, self.arity)
        num = op(sparse.pmul(self.num, other.den), sparse.pmul(other.num, self.den))
        return Coefficient(num, sparse.pmul(self.den, other.den), self.arity)

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._combine(other, sparse.padd)

    def __sub__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._combine(other, sparse.psub)

    def __neg__(self):
        return Coefficient(sparse.pneg(self.num), self.den, self.arity, _reduced=True)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.den_is_one and other.den_is_one:  # a polynomial product
            return Coefficient(sparse.pmul(self.num, other.num), self.den,
                               self.arity, _reduced=True)
        return Coefficient(sparse.pmul(self.num, other.num),
                           sparse.pmul(self.den, other.den), self.arity)

    def __truediv__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        q = other.num.get((0,) * self.arity)
        if q is not None and len(other.num) == 1 and other.den_is_one:
            # by a rational constant: scale the numerator
            return Coefficient({m: c / q for m, c in self.num.items()},
                               self.den, self.arity, _reduced=True)
        return Coefficient(sparse.pmul(self.num, other.den),
                           sparse.pmul(self.den, other.num), self.arity)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (self.arity == other.arity and self.num == other.num
                and self.den == other.den)

    def _sorted_items(self):
        return tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))

    def __hash__(self):
        return hash((self.arity, *self._sorted_items()))

    def __lt__(self, other):
        """A total order on coefficients of one arity, for canonical sorting."""
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._sorted_items() < other._sorted_items()

    def __repr__(self):
        return f"Coefficient({self.num!r}/{self.den!r})"

    # -- context plumbing ---------------------------------------------------

    def subs_param(self, index: int, value: "Fraction | Modular"
                   ) -> "Coefficient | Fraction | Modular":
        """Evaluate one parameter at value, in value's field.  At a rational
        the arity drops by one, and at arity one the result is a plain
        Fraction.  At a residue mod p the arity must be one: the rational
        coefficients are lifted into GF(p) and the result is a Modular.
        Raises UnluckySpecializationError when p divides a rational
        denominator or the denominator vanishes at value."""
        if isinstance(value, Modular):
            modulus = value.modulus

            def lift(q):
                return Modular.from_rational(q, modulus)
        else:
            def lift(q):
                return q

        def ev(d):
            out = {}
            for m, c in d.items():
                scaled = lift(c) * value ** m[index]
                key = m[:index] + m[index + 1:]
                w = out.get(key)
                w = scaled if w is None else w + scaled
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
            return out

        try:
            num, den = ev(self.num), ev(self.den)
        except ZeroDivisionError as exc:
            raise UnluckySpecializationError(str(exc)) from exc
        if not den:
            raise UnluckySpecializationError(
                "specialization hit a coefficient denominator zero")
        if self.arity == 1:
            return num.get((), lift(0)) / den[()]
        return Coefficient(num, den, self.arity - 1)


def _is_den_one(den, arity) -> bool:
    return len(den) == 1 and den.get((0,) * arity) == 1


# ---------------------------------------------------------------------------
# the coefficient field GF(p), and Z/(p1 p2) for two primes at once

class ZeroDivisor(ArithmeticError):
    """A residue that is neither zero nor a unit mod a composite modulus
    was tested for zero, divided by, or taken as the image of a
    denominator.  Over Z/(p1 p2) = GF(p1) x GF(p2) such a residue is zero in
    one field and not in the other, so the two fields' runs of the
    computation would branch apart there.  A prime modulus never raises it.
    It is neither a MathRefusal nor a ZeroDivisionError, so no handler of
    those swallows it: `families` catches it where it built the joint
    member and runs once per prime instead."""


def is_nonzero_residue(v: int, modulus: int) -> bool:
    """Whether the residue v in [0, modulus) is nonzero; raises ZeroDivisor
    when it is nonzero and not a unit, which only a composite modulus
    allows."""
    if v and gcd(v, modulus) != 1:
        raise ZeroDivisor(f"{v} is a zero divisor mod {modulus}")
    return v != 0


def _inverse(v: int, modulus: int) -> int:
    """The inverse of the residue v; ZeroDivisionError for 0 and ZeroDivisor
    for a nonzero non-unit."""
    try:
        return pow(v, -1, modulus)
    except ValueError:
        if v:
            raise ZeroDivisor(f"{v} is a zero divisor mod {modulus}") from None
        raise ZeroDivisionError(f"division by zero in GF({modulus})") from None


class Modular:
    """An element of GF(modulus), modulus prime, or of Z/(modulus), modulus
    the product p1 p2 of the two primes of `families.PRIMES`, stored as its
    residue in [0, modulus).  It offers what `sparse.py` and the basis
    engine use (+ - * /, negation, truthiness as a zero test, == and hash)
    and the integer powers of parameter specialization.  Both operands of an
    operation come from one context, so the moduli agree and are not
    compared.

    Over Z/(p1 p2) every operation acts on the two residues mod p1 and mod
    p2 at once (Chinese remainder theorem).  The zero test, division and
    `from_rational` raise ZeroDivisor on a residue that is zero mod one
    prime only, so a computation that completes kept every coefficient it
    tested or divided by zero or a unit: it took the same branches, and has
    the same supports and leading terms, as its run over each GF(p_i)
    (dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL '85).
    `==` and the order `<` take no such care: they only deduplicate, skip a
    division by one and sort, which reorders work but changes no leading
    ideal or colength."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    @staticmethod
    def from_rational(q, modulus: int) -> "Modular":
        """The image of the rational q (an int or Fraction) in
        Z/(modulus); an int needs no inverse.  Raises ZeroDivisionError
        when modulus divides the denominator, and ZeroDivisor when they
        share a factor otherwise."""
        if isinstance(q, int):
            return Modular(q, modulus)
        q = Fraction(q)
        if q.denominator % modulus == 0:
            raise ZeroDivisionError(f"{q} has no image in GF({modulus})")
        return Modular(q.numerator * _inverse(q.denominator, modulus), modulus)

    def __bool__(self):
        return is_nonzero_residue(self.value, self.modulus)

    def __add__(self, other):
        return Modular(self.value + other.value, self.modulus)

    def __sub__(self, other):
        return Modular(self.value - other.value, self.modulus)

    def __neg__(self):
        return Modular(-self.value, self.modulus)

    def __mul__(self, other):
        return Modular(self.value * other.value, self.modulus)

    def __truediv__(self, other):
        return Modular(self.value * _inverse(other.value, self.modulus),
                       self.modulus)

    def __pow__(self, n: int):
        return Modular(pow(self.value, n, self.modulus), self.modulus)

    def __eq__(self, other):
        if not isinstance(other, Modular):
            return NotImplemented
        return self.value == other.value and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"Modular({self.value} mod {self.modulus})"

    def __lt__(self, other):
        if not isinstance(other, Modular):
            return NotImplemented
        return self.value < other.value


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("context", "terms")

    def __init__(self, context: Context, terms: dict):
        self.context = context
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, context: Context) -> "Polynomial":
        return cls(context, {})

    @classmethod
    def constant(cls, context: Context, q) -> "Polynomial":
        c = context.coefficient(q)
        if not c:
            return cls(context, {})
        return cls(context, {(0,) * context.nvars: c})

    @classmethod
    def one(cls, context: Context) -> "Polynomial":
        return cls.constant(context, 1)

    @classmethod
    def variable(cls, context: Context, name: str) -> "Polynomial":
        i = context.var_index(name)
        e = tuple(1 if j == i else 0 for j in range(context.nvars))
        return cls(context, {e: context.unit})

    @classmethod
    def parameter(cls, context: Context, name: str) -> "Polynomial":
        if name not in context.parameters:
            raise ContextError(f"{name!r} is not a parameter of {context}")
        i = context.parameters.index(name)
        expo = tuple(1 if j == i else 0 for j in range(context.nparams))
        c = Coefficient.from_param_poly({expo: _FR_ONE}, context.nparams)
        return cls(context, {(0,) * context.nvars: c})

    @classmethod
    def monomial(cls, context: Context, expo: tuple[int, ...], coeff=1) -> "Polynomial":
        c = coeff if isinstance(coeff, (Coefficient, Modular)) \
            else context.coefficient(coeff)
        if not c:
            return cls(context, {})
        return cls(context, {tuple(expo): c})

    # -- predicates / inspectors -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise DegenerateInputError("total degree of the zero polynomial")
        return sparse.max_total_degree(self.terms)

    def min_total_degree(self) -> int:
        if not self.terms:
            raise DegenerateInputError("order of the zero polynomial")
        return sparse.min_total_degree(self.terms)

    def constant_coefficient(self) -> "Fraction | Coefficient | Modular":
        c = self.terms.get((0,) * self.context.nvars)
        return self.context.zero if c is None else c

    def leading(self) -> tuple[tuple[int, ...], "Fraction | Coefficient | Modular"]:
        """The grevlex leading exponents and coefficient."""
        if not self.terms:
            raise DegenerateInputError("leading term of the zero polynomial")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, tuple(sorted(self.terms.items(),
                                                key=lambda kv: kv[0]))))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.context != other.context:
            raise ContextError(
                f"context mismatch: {self.context} vs {other.context}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial(self.context, sparse.padd(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self + Polynomial.constant(self.context, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial(self.context, sparse.psub(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return self - Polynomial.constant(self.context, other)
        return NotImplemented

    def __neg__(self):
        return Polynomial(self.context, sparse.pneg(self.terms))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial(self.context, sparse.pmul(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            c = self.context.coefficient(other)
            return Polynomial(self.context, sparse.pscale(self.terms, c) if c else {})
        if isinstance(other, (Coefficient, Modular)):
            return Polynomial(self.context, sparse.pscale(self.terms, other) if other else {})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DegenerateInputError("negative polynomial power")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if c == self.context.unit:  # a monic monomial: one step
                return Polynomial(self.context, {tuple(n * a for a in e): c})
        # square and multiply: at most 2 log2(n) + 1 products
        out = Polynomial.one(self.context)
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def divide_exact(self, other: "Polynomial"):
        """self/other when the division is exact, else None."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("exact division by zero")
        q = sparse.pdiv_exact(self.terms, other.terms)
        return None if q is None else Polynomial(self.context, q)

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        i = self.context.var_index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1:]
            scaled = c * self.context.coefficient(e)
            w = out.get(nm)
            w = scaled if w is None else w + scaled
            if w:
                out[nm] = w
            elif nm in out:
                del out[nm]
        return Polynomial(self.context, out)

    # -- specialization and context moves ------------------------------------

    def specialize_parameter(self, name: str, value) -> "Polynomial":
        """Evaluate one parameter at an exact value.  A rational (an int or
        Fraction) maps into QQ(the other parameters).  A `Modular` residue
        maps into GF(its modulus) on the same variables, and then the
        parameter must be the only one.  Raises UnluckySpecializationError
        when a coefficient has no image: its denominator vanishes at value,
        or the modulus divides a rational denominator."""
        ctx = self.context
        if name not in ctx.parameters:
            raise ContextError(f"{name!r} is not a parameter of {ctx}")
        if isinstance(value, Modular):
            if ctx.parameters != (name,):
                raise ContextError(
                    f"{name!r} is not the only parameter of {ctx}")
            target = ctx._replace(parameters=(), modulus=value.modulus)
        else:
            value = Fraction(value)
            target = ctx.without_parameter(name)
        idx = ctx.parameters.index(name)
        out = {}
        for m, c in self.terms.items():
            nc = c.subs_param(idx, value)
            if nc:
                out[m] = nc
        return Polynomial(target, out)

    def eval_variable(self, name: str, value) -> "Polynomial":
        """Evaluate one ring variable at a rational (an int or Fraction).
        The result stays in this context and no longer involves the
        variable."""
        ctx = self.context
        i = ctx.var_index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                m = m[:i] + (0,) + m[i + 1:]
                c = c * ctx.coefficient(value ** e)
            w = out.get(m)
            w = c if w is None else w + c
            if w:
                out[m] = w
            elif m in out:
                del out[m]
        return Polynomial(ctx, out)

    def restrict_to(self, variables: tuple[str, ...]) -> "Polynomial":
        """Transplant into the subring on the given variables; the polynomial
        must not involve any dropped variable.  Onto its own variables, in
        their order, the polynomial is returned itself."""
        ctx = self.context
        variables = tuple(variables)
        if variables == ctx.variables:
            return self
        keep = [ctx.var_index(v) for v in variables]
        dropped = [i for i in range(ctx.nvars) if i not in keep]
        for m in self.terms:
            for i in dropped:
                if m[i]:
                    raise ContextError(
                        f"polynomial involves dropped variable {ctx.variables[i]!r}")
        target = ctx._replace(variables=variables)
        out = {tuple(m[i] for i in keep): c for m, c in self.terms.items()}
        return Polynomial(target, out)

    # -- normal forms under scaling ------------------------------------------

    def monic(self) -> "Polynomial":
        """self / lc, lc the grevlex leading coefficient, or self when lc is
        already one (polynomials are never mutated, so the result may be
        shared)."""
        lt, lc = self.leading()
        unit = self.context.unit
        if lc == unit:
            return self
        return Polynomial(self.context, {m: unit if m == lt else c / lc
                                         for m, c in self.terms.items()})

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Polynomial({render(self)!r})"


# ---------------------------------------------------------------------------
# canonical rendering (round-trips through lecalc.parse for den-free input)

def _render_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_param_poly(d, names) -> str:
    parts = []
    for m in sorted(d, key=grevlex_key, reverse=True):
        q = d[m]
        piece = render_monomial(m, names)
        aq = abs(q)
        if aq != 1 or not piece:
            piece = f"{_render_frac(aq)}*{piece}" if piece else _render_frac(aq)
        if not parts:
            parts.append(piece if q > 0 else "-" + piece)
        else:
            parts.append(("+" if q > 0 else "-") + piece)
    return "".join(parts)


def render_monomial(m, names) -> str:
    """The exponent tuple m as a product of powers of names, '' for 1."""
    return "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e)


def render(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    vnames = p.context.variables
    pnames = p.context.parameters
    modular = bool(p.context.modulus)
    chunks: list[tuple[str, str]] = []  # (sign, body)
    for m in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[m]
        mono = render_monomial(m, vnames)
        if modular:  # reduced residues, always added
            factors = [str(c.value)] if c.value != 1 or not mono else []
            if mono:
                factors.append(mono)
            chunks.append(("+", "*".join(factors)))
        elif isinstance(c, Fraction) or (c.den_is_one and len(c.num) == 1):
            # a rational times a parameter monomial
            pm, q = ((), c) if isinstance(c, Fraction) else next(iter(c.num.items()))
            pmono = render_monomial(pm, pnames)
            sign = "+" if q > 0 else "-"
            factors = []
            if abs(q) != 1 or (not pmono and not mono):
                factors.append(_render_frac(abs(q)))
            if pmono:
                factors.append(pmono)
            if mono:
                factors.append(mono)
            chunks.append((sign, "*".join(factors)))
        else:
            num = _render_param_poly(c.num, pnames)
            body = f"({num})" if (len(c.num) > 1 or not c.den_is_one) else num
            if not c.den_is_one:
                body += f"/({_render_param_poly(c.den, pnames)})"
            chunks.append(("+", body + (f"*{mono}" if mono else "")))
    first_sign, first_body = chunks[0]
    out = [first_body if first_sign == "+" else "-" + first_body]
    for sign, body in chunks[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# gcd and reducedness at the ring level

def multivariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd over the coefficient field, leading coefficient one under grevlex;
    each pseudo-remainder draws one step of the current budget."""
    if f.context != g.context:
        raise ContextError("gcd across different contexts")
    if f.is_zero() and g.is_zero():
        raise DegenerateInputError("gcd(0, 0) is undefined")
    return Polynomial(f.context, sparse.pgcd(f.terms, g.terms))


def reduced_witness(f: Polynomial) -> Polynomial | None:
    """The nonconstant gcd of f with its partials, when one exists.

    f is first offered to `squarefree.certified_squarefree`, which answers
    only where the gcd would find none: the gcd is nonconstant exactly when
    f has a repeated factor, and the image of a repeated factor divides
    both a certified image and its derivative.  Otherwise one gcd per
    nonzero partial, stopping once the gcd is constant; like every gcd,
    each pseudo-remainder draws one step of the current budget, so a long
    remainder sequence ends in BudgetExceededError."""
    if f.is_zero():
        raise DegenerateInputError("reducedness of the zero polynomial")
    from .squarefree import certified_squarefree
    if certified_squarefree(f):
        return None
    g = f
    for v in f.context.variables:
        d = f.partial(v)
        if not d.is_zero():
            g = multivariate_gcd(g, d)
            if not g.total_degree():
                return None
    return g if g.total_degree() else None


def require_reduced(f: Polynomial):
    w = reduced_witness(f)
    if w is not None:
        raise NonReducedError(f"equation is not reduced; repeated factor {w}", witness=w)
