"""Exact multivariate polynomials over QQ, over fraction fields QQ(params)
and over prime fields GF(p).

A `Context` fixes the ring: an ordered tuple of ring variables, an ordered
tuple of parameters and a modulus.  Ring arithmetic happens on sparse
exponent dicts whose values are field elements of a class that
`Context.coefficient` alone picks: plain `fractions.Fraction`s over QQ (no
parameters, modulus 0); `Coefficient`s, elements of the fraction field of
the parameter polynomial ring, over QQ(parameters) (at least one, so one
implementation serves QQ(t), QQ(z1) and QQ(t)(z1) alike); and `Modular`
residues over GF(p) (a prime modulus, no parameters).  All three share one
protocol: + - * /, negation, truthiness as a zero test, ==, hash and a
total order < for canonical sorting.  Only the constructors, the moves
between fields and `render` look at the field; the arithmetic never does.

Everything here is immutable by convention: operations return fresh objects
and never mutate term dicts that have been handed out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from . import sparse
from .errors import ContextError, DegenerateInputError, NonReducedError, UnluckySpecializationError
from .orders import GREVLEX

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Context:
    """Ordered ring variables, ordered coefficient-field parameters, and the
    field's characteristic: modulus 0 is QQ(parameters), a prime p is GF(p)
    (no parameters allowed; primality is the caller's promise)."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()
    modulus: int = 0

    def __post_init__(self):
        names = list(self.variables) + list(self.parameters)
        if not self.variables:
            raise ContextError("a context needs at least one ring variable")
        if self.modulus < 0 or self.modulus == 1:
            raise ContextError(f"bad modulus {self.modulus}")
        if self.modulus and self.parameters:
            raise ContextError(
                f"a context over GF({self.modulus}) allows no parameters")
        for n in names:
            if not _IDENT_RE.match(n):
                raise ContextError(f"bad identifier {n!r}")
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate identifier among {names}")

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

    def variable_as_parameter(self, name: str) -> "Context":
        i = self.var_index(name)
        return replace(self,
                       variables=self.variables[:i] + self.variables[i + 1:],
                       parameters=self.parameters + (name,))

    def without_parameter(self, name: str) -> "Context":
        if name not in self.parameters:
            raise ContextError(f"{name!r} is not a parameter of {self}")
        return replace(self, parameters=tuple(p for p in self.parameters
                                              if p != name))

    def with_prepended_variable(self, name: str) -> "Context":
        return replace(self, variables=(name,) + self.variables)

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


# ---------------------------------------------------------------------------
# the coefficient field QQ(parameters), at least one parameter

_ZERO_KEY_CACHE: dict[int, tuple[int, ...]] = {}


def _zkey(arity: int) -> tuple[int, ...]:
    k = _ZERO_KEY_CACHE.get(arity)
    if k is None:
        k = (0,) * arity
        _ZERO_KEY_CACHE[arity] = k
    return k


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
            self.den = {_zkey(arity): _FR_ONE}
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
        return Coefficient({}, {_zkey(arity): _FR_ONE}, arity, _reduced=True)

    @staticmethod
    def from_fraction(q, arity: int) -> "Coefficient":
        q = Fraction(q)
        z = _zkey(arity)
        if q == 0:
            return Coefficient.zero(arity)
        return Coefficient({z: q}, {z: _FR_ONE}, arity, _reduced=True)

    @staticmethod
    def from_param_poly(num, arity: int) -> "Coefficient":
        return Coefficient(dict(num), {_zkey(arity): _FR_ONE}, arity, _reduced=True)

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
        q = other.num.get(_zkey(self.arity))
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

    def embed(self, new_arity: int, index_map: tuple[int, ...]) -> "Coefficient":
        """Re-index parameters into a wider tuple; index_map[old] = new slot."""

        def remap(d):
            out = {}
            for m, c in d.items():
                nm = [0] * new_arity
                for old, e in enumerate(m):
                    nm[index_map[old]] = e
                out[tuple(nm)] = c
            return out

        return Coefficient(remap(self.num), remap(self.den), new_arity, _reduced=True)

    def subs_param(self, index: int, value: Fraction) -> "Coefficient | Fraction":
        """Evaluate one parameter at a rational; arity drops by one, and at
        arity one the result is a plain Fraction."""

        def ev(d):
            out = {}
            for m, c in d.items():
                scaled = c * value ** m[index]
                key = m[:index] + m[index + 1:]
                w = out.get(key)
                w = scaled if w is None else w + scaled
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
            return out

        den = ev(self.den)
        if not den:
            raise UnluckySpecializationError(
                "specialization hit a coefficient denominator zero")
        if self.arity == 1:
            return ev(self.num).get((), 0) / den[()]
        return Coefficient(ev(self.num), den, self.arity - 1)

    def mul_param_monomial(self, expo: tuple[int, ...]) -> "Coefficient":
        one = _FR_ONE
        return Coefficient(sparse.pshift(self.num, expo, one), self.den, self.arity)

    def residue(self, point: tuple[int, ...], prime: int) -> "Modular":
        """The image in GF(prime) of this coefficient with its parameters set
        to the residues in point; unlucky when prime divides a rational
        denominator or the denominator vanishes at point."""

        def ev(d):
            acc = 0
            for m, q in d.items():
                term = Modular.from_rational(q, prime).value
                for x, e in zip(point, m):
                    term = term * pow(x, e, prime) % prime
                acc += term
            return acc % prime

        try:
            num, den = ev(self.num), ev(self.den)
        except ZeroDivisionError as exc:
            raise UnluckySpecializationError(str(exc)) from exc
        if not den:
            raise UnluckySpecializationError(
                f"specialization mod {prime} hit a coefficient denominator zero")
        return Modular(num * pow(den, -1, prime), prime)


def _is_den_one(den, arity) -> bool:
    return len(den) == 1 and den.get(_zkey(arity)) == 1


# ---------------------------------------------------------------------------
# the coefficient field GF(p)

class Modular:
    """An element of the prime field GF(modulus), stored as its residue in
    [0, modulus).  It offers exactly what `sparse.py` and the basis engine
    use: + - * /, negation, truthiness as a zero test, == and hash.  Both
    operands of an operation come from one context, so the moduli agree and
    are not compared."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    @staticmethod
    def from_rational(q, modulus: int) -> "Modular":
        q = Fraction(q)
        if q.denominator % modulus == 0:
            raise ZeroDivisionError(f"{q} has no image in GF({modulus})")
        return Modular(q.numerator * pow(q.denominator, -1, modulus), modulus)

    def __bool__(self):
        return self.value != 0

    def __add__(self, other):
        return Modular(self.value + other.value, self.modulus)

    def __sub__(self, other):
        return Modular(self.value - other.value, self.modulus)

    def __neg__(self):
        return Modular(-self.value, self.modulus)

    def __mul__(self, other):
        return Modular(self.value * other.value, self.modulus)

    def __truediv__(self, other):
        if not other.value:
            raise ZeroDivisionError(f"division by zero in GF({self.modulus})")
        return Modular(self.value * pow(other.value, -1, self.modulus),
                       self.modulus)

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

    def involves(self, name: str) -> bool:
        i = self.context.var_index(name)
        return any(m[i] for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            raise DegenerateInputError("total degree of the zero polynomial")
        return sparse.max_total_degree(self.terms)

    def min_total_degree(self) -> int:
        if not self.terms:
            raise DegenerateInputError("order of the zero polynomial")
        return sparse.min_total_degree(self.terms)

    def constant_coefficient(self) -> "Fraction | Coefficient | Modular":
        z = (0,) * self.context.nvars
        c = self.terms.get(z)
        return self.context.coefficient(0) if c is None else c

    def leading(self, order) -> tuple[tuple[int, ...], "Fraction | Coefficient | Modular"]:
        if not self.terms:
            raise DegenerateInputError("leading term of the zero polynomial")
        m = max(self.terms, key=order.key)
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
        if n == 0:
            return Polynomial.one(self.context)
        out = self
        for _ in range(n - 1):
            out = out * self
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
        field = self.context.coefficient
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1:]
            scaled = c * field(e)
            w = out.get(nm)
            w = scaled if w is None else w + scaled
            if w:
                out[nm] = w
            elif nm in out:
                del out[nm]
        return Polynomial(self.context, out)

    # -- substitution and context moves --------------------------------------

    def substitute(self, images: dict[str, "Polynomial"], target: Context) -> "Polynomial":
        """Map every ring variable to its image polynomial in the target context.

        Parameters of the source context must all exist in the target context;
        they pass through unchanged.  Residues mod p pass through into a
        target over the same GF(p).  A rational whose denominator p divides
        has no image in GF(p): UnluckySpecializationError."""
        ctx = self.context
        if ctx.modulus and target.modulus != ctx.modulus:
            raise ContextError(
                f"target context is not over GF({ctx.modulus})")
        for v in ctx.variables:
            if v not in images:
                raise ContextError(f"no image supplied for variable {v!r}")
        for im in images.values():
            if im.context != target:
                raise ContextError("image polynomial lives in the wrong context")
        try:
            index_map = tuple(target.parameters.index(p) for p in ctx.parameters)
        except ValueError as exc:
            raise ContextError(f"target context lacks a source parameter: {exc}") from None
        imgs = [images[v] for v in ctx.variables]
        acc = Polynomial.zero(target)
        for m, c in self.terms.items():
            piece = Polynomial.one(target)
            for i, e in enumerate(m):
                if e:
                    piece = piece * imgs[i] ** e
            if isinstance(c, Fraction):
                try:
                    c = target.coefficient(c)
                except ZeroDivisionError as exc:
                    raise UnluckySpecializationError(str(exc)) from exc
            elif isinstance(c, Coefficient):
                c = c.embed(target.nparams, index_map)
            acc = acc + piece * c
        return acc

    def specialize_parameter(self, name: str, value) -> "Polynomial":
        """Evaluate one parameter at an exact rational."""
        if name not in self.context.parameters:
            raise ContextError(f"{name!r} is not a parameter of {self.context}")
        idx = self.context.parameters.index(name)
        value = Fraction(value)
        target = self.context.without_parameter(name)
        out = {}
        for m, c in self.terms.items():
            nc = c.subs_param(idx, value)
            if nc:
                out[m] = nc
        return Polynomial(target, out)

    def specialize_parameter_mod(self, name: str, value: int,
                                 prime: int) -> "Polynomial":
        """Evaluate the only parameter at value in GF(prime); the image lives
        in the GF(prime) context on the same variables.  Raises
        UnluckySpecializationError when prime divides a rational denominator
        or a coefficient's denominator vanishes at value."""
        if self.context.parameters != (name,):
            raise ContextError(
                f"{name!r} is not the only parameter of {self.context}")
        target = replace(self.context, parameters=(), modulus=prime)
        point = (value % prime,)
        out = {}
        for m, c in self.terms.items():
            nc = c.residue(point, prime)
            if nc:
                out[m] = nc
        return Polynomial(target, out)

    def promote_variable_to_parameter(self, name: str) -> "Polynomial":
        """Move a ring variable into the coefficient field (it becomes the
        last parameter), i.e. regard it as transcendental over the base."""
        ctx = self.context
        i = ctx.var_index(name)
        target = ctx.variable_as_parameter(name)
        np = target.nparams
        index_map = tuple(range(ctx.nparams))
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            nm = m[:i] + m[i + 1:]
            nc = target.coefficient(c) if isinstance(c, Fraction) \
                else c.embed(np, index_map)
            if e:
                nc = nc.mul_param_monomial((0,) * (np - 1) + (e,))
            w = out.get(nm)
            w = nc if w is None else w + nc
            if w:
                out[nm] = w
            elif nm in out:
                del out[nm]
        return Polynomial(target, out)

    def eval_variable_zero(self, name: str) -> "Polynomial":
        i = self.context.var_index(name)
        return Polynomial(self.context,
                          {m: c for m, c in self.terms.items() if not m[i]})

    def restrict_to(self, variables: tuple[str, ...]) -> "Polynomial":
        """Transplant into the subring on the given variables; the polynomial
        must not involve any dropped variable."""
        ctx = self.context
        keep = [ctx.var_index(v) for v in variables]
        dropped = [i for i in range(ctx.nvars) if i not in keep]
        for m in self.terms:
            for i in dropped:
                if m[i]:
                    raise ContextError(
                        f"polynomial involves dropped variable {ctx.variables[i]!r}")
        target = replace(ctx, variables=tuple(variables))
        out = {tuple(m[i] for i in keep): c for m, c in self.terms.items()}
        return Polynomial(target, out)

    # -- normal forms under scaling ------------------------------------------

    def monic(self, order) -> "Polynomial":
        """self / lc, or self when lc is already one (polynomials are never
        mutated, so the result may be shared)."""
        lt, lc = self.leading(order)
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
    for m in sorted(d, key=GREVLEX.key, reverse=True):
        q = d[m]
        body = [x for x in
                (f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e)]
        aq = abs(q)
        if aq != 1 or not body:
            body.insert(0, _render_frac(aq))
        piece = "*".join(body)
        if not parts:
            parts.append(piece if q > 0 else "-" + piece)
        else:
            parts.append(("+" if q > 0 else "-") + piece)
    return "".join(parts)


def _mono_str(m, names) -> str:
    return "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e)


def render(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    vnames = p.context.variables
    pnames = p.context.parameters
    modular = bool(p.context.modulus)
    chunks: list[tuple[str, str]] = []  # (sign, body)
    for m in sorted(p.terms, key=GREVLEX.key, reverse=True):
        c = p.terms[m]
        mono = _mono_str(m, vnames)
        if modular:  # reduced residues, always added
            factors = [str(c.value)] if c.value != 1 or not mono else []
            if mono:
                factors.append(mono)
            chunks.append(("+", "*".join(factors)))
        elif isinstance(c, Fraction) or (c.den_is_one and len(c.num) == 1):
            # a rational times a parameter monomial
            pm, q = ((), c) if isinstance(c, Fraction) else next(iter(c.num.items()))
            pmono = _mono_str(pm, pnames)
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
    """gcd over the coefficient field, leading coefficient one under grevlex."""
    if f.context != g.context:
        raise ContextError("gcd across different contexts")
    if f.is_zero() and g.is_zero():
        raise DegenerateInputError("gcd(0, 0) is undefined")
    return Polynomial(f.context, sparse.pgcd(f.terms, g.terms))


def is_reduced(f: Polynomial) -> bool:
    """True when f is squarefree (char 0: gcd with all first partials is
    constant), i.e. the equation defines a reduced hypersurface germ."""
    return reduced_witness(f) is None


def reduced_witness(f: Polynomial) -> Polynomial | None:
    """The nonconstant gcd of f with its partials, when one exists; one gcd
    per nonzero partial, stopping once the gcd is constant."""
    if f.is_zero():
        raise DegenerateInputError("reducedness of the zero polynomial")
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
