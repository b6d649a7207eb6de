"""Exact multivariate polynomials over QQ and over fraction fields QQ(params).

A `Context` fixes the ring: an ordered tuple of ring variables and an ordered
tuple of parameters.  Ring arithmetic happens on sparse exponent dicts whose
values are `Coefficient`s, elements of the fraction field of the parameter
polynomial ring.  With no parameters a Coefficient degenerates to a plain
rational, so one implementation serves QQ, QQ(t), QQ(z1) and QQ(t)(z1) alike.

Everything here is immutable by convention: operations return fresh objects
and never mutate term dicts that have been handed out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import sparse
from .errors import ContextError, DegenerateInputError, NonReducedError, UnluckySpecializationError
from .orders import GREVLEX

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Context:
    """Ordered ring variables plus ordered coefficient-field parameters."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.variables) + list(self.parameters)
        if not self.variables:
            raise ContextError("a context needs at least one ring variable")
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
        return Context(self.variables[:i] + self.variables[i + 1:],
                       self.parameters + (name,))

    def without_parameter(self, name: str) -> "Context":
        if name not in self.parameters:
            raise ContextError(f"{name!r} is not a parameter of {self}")
        return Context(self.variables,
                       tuple(p for p in self.parameters if p != name))

    def with_prepended_variable(self, name: str) -> "Context":
        return Context((name,) + self.variables, self.parameters)


# ---------------------------------------------------------------------------
# the coefficient field QQ(parameters)

_ZERO_KEY_CACHE: dict[int, tuple[int, ...]] = {}


def _zkey(arity: int) -> tuple[int, ...]:
    k = _ZERO_KEY_CACHE.get(arity)
    if k is None:
        k = (0,) * arity
        _ZERO_KEY_CACHE[arity] = k
    return k


_FR_ONE = Fraction(1)


class Coefficient:
    """An element num/den of QQ(p1, ..., pk), stored reduced with monic den.

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
    def one(arity: int) -> "Coefficient":
        z = _zkey(arity)
        return Coefficient({z: _FR_ONE}, {z: _FR_ONE}, arity, _reduced=True)

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

    def is_constant(self) -> bool:
        return (not self.num or (len(self.num) == 1 and not any(next(iter(self.num))))) \
            and self.den_is_one

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ContextError(f"coefficient {self!r} is not a rational constant")
        if not self.num:
            return Fraction(0)
        return next(iter(self.num.values()))

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        a = self.arity
        if self.den_is_one and other.den_is_one:
            return Coefficient(sparse.padd(self.num, other.num), self.den, a, _reduced=True)
        num = sparse.padd(sparse.pmul(self.num, other.den), sparse.pmul(other.num, self.den))
        return Coefficient(num, sparse.pmul(self.den, other.den), a)

    def __sub__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        a = self.arity
        if self.den_is_one and other.den_is_one:
            return Coefficient(sparse.psub(self.num, other.num), self.den, a, _reduced=True)
        num = sparse.psub(sparse.pmul(self.num, other.den), sparse.pmul(other.num, self.den))
        return Coefficient(num, sparse.pmul(self.den, other.den), a)

    def __neg__(self):
        return Coefficient(sparse.pneg(self.num), self.den, self.arity, _reduced=True)

    def __mul__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        a = self.arity
        if self.den_is_one and other.den_is_one:
            return Coefficient(sparse.pmul(self.num, other.num), self.den, a, _reduced=True)
        return Coefficient(sparse.pmul(self.num, other.num),
                           sparse.pmul(self.den, other.den), a)

    def __truediv__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        return Coefficient(sparse.pmul(self.num, other.den),
                           sparse.pmul(self.den, other.num), self.arity)

    def __pow__(self, n: int):
        if n == 0:
            return Coefficient.one(self.arity)
        if n < 0:
            inv = Coefficient(self.den, self.num, self.arity)
            return inv ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (self.arity == other.arity and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.arity, tuple(sorted(self.num.items())),
                     tuple(sorted(self.den.items()))))

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

    def subs_param(self, index: int, value: Fraction) -> "Coefficient":
        """Evaluate one parameter at a rational; arity drops by one."""

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
        return Coefficient(ev(self.num), den, self.arity - 1)

    def mul_param_monomial(self, expo: tuple[int, ...]) -> "Coefficient":
        one = _FR_ONE
        return Coefficient(sparse.pshift(self.num, expo, one), self.den, self.arity)


def _is_den_one(den, arity) -> bool:
    return len(den) == 1 and den.get(_zkey(arity)) == 1


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("context", "terms")

    def __init__(self, context: Context, terms: dict):
        self.context = context
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, context: Context, terms: dict) -> "Polynomial":
        return cls(context, {m: c for m, c in terms.items() if c})

    @classmethod
    def zero(cls, context: Context) -> "Polynomial":
        return cls(context, {})

    @classmethod
    def constant(cls, context: Context, q) -> "Polynomial":
        c = Coefficient.from_fraction(q, context.nparams)
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
        return cls(context, {e: Coefficient.one(context.nparams)})

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
        c = coeff if isinstance(coeff, Coefficient) else Coefficient.from_fraction(coeff, context.nparams)
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

    def constant_coefficient(self) -> Coefficient:
        z = (0,) * self.context.nvars
        return self.terms.get(z, Coefficient.zero(self.context.nparams))

    def leading(self, order) -> tuple[tuple[int, ...], Coefficient]:
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
            c = Coefficient.from_fraction(other, self.context.nparams)
            return Polynomial(self.context, sparse.pscale(self.terms, c) if c else {})
        if isinstance(other, Coefficient):
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
        np = self.context.nparams
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1:]
            scaled = c * Coefficient.from_fraction(e, np)
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
        they pass through unchanged."""
        ctx = self.context
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
            acc = acc + piece * c.embed(target.nparams, index_map)
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
            nc = c.embed(np, index_map)
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
        target = Context(tuple(variables), ctx.parameters)
        out = {tuple(m[i] for i in keep): c for m, c in self.terms.items()}
        return Polynomial(target, out)

    def rename(self, target: Context) -> "Polynomial":
        """Reinterpret in a same-shape context (identical arities)."""
        if (target.nvars, target.nparams) != (self.context.nvars, self.context.nparams):
            raise ContextError("rename requires identical context shape")
        return Polynomial(target, dict(self.terms))

    # -- normal forms under scaling ------------------------------------------

    def monic(self, order) -> "Polynomial":
        _, lc = self.leading(order)
        inv = Coefficient.one(self.context.nparams) / lc
        return Polynomial(self.context, sparse.pscale(self.terms, inv))

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
    chunks: list[tuple[str, str]] = []  # (sign, body)
    for m in sorted(p.terms, key=GREVLEX.key, reverse=True):
        c = p.terms[m]
        mono = _mono_str(m, vnames)
        if c.den_is_one and len(c.num) <= 1:
            (pm, q), = c.num.items()
            pmono = _mono_str(pm, pnames) if any(pm) else ""
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
    if f.is_zero():
        return g.monic(GREVLEX)
    if g.is_zero():
        return f.monic(GREVLEX)
    return Polynomial(f.context, sparse.pgcd(f.terms, g.terms))


def is_reduced(f: Polynomial) -> bool:
    """True when f is squarefree (char 0: gcd with all first partials is
    constant), i.e. the equation defines a reduced hypersurface germ."""
    if f.is_zero():
        raise DegenerateInputError("reducedness of the zero polynomial")
    g = f
    for v in f.context.variables:
        d = f.partial(v)
        if d.is_zero():
            continue
        g = multivariate_gcd(g, d)
        if len(g.terms) == 1 and not any(next(iter(g.terms))):
            return True
    return len(g.terms) == 1 and not any(next(iter(g.terms)))


def reduced_witness(f: Polynomial) -> Polynomial | None:
    """The nonconstant gcd of f with its partials, when one exists."""
    if is_reduced(f):
        return None
    g = f
    for v in f.context.variables:
        d = f.partial(v)
        if not d.is_zero():
            g = multivariate_gcd(g, d)
    return g


def require_reduced(f: Polynomial):
    w = reduced_witness(f)
    if w is not None:
        raise NonReducedError(f"equation is not reduced; repeated factor {w}", witness=w)
