"""Standard bases and ideal arithmetic.

Global orders run plain Buchberger with full reduction; the local order runs
Mora's tangent-cone algorithm (weak normal forms with an ecart-guided reducer
pool).  Every public operation is deterministic for a fixed input: generators
are canonicalized (monic, deduplicated, sorted) before the pair loop, pairs
are selected by smallest lcm degree with ties broken by the active order, and
reducers are chosen by position (global) or minimal ecart then position
(local).

Reduced bases: for global orders the classical reduced Groebner basis is
emitted.  For the local order a fully reduced basis only exists when the
leading ideal is zero-dimensional (tails can then be reduced canonically
modulo m^N, N the colength, because m^N lies in the ideal locally); in that
case we emit that canonical basis.  Otherwise the basis is minimal, monic
and deterministically sorted, with tails as computed.

A reduction-step budget guards every basis computation; the default is 1e5
single term-cancellation steps per basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, product

from . import sparse
from .errors import (BudgetExceededError, ContextError, DegenerateInputError,
                     InternalCheckError)
from .orders import GREVLEX, LOCAL, MonomialOrder, elimination
from .poly import Context, Polynomial

DEFAULT_BUDGET = 100_000

# test builds flip this: every emitted basis re-verifies the Buchberger
# criterion (all S-polynomial normal forms vanish) and generator membership.
CHECK_BASES = False


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"reduction budget of {self.limit} steps exhausted", self.limit)


@dataclass(frozen=True)
class Ideal:
    context: Context
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.generators:
            raise DegenerateInputError("an ideal needs at least one generator")
        for g in self.generators:
            if g.context != self.context:
                raise ContextError("generator context mismatch")
            if g.is_zero():
                raise DegenerateInputError("zero polynomial among generators")

    def with_extra(self, *polys: Polynomial) -> "Ideal":
        return Ideal(self.context, self.generators + tuple(polys))


@dataclass(frozen=True)
class StandardBasis:
    ideal: Ideal
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    leading_exponents: tuple[tuple[int, ...], ...]
    fully_reduced: bool
    truncation_bound: int | None = field(default=None)


@dataclass(frozen=True)
class ColengthResult:
    """Vector-space dimension of the local quotient; value None means INFINITE."""

    value: int | None
    standard_monomials: tuple[tuple[int, ...], ...] | None

    @property
    def is_finite(self) -> bool:
        return self.value is not None


# ---------------------------------------------------------------------------
# reduction primitives (term dicts; reducer rows are monic)

def _lt(terms, order):
    return max(terms, key=order.key)


def _sub_scaled(h, c, shift, g_terms):
    """h -= c * x^shift * g, in place."""
    for m, v in g_terms.items():
        k = sparse.mmul(m, shift)
        w = h.get(k)
        if w is None:
            h[k] = -(c * v)
        else:
            w = w - c * v
            if w:
                h[k] = w
            else:
                del h[k]


def _reduce_global(p_terms, rows, order, budget):
    """Full division remainder: no term of the result is divisible by any
    row leading monomial.  Rows are (terms, lt) with monic terms."""
    r = dict(p_terms)
    nf = {}
    key = order.key
    while r:
        m = max(r, key=key)
        c = r[m]
        hit = None
        for terms, lt in rows:
            shift = sparse.mdiv(m, lt)
            if shift is not None:
                hit = (terms, shift)
                break
        if hit is None:
            nf[m] = c
            del r[m]
            continue
        budget.tick()
        del r[m]
        terms, shift = hit
        for gm, gv in terms.items():
            k = sparse.mmul(gm, shift)
            if k == m:
                continue
            w = r.get(k)
            if w is None:
                r[k] = -(c * gv)
            else:
                w = w - c * gv
                if w:
                    r[k] = w
                else:
                    del r[k]
    return nf


def _ecart(terms, lt):
    return sparse.max_total_degree(terms) - sum(lt)


def _mora_nf(p_terms, rows, order, budget):
    """Mora weak normal form: the leading term of the result is irreducible,
    and unit * p - result lies in the ideal generated by the rows (in the
    ring localized at the order).  Zero result certifies local membership."""
    pool = [(terms, lt, _ecart(terms, lt)) for terms, lt in rows]
    h = dict(p_terms)
    key = order.key
    while h:
        lm = max(h, key=key)
        best = None
        best_shift = None
        for terms, lt, ec in pool:
            shift = sparse.mdiv(lm, lt)
            if shift is not None and (best is None or ec < best[2]):
                best = (terms, lt, ec)
                best_shift = shift
        if best is None:
            return h
        ec_h = sparse.max_total_degree(h) - sum(lm)
        if best[2] > ec_h:
            pool.append(({k: v for k, v in h.items()}, lm, ec_h))
        budget.tick()
        c = h[lm] / best[0][best[1]]
        _sub_scaled(h, c, best_shift, best[0])
    return h


def _reduce_truncated(p_terms, rows, order, bound, budget):
    """Canonical normal form modulo the local ideal when m^bound is known to
    lie in it: terms of total degree >= bound are discarded outright, the
    rest reduce by leading terms (each rewrite strictly decreases the active
    order, so this terminates and the result is the unique representative
    supported on standard monomials)."""
    r = {m: c for m, c in p_terms.items() if sum(m) < bound}
    nf = {}
    key = order.key
    while r:
        m = max(r, key=key)
        c = r.pop(m)
        hit = None
        for terms, lt in rows:
            shift = sparse.mdiv(m, lt)
            if shift is not None:
                hit = (terms, shift)
                break
        if hit is None:
            nf[m] = c
            continue
        budget.tick()
        terms, shift = hit
        for gm, gv in terms.items():
            k = sparse.mmul(gm, shift)
            if k == m or sum(k) >= bound:
                continue
            w = r.get(k)
            if w is None:
                r[k] = -(c * gv)
            else:
                w = w - c * gv
                if w:
                    r[k] = w
                else:
                    del r[k]
    return nf


# ---------------------------------------------------------------------------
# Buchberger / Mora pair loop

def _terms_fingerprint(terms):
    return tuple(sorted((m, c.sort_key()) for m, c in terms.items()))


def _canonical_input(gens, order):
    seen = []
    rows = []
    for g in gens:
        t = g.monic(order).terms
        fp = _terms_fingerprint(t)
        if fp in seen:
            continue
        seen.append(fp)
        rows.append(t)
    rows.sort(key=lambda t: (sum(_lt(t, order)), order.key(_lt(t, order)),
                             len(t), _terms_fingerprint(t)))
    return rows


def _pair_loop(input_rows, order, budget):
    rows: list[tuple[dict, tuple[int, ...]]] = []
    pairs: list[tuple[int, int, tuple[int, ...]]] = []

    def push(terms):
        lt = _lt(terms, order)
        idx = len(rows)
        for j, (_, lt_j) in enumerate(rows):
            pairs.append((j, idx, sparse.mlcm(lt_j, lt)))
        rows.append((terms, lt))

    for t in input_rows:
        push(t)

    reduce_ = _reduce_global if order.is_global else _mora_nf
    while pairs:
        pairs.sort(key=lambda p: (sum(p[2]), order.key(p[2]), p[0], p[1]))
        i, j, lcm = pairs.pop(0)
        lt_i, lt_j = rows[i][1], rows[j][1]
        if sparse.mmul(lt_i, lt_j) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        si = sparse.mdiv(lcm, lt_i)
        sj = sparse.mdiv(lcm, lt_j)
        s = {}
        _sub_scaled(s, _neg_one_like(rows[i][0]), si, rows[i][0])
        _sub_scaled(s, _one_like_coeff(rows[j][0]), sj, rows[j][0])
        if not s:
            continue
        h = reduce_(s, rows, order, budget)
        if h:
            lt_h = _lt(h, order)
            inv = h[lt_h]
            h = {m: v / inv for m, v in h.items()}
            push(h)
    return rows


def _one_like_coeff(terms):
    c = next(iter(terms.values()))
    return c / c


def _neg_one_like(terms):
    c = next(iter(terms.values()))
    return -(c / c)


def _minimalize(rows, order):
    ordered = sorted(rows, key=lambda r: (sum(r[1]), order.key(r[1])))
    kept = []
    for terms, lt in ordered:
        if any(sparse.mdiv(lt, k_lt) is not None for _, k_lt in kept):
            continue
        kept.append((terms, lt))
    return kept


def _staircase_bounds(exps, nvars):
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in exps
                if all(ej == 0 for j, ej in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return bounds


def _staircase(exps, nvars):
    bounds = _staircase_bounds(exps, nvars)
    if bounds is None:
        return None
    out = []
    for m in product(*(range(b) for b in bounds)):
        if all(sparse.mdiv(m, e) is None for e in exps):
            out.append(m)
    out.sort(key=lambda m: (sum(m), GREVLEX.key(m)))
    return out


def standard_basis(ideal: Ideal, order: MonomialOrder,
                   budget: int = DEFAULT_BUDGET) -> StandardBasis:
    bud = _Budget(budget)
    input_rows = _canonical_input(ideal.generators, order)
    rows = _pair_loop(input_rows, order, bud)
    kept = _minimalize(rows, order)

    trunc_bound = None
    if order.is_global:
        # classical reduced basis: tails carry no reducible term
        final = []
        for idx, (terms, lt) in enumerate(kept):
            others = [kept[k] for k in range(len(kept)) if k != idx]
            red = _reduce_global(terms, others, order, bud) if others else dict(terms)
            inv = red[lt]
            final.append(({m: v / inv for m, v in red.items()}, lt))
        kept = final
        fully = True
    else:
        exps = [lt for _, lt in kept]
        nvars = ideal.context.nvars
        stairs = _staircase(exps, nvars)
        if stairs is not None:
            trunc_bound = len(stairs)
            canon = []
            one = _one_like_coeff(kept[0][0])
            for terms, lt in kept:
                rep = _reduce_truncated({lt: one}, kept, order, trunc_bound, bud)
                g = {lt: one}
                for m, c in rep.items():
                    if m != lt:
                        g[m] = -c
                    else:
                        g[m] = one - c  # cannot happen: lt is not standard
                canon.append((g, lt))
            kept = canon
            fully = True
        else:
            fully = False

    kept.sort(key=lambda r: order.key(r[1]))
    ctx = ideal.context
    elements = tuple(Polynomial(ctx, dict(t)) for t, _ in kept)
    lts = tuple(lt for _, lt in kept)
    sb = StandardBasis(ideal, order, elements, lts, fully, trunc_bound)
    if CHECK_BASES:
        _verify_basis(sb, input_rows, budget)
    return sb


def _verify_basis(sb: StandardBasis, input_rows, budget_limit):
    bud = _Budget(budget_limit)
    order = sb.order
    rows = [(g.terms, lt) for g, lt in zip(sb.elements, sb.leading_exponents)]
    reduce_ = _reduce_global if order.is_global else _mora_nf
    for (t1, l1), (t2, l2) in combinations(rows, 2):
        lcm = sparse.mlcm(l1, l2)
        s = {}
        _sub_scaled(s, _neg_one_like(t1), sparse.mdiv(lcm, l1), t1)
        _sub_scaled(s, _one_like_coeff(t2), sparse.mdiv(lcm, l2), t2)
        if s and reduce_(s, rows, order, bud):
            raise InternalCheckError("S-polynomial does not reduce to zero")
    for t in input_rows:
        if reduce_(dict(t), rows, order, bud):
            raise InternalCheckError("ideal generator does not reduce to zero")


# ---------------------------------------------------------------------------
# membership and normal forms

def normal_form(p: Polynomial, basis: StandardBasis,
                budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Remainder of p modulo the basis.

    Global orders and zero-dimensional local bases return the canonical
    representative supported on standard monomials (a linear map, with
    p - result in the ideal).  Other local bases return the Mora weak normal
    form: the leading term is irreducible and a zero result still certifies
    membership exactly, but tails may keep reducible terms (fully reduced
    tails need not exist as polynomials in the local case)."""
    if p.context != basis.ideal.context:
        raise ContextError("normal form across different contexts")
    bud = _Budget(budget)
    rows = list(zip((g.terms for g in basis.elements), basis.leading_exponents))
    if basis.order.is_global:
        out = _reduce_global(p.terms, rows, basis.order, bud)
    elif basis.truncation_bound is not None:
        out = _reduce_truncated(p.terms, rows, basis.order,
                                basis.truncation_bound, bud)
    else:
        out = _mora_nf(p.terms, rows, basis.order, bud)
    return Polynomial(p.context, out)


def ideals_equal(a: Ideal, b: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    """Two-sided membership (generator presentations are not canonical)."""
    sa = standard_basis(a, GREVLEX, budget)
    sb = standard_basis(b, GREVLEX, budget)
    return (all(normal_form(g, sb, budget).is_zero() for g in a.generators)
            and all(normal_form(g, sa, budget).is_zero() for g in b.generators))


# ---------------------------------------------------------------------------
# elimination, intersection, saturation

def _embed(p: Polynomial, target: Context) -> Polynomial:
    src = p.context
    if src.parameters != target.parameters:
        raise ContextError("embedding across different parameter tuples")
    vmap = [target.var_index(v) for v in src.variables]
    terms = {}
    for m, c in p.terms.items():
        nm = [0] * target.nvars
        for i, e in enumerate(m):
            nm[vmap[i]] = e
        terms[tuple(nm)] = c
    return Polynomial(target, terms)


def eliminate(ideal: Ideal, drop: tuple[str, ...],
              budget: int = DEFAULT_BUDGET) -> Ideal | None:
    """Generators of ideal ∩ k[remaining variables], or None for the zero
    ideal (the empty-intersection marker)."""
    ctx = ideal.context
    drop_idx = tuple(sorted(ctx.var_index(v) for v in drop))
    remaining = tuple(v for i, v in enumerate(ctx.variables) if i not in drop_idx)
    if not remaining:
        raise ContextError("cannot eliminate every variable")
    order = elimination(drop_idx)
    sb = standard_basis(ideal, order, budget)
    kept = []
    for g, lt in zip(sb.elements, sb.leading_exponents):
        if any(lt[i] for i in drop_idx):
            continue
        kept.append(g.restrict_to(remaining))
    if not kept:
        return None
    return Ideal(replace(ctx, variables=remaining), tuple(kept))


def intersect(a: Ideal, b: Ideal, budget: int = DEFAULT_BUDGET) -> Ideal:
    if a.context != b.context:
        raise ContextError("intersection across different contexts")
    ctx = a.context
    aux = ctx.fresh_name("u")
    ext = ctx.with_prepended_variable(aux)
    u = Polynomial.variable(ext, aux)
    one = Polynomial.one(ext)
    gens = [u * _embed(g, ext) for g in a.generators]
    gens += [(one - u) * _embed(g, ext) for g in b.generators]
    out = eliminate(Ideal(ext, tuple(gens)), (aux,), budget)
    if out is None:
        raise InternalCheckError("intersection of nonzero ideals came out zero")
    return Ideal(ctx, tuple(g.rename(ctx) for g in out.generators))


def _normalized(ideal: Ideal, budget: int) -> Ideal:
    sb = standard_basis(ideal, GREVLEX, budget)
    return Ideal(ideal.context, sb.elements)


def _saturate_by_element(i: Ideal, g: Polynomial, budget: int) -> Ideal:
    """I : g^infinity = (I + (1 - u*g)) ∩ F[z], u a fresh variable
    (Rabinowitsch): one elimination."""
    ctx = i.context
    aux = ctx.fresh_name("u")
    ext = ctx.with_prepended_variable(aux)
    u = Polynomial.variable(ext, aux)
    gens = [_embed(p, ext) for p in i.generators]
    gens.append(Polynomial.one(ext) - u * _embed(g, ext))
    out = eliminate(Ideal(ext, tuple(gens)), (aux,), budget)
    if out is None:
        raise InternalCheckError("saturation of a nonzero ideal came out zero")
    return Ideal(ctx, tuple(p.rename(ctx) for p in out.generators))


def saturate(i: Ideal, k: Ideal, budget: int = DEFAULT_BUDGET) -> Ideal:
    """I : K^infinity as the intersection of I : g^infinity over the
    generators g of K, returned as the (unique) reduced GREVLEX basis.
    Idempotent; the result contains I."""
    if i.context != k.context:
        raise ContextError("saturation across different contexts")
    acc = None
    for g in k.generators:
        part = _saturate_by_element(i, g, budget)
        acc = part if acc is None else intersect(acc, part, budget)
    return _normalized(acc, budget)


# ---------------------------------------------------------------------------
# numerical invariants of ideals

def colength_at_origin(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> ColengthResult:
    """dim_F of (local ring at the origin) / ideal, F the coefficient field.

    Finite exactly when every variable shows a pure power among the local
    leading terms; then the standard monomials under the staircase are
    returned too."""
    sb = standard_basis(ideal, LOCAL, budget)
    stairs = _staircase(sb.leading_exponents, ideal.context.nvars)
    if stairs is None:
        return ColengthResult(None, None)
    return ColengthResult(len(stairs), tuple(stairs))


def dimension_at_origin(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int | None:
    """Krull dimension of the leading-term quotient under the local order;
    None means the germ is empty (the ideal contains a local unit)."""
    sb = standard_basis(ideal, LOCAL, budget)
    exps = sb.leading_exponents
    if any(not any(e) for e in exps):
        return None
    n = ideal.context.nvars
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(all(i in s for i, ei in enumerate(e) if ei) for e in exps):
                return size
    raise InternalCheckError("dimension search fell through")


def contains_local_unit(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> bool:
    sb = standard_basis(ideal, LOCAL, budget)
    return any(not any(e) for e in sb.leading_exponents)


def colength_global(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int | None:
    """Affine quotient dimension dim_F F[z]/I (all points, with multiplicity)."""
    sb = standard_basis(ideal, GREVLEX, budget)
    stairs = _staircase(sb.leading_exponents, ideal.context.nvars)
    return None if stairs is None else len(stairs)


# ---------------------------------------------------------------------------
# independent colength oracle (tests and self-checks)

def _monomials_of_degree(ctx: Context, n: int):
    out = []

    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(tuple(prefix) + (rem,))
            return
        for e in range(rem + 1):
            rec(prefix + [e], rem - e, slots - 1)

    rec([], n, ctx.nvars)
    return out


def _truncated_colength(ideal: Ideal, n: int, budget: int) -> int:
    ctx = ideal.context
    ms = [Polynomial.monomial(ctx, m) for m in _monomials_of_degree(ctx, n)]
    sb = standard_basis(Ideal(ctx, ideal.generators + tuple(ms)), GREVLEX, budget)
    stairs = _staircase(sb.leading_exponents, ctx.nvars)
    if stairs is None:
        raise InternalCheckError("truncated ideal must have finite colength")
    return len(stairs)


def colength_by_truncation(ideal: Ideal, budget: int = DEFAULT_BUDGET) -> int:
    """Colength via global bases of I + m^N with N doubling until two
    consecutive values agree.  Independent of the local (Mora) machinery."""
    maxdeg = max(g.total_degree() for g in ideal.generators)
    n = 2 * maxdeg + 2
    prev = _truncated_colength(ideal, n, budget)
    while True:
        n *= 2
        if n > 4096:
            raise DegenerateInputError(
                "truncation oracle did not stabilize (colength likely infinite)")
        cur = _truncated_colength(ideal, n, budget)
        if cur == prev:
            return cur
        prev = cur
