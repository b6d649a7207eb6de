"""Standard bases and ideal arithmetic.

Global orders run plain Buchberger with full reduction; the local order runs
Mora's tangent-cone algorithm (weak normal forms with an ecart-guided reducer
pool) until the leading exponents reach a highest corner: a pure power
z_i^a_i for every variable.  Then m^D lies in the ideal locally, with
D = 1 + sum(a_i - 1), and the rest of the loop reduces modulo m^D by leading
terms instead (Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.7).  Every public operation is deterministic for a fixed input:
generators are canonicalized (monic, deduplicated, sorted) before the pair
loop, pairs are selected by smallest lcm degree with ties broken by the
active order (a heap of pairs), and reducers are chosen by position (global
and truncated) or minimal ecart then position (Mora).  Each reducer takes
leading terms off a heap of the remainder's monomials (Monagan-Pearce,
CASC 2007) instead of rescanning it.  Monomial orders memoize their keys
in one table per key and order (see `lecalc.orders`).

Reduced bases: one rule builds every reduced element, lt - NF(lt) =
lt + NF(tail) for each leading term lt of a minimal basis (Greuel-Pfister,
1.7).  Under a global order this is the classical reduced Groebner basis.
Under the local order a fully reduced basis only exists when the leading
ideal is zero-dimensional: the normal form is then taken modulo m^N,
N = 1 + the largest degree of a standard monomial, because every monomial of
degree N is a leading monomial and so m^N lies in the ideal locally.
Otherwise the basis is minimal, monic and deterministically sorted, with
tails as computed.  A colength is an int, or None when it is infinite.

Saturation: I : K^infinity is the intersection of the factors
I : g^infinity over the generators g of K, and `saturate` returns its
reduced GREVLEX basis.  Each factor splits I's generators into blocks linked
by shared variables.  Only the blocks that share a variable with g are
saturated, the rest are added back unchanged: one generator by gcds, with
no basis, several by a Rabinowitsch elimination.  Factors equal to (1) drop
out of the intersection; principal factors are intersected by lcms, the
others by an elimination.  So the polar curve of z1^a*z2^b + z2^c + z3^d
needs no basis at all.

Colengths and dimensions at the origin go block by block too: the local
algebra of an ideal is the tensor product of the algebras of its blocks,
so colengths multiply and dimensions add (Sebastiani-Thom, Invent. Math.
13, 1971: mu(g(x) + h(y)) = mu(g) * mu(h), here for ideals).  A variable
in no generator makes the colength infinite and adds 1 to the dimension; a
block in one variable has the least order of its generators as colength
(the local ring is a discrete valuation ring) and dimension 0; a single
generator in k variables has dimension k - 1, and infinite colength when
k >= 2.  Any other block takes one local basis in its own variables, so a
coupled ideal, one block in every variable, takes the one basis it always
did.

Each term-cancellation step draws on the budget `step_budget` made active,
or outside any block on a fresh DEFAULT_BUDGET per basis and normal form.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import ge

from . import sparse
from .errors import (BudgetExceededError, ContextError, DegenerateInputError,
                     InternalCheckError)
from .orders import GREVLEX, LOCAL, MonomialOrder, elimination
from .poly import Context, Polynomial, multivariate_gcd

DEFAULT_BUDGET = 100_000

# test builds flip this: every emitted basis re-verifies the Buchberger
# criterion (all S-polynomial normal forms vanish) and generator membership.
CHECK_BASES = False


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
    """One budget of `limit` steps for every basis and normal form computed
    in the block; yields it, and restores the outer budget on exit."""
    global _active_budget
    outer, _active_budget = _active_budget, _Budget(limit)
    try:
        yield _active_budget
    finally:
        _active_budget = outer


def _current_budget() -> _Budget:
    """The active budget, or a fresh DEFAULT_BUDGET outside any block."""
    return _active_budget or _Budget(DEFAULT_BUDGET)


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
    # local zero-dimensional bases only: the monomials outside the leading
    # ideal, sorted by degree and then grevlex
    standard_monomials: tuple[tuple[int, ...], ...] | None = None

    @property
    def truncation_bound(self) -> int | None:
        """N = 1 + the largest degree of a standard monomial, so that m^N
        lies in the ideal; tails and normal forms are reduced modulo m^N.
        None unless the basis is local and zero-dimensional."""
        return _truncation_bound(self.standard_monomials)


# ---------------------------------------------------------------------------
# reduction primitives (term dicts; reducer rows are monic)

def _lt(terms, order):
    return max(terms, key=order.key)


def _sub_scaled(h, c, shift, g_terms, queue, neg_key):
    """h -= c * x^shift * g, in place; monomials new to h go on the queue."""
    for m, v in g_terms.items():
        k = sparse.mmul(m, shift)
        w = h.get(k)
        if w is None:
            h[k] = -(c * v)
            heappush(queue, (neg_key(k), k))
        else:
            w = w - c * v
            if w:
                h[k] = w
            else:
                del h[k]


# Leading terms come off a heap keyed on order.neg_key, with lazy deletion:
# an entry whose monomial has since cancelled is skipped when popped.  The
# orders are multiplicative, so a reduction step only adds terms below the
# leading term it cancels, and the heap yields leading terms in order.

def _queue(terms, neg_key):
    queue = [(neg_key(m), m) for m in terms]
    heapify(queue)
    return queue


def _reduce(p_terms, rows, order, budget, bound=None):
    """Full division remainder: no term of the result is divisible by any
    row leading monomial.  Rows are (terms, lt) with monic terms.

    With a bound, m^bound must lie in the (local) ideal: terms of total
    degree >= bound are then discarded outright and the rest reduce by
    leading terms.  Each rewrite strictly decreases the active order on the
    finitely many monomials of degree < bound, so this terminates under the
    local order too, and the result is the unique representative supported
    on standard monomials."""
    r = {m: c for m, c in p_terms.items() if bound is None or sum(m) < bound}
    neg_key = order.neg_key
    queue = _queue(r, neg_key)
    nf = {}
    while queue:
        m = heappop(queue)[1]
        c = r.pop(m, None)
        if c is None:
            continue
        for terms, lt in rows:
            shift = sparse.mdiv(m, lt)
            if shift is not None:
                break
        else:
            nf[m] = c
            continue
        budget.tick()
        for gm, gv in terms.items():
            k = sparse.mmul(gm, shift)
            if k == m or (bound is not None and sum(k) >= bound):
                continue
            w = r.get(k)
            if w is None:
                r[k] = -(c * gv)
                heappush(queue, (neg_key(k), k))
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
    neg_key = order.neg_key
    queue = _queue(h, neg_key)
    while h:
        lm = queue[0][1]
        if lm not in h:
            heappop(queue)
            continue
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
        _sub_scaled(h, c, best_shift, best[0], queue, neg_key)
    return h


# ---------------------------------------------------------------------------
# Buchberger / Mora pair loop

def _terms_fingerprint(terms):
    return tuple(sorted(terms.items()))


def _canonical_input(gens, order):
    """Monic, deduplicated rows sorted by (deg lt, order key of lt, length,
    terms)."""
    keyed = {}
    for g in gens:
        t = g.monic(order).terms
        fp = _terms_fingerprint(t)
        if fp not in keyed:
            lt = _lt(t, order)
            keyed[fp] = ((sum(lt), order.key(lt), len(t), fp), t)
    return [t for _, t in sorted(keyed.values(), key=lambda kt: kt[0])]


def _pair_loop(input_rows, order, budget):
    """Buchberger's loop, or Mora's under the local order, over monic rows.

    Pairs wait on a heap keyed on (deg lcm, order key of lcm, i, j): the
    smallest lcm degree first, ties broken by the active order.  Under the
    local order the loop watches for the highest corner: rows and
    S-polynomials never leave the variables that the input rows involve, and
    once the leading exponents show a pure power z_i^a_i for each of these,
    every monomial in them of degree D = 1 + sum(a_i - 1) is a leading
    monomial, so m'^D lies in the ideal locally (Nakayama), m' the maximal
    ideal of those variables.  From then on S-polynomials reduce modulo m'^D
    with _reduce instead of Mora's normal form, and the loop stops at the
    first pair whose lcm has degree >= D (its S-polynomial lies in m'^D, and
    so does every later one)."""
    rows: list[tuple[dict, tuple[int, ...]]] = []
    pairs: list[tuple[int, tuple, int, int, tuple[int, ...]]] = []
    key = order.key
    local = not order.is_global
    corner: dict[int, int] = {}
    used = {i for t in input_rows for m in t for i, a in enumerate(m) if a}
    bound = None

    def push(terms):
        nonlocal bound
        lt = _lt(terms, order)
        idx = len(rows)
        for j, (_, lt_j) in enumerate(rows):
            lcm = sparse.mlcm(lt_j, lt)
            heappush(pairs, (sum(lcm), key(lcm), j, idx, lcm))
        rows.append((terms, lt))
        if local:
            for i, a in _pure_powers([lt]).items():
                corner[i] = min(a, corner.get(i, a))
            if used <= corner.keys():
                bound = 1 + sum(corner[i] - 1 for i in used)

    for t in input_rows:
        push(t)

    while pairs:
        deg, _, i, j, lcm = heappop(pairs)
        if bound is not None and deg >= bound:
            break
        if sparse.mmul(rows[i][1], rows[j][1]) == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        s = _s_polynomial(rows[i], rows[j], lcm)
        if not s:
            continue
        if local and bound is None:
            h = _mora_nf(s, rows, order, budget)
        else:
            h = _reduce(s, rows, order, budget, bound)
        if h:
            lt_h = _lt(h, order)
            inv = h[lt_h]
            h = {m: v / inv for m, v in h.items()}
            push(h)
    return rows


def _s_polynomial(row_i, row_j, lcm):
    """(lcm / lt_i) * g_i - (lcm / lt_j) * g_j for monic rows (g, lt)."""
    (g_i, lt_i), (g_j, lt_j) = row_i, row_j
    shift = sparse.mdiv(lcm, lt_i)
    s = {sparse.mmul(m, shift): v for m, v in g_i.items()}
    shift = sparse.mdiv(lcm, lt_j)
    for m, v in g_j.items():
        k = sparse.mmul(m, shift)
        w = s.get(k)
        if w is None:
            s[k] = -v
        else:
            w = w - v
            if w:
                s[k] = w
            else:
                del s[k]
    return s


def _minimalize(rows, order):
    ordered = sorted(rows, key=lambda r: (sum(r[1]), order.key(r[1])))
    kept = []
    for terms, lt in ordered:
        if any(sparse.mdiv(lt, k_lt) is not None for _, k_lt in kept):
            continue
        kept.append((terms, lt))
    return kept


def _pure_powers(exps):
    """{i: smallest a such that z_i^a is among exps}.  The exponent 0 (a
    unit) counts as a pure power of every variable."""
    out = {}
    for e in exps:
        support = [i for i, a in enumerate(e) if a]
        if len(support) > 1:
            continue
        for i in support or range(len(e)):
            out[i] = min(e[i], out.get(i, e[i]))
    return out


def _staircase(exps, nvars):
    """Monomials outside the monomial ideal generated by exps, sorted by
    degree and then grevlex; None when there are infinitely many.

    The walk goes outward from 1: the children of a standard monomial m are
    m * z_i for i at or after the last variable of m, so each monomial has
    one parent and the walk tests O(nvars * colength) monomials."""
    if len(_pure_powers(exps)) < nvars:
        return None
    out = []
    stack = [(0,) * nvars] if all(any(e) for e in exps) else []
    while stack:
        m = stack.pop()
        out.append(m)
        last = max((i for i, a in enumerate(m) if a), default=0)
        for i in range(last, nvars):
            c = m[:i] + (m[i] + 1,) + m[i + 1:]
            # m is standard, so a generator dividing c matches it in z_i
            if not any(e[i] == c[i] and all(map(ge, c, e)) for e in exps):
                stack.append(c)
    return tuple(sorted(out, key=GREVLEX.key))


def _truncation_bound(stairs):
    # every monomial of higher degree than the staircase is a leading
    # monomial, so m^bound lies in the ideal; bound <= colength
    return None if stairs is None else 1 + max(map(sum, stairs), default=-1)


def standard_basis(ideal: Ideal, order: MonomialOrder) -> StandardBasis:
    bud = _current_budget()
    ctx = ideal.context
    input_rows = _canonical_input(ideal.generators, order)
    kept = _minimalize(_pair_loop(input_rows, order, bud), order)

    stairs = (None if order.is_global
              else _staircase([lt for _, lt in kept], ctx.nvars))
    if order.is_global or stairs is not None:
        # reduced element lt - NF(lt) = lt + NF(tail), modulo m^bound under
        # the local order; under a global order an element's own leading
        # term never divides its tail, so this is the reduced Groebner basis
        bound = _truncation_bound(stairs)
        kept = [({lt: ctx.unit}
                 | _reduce({m: c for m, c in terms.items() if m != lt},
                           kept, order, bud, bound), lt)
                for terms, lt in kept]

    kept.sort(key=lambda r: order.key(r[1]))
    elements = tuple(Polynomial(ctx, dict(t)) for t, _ in kept)
    lts = tuple(lt for _, lt in kept)
    sb = StandardBasis(ideal, order, elements, lts, stairs)
    if CHECK_BASES:
        _verify_basis(sb, input_rows, bud)
    return sb


def _verify_basis(sb: StandardBasis, input_rows, bud):
    order = sb.order
    rows = [(g.terms, lt) for g, lt in zip(sb.elements, sb.leading_exponents)]
    reduce_ = _reduce if order.is_global else _mora_nf
    for r1, r2 in combinations(rows, 2):
        s = _s_polynomial(r1, r2, sparse.mlcm(r1[1], r2[1]))
        if s and reduce_(s, rows, order, bud):
            raise InternalCheckError("S-polynomial does not reduce to zero")
    for t in input_rows:
        if reduce_(dict(t), rows, order, bud):
            raise InternalCheckError("ideal generator does not reduce to zero")


# ---------------------------------------------------------------------------
# membership and normal forms

def normal_form(p: Polynomial, basis: StandardBasis) -> Polynomial:
    """Remainder of p modulo the basis.

    Global orders and zero-dimensional local bases return the canonical
    representative supported on standard monomials (a linear map, with
    p - result in the ideal).  Other local bases return the Mora weak normal
    form: the leading term is irreducible and a zero result still certifies
    membership exactly, but tails may keep reducible terms (fully reduced
    tails need not exist as polynomials in the local case)."""
    if p.context != basis.ideal.context:
        raise ContextError("normal form across different contexts")
    bud = _current_budget()
    rows = list(zip((g.terms for g in basis.elements), basis.leading_exponents))
    if basis.order.is_global or basis.truncation_bound is not None:
        out = _reduce(p.terms, rows, basis.order, bud,
                      basis.truncation_bound)
    else:
        out = _mora_nf(p.terms, rows, basis.order, bud)
    return Polynomial(p.context, out)


def ideals_equal(a: Ideal, b: Ideal) -> bool:
    """Two-sided membership (generator presentations are not canonical)."""
    sa = standard_basis(a, GREVLEX)
    sb = standard_basis(b, GREVLEX)
    return (all(normal_form(g, sb).is_zero() for g in a.generators)
            and all(normal_form(g, sa).is_zero() for g in b.generators))


# ---------------------------------------------------------------------------
# elimination, intersection, saturation

def eliminate(ideal: Ideal, drop: tuple[str, ...]) -> Ideal | None:
    """Generators of ideal ∩ k[remaining variables], or None for the zero
    ideal (the empty-intersection marker)."""
    ctx = ideal.context
    drop_idx = tuple(sorted(ctx.var_index(v) for v in drop))
    remaining = tuple(v for i, v in enumerate(ctx.variables) if i not in drop_idx)
    if not remaining:
        raise ContextError("cannot eliminate every variable")
    order = elimination(drop_idx)
    sb = standard_basis(ideal, order)
    kept = []
    for g, lt in zip(sb.elements, sb.leading_exponents):
        if any(lt[i] for i in drop_idx):
            continue
        kept.append(g.restrict_to(remaining))
    if not kept:
        return None
    return Ideal(replace(ctx, variables=remaining), tuple(kept))


def _eliminate_fresh_variable(ctx: Context, generators) -> Ideal:
    """Prepend a fresh variable u to ctx, eliminate u from the nonzero ideal
    of generators(u, embed), where embed maps a polynomial of ctx into the
    extended ring, and return the result in ctx."""
    aux = ctx.fresh_name("u")
    ext = ctx.with_prepended_variable(aux)

    def embed(p):
        return Polynomial(ext, {(0,) + m: c for m, c in p.terms.items()})

    gens = generators(Polynomial.variable(ext, aux), embed)
    out = eliminate(Ideal(ext, tuple(gens)), (aux,))
    if out is None:
        raise InternalCheckError("elimination of a nonzero ideal came out zero")
    return out  # dropping u leaves ctx's variables, so out lives in ctx


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """I ∩ J = (u*I + (1 - u)*J) ∩ F[z], u a fresh variable."""
    if a.context != b.context:
        raise ContextError("intersection across different contexts")

    def generators(u, embed):
        one = Polynomial.one(u.context)
        return ([u * embed(g) for g in a.generators]
                + [(one - u) * embed(g) for g in b.generators])

    return _eliminate_fresh_variable(a.context, generators)


def _rabinowitsch(i: Ideal, g: Polynomial) -> Ideal:
    """I : g^infinity = (I + (1 - u*g)) ∩ F[z], u a fresh variable
    (Rabinowitsch): one elimination."""

    def generators(u, embed):
        return ([embed(p) for p in i.generators]
                + [Polynomial.one(u.context) - u * embed(g)])

    return _eliminate_fresh_variable(i.context, generators)


def _strip_common_factors(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / d, where d collects every factor of f that divides g, so that
    (f) : g^infinity = (f / d): divide by gcd(h, g) until it is constant."""
    h = f
    while True:
        d = multivariate_gcd(h, g)
        if not d.total_degree():
            return h
        h = h.divide_exact(d)


def _variables(p: Polynomial) -> set[int]:
    return {i for m in p.terms for i, a in enumerate(m) if a}


def _blocks(gens) -> list[tuple[set[int], list[Polynomial]]]:
    """The generators grouped into blocks linked by shared variables, each
    with the variables its generators involve.  Different blocks share no
    variable, and a constant is a block of its own, with none."""
    blocks = []
    for p in gens:
        block = (_variables(p), [p])
        apart = []
        for other in blocks:
            if other[0].isdisjoint(block[0]):
                apart.append(other)
            else:
                block = (block[0] | other[0], other[1] + block[1])
        blocks = apart + [block]
    return blocks


def _reduced_basis(gens) -> tuple[Polynomial, ...]:
    """The reduced GREVLEX basis of (gens); one generator is made monic."""
    if len(gens) == 1:
        return (gens[0].monic(GREVLEX),)
    return standard_basis(Ideal(gens[0].context, tuple(gens)),
                          GREVLEX).elements


def _is_unit_basis(basis) -> bool:
    return len(basis) == 1 and not basis[0].total_degree()


def _saturate_by_element(blocks, g: Polynomial) -> tuple[Polynomial, ...]:
    """The reduced GREVLEX basis of I : g^infinity, I the ideal of the
    blocks.  With A the blocks that share a variable with g and R the rest,
    F[z]/I is the tensor product of F[z]/A and F[z]/R over F, and g acts on
    the first factor only, so I : g^infinity = (A : g^infinity) + R.  The
    reduced bases of ideals in disjoint variables have coprime leading
    monomials and tails free of each other's leading monomials, so together
    they form the reduced basis of the sum, unless one of them is (1)."""
    touched = _variables(g)
    near = [p for vs, ps in blocks if not vs.isdisjoint(touched) for p in ps]
    if len(near) == 1:
        basis = (_strip_common_factors(near[0], g).monic(GREVLEX),)
    elif near:
        basis = _rabinowitsch(Ideal(g.context, tuple(near)), g).generators
    else:
        basis = ()
    if _is_unit_basis(basis):
        return basis
    for vs, ps in blocks:
        if vs.isdisjoint(touched):
            far = _reduced_basis(ps)
            if _is_unit_basis(far):
                return far
            basis += far
    return tuple(sorted(basis,
                        key=lambda p: GREVLEX.key(p.leading(GREVLEX)[0])))


def saturate(i: Ideal, k: Ideal) -> Ideal:
    """I : K^infinity as the intersection of I : g^infinity over the
    generators g of K, returned as the (unique) reduced GREVLEX basis.
    Idempotent; the result contains I.

    Each I : g^infinity splits I's generators into blocks linked by shared
    variables and saturates only the blocks that share a variable with g:
    one generator by gcds, with no basis, several by a Rabinowitsch
    elimination, whose basis is already reduced under GREVLEX (the block
    order's second block is grevlex, and u-free tails are reduced against
    u-free leading terms only).  Factors equal to (1) drop out of the
    intersection, principal factors are intersected by lcms, and the
    others by one elimination each."""
    if i.context != k.context:
        raise ContextError("saturation across different contexts")
    ctx = i.context
    blocks = _blocks(i.generators)
    acc = None
    for g in k.generators:
        part = _saturate_by_element(blocks, g)
        if _is_unit_basis(part):
            continue
        if acc is None:
            acc = Ideal(ctx, part)
        elif len(acc.generators) == len(part) == 1:
            a, b = acc.generators[0], part[0]
            lcm = (a * b).divide_exact(multivariate_gcd(a, b))
            acc = Ideal(ctx, (lcm.monic(GREVLEX),))
        else:
            acc = intersect(acc, Ideal(ctx, part))
    return Ideal(ctx, (Polynomial.one(ctx),)) if acc is None else acc


# ---------------------------------------------------------------------------
# numerical invariants of ideals

def _block_basis(variables: set[int], gens) -> StandardBasis:
    """The local basis of a block's generators in the ring of the block's
    own variables."""
    ctx = gens[0].context
    names = tuple(ctx.variables[i] for i in sorted(variables))
    restricted = tuple(p.restrict_to(names) for p in gens)
    return standard_basis(Ideal(restricted[0].context, restricted), LOCAL)


def _monomial_dimension(exps, nvars: int) -> int:
    """Krull dimension of the monomial ideal generated by exps (none of them
    zero): the largest set of variables that carries none of them."""
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            s = set(subset)
            if not any(all(i in s for i, ei in enumerate(e) if ei)
                       for e in exps):
                return size
    raise InternalCheckError("dimension search fell through")


def colength_at_origin(ideal: Ideal) -> int | None:
    """dim_F of (local ring at the origin) / ideal, F the coefficient field;
    None when it is infinite.

    Block by block: the local algebra is the tensor product of the
    algebras of the blocks of generators linked by shared variables, so the
    colengths multiply.  A variable in no generator makes it infinite, and
    so does a block of one generator in two or more variables.  A block in
    one variable contributes the least order of its generators (the local
    ring is a discrete valuation ring), and any other block the number of
    standard monomials of its local basis in its own variables."""
    if contains_local_unit(ideal):
        return 0
    blocks = _blocks(ideal.generators)
    if sum(len(vs) for vs, _ in blocks) < ideal.context.nvars:
        return None
    colength = 1
    for vs, ps in blocks:
        if len(vs) == 1:
            colength *= min(p.min_total_degree() for p in ps)
            continue
        if len(ps) == 1:
            return None  # a hypersurface germ in two or more variables
        stairs = _block_basis(vs, ps).standard_monomials
        if stairs is None:
            return None
        colength *= len(stairs)
    return colength


def dimension_at_origin(ideal: Ideal) -> int | None:
    """Krull dimension of the germ at the origin, read off the leading terms
    under the local order; None means the germ is empty (the ideal contains
    a local unit).

    Block by block, as for the colength: the dimensions add.  A variable in
    no generator adds 1.  A block in k variables adds k - 1 when it has one
    generator (a hypersurface) or one variable (then k = 1), and otherwise
    the dimension of the leading ideal of its local basis in its own
    variables."""
    if contains_local_unit(ideal):
        return None
    blocks = _blocks(ideal.generators)
    dim = ideal.context.nvars - sum(len(vs) for vs, _ in blocks)
    for vs, ps in blocks:
        if len(ps) == 1 or len(vs) == 1:
            dim += len(vs) - 1
        else:
            exps = _block_basis(vs, ps).leading_exponents
            dim += _monomial_dimension(exps, len(vs))
    return dim


def contains_local_unit(ideal: Ideal) -> bool:
    """Whether the ideal is the whole local ring at the origin: exactly when
    some generator has a nonzero constant term, for otherwise every
    generator, and with them the ideal, lies in the maximal ideal."""
    return any(g.constant_coefficient() for g in ideal.generators)


def colength_global(ideal: Ideal) -> int | None:
    """Affine quotient dimension dim_F F[z]/I (all points, with multiplicity)."""
    sb = standard_basis(ideal, GREVLEX)
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


def _truncated_colength(ideal: Ideal, n: int) -> int:
    ctx = ideal.context
    ms = [Polynomial.monomial(ctx, m) for m in _monomials_of_degree(ctx, n)]
    colength = colength_global(Ideal(ctx, ideal.generators + tuple(ms)))
    if colength is None:
        raise InternalCheckError("truncated ideal must have finite colength")
    return colength


def colength_by_truncation(ideal: Ideal) -> int:
    """Colength via global bases of I + m^N.  Independent of the local
    (Mora) machinery.

    When the generators include a pure power z_i^a_i of every variable,
    every monomial of degree N = 1 + sum(a_i - 1) is divisible by one of
    them, so m^N lies in I and one truncation is exact.  Otherwise N
    doubles from 1.  c_N = dim F[z]/(I + m^N), the colength of I + m^N,
    grows strictly with N until m^N lies in I locally (Nakayama) and stays
    put from there, so c_N >= N until then: c_N < N, or two consecutive
    values that agree, make c_N the colength."""
    powers: dict[int, int] = {}
    for g in ideal.generators:
        if len(g.terms) != 1:
            continue
        (m,) = g.terms
        support = [i for i, a in enumerate(m) if a]
        if len(support) == 1:
            i = support[0]
            powers[i] = min(m[i], powers.get(i, m[i]))
    if len(powers) == ideal.context.nvars:
        return _truncated_colength(
            ideal, 1 + sum(a - 1 for a in powers.values()))
    n, prev = 1, None
    while n <= 4096:
        cur = _truncated_colength(ideal, n)
        if cur < n or cur == prev:
            return cur
        n, prev = 2 * n, cur
    raise DegenerateInputError(
        "truncation oracle did not stabilize (colength likely infinite)")
