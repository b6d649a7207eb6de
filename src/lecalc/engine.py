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

One rule, `_remainder`, reduces S-polynomials, normal forms and checks:
Mora's weak normal form under the local order while no bound is known,
full reduction (modulo m^bound once known) otherwise, both subtracting rows
through `_sub_scaled`.  `verify_basis(sb)` checks a basis on request: every
S-polynomial and every generator of sb.ideal must have remainder zero.

Global bases are reduced: each element of a minimal basis becomes
lt - NF(lt) = lt + NF(tail), lt its leading term, which is the classical
reduced Groebner basis.  Local bases are minimal, monic and
deterministically sorted, with tails as computed: their callers read the
leading ideal (colengths, dimensions) or normal forms, and neither depends
on the tails (Greuel-Pfister, 1.7: tails need reducing only where elements
must be unique).  A normal form modulo a zero-dimensional local basis is still
canonical: its leading exponents show a highest corner, so m^D lies in the
ideal locally, and full reduction modulo m^D leaves the unique
representative on standard monomials whatever the tails.  A colength is the
number of standard monomials, counted where it is taken and never stored:
an int, or None when it is infinite.  `_staircase` counts them column by
column in the last variable, one slice ideal per height the leading
exponents show, so the work is bounded by those exponents and not by the
colength.

Saturation: I : K^infinity is the intersection of the factors
I : g^infinity over the generators g of K, and `saturate` returns its
reduced GREVLEX basis.  Each factor splits I's generators into blocks linked
by shared variables.  Only the blocks that share a variable with g are
saturated, the rest are added back unchanged: one generator by gcds, with
no basis, several by a Rabinowitsch elimination.  Factors equal to (1) drop
out of the intersection; principal factors are intersected by lcms, the
others by an elimination.  So the polar curve of z1^a*z2^b + z2^c + z3^d
needs no basis at all.

Colengths and dimensions at the origin go block by block too, once every
term divisible by a monomial generator is pruned (`_prune_by_monomials`:
g less its terms divisible by the generator m is g - m*q, so the ideal
stays the same).  A coordinate among the generators is then a block of
its own, so the colength of I + (z1) is that of I at z1 = 0.  The local
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

Each term-cancellation step draws one step of `sparse.current_budget()`:
the budget `step_budget` made active, or outside any block a fresh
DEFAULT_BUDGET per basis and normal form.  The gcds that saturation takes
(`_strip_common_factors`, the lcms of principal factors) and those that
normalise QQ(params) coefficients draw one step per pseudo-remainder of
the same budget (see `lecalc.sparse`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import NamedTuple

from . import sparse
from .errors import ContextError, DegenerateInputError, InternalCheckError
from .orders import GREVLEX, LOCAL, MonomialOrder, elimination
from .poly import Context, Polynomial, multivariate_gcd
# step_budget and DEFAULT_BUDGET stay importable from here
from .sparse import DEFAULT_BUDGET, current_budget, step_budget  # noqa: F401


class _IdealFields(NamedTuple):
    context: Context
    generators: tuple[Polynomial, ...]


class Ideal(_IdealFields):
    __slots__ = ()

    def __new__(cls, context: Context, generators: tuple[Polynomial, ...]):
        if not generators:
            raise DegenerateInputError("an ideal needs at least one generator")
        for g in generators:
            if g.context != context:
                raise ContextError("generator context mismatch")
            if g.is_zero():
                raise DegenerateInputError("zero polynomial among generators")
        return super().__new__(cls, context, generators)

    def _replace(self, **changes) -> "Ideal":
        # the namedtuple _replace would skip the checks in __new__
        return Ideal(**{**self._asdict(), **changes})

    def with_extra(self, *polys: Polynomial) -> "Ideal":
        return Ideal(self.context, self.generators + tuple(polys))


class StandardBasis(NamedTuple):
    """A minimal, monic basis sorted by leading exponent: the reduced
    Groebner basis under a global order; under the local order its tails
    are as the pair loop left them."""
    ideal: Ideal
    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    leading_exponents: tuple[tuple[int, ...], ...]

    @property
    def truncation_bound(self) -> int | None:
        """The highest-corner bound D = 1 + sum(a_i - 1) of a local basis
        whose leading exponents hold a pure power z_i^a_i of every variable,
        so that m^D lies in the ideal locally and normal forms and checks
        are reduced modulo m^D; None for a global basis or one with no
        corner (see _corner_bound)."""
        if self.order.is_global:
            return None
        return _corner_bound(_pure_powers(self.leading_exponents),
                             set(range(self.ideal.context.nvars)))


# ---------------------------------------------------------------------------
# reduction primitives (term dicts; reducer rows are monic)

def _lt(terms, order):
    return max(terms, key=order.key)


def _sub_scaled(h, c, shift, g_terms, queue, neg_key, bound=None):
    """h -= c * x^shift * g, in place; monomials new to h go on the queue.
    With a bound, product terms of total degree >= bound are dropped."""
    for m, v in g_terms.items():
        k = sparse.mmul(m, shift)
        if bound is not None and sum(k) >= bound:
            continue
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
        c = r.get(m)
        if c is None:
            continue
        for terms, lt in rows:
            shift = sparse.mdiv(m, lt)
            if shift is not None:
                break
        else:
            nf[m] = r.pop(m)
            continue
        budget.tick()
        # the row is monic, so the subtraction cancels m itself
        _sub_scaled(r, c, shift, terms, queue, neg_key, bound)
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


def _remainder(terms, rows, order, budget, bound=None):
    """Mora's weak normal form under the local order while no bound is
    known, full reduction (modulo m^bound when given) otherwise."""
    if order.is_global or bound is not None:
        return _reduce(terms, rows, order, budget, bound)
    return _mora_nf(terms, rows, order, budget)


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
            bound = _corner_bound(corner, used)

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
        h = _remainder(s, rows, order, budget, bound)
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


def _corner_bound(corner, variables: set[int]):
    """D = 1 + sum(a_i - 1) over the variables when corner, {i: a_i} (see
    _pure_powers), holds a pure power z_i^a_i of each of them, else None.
    Every monomial in those variables of degree D is then divisible by one
    of the pure powers."""
    if not corner.keys() >= variables:
        return None
    return 1 + sum(corner[i] - 1 for i in variables)


def _staircase(exps, nvars):
    """The number of monomials outside the monomial ideal generated by exps,
    counted and not kept; None when there are infinitely many, that is when
    exps hold no pure power of some variable (_corner_bound).

    Counted column by column in the last variable: z'^m * z_n^k is standard
    exactly when z'^m is standard for the slice at height k, the ideal in
    the other variables of the e[:-1] with e[-1] <= k.  The slice changes
    only at the heights e[-1] that exps show, and from the pure power of
    z_n on it holds the unit, so each run of equal slices is counted once,
    times its length.  The work is bounded by the leading exponents, not by
    the colength."""
    if _corner_bound(_pure_powers(exps), set(range(nvars))) is None:
        return None
    return _columns(exps, nvars)


def _columns(exps, nvars):
    """_staircase's count, exps known to hold a pure power of each
    variable (which every slice keeps)."""
    if not all(map(any, exps)):
        return 0  # the unit
    if nvars == 1:
        return min(e[0] for e in exps)
    heights = sorted({e[-1] for e in exps})
    return sum((top - k) * _columns([e[:-1] for e in exps if e[-1] <= k],
                                    nvars - 1)
               for k, top in zip(heights, heights[1:]))


def standard_basis(ideal: Ideal, order: MonomialOrder) -> StandardBasis:
    bud = current_budget()
    ctx = ideal.context
    kept = _minimalize(_pair_loop(_canonical_input(ideal.generators, order),
                                  order, bud), order)

    if order.is_global:
        # reduced element lt - NF(lt) = lt + NF(tail): an element's own
        # leading term never divides its tail, so this is the reduced
        # Groebner basis
        kept = [({lt: ctx.unit}
                 | _reduce({m: c for m, c in terms.items() if m != lt},
                           kept, order, bud), lt)
                for terms, lt in kept]

    kept.sort(key=lambda r: order.key(r[1]))
    elements = tuple(Polynomial(ctx, dict(t)) for t, _ in kept)
    lts = tuple(lt for _, lt in kept)
    return StandardBasis(ideal, order, elements, lts)


def verify_basis(sb: StandardBasis) -> StandardBasis:
    """sb, once every S-polynomial of its elements and every generator of
    its ideal has remainder zero (Buchberger's criterion, under Mora's
    normal form for the local order); raises InternalCheckError otherwise.

    When the leading exponents of a local basis show a pure power z_i^a_i
    of every variable, m^D lies in the ideal the elements generate
    locally, D = 1 + sum(a_i - 1) = sb.truncation_bound, whatever their
    tails (the highest corner of `_pair_loop`), and remainders are taken
    modulo m^D as the pair loop takes them past the corner: Mora's normal
    forms of S-polynomials of unreduced tails can swell for seconds."""
    order, bud, bound = sb.order, current_budget(), sb.truncation_bound
    rows = list(zip((g.terms for g in sb.elements), sb.leading_exponents))
    for r1, r2 in combinations(rows, 2):
        s = _s_polynomial(r1, r2, sparse.mlcm(r1[1], r2[1]))
        if s and _remainder(s, rows, order, bud, bound):
            raise InternalCheckError("S-polynomial does not reduce to zero")
    for t in _canonical_input(sb.ideal.generators, order):
        if _remainder(t, rows, order, bud, bound):
            raise InternalCheckError("ideal generator does not reduce to zero")
    return sb


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
    rows = list(zip((g.terms for g in basis.elements), basis.leading_exponents))
    out = _remainder(p.terms, rows, basis.order, current_budget(),
                     basis.truncation_bound)
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
    return Ideal(ctx._replace(variables=remaining), tuple(kept))


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
    (f) : g^infinity = (f / d): divide by gcd(h, g) until it is constant.
    A monomial g has only its variables as prime factors, so d is the
    monomial of their least exponents over f's terms, found in one step."""
    if len(g.terms) == 1:
        (a,) = g.terms
        low = [min(m[i] for m in f.terms) if a[i] else 0
               for i in range(len(a))]
        return Polynomial(f.context, {
            tuple(e - d for e, d in zip(m, low)): c
            for m, c in f.terms.items()})
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

def _prune_by_monomials(gens) -> list[Polynomial]:
    """Generators of the same ideal in which no generator keeps a term
    divisible by a one-term generator.  M, the exponents of the one-term
    generators without duplicates and without any that another divides,
    keeps one generator each; every other generator loses its terms
    divisible by a member of M and is dropped when none is left.  Repeated
    while a generator lost a term, as one may shrink to a single term; each
    round removes a term, so the loop ends.  The ideal stays the same: g
    less its terms divisible by m is g - m*q, and over QQ(t) and GF(p) a
    one-term generator is a nonzero constant times its monomial."""
    gens = list(gens)
    while True:
        ones = {next(iter(g.terms)): g for g in gens if len(g.terms) == 1}
        if not ones:
            return gens
        mons = [m for m in ones if not any(
            k != m and sparse.mdiv(m, k) is not None for k in ones)]
        out = [ones[m] for m in mons]
        pruned = False
        for g in gens:
            if len(g.terms) == 1:
                continue
            terms = {m: c for m, c in g.terms.items()
                     if all(sparse.mdiv(m, k) is None for k in mons)}
            if len(terms) == len(g.terms):
                out.append(g)
                continue
            pruned = True
            if terms:
                out.append(Polynomial(g.context, terms))
        if not pruned:
            return out
        gens = out


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

    Block by block, after pruning every term divisible by a monomial
    generator, which keeps the ideal (g less its terms divisible by the
    generator m is g - m*q): the local algebra is the tensor product of the
    algebras of the blocks of generators linked by shared variables, so the
    colengths multiply.  A variable in no generator makes it infinite, and
    so does a block of one generator in two or more variables.  A block in
    one variable contributes the least order of its generators (the local
    ring is a discrete valuation ring), and any other block the number of
    standard monomials of its local basis in its own variables."""
    if contains_local_unit(ideal):
        return 0
    blocks = _blocks(_prune_by_monomials(ideal.generators))
    if sum(len(vs) for vs, _ in blocks) < ideal.context.nvars:
        return None
    colength = 1
    for vs, ps in blocks:
        if len(vs) == 1:
            colength *= min(p.min_total_degree() for p in ps)
            continue
        if len(ps) == 1:
            return None  # a hypersurface germ in two or more variables
        count = _staircase(_block_basis(vs, ps).leading_exponents, len(vs))
        if count is None:
            return None
        colength *= count
    return colength


def dimension_at_origin(ideal: Ideal) -> int | None:
    """Krull dimension of the germ at the origin, read off the leading terms
    under the local order; None means the germ is empty (the ideal contains
    a local unit).

    Block by block after the same pruning, as for the colength: the
    dimensions add.  A variable in no generator adds 1.  A block in k
    variables adds k - 1 when it has one generator (a hypersurface) or one
    variable (then k = 1), and otherwise the dimension of the leading ideal
    of its local basis in its own variables."""
    if contains_local_unit(ideal):
        return None
    blocks = _blocks(_prune_by_monomials(ideal.generators))
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
    zero = (0,) * ideal.context.nvars
    return any(zero in g.terms for g in ideal.generators)


def colength_global(ideal: Ideal) -> int | None:
    """Affine quotient dimension dim_F F[z]/I (all points, with multiplicity)."""
    return _staircase(standard_basis(ideal, GREVLEX).leading_exponents,
                      ideal.context.nvars)


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
    values that agree, make c_N the colength.  A constant generator takes
    the doubling too (_pure_powers would read it as a corner with N < 1)."""
    bound = _corner_bound(
        _pure_powers([m for g in ideal.generators if len(g.terms) == 1
                      for m in g.terms if any(m)]),
        set(range(ideal.context.nvars)))
    if bound is not None:
        return _truncated_colength(ideal, bound)
    n, prev = 1, None
    while n <= 4096:
        cur = _truncated_colength(ideal, n)
        if cur < n or cur == prev:
            return cur
        n, prev = 2 * n, cur
    raise DegenerateInputError(
        "truncation oracle did not stabilize (colength likely infinite)")
