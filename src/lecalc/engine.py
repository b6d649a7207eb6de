"""Standard bases and ideal arithmetic.

Global orders run plain Buchberger with full reduction; the local order runs
Mora's tangent-cone algorithm (weak normal forms with an ecart-guided reducer
pool) until the leading exponents reach a highest corner: a pure power
z_i^a_i for every variable.  Then m^D lies in the ideal locally, with
D = 1 + sum(a_i - 1), and the rest of the loop reduces modulo m^D by leading
terms instead (Greuel-Pfister, A Singular Introduction to Commutative
Algebra, 1.7).  Every operation is deterministic: generators are made
monic, deduplicated and sorted before the pair loop, pairs are taken by
smallest lcm degree, ties broken by the order, and reducers by position
(global and truncated) or least ecart then position (Mora).  One rule,
`_remainder`, reduces S-polynomials, normal forms and checks.

Every loop runs on packed monomials (`lecalc.orders.Packing`): a product
is a + b, a divisibility test one subtraction and a mask, the ecart
max(terms) >> shift, and the leading term the smallest integer, so the
heap of a remainder's monomials (Monagan-Pearce, CASC 2007) holds plain
integers and the heap of pairs tuples of them.  An order enters the engine
only through its packing.  `standard_basis`, `normal_form` and
`verify_basis` pack at entry and unpack at exit, and `_packed` runs again
with wider fields when a product would fill one.  One packing is interned
per (order, nvars, width) (`lecalc.orders.packing`).  Outside the loops,
leading terms are grevlex (`Polynomial.leading`): saturation makes its
generators monic and sorts its bases by them.

Global bases are reduced: each element of a minimal basis becomes
lt + NF(tail).  Local bases are minimal, monic and sorted, with tails as
computed: their callers read the leading ideal or normal forms, neither of
which depends on the tails (Greuel-Pfister, 1.7), and full reduction
modulo m^D leaves a canonical normal form whatever the tails.

Saturation and colengths at the origin go block by block, the generators
grouped by shared variables (see `saturate`).  A colength reads leading
exponents only.  Every term divisible by a monomial generator is pruned
first (g less its terms divisible by the generator m is g - m*q), each
term tested by `sparse.mdiv` against every minimal monomial generator.
The local algebra of an ideal is the tensor product of those of its
blocks, so colengths multiply (Sebastiani-Thom, Invent. Math. 13, 1971,
here for ideals).  A block that needs a basis runs the pair loop on
its exponent tuples restricted to its own variables and keeps the minimal
leading exponents alone (`_block_leading_exponents`); `_staircase` counts
the standard monomials with work bounded by those exponents, not by the
colength, an int or None when it is infinite.

Each term-cancellation step draws one step of `sparse.current_budget()`:
the budget `sparse.step_budget` made active, or outside any block a fresh
`sparse.DEFAULT_BUDGET` per basis and normal form.  The gcds of the lcms
of saturation and of QQ(params) coefficients draw one step per
pseudo-remainder of the same budget (see `lecalc.sparse`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from . import sparse
from .errors import ContextError, DegenerateInputError, InternalCheckError
from .orders import (GREVLEX, LOCAL, MonomialOrder, PackingOverflow,
                     elimination, grevlex_key, packing)
from .poly import Context, Polynomial, multivariate_gcd
from .sparse import current_budget


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
        """The highest-corner bound D of a local basis (see _corner_bound):
        m^D lies in the ideal locally, so normal forms and checks reduce
        modulo m^D; None for a global basis or one with no corner."""
        if self.order.is_global:
            return None
        return _corner_bound(_pure_powers(self.leading_exponents),
                             set(range(self.ideal.context.nvars)))


# ---------------------------------------------------------------------------
# packing; below, a row is (terms, lt) with packed monomials

_MIN_WIDTH = 8


def _packed(order: MonomialOrder, nvars: int, term_dicts, run):
    """run(packing, budget) under the current budget and a packing wide
    enough for the exponents of term_dicts.  When a product outgrows its
    fields the run starts again twice as wide and its steps are given back,
    so it draws the steps of a run that never overflowed."""
    budget = current_budget()
    top = max((max(m) for t in term_dicts for m in t), default=0)
    width = max(_MIN_WIDTH, top.bit_length() + 3)
    while True:
        used = budget.used
        try:
            return run(packing(order, nvars, width), budget)
        except PackingOverflow:
            budget.used = used
            width *= 2


# ---------------------------------------------------------------------------
# reduction primitives (reducer rows are monic)

def _sub_scaled(h, c, shift, g_terms, queue, guards, limit=None):
    """h -= c * x^shift * g, in place; monomials new to h go on the queue.
    With a limit (bound << shift, local order), product terms of total
    degree >= the bound are dropped."""
    for m, v in g_terms.items():
        k = m + shift
        if limit is not None and k >= limit:
            continue
        w = h.get(k)
        if w is None:
            if k & guards:
                raise PackingOverflow("a product outgrew its fields")
            h[k] = -(c * v)
            heappush(queue, k)
        else:
            w = w - c * v
            if w:
                h[k] = w
            else:
                del h[k]


# Leading terms come off a heap of packed monomials, with lazy deletion: an
# entry whose monomial has since cancelled is skipped when popped.  The
# orders are multiplicative, so a reduction step only adds terms below the
# leading term it cancels, and the heap yields leading terms in order.

def _reduce(p_terms, rows, pk, budget, bound=None):
    """Full division remainder: no term of the result is divisible by any
    row leading monomial.

    With a bound, m^bound must lie in the (local) ideal: terms of total
    degree >= bound are then discarded outright and the rest reduce by
    leading terms.  Each rewrite strictly decreases the active order on the
    finitely many monomials of degree < bound, so this terminates under the
    local order too, and the result is the unique representative supported
    on standard monomials."""
    guards = pk.guards
    limit = None if bound is None else bound << pk.shift
    r = {m: c for m, c in p_terms.items() if limit is None or m < limit}
    queue = list(r)
    heapify(queue)
    nf = {}
    while queue:
        m = heappop(queue)
        c = r.get(m)
        if c is None:
            continue
        for terms, lt in rows:
            if not (m - lt) & guards:
                break
        else:
            nf[m] = r.pop(m)
            continue
        budget.tick()
        # the row is monic, so the subtraction cancels m itself
        _sub_scaled(r, c, m - lt, terms, queue, guards, limit)
    return nf


def _mora_nf(p_terms, rows, pk, budget):
    """Mora weak normal form: the leading term of the result is irreducible,
    and unit * p - result lies in the ideal generated by the rows (in the
    ring localized at the order).  Zero result certifies local membership.
    The ecart of terms led by lt is (max(terms) >> shift) - (lt >> shift)."""
    guards, shift = pk.guards, pk.shift
    pool = [(terms, lt, (max(terms) >> shift) - (lt >> shift))
            for terms, lt in rows]
    h = dict(p_terms)
    queue = list(h)
    heapify(queue)
    while h:
        lm = queue[0]
        if lm not in h:
            heappop(queue)
            continue
        best = None
        for row in pool:
            if not (lm - row[1]) & guards and (best is None or row[2] < best[2]):
                best = row
        if best is None:
            return h
        ec_h = (max(h) >> shift) - (lm >> shift)
        if best[2] > ec_h:
            pool.append((dict(h), lm, ec_h))
        budget.tick()
        terms, lt, _ = best
        _sub_scaled(h, h[lm] / terms[lt], lm - lt, terms, queue, guards)
    return h


def _remainder(terms, rows, pk, budget, bound=None):
    """Mora's weak normal form under the local order while no bound is
    known, full reduction (modulo m^bound when given) otherwise."""
    if pk.order.is_global or bound is not None:
        return _reduce(terms, rows, pk, budget, bound)
    return _mora_nf(terms, rows, pk, budget)


# ---------------------------------------------------------------------------
# Buchberger / Mora pair loop

def _canonical_input(gens, pk, unit):
    """Monic, deduplicated packed rows of the term dicts gens, sorted by
    (deg lt, order key of lt, length, terms); the order key ascends as the
    packed monomial descends."""
    keyed = []
    for t in gens:
        packed = {pk.pack(m): m for m in t}
        k = min(packed)
        lt = packed[k]
        if (lc := t[lt]) != unit:
            t = {m: unit if m == lt else c / lc for m, c in t.items()}
        if all(t != other for _, other, _ in keyed):
            keyed.append(((sum(lt), -k, len(t)), t,
                          {p: t[m] for p, m in packed.items()}))
    keyed.sort(key=lambda r: (r[0], sorted(r[1].items())))
    return [row for _, _, row in keyed]


def _pair_loop(input_rows, pk, budget):
    """Buchberger's loop, or Mora's under the local order, over monic packed
    rows; every basis goes through here.  Pairs wait on a heap keyed on
    (deg lcm, order key of lcm, i, j).  Under the local order, once the
    leading exponents show a pure power z_i^a_i of each variable the input
    involves, m'^D lies in the ideal locally (Nakayama), m' the maximal
    ideal of those variables and D = 1 + sum(a_i - 1): from then on
    S-polynomials reduce modulo m'^D with _reduce instead of Mora's normal
    form, and the loop stops at the first pair whose lcm has degree >= D."""
    rows: list[tuple[dict, int]] = []
    lts: list[tuple[int, ...]] = []  # unpacked, for lcms and the corner
    pairs: list[tuple[int, int, int, int, int]] = []
    local = not pk.order.is_global
    corner: dict[int, int] = {}
    bound = None
    if local:
        support = 0  # packed local monomials are nonnegative
        for t in input_rows:
            for m in t:
                support |= m
        used = {i for i, a in enumerate(pk.unpack(support)) if a}

    def push(terms):
        nonlocal bound
        lt = min(terms)
        e = pk.unpack(lt)
        for j, e_j in enumerate(lts):
            lcm = sparse.mlcm(e_j, e)
            k = pk.pack(lcm)
            heappush(pairs, (sum(lcm), -k, j, len(rows), k))
        rows.append((terms, lt))
        lts.append(e)
        powers = _pure_powers([e]) if local else None
        if powers:
            for i, a in powers.items():
                corner[i] = min(a, corner.get(i, a))
            bound = _corner_bound(corner, used)

    for t in input_rows:
        push(t)

    while pairs:
        deg, _, i, j, lcm = heappop(pairs)
        if bound is not None and deg >= bound:
            break
        if rows[i][1] + rows[j][1] == lcm:
            continue  # coprime leading terms: S-polynomial reduces to zero
        s = _s_polynomial(rows[i], rows[j], lcm, pk.guards)
        if not s:
            continue
        h = _remainder(s, rows, pk, budget, bound)
        if h:
            inv = h[min(h)]
            push({m: v / inv for m, v in h.items()})
    return rows


def _s_polynomial(row_i, row_j, lcm, guards):
    """(lcm / lt_i) * g_i - (lcm / lt_j) * g_j for monic rows (g, lt)."""
    (g_i, lt_i), (g_j, lt_j) = row_i, row_j
    shift_i, shift_j = lcm - lt_i, lcm - lt_j
    s = sparse.psub({m + shift_i: v for m, v in g_i.items()},
                    {m + shift_j: v for m, v in g_j.items()})
    if any(k & guards for k in s):
        raise PackingOverflow("a product outgrew its fields")
    return s


def _minimal_rows(gens, pk, unit, budget):
    """The minimal basis rows of the ideal of the term dicts gens, in the
    order of (deg lt, order key of lt): a row is dropped when an earlier
    kept one's leading monomial divides its own, so of equal leading
    monomials the pair loop's first is kept."""
    rows = _pair_loop(_canonical_input(gens, pk, unit), pk, budget)
    if pk.order.is_global:
        def key(r):
            return sum(pk.unpack(r[1])), -r[1]
    else:
        shift = pk.shift  # a packed local monomial's degree is m >> shift

        def key(r):
            return r[1] >> shift, -r[1]
    kept = []
    for terms, lt in sorted(rows, key=key):
        if all((lt - k) & pk.guards for _, k in kept):
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
    counted and not kept; None when exps hold no pure power of some
    variable.  Column by column in the last variable: z'^m * z_n^k is
    standard exactly when z'^m is for the slice at height k, the ideal of
    the e[:-1] with e[-1] <= k, which changes only at the heights exps
    show, so each run of equal slices is counted once, times its length."""
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
    ctx = ideal.context
    gens = [g.terms for g in ideal.generators]

    def run(pk, budget):
        kept = _minimal_rows(gens, pk, ctx.unit, budget)
        if order.is_global:
            # reduced element lt - NF(lt) = lt + NF(tail): an element's own
            # leading term never divides its tail, so this is the reduced
            # Groebner basis
            kept = [({lt: ctx.unit}
                     | _reduce({m: c for m, c in terms.items() if m != lt},
                               kept, pk, budget), lt)
                    for terms, lt in kept]
        kept.sort(key=itemgetter(1), reverse=True)  # order key ascending
        return [({pk.unpack(m): c for m, c in t.items()}, pk.unpack(lt))
                for t, lt in kept]

    rows = _packed(order, ctx.nvars, gens, run)
    return StandardBasis(ideal, order,
                         tuple(Polynomial(ctx, t) for t, _ in rows),
                         tuple(lt for _, lt in rows))


def _basis_rows(sb: StandardBasis, pk):
    """sb's elements as packed rows, led by sb.leading_exponents."""
    return [({pk.pack(m): c for m, c in g.terms.items()}, pk.pack(lt))
            for g, lt in zip(sb.elements, sb.leading_exponents)]


def verify_basis(sb: StandardBasis) -> StandardBasis:
    """sb, once every S-polynomial of its elements and every generator of
    its ideal has remainder zero (Buchberger's criterion, under Mora's
    normal form for the local order); raises InternalCheckError otherwise.

    Remainders are taken modulo m^D, D = sb.truncation_bound, as the pair
    loop takes them past the highest corner: m^D lies in the ideal that the
    elements generate locally, whatever their tails, and Mora's normal
    forms of S-polynomials of unreduced tails can swell for seconds."""
    ideal, bound = sb.ideal, sb.truncation_bound
    gens = [g.terms for g in ideal.generators]

    def run(pk, budget):
        rows = _basis_rows(sb, pk)
        for (r1, e1), (r2, e2) in combinations(
                zip(rows, sb.leading_exponents), 2):
            s = _s_polynomial(r1, r2, pk.pack(sparse.mlcm(e1, e2)), pk.guards)
            if s and _remainder(s, rows, pk, budget, bound):
                raise InternalCheckError("S-polynomial does not reduce to zero")
        for t in _canonical_input(gens, pk, ideal.context.unit):
            if _remainder(t, rows, pk, budget, bound):
                raise InternalCheckError("ideal generator does not reduce to zero")

    _packed(sb.order, ideal.context.nvars,
            gens + [g.terms for g in sb.elements], run)
    return sb


# ---------------------------------------------------------------------------
# membership and normal forms

def normal_form(p: Polynomial, basis: StandardBasis) -> Polynomial:
    """Remainder of p modulo the basis: under global orders and modulo
    zero-dimensional local bases the canonical representative supported on
    standard monomials (p - result lies in the ideal), otherwise the Mora
    weak normal form, whose leading term is irreducible and whose zero
    still certifies membership, but whose tail may keep reducible terms."""
    if p.context != basis.ideal.context:
        raise ContextError("normal form across different contexts")
    bound = basis.truncation_bound

    def run(pk, budget):
        out = _remainder({pk.pack(m): c for m, c in p.terms.items()},
                         _basis_rows(basis, pk), pk, budget, bound)
        return {pk.unpack(m): c for m, c in out.items()}

    return Polynomial(p.context, _packed(
        basis.order, p.context.nvars,
        [p.terms, *(g.terms for g in basis.elements)], run))


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


def _strip_monomial_factor(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / d for a monomial g, d the monomial of the least exponents over
    f's terms of g's variables, so that (f) : g^infinity = (f / d)."""
    (a,) = g.terms
    low = [min(m[i] for m in f.terms) if a[i] else 0 for i in range(len(a))]
    return Polynomial(f.context, {
        tuple(e - d for e, d in zip(m, low)): c for m, c in f.terms.items()})


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
        return (gens[0].monic(),)
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
    if len(near) == 1 and len(g.terms) == 1:
        basis = (_strip_monomial_factor(near[0], g).monic(),)
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
    return tuple(sorted(basis, key=lambda p: grevlex_key(p.leading()[0])))


def saturate(i: Ideal, k: Ideal) -> Ideal:
    """I : K^infinity as the intersection of I : g^infinity over the
    generators g of K, returned as the (unique) reduced GREVLEX basis.

    Each I : g^infinity splits I's generators into blocks linked by shared
    variables and saturates only the blocks that share a variable with g:
    one generator and a monomial g by stripping g's variables, with no
    basis, anything else by a Rabinowitsch elimination, whose basis is
    already reduced under GREVLEX (its u-free tails are reduced against
    u-free leading terms only).  Factors equal to (1) drop out, principal
    factors are intersected by lcms (a gcd each), the others by one
    elimination each."""
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
            acc = Ideal(ctx, (lcm.monic(),))
        else:
            acc = intersect(acc, Ideal(ctx, part))
    return Ideal(ctx, (Polynomial.one(ctx),)) if acc is None else acc


# ---------------------------------------------------------------------------
# numerical invariants of ideals

def _prune_by_monomials(gens) -> list[Polynomial]:
    """Generators of the same ideal in which no generator keeps a term
    divisible by a one-term generator.  M, the minimal exponents of the
    one-term generators, keeps one generator each; every other generator
    loses its terms divisible by a member of M, and is dropped when none is
    left.  Repeated while a generator lost a term (it may shrink to one
    term).  The ideal stays the same: g less its terms divisible by m is
    g - m*q, and a one-term generator is a nonzero constant times m."""
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
            terms = {m: c for m, c in g.terms.items() if not any(
                sparse.mdiv(m, k) is not None for k in mons)}
            if len(terms) == len(g.terms):
                out.append(g)
                continue
            pruned = True
            if terms:
                out.append(Polynomial(g.context, terms))
        if not pruned:
            return out
        gens = out


def _block_leading_exponents(variables: set[int], gens) -> list[tuple[int, ...]]:
    """The leading exponents of the minimal local basis of a block's
    generators, in the block's own variables: their exponent tuples are
    restricted and packed, and no context, ideal, basis or polynomial is
    built."""
    keep = sorted(variables)
    rows = [{tuple([m[i] for i in keep]): c for m, c in g.terms.items()}
            for g in gens]
    unit = gens[0].context.unit

    def run(pk, budget):
        return [pk.unpack(lt) for _, lt in _minimal_rows(rows, pk, unit, budget)]

    return _packed(LOCAL, len(keep), rows, run)


def colength_at_origin(ideal: Ideal) -> int | None:
    """dim_F of (local ring at the origin) / ideal, F the coefficient field;
    None when it is infinite.

    Block by block after pruning (see the module docstring): the colengths
    multiply.  A variable in no generator makes it infinite.  A block in one
    variable contributes the least order of its generators (the local ring
    is a discrete valuation ring), and any other block the staircase of its
    leading exponents, infinite for a block of one generator: its one
    leading exponent is a pure power of at most one variable."""
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
        count = _staircase(_block_leading_exponents(vs, ps), len(vs))
        if count is None:
            return None
        colength *= count
    return colength


def contains_local_unit(ideal: Ideal) -> bool:
    """Whether the ideal is the whole local ring at the origin: exactly when
    some generator has a nonzero constant term, for otherwise every
    generator, and with them the ideal, lies in the maximal ideal."""
    zero = (0,) * ideal.context.nvars
    return any(zero in g.terms for g in ideal.generators)


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
    sb = standard_basis(Ideal(ctx, ideal.generators + tuple(ms)), GREVLEX)
    colength = _staircase(sb.leading_exponents, ctx.nvars)
    if colength is None:
        raise InternalCheckError("truncated ideal must have finite colength")
    return colength


def colength_by_truncation(ideal: Ideal) -> int:
    """Colength via global bases of I + m^N, independent of the local
    (Mora) machinery.  When the generators include a pure power z_i^a_i of
    every variable, m^N lies in I for N = 1 + sum(a_i - 1) and one
    truncation is exact.  Otherwise N doubles from 1: c_N, the colength of
    I + m^N, grows strictly with N until m^N lies in I locally (Nakayama)
    and stays put from there, so c_N < N, or two equal consecutive values,
    make c_N the colength.  A constant generator takes the doubling too."""
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
