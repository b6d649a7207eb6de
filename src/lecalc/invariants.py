"""Invariants of a polynomial germ with a line singularity along the z1-axis.

Everything is exact: orders and colengths are integers and ratios are
fractions.Fraction.  The one generic value, lambda1 at a general point of
the axis, is cross-checked at random rational axis points drawn from an
explicitly seeded generator.

The coordinate system is taken as given: the singular line must be the
first declared variable's axis and the slice V(z1) is used as the transverse
hyperplane.  Inputs singular along another axis should be permuted first.

Only lambda0 and lambda1 are computed.  The higher Le numbers lambda^k,
k >= 2, are zero by theorem, not by computation: the k-th Le cycle is a
k-cycle supported on the critical locus, which is a curve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from random import Random
from typing import NamedTuple

from .engine import Ideal, colength_at_origin, saturate
from .errors import (ContextError, DegenerateInputError,
                     ImproperIntersectionError, InternalCheckError,
                     NonIsolatedError, NotLineSingularityError,
                     UnluckySpecializationError)
from .poly import Polynomial, require_reduced
from .sparse import current_budget


def draw_rational(rng: Random) -> Fraction:
    """A nonzero rational with numerator in ±[1, 97] and denominator in
    [1, 97]; the workhorse for generic-position choices."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 97),
                    rng.randint(1, 97))


def draw_distinct_rationals(rng: Random, count: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < count:
        q = draw_rational(rng)
        if q not in out:
            out.append(q)
    return out


def cross_checked_witnesses(rng: Random, agrees,
                            refusal) -> tuple[Fraction, Fraction]:
    """Two distinct random rationals at which agrees(value) holds.  A draw
    that disagrees is redrawn once, distinct from both; a second
    disagreement raises UnluckySpecializationError(refusal(value))."""
    witnesses = draw_distinct_rationals(rng, 2)
    for k in range(2):
        if agrees(witnesses[k]):
            continue
        retry = draw_rational(rng)
        while retry in witnesses:
            retry = draw_rational(rng)
        witnesses[k] = retry
        if not agrees(retry):
            raise UnluckySpecializationError(refusal(retry))
    return witnesses[0], witnesses[1]


# ---------------------------------------------------------------------------
# order and weights

def order_at_origin(f: Polynomial) -> int:
    """Minimal total degree among the terms (the multiplicity for reduced
    germs)."""
    if f.is_zero():
        raise DegenerateInputError("the zero polynomial has no order")
    order = f.min_total_degree()
    if order == 0:
        raise DegenerateInputError("germ does not vanish at the origin")
    return order


class _WeightFields(NamedTuple):
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    degree: int
    free: tuple[bool, ...]
    unique: bool


class WeightSystem(_WeightFields):
    """Positive integer weights making every monomial of the attested
    polynomial weighted-homogeneous of the same degree; normalized so
    gcd(w1, ..., wn, d) = 1.

    Variables absent from the polynomial get the placeholder weight
    max(determined weights) + 1 and are flagged free; free weights never
    serve as the smallest weight."""

    __slots__ = ()

    def __new__(cls, variables: tuple[str, ...], weights: tuple[int, ...],
                degree: int, free: tuple[bool, ...], unique: bool):
        if gcd(*weights, degree) != 1:
            raise InternalCheckError("weight system not normalized")
        return super().__new__(cls, variables, weights, degree, free, unique)

    def _replace(self, **changes) -> "WeightSystem":
        # the namedtuple _replace would skip the check in __new__
        return WeightSystem(**{**self._asdict(), **changes})

    @property
    def smallest_weight(self) -> int:
        return min(w for w, fr in zip(self.weights, self.free) if not fr)

    @property
    def smallest_index(self) -> int:
        w0 = self.smallest_weight
        for i, (w, fr) in enumerate(zip(self.weights, self.free)):
            if not fr and w == w0:
                return i
        raise InternalCheckError("no non-free weight")

    @property
    def free_variables(self) -> tuple[str, ...]:
        return tuple(v for v, fr in zip(self.variables, self.free) if fr)

    def weighted_degree(self, expo: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(expo, self.weights))


def _nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the rational nullspace of an integer matrix, by
    Gauss-Jordan elimination without division: a row is cleared by
    cross-multiplication and kept primitive."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                a = mat[i][c]
                row = [x * p - a * y for x, y in zip(mat[i], mat[r])]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g else row
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    scale = lcm(*(mat[ri][pc] for ri, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = scale
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc] * scale // mat[ri][pc]
        basis.append(v)
    return basis


def detect_weights(f: Polynomial) -> WeightSystem | None:
    """Positive weights (w, d) with every monomial of f of weighted degree d,
    or None when no positive solution exists.

    The solutions (w, d) form a space of some dimension r, and those with
    w_i >= 1 for each variable of f a polyhedron P in it.  P is pointed and
    d is bounded below on it, so P is empty exactly when no positive
    weights exist, and otherwise d is least at a vertex of P, where r
    independent constraints w_i = 1 are tight.  So each r-subset of the
    variables is solved for the point of P with weight 1 on the subset,
    and the result is the vertex of least d, ties broken by the
    lexicographically least w, scaled to primitive integers.  Every vertex
    has w_min = 1, so the result has the least d/w_min.  When r = 1 the
    system is flagged unique, P is the ray scaled to w_min = 1, and
    detection costs no step; when r >= 2 each subset it solves costs one
    step of the current budget."""
    if f.is_zero():
        raise DegenerateInputError("cannot weight the zero polynomial")
    if f.context.parameters:
        raise ContextError("weight detection needs a parameter-free polynomial")
    ctx = f.context
    present = sorted({i for m in f.terms for i, e in enumerate(m) if e})
    if not present:
        raise DegenerateInputError("germ does not vanish at the origin")
    ncols = len(present) + 1  # unknowns: weights of present variables, then d
    rows = [[m[i] for i in present] + [-1] for m in f.terms]
    basis = _nullspace(rows, ncols)
    r = len(basis)
    if not r:
        return None
    coords = list(zip(*basis))  # coords[j][k] = basis[k][j]
    tick = current_budget().tick if r > 1 else (lambda: None)
    best = None
    for first, *rest in combinations(range(len(present)), r):
        tick()
        # the solutions with equal weights on the subset: a line through
        # the subset's vertex when the r constraints are independent
        kernel = _nullspace([[a - b for a, b in zip(coords[i], coords[first])]
                             for i in rest], r)
        if len(kernel) != 1:
            continue
        u = [sum(map(mul, kernel[0], c)) for c in coords]
        if u[first] < 0:
            u = [-x for x in u]
        if not u[first] or min(u[:-1]) < u[first]:
            continue  # no vertex, or some weight below 1 there
        key = [Fraction(x, u[first]) for x in (u[-1], *u[:-1])]
        if best is None or key < best[0]:
            best = key, u
    if best is None:
        return None
    g = gcd(*best[1])
    solution = [x // g for x in best[1]]

    det_weights = solution[:-1]
    degree = solution[-1]
    w_free = max(det_weights) + 1
    weights = []
    free = []
    by_present = dict(zip(present, det_weights))
    for i in range(ctx.nvars):
        if i in by_present:
            weights.append(by_present[i])
            free.append(False)
        else:
            weights.append(w_free)
            free.append(True)
    ws = WeightSystem(ctx.variables, tuple(weights), degree, tuple(free),
                      r == 1)
    for m in f.terms:
        if ws.weighted_degree(m) != degree:
            raise InternalCheckError("weight system fails on its own input")
    return ws


# ---------------------------------------------------------------------------
# Milnor numbers

def _jacobian(f: Polynomial, variables: tuple[str, ...]) -> list[Polynomial]:
    parts = [f.partial(v) for v in variables]
    return [p for p in parts if not p.is_zero()]


def gradient(f: Polynomial) -> tuple[Polynomial, ...]:
    """Every partial derivative of the germ f, in the order of its
    variables, zeros kept; refuses a germ that does not vanish at the
    origin."""
    if f.constant_coefficient():
        raise DegenerateInputError("germ does not vanish at the origin")
    return tuple(f.partial(v) for v in f.context.variables)


def jacobian_colength(partials: tuple[Polynomial, ...]) -> int:
    """Colength of the ideal of the nonzero partials, in their order: the
    Milnor number of a germ whose gradient they are.  Refuses a constant
    germ (no nonzero partial) and a non-isolated critical point."""
    parts = tuple(p for p in partials if not p.is_zero())
    if not parts:
        raise DegenerateInputError("constant germ has no Milnor number")
    mu = colength_at_origin(Ideal(parts[0].context, parts))
    if mu is None:
        raise NonIsolatedError(
            "Jacobian ideal has infinite colength (non-isolated critical point)")
    return mu


def milnor_number(f: Polynomial,
                  variables: tuple[str, ...] | None = None) -> int:
    """Colength of the Jacobian ideal in the ring of the given variables;
    refuses non-isolated critical points."""
    if variables is None:
        variables = f.context.variables
    return jacobian_colength(gradient(f.restrict_to(tuple(variables))))


# ---------------------------------------------------------------------------
# line-singularity verification

class LineSingularityCheck(NamedTuple):
    """The three tests of is_line_singularity.  The third runs only when
    the first two pass, and extra_critical_component_at_origin is None (not
    tested) otherwise."""

    vanishes_on_axis: bool
    slice_isolated: bool
    slice_milnor: int | None
    extra_critical_component_at_origin: bool | None

    @property
    def is_line_singularity(self) -> bool:
        return self.failing_check is None

    @property
    def failing_check(self) -> str | None:
        if not self.vanishes_on_axis:
            return "vanishes_on_axis"
        if not self.slice_isolated:
            return "slice_isolated"
        if self.extra_critical_component_at_origin:
            return "no_extra_critical_component"
        return None


def _vanishes_on_axis(f: Polynomial) -> bool:
    """Whether every partial of f vanishes identically on the z1-axis.  Over
    a field of characteristic 0, or of characteristic p above every
    exponent (the primes of the generic cross-checks exceed 2^30), that
    holds exactly when every term has degree >= 2 in z2, ..., zn: a term of
    lower degree leaves a nonzero term of some partial on the axis, and
    distinct terms leave distinct ones."""
    return all(sum(m[1:]) >= 2 for m in f.terms)


def _slice_milnor(f: Polynomial, point) -> int | None:
    """Milnor number of the transverse slice f(point, z2, ..., zn) at its
    origin; None when the slice is zero or not an isolated singularity."""
    ctx = f.context
    slice_poly = f.eval_variable(ctx.variables[0], point)
    if slice_poly.is_zero():
        return None
    try:
        return milnor_number(slice_poly, ctx.variables[1:])
    except NonIsolatedError:
        return None


def is_line_singularity(f: Polynomial) -> LineSingularityCheck:
    """Three checks: every partial vanishes identically on the z1-axis, the
    slice f|V(z1) has an isolated singularity, and the critical locus V(Jac)
    has no extra component through 0 (one not contained in the axis).

    The third runs only when the first two pass, and is read off the polar
    curve.  Let P = (df/dz2, ..., df/dzn), Gamma = P : (z2, ..., zn)^infinity
    (the ideal of the polar curve) and d1 = df/dz1.  Then V(P) = V(Gamma) union
    (V(P) meet the axis), so V(Jac) = V(P) meet V(d1) agrees with
    V(Gamma + (d1)) off the axis, and an extra component passes through 0
    exactly when 0 lies in the closure of V(Gamma + (d1)) minus the axis.
    An isolated slice gives P + (z1) finite colength, so dim_0 V(P) <= 1
    (Krull), and Gamma, which contains P and has no m-primary component,
    is a curve germ or empty.  None of its branches lies in the axis, so
    each meets the axis only at 0, and an extra component exists exactly
    when a branch lies in V(d1), that is, when Gamma + (d1) (Gamma alone
    when d1 = 0) has infinite colength at 0.  That colength is lambda0
    (Massey, Le Cycles and Hypersurface Singularities, LNM 1615)."""
    return _line_check(f)[0]


def _line_check(f: Polynomial) -> tuple[LineSingularityCheck, Ideal | None,
                                        int | None]:
    """is_line_singularity(f), with what it computed on the way: Gamma when
    the first two tests pass (None otherwise), and lambda0's colength when
    the third test read it (None when infinite or not computed)."""
    require_reduced(f)
    ctx = f.context
    if ctx.nvars < 2:
        raise DegenerateInputError("line singularities need at least 2 variables")
    if f.constant_coefficient():
        raise DegenerateInputError("germ does not vanish at the origin")

    vanishes = _vanishes_on_axis(f)
    slice_mu = _slice_milnor(f, 0)
    slice_isolated = slice_mu is not None

    gamma = l0 = extra = None
    if vanishes and slice_isolated:
        gamma = _polar_ideal(f)
        l0 = colength_at_origin(_lambda0_ideal(f, gamma))
        extra = l0 is None
    check = LineSingularityCheck(vanishes, slice_isolated, slice_mu, extra)
    return check, gamma, l0


def _refuse_unless_line(check: LineSingularityCheck):
    if not check.is_line_singularity:
        raise NotLineSingularityError(
            f"germ is not a line singularity (failing check: "
            f"{check.failing_check})", check.failing_check, check)


# ---------------------------------------------------------------------------
# polar curve and its numbers

def _polar_ideal(f: Polynomial) -> Ideal:
    """(df/dz2, ..., df/dzn) : (z2, ..., zn)^infinity."""
    ctx = f.context
    others = ctx.variables[1:]
    gens = _jacobian(f, others)
    if not gens:
        raise DegenerateInputError("germ depends only on the axis variable")
    axis_ideal = Ideal(ctx, tuple(Polynomial.variable(ctx, v) for v in others))
    return saturate(Ideal(ctx, tuple(gens)), axis_ideal)


def gamma1(gamma: Ideal) -> int:
    """Intersection number of the polar curve with V(z1) at the origin; 0
    when the curve misses the origin (the ideal then contains a local unit
    and its colength is 0)."""
    ctx = gamma.context
    z1 = Polynomial.variable(ctx, ctx.variables[0])
    g1 = colength_at_origin(gamma.with_extra(z1))
    if g1 is None:
        raise ImproperIntersectionError(
            "polar curve meets V(z1) improperly (infinite colength)")
    return g1


def _lambda0_ideal(f: Polynomial, gamma: Ideal) -> Ideal:
    d1 = f.partial(f.context.variables[0])
    return gamma if d1.is_zero() else gamma.with_extra(d1)


def lambda1(f: Polynomial, slice_milnor: int, gamma1_value: int,
            rng: Random) -> tuple[int, tuple[Fraction, Fraction]]:
    """Transverse Milnor number at a generic point of the axis, read off
    the slice at the origin: lambda1 = mu(f|V(z1)) - gamma1.  The ideal
    P = (df/dz2, ..., df/dzn) of a line singularity is a complete
    intersection of dimension 1 at 0, hence Cohen-Macaulay, and its cycle
    is [Gamma] + lambda1 [axis], the polar curve plus the axis counted with
    the generic transverse Milnor number.  V(z1) meets [Gamma] in gamma1,
    the axis in 1, and V(P) in the colength of P + (z1), which is
    mu(f|V(z1)) (Massey, Le Cycles and Hypersurface Singularities,
    LNM 1615).

    Cross-checked at two random rational axis points p, where the slice
    f(p, z2, ..., zn) must have Milnor number lambda1; a zero or
    non-isolated slice disagrees.  A disagreeing point is redrawn once,
    then refused as unlucky."""
    generic = slice_milnor - gamma1_value
    return generic, cross_checked_witnesses(
        rng, lambda point: _slice_milnor(f, point) == generic,
        lambda point: f"transverse Milnor number at z1 = {point} disagrees "
                      f"with the generic value {generic}")


# ---------------------------------------------------------------------------
# the full record

class InvariantRecord(NamedTuple):
    """The computed invariants of a line singularity; the numbers derived
    from them are properties, so no copy of one can go stale."""
    order: int
    lambda0: int
    lambda1: int
    gamma1: int
    slice_milnor: int
    intersection_with_hypersurface: int  # ([polar curve] . [V(f)]) at 0
    polar_ideal: Ideal
    line_check: LineSingularityCheck
    axis_witnesses: tuple[Fraction, Fraction]

    @property
    def multiplicity(self) -> int:
        return self.order

    @property
    def polar_ratio(self) -> Fraction | None:
        """(intersection with V(f)) / (intersection with V(z1)) for the
        polar curve; undefined when the curve misses the origin."""
        if self.polar_empty:
            return None
        return Fraction(self.gamma1 + self.lambda0, self.gamma1)

    @property
    def euler_reduced(self) -> int:
        n = self.polar_ideal.context.nvars
        return (-1) ** (n - 1) * self.lambda0 + (-1) ** (n - 2) * self.lambda1

    @property
    def polar_empty(self) -> bool:
        return self.gamma1 == 0  # a curve through 0 meets V(z1) there

    @property
    def lambda_k_zero(self) -> tuple[bool, ...]:
        # k = 2, ..., n-1: the k-th Le cycle is a k-cycle on the critical
        # curve (Massey, Le Cycles and Hypersurface Singularities, LNM 1615)
        return (True,) * (self.polar_ideal.context.nvars - 2)


def germ_record(f: Polynomial, rng: Random) -> InvariantRecord:
    """Compute every invariant of a verified line singularity, with the
    built-in consistency check gamma1 + lambda0 = ([polar curve].[V(f)])_0."""
    check, gamma, l0 = _line_check(f)
    _refuse_unless_line(check)
    order = order_at_origin(f)
    # the check found no extra critical component, so lambda0's colength,
    # which it computed, is finite
    g1 = gamma1(gamma)
    l1, witnesses = lambda1(f, check.slice_milnor, g1, rng)

    inter = colength_at_origin(gamma.with_extra(f))
    if inter is None:
        raise ImproperIntersectionError(
            "polar curve meets V(f) improperly (infinite colength)")
    if inter != g1 + l0:
        raise InternalCheckError(
            f"intersection number {inter} != gamma1 + lambda0 = {g1 + l0}")
    return InvariantRecord(
        order=order,
        lambda0=l0,
        lambda1=l1,
        gamma1=g1,
        slice_milnor=check.slice_milnor,
        intersection_with_hypersurface=inter,
        polar_ideal=gamma,
        line_check=check,
        axis_witnesses=witnesses,
    )
