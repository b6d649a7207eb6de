"""Invariants of a polynomial germ with a line singularity along the z1-axis.

Everything is exact: orders and colengths are integers, ratios are
fractions.Fraction, and "generic" values are computed over the fraction
field (a transcendental parameter) and then cross-checked at random rational
specializations drawn from an explicitly seeded generator.

The coordinate system is taken as given: the singular line must be the
first declared variable's axis and the slice V(z1) is used as the transverse
hyperplane.  Inputs singular along another axis should be permuted first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm
from random import Random

from .engine import (Ideal, colength_at_origin, colength_global,
                     dimension_at_origin, saturate)
from .errors import (ContextError, DegenerateInputError,
                     ImproperIntersectionError, InternalCheckError,
                     NonIntegerResultError, NonIsolatedError,
                     NotLineSingularityError, PolarDimensionError,
                     UnluckySpecializationError)
from .poly import Polynomial, require_reduced


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


@dataclass(frozen=True)
class WeightSystem:
    """Positive integer weights making every monomial of the attested
    polynomial weighted-homogeneous of the same degree; normalized so
    gcd(w1, ..., wn, d) = 1.

    Variables absent from the polynomial get the placeholder weight
    max(determined weights) + 1 and are flagged free; free weights never
    serve as the smallest weight."""

    variables: tuple[str, ...]
    weights: tuple[int, ...]
    degree: int
    free: tuple[bool, ...]
    unique: bool

    def __post_init__(self):
        if gcd(*self.weights, self.degree) != 1:
            raise InternalCheckError("weight system not normalized")

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


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the rational nullspace via Gauss-Jordan elimination."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(v)
    return basis


def _integerize(vec: list[Fraction]) -> list[int] | None:
    if any(x <= 0 for x in vec):
        return None
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def detect_weights(f: Polynomial) -> WeightSystem | None:
    """Positive weights (w, d) with every monomial of f of weighted degree d,
    or None when no positive solution exists.

    When the solution cone has dimension greater than one, a deterministic
    search over small integer combinations of a nullspace basis picks a
    representative (flagged non-unique)."""
    if f.is_zero():
        raise DegenerateInputError("cannot weight the zero polynomial")
    if f.context.parameters:
        raise ContextError("weight detection needs a parameter-free polynomial")
    ctx = f.context
    present = sorted({i for m in f.terms for i, e in enumerate(m) if e})
    if not present:
        raise DegenerateInputError("germ does not vanish at the origin")
    ncols = len(present) + 1  # unknowns: weights of present variables, then d
    rows = [[Fraction(m[i]) for i in present] + [Fraction(-1)]
            for m in f.terms]
    basis = _nullspace(rows, ncols)
    if not basis:
        return None
    unique = len(basis) == 1

    solution = None
    if unique:
        v = basis[0]
        if all(x < 0 for x in v):
            v = [-x for x in v]
        solution = _integerize(v)
    else:
        # bounded deterministic search of the positive cone
        dim = len(basis)
        for bound in range(1, 9):
            hit = None
            for combo in iter_product(range(-bound, bound + 1), repeat=dim):
                if max(abs(c) for c in combo) != bound:
                    continue  # covered by a smaller bound
                v = [sum(Fraction(c) * b[k] for c, b in zip(combo, basis))
                     for k in range(ncols)]
                cand = _integerize(v)
                if cand is not None and (hit is None or cand < hit):
                    hit = cand
            if hit is not None:
                solution = hit
                break
    if solution is None:
        return None

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
    ws = WeightSystem(ctx.variables, tuple(weights), degree, tuple(free), unique)
    for m in f.terms:
        if ws.weighted_degree(m) != degree:
            raise InternalCheckError("weight system fails on its own input")
    return ws


# ---------------------------------------------------------------------------
# Milnor numbers

def _jacobian(f: Polynomial, variables: tuple[str, ...]) -> list[Polynomial]:
    parts = [f.partial(v) for v in variables]
    return [p for p in parts if not p.is_zero()]


def milnor_number(f: Polynomial,
                  variables: tuple[str, ...] | None = None) -> int:
    """Colength of the Jacobian ideal in the ring of the given variables;
    refuses non-isolated critical points."""
    if variables is None:
        variables = f.context.variables
    g = f.restrict_to(tuple(variables))
    if g.constant_coefficient():
        raise DegenerateInputError("germ does not vanish at the origin")
    parts = _jacobian(g, g.context.variables)
    if not parts:
        raise DegenerateInputError("constant germ has no Milnor number")
    mu = colength_at_origin(Ideal(g.context, tuple(parts)))
    if mu is None:
        raise NonIsolatedError(
            "Jacobian ideal has infinite colength (non-isolated critical point)")
    return mu


def milnor_orlik(w: WeightSystem, indices: tuple[int, ...]) -> int:
    """Product of (d/w_i - 1) over the given variable indices; the classical
    Milnor number of a weighted homogeneous isolated singularity in those
    variables.  A non-integer or negative product signals a hypothesis
    violation."""
    acc = Fraction(1)
    for i in indices:
        acc *= Fraction(w.degree, w.weights[i]) - 1
    if acc.denominator != 1 or acc < 0:
        raise NonIntegerResultError(
            f"weight product {acc} is not a non-negative integer")
    return int(acc)


# ---------------------------------------------------------------------------
# line-singularity verification

@dataclass(frozen=True)
class LineSingularityCheck:
    """The three tests of is_line_singularity.  The third runs only when
    the first two pass, and extra_critical_component_at_origin is None (not
    tested) otherwise."""

    vanishes_on_axis: bool
    slice_isolated: bool
    slice_milnor: int | None
    extra_critical_component_at_origin: bool | None

    @property
    def is_line_singularity(self) -> bool:
        return (self.vanishes_on_axis and self.slice_isolated
                and not self.extra_critical_component_at_origin)

    @property
    def failing_check(self) -> str | None:
        if not self.vanishes_on_axis:
            return "vanishes_on_axis"
        if not self.slice_isolated:
            return "slice_isolated"
        if self.extra_critical_component_at_origin:
            return "no_extra_critical_component"
        return None


def _restrict_to_axis(p: Polynomial) -> Polynomial:
    out = p
    for v in p.context.variables[1:]:
        out = out.eval_variable_zero(v)
    return out


def is_line_singularity(f: Polynomial) -> LineSingularityCheck:
    """Three checks: every partial vanishes identically on the z1-axis, the
    slice f|V(z1) has an isolated singularity, and the critical locus V(Jac)
    has no extra component through 0 (one not contained in the axis).

    The third runs only when the first two pass, and is read off the polar
    curve.  Let P = (df/dz2, ..., df/dzn), Gamma = P : (z2, ..., zn)^infinity
    (the ideal of polar_variety_1) and d1 = df/dz1.  Then V(P) = V(Gamma) union
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
    others = ctx.variables[1:]

    parts = [f.partial(v) for v in ctx.variables]
    vanishes = all(_restrict_to_axis(p).is_zero() for p in parts)

    slice_poly = f.eval_variable_zero(ctx.variables[0])
    slice_mu: int | None = None
    if slice_poly.is_zero():
        slice_isolated = False
    else:
        try:
            slice_mu = milnor_number(slice_poly, others)
            slice_isolated = True
        except NonIsolatedError:
            slice_isolated = False

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


def polar_variety_1(f: Polynomial) -> Ideal:
    """The relative polar curve: components of V(partials transverse to the
    axis) not contained in the singular line, as the saturation by
    (z2, ..., zn).  Its germ must be a curve or empty."""
    gamma = _polar_ideal(f)
    dim = dimension_at_origin(gamma)
    if dim not in (None, 1):
        raise PolarDimensionError(
            f"polar variety has dimension {dim} at the origin (expected a "
            "curve or empty); the coordinates are not prepolar")
    return gamma


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


def lambda1(f: Polynomial, rng: Random) -> tuple[int, tuple[Fraction, Fraction]]:
    """Transverse Milnor number at the generic point of the axis: colength of
    the transverse Jacobian ideal with z1 promoted to a transcendental
    parameter; cross-checked at two random rational axis points (each
    redrawn once on disagreement, then refused as unlucky)."""
    ctx = f.context
    axis = ctx.variables[0]
    others = ctx.variables[1:]
    parts = _jacobian(f, others)
    if not parts:
        raise DegenerateInputError("germ depends only on the axis variable")
    promoted = [p.promote_variable_to_parameter(axis) for p in parts]
    pctx = promoted[0].context
    generic = colength_at_origin(Ideal(pctx, tuple(promoted)))
    if generic is None:
        raise InternalCheckError(
            "transverse Jacobian colength is infinite on a verified line "
            "singularity")

    def agrees(point: Fraction) -> bool:
        try:
            spec = [p.specialize_parameter(axis, point) for p in promoted]
            spec = [p for p in spec if not p.is_zero()]
            if not spec:
                return False
            return colength_at_origin(
                Ideal(spec[0].context, tuple(spec))) == generic
        except UnluckySpecializationError:
            return False

    return generic, cross_checked_witnesses(
        rng, agrees,
        lambda point: f"transverse Milnor number at z1 = {point} disagrees "
                      f"with the generic value {generic}")


def lambda_k_vanishing(f: Polynomial, k: int, rng: Random) -> bool:
    """Whether the k-th Le number vanishes (2 <= k <= n-1): the cycles
    [Gamma^(k+1) meet V(df/dz_(k+1))] and [Gamma^k] are cut by k generic
    affine hyperplanes z_i = p_i and their total intersection counts
    compared; equality means the correction cycle is zero."""
    ctx = f.context
    n = ctx.nvars
    if not 2 <= k <= n - 1:
        raise DegenerateInputError(f"k must lie in [2, {n - 1}]")
    others = ctx.variables[1:]
    sat_by = Ideal(ctx, tuple(Polynomial.variable(ctx, v) for v in others))

    def polar_gens(level: int) -> list[Polynomial]:
        gens = _jacobian(f, ctx.variables[level:])
        if not gens:
            return []  # the zero ideal: the whole space
        return list(saturate(Ideal(ctx, tuple(gens)), sat_by).generators)

    cuts = []
    for i in range(k):
        p_i = draw_rational(rng)
        cuts.append(Polynomial.variable(ctx, ctx.variables[i])
                    - Polynomial.constant(ctx, p_i))

    d_next = f.partial(ctx.variables[k])
    side1 = polar_gens(k + 1) + ([] if d_next.is_zero() else [d_next]) + cuts
    side2 = polar_gens(k) + cuts
    c1 = colength_global(Ideal(ctx, tuple(side1)))
    c2 = colength_global(Ideal(ctx, tuple(side2)))
    if c1 is None or c2 is None:
        raise ImproperIntersectionError(
            "hyperplane cuts of the polar cycles are not zero-dimensional")
    return c1 == c2


def polar_ratio(gamma1_value: int, lambda0_value: int) -> Fraction | None:
    """(intersection with V(f)) / (intersection with V(z1)) for the polar
    curve; undefined when the curve misses the origin."""
    if gamma1_value == 0:
        return None
    return Fraction(gamma1_value + lambda0_value, gamma1_value)


def euler_reduced(lambda0_value: int, lambda1_value: int, n: int) -> int:
    if n < 2:
        raise DegenerateInputError("need at least 2 variables")
    return ((-1) ** (n - 1)) * lambda0_value + ((-1) ** (n - 2)) * lambda1_value


# ---------------------------------------------------------------------------
# the weighted-homogeneous polar-ratio identity

@dataclass(frozen=True)
class PolarRatioLemmaReport:
    substitution_identity: bool
    degree: int
    axis_weight: int
    rho_from_weights: Fraction
    rho_computed: Fraction | None

    @property
    def consistent(self) -> bool:
        return (self.substitution_identity
                and (self.rho_computed is None
                     or self.rho_computed == self.rho_from_weights))


def check_polar_ratio_lemma(f0: Polynomial, w: WeightSystem,
                            rho_computed: Fraction | None) -> PolarRatioLemmaReport:
    """Monomial-curve identity: substituting z_i -> a_i * s^(w_i) with
    symbolic a_i must turn f0 into f0(a) * s^d exactly; consequently every
    polar-curve branch meets V(f0) with multiplicity d and V(z1) with
    multiplicity w1, so the polar ratio is d/w1."""
    if f0.context.parameters:
        raise ContextError("the identity is checked on parameter-free germs")
    for m in f0.terms:
        if w.weighted_degree(m) != w.degree:
            raise DegenerateInputError(
                "polynomial is not weighted homogeneous for the given weights")
    # every term c*z^m has weighted degree d, so the substitution sends it
    # to c*a^m*s^d; distinct monomials m give distinct a^m, so no two terms
    # cancel and the image is f0(a)*s^d, nonzero, exactly when f0 is
    identity = not f0.is_zero()
    return PolarRatioLemmaReport(identity, w.degree, w.weights[0],
                                 Fraction(w.degree, w.weights[0]), rho_computed)


# ---------------------------------------------------------------------------
# the full record

@dataclass(frozen=True)
class InvariantRecord:
    order: int
    multiplicity: int
    weights: WeightSystem | None
    lambda0: int
    lambda1: int
    gamma1: int
    polar_ratio: Fraction | None
    euler_reduced: int
    slice_milnor: int
    intersection_with_hypersurface: int  # ([polar curve] . [V(f)]) at 0
    polar_ideal: Ideal
    polar_empty: bool
    line_check: LineSingularityCheck
    lambda_k_zero: tuple[bool, ...]  # k = 2, ..., n-1
    axis_witnesses: tuple[Fraction, Fraction]


def germ_record(f: Polynomial, rng: Random) -> InvariantRecord:
    """Compute every invariant of a verified line singularity, with the
    built-in consistency check gamma1 + lambda0 = ([polar curve].[V(f)])_0."""
    check, gamma, l0 = _line_check(f)
    _refuse_unless_line(check)
    order = order_at_origin(f)
    # the check found no extra critical component, so lambda0's colength,
    # which it computed, is finite
    g1 = gamma1(gamma)
    l1, witnesses = lambda1(f, rng)

    inter = colength_at_origin(gamma.with_extra(f))
    if inter is None:
        raise ImproperIntersectionError(
            "polar curve meets V(f) improperly (infinite colength)")
    if inter != g1 + l0:
        raise InternalCheckError(
            f"intersection number {inter} != gamma1 + lambda0 = {g1 + l0}")

    n = f.context.nvars
    lamk = tuple(lambda_k_vanishing(f, k, rng) for k in range(2, n))
    weights = None if f.context.parameters else detect_weights(f)
    return InvariantRecord(
        order=order,
        multiplicity=order,
        weights=weights,
        lambda0=l0,
        lambda1=l1,
        gamma1=g1,
        polar_ratio=polar_ratio(g1, l0),
        euler_reduced=euler_reduced(l0, l1, n),
        slice_milnor=check.slice_milnor,
        intersection_with_hypersurface=inter,
        polar_ideal=gamma,
        polar_empty=g1 == 0,  # a curve through 0 meets V(z1) there
        line_check=check,
        lambda_k_zero=lamk,
        axis_witnesses=witnesses,
    )
