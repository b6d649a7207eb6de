"""One-parameter deformation families and the equimultiplicity checkers.

A family F(t, z) = f0(z) + sum_j t^j g_j(z) is analyzed in two slices: at
t = 0 (exact) and at generic t (over the rational function field).  The
family draws its generic points once: one value of t, uniform in [1, p - 1],
for each of the two fixed primes p in PRIMES.  Every generic value is
cross-checked at those points: the slice record is recomputed there, and
the generic rows of the augmentation (ILM) table are evaluated there only
(the table then cross-checks them against the exact lambda0 and lambda1).
Both points are computed in one run (_generic_values), on the joint member
over Z/(p1 p2) = GF(p1) x GF(p2) at the Chinese-remainder lift of the two
values of t, the only composite modulus lecalc computes over.  A run that
meets a residue zero mod one prime only (poly.ZeroDivisor) is run again
over each GF(p), from the same step count and random state.  Each member
is specialized once per command and kept with the family
(Family.image_at): the slice record, the ILM rows and the axis-weight note
read the same member.  The ILM rows reuse its Jacobian:
the member is differentiated once, and row j is (d1 g + j*z1^(j-1), d2 g,
..., dn g), the Jacobian of g + z1^j.  A repeated factor is refused by the
slice records themselves: germ_record checks f0 over QQ and F over QQ(t).
The theorem checkers record each hypothesis with a HOLDS / FAILS /
USER_ASSERTED / NOT_CHECKED status and only emit a conclusion licensed by
those statuses; user assertions are always listed, never silently mixed
with computed facts.  Irreducibility of the generic polar curve, a premise
of mt3 and cmt3, is never computed: it holds only when the user asserts it.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .errors import (BudgetExceededError, ContextError, DegenerateInputError,
                     InternalCheckError, MathRefusal, NonIsolatedError,
                     NonReducedError, UnluckySpecializationError, UsageError)
from .invariants import (InvariantRecord, WeightSystem, detect_weights,
                         germ_record, gradient, jacobian_colength,
                         order_at_origin)
from .poly import Modular, Polynomial, ZeroDivisor
from .sparse import current_budget

ZERO = "ZERO"
GENERIC = "GENERIC"

HOLDS = "HOLDS"
FAILS = "FAILS"
USER_ASSERTED = "USER_ASSERTED"
NOT_CHECKED = "NOT_CHECKED"

EQUIMULTIPLE = "EQUIMULTIPLE"
NOT_EQUIMULTIPLE = "NOT_EQUIMULTIPLE"
NOT_TOPOLOGICALLY_V_EQUISINGULAR = "NOT_TOPOLOGICALLY_V_EQUISINGULAR"
INCONCLUSIVE = "INCONCLUSIVE"

IRREDUCIBLE_POLAR_CURVE = "generic_polar_curve_irreducible"

# the two prime fields of the generic cross-checks (2^31 - 1 and the largest
# prime below it; the tests check both by Miller-Rabin)
PRIMES = (2147483647, 2147483629)


# ---------------------------------------------------------------------------
# decomposition

class Family(NamedTuple):
    parameter: str
    full: Polynomial                 # over QQ(t)
    base: Polynomial                 # the t = 0 member, over QQ
    deformation: tuple[tuple[int, Polynomial], ...]   # (j, g_j), j >= 1
    points: tuple[tuple[int, int], ...]   # (p, t mod p) for each p in PRIMES
    # (modulus, t mod modulus) -> the member mod a prime or mod p1 p2,
    # filled by image_at as the members are first needed; it lives and
    # dies with the family, and a copy by _replace with another `full`
    # needs a dict of its own
    images: dict[tuple[int, int], Polynomial]

    def member(self, value: Fraction | Modular) -> Polynomial:
        """The member at a rational value, over QQ, or at a residue, over
        GF(p) or Z/(p1 p2)."""
        return self.full.specialize_parameter(self.parameter, value)

    def image_at(self, p: int, tau: int) -> Polynomial:
        """The member at t = tau mod p, p a prime or p1 p2, specialized
        once per family: the generic slice record, the ILM rows and the
        axis-weight note all read it."""
        g = self.images.get((p, tau))
        if g is None:
            g = self.images[p, tau] = self.member(Modular(tau, p))
        return g


def _draw_mod_points(rng: Random) -> tuple[tuple[int, int], ...]:
    """One parameter value per prime of PRIMES, uniform in [1, p - 1]."""
    return tuple((p, rng.randint(1, p - 1)) for p in PRIMES)


def decompose_family(f: Polynomial, rng: Random) -> Family:
    """Split F = f0 + sum t^j g_j, checking that the origin stays on every
    member, and draw the family's generic points with _draw_mod_points.
    Reducedness is not checked here: the slice records refuse a repeated
    factor of f0 over QQ and of F over QQ(t)."""
    ctx = f.context
    if ctx.nparams != 1:
        raise ContextError("a family needs exactly one declared parameter")
    t = ctx.parameters[0]
    if f.is_zero():
        raise DegenerateInputError("the zero family")
    if f.constant_coefficient():
        raise DegenerateInputError(
            f"family does not vanish at the origin for all {t}")

    plain = ctx.without_parameter(t)
    layers: dict[int, dict] = {}
    for m, c in f.terms.items():
        if not c.den_is_one:
            raise DegenerateInputError(
                "family coefficients must be polynomial in the parameter")
        for (j,), q in c.num.items():
            layers.setdefault(j, {})[m] = q
    members: dict[int, Polynomial] = {
        j: Polynomial(plain, terms) for j, terms in sorted(layers.items())}

    base = members.get(0, Polynomial.zero(plain))
    if base.is_zero():
        raise DegenerateInputError(
            f"the {t} = 0 member is the zero polynomial")
    deformation = tuple((j, g) for j, g in sorted(members.items()) if j >= 1)

    rebuilt = Polynomial.zero(ctx)
    param = Polynomial.parameter(ctx, t)
    for j, g in [(0, base), *deformation]:
        embedded = Polynomial(ctx, {m: ctx.coefficient(c)
                                    for m, c in g.terms.items()})
        rebuilt = rebuilt + param ** j * embedded
    if rebuilt != f:
        raise InternalCheckError("family decomposition does not reconstruct")
    return Family(t, f, base, deformation, _draw_mod_points(rng), {})


# ---------------------------------------------------------------------------
# upper deformations

class UpperReport(NamedTuple):
    upper: bool
    degree: int
    offenders: tuple[tuple[int, tuple[int, ...], int], ...]  # (j, expo, wdeg)


def is_upper(fam: Family, w: WeightSystem) -> UpperReport:
    """True when every monomial of every deformation term has weighted
    degree at least the weighted degree of the base."""
    for m in fam.base.terms:
        if w.weighted_degree(m) != w.degree:
            raise DegenerateInputError(
                "weight system does not make the base weighted homogeneous")
    offenders = []
    for j, g in fam.deformation:
        for m in sorted(g.terms, key=lambda e: (sum(e), e)):
            wdeg = w.weighted_degree(m)
            if wdeg < w.degree:
                offenders.append((j, m, wdeg))
    return UpperReport(not offenders, w.degree, tuple(offenders))


# ---------------------------------------------------------------------------
# slice records

class SliceRecord(NamedTuple):
    where: str
    record: InvariantRecord
    t_witnesses: tuple[tuple[int, int], ...]   # (p, t mod p); () at ZERO


def _comparable(rec: InvariantRecord):
    # the record's other numbers are properties of these, and germ_record
    # refuses a record whose intersection number differs from gamma1 + lambda0
    return (rec.order, rec.lambda0, rec.lambda1, rec.gamma1, rec.slice_milnor)


def _joint_point(points) -> tuple[int, int]:
    """(p1 p2, tau) for the points ((p1, tau1), (p2, tau2)), where tau is
    the Chinese-remainder lift: tau = tau_i mod p_i.  The member at tau over
    Z/(p1 p2) is the pair of the members at the two points."""
    (p1, tau1), (p2, tau2) = points
    return p1 * p2, tau1 + p1 * ((tau2 - tau1) * pow(p1, -1, p2) % p2)


def _generic_values(fam: Family, points, compute,
                    rng: Random | None = None) -> list:
    """[compute(member) for the members at points, over GF(p1) and
    GF(p2)], from one run on the joint member over Z/(p1 p2) when it
    completes: it then took the same branches as the run over each GF(p)
    (see poly.Modular), so its one value is both.  When building the joint
    member meets a zero divisor or a denominator with no image, or
    computing on it meets a zero divisor, compute runs on each prime's
    member instead, from the budget's step count and rng's state at which
    the joint run started."""
    try:
        joint = fam.image_at(*_joint_point(points))
    except (ZeroDivisor, UnluckySpecializationError):
        joint = None
    if joint is not None:
        budget = current_budget()
        used = budget.used
        state = None if rng is None else rng.getstate()
        try:
            value = compute(joint)
            return [value, value]
        except ZeroDivisor:
            budget.used = used
            if rng is not None:
                rng.setstate(state)
    return [compute(fam.image_at(p, tau)) for p, tau in points]


def _at_generic_points(fam: Family, rng: Random, compute, refusal,
                       expected=None):
    """compute(member) at the family's points (_generic_values), and the
    points used.  The two values must agree, and equal expected when one is
    given; otherwise every value is recomputed once at a redrawn pair, and
    a second failure raises UnluckySpecializationError with refusal(values)
    naming what disagreed."""
    points = fam.points
    for attempt in range(2):
        if attempt:
            points = _draw_mod_points(rng)
        values = _generic_values(fam, points, compute, rng)
        if values[0] == values[1] and (expected is None
                                       or values[0] == expected):
            return values[0], points
    raise UnluckySpecializationError(refusal(values) + " at " + " and ".join(
        f"{fam.parameter} = {tau} mod {p}" for p, tau in points))


def invariants_at(fam: Family, where: str, rng: Random) -> SliceRecord:
    """The full invariant record of one slice.  GENERIC works over the
    fraction field and recomputes the record at the family's points
    (_at_generic_points), where it must compare equal; a refused record
    there disagrees."""
    if where == ZERO:
        return SliceRecord(ZERO, germ_record(fam.base, rng), ())
    if where != GENERIC:
        raise UsageError(f"unknown slice {where!r}")
    rec = germ_record(fam.full, rng)

    def comparable(member: Polynomial):
        try:
            return _comparable(germ_record(member, rng))
        except BudgetExceededError:
            raise
        except MathRefusal:
            return None

    _, points = _at_generic_points(
        fam, rng, comparable,
        lambda _: "the invariants disagree with the generic values",
        _comparable(rec))
    return SliceRecord(GENERIC, rec, points)


# ---------------------------------------------------------------------------
# equimultiplicity (the ground truth the theorems predict)

class EquimultiplicityResult(NamedTuple):
    order_zero: int
    order_generic: int

    @property
    def verdict(self) -> str:
        return EQUIMULTIPLE if self.order_zero == self.order_generic \
            else NOT_EQUIMULTIPLE

    @property
    def equimultiple(self) -> bool:
        return self.order_zero == self.order_generic


def is_equimultiple(fam: Family) -> EquimultiplicityResult:
    """Order of the base versus the generic order (minimal total z-degree of
    any term of F over the fraction field)."""
    return EquimultiplicityResult(order_at_origin(fam.base),
                                  fam.full.min_total_degree())


# ---------------------------------------------------------------------------
# augmentation table: Milnor numbers of f + z1^j recover the Le numbers

class IlmRow(NamedTuple):
    j: int
    mu: int | None
    predicted: int            # lambda0 + (j-1) * lambda1
    residual: int | None      # mu - predicted
    error: str | None


class IlmTable(NamedTuple):
    where: str
    rows: tuple[IlmRow, ...]
    slice_milnor: int
    inferred: tuple[int, int, int] | None   # (lambda0, lambda1, gamma1+lambda0)
    expected: tuple[int, int, int]
    t_witnesses: tuple[tuple[int, int], ...] = ()   # (prime, t mod prime)

    @property
    def passed(self) -> bool:
        return (all(r.error is None and r.residual == 0 for r in self.rows)
                and self.inferred == self.expected)


def default_j_values(lambda0_value: int) -> tuple[int, ...]:
    start = 2 + lambda0_value
    return tuple(range(start, start + 4))


def _augmented_milnor(partials: tuple[Polynomial, ...], j: int) -> int | None:
    """mu(g + z1^j) from the gradient of g, or None when the augmented germ
    stays non-isolated.  The partials of g + z1^j are (d1 g + j*z1^(j-1),
    d2 g, ..., dn g), the generators milnor_number(g + z1^j) would build,
    in the same order, so g is differentiated once for every j."""
    d1, *rest = partials
    ctx = d1.context
    step = Polynomial.monomial(ctx, (j - 1,) + (0,) * (ctx.nvars - 1), j)
    try:
        return jacobian_colength((d1 + step, *rest))
    except NonIsolatedError:
        return None


def verify_ilm(fam: Family, slice_rec: SliceRecord, rng: Random,
               j_values: tuple[int, ...] | None = None) -> IlmTable:
    """mu(f_t + z1^j) for each j against the two augmentation identities
    mu = lambda0 + (j-1) lambda1 and mu + mu_slice = (gamma1+lambda0) +
    j lambda1; also re-derives (lambda0, lambda1, gamma1+lambda0) from the
    table alone and compares with the direct record.

    At GENERIC each mu is evaluated at the family's points, in one run mod
    p1 p2 (_generic_values; over QQ(t), or at rational t, the augmented
    Jacobian bases drag enormous coefficients around; mod p1 p2 they stay
    below 2^62).  The two values must agree; _at_generic_points recomputes
    every row once at a redrawn pair before refusing.  The t = 0 rows stay
    over QQ.  slice_rec.where (ZERO or GENERIC) picks the slice."""
    where, rec = slice_rec.where, slice_rec.record
    if j_values is None:
        j_values = default_j_values(rec.lambda0)
    if len(set(j_values)) < 2:
        raise UsageError(
            f"j values {list(j_values)}: the table infers the Le numbers "
            "from slopes, so it needs at least two distinct exponents")
    if len(set(j_values)) < len(j_values):
        raise UsageError(f"j values {list(j_values)}: an exponent repeats")
    threshold = 2 + rec.lambda0
    bad = [j for j in j_values if j < threshold]
    if bad:
        raise UsageError(
            f"j values {bad} below the augmentation threshold 2 + lambda0 = "
            f"{threshold}")
    mu_slice = rec.slice_milnor
    expected = (rec.lambda0, rec.lambda1, rec.gamma1 + rec.lambda0)
    js = sorted(j_values)

    def rows_of(g: Polynomial) -> list[int | None]:
        partials = gradient(g)
        return [_augmented_milnor(partials, j) for j in js]

    if where == ZERO:
        mus, witnesses = rows_of(fam.base), ()
    else:
        axis = fam.base.context.variables[0]

        def first_split(values) -> str:
            j = next(j for j, a, b in zip(js, *values) if a != b)
            return f"mu(f + {axis}^{j}) disagrees"

        mus, witnesses = _at_generic_points(fam, rng, rows_of, first_split)

    rows = []
    values: dict[int, int] = {}
    for j, mu in zip(js, mus):
        predicted = rec.lambda0 + (j - 1) * rec.lambda1
        if mu is None:
            rows.append(IlmRow(j, None, predicted, None,
                               "augmented germ is not an isolated singularity"))
            continue
        values[j] = mu
        residual = mu - predicted
        rows.append(IlmRow(j, mu, predicted, residual, None))

    inferred = None
    found = sorted(values)
    if len(found) >= 2:
        slopes = set()
        for a, b in zip(found, found[1:]):
            delta, rem = divmod(values[b] - values[a], b - a)
            slopes.add(None if rem else delta)
        if len(slopes) == 1 and None not in slopes:
            lam1 = slopes.pop()
            lam0 = values[found[0]] - (found[0] - 1) * lam1
            total = values[found[0]] + mu_slice - found[0] * lam1
            inferred = (lam0, lam1, total)
    return IlmTable(where, tuple(rows), mu_slice, inferred, expected, witnesses)


# ---------------------------------------------------------------------------
# theorem verdicts (the polar curve's irreducibility is only ever asserted)

class HypothesisCheck(NamedTuple):
    name: str
    status: str
    detail: str


class TheoremVerdict(NamedTuple):
    theorem: str
    hypotheses: tuple[HypothesisCheck, ...]
    conclusion: str
    notes: tuple[str, ...] = ()

    @property
    def user_asserted(self) -> tuple[str, ...]:
        return tuple(h.name for h in self.hypotheses if h.status == USER_ASSERTED)


class FamilyAnalysis(NamedTuple):
    family: Family
    zero: SliceRecord | None
    zero_failure: MathRefusal | None
    generic: SliceRecord | None
    generic_failure: MathRefusal | None
    equimultiplicity: EquimultiplicityResult
    weights: WeightSystem | None
    upper: UpperReport | None


def analyze_family(f: Polynomial, rng: Random) -> FamilyAnalysis:
    """Both slices and the family-wide checks.  A slice's refusal is kept as
    its failure, with two exceptions that propagate: an exhausted step
    budget, which is not a property of the slice, and a repeated factor
    (of f0 over QQ, or of F over QQ(t)), which makes the whole family
    unreduced; the slice records are where reducedness is checked."""
    fam = decompose_family(f, rng)
    slices = []                  # (record, failure) at t = 0, then generic
    for where in (ZERO, GENERIC):
        try:
            slices += (invariants_at(fam, where, rng), None)
        except (BudgetExceededError, NonReducedError):
            raise
        except MathRefusal as exc:
            slices += (None, exc)
    weights = detect_weights(fam.base)
    upper = is_upper(fam, weights) if weights is not None else None
    return FamilyAnalysis(fam, *slices, is_equimultiple(fam), weights, upper)


def failure_text(exc: MathRefusal | None) -> str | None:
    """A slice failure as reports print it: "ClassName: message"."""
    return None if exc is None else f"{type(exc).__name__}: {exc}"


_LINE = "line_singularities_at_both_slices"


def _hypotheses(an: FamilyAnalysis, equisingular_asserted: bool,
                irreducible_asserted: bool) -> dict[str, HypothesisCheck]:
    """Every hypothesis any rule lists, each built once, keyed by name."""
    checks: dict[str, HypothesisCheck] = {}

    def add(name: str, status: str, detail: str) -> None:
        checks[name] = HypothesisCheck(name, status, detail)

    t = an.family.parameter
    zero = an.zero.record if an.zero is not None else None
    generic = an.generic.record if an.generic is not None else None
    failures = [(where, exc) for where, rec, exc in (
        (f"{t} = 0", zero, an.zero_failure),
        (f"generic {t}", generic, an.generic_failure)) if rec is None]
    if failures:
        # an unlucky specialization refuses the field, not the slice
        unlucky = all(isinstance(exc, UnluckySpecializationError)
                      for _, exc in failures)
        add(_LINE, NOT_CHECKED if unlucky else FAILS, "; ".join(
            f"{where}: {failure_text(exc)}" for where, exc in failures))
    else:
        axis = an.family.base.context.variables[0]
        add(_LINE, HOLDS,
            f"singular locus is the {axis}-axis at {t} = 0 and generically")

    w = an.weights
    if w is None:
        add("base_weighted_homogeneous", FAILS,
            "no positive weight system fits the base")
        add("smallest_weight_divides_degree", NOT_CHECKED, "no weight system")
        add("weights_with_divisibility", FAILS,
            "no positive weight system fits the base")
    else:
        weights = f"weights {w.weights}, degree {w.degree}"
        free = f", free variables {w.free_variables}" if w.free_variables else ""
        add("base_weighted_homogeneous", HOLDS, weights + free)
        divides = w.degree % w.smallest_weight == 0
        div = (f"{w.smallest_weight} "
               f"{'divides' if divides else 'does not divide'} {w.degree}")
        add("smallest_weight_divides_degree", HOLDS if divides else FAILS, div)
        add("weights_with_divisibility", HOLDS if divides else FAILS,
            f"{weights}; {div}" if divides else div)

    name = "degree_ratio_meets_augmentation_threshold"
    if w is None or zero is None:
        add(name, NOT_CHECKED, f"needs weights and the {t} = 0 record")
    else:
        ratio = Fraction(w.degree, w.smallest_weight)
        bound = 2 + zero.lambda0
        ok = ratio >= bound
        add(name, HOLDS if ok else FAILS,
            f"d/w_min = {ratio} {'>=' if ok else '<'} {bound}")

    # a quantity is a record field or a sum of fields, e.g. "gamma1 + lambda0"
    for name, quantities, sep in (
            ("le_numbers_constant", ("lambda0", "lambda1"), ", "),
            ("le_invariants_constant", ("lambda1", "gamma1 + lambda0"), "; "),
            ("polar_number_constant", ("gamma1",), ", ")):
        if zero is None or generic is None:
            add(name, NOT_CHECKED, "needs both slice records")
            continue
        values = [(q, *(sum(getattr(rec, f) for f in q.split(" + "))
                        for rec in (zero, generic))) for q in quantities]
        diffs = [f"{q}: {a} vs {b}" for q, a, b in values if a != b]
        if diffs:
            add(name, FAILS, "; ".join(diffs))
        else:
            add(name, HOLDS, sep.join(f"{q} = {a}" for q, a, _ in values))

    degs = {sum(m) for m in an.family.base.terms}
    if len(degs) == 1:
        add("base_homogeneous", HOLDS, f"all terms of degree {degs.pop()}")
    else:
        add("base_homogeneous", FAILS, f"term degrees {sorted(degs)}")

    for name, asserted, detail, missing in (
            (IRREDUCIBLE_POLAR_CURVE, irreducible_asserted,
             "irreducibility of the generic polar curve asserted by the user",
             "irreducibility"),
            ("topologically_V_equisingular", equisingular_asserted,
             "topological V-equisingularity asserted by the user",
             "equisingularity")):
        if asserted:
            add(name, USER_ASSERTED, detail)
        else:
            add(name, NOT_CHECKED, f"no {missing} assertion supplied")
    return checks


def _mt2_notes(an: FamilyAnalysis,
               checks: dict[str, HypothesisCheck]) -> list[str]:
    notes = []
    if checks["smallest_weight_divides_degree"].status == HOLDS \
            and an.weights.smallest_index == 0:
        notes.append(_axis_weight_note(an))
    if checks["le_numbers_constant"].status == HOLDS and \
            checks["degree_ratio_meets_augmentation_threshold"].status == HOLDS:
        t = an.family.parameter
        notes.append(
            f"constant lambda0 upgrades the threshold to every small {t}: "
            f"d/w_min >= 2 + lambda0(f_{t}) for all small {t}")
    return notes


def _axis_weight_note(an: FamilyAnalysis) -> str:
    """When the smallest weight sits on the axis variable, the weighted
    augmentation z_min^{d/w_min} coincides with the axis form z_axis^j;
    report the Milnor numbers of both slices' augmented germs rather than
    privileging one reading.  The generic side is evaluated at the
    family's points (_generic_values); the two values must agree."""
    fam, w = an.family, an.weights
    e = w.degree // w.smallest_weight
    axis, t = fam.base.context.variables[0], fam.parameter
    note = (f"smallest weight belongs to the axis variable {axis}; the two "
            f"augmentation forms coincide at exponent {e}")
    if e < 2:
        return note + " (exponent below 2: no Milnor number to report)"

    def augmented(g: Polynomial) -> int | None:
        return _augmented_milnor(gradient(g), e)

    try:
        for where, values in (
                (f"{t} = 0", lambda: [augmented(fam.base)]),
                (f"generic {t}",
                 lambda: _generic_values(fam, fam.points, augmented))):
            mus = set(values())
            note += f"; mu at {where} with {axis}^{e} added"
            if len(mus) > 1:
                note += ": specializations disagree"
            else:
                mu = mus.pop()
                note += " = " + ("not isolated" if mu is None else str(mu))
    except BudgetExceededError:
        raise
    except MathRefusal as exc:
        note += f"; augmented Milnor numbers unavailable ({exc})"
    return note


class Rule(NamedTuple):
    """One verdict rule as data; it lists its premises, then its triggers.
    A hypothesis holds when it is HOLDS or USER_ASSERTED.  If every premise
    holds, agreeing orders give EQUIMULTIPLE when there is no trigger or one
    holds, and differing orders give `contradiction` (None: a violated
    theorem, an internal error).  Anything else is INCONCLUSIVE."""

    name: str
    premises: tuple[str, ...]
    triggers: tuple[str, ...]
    contradiction: str | None
    contradiction_note: str   # formatted with the two orders {zero}, {generic}
    extra_notes: Callable[..., list[str]] | None = None   # (an, checks)


_EQUISINGULAR = ("topologically_V_equisingular",)

RULES = (
    # fully computed sufficient condition for equimultiplicity
    Rule("mt2", (_LINE, "base_weighted_homogeneous",
                 "smallest_weight_divides_degree", "le_numbers_constant",
                 "degree_ratio_meets_augmentation_threshold"), (),
         None, "equimultiplicity theorem hypotheses verified but computed "
               "orders differ — this is a bug", _mt2_notes),
    # constant lambda1 and gamma1+lambda0, given an irreducible polar curve
    Rule("mt3", (_LINE, "weights_with_divisibility", "le_invariants_constant",
                 IRREDUCIBLE_POLAR_CURVE), (),
         INCONCLUSIVE, "computed orders contradict the conclusion; the "
                       "asserted irreducibility must fail for this family"),
    # the corollaries consume an asserted topological V-equisingularity
    Rule("cmt2", (_LINE, "base_weighted_homogeneous",
                  "smallest_weight_divides_degree",
                  "degree_ratio_meets_augmentation_threshold"), _EQUISINGULAR,
         NOT_TOPOLOGICALLY_V_EQUISINGULAR,
         "orders {zero} vs {generic}: the family is not equimultiple, so it "
         "cannot be topologically V-equisingular"),
    Rule("cmt3", (_LINE, "weights_with_divisibility", "polar_number_constant",
                  IRREDUCIBLE_POLAR_CURVE), _EQUISINGULAR,
         NOT_TOPOLOGICALLY_V_EQUISINGULAR,
         "orders {zero} vs {generic}: not equimultiple, and with the asserted "
         "irreducible polar curve the family cannot be topologically "
         "V-equisingular"),
    # a homogeneous base with constant Le numbers or asserted equisingularity
    Rule("homogeneous", (_LINE, "base_homogeneous"),
         ("le_numbers_constant", *_EQUISINGULAR),
         NOT_TOPOLOGICALLY_V_EQUISINGULAR,
         "homogeneous base with non-equimultiple orders: the family is not "
         "topologically V-equisingular and its Le numbers cannot be constant"),
)


def evaluate_rules(an: FamilyAnalysis, equisingular_asserted: bool,
                   irreducible_asserted: bool) -> tuple[TheoremVerdict, ...]:
    """The verdicts of every rule in RULES, in order."""
    checks = _hypotheses(an, equisingular_asserted, irreducible_asserted)

    held = {h.name for h in checks.values()
            if h.status in (HOLDS, USER_ASSERTED)}
    eq = an.equimultiplicity
    verdicts = []
    for rule in RULES:
        notes = rule.extra_notes(an, checks) if rule.extra_notes else []
        conclusion = INCONCLUSIVE
        if held.issuperset(rule.premises):
            if not eq.equimultiple:
                note = rule.contradiction_note.format(
                    zero=eq.order_zero, generic=eq.order_generic)
                if rule.contradiction is None:
                    raise InternalCheckError(note)
                conclusion = rule.contradiction
                notes.append(note)
                if conclusion == NOT_TOPOLOGICALLY_V_EQUISINGULAR \
                        and equisingular_asserted:
                    notes.append("the user assertion of equisingularity is "
                                 "thereby contradicted")
            elif not rule.triggers or held.intersection(rule.triggers):
                conclusion = EQUIMULTIPLE
        hypotheses = tuple(checks[h] for h in rule.premises + rule.triggers)
        verdicts.append(TheoremVerdict(rule.name, hypotheses, conclusion,
                                       tuple(notes)))
    return tuple(verdicts)
