"""One-parameter deformation families and the equimultiplicity checkers.

A family F(t, z) = f0(z) + sum_j t^j g_j(z) is analyzed in two slices: at
t = 0 (exact) and at generic t (over the rational function field, with every
generic value cross-checked at two random rational specializations of t).
The theorem checkers record each hypothesis with a HOLDS / FAILS /
USER_ASSERTED / NOT_CHECKED status and only emit a conclusion licensed by
those statuses; user assertions are always listed, never silently mixed
with computed facts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from random import Random

from .engine import DEFAULT_BUDGET, Ideal
from .errors import (ContextError, DegenerateInputError, InternalCheckError,
                     MathRefusal, NonIsolatedError, NonReducedError,
                     UnluckySpecializationError, UsageError)
from .invariants import (InvariantRecord, WeightSystem, detect_weights,
                         draw_distinct_rationals, draw_rational, germ_record,
                         milnor_number, order_at_origin)
from .poly import (Coefficient, Polynomial, multivariate_gcd, render,
                   require_reduced)

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


# ---------------------------------------------------------------------------
# decomposition

@dataclass(frozen=True)
class Family:
    parameter: str
    full: Polynomial                 # over QQ(t)
    base: Polynomial                 # the t = 0 member, over QQ
    deformation: tuple[tuple[int, Polynomial], ...]   # (j, g_j), j >= 1
    reduced_witnesses: tuple[Fraction, Fraction]

    def member(self, value: Fraction) -> Polynomial:
        return self.full.specialize_parameter(self.parameter, value)


def decompose_family(f: Polynomial, rng: Random,
                     budget: int = DEFAULT_BUDGET) -> Family:
    """Split F = f0 + sum t^j g_j, checking that the origin stays on every
    member and that f0 and two random members are reduced."""
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
        j: Polynomial.from_dict(
            plain, {m: Coefficient.from_fraction(q, 0) for m, q in terms.items()})
        for j, terms in sorted(layers.items())}

    base = members.get(0, Polynomial.zero(plain))
    if base.is_zero():
        raise DegenerateInputError(
            f"the {t} = 0 member is the zero polynomial")
    require_reduced(base)
    deformation = tuple((j, g) for j, g in sorted(members.items()) if j >= 1)

    rebuilt = Polynomial.zero(ctx)
    for j, g in [(0, base), *deformation]:
        embedded = Polynomial(ctx, {m: c.embed(1, ()).mul_param_monomial((j,))
                                    for m, c in g.terms.items()})
        rebuilt = rebuilt + embedded
    if rebuilt != f:
        raise InternalCheckError("family decomposition does not reconstruct")

    witnesses = draw_distinct_rationals(rng, 2)
    for tau in witnesses:
        member = f.specialize_parameter(t, tau)
        try:
            require_reduced(member)
        except NonReducedError as exc:
            raise NonReducedError(
                f"family member at {t} = {tau} is not reduced "
                f"(repeated factor {exc.witness})", witness=exc.witness) from exc
    return Family(t, f, base, deformation, (witnesses[0], witnesses[1]))


# ---------------------------------------------------------------------------
# upper deformations

@dataclass(frozen=True)
class UpperReport:
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

@dataclass(frozen=True)
class SliceRecord:
    where: str
    record: InvariantRecord
    t_witnesses: tuple[Fraction, ...]


def _comparable(rec: InvariantRecord):
    return (rec.order, rec.lambda0, rec.lambda1, rec.gamma1, rec.polar_ratio,
            rec.euler_reduced, rec.slice_milnor,
            rec.intersection_with_hypersurface, rec.polar_empty,
            rec.lambda_k_zero)


def invariants_at(fam: Family, where: str, rng: Random,
                  budget: int = DEFAULT_BUDGET) -> SliceRecord:
    """The full invariant record of one slice.  GENERIC works over the
    fraction field and re-derives every invariant at two random rational
    parameter values; a disagreeing draw is redrawn once and then refused."""
    if where == ZERO:
        return SliceRecord(ZERO, germ_record(fam.base, rng, budget), ())
    if where != GENERIC:
        raise UsageError(f"unknown slice {where!r}")
    rec = germ_record(fam.full, rng, budget)
    expected = _comparable(rec)

    def agrees(tau: Fraction) -> bool:
        try:
            spec = germ_record(fam.member(tau), rng, budget)
        except MathRefusal:
            return False
        return _comparable(spec) == expected

    witnesses = draw_distinct_rationals(rng, 2)
    for k in range(2):
        if agrees(witnesses[k]):
            continue
        retry = draw_rational(rng)
        while retry in witnesses:
            retry = draw_rational(rng)
        witnesses[k] = retry
        if not agrees(retry):
            raise UnluckySpecializationError(
                f"invariants at {fam.parameter} = {retry} disagree with "
                f"the generic values")
    return SliceRecord(GENERIC, rec, tuple(witnesses))


# ---------------------------------------------------------------------------
# equimultiplicity (the ground truth the theorems predict)

@dataclass(frozen=True)
class EquimultiplicityResult:
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

@dataclass(frozen=True)
class IlmRow:
    j: int
    mu: int | None
    predicted: int            # lambda0 + (j-1) * lambda1
    residual: int | None      # mu - predicted
    residual_sum: int | None  # (mu + mu_slice) - ((gamma1+lambda0) + j*lambda1)
    error: str | None


@dataclass(frozen=True)
class IlmTable:
    where: str
    rows: tuple[IlmRow, ...]
    slice_milnor: int
    inferred: tuple[int, int, int] | None   # (lambda0, lambda1, gamma1+lambda0)
    expected: tuple[int, int, int]
    t_witnesses: tuple[Fraction, ...] = ()

    @property
    def passed(self) -> bool:
        return (all(r.error is None and r.residual == 0 and r.residual_sum == 0
                    for r in self.rows)
                and self.inferred == self.expected)


def default_j_values(lambda0_value: int) -> tuple[int, ...]:
    start = 2 + lambda0_value
    return tuple(range(start, start + 4))


def _augmented_milnor(g: Polynomial, j: int, budget: int) -> int | None:
    """mu(g + z1^j), or None when the augmented germ stays non-isolated."""
    ctx = g.context
    z1 = Polynomial.variable(ctx, ctx.variables[0])
    try:
        return milnor_number(g + z1 ** j, budget=budget)
    except NonIsolatedError:
        return None


def verify_ilm(fam: Family, where: str, slice_rec: SliceRecord, rng: Random,
               j_values: tuple[int, ...] | None = None,
               budget: int = DEFAULT_BUDGET) -> IlmTable:
    """mu(f_t + z1^j) for each j against the two augmentation identities
    mu = lambda0 + (j-1) lambda1 and mu + mu_slice = (gamma1+lambda0) +
    j lambda1; also re-derives (lambda0, lambda1, gamma1+lambda0) from the
    table alone and compares with the direct record.

    At GENERIC each mu is evaluated at two random rational parameter values
    (working over the fraction field itself is hopeless here: the augmented
    Jacobian colengths drag enormous coefficients in t around).  Both draws
    must agree; one joint redraw is allowed before refusing."""
    rec = slice_rec.record
    if j_values is None:
        j_values = default_j_values(rec.lambda0)
    threshold = 2 + rec.lambda0
    bad = [j for j in j_values if j < threshold]
    if bad:
        raise UsageError(
            f"j values {bad} below the augmentation threshold 2 + lambda0 = "
            f"{threshold}")
    if where not in (ZERO, GENERIC):
        raise UsageError(f"unknown slice {where!r}")

    mu_slice = rec.slice_milnor
    expected = (rec.lambda0, rec.lambda1, rec.gamma1 + rec.lambda0)
    witnesses: tuple[Fraction, ...] = ()

    if where == ZERO:
        def mu_of(j: int) -> int | None:
            return _augmented_milnor(fam.base, j, budget)
    else:
        witnesses = tuple(draw_distinct_rationals(rng, 2))

        def mu_of(j: int) -> int | None:
            nonlocal witnesses
            pair = [_augmented_milnor(fam.member(w), j, budget)
                    for w in witnesses]
            if pair[0] != pair[1]:
                witnesses = tuple(draw_distinct_rationals(rng, 2))
                pair = [_augmented_milnor(fam.member(w), j, budget)
                        for w in witnesses]
                if pair[0] != pair[1]:
                    axis = fam.base.context.variables[0]
                    raise UnluckySpecializationError(
                        f"mu(f + {axis}^{j}) disagrees at "
                        f"{fam.parameter} = {witnesses[0]} and "
                        f"{fam.parameter} = {witnesses[1]}")
            return pair[0]

    rows = []
    values: dict[int, int] = {}
    for j in sorted(j_values):
        predicted = rec.lambda0 + (j - 1) * rec.lambda1
        mu = mu_of(j)
        if mu is None:
            rows.append(IlmRow(j, None, predicted, None, None,
                               "augmented germ is not an isolated singularity"))
            continue
        values[j] = mu
        rows.append(IlmRow(j, mu, predicted, mu - predicted,
                           (mu + mu_slice) - (expected[2] + j * rec.lambda1),
                           None))

    inferred = None
    js = sorted(values)
    if len(js) >= 2:
        slopes = set()
        for a, b in zip(js, js[1:]):
            delta, rem = divmod(values[b] - values[a], b - a)
            slopes.add(None if rem else delta)
        if len(slopes) == 1 and None not in slopes:
            lam1 = slopes.pop()
            lam0 = values[js[0]] - (js[0] - 1) * lam1
            total = values[js[0]] + mu_slice - js[0] * lam1
            inferred = (lam0, lam1, total)
    return IlmTable(where, tuple(rows), mu_slice, inferred, expected, witnesses)


# ---------------------------------------------------------------------------
# irreducibility evidence (heuristic, never a certificate)

@dataclass(frozen=True)
class EvidenceReport:
    verdict: str                 # SUPPORTING | COUNTER
    details: tuple[str, ...]
    certificate: str = "NOT_A_CERTIFICATE"


def _distinct_prime_summary(g: Polynomial) -> tuple[int, list[str]]:
    """(number of distinct prime factors found, human notes); counts are a
    lower bound obtained by monomial-content splitting, square-free
    reduction, and a rational-root scan on univariate factors."""
    ctx = g.context
    notes: list[str] = []
    primes = 0
    rest = g

    # split off coordinate factors
    for v in ctx.variables:
        var = Polynomial.variable(ctx, v)
        hits = 0
        while True:
            q = rest.divide_exact(var)
            if q is None:
                break
            rest = q
            hits += 1
        if hits:
            primes += 1
            notes.append(f"coordinate factor {v}^{hits}")

    if rest.total_degree() == 0:
        return primes, notes

    involved = [v for v in ctx.variables if rest.involves(v)]
    if len(involved) == 1:
        v = involved[0]
        roots = _rational_roots(rest, v)
        if roots:
            primes += len(roots)
            notes.append("rational roots " + ", ".join(str(r) for r in sorted(roots)))
            for r in sorted(roots):
                lin = Polynomial.variable(ctx, v) - Polynomial.constant(ctx, r)
                while True:
                    q = rest.divide_exact(lin)
                    if q is None:
                        break
                    rest = q
            if rest.total_degree() > 0:
                primes += 1
                notes.append(f"rootless cofactor {render(rest)}")
        else:
            primes += 1
            notes.append(f"no rational root in factor {render(rest)}")
        return primes, notes

    # multivariate: look for a repeated factor shared with a partial
    for v in involved:
        d = rest.partial(v)
        if d.is_zero():
            continue
        common = multivariate_gcd(rest, d)
        if common.total_degree() > 0:
            probe = rest
            while True:
                q = probe.divide_exact(common)
                if q is None:
                    break
                probe = q
            if probe.total_degree() == 0:
                primes += 1
                notes.append(f"prime power of {render(common)}")
            else:
                primes += 2
                notes.append(
                    f"splits as {render(common)} times {render(probe)} "
                    "(up to multiplicity)")
            return primes, notes
    primes += 1
    notes.append(f"no factorization found for {render(rest)}")
    return primes, notes


def _rational_roots(g: Polynomial, v: str) -> set[Fraction]:
    """Rational roots of a univariate polynomial with rational coefficients,
    by the rational root theorem on the coefficients scaled to integers
    (candidates p/q with p | constant term, q | leading term); empty when
    coefficients involve parameters."""
    ctx = g.context
    i = ctx.var_index(v)
    zkey = (0,) * ctx.nparams
    coeffs: dict[int, Fraction] = {}
    for m, c in g.terms.items():
        if not c.den_is_one or any(k != zkey for k in c.num):
            return set()
        coeffs[m[i]] = c.num[zkey]
    if min(coeffs) > 0:
        return set()  # coordinate content is removed by the caller
    scale = lcm(*(c.denominator for c in coeffs.values()))
    lead = coeffs[max(coeffs)] * scale
    const = coeffs[0] * scale
    roots: set[Fraction] = set()
    for p in _divisors(const.numerator):
        for q in _divisors(lead.numerator):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and \
                        sum(c * cand ** k for k, c in coeffs.items()) == 0:
                    roots.add(cand)
    return roots


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, found in pairs (d, n // d) up to sqrt."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def irreducibility_evidence(ideal: Ideal) -> EvidenceReport:
    """Heuristic evidence about irreducibility of the variety the ideal
    presents: SUPPORTING when each generator shows a single prime factor,
    COUNTER when some generator visibly splits.  Never a certificate."""
    details = []
    verdict = "SUPPORTING"
    for g in ideal.generators:
        count, notes = _distinct_prime_summary(g)
        details.append(f"{render(g)}: " + "; ".join(notes))
        if count > 1:
            verdict = "COUNTER"
    return EvidenceReport(verdict, tuple(details))


# ---------------------------------------------------------------------------
# theorem verdicts

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    hypotheses: tuple[HypothesisCheck, ...]
    conclusion: str
    notes: tuple[str, ...] = ()

    @property
    def user_asserted(self) -> tuple[str, ...]:
        return tuple(h.name for h in self.hypotheses if h.status == USER_ASSERTED)


@dataclass(frozen=True)
class FamilyAnalysis:
    family: Family
    zero: SliceRecord | None
    zero_failure: str | None
    generic: SliceRecord | None
    generic_failure: str | None
    equimultiplicity: EquimultiplicityResult
    weights: WeightSystem | None
    upper: UpperReport | None


def analyze_family(f: Polynomial, rng: Random,
                   budget: int = DEFAULT_BUDGET) -> FamilyAnalysis:
    fam = decompose_family(f, rng, budget)
    zero = zero_failure = None
    try:
        zero = invariants_at(fam, ZERO, rng, budget)
    except MathRefusal as exc:
        zero_failure = f"{type(exc).__name__}: {exc}"
    generic = generic_failure = None
    try:
        generic = invariants_at(fam, GENERIC, rng, budget)
    except MathRefusal as exc:
        generic_failure = f"{type(exc).__name__}: {exc}"
    weights = detect_weights(fam.base)
    upper = is_upper(fam, weights) if weights is not None else None
    return FamilyAnalysis(fam, zero, zero_failure, generic, generic_failure,
                          is_equimultiple(fam), weights, upper)


_LINE = "line_singularities_at_both_slices"


def _hypotheses(an: FamilyAnalysis, equisingular_asserted: bool,
                irreducible_asserted: bool,
                evidence: EvidenceReport | None) -> dict[str, HypothesisCheck]:
    """Every hypothesis any rule lists, each built once, keyed by name."""
    checks: dict[str, HypothesisCheck] = {}

    def add(name: str, status: str, detail: str) -> None:
        checks[name] = HypothesisCheck(name, status, detail)

    t = an.family.parameter
    zero = an.zero.record if an.zero is not None else None
    generic = an.generic.record if an.generic is not None else None
    failures = [f"{where}: {failure}" for where, rec, failure in (
        (f"{t} = 0", zero, an.zero_failure),
        (f"generic {t}", generic, an.generic_failure)) if rec is None]
    if failures:
        add(_LINE, FAILS, "; ".join(failures))
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

    irreducible = ("irreducibility of the generic polar curve asserted by "
                   "the user")
    if evidence is not None:
        irreducible += f" (heuristic evidence: {evidence.verdict})"
    for name, asserted, detail, missing in (
            (IRREDUCIBLE_POLAR_CURVE, irreducible_asserted, irreducible,
             "irreducibility"),
            ("topologically_V_equisingular", equisingular_asserted,
             "topological V-equisingularity asserted by the user",
             "equisingularity")):
        if asserted:
            add(name, USER_ASSERTED, detail)
        else:
            add(name, NOT_CHECKED, f"no {missing} assertion supplied")
    return checks


def _mt2_notes(an: FamilyAnalysis, checks: dict[str, HypothesisCheck],
               budget: int) -> list[str]:
    notes = []
    if checks["smallest_weight_divides_degree"].status == HOLDS \
            and an.weights.smallest_index == 0:
        notes.append(_axis_weight_note(an, budget))
    if checks["le_numbers_constant"].status == HOLDS and \
            checks["degree_ratio_meets_augmentation_threshold"].status == HOLDS:
        t = an.family.parameter
        notes.append(
            f"constant lambda0 upgrades the threshold to every small {t}: "
            f"d/w_min >= 2 + lambda0(f_{t}) for all small {t}")
    return notes


def _axis_weight_note(an: FamilyAnalysis, budget: int) -> str:
    """When the smallest weight sits on the axis variable, the weighted
    augmentation z_min^{d/w_min} coincides with the axis form z_axis^j;
    report the Milnor numbers of both slices' augmented germs rather than
    privileging one reading.  The generic side is evaluated at the family's
    two stored witness values, which must agree."""
    fam, w = an.family, an.weights
    e = w.degree // w.smallest_weight
    axis, t = fam.base.context.variables[0], fam.parameter
    note = (f"smallest weight belongs to the axis variable {axis}; the two "
            f"augmentation forms coincide at exponent {e}")
    if e < 2:
        return note + " (exponent below 2: no Milnor number to report)"
    try:
        for where, members in (
                (f"{t} = 0", [fam.base]),
                (f"generic {t}", [fam.member(tau)
                                  for tau in fam.reduced_witnesses])):
            mus = {_augmented_milnor(g, e, budget) for g in members}
            note += f"; mu at {where} with {axis}^{e} added"
            if len(mus) > 1:
                note += ": specializations disagree"
            else:
                mu = mus.pop()
                note += " = " + ("not isolated" if mu is None else str(mu))
    except MathRefusal as exc:
        note += f"; augmented Milnor numbers unavailable ({exc})"
    return note


@dataclass(frozen=True)
class Rule:
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
    extra_notes: Callable[..., list[str]] | None = None   # (an, checks, budget)


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
                   irreducible_asserted: bool, budget: int = DEFAULT_BUDGET
                   ) -> tuple[tuple[TheoremVerdict, ...], EvidenceReport | None]:
    """The verdicts of every rule in RULES, in order, and the heuristic
    irreducibility evidence for the generic polar curve they cite (None
    when the generic slice is unavailable or its polar curve is empty)."""
    evidence = None
    if an.generic is not None and not an.generic.record.polar_empty:
        evidence = irreducibility_evidence(an.generic.record.polar_ideal)
    checks = _hypotheses(an, equisingular_asserted, irreducible_asserted,
                         evidence)

    held = {h.name for h in checks.values()
            if h.status in (HOLDS, USER_ASSERTED)}
    eq = an.equimultiplicity
    verdicts = []
    for rule in RULES:
        notes = rule.extra_notes(an, checks, budget) if rule.extra_notes else []
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
    return tuple(verdicts), evidence
