"""Bundled corpus plus the full acceptance checklist (`lecalc selftest`).

Every criterion is an independent callable returning a one-line detail
string (or raising CheckFailure), so the pytest acceptance module can run
exactly the same code; `run_selftest` runs them in order and returns the
pass/fail matrix as a report document (`lecalc.report.selftest_report`)
with its exit code, which the CLI writes like any other command's.  All
comparisons are exact.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from .engine import (Ideal, colength_at_origin, colength_by_truncation,
                     ideals_equal, saturate, standard_basis, verify_basis)
from .errors import BudgetExceededError, MathRefusal, UsageError
from .families import (EQUIMULTIPLE, GENERIC, HOLDS,
                       NOT_TOPOLOGICALLY_V_EQUISINGULAR, USER_ASSERTED, ZERO,
                       analyze_family, evaluate_rules, failure_text,
                       verify_ilm)
from .invariants import detect_weights, milnor_number
from .orders import GREVLEX, LOCAL
from .parse import parse_polynomial
from .poly import Context, Polynomial, render
from .report import RunConfig, selftest_report

CORPUS_FILES = ("nonupper_family.lec", "suspension_family.lec",
                "homogeneous_family.lec", "constant_family.lec")


class CheckFailure(AssertionError):
    """A criterion found a wrong value (as opposed to an execution error)."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class SelfTestEnv:
    """Shared corpus cache so criteria reuse the expensive analyses."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._sources = None
        self._polys: dict = {}
        self._analyses: dict = {}

    def corpus_sources(self):
        if self._sources is None:
            from .cli import read_input_file
            root = Path(__file__).resolve().parent / "corpus"
            out = {}
            for path in (root / name for name in CORPUS_FILES):
                variables, parameter, expression = read_input_file(str(path))
                out[path.stem] = (path, variables, parameter, expression)
            self._sources = out
        return self._sources

    def poly(self, name: str) -> Polynomial:
        if name not in self._polys:
            path, variables, parameter, expression = self.corpus_sources()[name]
            params = (parameter,) if parameter else ()
            try:
                self._polys[name] = parse_polynomial(
                    expression, Context(variables, params))
            except UsageError as exc:
                raise UsageError(f"{path}: {exc}") from exc
        return self._polys[name]

    def load_corpus(self) -> int:
        """Parse every corpus file up front; raises UsageError naming the
        offending file."""
        for name in self.corpus_sources():
            self.poly(name)
        return len(self.corpus_sources())

    def analysis(self, name: str):
        if name not in self._analyses:
            self._analyses[name] = analyze_family(
                self.poly(name), Random(self.seed))
        return self._analyses[name]

    def slice_record(self, name: str, where: str):
        """A family slice; a slice that failed fails the check."""
        an = self.analysis(name)
        sl = an.zero if where == ZERO else an.generic
        if sl is not None:
            return sl
        failure = an.zero_failure if where == ZERO else an.generic_failure
        raise CheckFailure(
            f"{name} {where} slice unavailable: {failure_text(failure)}")


# ---------------------------------------------------------------------------
# criteria 1-9: the worked families

def criterion_weights(env: SelfTestEnv) -> str:
    # the weights need no basis, so they come from the base alone rather
    # than from the family analysis, which spends budget
    f = env.poly("nonupper_family")
    w = detect_weights(f.specialize_parameter(f.context.parameters[0], 0))
    expect(w is not None, "no weight system detected on the base")
    expect((w.weights, w.degree) == ((6, 4, 5), 20),
           f"got weights {w.weights} of degree {w.degree}")
    expect(w.unique, "weight system should be unique")
    expect(w.smallest_weight == 4 and w.degree % 4 == 0,
           "smallest weight 4 must divide 20")
    return "weights (6, 4, 5), weighted degree 20, and 4 divides 20"


def criterion_polar_ideal(env: SelfTestEnv) -> str:
    got = env.slice_record("nonupper_family", GENERIC).record.polar_ideal
    ctx = env.poly("nonupper_family").context
    target = Ideal(ctx, (
        parse_polynomial("2*z1^2 + 5*z2^3 + 2*t*z1 + 2*t^2*z1^2", ctx),
        parse_polynomial("z3^3", ctx)))
    expect(ideals_equal(got, target),
           "polar ideal differs from the expected pair of generators")
    return "generic polar ideal matches by mutual membership"


def criterion_gamma1(env: SelfTestEnv) -> str:
    g0 = env.slice_record("nonupper_family", ZERO).record.gamma1
    gg = env.slice_record("nonupper_family", GENERIC).record.gamma1
    expect((g0, gg) == (9, 9), f"gamma1 = ({g0}, {gg}), expected (9, 9)")
    return "gamma1 = 9 at t = 0 and generically"


def criterion_verdict(env: SelfTestEnv) -> str:
    an = env.analysis("nonupper_family")
    eq = an.equimultiplicity
    expect((eq.order_zero, eq.order_generic) == (4, 3),
           f"orders ({eq.order_zero}, {eq.order_generic}), expected (4, 3)")
    env.slice_record("nonupper_family", GENERIC)
    verdicts = evaluate_rules(an, False, True)
    c3 = {v.theorem: v for v in verdicts}["cmt3"]
    expect(c3.conclusion == NOT_TOPOLOGICALLY_V_EQUISINGULAR,
           f"cmt3 concluded {c3.conclusion}")
    status = {h.name: h.status for h in c3.hypotheses}
    expect(status["polar_number_constant"] == HOLDS,
           "gamma1-constancy must hold")
    expect(status["generic_polar_curve_irreducible"] == USER_ASSERTED,
           "irreducibility must be recorded as user-asserted")
    return "orders (4, 3); cmt3 contrapositive fires on asserted irreducibility"


def criterion_le_numbers(env: SelfTestEnv) -> str:
    r0 = env.slice_record("nonupper_family", ZERO).record
    rg = env.slice_record("nonupper_family", GENERIC).record
    expect((r0.lambda0, r0.lambda1) == (21, 3),
           f"t = 0 Le numbers ({r0.lambda0}, {r0.lambda1})")
    expect((rg.lambda0, rg.lambda1) == (6, 3),
           f"generic Le numbers ({rg.lambda0}, {rg.lambda1})")
    for rec, total in ((r0, 30), (rg, 15)):
        expect(rec.gamma1 + rec.lambda0 == total == \
               rec.intersection_with_hypersurface,
               f"gamma1+lambda0 = {rec.gamma1 + rec.lambda0}, intersection "
               f"= {rec.intersection_with_hypersurface}, expected {total}")
    return "lambda = (21, 3) and (6, 3); gamma1+lambda0 = 30 and 15, " \
           "equal to the hypersurface intersection numbers"


def criterion_polar_ratio(env: SelfTestEnv) -> str:
    an = env.analysis("nonupper_family")
    rec = env.slice_record("nonupper_family", ZERO).record
    expect(rec.polar_ratio == Fraction(10, 3),
           f"polar ratio {rec.polar_ratio}, expected 10/3")
    w = an.weights
    expect(Fraction(w.degree, w.weights[0]) == Fraction(10, 3),
           "d / w_axis must equal the polar ratio")
    return "rho = 30/9 = 10/3 = d/w_axis"


def criterion_ilm(env: SelfTestEnv) -> str:
    an = env.analysis("nonupper_family")
    t0 = verify_ilm(an.family, env.slice_record("nonupper_family", ZERO),
                    Random(env.seed))
    expect([r.j for r in t0.rows] == [23, 24, 25, 26],
           f"t = 0 exponents {[r.j for r in t0.rows]}")
    expect(t0.slice_milnor == 12, f"mu_slice {t0.slice_milnor}")
    expect(t0.passed and t0.inferred == (21, 3, 30),
           f"t = 0 table inferred {t0.inferred}, passed = {t0.passed}")
    tg = verify_ilm(an.family, env.slice_record("nonupper_family", GENERIC),
                    Random(env.seed))
    expect([r.j for r in tg.rows] == [8, 9, 10, 11],
           f"generic exponents {[r.j for r in tg.rows]}")
    expect(tg.slice_milnor == 12, f"generic mu_slice {tg.slice_milnor}")
    expect(tg.passed and tg.inferred == (6, 3, 15),
           f"generic table inferred {tg.inferred}, passed = {tg.passed}")
    return "both identities hold on every row; inferred (21, 3, 30) " \
           "and (6, 3, 15)"


def criterion_suspension(env: SelfTestEnv) -> str:
    an = env.analysis("suspension_family")
    for where in (ZERO, GENERIC):
        sl = env.slice_record("suspension_family", where)
        rec = sl.record
        expect((rec.lambda0, rec.gamma1, rec.lambda1) == (0, 0, 4),
               f"{sl.where}: (lambda0, gamma1, lambda1) = "
               f"({rec.lambda0}, {rec.gamma1}, {rec.lambda1})")
    expect(an.equimultiplicity.equimultiple, "family must be equimultiple")
    verdict = {v.theorem: v
               for v in evaluate_rules(an, False, False)}["mt2"]
    expect(verdict.conclusion == EQUIMULTIPLE,
           f"mt2 concluded {verdict.conclusion}")
    detail = {h.name: h.detail for h in verdict.hypotheses}
    expect("3 >= 2" in detail["degree_ratio_meets_augmentation_threshold"],
           "threshold detail should read d/w_min = 3 >= 2")
    return "lambda0 = gamma1 = 0, lambda1 = 4 at both slices; " \
           "mt2 concludes EQUIMULTIPLE"


def criterion_brieskorn(env: SelfTestEnv) -> str:
    ctx = Context(("z2", "z3"), ())
    z2 = Polynomial.variable(ctx, "z2")
    z3 = Polynomial.variable(ctx, "z3")
    pairs = [(a, b) for a in range(2, 7) for b in range(a, 7)][:10]
    for a, b in pairs:
        mu = milnor_number(z2 ** a + z3 ** b)
        expect(mu == (a - 1) * (b - 1),
               f"mu(z2^{a} + z3^{b}) = {mu}, expected {(a - 1) * (b - 1)}")
    return f"{len(pairs)} cases match mu = (a-1)(b-1)"


# ---------------------------------------------------------------------------
# criterion 10: property suites

def _random_context(rng: Random) -> Context:
    nvars = rng.choice((2, 2, 3))
    params = ("t",) if rng.random() < 0.3 else ()
    return Context(tuple(f"z{i + 1}" for i in range(nvars)), params)


def _random_poly(rng: Random, ctx: Context, terms: int = 4) -> Polynomial:
    # up to `terms` terms, of degree <= 3 in each variable, <= 2 in each t
    p = Polynomial.zero(ctx)
    for _ in range(rng.randrange(terms + 1)):
        expo = tuple(rng.randrange(4) for _ in ctx.variables)
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        term = Polynomial.monomial(ctx, expo, coeff)
        for name in ctx.parameters:
            term = term * Polynomial.parameter(ctx, name) \
                ** rng.randrange(3)
        p = p + term
    return p


def suite_ring_axioms(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 101)
    for _ in range(100):
        ctx = _random_context(rng)
        p, q, r = (_random_poly(rng, ctx) for _ in range(3))
        zero, one = Polynomial.zero(ctx), Polynomial.one(ctx)
        expect((p + q) + r == p + (q + r), "addition is not associative")
        expect(p + q == q + p, "addition is not commutative")
        expect((p * q) * r == p * (q * r), "product is not associative")
        expect(p * q == q * p, "product is not commutative")
        expect(p * (q + r) == p * q + p * r, "distributivity failed")
        expect(p - p == zero and p + zero == p, "additive identity failed")
        expect(p * one == p, "multiplicative identity failed")
    return "100 random triples"


def suite_parser_round_trip(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 102)
    for _ in range(100):
        ctx = _random_context(rng)
        p = _random_poly(rng, ctx)
        back = parse_polynomial(render(p), ctx)
        expect(back == p, f"round trip changed {render(p)!r}")
    return "100 renders reparsed exactly"


def suite_buchberger(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 103)
    ctx = Context(("z1", "z2"), ())
    done = 0
    while done < 100:
        gens = tuple(g for g in
                     (_random_poly(rng, ctx, terms=3)
                      for _ in range(2)) if not g.is_zero())
        if not gens:
            continue
        order = GREVLEX if done % 2 == 0 else LOCAL
        verify_basis(standard_basis(Ideal(ctx, gens), order))
        done += 1
    return "100 bases re-verified (all normal forms of S-pairs vanish)"


def suite_saturation_idempotent(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 104)
    ctx = Context(("z1", "z2"), ())
    z1 = Polynomial.variable(ctx, "z1")
    z2 = Polynomial.variable(ctx, "z2")
    axis = Ideal(ctx, (z2,))
    done = 0
    while done < 100:
        gens = tuple(g for g in
                     (_random_poly(rng, ctx, terms=2)
                      for _ in range(2)) if not g.is_zero())
        if not gens:
            continue
        ideal = Ideal(ctx, gens + (z1 ** rng.randrange(1, 4),))
        once = saturate(ideal, axis)
        twice = saturate(once, axis)
        expect(ideals_equal(once, twice),
               f"saturation not idempotent on {[render(g) for g in gens]}")
        done += 1
    return "100 saturations are fixpoints"


def suite_colength_oracle(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 105)
    ctx = Context(("z1", "z2"), ())
    z1 = Polynomial.variable(ctx, "z1")
    z2 = Polynomial.variable(ctx, "z2")
    for _ in range(20):
        a = rng.randrange(2, 5)
        b = rng.randrange(2, 5)
        gens = [z1 ** a, z2 ** b]
        extra = _random_poly(rng, ctx, terms=2)
        if not extra.is_zero() and not extra.constant_coefficient():
            gens.append(extra)
        ideal = Ideal(ctx, tuple(gens))
        local = colength_at_origin(ideal)
        truncated = colength_by_truncation(ideal)
        expect(local == truncated,
               f"staircase count {local} != truncation count "
               f"{truncated} on {[render(g) for g in gens]}")
    return "20 zero-dimensional ideals agree with the truncation oracle"


def suite_order_bound(env: SelfTestEnv) -> str:
    rng = Random(env.seed + 106)
    ctx = Context(("z1", "z2", "z3"), ())
    done = 0
    while done < 20:
        weights = tuple(rng.randrange(1, 7) for _ in range(3))
        lead = tuple(rng.randrange(4) for _ in range(3))
        degree = sum(e * w for e, w in zip(lead, weights))
        if degree == 0:
            continue
        monomials = {lead}
        for _ in range(40):
            expo = tuple(rng.randrange(8) for _ in range(3))
            if sum(e * w for e, w in zip(expo, weights)) == degree:
                monomials.add(expo)
        f = Polynomial.zero(ctx)
        for expo in sorted(monomials):
            f = f + Polynomial.monomial(ctx, expo,
                                        Fraction(rng.randrange(1, 5)))
        bound = Fraction(degree, min(weights))
        expect(f.min_total_degree() <= bound,
               f"order {f.min_total_degree()} exceeds d/w_min = {bound}")
        detected = detect_weights(f)
        if detected is not None:
            detected_bound = Fraction(detected.degree,
                                      detected.smallest_weight)
            expect(f.min_total_degree() <= detected_bound,
                   f"order exceeds detected bound {detected_bound}")
        done += 1
    return "20 weighted homogeneous samples satisfy ord <= d/w_min"


def suite_determinism(env: SelfTestEnv) -> str:
    from .cli import entrypoint
    base = ["invariants", "-e", "z1^2*z2^2 + z2^5 + z3^4",
            "--seed", str(env.seed)]
    for argv in (base, base + ["--format", "json"]):
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = entrypoint(list(argv))
            expect(code == 0, f"exit code {code} from {argv}")
            outputs.append(buffer.getvalue())
        expect(outputs[0] == outputs[1], "double run output differs")
    return "text and json reports are byte-identical across runs"


def criterion_properties(env: SelfTestEnv) -> str:
    details = [
        suite_ring_axioms(env),
        suite_parser_round_trip(env),
        suite_buchberger(env),
        suite_saturation_idempotent(env),
        suite_colength_oracle(env),
        suite_order_bound(env),
        suite_determinism(env),
    ]
    return "; ".join(details)


CRITERIA: tuple[tuple[str, object], ...] = (
    ("weights of the nonupper base", criterion_weights),
    ("generic polar ideal by mutual membership", criterion_polar_ideal),
    ("polar number gamma1 at both slices", criterion_gamma1),
    ("orders and the cmt3 contrapositive", criterion_verdict),
    ("Le numbers and intersection cross-check", criterion_le_numbers),
    ("polar ratio lemma", criterion_polar_ratio),
    ("augmentation (ILM) tables", criterion_ilm),
    ("suspension family and mt2", criterion_suspension),
    ("Brieskorn Milnor numbers", criterion_brieskorn),
    ("property suites", criterion_properties),
)


def run_selftest(cfg: RunConfig) -> tuple[dict, int]:
    """Every criterion in order, stopping at one that exhausts the budget;
    the report and exit code 0 when all pass, else 2."""
    env = SelfTestEnv(cfg.seed)
    count = env.load_corpus()
    results = []
    for index, (description, criterion) in enumerate(CRITERIA, start=1):
        try:
            status, detail = "PASS", criterion(env)
        except CheckFailure as exc:
            status, detail = "FAIL", str(exc)
        except BudgetExceededError as exc:
            status, detail = exc.token, str(exc)
        except MathRefusal as exc:
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        results.append((index, description, status, detail))
        if status == BudgetExceededError.token:
            break
    passed = all(status == "PASS" for _, _, status, _ in results)
    return (selftest_report(cfg, count, len(CRITERIA), results, passed),
            0 if passed else 2)
