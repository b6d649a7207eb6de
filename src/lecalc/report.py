"""One report document per command, rendered to JSON or to text.

The `*_report` functions build each command's JSON-shaped document from the
objects it computed, `render` prints a document as JSON or, through `text`,
as the plain-text report, and `lecalc.cli.entrypoint` writes it.  The text
layout reads the document alone, so the two formats show the same numbers,
and two runs with the same RunConfig produce byte-identical output.  Exact
rationals are "p/q" strings (never floats); integers stay integers.  The
functions that read family constants import them when they run, so an
``invariants`` report never loads the family layer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceededError, NotLineSingularityError
from .invariants import InvariantRecord, WeightSystem
from .poly import render as render_poly, render_monomial
from .sparse import DEFAULT_BUDGET

SCHEMA_VERSION = 1

TEXT = "text"
JSON = "json"


class RunConfig(NamedTuple):
    """Everything that determines a run; equal configs give equal bytes."""

    expression: str | None = None
    variables: tuple[str, ...] = ("z1", "z2", "z3")
    parameter: str | None = None
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    fmt: str = TEXT
    assert_equisingular: bool = False
    assert_irreducible: bool = False
    j_values: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# document values from computed objects

def json_rational(q):
    """int for integers, "p/q" string otherwise, None passes through."""
    if q is None:
        return None
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def weights_json(w: WeightSystem | None):
    if w is None:
        return None
    return {
        "variables": list(w.variables),
        "weights": list(w.weights),
        "degree": w.degree,
        "free_variables": list(w.free_variables),
        "unique": w.unique,
    }


def record_json(rec: InvariantRecord) -> dict:
    return {
        "order": rec.order,
        "multiplicity": rec.multiplicity,
        "lambda0": rec.lambda0,
        "lambda1": rec.lambda1,
        "gamma1": rec.gamma1,
        "polar_ratio": json_rational(rec.polar_ratio),
        "euler_reduced": rec.euler_reduced,
        "mu_slice": rec.slice_milnor,
    }


def record_json_extra(rec: InvariantRecord) -> dict:
    """Side information that does not belong to the fixed invariants shape."""
    return {
        "gamma1_plus_lambda0": rec.gamma1 + rec.lambda0,
        "polar_curve": [render_poly(g) for g in rec.polar_ideal.generators],
        "polar_curve_empty": rec.polar_empty,
        "higher_le_numbers_zero": list(rec.lambda_k_zero),
        "axis_witnesses": [json_rational(w) for w in rec.axis_witnesses],
    }


def verdict_json(v: TheoremVerdict) -> dict:
    return {
        "rule": v.theorem,
        "conclusion": v.conclusion,
        "hypotheses": [h._asdict() for h in v.hypotheses],
        "notes": list(v.notes),
    }


def points_json(points: tuple[tuple[int, int], ...]) -> list[dict]:
    """Specialization points (p, t mod p) as [{"prime": p, "t": t}, ...]."""
    return [{"prime": p, "t": t} for p, t in points]


def ilm_json(table: IlmTable) -> dict:
    return {
        "where": table.where,
        "mu_slice": table.slice_milnor,
        "t_witnesses": points_json(table.t_witnesses),
        # schema 1 also writes the second identity's residual,
        # (mu + mu_slice) - ((gamma1+lambda0) + j*lambda1), which equals
        # residual since lambda1 = mu_slice - gamma1
        "rows": [{"j": r.j, "mu": r.mu, "predicted": r.predicted,
                  "residual": r.residual, "residual_sum": r.residual,
                  "error": r.error} for r in table.rows],
        "inferred": list(table.inferred) if table.inferred else None,
        "expected": list(table.expected),
        "passed": table.passed,
    }


def family_json(an: FamilyAnalysis) -> dict:
    from .families import failure_text
    fam = an.family
    return {
        "parameter": fam.parameter,
        "base": render_poly(fam.base),
        "deformation": [
            {"power": j, "term": render_poly(g)} for j, g in fam.deformation],
        "upper": None if an.upper is None else {
            "upper": an.upper.upper,
            "degree": an.upper.degree,
            "offenders": [
                {"power": j, "monomial": list(expo), "weighted_degree": wd}
                for j, expo, wd in an.upper.offenders],
        },
        "order_zero": an.equimultiplicity.order_zero,
        "order_generic": an.equimultiplicity.order_generic,
        "equimultiplicity": an.equimultiplicity.verdict,
        "slice_errors": {"zero": failure_text(an.zero_failure),
                         "generic": failure_text(an.generic_failure)},
    }


# ---------------------------------------------------------------------------
# one document per command

def _document(command: str, cfg: RunConfig, **fields) -> dict:
    """The keys every document of COMMAND has, then FIELDS."""
    doc = {"schema": SCHEMA_VERSION, "command": command, "seed": cfg.seed,
           "budget": cfg.budget}
    if command != "selftest":
        doc.update(input=cfg.expression, variables=list(cfg.variables),
                   parameter=cfg.parameter, weights=None, invariants=None,
                   verdicts=[], ilm=None, warnings=[])
    doc.update(fields)
    if command == "invariants" and cfg.parameter:
        doc["warnings"].append(
            f"coefficients live in the fraction field of {cfg.parameter}; "
            "weight detection is skipped and the values are computed over "
            f"QQ({cfg.parameter}) with no specialization cross-check "
            "('lecalc family' performs one)")
    return doc


def invariants_report(cfg: RunConfig, rec: InvariantRecord,
                      weights: WeightSystem | None) -> dict:
    return _document("invariants", cfg, weights=weights_json(weights),
                     invariants=record_json(rec),
                     invariants_extra=record_json_extra(rec))


def refusal_report(cfg: RunConfig, exc: NotLineSingularityError,
                   fallback_milnor: int | None, order: int) -> dict:
    """The report of a germ that is no line singularity: the failed check,
    and its Milnor number when it is an isolated singularity."""
    return _document("invariants", cfg, refusal={
        "token": exc.token,
        "message": str(exc),
        "failing_check": exc.failing_check,
        "fallback_milnor": fallback_milnor,
        "order": order,
    })


def family_report(cfg: RunConfig, an: FamilyAnalysis,
                  verdicts: list[TheoremVerdict]) -> dict:
    doc = _document("family", cfg, family=family_json(an),
                    weights=weights_json(an.weights),
                    verdicts=[verdict_json(v) for v in verdicts],
                    assertions={
                        "topologically_equisingular": cfg.assert_equisingular,
                        "gamma1_irreducible": cfg.assert_irreducible,
                    })
    for key, sl in (("invariants", an.zero),
                    ("invariants_generic", an.generic)):
        if sl is not None:
            doc[key] = record_json(sl.record)
            doc[f"{key}_extra"] = record_json_extra(sl.record)
    if an.generic is not None:
        doc["generic_witnesses"] = points_json(an.generic.t_witnesses)
    doc["summary"] = family_summary(doc)
    if cfg.assert_irreducible or cfg.assert_equisingular:
        doc["warnings"].append("user assertions are recorded as USER_ASSERTED "
                               "hypotheses, never verified")
    return doc


def family_summary(doc: dict) -> str:
    """The one-line summary of a family document's orders and verdicts."""
    from .families import (EQUIMULTIPLE, IRREDUCIBLE_POLAR_CURVE,
                           NOT_TOPOLOGICALLY_V_EQUISINGULAR, USER_ASSERTED)
    fam = doc["family"]
    zero, generic = fam["order_zero"], fam["order_generic"]
    if fam["equimultiplicity"] == EQUIMULTIPLE:
        head = f"equimultiple (orders {zero} = {generic})"
        fired = [v["rule"] for v in doc["verdicts"]
                 if v["conclusion"] == EQUIMULTIPLE]
        if fired:
            head += "; established by rule " + ", ".join(fired)
        else:
            head += "; verified directly, no rule applies"
        return head
    head = f"NOT equimultiple (orders {zero} vs {generic})"
    for v in doc["verdicts"]:
        if v["conclusion"] != NOT_TOPOLOGICALLY_V_EQUISINGULAR:
            continue
        clause = f"; rule {v['rule']} => NOT topologically V-equisingular"
        if any(h["name"] == IRREDUCIBLE_POLAR_CURVE
               and h["status"] == USER_ASSERTED for h in v["hypotheses"]):
            clause += " (polar curve irreducibility: asserted, not a " \
                      "certificate)"
        head += clause
    return head


def ilm_report(cfg: RunConfig, zero: IlmTable, generic: IlmTable) -> dict:
    return _document("ilm", cfg, ilm={"zero": ilm_json(zero),
                                      "generic": ilm_json(generic),
                                      "passed": zero.passed and generic.passed})


def selftest_report(cfg: RunConfig, corpus_files: int, criteria: int,
                    results, passed: bool) -> dict:
    """RESULTS are the criteria run, in order, as (index, description,
    status, detail) tuples."""
    keys = ("index", "description", "status", "detail")
    return _document("selftest", cfg, corpus_files=corpus_files,
                     criteria=criteria, passed=passed,
                     results=[dict(zip(keys, r)) for r in results])


# ---------------------------------------------------------------------------
# text from the document

def _join(values) -> str:
    return ", ".join(str(v) for v in values)


def weights_text(w: dict | None, parameter: str | None = None) -> str:
    """The text of a weights document, or of skipped weight detection when
    the coefficients involve PARAMETER."""
    if parameter:
        return f"skipped (coefficients involve {parameter})"
    if w is None:
        return "none (not weighted homogeneous)"
    body = f"({_join(w['weights'])}), weighted degree {w['degree']}"
    if w["free_variables"]:
        body += " [absent variables " + ", ".join(w["free_variables"]) + \
            " carry placeholder weights]"
    if not w["unique"]:
        body += " [weight system not unique; smallest representative shown]"
    return body


def record_text(inv: dict, extra: dict, axis: str, weights: str,
                indent: str = "") -> list[str]:
    """The lines of an invariants document and its extra side information;
    WEIGHTS is the record's weights as `weights_text` renders them."""
    polar = "empty near the origin" if extra["polar_curve_empty"] else \
        "; ".join(extra["polar_curve"])
    vanishing = extra["higher_le_numbers_zero"]
    higher = ", ".join(f"lambda{k + 2} = 0" for k in range(len(vanishing))) \
        or "none to check (two variables)"
    ratio = inv["polar_ratio"]
    # germ_record refuses a record unless the polar curve meets V(f) with
    # this multiplicity, so the sum is also the intersection number
    total = extra["gamma1_plus_lambda0"]
    lines = [
        f"order at origin: {inv['order']}",
        f"multiplicity at origin: {inv['multiplicity']}",
        f"weights: {weights}",
        f"lambda0: {inv['lambda0']}",
        f"lambda1: {inv['lambda1']}  (axis witnesses {axis} = "
        f"{_join(extra['axis_witnesses'])})",
        f"gamma1: {inv['gamma1']}",
        f"gamma1 + lambda0: {total}  (= polar curve . hypersurface = "
        f"{total})",
        "polar ratio: " +
        ("undefined (gamma1 = 0)" if ratio is None else str(ratio)),
        f"reduced euler characteristic of the milnor fibre: "
        f"{inv['euler_reduced']}",
        f"transverse slice milnor number: {inv['mu_slice']}",
        f"higher le numbers: {higher}",
        f"polar curve: {polar}",
    ]
    return [indent + line for line in lines]


def verdict_text(v: dict) -> list[str]:
    lines = [f"rule {v['rule']}: {v['conclusion']}"]
    for h in v["hypotheses"]:
        lines.append(f"  {h['name']}: {h['status']} -- {h['detail']}")
    for note in v["notes"]:
        lines.append(f"  note: {note}")
    return lines


def ilm_text(table: dict, parameter: str) -> list[str]:
    from .families import ZERO
    where = f"{parameter} = 0" if table["where"] == ZERO \
        else f"generic {parameter}"
    head = f"ILM table at {where} (mu_slice = {table['mu_slice']}"
    if table["t_witnesses"]:
        points = ", ".join(f"{w['t']} mod {w['prime']}"
                           for w in table["t_witnesses"])
        head += f"; {parameter} witnesses {points}"
    lines = [head + "):", "  j    mu    predicted  residual  sum_residual"]
    for r in table["rows"]:
        if r["error"] is not None:
            lines.append(f"  {r['j']:<4} ERROR {r['error']}")
            continue
        lines.append(f"  {r['j']:<4} {r['mu']:<5} {r['predicted']:<10} "
                     f"{r['residual']:<9} {r['residual_sum']}")
    inferred = "none (slopes disagree)" if table["inferred"] is None \
        else f"({_join(table['inferred'])})"
    lines.append(f"  inferred (lambda0, lambda1, gamma1+lambda0) = {inferred}"
                 f"; direct = ({_join(table['expected'])})")
    lines.append(f"  result: {'PASS' if table['passed'] else 'FAIL'}")
    return lines


def _header(doc: dict) -> list[str]:
    lines = [
        f"lecalc {doc['command']}",
        f"seed: {doc['seed']}",
        f"budget: {doc['budget']}",
        f"input: {doc['input']}",
        "variables: " + ", ".join(doc["variables"]),
    ]
    if doc["parameter"]:
        lines.append(f"parameter: {doc['parameter']}")
    if "assertions" in doc:
        asserted = [name for key, name in (
            ("topologically_equisingular", "topologically-equisingular"),
            ("gamma1_irreducible", "gamma1-irreducible"))
            if doc["assertions"][key]]
        lines.append("assertions: " + (", ".join(asserted) or "none"))
    return lines


def _invariants_text(doc: dict) -> list[str]:
    axis = doc["variables"][0]
    lines = _header(doc) + [""]
    refusal = doc.get("refusal")
    if refusal is None:
        lines.append(f"line singularity along the {axis}-axis: yes")
        return lines + record_text(
            doc["invariants"], doc["invariants_extra"], axis,
            weights_text(doc["weights"], doc["parameter"]))
    mu = refusal["fallback_milnor"]
    return lines + [
        f"line singularity along the {axis}-axis: NO "
        f"(first failing check: {refusal['failing_check']})",
        f"refused: {refusal['token']}: {refusal['message']}",
        f"order at origin: {refusal['order']}",
        "fallback: the germ is not an isolated singularity either"
        if mu is None else
        f"fallback: isolated singularity with milnor number {mu}",
    ]


def _deformation_text(fam: dict) -> str:
    if not fam["deformation"]:
        return "none (constant family)"
    t = fam["parameter"]
    parts = []
    for d in fam["deformation"]:
        power = t if d["power"] == 1 else f"{t}^{d['power']}"
        parts.append(f"{power} * ({d['term']})")
    return "; ".join(parts)


def _upper_text(fam: dict, variables: list[str]) -> str:
    upper = fam["upper"]
    if upper is None:
        return "not applicable (base not weighted homogeneous)"
    if upper["upper"]:
        return f"yes (every deformation monomial has weighted degree >= " \
               f"{upper['degree']})"
    first = upper["offenders"][0]
    mono = render_monomial(first["monomial"], variables) or "1"
    return (f"no ({fam['parameter']}^{first['power']} carries {mono} of "
            f"weighted degree {first['weighted_degree']} < "
            f"{upper['degree']}; {len(upper['offenders'])} offending "
            "monomial(s))")


def _family_text(doc: dict) -> list[str]:
    fam = doc["family"]
    t = doc["parameter"]
    axis = doc["variables"][0]
    lines = _header(doc) + [
        "",
        f"base ({t} = 0): {fam['base']}",
        f"deformation: {_deformation_text(fam)}",
        f"base weights: {weights_text(doc['weights'])}",
        f"upper deformation: {_upper_text(fam, doc['variables'])}",
        f"orders at origin: {fam['order_zero']} at {t} = 0, "
        f"{fam['order_generic']} at generic {t} => {fam['equimultiplicity']}",
        "",
    ]
    if doc["invariants"] is not None:
        lines.append(f"invariants at {t} = 0:")
        lines += record_text(doc["invariants"], doc["invariants_extra"],
                             axis, weights_text(doc["weights"]), "  ")
    else:
        lines.append(f"invariants at {t} = 0: unavailable "
                     f"({fam['slice_errors']['zero']})")
    if "invariants_generic" in doc:
        witnesses = ", ".join(f"{t} = {w['t']} mod {w['prime']}"
                              for w in doc["generic_witnesses"])
        lines.append(f"invariants at generic {t} (cross-checked at "
                     f"{witnesses}):")
        lines += record_text(doc["invariants_generic"],
                             doc["invariants_generic_extra"], axis,
                             weights_text(None, t), "  ")
    else:
        lines.append(f"invariants at generic {t}: unavailable "
                     f"({fam['slice_errors']['generic']})")
    for v in doc["verdicts"]:
        lines += [""] + verdict_text(v)
    return lines + ["", f"summary: {doc['summary']}"]


def _ilm_text(doc: dict) -> list[str]:
    lines = _header(doc)
    for where in ("zero", "generic"):
        lines += [""] + ilm_text(doc["ilm"][where], doc["parameter"])
    passed = doc["ilm"]["passed"]
    return lines + ["", f"overall: {'PASS' if passed else 'FAIL'}"]


def _selftest_text(doc: dict) -> list[str]:
    total = doc["criteria"]
    lines = ["lecalc selftest", f"seed: {doc['seed']}",
             f"budget: {doc['budget']}",
             f"corpus: {doc['corpus_files']} file(s) loaded", ""]
    results = doc["results"]
    for r in results:
        lines.append(f"[{r['index']:2}/{total}] {r['status']}  "
                     f"{r['description']}: {r['detail']}")
    # a criterion that ran out of budget ends the run without a tally
    if results and results[-1]["status"] == BudgetExceededError.token:
        return lines
    passed = sum(r["status"] == "PASS" for r in results)
    return lines + ["", f"result: {passed}/{total} passed"]


_TEXT = {"invariants": _invariants_text, "family": _family_text,
         "ilm": _ilm_text, "selftest": _selftest_text}


def text(doc: dict) -> str:
    """The plain-text report of a command's document."""
    lines = _TEXT[doc["command"]](doc)
    lines += [f"warning: {w}" for w in doc.get("warnings", ())]
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == JSON:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return text(doc)
