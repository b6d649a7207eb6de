"""Command line front end.

Subcommands: ``invariants`` (single germ), ``family`` (one-parameter
deformation with all theorem verdicts), ``ilm`` (augmentation tables),
``selftest`` (bundled corpus and acceptance checks).  Exit codes: 0 success,
1 usage or input error, 2 typed mathematical refusal or failed check.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from . import report as rp
from .engine import DEFAULT_BUDGET
from .errors import (ContextError, MathRefusal, NotLineSingularityError,
                     UsageError)
from .families import (EQUIMULTIPLE, GENERIC, IRREDUCIBLE_POLAR_CURVE,
                       NOT_TOPOLOGICALLY_V_EQUISINGULAR, ZERO, analyze_family,
                       decompose_family, evaluate_rules, invariants_at,
                       verify_ilm)
from .invariants import germ_record, milnor_number
from .parse import parse_polynomial
from .poly import Context, render


class _Parser(argparse.ArgumentParser):
    """argparse flag errors become UsageError (exit 1, not argparse's 2)."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lecalc",
        description="Exact invariants of line singularities and "
                    "equimultiplicity checks for their deformations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("-e", "--expression", dest="expr", metavar="EXPR",
                            help="polynomial expression")
            sp.add_argument("-f", "--file", dest="file", metavar="FILE",
                            help="input file (vars:/param: header, then the "
                                 "expression; # comments)")
            sp.add_argument("--vars", default=None, metavar="NAMES",
                            help="comma separated variables, first one is the "
                                 "singular axis (default z1,z2,z3)")
            sp.add_argument("--param", default=None, metavar="NAME",
                            help="deformation parameter name")
            sp.add_argument("--permute", default=None, metavar="POSITIONS",
                            help="reorder the variables, e.g. 2,1,3")
        sp.add_argument("--format", dest="fmt", choices=(rp.TEXT, rp.JSON),
                        default=rp.TEXT)
        sp.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0; printed in the header)")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="reduction-step budget per basis computation")

    sp = sub.add_parser("invariants",
                        help="invariant record of a single germ")
    common(sp)
    sp = sub.add_parser("family",
                        help="decompose a family and run every verdict rule")
    common(sp)
    sp.add_argument("--assert-equisingular", action="store_true",
                    dest="assert_equisingular",
                    help="assert topological V-equisingularity (user input, "
                         "never computed)")
    sp.add_argument("--assert-gamma1-irreducible", action="store_true",
                    dest="assert_irreducible",
                    help="assert irreducibility of the generic polar curve")
    sp = sub.add_parser("ilm", help="augmentation (ILM) tables at both slices")
    common(sp)
    sp.add_argument("--j", dest="j_values", default=None, metavar="LIST",
                    help="comma separated exponents (default: four values "
                         "from 2+lambda0 upward)")
    sp = sub.add_parser("selftest",
                        help="run the bundled corpus and acceptance checks")
    common(sp, with_input=False)
    sp.add_argument("--corpus-dir", dest="corpus_dir", default=None,
                    help="override the bundled corpus directory")
    return parser


# ---------------------------------------------------------------------------
# input handling

def _split_names(raw: str, what: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in raw.split(","))
    if not names or any(not v for v in names):
        raise UsageError(f"malformed {what} list {raw!r}")
    if len(set(names)) != len(names):
        raise UsageError(f"duplicate name in {what} list {raw!r}")
    return names


def read_input_file(path: str) -> tuple[tuple[str, ...], str | None, str]:
    """vars:/param: header plus one expression; # starts a comment."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    variables = None
    parameter = None
    body: list[str] = []
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            if not line.startswith("vars:"):
                raise UsageError(
                    f"{path}: first line must be 'vars: z1,z2,...'")
            variables = _split_names(line[len("vars:"):], "variable")
            continue
        if line.startswith("param:") and not body:
            parameter = line[len("param:"):].strip()
            if not parameter:
                raise UsageError(f"{path}: empty param: declaration")
            continue
        body.append(line)
    if variables is None:
        raise UsageError(f"{path}: missing 'vars:' declaration")
    if not body:
        raise UsageError(f"{path}: no expression found")
    return variables, parameter, " ".join(body)


def _config_from_args(args) -> rp.RunConfig:
    seed = args.seed
    if not 0 <= seed < 2 ** 64:
        raise UsageError("--seed must be an unsigned 64-bit integer")
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    expr = getattr(args, "expr", None)
    path = getattr(args, "file", None)
    if args.command != "selftest":
        if (expr is None) == (path is None):
            raise UsageError("give exactly one of -e EXPR or -f FILE")
    variables: tuple[str, ...] = ("z1", "z2", "z3")
    parameter = getattr(args, "param", None)
    expression = expr
    if path is not None:
        variables, file_param, expression = read_input_file(path)
        if getattr(args, "vars", None) is not None:
            raise UsageError("--vars conflicts with the file's vars: line")
        if parameter is not None:
            raise UsageError("--param conflicts with the file's header")
        parameter = file_param
    elif getattr(args, "vars", None) is not None:
        variables = _split_names(args.vars, "variable")
    permute = None
    if getattr(args, "permute", None) is not None:
        raw = tuple(args.permute.split(","))
        try:
            permute = tuple(int(x) for x in raw)
        except ValueError:
            raise UsageError(f"malformed --permute {args.permute!r}") from None
        if sorted(permute) != list(range(1, len(variables) + 1)):
            raise UsageError(
                f"--permute must list the positions 1..{len(variables)} "
                "exactly once each")
        variables = tuple(variables[i - 1] for i in permute)
    j_values = None
    if getattr(args, "j_values", None) is not None:
        try:
            j_values = tuple(int(x) for x in args.j_values.split(","))
        except ValueError:
            raise UsageError(f"malformed --j {args.j_values!r}") from None
        if not j_values:
            raise UsageError("--j needs at least one exponent")
    return rp.RunConfig(
        expression=expression, path=path, variables=variables,
        parameter=parameter, seed=seed, budget=args.budget, fmt=args.fmt,
        assert_equisingular=getattr(args, "assert_equisingular", False),
        assert_irreducible=getattr(args, "assert_irreducible", False),
        permute=permute, j_values=j_values)


def _parse_expression(cfg: rp.RunConfig):
    params = (cfg.parameter,) if cfg.parameter else ()
    ctx = Context(cfg.variables, params)
    return parse_polynomial(cfg.expression, ctx)


# ---------------------------------------------------------------------------
# invariants

def cmd_invariants(cfg: rp.RunConfig) -> int:
    f = _parse_expression(cfg)
    rng = Random(cfg.seed)
    lines = rp.header_lines("invariants", cfg, cfg.expression)
    doc = rp.base_json("invariants", cfg, cfg.expression)
    warnings: list[str] = []
    if cfg.parameter:
        warnings.append(
            f"coefficients live in the fraction field of {cfg.parameter}; "
            "weight detection is skipped and generic values are cross-checked "
            "at two random specializations")
    axis = cfg.variables[0]
    try:
        rec = germ_record(f, rng, cfg.budget)
    except NotLineSingularityError as exc:
        refusal = {"token": "NOT_LINE_SINGULARITY",
                   "message": str(exc),
                   "failing_check": exc.failing_check,
                   "fallback_milnor": None,
                   "order": f.min_total_degree()}
        lines.append("")
        lines.append(f"line singularity along the {axis}-axis: NO "
                     f"(first failing check: {exc.failing_check})")
        lines.append(f"refused: NOT_LINE_SINGULARITY: {exc}")
        lines.append(f"order at origin: {f.min_total_degree()}")
        try:
            mu = milnor_number(f, budget=cfg.budget)
        except MathRefusal:
            lines.append("fallback: the germ is not an isolated singularity "
                         "either")
        else:
            refusal["fallback_milnor"] = mu
            lines.append(
                f"fallback: isolated singularity with milnor number {mu}")
        doc["refusal"] = refusal
        doc["warnings"] = warnings
        lines.extend(f"warning: {w}" for w in warnings)
        sys.stdout.write(rp.finish(cfg, lines, doc))
        return 2
    lines.append("")
    lines.append(f"line singularity along the {axis}-axis: yes")
    lines.extend(rp.record_lines(rec))
    lines.extend(f"warning: {w}" for w in warnings)
    doc["weights"] = rp.weights_json(rec.weights)
    doc["invariants"] = rp.record_json(rec)
    doc["invariants_extra"] = rp.record_json_extra(rec)
    doc["warnings"] = warnings
    sys.stdout.write(rp.finish(cfg, lines, doc))
    return 0


# ---------------------------------------------------------------------------
# family

def _deformation_text(fam) -> str:
    if not fam.deformation:
        return "none (constant family)"
    t = fam.parameter
    parts = []
    for j, g in fam.deformation:
        power = t if j == 1 else f"{t}^{j}"
        parts.append(f"{power} * ({render(g)})")
    return "; ".join(parts)


def _upper_text(an) -> str:
    if an.upper is None:
        return "not applicable (base not weighted homogeneous)"
    if an.upper.upper:
        return f"yes (every deformation monomial has weighted degree >= " \
               f"{an.upper.degree})"
    j, expo, wdeg = an.upper.offenders[0]
    names = an.family.base.context.variables
    mono = "*".join(f"{v}^{e}" if e > 1 else v
                    for v, e in zip(names, expo) if e) or "1"
    return (f"no ({an.family.parameter}^{j} carries {mono} of weighted "
            f"degree {wdeg} < {an.upper.degree}; "
            f"{len(an.upper.offenders)} offending monomial(s))")


def _summary_line(an, verdicts, evidence) -> str:
    eq = an.equimultiplicity
    if eq.equimultiple:
        head = f"equimultiple (orders {eq.order_zero} = {eq.order_generic})"
        fired = [v.theorem for v in verdicts if v.conclusion == EQUIMULTIPLE]
        if fired:
            head += "; established by rule " + ", ".join(fired)
        else:
            head += "; verified directly, no rule applies"
        return head
    head = f"NOT equimultiple (orders {eq.order_zero} vs {eq.order_generic})"
    for v in verdicts:
        if v.conclusion != NOT_TOPOLOGICALLY_V_EQUISINGULAR:
            continue
        clause = f"; rule {v.theorem} => NOT topologically V-equisingular"
        if IRREDUCIBLE_POLAR_CURVE in v.user_asserted:
            ev = "no evidence computed" if evidence is None \
                else f"evidence {evidence.verdict}"
            clause += f" (polar curve irreducibility: asserted, {ev}, " \
                      "not a certificate)"
        head += clause
    return head


def cmd_family(cfg: rp.RunConfig) -> int:
    if not cfg.parameter:
        raise UsageError(
            "family analysis needs a parameter (--param or a param: line)")
    f = _parse_expression(cfg)
    rng = Random(cfg.seed)
    an = analyze_family(f, rng, cfg.budget)
    fam = an.family
    t = cfg.parameter

    verdicts, evidence = evaluate_rules(an, cfg.assert_equisingular,
                                        cfg.assert_irreducible, cfg.budget)
    summary = _summary_line(an, verdicts, evidence)

    lines = rp.header_lines("family", cfg, cfg.expression)
    lines.append("")
    lines.append(f"base ({t} = 0): {render(fam.base)}")
    lines.append(f"deformation: {_deformation_text(fam)}")
    lines.append(f"base weights: {rp.weights_text(an.weights)}")
    lines.append(f"upper deformation: {_upper_text(an)}")
    eq = an.equimultiplicity
    lines.append(f"orders at origin: {eq.order_zero} at {t} = 0, "
                 f"{eq.order_generic} at generic {t} => {eq.verdict}")
    lines.append("")
    if an.zero is not None:
        lines.append(f"invariants at {t} = 0:")
        lines.extend(rp.record_lines(an.zero.record, indent="  "))
    else:
        lines.append(f"invariants at {t} = 0: unavailable "
                     f"({an.zero_failure})")
    if an.generic is not None:
        wit = ", ".join(f"{t} = {rp.fmt_rational(w)}"
                        for w in an.generic.t_witnesses)
        lines.append(f"invariants at generic {t} (cross-checked at {wit}):")
        lines.extend(rp.record_lines(an.generic.record, indent="  "))
    else:
        lines.append(f"invariants at generic {t}: unavailable "
                     f"({an.generic_failure})")
    if evidence is not None:
        lines.append("")
        lines.append(
            f"irreducibility evidence for the generic polar curve "
            f"({evidence.certificate}): {evidence.verdict}")
        lines.extend(f"  {d}" for d in evidence.details)
    for v in verdicts:
        lines.append("")
        lines.extend(rp.verdict_lines(v))
    lines.append("")
    lines.append(f"summary: {summary}")

    doc = rp.base_json("family", cfg, cfg.expression)
    doc["family"] = rp.family_json(an)
    doc["weights"] = rp.weights_json(an.weights)
    if an.zero is not None:
        doc["invariants"] = rp.record_json(an.zero.record)
        doc["invariants_extra"] = rp.record_json_extra(an.zero.record)
    if an.generic is not None:
        doc["invariants_generic"] = rp.record_json(an.generic.record)
        doc["generic_witnesses"] = [rp.json_rational(w)
                                    for w in an.generic.t_witnesses]
    if evidence is not None:
        doc["irreducibility_evidence"] = {
            "verdict": evidence.verdict,
            "details": list(evidence.details),
            "certificate": evidence.certificate,
        }
    doc["verdicts"] = [rp.verdict_json(v) for v in verdicts]
    doc["summary"] = summary
    warnings = []
    if cfg.assert_irreducible or cfg.assert_equisingular:
        warnings.append("user assertions are recorded as USER_ASSERTED "
                        "hypotheses, never verified")
    doc["warnings"] = warnings
    lines.extend(f"warning: {w}" for w in warnings)
    sys.stdout.write(rp.finish(cfg, lines, doc))
    return 0


# ---------------------------------------------------------------------------
# ilm

def cmd_ilm(cfg: rp.RunConfig) -> int:
    if not cfg.parameter:
        raise UsageError(
            "ilm needs a parameter (--param or a param: line)")
    f = _parse_expression(cfg)
    rng = Random(cfg.seed)
    fam = decompose_family(f, rng, cfg.budget)
    slice0 = invariants_at(fam, ZERO, rng, cfg.budget)
    sliceg = invariants_at(fam, GENERIC, rng, cfg.budget)
    table0 = verify_ilm(fam, ZERO, slice0, rng, cfg.j_values, cfg.budget)
    tableg = verify_ilm(fam, GENERIC, sliceg, rng, cfg.j_values, cfg.budget)
    passed = table0.passed and tableg.passed

    lines = rp.header_lines("ilm", cfg, cfg.expression)
    for table in (table0, tableg):
        lines.append("")
        lines.extend(rp.ilm_lines(table, cfg.parameter))
    lines.append("")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    doc = rp.base_json("ilm", cfg, cfg.expression)
    doc["ilm"] = {"zero": rp.ilm_json(table0),
                  "generic": rp.ilm_json(tableg),
                  "passed": passed}
    sys.stdout.write(rp.finish(cfg, lines, doc))
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# entry

def entrypoint(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "selftest":
            from .selftest import run_selftest
            return run_selftest(seed=args.seed, budget=args.budget,
                                fmt=args.fmt, corpus_dir=args.corpus_dir)
        cfg = _config_from_args(args)
        if args.command == "invariants":
            return cmd_invariants(cfg)
        if args.command == "family":
            return cmd_family(cfg)
        if args.command == "ilm":
            return cmd_ilm(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MathRefusal as exc:
        print(f"refused: {rp.refusal_token(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
