"""Command line front end.

Subcommands: ``invariants`` (single germ), ``family`` (one-parameter
deformation with all theorem verdicts), ``ilm`` (augmentation tables),
``selftest`` (bundled corpus and acceptance checks).  Exit codes: 0 success,
1 usage or input error, 2 typed mathematical refusal or failed check.

Each command maps a RunConfig to its report document, built by
`lecalc.report`, and its exit code; `entrypoint` alone opens the command's
step budget, renders the document and writes it to stdout.

``family``, ``ilm`` and ``selftest`` import the family layer when they run,
so importing this module, or running ``invariants``, never loads it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from random import Random

from . import report as rp
from .errors import (ContextError, MathRefusal, NonIsolatedError,
                     NotLineSingularityError, UsageError)
from .invariants import detect_weights, germ_record, milnor_number
from .parse import parse_polynomial
from .poly import Context
from .sparse import DEFAULT_BUDGET, step_budget


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
                        help="reduction-step budget for the whole command")

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
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    # built on the first command, not at import; parse_args leaves the
    # parser unchanged, so one serves every later command of the process
    return build_parser()


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
    return rp.RunConfig(
        expression=expression, variables=variables, parameter=parameter,
        seed=seed, budget=args.budget, fmt=args.fmt,
        assert_equisingular=getattr(args, "assert_equisingular", False),
        assert_irreducible=getattr(args, "assert_irreducible", False),
        j_values=j_values)


def _parse_expression(cfg: rp.RunConfig):
    params = (cfg.parameter,) if cfg.parameter else ()
    ctx = Context(cfg.variables, params)
    return parse_polynomial(cfg.expression, ctx)


# ---------------------------------------------------------------------------
# commands: each returns its report document and exit code

def cmd_invariants(cfg: rp.RunConfig) -> tuple[dict, int]:
    f = _parse_expression(cfg)
    try:
        rec = germ_record(f, Random(cfg.seed))
    except NotLineSingularityError as exc:
        try:
            mu = milnor_number(f)
        except NonIsolatedError:
            mu = None
        return rp.refusal_report(cfg, exc, mu, f.min_total_degree()), 2
    weights = None if cfg.parameter else detect_weights(f)
    return rp.invariants_report(cfg, rec, weights), 0


def cmd_family(cfg: rp.RunConfig) -> tuple[dict, int]:
    from .families import analyze_family, evaluate_rules
    if not cfg.parameter:
        raise UsageError(
            "family analysis needs a parameter (--param or a param: line)")
    an = analyze_family(_parse_expression(cfg), Random(cfg.seed))
    verdicts = evaluate_rules(an, cfg.assert_equisingular,
                              cfg.assert_irreducible)
    return rp.family_report(cfg, an, verdicts), 0


def cmd_ilm(cfg: rp.RunConfig) -> tuple[dict, int]:
    from .families import (GENERIC, ZERO, decompose_family, invariants_at,
                           verify_ilm)
    if not cfg.parameter:
        raise UsageError(
            "ilm needs a parameter (--param or a param: line)")
    f = _parse_expression(cfg)
    rng = Random(cfg.seed)
    fam = decompose_family(f, rng)
    slice0 = invariants_at(fam, ZERO, rng)
    sliceg = invariants_at(fam, GENERIC, rng)
    table0 = verify_ilm(fam, slice0, rng, cfg.j_values)
    tableg = verify_ilm(fam, sliceg, rng, cfg.j_values)
    code = 0 if table0.passed and tableg.passed else 2
    return rp.ilm_report(cfg, table0, tableg), code


def cmd_selftest(cfg: rp.RunConfig) -> tuple[dict, int]:
    from .selftest import run_selftest
    return run_selftest(cfg)


_COMMANDS = {"invariants": cmd_invariants, "family": cmd_family,
             "ilm": cmd_ilm, "selftest": cmd_selftest}


# ---------------------------------------------------------------------------
# entry

def entrypoint(argv=None) -> int:
    """Run one command under one step budget and write its report."""
    try:
        args = _shared_parser().parse_args(argv)
        cfg = _config_from_args(args)
        with step_budget(cfg.budget):
            doc, code = _COMMANDS[args.command](cfg)
    except (UsageError, ContextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MathRefusal as exc:
        print(f"refused: {exc.token}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rp.render(doc, cfg.fmt))
    return code


if __name__ == "__main__":
    sys.exit(entrypoint())
