#!/usr/bin/env python3
"""Walk the nonupper deformation family end to end.

The family  z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2 + t^2*z1^2*z2^2  keeps the
polar number of the axis constant while the order drops from 4 to 3, so the
contrapositive rule concludes the family is not topologically
V-equisingular.  The script prints every intermediate quantity the verdict
rests on: the slice invariant records, the verdict table of all five rules,
and the augmentation tables that recover the Le numbers from Milnor numbers
of isolated germs.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lecalc import (DEFAULT_BUDGET, Context, analyze_family, evaluate_rules,
                    parse_polynomial, render, verify_ilm)
from lecalc.families import GENERIC, ZERO
from lecalc.report import (ilm_json, ilm_text, record_json,
                           record_json_extra, record_text, verdict_json,
                           verdict_text, weights_json, weights_text)

FAMILY = "z1^2*z2^2 + z2^5 + z3^4 + t*z1*z2^2 + t^2*z1^2*z2^2"


@dataclass(frozen=True)
class ExampleConfig:
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    skip_ilm: bool = False


def main(cfg: ExampleConfig) -> int:
    ctx = Context(("z1", "z2", "z3"), ("t",))
    f = parse_polynomial(FAMILY, ctx)
    rng = Random(cfg.seed)
    print(f"family: {render(f)}")
    print(f"seed: {cfg.seed}")
    print()

    an = analyze_family(f, rng, cfg.budget)
    fam = an.family
    print(f"base (t = 0): {render(fam.base)}")
    for j, g in fam.deformation:
        power = "t" if j == 1 else f"t^{j}"
        print(f"deformation:  {power} * ({render(g)})")
    w = an.weights
    print(f"base weights: {w.weights}, weighted degree {w.degree}")
    if an.upper is not None and not an.upper.upper:
        j, expo, wdeg = an.upper.offenders[0]
        print(f"not an upper family: deformation term of weighted degree "
              f"{wdeg} < {an.upper.degree}")
    print()

    for sl in (an.zero, an.generic):
        title = "t = 0" if sl.where == ZERO else "generic t"
        print(f"--- invariants at {title} ---")
        rec = sl.record
        weights = weights_text(weights_json(rec.weights),
                               fam.parameter if sl.where == GENERIC else None)
        for line in record_text(record_json(rec), record_json_extra(rec),
                                "z1", weights):
            print(line)
        print()

    # assert irreducibility (the evidence supports it but cannot certify it)
    # so the contrapositive rule may fire
    verdicts, evidence = evaluate_rules(an, False, True, cfg.budget)
    print(f"irreducibility evidence for the generic polar curve: "
          f"{evidence.verdict} ({evidence.certificate})")
    print()
    print("--- verdicts ---")
    for verdict in verdicts:
        for line in verdict_text(verdict_json(verdict)):
            print(line)
        print()

    if not cfg.skip_ilm:
        print("--- augmentation tables ---")
        for where, sl in ((ZERO, an.zero), (GENERIC, an.generic)):
            table = verify_ilm(fam, where, sl, Random(cfg.seed),
                               budget=cfg.budget)
            for line in ilm_text(ilm_json(table), fam.parameter):
                print(line)
            print()

    eq = an.equimultiplicity
    print(f"orders: {eq.order_zero} (t = 0) vs {eq.order_generic} (generic)")
    print("conclusion: the family is not equimultiple, and because gamma1 "
          "stays constant the contrapositive rule rejects topological "
          "V-equisingularity.")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--skip-ilm", action="store_true",
                        help="skip the (slower) augmentation tables")
    args = parser.parse_args()
    sys.exit(main(ExampleConfig(args.seed, args.budget, args.skip_ilm)))
