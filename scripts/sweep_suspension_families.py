#!/usr/bin/env python3
"""Sweep suspension families  z2^a + z3^b + t*z2^(a+1)  over a grid of
exponents and tabulate their invariants.

Every base is a Brieskorn plane curve suspended along a free z1-axis, so
the axis is a line singularity with empty polar curve, lambda0 = gamma1 = 0,
and lambda1 equal to the transverse Milnor number (a-1)(b-1).  The
deformation multiplies z2^a by a local unit, so every family in the grid
should come out equimultiple; the table records which rule established it.
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lecalc import (DEFAULT_BUDGET, Context, analyze_family, evaluate_rules,
                    parse_polynomial)
from lecalc.families import EQUIMULTIPLE


@dataclass(frozen=True)
class SweepConfig:
    max_exponent: int = 4
    seed: int = 0
    budget: int = DEFAULT_BUDGET


def main(cfg: SweepConfig) -> int:
    ctx = Context(("z1", "z2", "z3"), ("t",))
    print(f"sweep: z2^a + z3^b + t*z2^(a+1), 2 <= a <= b <= {cfg.max_exponent}")
    print(f"seed: {cfg.seed}")
    print()
    header = f"{'a':>2} {'b':>2} {'lambda1':>8} {'mu_slice':>9} " \
             f"{'orders':>8} {'mt2':>14}"
    print(header)
    print("-" * len(header))

    failures = 0
    for a in range(2, cfg.max_exponent + 1):
        for b in range(a, cfg.max_exponent + 1):
            text = f"z2^{a} + z3^{b} + t*z2^{a + 1}"
            f = parse_polynomial(text, ctx)
            an = analyze_family(f, Random(cfg.seed), cfg.budget)
            rec = an.zero.record
            expected = (a - 1) * (b - 1)
            verdicts, _ = evaluate_rules(an, False, False, cfg.budget)
            verdict = {v.theorem: v for v in verdicts}["mt2"]
            orders = f"{an.equimultiplicity.order_zero}={an.equimultiplicity.order_generic}" \
                if an.equimultiplicity.equimultiple else \
                f"{an.equimultiplicity.order_zero}!{an.equimultiplicity.order_generic}"
            ok = (rec.lambda1 == expected
                  and rec.lambda0 == 0 and rec.gamma1 == 0
                  and verdict.conclusion == EQUIMULTIPLE)
            if not ok:
                failures += 1
            flag = "" if ok else "   <- unexpected"
            print(f"{a:>2} {b:>2} {rec.lambda1:>8} {rec.slice_milnor:>9} "
                  f"{orders:>8} {verdict.conclusion:>14}{flag}")

    print()
    if failures:
        print(f"{failures} grid point(s) deviated from the prediction")
        return 1
    print("all grid points match: lambda1 = (a-1)(b-1), "
          "lambda0 = gamma1 = 0, mt2 concludes EQUIMULTIPLE")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-exponent", type=int, default=4,
                        help="largest exponent in the grid (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()
    sys.exit(main(SweepConfig(args.max_exponent, args.seed, args.budget)))
