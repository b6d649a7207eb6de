"""Self-test of the exact-value gate: it must be able to fail.

Runs three cheap operations through the same runner the benchmark uses: one
correct, one whose expected lambda1 is corrupted, and one that expects a
result but gets a NOT_LINE_SINGULARITY refusal.  Asserts that exactly the
last two count as failed, and so toward fail_frac.

  python3 bench/gate_selftest.py     (from the checkout root; exit 0 = pass)
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
from workloads import SUSP_33, invariants_op  # noqa: E402


def main() -> int:
    cli, _ = child.import_lecalc(os.getcwd())
    good = invariants_op("z2^3 + z3^3", SUSP_33)
    corrupted = copy.deepcopy(good)
    corrupted["expect"]["record"]["lambda1"] += 1
    refused = invariants_op("z1^3 + z2^2 + z3^2", SUSP_33)
    ops = [good, corrupted, refused]
    run = child.Run(len(ops))
    child.run_pass(cli, ops, 0, range(len(ops)), run)
    result = child.summarize(run)
    failed = [" ".join(f["argv"]) for f in result["failures"]]
    expected = [" ".join(op["argv"]) for op in ops[1:]]
    ok = (failed == expected and result["failed"] == 2
          and result["attempted"] == 3
          and abs(result["ok_frac"] - 1 / 3) < 1e-12)
    for f in result["failures"]:
        print(f"caught: {' '.join(f['argv'])}: {'; '.join(f['mismatches'])}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_frac {1 - result['ok_frac']:.4f}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
