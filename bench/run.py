"""lecalc benchmark: run one workload and print its metrics.

Run from the root of a lecalc checkout:

  python3 bench/run.py --workload germs|ilm --seed N --seconds S
                       --trace 0|1

Each run starts fresh interpreters (no lecalc state is shared between
runs): several that only import ``lecalc.cli``, for the set-up time, and one
that runs the workload's operation list through ``lecalc.cli.entrypoint``,
one call at a time (closed loop, one client).  Every operation runs once;
those that took at most S/2 seconds repeat in passes until they have five
samples, and further while the next pass fits in S seconds of the run.
Every output is checked against exact expected values.  A fixed reference
kernel, timed every 0.5 s, normalizes the latencies to one host speed.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed,
then the timings as measured; with ``--trace 1`` each operation runs
untraced and then traced, for its per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15         # fresh interpreters timing the import
TIME_LIMIT = 170.0      # the whole run, children included


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("time limit reached before the run started")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(
            f"{' '.join(args)}: exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)}: exit {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lecalc", "cli.py")):
        print(f"error: {root} holds no lecalc source tree (src/lecalc); run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    deadline = time.monotonic() + TIME_LIMIT
    child_args = ["run", "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            run_child(["setup"], deadline) for _ in range(SETUP_RUNS)]
        res = run_child(child_args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fail_frac = res["failed"] / res["attempted"]
    print(f"workload {args.workload}: seed {args.seed}, {res['passes']} "
          f"pass(es), {res['attempted']} operations, {res['failed']} failed "
          f"(fail_frac {fail_frac:g})")
    for failure in res["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: "
              + "; ".join(failure["mismatches"]))
    if args.trace:
        values = res["layers"]
    else:
        for key in ("setup_s", "measured_setup_s"):
            res[key] = statistics.median(s[key] for s in setups)
        values = res
    missing = set(units) - set(values)
    undeclared = set(values) - set(units) if args.trace else set()
    if missing or undeclared:
        print(f"error: metrics the run did not measure: {sorted(missing)}; "
              f"not in BENCHMARK.json: {sorted(undeclared)}", file=sys.stderr)
        return 1
    values = {name: values[name] for name in units}
    for name, value in values.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    if not args.trace:
        print("  as measured, not normalized:")
        for name in ("setup_s", "wall_s", "op_p50_s", "op_max_s"):
            print(f"  measured_{name:<43} {res['measured_' + name]:>14.6g} s")
        print(f"  {'reference kernel':<52} {res['kernel_s']:>14.6g} s")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
