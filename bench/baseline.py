"""Record the benchmark baseline into bench/BASELINE.json.

For every workload: the end-to-end metrics at seed 0, two traced runs at
seed 0 (whose count metrics must agree exactly), and one end-to-end run at a
held-out seed, which must have no failures.  Also records the gate
self-test, the Python version, the CPU count and the git revision.

  python3 bench/baseline.py     (from the checkout root)

Takes about eight minutes on a 2-CPU machine.  Exit 0 when every run was
correct and the counts repeated.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7

NOT_WORKLOADS = {
    "selftest": "about 25 s, most of it the same nonupper analysis and ILM "
                "calls the ilm workload already runs",
    "families": "lecalc family on the corpus and sweep families: before "
                "timings were normalized its times spread past their 25 % "
                "bound over ten runs, and the time allowed for all runs "
                "cannot hold a third workload beside ilm's 40 s table; its "
                "layers run in ilm (invariants_at, and the evidence and "
                "rules through the nonupper family command)",
    "tier-1 tests": "the suite grows with every change that adds a test, so "
                    "its time is not comparable across commits",
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=True)
    sys.stdout.write(proc.stdout)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    gate = subprocess.run(
        [sys.executable, os.path.join(HERE, "gate_selftest.py")],
        cwd=ROOT, capture_output=True, text=True)
    ok = gate.returncode == 0
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "run_seconds": seconds,
        "held_out_seed": HELD_OUT_SEED,
        "gate_selftest": gate.stdout.strip().splitlines()[-1:],
        "not_workloads": NOT_WORKLOADS,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        e2e = bench(name, 0, seconds, 0)
        held = bench(name, HELD_OUT_SEED, seconds, 0)
        traced = [bench(name, 0, seconds, 1) for _ in range(2)]
        # every per-layer metric but the timings (unit s, and the trace.*
        # figures of the traced run) is a count that must repeat exactly
        counts = [{k: v for k, v in t["metrics"].items()
                   if units[k] != "s" and not k.startswith("trace.")}
                  for t in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok &= (not differ and e2e["failed"] == 0 and held["failed"] == 0
               and all(t["failed"] == 0 for t in traced))
        doc["workloads"][name] = {
            "why": w["why"],
            "seed_0": e2e["metrics"],
            "fail_frac_seed_0": e2e["failed"] / e2e["attempted"],
            "held_out": held["metrics"],
            "fail_frac_held_out": held["failed"] / held["attempted"],
            "per_layer_seed_0": traced[0]["metrics"],
            "tracing_overhead_ratio": [t["metrics"]["trace.overhead_ratio"]
                                       for t in traced],
            "counts_repeat": not differ,
            "counts_that_differ": differ,
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("baseline written" + ("" if ok else " WITH PROBLEMS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
