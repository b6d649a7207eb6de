"""One benchmark process: import lecalc from the checkout, run a workload's
operation list through ``lecalc.cli.entrypoint`` one call at a time, check
every output with the exact-value gate, sample the host's speed throughout
(untraced runs), and print one JSON line.

Usage (from the checkout root; run.py starts it):
  python3 bench/child.py setup
  python3 bench/child.py run --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 5       # samples every short op gets
SPEED_PERIOD_S = 0.5  # how often the host's speed is sampled
SPEED_WINDOW_S = 1.0  # speed samples this close to an op count for it
# The reference kernel's median time on the machine the baseline was recorded
# on (2 CPUs, Python 3.11), so that normalized latencies read as seconds there.
REFERENCE_S = 0.012


def import_lecalc(root: str):
    """Import lecalc.cli from ROOT/src; return (module, seconds)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import lecalc.cli as cli
    seconds = time.perf_counter() - start
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"lecalc was imported from {where}, not from {src}")
    return cli, seconds


def reference_kernel() -> int:
    """Fixed pure-Python work that does not touch lecalc: products of sparse
    bivariate polynomials with rational coefficients, truncated in degree.
    Never change it: normalized latencies compare only while it stays the
    same."""
    p = {(i, j): Fraction(i + 1, j + 2)
         for i in range(6) for j in range(6) if (i + j) % 2 == 0}
    q = {(i, j): Fraction(j + 3, i + 1) - 1
         for i in range(5) for j in range(5)}
    for _ in range(2):
        prod: dict = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                key = (a + d, b + e)
                value = prod.get(key, 0) + c * f
                if value:
                    prod[key] = value
                else:
                    prod.pop(key, None)
        p = {k: v for k, v in prod.items() if k[0] < 8 and k[1] < 8}
    return sum(v.numerator.bit_length() + v.denominator.bit_length()
               for v in p.values())


def kernel_span() -> tuple[float, float]:
    """(start, end) of one reference kernel run with the cyclic garbage
    collector off: the kernel makes no cycles, and its time should not
    depend on how many objects lecalc left on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the shared host's speed through a run.  A SIGALRM handler
    times the reference kernel every SPEED_PERIOD_S seconds, in the middle
    of a long operation too.  The host's speed drifts by 10-30 % over
    seconds to minutes and moves lecalc and the kernel alike, so a latency
    scaled by REFERENCE_S / the kernel's mean time around it no longer
    carries the drift."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of kernels
        self._ticking = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._ticking:
            return
        self._ticking = True
        try:
            self.ticks.append(kernel_span())
        finally:
            self._ticking = False

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()  # a sample after the last op

    def latency(self, start: float, end: float) -> float:
        """Time from START to END that the kernel did not take."""
        return end - start - sum(max(0.0, min(e, end) - max(s, start))
                                 for s, e in self.ticks)

    def normalized(self, start: float, end: float) -> float:
        """The latency scaled by REFERENCE_S / the mean time of the kernels
        run within SPEED_WINDOW_S of it (of all kernels, if none did)."""
        near = [e - s for s, e in self.ticks
                if e >= start - SPEED_WINDOW_S and s <= end + SPEED_WINDOW_S]
        kernel = statistics.mean(near) if near else self.kernel_s()
        return self.latency(start, end) * REFERENCE_S / kernel

    def kernel_s(self) -> float:
        return statistics.median(e - s for s, e in self.ticks)


class Run:
    """The (start, end) time of every sample of every op, and the gate
    failures."""

    def __init__(self, n_ops: int):
        self.spans: list[list[tuple[float, float]]] = [[] for _ in
                                                       range(n_ops)]
        self.failures: list[dict] = []

    def add(self, i: int, op: dict, start: float, end: float,
            bad: list[str]) -> None:
        self.spans[i].append((start, end))
        if bad:
            self.failures.append({"argv": op["argv"], "mismatches": bad})


def command_seed(seed: int, pass_index: int) -> int:
    """The --seed of every command in one pass: each pass of a run draws
    other witnesses, so a run's per-op median covers several draws."""
    return seed * 1000 + pass_index


def run_op(cli, op: dict, seed: int) -> tuple[float, float, list[str]]:
    """Run one operation; return (start, end, gate mismatches)."""
    seed = op.get("seed", seed)
    argv = [*op["argv"], "--format", "json", "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.entrypoint(argv)
    except Exception as exc:  # the op fails; the run goes on
        return start, time.perf_counter(), [f"exception: {exc!r}"]
    end = time.perf_counter()
    try:
        actual = gate.view(op["argv"][0], code, out.getvalue(), err.getvalue())
    except (KeyError, TypeError, ValueError) as exc:
        return start, end, [f"unreadable output: {exc!r}"]
    return start, end, gate.mismatches(op["expect"], actual)


def run_pass(cli, ops: list[dict], seed: int, indices, run: Run) -> float:
    """Run ops[i] for each i in turn and add each to RUN; return the wall
    time of the pass."""
    start = time.perf_counter()
    for i in indices:
        run.add(i, ops[i], *run_op(cli, ops[i], seed))
    return time.perf_counter() - start


def measure(cli, ops: list[dict], seed: int, seconds: float):
    """Every op runs once.  The ops that took at most half of SECONDS then
    repeat, in passes, until each has MIN_SAMPLES samples, and further
    while the next pass fits in SECONDS from the start of the run.  A
    longer op (the nonupper ILM table, ~40 s) runs once, so that it does
    not crowd out the samples of the other ops.  Returns (run, host speed
    samples)."""
    run = Run(len(ops))
    start = time.perf_counter()
    with HostSpeed() as speed:
        run_pass(cli, ops, command_seed(seed, 0), range(len(ops)), run)
        short = [i for i, s in enumerate(run.spans)
                 if s[0][1] - s[0][0] <= seconds / 2]
        pass_s = sum(run.spans[i][0][1] - run.spans[i][0][0] for i in short)
        passes = 1
        while short:
            elapsed = time.perf_counter() - start
            if passes >= MIN_SAMPLES and elapsed + pass_s > seconds:
                break
            pass_s = run_pass(cli, ops, command_seed(seed, passes), short,
                              run)
            passes += 1
    return run, speed


def measure_traced(cli, ops: list[dict], seed: int):
    """Run every op untraced and then traced, back to back, at the seed of a
    run's first pass.  Returns (run, tracer, per-op ratios of traced to
    untraced latency)."""
    run = Run(len(ops))
    tracer = Tracer()
    ratios = []
    seed = command_seed(seed, 0)
    for i, op in enumerate(ops):
        run.add(i, op, *run_op(cli, op, seed))
        tracer.install()
        try:
            run.add(i, op, *run_op(cli, op, seed))
        finally:
            tracer.uninstall()
        (s0, e0), (s1, e1) = run.spans[i]
        ratios.append((e1 - s1) / (e0 - s0))
    return run, tracer, ratios


def summarize(run: Run, speed: HostSpeed | None = None) -> dict:
    """Counts of the run and, when SPEED sampled it, end-to-end figures from
    each op's median latency: normalized (the metrics) and as measured."""
    attempted = sum(len(s) for s in run.spans)
    out = {
        "ok_frac": 1.0 - len(run.failures) / attempted,
        "attempted": attempted,
        "failed": len(run.failures),
        "passes": max(len(s) for s in run.spans),
        "failures": run.failures[:5],
    }
    if speed is None:
        return out
    for prefix, latency in (("", speed.normalized),
                            ("measured_", speed.latency)):
        per_op = [statistics.median(latency(*span) for span in spans)
                  for spans in run.spans]
        out[f"{prefix}wall_s"] = sum(per_op)
        out[f"{prefix}op_p50_s"] = statistics.median(per_op)
        out[f"{prefix}op_max_s"] = max(per_op)
    out["kernel_s"] = speed.kernel_s()
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup", help="only time the import of lecalc.cli")
    one = sub.add_parser("run", help="run one workload")
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        # the import normalized like a latency, by kernels just around it
        before = kernel_span()
        _, setup = import_lecalc(os.getcwd())
        after = kernel_span()
        kernel = (before[1] - before[0] + after[1] - after[0]) / 2
        print(json.dumps({"setup_s": setup * REFERENCE_S / kernel,
                          "measured_setup_s": setup}))
        return 0
    cli, setup = import_lecalc(os.getcwd())
    ops = WORKLOADS[args.workload]
    result = {}
    if args.trace:
        run, tracer, ratios = measure_traced(cli, ops, args.seed)
        result.update(summarize(run))
        layers = tracer.metrics()
        layers["trace.wall_s"] = sum(e - s for _, (s, e) in run.spans)
        layers["trace.overhead_ratio"] = statistics.median(ratios)
        result["layers"] = layers
    else:
        result.update(summarize(*measure(cli, ops, args.seed, args.seconds)))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
