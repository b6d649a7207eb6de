"""Operation lists of the two benchmark workloads, with expected values.

Every operation is one ``lecalc`` command line (without ``--format`` and
``--seed``, which the runner appends) plus the *checked view* its JSON output
must produce.  ``gate.view`` extracts the same view from a real run, so an
operation passes exactly when the two compare equal.

Expected values come from closed forms wherever one exists:

* a suspension ``z2^b + z3^c`` (free axis z1) has lambda0 = gamma1 = 0 and
  lambda1 = mu_slice = (b-1)(c-1);
* ``z1^a*z2^2 + z2^b + g`` with ``g`` an isolated singularity of Milnor
  number m in the remaining variables has gamma1 = m(b-2), lambda1 = m,
  mu_slice = m(b-1) and lambda0 = m((a-1)(b-2) + 2a): the polar curve is
  m copies of ``2*z1^a + b*z2^(b-2) = 0``, which meets ``z1 = 0`` with
  multiplicity b-2 and ``a*z1^(a-1)*z2^2 = 0`` with (a-1)(b-2) + 2a;
* an ILM row at exponent j has mu = lambda0 + (j-1)*lambda1, the default
  exponents are 2+lambda0 .. 5+lambda0, and a passing table infers
  (lambda0, lambda1, gamma1+lambda0).

The rest (the generic slice of the nonupper family, rule conclusions and
equimultiplicity verdicts) were recorded from a seed-0 run.  Witness values
and text layout are never checked.
"""

from __future__ import annotations

CORPUS = "src/lecalc/corpus"


def suspension(b: int, c: int) -> dict:
    mu = (b - 1) * (c - 1)
    return {"order": min(b, c), "lambda0": 0, "lambda1": mu, "gamma1": 0,
            "gamma1_plus_lambda0": 0, "mu_slice": mu}


def line(a: int, b: int, m: int, order: int) -> dict:
    """z1^a*z2^2 + z2^b + g with mu(g) = m; order is min(a+2, b, ord g)."""
    l0 = m * ((a - 1) * (b - 2) + 2 * a)
    g1 = m * (b - 2)
    return {"order": order, "lambda0": l0, "lambda1": m, "gamma1": g1,
            "gamma1_plus_lambda0": g1 + l0, "mu_slice": m * (b - 1)}


def with_lambda_k(record: dict, nvars: int) -> dict:
    """A line singularity has vanishing lambda^k for every k >= 2."""
    return dict(record, lambda_k_zero=[True] * (nvars - 2))


def ilm_table(record: dict) -> dict:
    l0, l1 = record["lambda0"], record["lambda1"]
    js = list(range(2 + l0, 6 + l0))
    return {"j": js, "mu": [l0 + (j - 1) * l1 for j in js], "passed": True,
            "inferred": [l0, l1, record["gamma1_plus_lambda0"]]}


def invariants_op(expr: str, record: dict, nvars: int = 3) -> dict:
    argv = ["invariants", "-e", expr]
    if nvars != 3:
        argv += ["--vars", ",".join(f"z{i}" for i in range(1, nvars + 1))]
    return {"argv": argv,
            "expect": {"exit": 0, "refusal": None,
                       "record": with_lambda_k(record, nvars)}}


def family_op(argv_input: list[str], zero: dict, generic: dict,
              equimultiplicity: str, rules: dict, flags=()) -> dict:
    return {"argv": ["family", *argv_input, *flags],
            "expect": {"exit": 0, "refusal": None,
                       "zero": with_lambda_k(zero, 3), "generic": generic,
                       "equimultiplicity": equimultiplicity, "rules": rules}}


def ilm_op(argv_input: list[str], zero: dict, generic: dict,
           seed: int | None = None) -> dict:
    op = {"argv": ["ilm", *argv_input],
          "expect": {"exit": 0, "refusal": None, "passed": True,
                     "zero": ilm_table(zero), "generic": ilm_table(generic)}}
    if seed is not None:
        op["seed"] = seed  # runs at this --seed whatever the benchmark seed
    return op


def _rules(mt2="INCONCLUSIVE", mt3="INCONCLUSIVE", cmt2="INCONCLUSIVE",
           cmt3="INCONCLUSIVE", homogeneous="INCONCLUSIVE") -> dict:
    return {"mt2": mt2, "mt3": mt3, "cmt2": cmt2, "cmt3": cmt3,
            "homogeneous": homogeneous}


SUSP_33 = suspension(3, 3)
HOMOG = line(2, 4, 3, order=4)          # z1^2*z2^2 + z2^4 + z3^4
NONUPPER_BASE = line(2, 5, 3, order=4)  # z1^2*z2^2 + z2^5 + z3^4
# generic member of the nonupper family: recorded at seed 0
NONUPPER_GENERIC = {"order": 3, "lambda0": 6, "lambda1": 3, "gamma1": 9,
                    "gamma1_plus_lambda0": 15, "mu_slice": 12}


# Each list has an odd length, so op_p50_s is the latency of one operation
# rather than the mean of two unrelated ones.  A pass over GERMS takes about
# 5 s, so a 30 s run gives each op five or six samples; the short ops of
# ILM get five, after the 40 s nonupper table.

def _file(name: str) -> list[str]:
    return ["-f", f"{CORPUS}/{name}.lec"]


GERMS = [
    invariants_op("z1^2*z2^2 + z2^5 + z3^4", NONUPPER_BASE),
    invariants_op("z2^3 + z3^3", SUSP_33),
    invariants_op("z1^2*z2^2 + z2^4 + z3^4", HOMOG),
    invariants_op("z1*z2^2 + z2^3 + z3^3", line(1, 3, 2, order=3)),
    invariants_op("z1^2*z2^2 + z2^3 + z3^3", line(2, 3, 2, order=3)),
    invariants_op("z1^2*z2^2 + z2^4 + z3^3", line(2, 4, 2, order=3)),
    invariants_op("z1^3*z2^2 + z2^5 + z3^3", line(3, 5, 2, order=3)),
    invariants_op("z1^2*z2^2 + z2^4 + z3^3 + z4^3",
                  line(2, 4, 4, order=3), nvars=4),
    # z1^3 + z2^2 + z3^2 is isolated (A2, mu = 2), not a line singularity
    {"argv": ["invariants", "-e", "z1^3 + z2^2 + z3^2"],
     "expect": {"exit": 2, "refusal": "NOT_LINE_SINGULARITY",
                "order": 2, "fallback_milnor": 2}},
]

ILM = [
    ilm_op(_file("constant_family"), SUSP_33, SUSP_33),
    ilm_op(_file("homogeneous_family"), HOMOG, HOMOG),
    ilm_op(_file("suspension_family"), SUSP_33, SUSP_33),
    # the one `family` command: its irreducibility evidence and rules (here
    # the cmt3 contrapositive) run in no other command
    family_op(_file("nonupper_family"), NONUPPER_BASE, NONUPPER_GENERIC,
              "NOT_EQUIMULTIPLE",
              _rules(cmt3="NOT_TOPOLOGICALLY_V_EQUISINGULAR"),
              flags=["--assert-gamma1-irreducible"]),
    # Its generic rows cost 21-46 s depending on the parameter values the
    # command seed draws (seeds 0-8), far beyond any usable bound, so it runs
    # at --seed 0, the default every user gets.
    ilm_op(_file("nonupper_family"), NONUPPER_BASE, NONUPPER_GENERIC, seed=0),
]

WORKLOADS = {"germs": GERMS, "ilm": ILM}
