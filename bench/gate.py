"""The exact-value gate: extract the checked view of one command's output and
compare it with the expected view from ``workloads``.

Only exact invariants, verdicts, exit codes and refusal tokens are read.
Witness values and the text layout are ignored on purpose, so a change to
how witnesses are drawn or how reports are rendered does not count as a
failure.
"""

from __future__ import annotations

import json
import re

_REFUSED = re.compile(r"^refused: ([A-Z_]+):", re.MULTILINE)
_RECORD_KEYS = ("order", "lambda0", "lambda1", "gamma1", "mu_slice")


def _record(inv: dict, extra: dict | None) -> dict:
    out = {k: inv[k] for k in _RECORD_KEYS}
    out["gamma1_plus_lambda0"] = inv["gamma1"] + inv["lambda0"]
    if extra is not None:
        out["gamma1_plus_lambda0"] = extra["gamma1_plus_lambda0"]
        out["lambda_k_zero"] = extra["higher_le_numbers_zero"]
    return out


def _ilm_table(table: dict) -> dict:
    return {"j": [r["j"] for r in table["rows"]],
            "mu": [r["mu"] for r in table["rows"]],
            "passed": table["passed"],
            "inferred": table["inferred"]}


def view(command: str, code: int, stdout: str, stderr: str) -> dict:
    """The checked view of one run; raises KeyError/ValueError on output that
    lacks a checked field (the caller counts that as a failure)."""
    refused = _REFUSED.search(stderr)
    out = {"exit": code, "refusal": refused.group(1) if refused else None}
    if not stdout.strip():
        return out
    doc = json.loads(stdout)
    if doc.get("refusal"):
        ref = doc["refusal"]
        out.update(refusal=ref["token"], order=ref["order"],
                   fallback_milnor=ref["fallback_milnor"])
    elif command == "invariants":
        out["record"] = _record(doc["invariants"], doc["invariants_extra"])
    elif command == "family":
        out["zero"] = _record(doc["invariants"], doc["invariants_extra"])
        out["generic"] = _record(doc["invariants_generic"], None)
        out["equimultiplicity"] = doc["family"]["equimultiplicity"]
        out["rules"] = {v["rule"]: v["conclusion"] for v in doc["verdicts"]}
    elif command == "ilm":
        out["passed"] = doc["ilm"]["passed"]
        out["zero"] = _ilm_table(doc["ilm"]["zero"])
        out["generic"] = _ilm_table(doc["ilm"]["generic"])
    return out


def mismatches(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    """Every checked field whose value differs, as one line each."""
    out = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{prefix}{key}"
        want, got = expected.get(key), actual.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            out.extend(mismatches(want, got, path + "."))
        elif want != got:
            out.append(f"{path}: expected {want!r}, got {got!r}")
    return out
