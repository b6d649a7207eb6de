"""Outside-in tracing of lecalc's public functions.

The tracer replaces module attributes with timing wrappers, including the
names other lecalc modules bound with ``from ... import``, so calls made
between modules are seen too.  No lecalc source changes.  Spans nest on one
stack (the program is single threaded); a span's self time is its duration
minus the time its child spans cover, and a function's inclusive time is
counted only at its outermost active call.  A function the program no
longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, function, span label); a label may be split per call by _SPLIT
TARGETS = [
    ("lecalc.engine", "standard_basis", "engine.standard_basis"),
    ("lecalc.engine", "saturate", "engine.saturate"),
    ("lecalc.engine", "ideal_quotient", "engine.ideal_quotient"),
    ("lecalc.engine", "intersect", "engine.intersect"),
    ("lecalc.engine", "eliminate", "engine.eliminate"),
    ("lecalc.engine", "ideals_equal", "engine.ideals_equal"),
    ("lecalc.engine", "colength_at_origin", "engine.colength_at_origin"),
    ("lecalc.invariants", "germ_record", "invariants.germ_record"),
    ("lecalc.invariants", "is_line_singularity",
     "invariants.is_line_singularity"),
    ("lecalc.invariants", "polar_variety_1", "invariants.polar_variety_1"),
    ("lecalc.invariants", "gamma1", "invariants.gamma1"),
    ("lecalc.invariants", "lambda0", "invariants.lambda0"),
    ("lecalc.invariants", "lambda1", "invariants.lambda1"),
    ("lecalc.invariants", "lambda_k_vanishing",
     "invariants.lambda_k_vanishing"),
    ("lecalc.invariants", "detect_weights", "invariants.detect_weights"),
    ("lecalc.invariants", "milnor_number", "invariants.milnor_number"),
    ("lecalc.families", "decompose_family", "families.decompose_family"),
    ("lecalc.families", "invariants_at", "families.invariants_at"),
    ("lecalc.families", "verify_ilm", "families.verify_ilm"),
    ("lecalc.families", "irreducibility_evidence",
     "families.irreducibility_evidence"),
    ("lecalc.families", "check_mt2", "families.rules"),
    ("lecalc.families", "check_mt3", "families.rules"),
    ("lecalc.families", "check_corollaries", "families.rules"),
    ("lecalc.families", "check_homogeneous_base", "families.rules"),
    ("lecalc.parse", "parse_polynomial", "parse.parse_polynomial"),
    ("lecalc.cli", "entrypoint", "cli.entrypoint"),
]

_ORDER_KINDS = {"local": "local", "grevlex": "global", "elimination": "elim"}


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _basis_label(label, args, kwargs):
    kind = getattr(_arg(args, kwargs, 1, "order"), "kind", None)
    return f"{label}.{_ORDER_KINDS.get(kind, 'other')}"


def _slice_label(label, args, kwargs):
    where = _arg(args, kwargs, 1, "where")
    return f"{label}.{str(where).lower()}"


_SPLIT = {"engine.standard_basis": _basis_label,
          "families.invariants_at": _slice_label,
          "families.verify_ilm": _slice_label}


def coeff_bits(c) -> int:
    """Largest numerator or denominator bit length inside one coefficient:
    a Fraction, an int, or a rational function with dicts of Fractions."""
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    parts = [v for d in (getattr(c, "num", None), getattr(c, "den", None))
             if isinstance(d, dict) for v in d.values()]
    return max((coeff_bits(v) for v in parts), default=0)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # [label, start, covered]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()  # (ancestor label, label) -> calls
        self.extra: Counter = Counter()
        self.max_coeff_bits = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _after(self, label, result):
        if label.startswith("engine.standard_basis"):
            elements = getattr(result, "elements", ())
            self.extra["engine.standard_basis.elements"] += len(elements)
            for p in elements:
                for c in p.terms.values():
                    bits = coeff_bits(c)
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits
        elif label.startswith("families.verify_ilm."):
            self.extra[label + ".rows"] += len(result.rows)

    def wrap(self, label, fn):
        split = _SPLIT.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = split(label, args, kwargs) if split else label
            frame = [name, clock(), 0.0]
            self.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                self.stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_time[name] += duration - frame[2]
                active = {f[0] for f in self.stack}
                if name not in active:
                    self.inclusive[name] += duration
                for ancestor in active:
                    self.nested[ancestor, name] += 1
                if ok:
                    self._after(name, result)
                if self.stack:
                    # the bookkeeping above counts in neither span's self time
                    self.stack[-1][2] += clock() - frame[1]

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in every loaded lecalc module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == "lecalc" or n.startswith("lecalc."))]
        for module_name, attr, label in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, name, value))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, value in reversed(self._installed):
            setattr(module, name, value)
        self._installed.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, incl, own = self.calls, self.inclusive, self.self_time

        def ratio(num, den):
            return num / den if den else 0.0

        kinds = ("local", "global", "elim")
        sb = [f"engine.standard_basis.{k}" for k in kinds]
        out = {
            "engine.standard_basis.calls": sum(calls[k] for k in sb),
            **{f"{k}.calls": calls[k] for k in sb},
            "engine.standard_basis.self_s": sum(own[k] for k in sb),
            "engine.standard_basis.elements":
                self.extra["engine.standard_basis.elements"],
            "engine.standard_basis.max_coeff_bits": self.max_coeff_bits,
            "engine.saturate.calls": calls["engine.saturate"],
            "engine.saturate.s": incl["engine.saturate"],
            "engine.saturate.rounds": calls["engine.ideal_quotient"],
            "engine.intersect.calls": calls["engine.intersect"],
            "engine.eliminate.calls": calls["engine.eliminate"],
            "engine.ideals_equal.calls": calls["engine.ideals_equal"],
            "engine.colength_at_origin.calls":
                calls["engine.colength_at_origin"],
            "engine.colength_at_origin.s": incl["engine.colength_at_origin"],
            "invariants.germ_record.calls": calls["invariants.germ_record"],
        }
        for name in ("germ_record", "is_line_singularity", "polar_variety_1",
                     "gamma1", "lambda0", "lambda1", "lambda_k_vanishing",
                     "detect_weights", "milnor_number"):
            out[f"invariants.{name}.s"] = incl[f"invariants.{name}"]
        out["invariants.milnor_number.calls"] = \
            calls["invariants.milnor_number"]
        out["invariants.lambda1.colengths_per_call"] = ratio(
            self.nested["invariants.lambda1", "engine.colength_at_origin"],
            calls["invariants.lambda1"])
        out["families.decompose_family.s"] = incl["families.decompose_family"]
        for where in ("zero", "generic"):
            out[f"families.invariants_at.{where}_s"] = \
                incl[f"families.invariants_at.{where}"]
        out["families.invariants_at.germ_records_per_generic"] = ratio(
            self.nested["families.invariants_at.generic",
                        "invariants.germ_record"],
            calls["families.invariants_at.generic"])
        for where in ("zero", "generic"):
            label = f"families.verify_ilm.{where}"
            out[f"{label}_s"] = incl[label]
            out[f"families.verify_ilm.milnor_per_row_{where}"] = ratio(
                self.nested[label, "invariants.milnor_number"],
                self.extra[label + ".rows"])
        out["families.irreducibility_evidence.s"] = \
            incl["families.irreducibility_evidence"]
        out["families.rules.s"] = incl["families.rules"]
        out["parse.parse_polynomial.s"] = incl["parse.parse_polynomial"]
        out["cli.self_s"] = own["cli.entrypoint"]
        return out
