"""Exact invariants of line singularities and equimultiplicity checks.

The package computes, over the rationals (optionally with one symbolic
parameter), the classical numbers attached to a polynomial germ whose
singular locus is a coordinate axis: order, Le numbers, the polar number
of the axis, polar ratios, and the reduced Euler characteristic of the
Milnor fibre.  On one-parameter deformation families it checks a small
battery of sufficient conditions for equimultiplicity and reports a
conservative verdict per rule.

The family names (``Family``, ``analyze_family``, ``verify_ilm``, ...) load
``lecalc.families`` on first access, so ``import lecalc`` and the
``invariants`` command do not compile the family layer.
"""

from .engine import (Ideal, StandardBasis, colength_at_origin,
                     colength_by_truncation, contains_local_unit, eliminate,
                     ideals_equal, intersect, saturate, standard_basis)
from .errors import (BudgetExceededError, ContextError, DegenerateInputError,
                     ImproperIntersectionError, InternalCheckError,
                     LecalcError, MathRefusal, NonIsolatedError,
                     NonReducedError, NotLineSingularityError, ParseError,
                     UnluckySpecializationError, UsageError)
from .invariants import (InvariantRecord, WeightSystem, detect_weights,
                         germ_record, is_line_singularity, milnor_number,
                         order_at_origin)
from .orders import GREVLEX, LOCAL, MonomialOrder
from .parse import parse_polynomial
from .poly import Coefficient, Context, Modular, Polynomial, render
from .sparse import DEFAULT_BUDGET, step_budget

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "Coefficient", "Context",
    "ContextError", "DEFAULT_BUDGET", "DegenerateInputError", "Family",
    "FamilyAnalysis", "GREVLEX", "Ideal", "IlmTable",
    "ImproperIntersectionError", "InternalCheckError", "InvariantRecord",
    "LOCAL", "LecalcError", "MathRefusal", "Modular", "MonomialOrder",
    "NonIsolatedError", "NonReducedError", "NotLineSingularityError",
    "ParseError", "Polynomial", "StandardBasis", "TheoremVerdict",
    "UnluckySpecializationError", "UsageError", "WeightSystem",
    "analyze_family", "colength_at_origin",
    "colength_by_truncation", "contains_local_unit",
    "decompose_family", "detect_weights",
    "eliminate", "evaluate_rules", "germ_record", "ideals_equal",
    "intersect", "is_equimultiple", "is_line_singularity", "is_upper",
    "milnor_number", "order_at_origin", "parse_polynomial",
    "render", "saturate", "standard_basis",
    "step_budget", "verify_ilm",
]


def __getattr__(name):
    # PEP 562: called only for names the package does not bind, and every
    # name in __all__ is bound at import except the family layer's
    if name in __all__:
        from . import families
        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
