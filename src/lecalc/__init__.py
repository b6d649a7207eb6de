"""Exact invariants of line singularities and equimultiplicity checks.

The package computes, over the rationals (optionally with one symbolic
parameter), the classical numbers attached to a polynomial germ whose
singular locus is a coordinate axis: order, Le numbers, the polar number
of the axis, polar ratios, and the reduced Euler characteristic of the
Milnor fibre.  On one-parameter deformation families it checks a small
battery of sufficient conditions for equimultiplicity and reports a
conservative verdict per rule.
"""

from .engine import (DEFAULT_BUDGET, ColengthResult, Ideal, StandardBasis,
                     colength_at_origin, colength_by_truncation,
                     colength_global, contains_local_unit,
                     dimension_at_origin, eliminate, ideals_equal,
                     intersect, saturate, standard_basis)
from .errors import (BudgetExceededError, ContextError, DegenerateInputError,
                     ImproperIntersectionError, InternalCheckError,
                     LecalcError, MathRefusal, NonIntegerResultError,
                     NonIsolatedError, NonReducedError,
                     NotLineSingularityError, ParseError,
                     PolarDimensionError, UnluckySpecializationError,
                     UsageError)
from .families import (Family, FamilyAnalysis, IlmTable, TheoremVerdict,
                       analyze_family, decompose_family, evaluate_rules,
                       irreducibility_evidence,
                       is_equimultiple, is_upper, verify_ilm)
from .invariants import (InvariantRecord, WeightSystem, check_polar_ratio_lemma,
                         detect_weights, germ_record, is_line_singularity,
                         milnor_number, order_at_origin, polar_variety_1)
from .orders import GREVLEX, LOCAL, MonomialOrder
from .parse import parse_polynomial
from .poly import Coefficient, Context, Polynomial, render

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "Coefficient", "ColengthResult", "Context",
    "ContextError", "DEFAULT_BUDGET", "DegenerateInputError", "Family",
    "FamilyAnalysis", "GREVLEX", "Ideal", "IlmTable",
    "ImproperIntersectionError", "InternalCheckError", "InvariantRecord",
    "LOCAL", "LecalcError", "MathRefusal", "MonomialOrder",
    "NonIntegerResultError", "NonIsolatedError", "NonReducedError",
    "NotLineSingularityError", "ParseError", "PolarDimensionError",
    "Polynomial", "StandardBasis", "TheoremVerdict",
    "UnluckySpecializationError", "UsageError", "WeightSystem",
    "analyze_family", "check_polar_ratio_lemma", "colength_at_origin",
    "colength_by_truncation", "colength_global", "contains_local_unit",
    "decompose_family", "detect_weights", "dimension_at_origin",
    "eliminate", "evaluate_rules", "germ_record", "ideals_equal",
    "intersect", "irreducibility_evidence", "is_equimultiple",
    "is_line_singularity", "is_upper", "milnor_number", "order_at_origin",
    "parse_polynomial", "polar_variety_1", "render", "saturate",
    "standard_basis", "verify_ilm",
]
