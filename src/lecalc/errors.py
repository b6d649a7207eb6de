"""Exception taxonomy.

Two families matter to the command line front end: `UsageError` maps to
exit code 1 (bad input, bad flags, unreadable or corrupt files) and
`MathRefusal` maps to exit code 2 (the input is syntactically fine but the
mathematics refuses it: non-reduced equation, non-isolated slice, budget
exhaustion and so on).  Everything else is a bug and is allowed to surface
as a plain traceback.
"""

from __future__ import annotations


class LecalcError(Exception):
    """Base class for all typed errors raised by this package."""


class UsageError(LecalcError):
    """Malformed input: files, flags, grammar."""


class ParseError(UsageError):
    """Syntax or identifier error in a polynomial expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ContextError(LecalcError):
    """Operation applied across incompatible variable/parameter contexts."""


class MathRefusal(LecalcError):
    """Input rejected on mathematical grounds; exit code 2 territory.

    ``token`` names the refusal in reports and on stderr; the tokens are part
    of the public contract, like the exit codes."""
    token = "REFUSED"


class NonReducedError(MathRefusal):
    """Equation has a repeated factor; the witness is the offending gcd."""
    token = "NON_REDUCED"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonIsolatedError(MathRefusal):
    """A Milnor number was requested at a non-isolated singular point."""
    token = "NON_ISOLATED"


class NotLineSingularityError(MathRefusal):
    """Germ failed the line-singularity test; carries the failing field."""
    token = "NOT_LINE_SINGULARITY"

    def __init__(self, message: str, failing_check: str, check=None):
        super().__init__(message)
        self.failing_check = failing_check
        self.check = check


class ImproperIntersectionError(MathRefusal):
    """An intersection number came out infinite."""
    token = "IMPROPER_INTERSECTION"


class PolarDimensionError(MathRefusal):
    """Relative polar variety has unexpected dimension (coordinates not generic)."""
    token = "POLAR_DIMENSION"


class NonIntegerResultError(MathRefusal):
    """A quantity that must be a non-negative integer evaluated otherwise."""
    token = "NON_INTEGER_RESULT"


class DegenerateInputError(MathRefusal):
    """Zero polynomial, nonvanishing constant term, or similar degeneracies."""
    token = "DEGENERATE_INPUT"


class UnluckySpecializationError(MathRefusal):
    """Random specialization disagreed twice with the generic computation."""
    token = "UNLUCKY_SPECIALIZATION"


class BudgetExceededError(MathRefusal):
    """Reduction-step budget exhausted during a basis computation."""
    token = "BUDGET_EXCEEDED"

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


class InternalCheckError(LecalcError):
    """A cross-check that must hold by theorem failed: indicates a bug."""
