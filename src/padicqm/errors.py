"""Exception hierarchy shared by all modules.

Every library error derives from PadicError.  ValidationError marks bad
input or a failed precondition (CLI exit code 2); ParseError marks
malformed JSON (CLI exit code 3).
"""


class PadicError(Exception):
    code = "error"


class ValidationError(PadicError):
    code = "validation"


class ParseError(PadicError):
    code = "parse"


class InvalidPrime(ValidationError):
    code = "invalid_prime"


class ContextMismatch(ValidationError):
    code = "context_mismatch"


class PrecisionExhausted(PadicError):
    """Additive cancellation ate every carried digit; raise the precision."""

    code = "precision_exhausted"


class DivisionByZero(ValidationError):
    code = "division_by_zero"


class ZeroInput(ValidationError):
    code = "zero_input"


class NotASquare(ValidationError):
    code = "not_a_square"


class UnsupportedForP2(ValidationError):
    code = "unsupported_for_p2"


class MuIsSquare(ValidationError):
    code = "mu_is_square"


class RequiresOddP(ValidationError):
    code = "requires_odd_p"


class EmptyFamily(ValidationError):
    code = "empty_family"


class SearchExhausted(PadicError):
    code = "search_exhausted"


class OutsideWindow(ValidationError):
    code = "outside_window"


class NotAdjointable(ValidationError):
    code = "not_adjointable"


class NotBlockFinite(ValidationError):
    code = "not_block_finite"


class NotTraceClass(ValidationError):
    code = "not_trace_class"


class TailDominates(PadicError):
    code = "tail_dominates"


class NotSelfAdjoint(ValidationError):
    code = "not_self_adjoint"


class SumNotOne(ValidationError):
    code = "sum_not_one"


class TraceNotOne(ValidationError):
    code = "trace_not_one"


class TraceNotZero(ValidationError):
    code = "trace_not_zero"


class SumNotIdentity(ValidationError):
    code = "sum_not_identity"


class DimensionMismatch(ValidationError):
    code = "dimension_mismatch"


class DegenerateNormalizer(ValidationError):
    code = "degenerate_normalizer"
