"""Exception hierarchy shared across the package.

Every failure that callers are expected to handle programmatically gets its
own class; pipeline code catches AgqError to translate into CLI verdicts.
"""


class AgqError(Exception):
    """Base class for all package errors."""


# -- field tower ------------------------------------------------------------

class NotPrime(AgqError):
    pass


class FieldTooLarge(AgqError):
    pass


class NotInBaseField(AgqError):
    pass


class ZeroInput(AgqError):
    pass


# -- point sets -------------------------------------------------------------

class DivisibilityViolated(AgqError):
    pass


class TooManyCosets(AgqError):
    pass


class CosetSearchExhausted(AgqError):
    pass


class NotNormValue(AgqError):
    """u / h'(alpha_i) is not in GF(q)*; carries the point index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"value at point index {index} is not a (q+1)-norm")


# -- curves -----------------------------------------------------------------

class BadCharacteristic(AgqError):
    pass


class GcdConditionViolated(AgqError):
    pass


class UnsupportedFamily(AgqError):
    pass


class EmptyFiber(AgqError):
    pass


# -- linear codes -----------------------------------------------------------

class RankDefect(AgqError):
    """Evaluation matrix rank fell short of the requested dimension."""

    def __init__(self, achieved_rank, expected, message=None):
        self.achieved_rank = achieved_rank
        self.expected = expected
        super().__init__(message or f"rank defect: achieved {achieved_rank}, expected {expected}")


class CapExceeded(AgqError):
    """An enumeration budget would be blown; carries the estimated cost."""

    def __init__(self, estimated_ops, cap, message=None):
        self.estimated_ops = estimated_ops
        self.cap = cap
        super().__init__(message or f"estimated {estimated_ops} ops exceeds cap {cap}")


class UnreadableInput(AgqError):
    """An input file could not be opened or read."""


class UnwritableOutput(AgqError):
    """An output file could not be opened for writing."""


class ParseError(AgqError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


# -- constructions ----------------------------------------------------------

class BadRequest(AgqError, ValueError):
    """A construction request with a missing or out-of-range parameter."""


class GramNonzero(AgqError):
    """Hermitian Gram certificate failed; carries the offending entry."""

    def __init__(self, row, col, value_token, message=None):
        self.row = row
        self.col = col
        self.value_token = value_token
        super().__init__(
            message or f"Gram entry ({row},{col}) = {value_token} is nonzero"
        )


class EmbeddingRejected(AgqError):
    """An embedding step failed; a Gram failure is its __cause__."""
