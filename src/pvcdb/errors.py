"""Exception types shared across the engine."""


class PvcError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariable(PvcError):
    """A valuation does not cover a variable of the expression."""


class CarrierMismatch(PvcError):
    """A value does not belong to the carrier expected by an operation."""


class ArithmeticOverflow(PvcError):
    """A checked 64-bit operation overflowed."""


class LengthMismatch(PvcError):
    """Parallel argument lists have different lengths."""


class WeightSumOutOfTolerance(PvcError):
    """Mixture weights or a probability distribution do not sum to 1."""


class UnorderedCarrier(PvcError):
    """An order comparison was requested on an unordered carrier."""


class MissingDistribution(PvcError):
    """A variable has no probability distribution."""


class DuplicateVariable(PvcError):
    """A variable was declared more than once."""


class BudgetExceeded(PvcError):
    """Compilation hit the configured node-count budget."""


class WorldLimitExceeded(PvcError):
    """Exhaustive enumeration would exceed the configured world limit."""


class NoVariables(PvcError):
    """A branch variable was requested for a variable-free expression."""


class WrongMonoid(PvcError):
    """An operation requires a different aggregation monoid."""


class UnknownRelation(PvcError):
    """A query references a relation the database does not contain."""


class SchemaMismatch(PvcError):
    """A query violates schema or query-language constraints."""


class IllegalAggregate(PvcError):
    """SUM, COUNT or PROD aggregation was requested under set semantics."""


class RepeatedRelation(PvcError):
    """A base relation repeats in a database, or where analysis forbids it."""


class InvalidParams(PvcError):
    """Generator or benchmark parameters are out of range."""


class ParseError(PvcError):
    """Malformed textual input.

    Carries the character position so callers can point at the offending
    token.
    """

    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos
