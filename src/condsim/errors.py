"""Exception hierarchy shared by every condsim module.

All package errors derive from :class:`CondsimError` so callers can catch
one base class. Text-format problems additionally carry the offending line
number when it is known.
"""


class CondsimError(Exception):
    """Base class for every error raised by this package."""


class NetworkFormatError(CondsimError):
    """A ``.bnet`` source or a network definition is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BnetSyntaxError(NetworkFormatError):
    """A line does not match the grammar of the text format."""


class DuplicateNodeError(NetworkFormatError):
    """The same node identifier was declared twice."""


class UndeclaredParentError(NetworkFormatError):
    """A parent list names a node that has not been declared yet."""


class WrongRowCountError(NetworkFormatError):
    """A table has a number of rows other than 2 ** (parent count)."""


class ProbabilityOutOfRangeError(NetworkFormatError):
    """A probability entry is not strictly between 0 and 1."""


class UnknownNodeError(CondsimError):
    """An assignment or node list refers to a node the network lacks."""


class MissingParentBindingError(CondsimError):
    """A parent value needed for a table lookup is unbound."""


class NetworkTooLargeError(CondsimError):
    """A table would pass its size limit: the exact oracle's frontier,
    or a distribution estimate's categories."""


class EmptyPosteriorError(CondsimError):
    """The requested statistic needs at least one effective observation."""


class NonPositiveShapeError(CondsimError):
    """A Beta shape parameter must be strictly positive."""


class NonPositivePhiMinError(CondsimError):
    """A probability lower bound is not positive, or too small to use."""


class RowBudgetExceededError(CondsimError):
    """A stream's next batch would pass its raw-row budget.

    Every forward row counts, accepted or rejected, and a Gibbs chain
    counts as one row per sweep. Instances carry partial diagnostics:
    the phase that failed ("distribution" for the weights, "fraction"
    for a conditioned estimate, empty outside an estimate), the number
    of scored trials, and the bound that was hit (``cap``, the row
    budget).
    """

    def __init__(self, message: str, *, phase: str = "", trials: int = 0,
                 cap: int | None = None):
        self.phase = phase
        self.trials = trials
        self.cap = cap
        super().__init__(message)


class LengthMismatchError(CondsimError):
    """Two vectors that must have equal length do not."""


class ZeroDenominatorError(CondsimError):
    """A probability ratio has a non-positive denominator."""


class OverlappingSetsError(CondsimError):
    """Assignments or node sets that must be pairwise disjoint overlap."""
