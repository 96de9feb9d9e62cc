"""Exception hierarchy shared by the whole package.

Every domain error raised by this library derives from :class:`StacksortError`,
so callers (in particular the CLI) can distinguish "bad input / unmet
precondition" from genuine bugs.
"""


class StacksortError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(StacksortError, ValueError):
    """An argument is out of range or malformed (also a ``ValueError``)."""


class DuplicateEntryError(StacksortError):
    """A permutation word contains a repeated entry."""


class NonPositiveEntryError(StacksortError):
    """A permutation word contains an entry smaller than 1."""


class NotNormalizedError(StacksortError):
    """An operation requires entries to be exactly 1..n."""


class LastEntryNotMaxError(StacksortError):
    """An operation requires the final entry to be the maximum."""


class UnsortedPermutationError(StacksortError):
    """The permutation has no hook configuration (fertility zero)."""


class NotStationaryError(StacksortError):
    """The given hook does not appear in every hook configuration."""


class LengthMismatchError(StacksortError):
    """Compositions compared for domination have different lengths."""


class SumMismatchError(StacksortError):
    """Compositions compared for domination have different part sums."""


class PreconditionFailedError(StacksortError):
    """A reduction was requested where its hypothesis does not hold."""


class ReductionNotFoundError(StacksortError):
    """The reduced word does not realise the projected composition set."""


class SizeLimitExceededError(StacksortError):
    """A size is over its limit: brute force, a sweep, or the digits of a cached value."""


class HypothesisViolatedError(StacksortError):
    """A matrix bound check was asked for a matrix with an all-ones column."""


class CorruptRecordError(StacksortError):
    """A cache line failed to parse or disagrees with the engine."""


class VerificationFailedError(StacksortError):
    """A result failed a check the library makes on its own output."""
