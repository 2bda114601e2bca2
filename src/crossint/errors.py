"""Exception types shared across the toolkit."""


class CrossIntError(Exception):
    """Base class for all toolkit errors."""


class GroundMismatch(CrossIntError):
    """Two sets or families over different ground sets were combined."""


class BadIndices(CrossIntError):
    """A shift was requested with indices outside 1 <= i < j <= n."""


class IndexNotMeaningful(CrossIntError):
    """An orbit index fell outside its admissible range."""


class ParamsOutOfRange(CrossIntError):
    """Parameters violate a precondition (e.g. slack l < 0 or s < 2)."""


class EnumerationTooLarge(CrossIntError, OverflowError):
    """An exact enumeration would exceed the configured cap.

    Subclasses OverflowError so callers guarding the low-level
    enumeration cap and the high-level oracle cap can catch either.
    """


class TypedEdgeNotInW(CrossIntError):
    """A typed edge fell outside the orbit graph.

    This contradicts the construction and must never fire; if it does,
    it is a finding about the construction itself, not bad input.
    """


class DecompositionViolation(CrossIntError):
    """The typed-edge subgraph was structurally not a disjoint union of paths."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class FlowCertificateError(CrossIntError):
    """A flow, cover, independent-set or oracle answer failed its own
    certificate check; raised, not asserted, so python -O keeps it."""


class ShiftSizeChanged(CrossIntError):
    """A family shift changed the number of members (a code defect)."""


class ConfigError(CrossIntError):
    """A sweep specification is malformed."""
