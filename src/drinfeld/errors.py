"""Exception hierarchy.

Errors fall into two families: configuration problems (bad parameters,
malformed input) and mathematical preconditions that fail for the given
session parameters.  Precondition errors carry, where meaningful, the
parameter value that would make the computation possible, so callers can
report "enlarge m to 12" instead of a bare failure.
"""


class DrinfeldError(Exception):
    pass


class ConfigError(DrinfeldError):
    """Bad session parameters or malformed declarative input."""


class InvalidElement(ConfigError):
    """Coordinate vector does not describe an element of the field."""


class InvalidInput(ConfigError):
    """Malformed value passed to a constructor or parser."""


class PreconditionError(DrinfeldError):
    """A mathematical precondition fails for the given parameters."""


class DivideByZero(PreconditionError):
    """Division by an exact zero."""


class PrecisionExhausted(PreconditionError):
    """The result would have no certain coefficients at the working precision."""


class RamificationError(PreconditionError):
    """The requested root or twist lives in a ramified extension.

    `required_m` is a ramification index that would suffice.
    """

    def __init__(self, message, required_m=None):
        super().__init__(message)
        self.required_m = required_m


class NoRootInField(PreconditionError):
    """The residue field contains no root; `required_s` would suffice."""

    def __init__(self, message, required_s=None):
        super().__init__(message)
        self.required_s = required_s


class ResidueSplittingError(PreconditionError):
    """A residual polynomial does not split over the residue field.

    `required_s` is a residue degree over which it would split.
    """

    def __init__(self, message, required_s=None):
        super().__init__(message)
        self.required_s = required_s


class IndeterminateNorm(PreconditionError):
    """Gauss norm cannot be certified from the known coefficients."""


class TailNotNegligible(PreconditionError):
    """No certified bound places the truncation tail below the precision cap."""


class OutsideRadius(PreconditionError):
    """Argument lies outside the certified convergence radius."""


class CompatPreconditionFailed(PreconditionError):
    """The hypotheses of the t-action compatibility identity fail."""


class GateFailed(PreconditionError):
    """A structural gate (e.g. a j-invariant degree bound) is not satisfied."""
