"""Exception taxonomy.

Two families matter to callers (and to the CLI exit codes): bad inputs
(`ValidationError`, exit code 1) and computations that cannot deliver a
trustworthy number (`NumericalError`, exit code 2).
"""


class CmpsError(Exception):
    """Base class for all package errors."""


class ValidationError(CmpsError):
    """Input violates a documented precondition."""


class NumericalError(CmpsError):
    """Computation failed or its result cannot be certified."""


# -- validation ------------------------------------------------------------

class ShapeMismatchError(ValidationError):
    pass


class NonHermitianKError(ValidationError):
    pass


class InvalidBoundaryStateError(ValidationError):
    pass


class NegativeDistanceError(ValidationError):
    pass


class UnsortedPositionsError(ValidationError):
    pass


class PositionOutOfRangeError(ValidationError):
    pass


class InvalidMomentsError(ValidationError):
    pass


class StepNotPositiveError(ValidationError):
    pass


class ZeroDensityError(ValidationError):
    pass


class ConfigError(ValidationError):
    """Malformed run configuration (unknown key, missing field, bad type)."""


# -- numerical -------------------------------------------------------------

class NoConvergenceError(NumericalError):
    pass


class DegenerateFixedSpaceError(NumericalError):
    pass


class GaplessStateError(NumericalError):
    pass


class SignalBelowFloorError(NumericalError):
    pass


class WindowTooSmallError(NumericalError):
    pass


class NonNormalizableStateError(NumericalError):
    pass
