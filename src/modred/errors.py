"""Exception types shared across the package."""


class ModredError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(ModredError):
    """Inputs violate a documented precondition."""


class NotOverdamped(InvalidParams):
    """Oscillator friction must strictly exceed twice the frequency."""


class NotSPD(ModredError):
    """Matrix is not symmetric positive semi-definite within tolerance."""


class NotHurwitz(ModredError):
    """Drift matrix has an eigenvalue with non-negative real part."""


class Singular(ModredError):
    """Linear system is numerically singular."""


class Unsupported(ModredError):
    """Closed form only available for the normalized symmetric case."""


class EmptyGrid(ModredError):
    """Time grid must contain at least one point."""


class UnstableStep(ModredError):
    """Euler step size too large for the stiffest drift eigenvalue."""


class NonFinite(ModredError):
    """A simulated state overflowed or became non-finite."""


class LengthMismatch(ModredError):
    """Sample sets must contain the same number of samples."""


class TooFewSamples(ModredError):
    """At least two samples are required."""
