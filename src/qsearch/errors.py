"""Exception types shared across the package."""


class QSearchError(ValueError):
    """Base class for all qsearch domain errors."""


class DimensionError(QSearchError):
    """Operands have incompatible dimensions."""


class NormalizationError(QSearchError):
    """A vector is too far from unit norm to be accepted or repaired."""


class DegenerateOverlapError(QSearchError):
    """The two states are colinear, so the orthogonal complement is empty."""


class NoRotationError(QSearchError):
    """Zero overlap: the drive never transfers amplitude to the target."""


class BasisError(QSearchError):
    """A purported orthonormal basis fails the orthonormality check."""


class ScheduleError(QSearchError):
    """The requested time grid extends beyond the driver schedule horizon."""
