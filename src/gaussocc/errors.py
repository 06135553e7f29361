"""Exception types shared across the pipeline."""


class GaussOccError(Exception):
    """Base class for all library errors."""


class InvalidRotationError(GaussOccError):
    """Quaternion is not unit-norm within tolerance (or cannot be normalized)."""


class ConfigurationError(GaussOccError):
    """A configuration value is invalid. ``field`` names the offending key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SequenceTooShortError(GaussOccError):
    """Token sequence is too short for the hierarchical refiner."""


class DegenerateCovarianceError(GaussOccError):
    """A primitive's covariance is numerically singular."""


class WorkerError(GaussOccError):
    """A splat, eval, front-end or head worker failed, could not be forked, or was interrupted.

    ``bounds`` is its [lo, hi) range: of x-planes, CE leaves, anchors or TPV planes.
    """

    def __init__(self, message: str, bounds: tuple[int, int]):
        super().__init__(message)
        self.bounds = bounds


class GridMismatchError(GaussOccError):
    """Two grids that must share a spec do not."""


class LabelError(GaussOccError):
    """A class label is outside the configured class range."""


class UndefinedMetricError(GaussOccError):
    """A metric has no defined value (e.g. mean over zero classes)."""


class FormatError(GaussOccError):
    """A binary file violates its format. ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
