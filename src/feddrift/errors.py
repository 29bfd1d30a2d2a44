"""Exception types shared across the library."""


class FedDriftError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FedDriftError):
    """Operands disagree on vector length or array shape."""


class NumericError(FedDriftError):
    """A computation produced a non-finite value."""


class ParameterError(FedDriftError):
    """A parameter is outside its valid range; ``field``, if given, names it."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message)


class WeightError(FedDriftError):
    """Aggregation weights are negative or do not sum to a positive value."""


class EmptyAggregateError(FedDriftError):
    """An aggregate was requested over an empty collection."""


class EmptyEvaluationError(FedDriftError):
    """Evaluation was requested on an empty dataset slice."""


class PartitionError(FedDriftError):
    """A partition plan cannot be satisfied by the available samples."""


class FormatError(FedDriftError):
    """A binary file has a bad magic number or malformed structure."""


class LengthError(FedDriftError):
    """A binary file is shorter or longer than its header declares."""


class ConsistencyError(FedDriftError):
    """Two files that must describe the same samples disagree."""


class VersionError(FedDriftError):
    """A checkpoint was written by an incompatible format version."""


class ConfigError(FedDriftError):
    """A run configuration violates the documented schema.

    ``field`` holds the dotted path of the offending entry, e.g.
    ``"algorithm.alpha"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class RunError(FedDriftError):
    """An experiment failed mid-run; the message carries the round index."""
