"""Exception types shared across the library."""


class FedDriftError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FedDriftError):
    """Operands disagree on vector length or array shape, or are empty."""


class NumericError(FedDriftError):
    """A computation produced a non-finite value."""


class ParameterError(FedDriftError):
    """A parameter is outside its valid range; ``field``, if given, names it."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message)


class FormatError(FedDriftError):
    """A file is malformed: bad magic, version, length or structure."""


class ConfigError(FedDriftError):
    """A run configuration violates the documented schema.

    ``field`` holds the dotted path of the offending entry, e.g.
    ``"algorithm.alpha"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class RunError(FedDriftError):
    """An experiment could not be built or failed mid-run.

    The message names what was being built (dataset, model or client
    store) or the failing round.
    """
