"""Exception types shared across the package."""


class EuphratesError(Exception):
    """Base class for every error this package raises deliberately."""


class FrameFormatError(EuphratesError):
    """A frame file or buffer could not be parsed."""


class DimensionMismatchError(EuphratesError):
    """Operands that must share dimensions do not."""


class MetadataError(EuphratesError):
    """Motion-metadata stream is malformed, truncated, or out of range."""


class MissingDataError(EuphratesError):
    """A required detection record or motion field is absent."""


class ConfigError(EuphratesError):
    """A run configuration or synthetic spec is invalid."""
