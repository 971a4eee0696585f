"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
anything else -> 4.
"""


class SoundScanError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SoundScanError):
    """Invalid or inconsistent configuration."""


class DataError(SoundScanError):
    """Missing, malformed, or mismatched input data."""


class CheckpointError(DataError):
    """Unreadable checkpoint container, version mismatch, or arrays that do
    not fit the model."""
