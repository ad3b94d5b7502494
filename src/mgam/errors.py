"""Exception hierarchy shared by all mgam modules.

The CLI maps UsageError/ConfigError to exit code 2 (caller mistake) and
every other MgamError to exit code 1 (runtime failure).
"""


class MgamError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(MgamError):
    """An API or CLI was called with arguments that can never be valid."""


class ConfigError(UsageError):
    """A configuration key or value is unknown, unparsable or out of range."""


class DataError(MgamError):
    """A data file could not be loaded; message names the file and line."""


class SamplingError(MgamError):
    """A sampling request cannot be satisfied (not enough eligible items)."""


class CheckpointError(MgamError):
    """A checkpoint is missing, corrupt, or inconsistent with the config."""


class NonFiniteError(MgamError):
    """Training produced a non-finite loss or gradient (message names the
    epoch, the batch and, for a gradient, the parameter), or a scorer a
    non-finite score (message names the group)."""
