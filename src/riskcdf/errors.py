"""Exception hierarchy and exit-code mapping.

Every toolkit error derives from :class:`ToolkitError` and carries the
process exit code the CLI uses for that failure class:

* 2 -- configuration errors (bad flags, invalid risk parameters),
* 3 -- data errors (malformed files, invalid loss values),
* 4 -- numeric failures (divergence, instances too large for exact solvers).
"""


class ToolkitError(Exception):
    """Base class for all riskcdf errors."""

    exit_code = 1


class ConfigError(ToolkitError):
    """Invalid configuration or parameters."""

    exit_code = 2


class InvalidAlpha(ConfigError):
    """CVaR level outside (0, 1]."""


class InvalidDelta(ConfigError):
    """Confidence parameter outside (0, 1]."""


class InvalidDistortion(ConfigError):
    """Distortion function fails g(0)=0, g(1)=1, or monotonicity."""


class InvalidSpectrum(ConfigError):
    """Spectrum fails nonnegativity, monotonicity, or unit integral."""


class InvalidOrder(ConfigError):
    """Moment order must be a positive integer."""


class InvalidGrowth(ConfigError):
    """Growth number must be at least 1."""


class DataError(ToolkitError):
    """Invalid or malformed data."""

    exit_code = 3


class EmptySample(DataError):
    """No loss values supplied."""


class InvalidLoss(DataError):
    """Loss value is NaN, infinite, or negative where it must not be."""


class SupportViolation(DataError):
    """Sample value falls outside the declared support interval."""


class FormatError(DataError):
    """File parse failure; the message names the offending row/column."""


class ShapeError(DataError):
    """Dimension mismatch between model parameters and data."""


class NumericError(ToolkitError):
    """Numeric failure during computation."""

    exit_code = 4


class Diverged(NumericError):
    """Training risk exceeded the divergence guard.

    The partial training trace recorded up to the failing iteration is
    attached as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TooLarge(NumericError):
    """Instance exceeds the exact solver's enumeration limits."""


class WeakReference(UserWarning):
    """Reference sample is too small relative to the evaluation sample."""
