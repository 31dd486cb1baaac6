"""Exception hierarchy shared across the simulator and estimation pipeline."""


class SoftgripError(Exception):
    """Base class for all package errors."""


class DomainError(SoftgripError, ValueError):
    """An input is outside the physically valid domain (angle range, negative dp, ...)."""


class StateError(SoftgripError, RuntimeError):
    """An operation was called in the wrong state (unlocked ring, double lock, ...)."""


class RangeError(SoftgripError, ValueError):
    """A lookup-table query falls outside the calibrated hull; no extrapolation."""


class SaturationError(RangeError):
    """A pressure change exceeds the maximum the calibration table can invert."""


class ConfigError(SoftgripError, ValueError):
    """A scenario configuration is malformed or inconsistent."""
