"""Exception types shared across the package."""

from __future__ import annotations


class NumericFailure(ValueError):
    """A numeric evaluation produced a non-finite value.

    Carries the step index and time at which the failure occurred when the
    failure happened inside a time-stepping loop.
    """

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        if step is not None:
            message = f"{message} (step {step}, t={time})"
        super().__init__(message)
        self.step = step
        self.time = time


class ConfigError(ValueError):
    """Base class for run-configuration problems."""


class ConfigParseError(ConfigError):
    """Malformed configuration text or unknown keys."""


class ConfigValidationError(ConfigError):
    """Well-formed configuration that violates a model invariant."""
