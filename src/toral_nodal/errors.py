"""Error types shared across the package.

``InvariantViolation`` is reserved for *proven* statements: if one of these
raises, the implementation (or its floating-point handling) is broken, not
the input.  The CLI maps it to exit code 2.
"""

from __future__ import annotations


class InvariantViolation(AssertionError):
    """A mathematically proven bound failed numerically."""


class AntipodalMedianError(ValueError):
    """The zero median: every antipodal pair maps to it, inversion is ambiguous."""


class QuadratureError(RuntimeError):
    """A grid refinement hit its node cap (CLI exit code 5); carries the
    best estimate when there is one."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(ValueError):
    """Bad experiment configuration (CLI exit code 3)."""
