"""Exception types shared across the package.

Every failure mode raised by the solvers and checks is a subclass of
WavefanError, so callers can catch one base type at the CLI boundary and
still discriminate programmatically everywhere else. A solve that does not
converge raises NonConvergenceError, whatever stopped it. A verdict is not
an error: a uniqueness probe with too few runs in class returns its counts.
"""

from __future__ import annotations


class WavefanError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(WavefanError, ValueError):
    """A scalar argument or option is outside its documented range."""


class UnsupportedFluxError(WavefanError, ValueError):
    """An operation that only makes sense for the quadratic flux got another one."""


class NonConvergenceError(WavefanError, RuntimeError):
    """Newton (or the Dafermos flow before it) failed to converge; a singular
    or non-finite Newton system is a rejected step like any other. The
    report, when given, is the partial solve report (its residual history)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CoverageError(WavefanError, ValueError):
    """A check needed samples outside the range the given data covers, or a
    weight outside the range of doubles."""


class WindowError(WavefanError, ValueError):
    """A fit or integration window is empty, reversed, or has too few nodes."""


class DegenerateProfileError(WavefanError, ValueError):
    """A profile violates a structural assumption (e.g. a zero slope where
    a logarithm of the slope is required)."""


class ProfileFormatError(WavefanError, ValueError):
    """A profile CSV (or config file) failed to parse; message carries the line number."""


class ConfigError(WavefanError, ValueError):
    """Command line or config file rejected; message names the offending token."""
