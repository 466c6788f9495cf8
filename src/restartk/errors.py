"""Exception and warning types shared across the package, and the one check
of whole-number arguments."""

import math


def check_count(name, n, least=1):
    """A whole-number argument as an int of at least ``least``; int() alone
    would take True, truncate 2.7 and overflow on inf."""
    if isinstance(n, bool) or not (math.isfinite(n) and n == int(n)):
        raise DomainError(f"{name} must be a whole number, got {n!r}")
    if n < least:
        raise DomainError(f"{name} must be at least {least}, got {n}")
    return int(n)


class RestartkError(Exception):
    """Base class for errors raised by this package."""


class DomainError(RestartkError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedTarget(RestartkError, TypeError):
    """The set descriptor cannot be interpreted on the given state space."""


class QuadratureFailure(RestartkError, ArithmeticError):
    """A numerical integral could not be computed reliably."""


class ToleranceNotMet(QuadratureFailure):
    """The certified error estimate exceeds the requested tolerance.

    The partial result, when one exists, is attached as ``result`` so a
    caller can inspect how far off the computation landed.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class TailBoundViolated(RestartkError, ValueError):
    """The growth bound does not force the exponentially weighted tail to zero.

    Raised when the certified growth rate of the integrand is not strictly
    below the restart rate, so no truncation point exists.
    """


class EtaNotLessThanLambda(RestartkError, ValueError):
    """A moment bound requires the growth rate strictly below the restart rate."""


class SingularityAtOrigin(RestartkError, ValueError):
    """A transition density was requested at time zero, where none exists."""


class WindowTooNarrow(RestartkError, ValueError):
    """The histogram window misses a non-negligible part of the reference mass."""


class ConfigError(RestartkError, ValueError):
    """An experiment configuration failed validation."""


class MomentUnstable(RuntimeWarning):
    """A Monte Carlo moment estimate shows heavy-tail symptoms.

    The reported standard error is then unreliable and the underlying
    moment may not be finite.
    """


class FubiniUnverified(RuntimeWarning):
    """The absolute-integrability hypothesis behind a moment formula was not certified."""
