"""Exception and warning types shared across the package, and one check per
argument domain.  Each returns the argument as used and raises DomainError
as "{name} must be ..., got {value}": ``check_count`` a whole number,
``check_finite`` a finite real, ``check_nonnegative`` a nonnegative finite
number (a time), ``check_positive`` a positive finite one (a restart rate, a
scale, a tolerance), ``check_horizon`` one in [0, inf] (inf is the stationary
limit), and ``check_times`` the time rule over an array.  The scalar checks
take no flags: the event-log walker makes one time check per event."""

import math

import numpy as np


def check_count(name, n, least=1):
    """A whole-number argument as an int of at least ``least``; int() alone
    would take True, truncate 2.7 and overflow on inf."""
    if isinstance(n, bool) or not (math.isfinite(n) and n == int(n)):
        raise _refused(name, "a whole number", repr(n))
    if n < least:
        raise _refused(name, f"at least {least}", n)
    return int(n)


def _refused(name, rule, value):
    return DomainError(f"{name} must be {rule}, got {value}")


def check_finite(name, x):
    x = float(x)
    if not math.isfinite(x):
        raise _refused(name, "finite", x)
    return x


def check_nonnegative(name, x):
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise _refused(name, "nonnegative and finite", x)
    return x


def check_positive(name, x):
    x = float(x)
    if not 0.0 < x < math.inf:
        raise _refused(name, "positive and finite", x)
    return x


def check_horizon(name, x):
    x = float(x)
    if not x >= 0.0:
        raise _refused(name, "nonnegative or inf", x)
    return x


def check_times(t, shape=None, positive=False):
    """Times as a float array, broadcast to shape when one is given (a scalar
    is then shared); the first bad one is refused as the scalar check would."""
    t = np.asarray(t, dtype=float)
    if shape is not None:
        t = np.broadcast_to(t, shape)
    ok = (t > 0.0 if positive else t >= 0.0) & (t < math.inf)
    if not ok.all():
        (check_positive if positive else check_nonnegative)("time", t[~ok].flat[0])
    return t


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
