"""State spaces and the measurable sets used to address them.

Three state spaces are supported: the real line, the strictly positive half
line, and finite sets of labelled states.  Probabilities are always requested
for a *target*: an :class:`Interval` on a continuous space, or a
:class:`Subset` of state indices on a finite space.  Each space answers for
its own kind: its whole-space target (``whole``), the targets it takes
(``check_target``), the state and target a config value names (``state``,
``target``) and the numeric labels of an array of states (``labels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, UnsupportedTarget


def _finite(v):
    # a finite real number; anything else (None, a string, a list, an array)
    # is none, and NaN and inf are refused before int() would raise on them
    return isinstance(v, (int, float, np.integer, np.floating)) and math.isfinite(v)


def _index(v):
    # a number naming a state index
    return _finite(v) and v == int(v)


def check_state(space, x, error=DomainError):
    """x, refused with ``error`` unless it names a state of the space: a
    DomainError for a library argument, a ConfigError where ``state`` checks
    a config value."""
    if not space.contains(x):
        raise error(f"state {x} is not in {space!r}")
    return x


class _Continuous:
    """The real line and the half line: float states, Interval targets from ``lower`` up."""

    def whole(self):
        return Interval(self.lower, math.inf)

    def check_target(self, target):
        if not isinstance(target, Interval):
            raise UnsupportedTarget(
                f"continuous state space takes Interval targets, got {type(target).__name__}"
            )

    def state(self, x):
        return check_state(self, float(x), ConfigError)

    def target(self, raw):
        if len(raw) != 2:
            raise ConfigError(f"interval target needs [lower, upper], got {raw}")
        return Interval(*raw)

    def labels(self, states):
        return states


@dataclass(frozen=True)
class RealLine(_Continuous):
    """The real line."""

    lower = -math.inf

    def contains(self, x):
        return _finite(x)


@dataclass(frozen=True)
class HalfLinePositive(_Continuous):
    """The open half line (0, inf)."""

    lower = 0.0

    def contains(self, x):
        return _finite(x) and x > 0.0


@dataclass(frozen=True)
class FiniteSet:
    """A finite state set with distinct real-valued labels.

    States are addressed by index; ``values[i]`` is the numeric label of
    state ``i`` (used when taking moments of a finite-state process).
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise DomainError("a finite state set needs at least one state")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("state labels must be finite")
        if len(set(vals)) != len(vals):
            raise DomainError("state labels must be distinct")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    def contains(self, x):
        """Whether x names one of the n states: an integral number in range, 1.0 and True naming 1."""
        return _index(x) and 0 <= x < self.n

    def index(self, x):
        """State x as an int index, refused unless it names one of the n states."""
        return int(check_state(self, x))

    def whole(self):
        return Subset(range(self.n))

    def check_target(self, target):
        if not isinstance(target, Subset):
            raise UnsupportedTarget(
                f"finite state space takes Subset targets, got {type(target).__name__}"
            )
        bad = [i for i in target.indices if i < 0 or i >= self.n]
        if bad:
            raise DomainError(f"state indices {sorted(bad)} out of range for n={self.n}")

    def state(self, x):
        if not _index(x):
            raise ConfigError(f"finite-space states are integer indices, got {x}")
        return check_state(self, int(x), ConfigError)

    def target(self, raw):
        # indices only: check_target, on use, checks their range
        if not all(map(_index, raw)):
            raise ConfigError(f"finite-space targets are integer index lists, got {raw}")
        return Subset(int(v) for v in raw)

    def labels(self, states):
        return np.asarray(self.values)[np.asarray(states, dtype=int)]


@dataclass(frozen=True)
class Interval:
    """A closed interval [lower, upper]; either side may be infinite."""

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("interval bounds must not be NaN")
        if lo > hi:
            raise DomainError(f"empty interval: lower={lo} > upper={hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __str__(self):
        # comma-free, as is Subset's, so the descriptor stays one CSV cell
        return f"[{self.lower} .. {self.upper}]"

    def contains(self, x):
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class Subset:
    """A subset of a finite state set, given by state indices."""

    indices: frozenset

    def __init__(self, indices):
        object.__setattr__(self, "indices", frozenset(int(i) for i in indices))

    def __str__(self):
        return "{" + " ".join(str(i) for i in sorted(self.indices)) + "}"

    def contains(self, x):
        return int(x) in self.indices


def indicator(target, x):
    """1.0 if x lies in the target, else 0.0."""
    return 1.0 if target.contains(x) else 0.0
