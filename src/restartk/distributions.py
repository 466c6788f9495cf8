"""Restart and initial distributions.

A distribution samples exactly, integrates functions against itself, lists
the states it puts mass on (``atoms``) and states its raw moments in closed
form.  On finite state spaces, states are indices and a distribution is a
weight vector; on continuous spaces it is a point mass, a finite mixture of
point masses, or one of three density laws (Gaussian, exponential,
log-normal), each a frozen dataclass of its parameters on the
:class:`DensityDistribution` base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count, check_finite, check_positive
from .spaces import FiniteSet, Interval


def gaussian_raw_moment(k, mean, std):
    """E[(mean + std*Z)^k] for standard normal Z, by the binomial expansion.

    Odd central moments vanish; even ones are std^j * (j-1)!!.
    """
    k = check_count("moment order k", k, least=0)
    total = 0.0
    for j in range(0, k + 1, 2):
        total += math.comb(k, j) * mean ** (k - j) * std**j * _double_factorial_odd(j - 1)
    return total


def _double_factorial_odd(m):
    # (-1)!! = 1 by convention
    out = 1.0
    while m > 1:
        out *= m
        m -= 2
    return out


def categorical_cdf(probs):
    """Distribution function of a weight vector, built as Generator.choice builds it.

    ``int(cdf.searchsorted(rng.random(), side="right"))`` then draws the same
    index from the same single uniform as ``rng.choice(len(probs), p=probs)``,
    without re-checking the weights on every draw; so does ``bisect_right``
    over ``cdf.tolist()``, which takes a tenth of the time for one draw.
    """
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class PointMass:
    """All mass at a single state.

    On a finite space the state is an index; on a continuous space a float.
    """

    x: object

    @property
    def atoms(self):
        """The states the law puts mass on."""
        return (self.x,)

    def sample(self, rng, size=None):
        return self.x if size is None else np.full(size, self.x)

    def expect(self, f, rel_tol=None):
        return f(self.x)

    def moment(self, k):
        return float(self.x) ** k

    def supported_in(self, space):
        return space.contains(self.x)

    def weights(self, space):
        w = np.zeros(space.n)
        w[int(self.x)] = 1.0
        return w


@dataclass(frozen=True)
class FiniteSupport:
    """A finite mixture of point masses: ((state, weight), ...)."""

    points: tuple

    def __post_init__(self):
        pts = tuple((s, float(w)) for s, w in self.points)
        if not pts:
            raise DomainError("finite-support distribution needs at least one atom")
        wsum = 0.0
        for s, w in pts:
            if w < 0.0 or not math.isfinite(w):
                raise DomainError(f"weight {w} at state {s} is not a finite nonnegative number")
            wsum += w
        if abs(wsum - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {wsum!r}, expected 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        cdf = categorical_cdf([w for _, w in pts])
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "atoms", tuple(s for s, _ in pts))
        object.__setattr__(self, "_states", np.asarray(self.atoms))

    def sample(self, rng, size=None):
        if size is None:
            return self.atoms[int(self._cdf.searchsorted(rng.random(), side="right"))]
        return self._states[self._cdf.searchsorted(rng.random(size), side="right")]

    def expect(self, f, rel_tol=None):
        return sum(w * f(s) for s, w in self.points)

    def moment(self, k):
        return sum(w * float(s) ** k for s, w in self.points)

    def supported_in(self, space):
        return all(space.contains(s) for s, _ in self.points)

    def weights(self, space):
        w = np.zeros(space.n)
        for s, p in self.points:
            w[int(s)] += p
        return w


class DensityDistribution:
    """An absolutely continuous law on a continuous space.

    The base of the three density laws, each a frozen dataclass of its
    parameters with its own ``pdf``, exact ``sample``, closed-form ``moment``
    and class-level ``support``, the interval outside which the density
    vanishes.  The base integrates against the density and checks the
    support.
    """

    atoms = ()

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"DensityDistribution({self.name}({args}))"

    def expect(self, f, rel_tol=1e-10):
        # imported here, not at the top: scipy.integrate brings scipy.optimize and
        # scipy.sparse.linalg with it (~0.2 s), and only density laws integrate
        from scipy.integrate import quad

        a, b = self.support
        return quad(lambda y: f(y) * self.pdf(y), a, b, epsabs=1e-12, epsrel=rel_tol, limit=200)[0]

    def supported_in(self, space):
        whole = space.whole()
        return isinstance(whole, Interval) and whole.lower <= self.support[0]


@dataclass(frozen=True, repr=False)
class _Gaussian(DensityDistribution):
    mean: float
    std: float
    name = "gaussian"
    support = (-math.inf, math.inf)

    def pdf(self, y):
        z = (y - self.mean) / self.std
        return math.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def sample(self, rng, size=None):
        return self.mean + self.std * rng.standard_normal(size)

    def moment(self, k):
        return gaussian_raw_moment(k, self.mean, self.std)


def gaussian(mean, std):
    """Normal law with the given mean and standard deviation."""
    return _Gaussian(check_finite("gaussian mean", mean), check_positive("gaussian std", std))


@dataclass(frozen=True, repr=False)
class _Exponential(DensityDistribution):
    rate: float
    name = "exponential"
    support = (0.0, math.inf)

    def pdf(self, y):
        return self.rate * math.exp(-self.rate * y) if y >= 0.0 else 0.0

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def moment(self, k):
        k = check_count("moment order k", k, least=0)
        return math.factorial(k) / self.rate**k


def exponential(rate):
    """Exponential law on (0, inf) with the given rate."""
    return _Exponential(check_positive("exponential rate", rate))


@dataclass(frozen=True, repr=False)
class _Lognormal(DensityDistribution):
    log_mean: float
    log_std: float
    name = "lognormal"
    support = (0.0, math.inf)

    def pdf(self, y):
        if y <= 0.0:
            return 0.0
        z = (math.log(y) - self.log_mean) / self.log_std
        return math.exp(-0.5 * z * z) / (y * self.log_std * math.sqrt(2.0 * math.pi))

    def sample(self, rng, size=None):
        if size is None:
            return math.exp(self.log_mean + self.log_std * rng.standard_normal())
        return np.exp(self.log_mean + self.log_std * rng.standard_normal(size))

    def moment(self, k):
        k = check_count("moment order k", k, least=0)
        return math.exp(k * self.log_mean + 0.5 * k * k * self.log_std * self.log_std)


def lognormal(log_mean, log_std):
    """Law of exp(N(log_mean, log_std^2)) on (0, inf)."""
    return _Lognormal(check_finite("lognormal log_mean", log_mean), check_positive("lognormal log_std", log_std))


def nu_weights(nu, space):
    """Weight vector of a restart distribution on a finite space, whose states it must name."""
    if not isinstance(space, FiniteSet):
        raise DomainError("weight vectors only exist on finite state spaces")
    if not nu.supported_in(space):
        raise DomainError(f"{nu!r} is not supported in {space!r}")
    return nu.weights(space)


__all__ = [
    "PointMass",
    "FiniteSupport",
    "DensityDistribution",
    "gaussian",
    "exponential",
    "lognormal",
    "gaussian_raw_moment",
    "nu_weights",
]
