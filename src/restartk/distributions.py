"""Restart and initial distributions.

A distribution must be able to sample exactly and to integrate functions
against itself; closed-form moments are provided where the law admits them.
On finite state spaces, states are indices and a distribution is a weight
vector; on continuous spaces it is a point mass, a finite mixture of point
masses, or an absolutely continuous law given by a density and an exact
sampler.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

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


def _nu_moment(nu, j, rel_tol=1e-10):
    """The j-th raw moment of nu: closed form where the law has one, else quadrature."""
    m = nu.moment(j)
    if m is not None:
        return m
    return nu.expect(lambda y: float(y) ** j, rel_tol=rel_tol)


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
        object.__setattr__(self, "_cdf_list", cdf.tolist())
        object.__setattr__(self, "atoms", tuple(s for s, _ in pts))
        object.__setattr__(self, "_states", np.asarray(self.atoms))

    def sample(self, rng, size=None):
        if size is None:
            return self.atoms[bisect_right(self._cdf_list, rng.random())]
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

    Parameters
    ----------
    pdf : callable
        Density, evaluated pointwise.
    sampler : callable
        (rng, size=None) -> one exact draw, or an array of ``size`` draws.
    support : (float, float)
        Interval outside which the density vanishes.
    moment_fn : callable or None
        k -> k-th raw moment in closed form, when known.  Without it
        ``moment`` returns None and downstream formulas fall back to
        quadrature against the density.
    """

    def __init__(self, pdf, sampler, support, moment_fn=None, name=None):
        self.pdf = pdf
        self._sampler = sampler
        self.support = (float(support[0]), float(support[1]))
        self._moment_fn = moment_fn
        self.name = name or "density"

    def __repr__(self):
        return f"DensityDistribution({self.name})"

    def sample(self, rng, size=None):
        return self._sampler(rng) if size is None else self._sampler(rng, size)

    def expect(self, f, rel_tol=1e-10):
        a, b = self.support
        return _quad(lambda y: f(y) * self.pdf(y), a, b, epsabs=1e-12, epsrel=rel_tol)

    def moment(self, k):
        if self._moment_fn is None:
            return None
        return self._moment_fn(check_count("moment order k", k, least=0))

    def supported_in(self, space):
        whole = space.whole()
        return isinstance(whole, Interval) and whole.lower <= self.support[0]


def _quad(f, a, b, epsabs, epsrel):
    # imported here, not at the top: scipy.integrate brings scipy.optimize and
    # scipy.sparse.linalg with it (~0.2 s), and only density laws integrate
    from scipy.integrate import quad

    return quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)[0]


# pdf/sampler/moment helpers live at module level (not closures) so the
# distributions they build stay picklable for multi-process simulation


def _gauss_pdf(y, mean, std):
    z = (y - mean) / std
    return math.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))


def _gauss_sample(rng, size=None, *, mean, std):
    return mean + std * rng.standard_normal(size)


def gaussian(mean, std):
    """Normal law with the given mean and standard deviation."""
    mean, std = check_finite("gaussian mean", mean), check_positive("gaussian std", std)
    return DensityDistribution(
        partial(_gauss_pdf, mean=mean, std=std),
        partial(_gauss_sample, mean=mean, std=std),
        (-math.inf, math.inf),
        moment_fn=partial(gaussian_raw_moment, mean=mean, std=std),
        name=f"gaussian(mean={mean}, std={std})",
    )


def _exp_pdf(y, rate):
    return rate * math.exp(-rate * y) if y >= 0.0 else 0.0


def _exp_sample(rng, size=None, *, rate):
    return rng.exponential(1.0 / rate, size)


def _exp_moment(k, rate):
    return math.factorial(k) / rate**k


def exponential(rate):
    """Exponential law on (0, inf) with the given rate."""
    rate = check_positive("exponential rate", rate)
    return DensityDistribution(
        partial(_exp_pdf, rate=rate),
        partial(_exp_sample, rate=rate),
        (0.0, math.inf),
        moment_fn=partial(_exp_moment, rate=rate),
        name=f"exponential(rate={rate})",
    )


def _lognorm_pdf(y, m, s):
    if y <= 0.0:
        return 0.0
    z = (math.log(y) - m) / s
    return math.exp(-0.5 * z * z) / (y * s * math.sqrt(2.0 * math.pi))


def _lognorm_sample(rng, size=None, *, m, s):
    if size is None:
        return math.exp(m + s * rng.standard_normal())
    return np.exp(m + s * rng.standard_normal(size))


def _lognorm_moment(k, m, s):
    return math.exp(k * m + 0.5 * k * k * s * s)


def lognormal(log_mean, log_std):
    """Law of exp(N(log_mean, log_std^2)) on (0, inf)."""
    m, s = check_finite("lognormal log_mean", log_mean), check_positive("lognormal log_std", log_std)
    return DensityDistribution(
        partial(_lognorm_pdf, m=m, s=s),
        partial(_lognorm_sample, m=m, s=s),
        (0.0, math.inf),
        moment_fn=partial(_lognorm_moment, m=m, s=s),
        name=f"lognormal(log_mean={m}, log_std={s})",
    )


def nu_weights(nu, space):
    """Weight vector of a restart distribution on a finite space."""
    if not isinstance(space, FiniteSet):
        raise DomainError("weight vectors only exist on finite state spaces")
    if not hasattr(nu, "weights"):
        raise DomainError(f"{type(nu).__name__} cannot be represented on a finite space")
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
