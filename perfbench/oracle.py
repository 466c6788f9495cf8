"""Independent reference values for the restartk outputs the benchmark checks.

Nothing here imports restartk.  Each quantity is derived by a different
route from the library's:

- diffusions are handled in the coordinate where they are Brownian: drifted
  BM as is, GBM through y = log x with drift mu - sigma^2/2;
- the stationary law of BM restarted from a point is the asymmetric Laplace
  law of Evans & Majumdar (PRL 106:160601, 2011): density
  lam/alpha * exp((mu d - alpha |d|)/sigma^2) at offset d, alpha =
  sqrt(mu^2 + 2 lam sigma^2); masses, densities, moments and the GBM
  moment-generating function follow in closed form;
- a restarted finite chain is the chain with generator
  G = Q + lam (1 nu^T - I), so its kernel is expm(G t) and its invariant row
  the limit of expm(G T);
- finite-time kernels and density-nu stationary values are the nu-convolved
  Gaussian (or exponentially modified Gaussian) law integrated once over the
  restart age with scipy.integrate.quad, in the variable log s.

A continuous process is described by ``Diffusion`` in its Brownian
coordinate, and nu by ``Nu`` in the same coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.linalg import expm, null_space
from scipy.special import log_ndtr, ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)
AGE_SPLIT = 8.0
MIN_AGE = 1e-30


@dataclass(frozen=True)
class Diffusion:
    """Brownian motion with drift ``mu`` and volatility ``sigma``.

    ``log_space`` marks a GBM described through y = log x; states and
    interval ends are then mapped by log, densities pick up the 1/x
    Jacobian.
    """

    mu: float
    sigma: float
    log_space: bool = False

    @classmethod
    def from_spec(cls, spec):
        if spec["type"] == "bm":
            return cls(spec["mu"], spec["sigma"])
        return cls(spec["mu"] - 0.5 * spec["sigma"] ** 2, spec["sigma"], log_space=True)

    def coord(self, x):
        if not self.log_space:
            return float(x)
        return math.log(x) if x > 0 else -math.inf


@dataclass(frozen=True)
class Nu:
    """Restart law in the Brownian coordinate.

    kind is 'atoms' (``atoms`` = ((y, w), ...)), 'gaussian' (mean, std) or
    'exponential' (rate).
    """

    kind: str
    atoms: tuple = ()
    mean: float = 0.0
    std: float = 0.0
    rate: float = 0.0

    @classmethod
    def from_spec(cls, spec, diffusion):
        kind = spec["type"]
        if kind == "point":
            return cls("atoms", atoms=((diffusion.coord(spec["x"]), 1.0),))
        if kind == "finite":
            return cls("atoms", atoms=tuple((diffusion.coord(s), float(w)) for s, w in spec["points"]))
        if kind == "gaussian":
            return cls("gaussian", mean=spec["mean"], std=spec["std"])
        if kind == "lognormal":
            return cls("gaussian", mean=spec["log_mean"], std=spec["log_std"])
        return cls("exponential", rate=spec["rate"])

    def raw_moment(self, n):
        """E[Y^n] in the Brownian coordinate."""
        if self.kind == "atoms":
            return sum(w * y**n for y, w in self.atoms)
        if self.kind == "exponential":
            return math.factorial(n) / self.rate**n
        return gaussian_power_moment(n, self.mean, self.std)

    def mgf(self, k):
        """E[exp(k Y)]."""
        if self.kind == "atoms":
            return sum(w * math.exp(k * y) for y, w in self.atoms)
        if self.kind == "gaussian":
            return math.exp(k * self.mean + 0.5 * k * k * self.std**2)
        raise ValueError("exponential restart laws are only used on the real line")


# -- base law convolved with nu --------------------------------------------


def _gauss_cdf_between(a, b, m, sd):
    # the tail each end lies in decides which differences stay accurate
    if a > m:
        return float(ndtr((m - a) / sd) - ndtr((m - b) / sd))
    return float(ndtr((b - m) / sd) - ndtr((a - m) / sd))


def _emg_cdf(x, m, sd, rate):
    """CDF of m + sd Z + E, E ~ Exp(rate): the exponentially modified Gaussian."""
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    u = (x - m) / sd
    log_tail = -rate * (x - m) + 0.5 * (rate * sd) ** 2 + float(log_ndtr(u - rate * sd))
    return float(ndtr(u)) - math.exp(log_tail)


def _emg_pdf(x, m, sd, rate):
    u = (x - m) / sd
    return rate * math.exp(-rate * (x - m) + 0.5 * (rate * sd) ** 2 + float(log_ndtr(u - rate * sd)))


def base_prob(d, s, y, a, b):
    """P(Brownian coordinate at age s from y lies in [a, b])."""
    if s == 0.0:
        return 1.0 if a <= y <= b else 0.0
    return _gauss_cdf_between(a, b, y + d.mu * s, d.sigma * math.sqrt(s))


def base_density(d, s, y, z):
    sd = d.sigma * math.sqrt(s)
    u = (z - y - d.mu * s) / sd
    return math.exp(-0.5 * u * u) / (sd * _SQRT_2PI)


def nu_prob(d, nu, s, a, b):
    """P(Y + base displacement over age s lies in [a, b]), Y ~ nu."""
    if nu.kind == "atoms":
        return sum(w * base_prob(d, s, y, a, b) for y, w in nu.atoms)
    if nu.kind == "gaussian":
        return _gauss_cdf_between(a, b, nu.mean + d.mu * s, math.hypot(nu.std, d.sigma * math.sqrt(s)))
    sd = d.sigma * math.sqrt(s)
    if s == 0.0:
        return math.exp(-nu.rate * max(a, 0.0)) - math.exp(-nu.rate * max(b, 0.0))
    return _emg_cdf(b, d.mu * s, sd, nu.rate) - _emg_cdf(a, d.mu * s, sd, nu.rate)


def nu_density(d, nu, s, z):
    if nu.kind == "atoms":
        return sum(w * base_density(d, s, y, z) for y, w in nu.atoms)
    if nu.kind == "gaussian":
        sd = math.hypot(nu.std, d.sigma * math.sqrt(s))
        u = (z - nu.mean - d.mu * s) / sd
        return math.exp(-0.5 * u * u) / (sd * _SQRT_2PI)
    return _emg_pdf(z, d.mu * s, d.sigma * math.sqrt(s), nu.rate)


def age_integral(f, lam, upper):
    """int_0^upper lam exp(-lam s) f(s) ds.

    Up to lam*s = AGE_SPLIT the integral is taken in v = log s, where the
    base law's transitions at s ~ (distance/sigma)^2 are smooth bumps of
    width ~1 at any distance; v starts at log(MIN_AGE), below which even a
    1/sqrt(s) density leaves under 1e-14.  Past the split it is taken in s.
    """
    split = min(AGE_SPLIT / lam, upper)
    lo, hi = math.log(MIN_AGE), math.log(split)
    head, _ = integrate.quad(
        lambda v: lam * math.exp(v - lam * math.exp(v)) * f(math.exp(v)),
        lo,
        hi,
        points=[v for v in range(math.ceil(lo), math.floor(hi) + 1, 4) if lo < v < hi],
        epsabs=1e-15,
        epsrel=1e-12,
        limit=1000,
    )
    if split >= upper:
        return head
    tail, _ = integrate.quad(
        lambda s: lam * math.exp(-lam * s) * f(s), split, upper, epsabs=1e-16, epsrel=1e-12, limit=500
    )
    return head + tail


# -- restarted diffusion -----------------------------------------------------


def kernel_prob(d, nu, lam, t, x, lower, upper):
    """P~(t, x, [lower, upper]) of the restarted process."""
    a, b = d.coord(lower), d.coord(upper)
    y = d.coord(x)
    return math.exp(-lam * t) * base_prob(d, t, y, a, b) + age_integral(
        lambda s: nu_prob(d, nu, s, a, b), lam, t
    )


def kernel_density(d, nu, lam, t, x, z):
    """Density of P~(t, x, .) at z, in the process's own coordinate."""
    y, zc = d.coord(x), d.coord(z)
    val = math.exp(-lam * t) * base_density(d, t, y, zc) + age_integral(
        lambda s: nu_density(d, nu, s, zc), lam, t
    )
    return val / z if d.log_space else val


@dataclass(frozen=True)
class Laplace:
    """Law of the displacement from the restart point in the stationary state.

    An asymmetric Laplace law: mass p_up on an Exp(beta_up) jump to the right,
    p_down on an Exp(beta_down) jump to the left.
    """

    p_up: float
    beta_up: float
    p_down: float
    beta_down: float

    @classmethod
    def of(cls, d, lam):
        s2 = d.sigma**2
        alpha = math.sqrt(d.mu**2 + 2.0 * lam * s2)
        # (alpha - mu)(alpha + mu) = 2 lam s2: take the smaller factor from the
        # larger so small rates lose no digits to cancellation
        big = alpha + abs(d.mu)
        small = 2.0 * lam * s2 / big
        minus, plus = (small, big) if d.mu >= 0 else (big, small)
        return cls(lam * s2 / (alpha * minus), minus / s2, lam * s2 / (alpha * plus), plus / s2)

    def mass(self, a, b):
        """P(a <= D <= b)."""
        up = self.p_up * (math.exp(-self.beta_up * max(a, 0.0)) - math.exp(-self.beta_up * max(b, 0.0)))
        down = self.p_down * (
            math.exp(self.beta_down * min(b, 0.0)) - math.exp(self.beta_down * min(a, 0.0))
        )
        return up + down

    def density(self, d):
        if d >= 0.0:
            return self.p_up * self.beta_up * math.exp(-self.beta_up * d)
        return self.p_down * self.beta_down * math.exp(self.beta_down * d)

    def raw_moment(self, j):
        """E[D^j] and the sum of the absolute terms behind it."""
        up = self.p_up * math.factorial(j) / self.beta_up**j
        down = self.p_down * math.factorial(j) / self.beta_down**j
        return up + (-1) ** j * down, up + down

    def mgf(self, k):
        """E[exp(k D)], or None where it is infinite (k >= beta_up)."""
        if k >= self.beta_up:
            return None
        return self.p_up * self.beta_up / (self.beta_up - k) + self.p_down * self.beta_down / (
            self.beta_down + k
        )


def stationary_prob(d, nu, lam, lower, upper):
    a, b = d.coord(lower), d.coord(upper)
    if nu.kind == "atoms":
        lap = Laplace.of(d, lam)
        return sum(w * lap.mass(a - y, b - y) for y, w in nu.atoms)
    return age_integral(lambda s: nu_prob(d, nu, s, a, b), lam, math.inf)


def stationary_density(d, nu, lam, z):
    zc = d.coord(z)
    if nu.kind == "atoms":
        lap = Laplace.of(d, lam)
        val = sum(w * lap.density(zc - y) for y, w in nu.atoms)
    else:
        val = age_integral(lambda s: nu_density(d, nu, s, zc), lam, math.inf)
    return val / z if d.log_space else val


def stationary_moment(d, nu, lam, k):
    """E[X^k] under the invariant law: (value, scale), or (None, None) if infinite.

    scale is the sum of absolute terms, for a rounding allowance.
    """
    lap = Laplace.of(d, lam)
    if d.log_space:
        m = lap.mgf(k)
        if m is None:
            return None, None
        v = nu.mgf(k) * m
        return v, abs(v)
    total = scale = 0.0
    for j in range(k + 1):
        dj, dj_scale = lap.raw_moment(j)
        yj = nu.raw_moment(k - j)
        term = math.comb(k, j) * yj
        total += term * dj
        scale += abs(term) * dj_scale
    return total, scale


def gbm_growth_rate(spec, k):
    """eta_k of GBM from its own parameters: E[X(t)^k] = x^k exp(eta_k t)."""
    mu, sigma = spec["mu"], spec["sigma"]
    return k * (mu - 0.5 * sigma**2) + 0.5 * k * k * sigma**2


def gaussian_power_moment(k, m, sd):
    """E[(m + sd Z)^k] by the recursion M_k = m M_{k-1} + (k-1) sd^2 M_{k-2}."""
    prev, cur = 0.0, 1.0
    for j in range(1, k + 1):
        prev, cur = cur, m * cur + (j - 1) * sd**2 * prev
    return cur


def time_moment(d, nu, lam, t, x, k):
    """E_x[X(t)^k] of the restarted diffusion, integrated over the restart age."""
    if d.log_space:
        # X = exp(Y): E[exp(kY)] with Y Gaussian at each age
        def at(s, y_mgf):
            return y_mgf * math.exp(k * d.mu * s + 0.5 * (k * d.sigma) ** 2 * s)

        y0 = d.coord(x)
        return math.exp(-lam * t) * at(t, math.exp(k * y0)) + age_integral(
            lambda s: at(s, nu.mgf(k)), lam, t
        )

    def nu_avg(s):
        # E[(Y + mu s + sigma sqrt(s) Z)^k] by expanding in powers of Y
        return sum(
            math.comb(k, j) * nu.raw_moment(k - j) * gaussian_power_moment(j, d.mu * s, d.sigma * math.sqrt(s))
            for j in range(k + 1)
        )

    return math.exp(-lam * t) * gaussian_power_moment(k, float(x) + d.mu * t, d.sigma * math.sqrt(t)) + age_integral(
        nu_avg, lam, t
    )


# -- restarted finite chain --------------------------------------------------


@dataclass
class Chain:
    """A restarted finite chain through its restarted generator."""

    Q: np.ndarray
    values: np.ndarray
    w: np.ndarray
    lam: float

    @classmethod
    def from_config(cls, config):
        spec = config["process"]
        Q = np.asarray(spec["Q"], dtype=float)
        n = Q.shape[0]
        values = np.asarray(spec.get("values", range(n)), dtype=float)
        nu = config["restart"]["nu"]
        w = np.zeros(n)
        if nu["type"] == "point":
            w[int(nu["x"])] = 1.0
        else:
            for s, p in nu["points"]:
                w[int(s)] += p
        return cls(Q, values, w, float(config["restart"]["rate"]))

    def generator(self, lam=None):
        lam = self.lam if lam is None else lam
        n = len(self.w)
        return self.Q + lam * (np.outer(np.ones(n), self.w) - np.eye(n))

    def kernel(self, t):
        return expm(self.generator() * t)

    def invariant(self, lam=None):
        """Invariant row: a row of expm(G T), T far past the e^{-lam T} mixing bound."""
        lam = self.lam if lam is None else lam
        return expm(self.generator(lam) * (60.0 / lam))[0]

    def chain_stationary(self):
        v = null_space(self.Q.T)[:, 0]
        return v / v.sum()
