"""Concrete Markov kernels with closed-form transition laws.

Drifted Brownian motion on the line, geometric Brownian motion on the
positive half line, and finite-state chains in continuous time given by a
generator matrix.  All three expose exact densities/matrices, exact samplers
(one path, or a whole array of paths with their own times) and closed-form
moments, each at a whole array of times in one call (the form the quadrature
integrates; at one time, its one-element case), so they serve both as base
processes for restarting and as the analytic reference in tests.  All three
also answer the moments (``restarted_moment``) and the restart-age integrals
of their transition law exactly.  The moments integrate the base moments
over the restart age in closed form.  The diffusions' restart-age law is the
asymmetric Laplace law at t = inf and, at finite t, that law less its
normal-Laplace convolution (the resolvent identity), or the first-passage
form where that difference cancels (``_RestartAgeLaw``); GBM reads it in log
space.  The chain's is one linear solve against lam*I - Q per rate, which
with the memoised exp(Q*t) also gives the restarted chain's transition
matrix at any finite t, and its restart-age masses wherever that difference
keeps its digits; the short horizons where it would cancel take quadrature.
The chain computes exp(Q*t) itself, for a whole array of times in one numpy
pass of a scaled-and-squared Pade approximant, so no chain route loads
scipy.  scipy's ``erfcx``, ``gammainc`` and ``ndtr`` start as stand-ins that
import the real function on their first call and rebind the module name to
it, so importing this module loads no scipy.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .distributions import _double_factorial_odd, categorical_cdf, gaussian_raw_moment, nu_weights
from .errors import (DomainError, check_count, check_finite, check_horizon, check_nonnegative, check_one_dimensional,
                     check_positive, check_times)
from .kernels import Divergent, MarkovKernel, RestartedProcess, _at_one_time, _density_pairs, _horizons, _weight_vector
from .quadrature import DEFAULT_REL_TOL
from .spaces import FiniteSet, HalfLinePositive, Interval, RealLine, indicator

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_INF = math.inf
# per chain, at most this many matrices in its memo: exp(Q*t) by t and by a
# whole array of times together, and resolvents lam*(lam*I - Q)^(-1) by lam:
# quadrature revisits the same nodes, the targets of one rate and atom walk
# the same rounds of them, and every restart law at one rate reads one resolvent
_MEMO_SIZE = 1024
# the degree-13 Pade approximant to exp(A) (Higham, SIAM J. Matrix Anal. Appl.
# 26:1179, 2005): its coefficients b_0..b_13 over b_0, so that at A = 0 the
# pass solves I against I, which gives I exactly; and theta_13, the largest
# ||A||_1 at which it is exact to double precision
_PADE_13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
_THETA_13 = 5.371920351148152
_FIRST_OF_14 = np.arange(14) == 0
# how far a row of a computed exp(Q*t) may sum from 1, per state, before its
# squarings: each squaring at most doubles it, and the worst seen over random
# generators of 2-12 states and ||Q||*t up to 1e14 was 2.4 * n * eps
_ROW_SUM_SLACK = 64.0 * 2.0**-52


def _on_first_call(module, name):
    """A stand-in for scipy's module.name: its first call imports the real
    function and rebinds this module's global of that name to it, so every
    later call goes to scipy directly."""

    def first_call(*args, **kwargs):
        real = getattr(importlib.import_module(module), name)
        globals()[name] = real
        return real(*args, **kwargs)

    return first_call


erfcx = _on_first_call("scipy.special", "erfcx")
gammainc = _on_first_call("scipy.special", "gammainc")
ndtr = _on_first_call("scipy.special", "ndtr")


def _weight_poly(m, lam, t):
    """int_0^t lam*exp(-lam*s)*s^m ds in closed form; t may be inf."""
    if math.isinf(t):
        return math.factorial(m) / lam**m
    return math.factorial(m) / lam**m * float(gammainc(m + 1, lam * t))


def _side_mass(p, rate, near, far):
    # p * (exp(-rate*near) - exp(-rate*far)) for 0 <= near <= far <= inf
    if near >= far:
        return 0.0
    return -p * math.exp(-rate * near) * math.expm1(-rate * (far - near))


def _ndtr(x):
    # Phi at one float, without the cost of a ufunc call
    return 0.5 * math.erfc(-x / _SQRT2)


def _excursion(z, kappa):
    """phi(z) * R(kappa - z), R(w) = (1 - Phi(w))/phi(w) the Mills ratio.

    That is exp(-z^2/2) * erfcx(w/sqrt(2)) / 2 at w = kappa - z >= 0; below
    0, where erfcx overflows, it is Phi(-w) * exp((w^2 - z^2)/2), the
    exponent written as kappa*(kappa/2 - z) so that it does not cancel.
    """
    w = kappa - z
    if w >= 0.0:
        return 0.5 * math.exp(-0.5 * z * z) * float(erfcx(w / _SQRT2))
    return _ndtr(-w) * math.exp(kappa * (0.5 * kappa - z))


def _erfc_times(v, factor, gauss):
    """erfc(v) * factor, where factor = gauss * exp(v^2) is also given as computed
    without cancellation: through erfcx(v) * gauss where erfc(v) underflows
    (v >= 0), directly where erfcx(v) overflows."""
    return float(erfcx(v)) * gauss if v >= 0.0 else math.erfc(v) * factor


class _RestartAgeLaw:
    """lam * int_0^t exp(-lam*s) P(s, y, .) ds in closed form, for Brownian
    motion with drift mu and volatility sigma, at any horizon t <= inf.

    At t = inf it is the asymmetric Laplace law (Evans & Majumdar, PRL
    106:160601, 2011): density lam/alpha * exp((mu*c - alpha*|c|)/sigma^2)
    at c = z - y, with alpha = sqrt(mu^2 + 2*lam*sigma^2).  The side above
    y holds mass (alpha + mu)/(2*alpha) and decays at rate
    (alpha - mu)/sigma^2, the side below the mirror image.  Each side's
    mass is taken from its own tail, so no mass is a difference of two
    numbers near 1, and alpha - |mu| is written as
    2*lam*sigma^2/(alpha + |mu|), which does not cancel at small lam.

    At finite t the resolvent identity

        lam int_0^t exp(-lam*s) P_s ds = lam R_lam - exp(-lam*t) P_t (lam R_lam)

    subtracts from the Laplace law the same law moved by N(mu*t, sigma^2*t):
    the normal-Laplace law (Reed & Jorgensen, Commun. Stat. Theory Methods
    33:1733, 2004), whose tails take phi(z)*R(w) from ``_excursion``.  Where
    the subtracted term exceeds half the Laplace term (small t, far from y)
    the difference cancels, and the first-passage form (Borodin & Salminen,
    Handbook of Brownian Motion, 2002) integrates the Gaussian kernel over
    s instead:

        int_0^t s^(-1/2) exp(-a^2/s - b^2*s) ds
            = sqrt(pi)/(2b) [exp(-2ab) erfc(a/sqrt(t) - b*sqrt(t))
                             - exp(2ab) erfc(a/sqrt(t) + b*sqrt(t))],

    with a = |c|/(sigma*sqrt(2)) and b = alpha/(sigma*sqrt(2)); each term
    is written with erfcx over the common Gaussian factor, so none
    overflows and all keep the value's own scale.
    """

    def __init__(self, mu, sigma, lam):
        s2 = sigma * sigma
        alpha = math.sqrt(mu * mu + 2.0 * lam * s2)
        wide = alpha + abs(mu)
        if not (0.0 < s2 and 0.0 < alpha and wide / s2 < math.inf):
            raise DomainError(f"restart rate {lam!r} with mu={mu!r}, sigma={sigma!r} takes the restart-age "
                              "law out of the float range; rescale the process")
        narrow = 2.0 * lam * s2 / wide
        a_minus_mu, a_plus_mu = (narrow, wide) if mu >= 0.0 else (wide, narrow)
        self.mu, self.sigma, self.lam, self.alpha = mu, sigma, lam, alpha
        # each side's mass and decay rate, above y and below it
        self.p_up, self.up = a_plus_mu / (2.0 * alpha), a_minus_mu / s2
        self.p_down, self.down = a_minus_mu / (2.0 * alpha), a_plus_mu / s2

    def mass(self, y, lower, upper, t):
        """Mass of [lower, upper] from the start y."""
        if t == 0.0:
            return 0.0
        q = 0.0
        if upper > y:
            q += _side_mass(self.p_up, self.up, max(lower, y) - y, upper - y)
        if lower < y:
            q += _side_mass(self.p_down, self.down, y - min(upper, y), y - lower)
        if math.isinf(t):
            return q
        moved = self._normal_laplace_mass(y + self.mu * t, self.sigma * math.sqrt(t), lower, upper)
        late = math.exp(-self.lam * t) * moved
        if late <= 0.5 * q:
            return q - late
        beyond_up = lambda d: self._beyond(d, self.mu, self.p_up, self.p_down, self.up, t)
        beyond_down = lambda d: self._beyond(d, -self.mu, self.p_down, self.p_up, self.down, t)
        if lower >= y:
            return beyond_up(lower - y) - beyond_up(upper - y)
        if upper <= y:
            return beyond_down(y - upper) - beyond_down(y - lower)
        return -math.expm1(-self.lam * t) - beyond_down(y - lower) - beyond_up(upper - y)

    def density(self, y, z, t):
        """Density at z from the start y."""
        if t == 0.0:
            return 0.0
        c = z - y
        laplace = math.exp(-(self.up if c >= 0.0 else self.down) * abs(c))
        q = self.lam / self.alpha * laplace
        if math.isinf(t):
            return q
        s = self.sigma * math.sqrt(t)
        u = (c - self.mu * t) / s
        late = math.exp(-self.lam * t) * self.lam / self.alpha * (
            _excursion(u, self.up * s) + _excursion(-u, self.down * s)
        )
        if late <= 0.5 * q:
            return q - late
        k = _SQRT2 * s
        gauss = math.exp(-0.5 * u * u - self.lam * t)
        near = _erfc_times((abs(c) - self.alpha * t) / k, laplace, gauss)
        far = float(erfcx((abs(c) + self.alpha * t) / k)) * gauss
        return self.lam / (2.0 * self.alpha) * (near - far)

    def _normal_laplace_mass(self, m, s, lower, upper):
        """Mass of [lower, upper] under N(m, s^2) plus the Laplace law's excursion,
        taken from the tail beyond the interval's nearer end."""
        lo_below, lo_above = self._normal_laplace_tails(m, s, lower)
        hi_below, hi_above = self._normal_laplace_tails(m, s, upper)
        if lo_above <= 0.5:
            return lo_above - hi_above
        if hi_below <= 0.5:
            return hi_below - lo_below
        return 1.0 - lo_below - hi_above

    def _normal_laplace_tails(self, m, s, x):
        # (mass below x, mass above x)
        if math.isinf(x):
            return (1.0, 0.0) if x > 0.0 else (0.0, 1.0)
        u = (x - m) / s
        excess = self.p_up * _excursion(u, self.up * s) - self.p_down * _excursion(-u, self.down * s)
        return _ndtr(u) - excess, _ndtr(-u) + excess

    def _beyond(self, d, drift, p_toward, p_away, rate, t):
        """lam * int_0^t exp(-lam*s) P(drift*s + sigma*W(s) >= d) ds for d >= 0, in
        the first-passage form; p_toward, p_away and rate are the Laplace
        law's side masses and its decay rate toward d."""
        if math.isinf(d):
            return 0.0
        k = self.sigma * math.sqrt(2.0 * t)
        u = (d - drift * t) / k
        gauss = math.exp(-u * u - self.lam * t)
        near = _erfc_times((d - self.alpha * t) / k, math.exp(-rate * d), gauss)
        far = float(erfcx((d + self.alpha * t) / k)) * gauss
        clock = _erfc_times(u, math.exp(-self.lam * t), gauss)
        return 0.5 * (p_toward * near + p_away * far - clock)


@dataclass(frozen=True)
class BrownianWithDrift(MarkovKernel):
    """X(t) = x + mu*t + sigma*W(t) on the real line."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_positive("sigma", self.sigma)
        check_finite("mu", self.mu)

    @property
    def space(self):
        return RealLine()

    def transition_density(self, t, x, z):
        return _at_one_time(self.transition_densities, t, x, z)

    def transition_probability(self, t, x, target):
        return _at_one_time(self.transition_probabilities, t, x, target)

    def _means(self, t, x):
        """x + mu*t at each time of the array t, refused where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = x + self.mu * t
        if not np.isfinite(m).all():
            raise DomainError(f"drift mu={self.mu!r} from x={x!r} takes the mean x + mu*t out of the float range "
                              f"by t = {float(t.max())!r}; rescale the process")
        return m

    def _out_of_range(self, t):
        return DomainError(f"mu={self.mu!r}, sigma={self.sigma!r} take a draw x + mu*t + sigma*W(t) out of the "
                           f"float range by t = {t!r}; rescale the process")

    def transition_densities(self, t, x, z):
        # one start x; z is a scalar or an array aligned with t
        t = check_times(t, positive=True)
        x = check_finite("state", x)
        self._means(t, x)
        sd = self.sigma * np.sqrt(t)
        u = (z - x - self.mu * t) / sd
        return np.exp(-0.5 * u * u) / (sd * _SQRT_2PI)

    def transition_probabilities(self, t, x, target):
        t = check_times(t)
        x = check_finite("state", x)
        m = self._means(t, x)
        sd = self.sigma * np.sqrt(t)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            p = ndtr((target.upper - m) / sd) - ndtr((target.lower - m) / sd)
        return np.where(t > 0.0, p, indicator(target, x))

    def stationary_probability(self, lam, y, target, t=math.inf, rel_tol=None):
        """The restart-age law's mass of the target, in closed form at any t,
        or at each horizon of a 1-D numpy array t: one law for all of them."""
        law = _RestartAgeLaw(self.mu, self.sigma, check_positive("restart rate", lam))
        y = check_finite("state", y)
        # isinstance, not np.ndim: every invariant mass of BM and GBM comes
        # through here, and np.ndim's cost shows in the cheapest configs
        if isinstance(t, np.ndarray):
            return np.array([law.mass(y, target.lower, target.upper, s) for s in _horizons(t).tolist()])
        return law.mass(y, target.lower, target.upper, check_horizon("horizon", t))

    def stationary_density(self, lam, y, z, t=math.inf, rel_tol=None):
        """The restart-age law's density in closed form at any t, at z, at each point
        of a 1-D array z or at each horizon of a 1-D numpy array t: one law for all."""
        law = _RestartAgeLaw(self.mu, self.sigma, check_positive("restart rate", lam))
        y = check_finite("state", y)
        points, horizons, one = _density_pairs(z, t)
        values = [law.density(y, p, s) for p, s in zip(points, horizons)]
        return values[0] if one else np.array(values)

    def sample_transition(self, t, x, rng):
        t = check_nonnegative("time", t)
        y = x + self.mu * t + self.sigma * math.sqrt(t) * rng.standard_normal()
        if -_INF < y < _INF:  # one comparison: the event-log walker calls this once per event
            return y
        raise self._out_of_range(t)

    def sample_transitions(self, t, x, rng):
        t = check_times(t, np.shape(x))
        with np.errstate(over="ignore", invalid="ignore"):
            y = x + self.mu * t + self.sigma * np.sqrt(t) * rng.standard_normal(t.shape)
        if not np.isfinite(y).all():
            raise self._out_of_range(float(t.max()))
        return y

    def moment(self, k, t, x):
        return float(self.moments(k, np.array([float(t)]), x)[0])

    def moments(self, k, t, x):
        t = check_times(t)
        x = check_finite("state", x)
        return gaussian_raw_moment(k, self._means(t, x), self.sigma * np.sqrt(t))

    def density_envelope(self, z, s_min):
        # the Gaussian peak is the prefactor; past s_min it only flattens
        try:
            peak = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi * s_min))
        except ZeroDivisionError:
            peak = math.inf
        if peak == math.inf:
            raise DomainError(f"sigma={self.sigma!r} takes the density's peak at times from {s_min!r} "
                              "out of the float range; rescale the process")
        return (peak, 0.0)

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted, closed form; t may be inf.

        The base moment is a polynomial in s with coefficients polynomial in the
        start point, so the time integral reduces to incomplete-gamma weights and
        the restart average to moments of nu.
        """
        lam = restart.rate
        k = check_count("moment order k", k, least=0)
        t = check_horizon("horizon", t)
        x = check_finite("state", x)
        mu, sigma = self.mu, self.sigma
        term1 = 0.0 if math.isinf(t) else math.exp(-lam * t) * self.moment(k, t, x)
        term2 = 0.0
        for j in range(0, k + 1, 2):
            cj = math.comb(k, j) * _double_factorial_odd(j - 1) * sigma**j
            for i in range(0, k - j + 1):
                coef = cj * math.comb(k - j, i) * mu**i
                m = j // 2 + i
                r = k - j - i
                term2 += coef * _weight_poly(m, lam, t) * restart.nu.moment(r)
        return term1 + term2

    def certifies_absolute_moment(self, k):
        return True


def _log_state(x):
    """log of one state of geometric Brownian motion, refused off the half line."""
    return math.log(check_positive("state", x))


def _log_states(x):
    """log of a state, or of each state of a 1-D array, refused off the half line.

    math.log, as for one state, since numpy's log differs from it in the
    last bit on some inputs: an array form then agrees with the one-state
    form bit for bit.  It runs once per run of equal states, which is once
    per distinct state where they come as a lockstep batch's points do,
    one run per member; finding the runs needs no sort.
    """
    if np.ndim(x) == 0:
        return _log_state(x)
    x = check_one_dimensional("points", np.asarray(x, dtype=float))
    head = np.ones(len(x), dtype=bool)
    head[1:] = x[1:] != x[:-1]
    starts = np.flatnonzero(head)
    logs = np.array([_log_state(v) for v in x[starts].tolist()])
    return np.repeat(logs, np.diff(np.append(starts, len(x))))


@dataclass(frozen=True)
class GeometricBrownian(MarkovKernel):
    """dX = mu*X dt + sigma*X dW on (0, inf), solved exactly in log space.

    log X is Brownian motion with drift mu - sigma^2/2 (``self.log``), so the
    transition law, the restarted masses (asymmetric Laplace in log x at
    t = inf), the finite-t restarted density and the samplers are that motion's.
    """

    mu: float = 0.0
    sigma: float = 1.0
    log: BrownianWithDrift = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_positive("sigma", self.sigma)
        check_finite("mu", self.mu)
        try:
            drift = self.mu - 0.5 * self.sigma**2
        except OverflowError:
            drift = -math.inf
        if math.isinf(drift):
            raise DomainError(f"sigma={self.sigma!r} with mu={self.mu!r} takes the drift of log X, mu - sigma^2/2, "
                              "out of the float range; rescale the process")
        object.__setattr__(self, "log", BrownianWithDrift(drift, self.sigma))

    @property
    def space(self):
        return HalfLinePositive()

    @staticmethod
    def _log(x):
        """log of each state of an array, all positive."""
        if not (x > 0.0).all():
            raise DomainError("states must be positive")
        return np.log(x)

    @staticmethod
    def _log_target(target):
        # the target's image in log space; a bound at or below 0 maps to -inf
        return Interval(*(math.log(b) if b > 0.0 else -math.inf for b in (target.lower, target.upper)))

    def transition_density(self, t, x, z):
        return _at_one_time(self.transition_densities, t, x, z)

    def transition_probability(self, t, x, target):
        return _at_one_time(self.transition_probabilities, t, x, target)

    def transition_densities(self, t, x, z):
        return self.log.transition_densities(t, _log_state(x), _log_states(z)) / z

    def transition_probabilities(self, t, x, target):
        return self.log.transition_probabilities(t, _log_state(x), self._log_target(target))

    def stationary_probability(self, lam, y, target, t=math.inf, rel_tol=None):
        """The log-space law's mass of the log target, in closed form at any t
        or 1-D numpy array of them."""
        return self.log.stationary_probability(lam, _log_state(y), self._log_target(target), t)

    def stationary_density(self, lam, y, z, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """The log-space law's density at log z, over z, in closed form at
        finite t; at t = inf the certified quadrature default.  z is a point
        or a 1-D array of them, or t a 1-D numpy array of horizons."""
        if not isinstance(t, np.ndarray) and math.isinf(check_horizon("horizon", t)):
            # the closed form would fix the false-convergence-gbm-stationary-density config
            # of perfbench/defects.py, which perfbench/test_smoke.py requires to stay open (ROADMAP item 2)
            return super().stationary_density(lam, y, z, t, rel_tol=rel_tol)
        values = self.log.stationary_density(lam, _log_state(y), _log_states(z), t) / z
        if isinstance(t, np.ndarray) and np.isinf(t).any():
            # the same route at the infinite horizons of an array
            values[np.isinf(t)] = super().stationary_density(lam, y, z, t[np.isinf(t)], rel_tol=rel_tol)
        return values

    def sample_transition(self, t, x, rng):
        # _log_state inline: the event-log walker calls this once per event
        t = check_nonnegative("time", t)
        if not x > 0.0:
            raise DomainError(f"state must be positive, got {x}")
        y = math.log(x)
        if t == 0.0:
            return x
        return math.exp(y + self.log.mu * t + self.sigma * math.sqrt(t) * rng.standard_normal())

    def sample_transitions(self, t, x, rng):
        x = np.asarray(x, dtype=float)
        t = check_times(t, x.shape)
        moved = np.exp(self.log.sample_transitions(t, self._log(x), rng))
        return np.where(t > 0.0, moved, x)

    def moment_growth_rate(self, k):
        """Exponential rate eta_k of E_x[X(t)^k] = x^k * exp(eta_k * t)."""
        k = float(k)
        return k * self.log.mu + 0.5 * k * k * self.sigma**2

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted; t may be inf.

        A float at every finite t; at t = inf a float for lam > eta_k, where
        eta_k is the base moment's growth rate, and a Divergent otherwise.
        """
        k = check_count("moment order k", k, least=0)
        lam = restart.rate
        t = check_horizon("horizon", t)
        x = check_positive("state", x)
        eta = self.moment_growth_rate(k)
        mk = restart.nu.moment(k)
        if math.isinf(t):
            if lam == eta:
                return Divergent(f"linear growth at rate lam*nu_moment = {lam * mk} (resonance lam = eta_{k} = {eta})")
            if lam < eta:
                return Divergent(f"exponential growth at rate eta_{k} - lam = {eta - lam}")
            return lam / (lam - eta) * mk
        term1 = math.exp(-lam * t) * self.moment(k, t, x)
        if lam == eta:
            # the limit of the expm1 form below: exactly linear growth
            return term1 + mk * lam * t
        return term1 + mk * lam * -math.expm1(-(lam - eta) * t) / (lam - eta)

    def moment(self, k, t, x):
        return float(self.moments(k, np.array([float(t)]), x)[0])

    def moments(self, k, t, x):
        t = check_times(t)
        x = check_positive("state", x)
        with np.errstate(over="ignore"):
            growth = np.exp(self.moment_growth_rate(k) * t)
        if not np.isfinite(growth).all():
            # as math.exp would: a moment past the float range is a failure
            raise OverflowError(f"E[X(t)^{k}] overflows by t = {t.max()}")
        return x**k * growth

    def density_envelope(self, z, s_min):
        c, eta = self.log.density_envelope(_log_state(z), s_min)
        return c / z, eta

    def certifies_absolute_moment(self, k):
        return True


class FiniteCTMC(MarkovKernel):
    """Continuous-time chain on n labelled states, given by generator Q.

    Q must have nonnegative off-diagonal entries and zero row sums; the
    transition matrix is the matrix exponential exp(Q*t).
    """

    def __init__(self, Q, state_values=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DomainError(f"generator must be square, got shape {Q.shape}")
        n = Q.shape[0]
        if not np.all(np.isfinite(Q)):
            raise DomainError("generator entries must be finite")
        negative = np.argwhere((Q < 0.0) & ~np.eye(n, dtype=bool))
        if negative.size:
            i, j = negative[0]
            raise DomainError(f"off-diagonal entry Q[{i},{j}]={Q[i, j]} is negative")
        rowsums = Q.sum(axis=1)
        bad = np.nonzero(np.abs(rowsums) > 1e-12 * max(1.0, float(np.abs(Q).max())))[0]
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"row {i} of the generator sums to {float(rowsums[i])!r}, expected 0")
        if state_values is None:
            state_values = np.arange(n, dtype=float)
        values = np.asarray(state_values, dtype=float)
        if values.shape != (n,):
            raise DomainError(f"need {n} state labels, got shape {values.shape}")
        self.Q = Q
        self.values = values
        self._space = FiniteSet(tuple(values))
        # exp(Q*t) by the float t, stacks of them by the times' bytes and resolvents
        # by ("resolvent", lam), in one memo, and the number of matrices it holds
        self._memo = {}
        self._held = 0
        self._pade = None
        self._walker = None

    def __reduce__(self):
        # a pickle (an ensemble worker's) is the generator and the labels:
        # every memo and table is rebuilt on demand
        return type(self), (self.Q, self.values)

    def _walker_tables(self):
        """For the one-path sampler, per state: its mean holding time (None
        where absorbing) and the distribution function of where it jumps,
        built as Generator.choice would build it, as lists; built on the
        first ``sample_transition``, since most chains are never walked."""
        rates = (-np.diag(self.Q)).tolist()
        jumps = self.Q - np.diag(np.diag(self.Q))
        self._walker = (
            [1.0 / r if r > 0.0 else None for r in rates],
            [categorical_cdf(jumps[i] / r).tolist() if r > 0.0 else [1.0] * len(rates) for i, r in enumerate(rates)],
        )
        return self._walker

    def _keep(self, key, P):
        """Memoise P: exp(Q*t) at one time by the float t, the stack of them
        at an array of times by its bytes, or a resolvent by its tuple key.
        The memo holds at most _MEMO_SIZE matrices and keeps no stack larger
        than that; the oldest entry of any kind leaves first."""
        size = P.size // self.Q.size
        if size > _MEMO_SIZE:
            return
        while self._held + size > _MEMO_SIZE:
            self._held -= self._memo.pop(next(iter(self._memo))).size // self.Q.size
        self._memo[key] = P
        self._held += size

    def __repr__(self):
        return f"FiniteCTMC(n={self.space.n})"

    @property
    def space(self):
        return self._space

    def transition_matrix(self, t):
        # a memo hit is read directly, as a copy like every returned matrix
        t = check_nonnegative("time", t)
        P = self._memo.get(t)
        return P.copy() if P is not None else self._stack([t])[0]

    def transition_matrices(self, t):
        """exp(Q*s) for every time s of the 1-D array t, stacked.

        An array met before is one memo lookup by its bytes: the targets of
        one rate and restart atom walk the same rounds of quadrature nodes.
        Otherwise memoised times are read from the memo; the rest, by
        falling time, take one pass of ``_expm`` per ``_MEMO_SIZE`` of them,
        each matrix bit for bit the one its time gets alone.
        """
        t = check_one_dimensional("times", check_times(t))
        key = t.tobytes()
        P = self._memo.get(key)
        if P is not None:
            return P.copy()
        P = self._stack(t.tolist())
        self._keep(key, P.copy())
        return P

    def _stack(self, times):
        # exp(Q*s) for each float s of the list times, through the memo by time
        memo = self._memo
        found = {s: memo[s] for s in times if s in memo}
        missing = sorted({s for s in times if s not in found}, reverse=True)
        # in chunks the memo's size, each entry its own copy, so neither
        # _expm's temporaries nor a memo entry holds more than the memo's bound
        step = _MEMO_SIZE
        for lo in range(0, len(missing), step):
            chunk = missing[lo : lo + step]
            for s, P in zip(chunk, self._expm(np.array(chunk))):
                found[s] = P
                self._keep(s, P.copy())
        return np.array([found[s] for s in times]).reshape(len(times), *self.Q.shape)

    def _pade_terms(self):
        """||Q||_1; b_i * Qh^i for i = 0..13, Qh = Q/||Q||_1, shaped
        (7, 2, 1, n*n): [r, 0] holds the even power 2r, [r, 1] the odd power
        2r + 1; and the largest |row sum| of Q and the largest row sum
        above 0.  Built on the chain's first exponential."""
        if self._pade is None:
            n = self.space.n
            norm = float(np.abs(self.Q).sum(axis=0).max())
            Qh = self.Q / norm if norm > 0.0 else self.Q
            powers = [np.eye(n)]
            for _ in range(13):
                powers.append(powers[-1] @ Qh)
            terms = (_PADE_13[:, None, None] * np.array(powers)).reshape(7, 2, 1, n * n)
            rowsums = self.Q.sum(axis=1)
            self._pade = norm, terms, float(np.abs(rowsums).max()), max(float(rowsums.max()), 0.0)
        return self._pade

    def _expm(self, t):
        """exp(Q*s) for each time s of the 1-D array t, in falling order, in one numpy pass.

        The degree-13 Pade approximant with scaling and squaring (Higham,
        SIAM J. Matrix Anal. Appl. 26:1179, 2005).  With x = ||Q||_1 * s,
        write x/theta_13 = m * 2^e, 1/2 <= m < 1: the node squares
        j = max(0, e) times the approximant at a = x/2^j, which is below
        theta_13 whenever j > 0.  The numerator V + U and the denominator
        V - U sum b_i * a^i * Qh^i over the even powers (V) and the odd ones
        (U), term by term in a fixed order, and the nodes still squaring are
        a leading slice: no product's order depends on the batch, so every
        node gets the bits it would get alone.
        """
        norm, terms, drift, growth = self._pade_terms()
        n = self.space.n
        if math.isinf(norm * float(t[0])):
            raise DomainError(f"||Q||*t overflows at t = {float(t[0])!r}; rescale the generator")
        x = norm * t
        j = np.maximum(np.frexp(x / _THETA_13)[1], 0)
        # a^0..a^13 by repeated multiplication; the seven terms added in
        # turn, in place, so no (7, 2, k, n*n) temporary holds them all
        powers = np.multiply.accumulate(np.where(_FIRST_OF_14, 1.0, np.ldexp(x, -j)[:, None]), axis=1)
        scaled = powers.T.reshape(7, 2, -1, 1)
        VU = scaled[0] * terms[0]
        for r in range(1, 7):
            VU += scaled[r] * terms[r]
        V, U = VU.reshape(2, -1, n, n)
        R = np.linalg.solve(V - U, V + U)
        squares = j.tolist()
        live = len(squares)
        # a result out of float reach overflows here; the row check refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(squares[0]):
                while squares[live - 1] <= r:
                    live -= 1
                R[:live] = R[:live] @ R[:live]
            # every row sums to 1 within its node's rounding, never off by half
            # its mass, plus the drift where rows of Q sum to d, not 0 (the
            # constructor allows rounding): |exp(Q*s)1 - 1| <= s*|d|*exp(s*max(d, 0)).
            # The slack stays finite, so a NaN or inf row fails the comparison
            slack = np.minimum(np.ldexp(_ROW_SUM_SLACK * n, j), 0.5)
            if drift:
                slack += np.minimum(drift * t * np.exp(growth * t), sys.float_info.max)
            miss = np.abs(R.sum(axis=2) - 1.0).max(axis=1)
        if not (miss <= slack).all():
            raise DomainError(
                f"matrix exponential up to ||Q||*t = {x[0]:.3e} has a row that does not sum to 1; "
                "rescale the generator"
            )
        return R

    def transition_probability(self, t, x, target):
        return _at_one_time(self.transition_probabilities, t, x, target)

    def transition_probabilities(self, t, x, target):
        # the target's columns added in turn to 0, the order every output was
        # computed in: numpy's sum of 9 or more entries of one row goes by unrolled
        # blocks, and its last bit can differ
        self._space.check_target(target)
        rows = self.transition_matrices(t)[:, self._space.index(x)]
        return sum((rows[:, i] for i in target.indices), np.zeros(len(rows)))

    def sample_transition(self, t, x, rng):
        t = check_nonnegative("time", t)
        scales, cdfs = self._walker or self._walker_tables()
        state = int(x) if 0 <= x < len(cdfs) else math.nan  # int() of NaN or inf would raise
        if state != x:
            self._space.index(x)  # raises: x names no state (inline test: one per walker event)
        elapsed = 0.0
        while True:
            scale = scales[state]
            if scale is None:
                return state
            elapsed -= scale * math.log1p(-rng.random())  # an exponential holding time, by inversion
            if elapsed >= t:
                return state
            state = bisect_right(cdfs[state], rng.random())

    def moment(self, k, t, x):
        return float(self.moments(k, np.array([float(t)]), x)[0])

    def moments(self, k, t, x):
        # the state columns added in turn, as in transition_probabilities: a stacked @ rounds a row by its place
        rows = self.transition_matrices(t)[:, self._space.index(x)]
        return sum((rows[:, i] * v for i, v in enumerate(self.values**k)), np.zeros(len(rows)))

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted; t may be inf.

        The row of the restarted transition matrix, as ``RestartedProcess``
        composes it (the invariant vector at t = inf), against the k-th
        powers of the state values: the chain's resolvent linear algebra
        and exp(Q*t), so no quadrature enters.
        """
        k = check_count("moment order k", k, least=0)
        i = self._space.index(x)
        if math.isinf(check_horizon("horizon", t)):
            q = self.stationary_vector(restart.rate, nu_weights(restart.nu, self._space))
        else:
            q = RestartedProcess(self, restart).transition_matrices(np.array([t]))[0, i]
        return float(q @ self.values**k)

    def certifies_absolute_moment(self, k):
        return True

    # exact linear algebra: the chain's own stationary law (the small-rate
    # sweep compares against it) and its resolvent

    def stationary_distribution(self):
        """Solve pi Q = 0, pi summing to 1, by least squares."""
        n = self.space.n
        A = np.vstack([self.Q.T, np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        return pi

    def _stationary_matrix(self, lam):
        """lam * (lam*I - Q)^(-1), one linear solve per rate, in the memo."""
        lam = check_positive("restart rate", lam)
        M = self._memo.get(("resolvent", lam))
        if M is None:
            eye = np.eye(self.space.n)
            M = np.linalg.solve(lam * eye - self.Q, lam * eye)
            self._keep(("resolvent", lam), M)
        return M

    def stationary_probability(self, lam, y, target, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """v_G, row y of v = lam*(lam*I - Q)^(-1) summed over the target G, at
        t = inf; at a horizon t (a float) or each horizon of a 1-D numpy
        array t (an array).

        A finite horizon s takes the resolvent identity v_G - late, with
        late = exp(-lam*s) (v exp(Q*s))_G, wherever late <= v_G/2: the
        difference then loses at most one bit (BM's ``_RestartAgeLaw.mass``
        keeps the same rule).  Above that, at small lam*s, the difference
        would cancel, and those horizons take the quadrature default, one
        call for all of them, each refined alone and so accurate to its own
        value.  exp(Q*s) is the memo's matrix, which the no-restart term
        has already asked for.
        """
        t = _horizons(t)
        self._space.check_target(target)
        columns = list(target.indices)
        v = self._stationary_matrix(lam)[self._space.index(y)]
        mass = float(v[columns].sum())
        horizons = t if isinstance(t, np.ndarray) else np.array([t])
        values = np.full(len(horizons), mass)
        cancels = []
        for k, s in enumerate(horizons.tolist()):
            if s < math.inf:
                # one exp(Q*s) per horizon: on kernel-chain* configs the only FiniteCTMC.transition_matrix
                # calls, which keep processes.expm_calls > 0 as perfbench/test_smoke.py asserts (ROADMAP 1a)
                late = math.exp(-lam * s) * float((v @ self.transition_matrix(s))[columns].sum())
                if late <= 0.5 * mass:
                    values[k] = mass - late
                else:
                    cancels.append(k)
        if cancels:
            # the accurate route where the identity cancels; it is also what
            # keeps quadrature.calls > 0 on the kernel-chain3 workload config,
            # which perfbench/test_smoke.py asserts (its lam*t = 0.01 horizon)
            values[cancels] = super().stationary_probability(lam, y, target, horizons[cancels], rel_tol=rel_tol)
        return values if isinstance(t, np.ndarray) else float(values[0])

    def stationary_vector(self, lam, w, t=math.inf, rel_tol=None):
        """lam * w int_0^t exp(-lam*s) exp(Q*s) ds, exactly, at each horizon of a
        1-D numpy array t (one row each), or at a horizon t (a finite one is row 0 of its one-element array).

        The integral is lam * w (lam*I - Q)^(-1) (I - exp(-lam*t) exp(Q*t)):
        the rate's memoised resolvent gives v = lam * w (lam*I - Q)^(-1),
        the value at t = inf, and the finite horizons subtract
        exp(-lam*t) v exp(Q*t), from one stack of exp(Q*t).
        """
        v = _weight_vector(self._space, w) @ self._stationary_matrix(lam)
        t = _horizons(t)
        if not isinstance(t, np.ndarray):
            return v if math.isinf(t) else self.stationary_vector(lam, w, np.array([t]))[0]
        rows, finite = np.tile(v, (len(t), 1)), np.isfinite(t)
        kept = np.array([math.exp(-lam * s) for s in t[finite].tolist()])
        rows[finite] = v - kept[:, None] * (v @ self.transition_matrices(t[finite]))
        return rows


def ctmc_from_dict(data):
    """Build a FiniteCTMC from {"Q": [[...]], "values": [...]}."""
    if not isinstance(data, dict):
        raise DomainError(f"expected an object with a 'Q' entry, got {type(data).__name__}")
    if "Q" not in data:
        raise DomainError("missing required entry 'Q'")
    extra = set(data) - {"Q", "values"}
    if extra:
        raise DomainError(f"unknown entries {sorted(extra)}; expected only 'Q' and 'values'")
    Q = data["Q"]
    if not isinstance(Q, list) or not all(isinstance(r, list) for r in Q):
        raise DomainError("'Q' must be a list of rows")
    n = len(Q)
    for i, row in enumerate(Q):
        if len(row) != n:
            raise DomainError(f"row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DomainError(f"entry at row {i}, column {j} is not a number: {v!r}")
    return FiniteCTMC(Q, data.get("values"))


def ctmc_from_json(path):
    """Load a chain description from a JSON file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path} is not valid JSON: {exc}") from None
    return ctmc_from_dict(data)
