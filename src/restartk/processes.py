"""Concrete Markov kernels with closed-form transition laws.

Drifted Brownian motion on the line, geometric Brownian motion on the
positive half line, and finite-state chains in continuous time given by a
generator matrix.  All three expose exact densities/matrices, exact samplers
(one path, or a whole array of paths with their own times) and closed-form
moments, each also at a whole array of times in one call (the form the
quadrature integrates), so they serve both as base processes for restarting
and as the analytic reference in tests.  All three also answer the moments
(``restarted_moment``) and the invariant law of their restarted process
exactly: the moments by integrating the base moments over the restart age
in closed form, the invariant law of the diffusions through the asymmetric
Laplace law of the restart-averaged position, and the chain's through one
linear solve against lam*I - Q per rate, which with the memoised exp(Q*t)
also gives the restarted chain's transition matrix at any finite t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammainc, ndtr

from .distributions import _double_factorial_odd, _nu_moment, categorical_cdf, gaussian_raw_moment
from .errors import DomainError
from .kernels import Divergent, MarkovKernel, RestartedProcess
from .spaces import FiniteSet, HalfLinePositive, RealLine, indicator

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _positive_rate(lam):
    lam = float(lam)
    if not (lam > 0.0) or not math.isfinite(lam):
        raise DomainError(f"restart rate must be positive and finite, got {lam}")
    return lam


def _check_times(t, shape=None, positive=False):
    """Transition times as an array, broadcast to shape when one is given
    (a scalar is then shared); each must be nonnegative, or positive."""
    t = np.asarray(t, dtype=float)
    if shape is not None:
        t = np.broadcast_to(t, shape)
    ok = t > 0.0 if positive else t >= 0.0
    if not ok.all():
        bad = t[~ok].flat[0]
        raise DomainError(f"times must be {'positive' if positive else 'nonnegative'}, got {bad}")
    return t


def _at_one_time(array_form, t, *args):
    """A scalar transition law: the one-time case of its array-in-time form."""
    return float(array_form(np.array([float(t)]), *args)[0])


def _laplace_law_mass(mu, sigma, lam, y, lower, upper):
    """Mass of [lower, upper] under lam * int_0^inf exp(-lam*s) P(s, y, .) ds
    for Brownian motion with drift mu and volatility sigma started at y.

    The law is asymmetric Laplace (Evans & Majumdar, PRL 106:160601, 2011):
    density lam/alpha * exp((mu*u - alpha*|u|)/sigma^2) in u = z - y, with
    alpha = sqrt(mu^2 + 2*lam*sigma^2).  The side above y holds mass
    (alpha + mu)/(2*alpha) and decays at rate (alpha - mu)/sigma^2, the side
    below the mirror image.  Each side's mass is taken from its own tail, so
    no mass is a difference of two numbers near 1, and alpha - |mu| is
    written as 2*lam*sigma^2/(alpha + |mu|), which does not cancel at small
    lam.
    """
    s2 = sigma * sigma
    alpha = math.sqrt(mu * mu + 2.0 * lam * s2)
    wide = alpha + abs(mu)
    narrow = 2.0 * lam * s2 / wide
    a_minus_mu, a_plus_mu = (narrow, wide) if mu >= 0.0 else (wide, narrow)
    mass = 0.0
    if upper > y:
        mass += _side_mass(a_plus_mu / (2.0 * alpha), a_minus_mu / s2, max(lower, y) - y, upper - y)
    if lower < y:
        mass += _side_mass(a_minus_mu / (2.0 * alpha), a_plus_mu / s2, y - min(upper, y), y - lower)
    return mass


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


@dataclass(frozen=True)
class BrownianWithDrift(MarkovKernel):
    """X(t) = x + mu*t + sigma*W(t) on the real line."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

    @property
    def space(self):
        return RealLine()

    def transition_density(self, t, x, z):
        return _at_one_time(self.transition_densities, t, x, z)

    def transition_probability(self, t, x, target):
        return _at_one_time(self.transition_probabilities, t, x, target)

    def transition_densities(self, t, x, z):
        t = _check_times(t, positive=True)
        sd = self.sigma * np.sqrt(t)
        u = (z - x - self.mu * t) / sd
        return np.exp(-0.5 * u * u) / (sd * _SQRT_2PI)

    def transition_probabilities(self, t, x, target):
        t = _check_times(t)
        sd = self.sigma * np.sqrt(t)
        m = x + self.mu * t
        with np.errstate(divide="ignore", invalid="ignore"):
            p = ndtr((target.upper - m) / sd) - ndtr((target.lower - m) / sd)
        return np.where(t > 0.0, p, indicator(target, x))

    def stationary_probability(self, lam, y, target, rel_tol=None):
        """The asymmetric Laplace mass of the target, in closed form."""
        lam = _positive_rate(lam)
        return _laplace_law_mass(self.mu, self.sigma, lam, float(y), target.lower, target.upper)

    def sample_transition(self, t, x, rng):
        if t < 0.0:
            raise DomainError(f"time must be nonnegative, got {t}")
        return x + self.mu * t + self.sigma * math.sqrt(t) * rng.standard_normal()

    def sample_transitions(self, t, x, rng):
        t = _check_times(t, np.shape(x))
        return x + self.mu * t + self.sigma * np.sqrt(t) * rng.standard_normal(t.shape)

    def moment(self, k, t, x):
        return float(self.moments(k, np.array([float(t)]), x)[0])

    def moments(self, k, t, x):
        t = _check_times(t)
        return gaussian_raw_moment(k, x + self.mu * t, self.sigma * np.sqrt(t))

    def density_envelope(self, z, s_min):
        # the Gaussian peak is the prefactor; past s_min it only flattens
        return (1.0 / (self.sigma * math.sqrt(2.0 * math.pi * s_min)), 0.0)

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted, closed form; t may be inf.

        The base moment is a polynomial in s with coefficients polynomial in the
        start point, so the time integral reduces to incomplete-gamma weights and
        the restart average to moments of nu.
        """
        lam = restart.rate
        if lam <= 0.0:
            raise DomainError("restart rate must be positive")
        k = int(k)
        mu, sigma = self.mu, self.sigma
        term1 = 0.0 if math.isinf(t) else math.exp(-lam * t) * self.moment(k, t, x)
        term2 = 0.0
        for j in range(0, k + 1, 2):
            cj = math.comb(k, j) * _double_factorial_odd(j - 1) * sigma**j
            for i in range(0, k - j + 1):
                coef = cj * math.comb(k - j, i) * mu**i
                m = j // 2 + i
                r = k - j - i
                term2 += coef * _weight_poly(m, lam, t) * _nu_moment(restart.nu, r)
        return term1 + term2

    def certifies_absolute_moment(self, k):
        return True


@dataclass(frozen=True)
class GeometricBrownian(MarkovKernel):
    """dX = mu*X dt + sigma*X dW on (0, inf), solved exactly in log space."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")

    @property
    def space(self):
        return HalfLinePositive()

    def _log_params(self, t, x):
        return math.log(x) + (self.mu - 0.5 * self.sigma**2) * t, self.sigma * math.sqrt(t)

    def transition_density(self, t, x, z):
        return _at_one_time(self.transition_densities, t, x, z)

    def transition_probability(self, t, x, target):
        return _at_one_time(self.transition_probabilities, t, x, target)

    def transition_densities(self, t, x, z):
        t = _check_times(t, positive=True)
        if x <= 0.0 or z <= 0.0:
            raise DomainError(f"states must be positive, got x={x}, z={z}")
        m = math.log(x) + (self.mu - 0.5 * self.sigma**2) * t
        sd = self.sigma * np.sqrt(t)
        u = (math.log(z) - m) / sd
        return np.exp(-0.5 * u * u) / (z * sd * _SQRT_2PI)

    def transition_probabilities(self, t, x, target):
        t = _check_times(t)
        if x <= 0.0:
            raise DomainError(f"state must be positive, got x={x}")
        m = math.log(x) + (self.mu - 0.5 * self.sigma**2) * t
        sd = self.sigma * np.sqrt(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = ndtr((math.log(target.upper) - m) / sd) if target.upper > 0 else 0.0
            lo = ndtr((math.log(target.lower) - m) / sd) if target.lower > 0 else 0.0
        return np.where(t > 0.0, hi - lo, indicator(target, x))

    def stationary_probability(self, lam, y, target, rel_tol=None):
        """The Laplace mass of the target in log space, in closed form.

        log X is Brownian motion with drift mu - sigma^2/2, so the invariant
        law of log X is the asymmetric Laplace law of that drift.
        """
        lam = _positive_rate(lam)
        if y <= 0.0:
            raise DomainError(f"state must be positive, got y={y}")
        if target.upper <= 0.0:
            return 0.0
        lo = math.log(target.lower) if target.lower > 0.0 else -math.inf
        return _laplace_law_mass(
            self.mu - 0.5 * self.sigma**2, self.sigma, lam, math.log(y), lo, math.log(target.upper)
        )

    def sample_transition(self, t, x, rng):
        if t < 0.0:
            raise DomainError(f"time must be nonnegative, got {t}")
        if x <= 0.0:
            raise DomainError(f"state must be positive, got x={x}")
        if t == 0.0:
            return x
        m, sd = self._log_params(t, x)
        return math.exp(m + sd * rng.standard_normal())

    def sample_transitions(self, t, x, rng):
        x = np.asarray(x, dtype=float)
        t = _check_times(t, x.shape)
        if np.any(x <= 0.0):
            raise DomainError("states must be positive")
        drift = (self.mu - 0.5 * self.sigma**2) * t
        moved = np.exp(np.log(x) + drift + self.sigma * np.sqrt(t) * rng.standard_normal(t.shape))
        return np.where(t > 0.0, moved, x)

    def moment_growth_rate(self, k):
        """Exponential rate eta_k of E_x[X(t)^k] = x^k * exp(eta_k * t)."""
        k = float(k)
        return k * (self.mu - 0.5 * self.sigma**2) + 0.5 * k * k * self.sigma**2

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted; t may be inf.

        Returns a float while the value is finite and a Divergent otherwise:
        at t = inf for lam <= eta_k, where eta_k is the base moment's growth
        rate; the resonance lam = eta_k grows exactly linearly in t.
        """
        lam = restart.rate
        if lam <= 0.0:
            raise DomainError("restart rate must be positive")
        eta = self.moment_growth_rate(k)
        mk = _nu_moment(restart.nu, k)
        if lam == eta:
            return Divergent(
                f"linear growth: x^k + lam*t*nu_moment = {x**k} + {lam * mk}*t "
                f"(resonance lam = eta_{k} = {eta})",
                intercept=float(x) ** k,
                slope=lam * mk,
            )
        if math.isinf(t):
            if lam < eta:
                return Divergent(
                    f"exponential growth at rate eta_{k} - lam = {eta - lam}",
                    rate=eta - lam,
                )
            return lam / (lam - eta) * mk
        term1 = math.exp(-lam * t) * self.moment(k, t, x)
        term2 = mk * lam * (1.0 - math.exp(-(lam - eta) * t)) / (lam - eta)
        return term1 + term2

    def moment(self, k, t, x):
        return float(self.moments(k, np.array([float(t)]), x)[0])

    def moments(self, k, t, x):
        t = _check_times(t)
        with np.errstate(over="ignore"):
            growth = np.exp(self.moment_growth_rate(k) * t)
        if not np.isfinite(growth).all():
            # as math.exp would: a moment past the float range is a failure
            raise OverflowError(f"E[X(t)^{k}] overflows by t = {t.max()}")
        return x**k * growth

    def density_envelope(self, z, s_min):
        if z <= 0.0:
            raise DomainError(f"state must be positive, got z={z}")
        return (1.0 / (z * self.sigma * math.sqrt(2.0 * math.pi * s_min)), 0.0)

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
        for i in range(n):
            for j in range(n):
                if i != j and Q[i, j] < 0.0:
                    raise DomainError(f"off-diagonal entry Q[{i},{j}]={Q[i, j]} is negative")
        rowsums = Q.sum(axis=1)
        bad = np.nonzero(np.abs(rowsums) > 1e-12 * max(1.0, float(np.abs(Q).max())))[0]
        if bad.size:
            i = int(bad[0])
            raise DomainError(f"row {i} of the generator sums to {rowsums[i]!r}, expected 0")
        if state_values is None:
            state_values = np.arange(n, dtype=float)
        values = np.asarray(state_values, dtype=float)
        if values.shape != (n,):
            raise DomainError(f"need {n} state labels, got shape {values.shape}")
        self.Q = Q
        self.values = values
        self._space = FiniteSet(tuple(values))
        # per state: its total jump rate and the distribution function of
        # where it jumps, built as Generator.choice would build it per draw
        self._jumps = []
        for i in range(n):
            probs = Q[i].copy()
            probs[i] = 0.0
            rate = -Q[i, i]
            self._jumps.append((rate, categorical_cdf(probs / rate) if rate > 0.0 else None))
        # the same, stacked for whole blocks of paths (absorbing rows unused)
        self._rates = np.array([rate for rate, _ in self._jumps])
        self._jump_cdfs = np.array([np.ones(n) if cdf is None else cdf for _, cdf in self._jumps])
        self._expm_cache = {}
        self._resolvent_cache = {}

    # exp(Q*t) by t and lam*(lam*I - Q)^(-1) by lam, at most this many each;
    # quadrature revisits the same nodes across targets and horizons, and
    # every target and restart law at one rate reads the same resolvent
    expm_cache_size = 1024

    def __getstate__(self):
        # keep pickles (ensemble workers) small: the caches are rebuilt on demand
        state = self.__dict__.copy()
        state["_expm_cache"] = {}
        state["_resolvent_cache"] = {}
        return state

    def _memoised(self, cache, key, build):
        value = cache.get(key)
        if value is None:
            value = build()
            self._remember(cache, key, value)
        return value

    def _remember(self, cache, key, value):
        if len(cache) >= self.expm_cache_size:
            del cache[next(iter(cache))]
        cache[key] = value

    def __repr__(self):
        return f"FiniteCTMC(n={self.space.n})"

    @property
    def space(self):
        return self._space

    def transition_matrix(self, t):
        t = float(t)
        if t < 0.0 or math.isnan(t):
            raise DomainError(f"time must be nonnegative, got {t}")
        if t == 0.0:
            return np.eye(self.space.n)
        return self._memoised(self._expm_cache, t, lambda: self._expm(t)).copy()

    def transition_matrices(self, t):
        """exp(Q*s) for every time s of the 1-D array t, stacked.

        Memoised times are read from the memo; the rest take one stacked
        expm, whose matrices equal those of one expm per time.
        """
        times = _check_times(t).tolist()
        cache = self._expm_cache
        found = {s: cache[s] for s in times if s in cache}
        missing = [s for s in dict.fromkeys(times) if s not in found]
        # in chunks the memo's size, each entry its own copy, so neither
        # expm's temporaries nor a memo entry holds more than the memo's bound
        step = self.expm_cache_size
        for lo in range(0, len(missing), step):
            chunk = missing[lo : lo + step]
            for s, P in zip(chunk, self._expm(np.array(chunk))):
                found[s] = P
                self._remember(cache, s, P.copy())
        return np.array([found[s] for s in times])

    def _expm(self, t):
        # exp(Q*t) for a time or an array of times
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            P = expm(self.Q * t[..., None, None])
        if not np.all(np.isfinite(P)):
            raise DomainError(
                f"matrix exponential overflowed at ||Q||*t = {np.abs(self.Q).max() * t.max():.3e}; "
                "rescale the generator"
            )
        return P

    def transition_probability(self, t, x, target):
        if t == 0.0:
            return indicator(target, x)
        row = self.transition_matrix(t)[int(x)]
        return float(sum(row[i] for i in target.indices))

    def transition_probabilities(self, t, x, target):
        return self.transition_matrices(t)[:, int(x), list(target.indices)].sum(axis=1)

    def sample_transition(self, t, x, rng):
        if t < 0.0:
            raise DomainError(f"time must be nonnegative, got {t}")
        state = int(x)
        elapsed = 0.0
        while True:
            rate, cdf = self._jumps[state]
            if rate <= 0.0:
                return state
            elapsed += rng.exponential(1.0 / rate)
            if elapsed >= t:
                return state
            state = int(cdf.searchsorted(rng.random(), side="right"))

    def sample_transitions(self, t, x, rng):
        """The jump loop of ``sample_transition``, run for every path at once."""
        state = np.array(x, dtype=np.int64)
        t = _check_times(t, state.shape)
        elapsed = np.zeros(state.shape)
        live = np.flatnonzero(self._rates[state] > 0.0)
        while live.size:
            elapsed[live] += rng.exponential(1.0 / self._rates[state[live]])
            live = live[elapsed[live] < t[live]]
            u = rng.random(live.size)
            # searchsorted(side="right") of each path's own row, all at once
            state[live] = (self._jump_cdfs[state[live]] <= u[:, None]).sum(axis=1)
            live = live[self._rates[state[live]] > 0.0]
        return state

    def moment(self, k, t, x):
        row = self.transition_matrix(t)[int(x)]
        return float(row @ self.values**k)

    def moments(self, k, t, x):
        return self.transition_matrices(t)[:, int(x)] @ self.values**k

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] restarted; t may be inf.

        The row of the restarted transition matrix (the invariant vector at
        t = inf) against the k-th powers of the state values; the chain's
        resolvent linear algebra gives both exactly, so no quadrature enters.
        """
        if restart.rate <= 0.0:
            raise DomainError("restart rate must be positive")
        proc = RestartedProcess(self, restart)
        q = proc.invariant_vector() if math.isinf(t) else proc.transition_matrix(t)[int(x)]
        return float(q @ self.values ** int(k))

    def certifies_absolute_moment(self, k):
        return True

    # exact linear-algebra companions: the chain's own stationary law (the
    # small-rate sweep compares against it) and the restarted generator

    def stationary_distribution(self):
        """Solve pi Q = 0, pi summing to 1, by least squares."""
        n = self.space.n
        A = np.vstack([self.Q.T, np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        return pi

    def _stationary_matrix(self, lam):
        """lam * (lam*I - Q)^(-1), one linear solve per rate, memoised."""
        lam = _positive_rate(lam)
        eye = np.eye(self.space.n)
        return self._memoised(
            self._resolvent_cache, lam, lambda: np.linalg.solve(lam * eye - self.Q, lam * eye)
        )

    def stationary_probability(self, lam, y, target, rel_tol=None):
        """Row y of lam*(lam*I - Q)^(-1) summed over the target."""
        return float(self._stationary_matrix(lam)[int(y), list(target.indices)].sum())

    def stationary_vector(self, lam, w, t=math.inf, rel_tol=None):
        """lam * w int_0^t exp(-lam*s) exp(Q*s) ds, exactly.

        The integral is lam * w (lam*I - Q)^(-1) (I - exp(-lam*t) exp(Q*t)):
        the rate's memoised resolvent gives v = lam * w (lam*I - Q)^(-1),
        the value at t = inf, and a finite horizon subtracts
        exp(-lam*t) v exp(Q*t).
        """
        lam = _positive_rate(lam)
        v = np.asarray(w, dtype=float) @ self._stationary_matrix(lam)
        if math.isinf(t):
            return v
        return v - math.exp(-lam * t) * (v @ self.transition_matrix(t))

    def restarted_generator(self, lam, nu_vec):
        """Generator of the chain with rate-lam restarts redrawn from nu_vec."""
        nu_vec = np.asarray(nu_vec, dtype=float)
        n = self.space.n
        return self.Q + lam * (np.outer(np.ones(n), nu_vec) - np.eye(n))


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
