"""Markov kernel contracts and composition with a Poisson restart clock.

A :class:`MarkovKernel` is an exact description of a time-homogeneous Markov
process: interval or subset probabilities, an exact sampler, and (where the
law admits them) densities, matrices and closed-form moments.

:class:`RestartedProcess` wraps a kernel together with a
:class:`RestartSpec` (rate lam > 0, redraw law nu) and is itself a MarkovKernel.
Its transition law splits over the age of the restart clock: with weight
exp(-lam*t) no restart happened and the base kernel acts for the full time,
otherwise the state was redrawn from nu at some time t-s in the past and the
base kernel acts for the remaining s, which is exponentially distributed and
independent of everything before.  Every quantity of the restarted process is
therefore the no-restart term plus the nu-average of an exponentially
weighted time integral of the corresponding base quantity,
lam * int_0^t exp(-lam*s) P(s, y, .) ds.  The base kernel supplies that
integral itself (``stationary_probability``, ``stationary_density``,
``stationary_vector``, each at a horizon t <= inf): in closed form where it
has one, by certified quadrature of its array-in-time forms
(``transition_probabilities`` and its siblings, a whole refinement round of
times in one call) otherwise.  ``stationary_probability`` takes a 1-D array
of horizons as well; its default is one quadrature call to all of them.
``stationary_density`` takes a 1-D array of points; its default integrates
them as one lockstep batch, which calls ``transition_densities`` once per
round with the points aligned with the times.  Letting the horizon grow
gives the invariant law, which the restarted process always has, no matter
how badly the base process escapes.  ``invariant_density`` checks every
point first, then asks the base kernel once per atom of a point or finite
nu for all of them; so does ``transition_probability`` at a 1-D array of
times.  Two routes stay on the quadrature defaults whatever the base
kernel: the finite-t law under a density nu, and ``moment`` where the
kernel has no closed form.  Over one time the sampler draws from the rows of the restarted matrix where the base
kernel has a matrix, else by that split.  Kernels state the moment formulas
themselves: ``restarted_moment`` (the restarted k-th moment in closed form,
a number at every finite t, and at t = inf a :class:`Divergent` where the
limit does not exist) and ``moment_growth_rate`` (eta_k, the finiteness
threshold), both None by default.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .distributions import nu_weights
from .errors import (
    DomainError,
    SingularityAtOrigin,
    check_count,
    check_horizon,
    check_nonnegative,
    check_one_dimensional,
    check_positive,
    check_times,
)
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, _exp_weighted_integrals, exp_weighted_integral
from .spaces import check_state


def _horizons(t):
    """A horizon as ``check_horizon`` takes it, or each of a 1-D numpy array of them (an array)."""
    if not isinstance(t, np.ndarray):
        return check_horizon("horizon", t)
    return np.array([check_horizon("horizon", s) for s in check_one_dimensional("horizons", t).tolist()])


@dataclass(frozen=True)
class Divergent:
    """Marker for a stationary (t = inf) moment that does not exist.

    Every finite-t moment is a number; only its limit can diverge, and the
    description states how the finite-t moment grows.
    """

    description: str


class MarkovKernel(abc.ABC):
    """Transition function of a homogeneous Markov process."""

    @property
    @abc.abstractmethod
    def space(self):
        """The state space the kernel acts on."""

    @abc.abstractmethod
    def transition_probability(self, t, x, target):
        """P(t, x, target) for t >= 0; t = 0 gives the indicator of x in target."""

    @abc.abstractmethod
    def sample_transition(self, t, x, rng):
        """One exact draw of the state at time t started from x."""

    def sample_transitions(self, t, x, rng):
        """One exact draw per entry of the state array x, each after its time in t.

        t is a scalar or an array shaped like x.  At one time a kernel with
        a transition matrix draws each entry from its row; otherwise the
        default goes path by path.  Kernels with an array sampler override it.
        """
        if np.ndim(t) == 0 and self._has_matrix():
            i = np.asarray(x)
            # integral numbers in range, in one test; otherwise state by
            # state in sorted order, which raises for the first that names none
            if i.dtype.kind not in "iuf" or not ((i >= 0) & (i < self.space.n) & (i == np.floor(i))).all():
                for state in np.unique(i):
                    self.space.index(state)
            i = np.asarray(i, dtype=np.int64)
            cdf = np.cumsum(np.maximum(self.transition_matrix(t), 0.0), axis=1)
            cdf /= cdf[:, -1:]
            # the first state of each row whose cumulative mass exceeds a uniform
            return (cdf[i] <= rng.random(i.shape)[..., None]).sum(axis=-1)
        t = np.broadcast_to(np.asarray(t, dtype=float), np.shape(x))
        return np.array([self.sample_transition(float(s), y, rng) for s, y in zip(t, x)])

    def _has_matrix(self):
        # whether transition_matrix is the kernel's own, not the refusing default
        return type(self).transition_matrix is not MarkovKernel.transition_matrix

    def transition_density(self, t, x, z):
        raise DomainError(f"{type(self).__name__} has no transition density")

    def transition_matrix(self, t):
        raise DomainError(f"{type(self).__name__} has no transition matrix")

    def moment(self, k, t, x):
        """E_x[X(t)^k] in closed form, or None when the kernel has none."""
        return None

    def restarted_moment(self, restart, k, t, x):
        """E_x[X(t)^k] under ``restart`` in closed form, t may be inf: a float
        (a Divergent at t = inf only), or None when the kernel has no closed form."""
        return None

    def moment_growth_rate(self, k):
        """eta_k, the rate a finite stationary k-th moment needs the restarts to beat, or None."""
        return None

    # The same four quantities at every time of a 1-D array t, stacked along
    # a leading axis: the form the quadrature integrates.  The defaults loop
    # over the scalar methods; kernels with array formulas override them.

    def transition_probabilities(self, t, x, target):
        return np.array([self.transition_probability(s, x, target) for s in np.asarray(t).tolist()])

    def transition_densities(self, t, x, z):
        # one start x; z is a scalar or an array aligned with t
        t = np.asarray(t)
        z = np.broadcast_to(z, t.shape).tolist()
        return np.array([self.transition_density(s, x, b) for s, b in zip(t.tolist(), z)])

    def transition_matrices(self, t):
        return np.array([self.transition_matrix(s) for s in np.asarray(t).tolist()])

    def moments(self, k, t, x):
        return np.array([self.moment(k, s, x) for s in np.asarray(t).tolist()])

    def stationary_probability(self, lam, y, target, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """lam * int_0^t exp(-lam*s) P(s, y, target) ds, at a horizon t (a
        float) or at each horizon of a 1-D numpy array t (an array).

        At t = inf the invariant mass of the target when the kernel is
        restarted at rate lam to the point y; at finite t the part of the
        restarted kernel's mass that the restarts contribute.  The default
        is one certified quadrature call at any horizon or array of them,
        each entry the one-horizon call's bit for bit; kernels that know
        their Laplace transform override it.
        """
        t = _horizons(t)
        self.space.check_target(target)
        return exp_weighted_integral(
            lambda s: self.transition_probabilities(s, y, target), lam, t, rel_tol=rel_tol, abs_tol=DEFAULT_ABS_TOL
        ).value

    def stationary_density(self, lam, y, z, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """lam * int_0^t exp(-lam*s) p(s, y, z) ds, the density of ``stationary_probability``,
        at a point z (a float) or at each point of a 1-D array z (an array).

        The default is certified quadrature, all the points one lockstep
        batch; at t = inf each point's truncation rests on the kernel's
        ``density_envelope`` there.
        """
        lam = check_positive("restart rate", lam)
        points = np.atleast_1d(np.asarray(z, dtype=float))
        bounds, valid_from = [(1.0, 0.0)] * len(points), 0.0
        if math.isinf(check_horizon("horizon", t)):
            valid_from = min(1.0 / lam, 1.0)
            bounds = [self.density_envelope(p, valid_from) for p in points.tolist()]
        results = _exp_weighted_integrals(
            lambda s, j: self.transition_densities(s, y, points[j]),
            lam, [t] * len(points), rel_tol, DEFAULT_ABS_TOL, bounds, valid_from,
        )
        values = np.array([r.value for r in results])
        return float(values[0]) if np.ndim(z) == 0 else values

    def stationary_vector(self, lam, w, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """lam * w int_0^t exp(-lam*s) P(s) ds for a weight vector w.

        At t = inf this is the invariant law on a finite space under
        rate-lam restarts drawn from w; at finite t it is the part of the
        restarted transition matrix's rows that the restarts contribute.
        The default is certified quadrature of the transition matrices.
        """
        return w @ exp_weighted_integral(self.transition_matrices, lam, t, rel_tol=rel_tol).value

    def _restarted_matrices(self, restart, t, rel_tol=DEFAULT_REL_TOL):
        # P(s) under the restarts at each time s of the 1-D array t, which add
        # one row whatever the start state; the base matrices in one stacked call
        P = self.transition_matrices(t)
        w = nu_weights(restart.nu, self.space)
        lam = restart.rate
        return np.array([
            P_s if s == 0.0 else math.exp(-lam * s) * P_s + self.stationary_vector(lam, w, s, rel_tol=rel_tol)
            for s, P_s in zip(t.tolist(), P)
        ])

    def stationary_distribution(self):
        """The process's own stationary law as a vector, or None when the kernel supplies none."""
        return None

    def density_envelope(self, z, s_min):
        """(C, eta) with p(s, y, z) <= C*exp(eta*s) for all y and s >= s_min.

        Used to truncate semi-infinite time integrals of the density.  The
        default refuses, which keeps kernels without a certified envelope
        out of density-based stationary computations.
        """
        raise DomainError(f"{type(self).__name__} has no density envelope")

    def certifies_absolute_moment(self, k):
        """Whether E_x|X(s)|^k is finite for all s in compacts, with a proof.

        Backing for interchanging the time integral and the expectation in
        moment formulas; kernels that cannot certify it leave downstream
        moment evaluations flagged.
        """
        return False


@dataclass(frozen=True)
class RestartSpec:
    """Restart clock: Poisson rate and the redraw distribution.

    The rate is positive and finite: the invariant law and every restart-age integral need a clock that rings.
    """

    rate: float
    nu: object

    def __post_init__(self):
        object.__setattr__(self, "rate", check_positive("restart rate", self.rate))


class RestartedProcess(MarkovKernel):
    """A Markov kernel run under an independent Poisson restart clock."""

    def __init__(self, base, restart):
        if not restart.nu.supported_in(base.space):
            raise DomainError(
                f"restart distribution {restart.nu!r} is not supported in {base.space!r}"
            )
        self.base = base
        self.restart = restart

    @property
    def space(self):
        return self.base.space

    @property
    def rate(self):
        return self.restart.rate

    def certifies_absolute_moment(self, k):
        return self.base.certifies_absolute_moment(k)

    # -- transition law -------------------------------------------------

    def transition_probability(self, t, x, target, rel_tol=DEFAULT_REL_TOL):
        """P~(t, x, target) at a time t (a float), or at each time of a 1-D
        numpy array t (an array, each entry the float call's bit for bit).

        At an array the no-restart term is the base kernel's one time at a
        time, and under a point or finite nu the restart term is one
        ``stationary_probability`` call per atom for all the positive
        times.  A density nu takes the times one by one: its ``expect`` is
        scipy's quad, whose integrand returns one number.
        """
        # the array rides on this method, not a new one: perfbench's tracer
        # counts kernels.calls on these method names; isinstance, not np.ndim,
        # keeps the float call as cheap as it was
        if not isinstance(t, np.ndarray):
            return self._probability_at(check_nonnegative("time", t), x, target, rel_tol)
        t = check_one_dimensional("times", check_times(t))
        self.space.check_target(target)
        if hasattr(self.restart.nu, "pdf"):
            return np.array([self._probability_at(s, x, target, rel_tol) for s in t.tolist()])
        # the base's float call per time: perfbench/test_smoke.py asserts
        # processes.expm_calls > 0 on kernel-chain3, which counts only
        # FiniteCTMC.transition_matrix
        values = np.array([self.base.transition_probability(s, x, target) for s in t.tolist()])
        late = t > 0.0
        ages = t[late]
        if len(ages):
            # math.exp per time, as the float call takes it: numpy's exp
            # differs from it in the last bit on some inputs
            kept = np.array([math.exp(-self.rate * s) for s in ages.tolist()])
            restarted = self._nu_expect(
                lambda y: self.base.stationary_probability(self.rate, y, target, ages, rel_tol=rel_tol), rel_tol
            )
            values[late] = kept * values[late] + restarted
        return values

    def _probability_at(self, t, x, target, rel_tol):
        # the law at one checked time t
        self.space.check_target(target)
        if t == 0.0:
            return self.base.transition_probability(0.0, x, target)
        integrals = self._age_integrals()
        return self._compose(
            self.base.transition_probability(t, x, target),
            lambda y: integrals.stationary_probability(self.base, self.rate, y, target, t, rel_tol=rel_tol),
            t, rel_tol
        )

    def transition_density(self, t, x, z, rel_tol=DEFAULT_REL_TOL):
        t = check_nonnegative("time", t)
        if t == 0.0:
            raise SingularityAtOrigin("the transition law at t=0 is a point mass, not a density")
        z = float(check_state(self.space, z))
        integrals = self._age_integrals()
        return self._compose(
            self.base.transition_density(t, x, z),
            lambda y: integrals.stationary_density(self.base, self.rate, y, z, t, rel_tol=rel_tol),
            t, rel_tol
        )

    def transition_matrix(self, t, rel_tol=DEFAULT_REL_TOL):
        t = check_nonnegative("time", t)
        return self.base._restarted_matrices(self.restart, np.array([t]), rel_tol)[0]

    def transition_matrices(self, t, rel_tol=DEFAULT_REL_TOL):
        return self.base._restarted_matrices(self.restart, check_times(t), rel_tol)

    def sample_transition(self, t, x, rng):
        t = check_nonnegative("time", t)
        return self.sample_transitions(t, np.asarray([check_state(self.space, x)]), rng)[0].item()

    def _has_matrix(self):
        return self.base._has_matrix()

    def sample_transitions(self, t, x, rng):
        """Advance every state in the array x by its time in t under the restart clock.

        With a base transition matrix the restarted process is a finite chain,
        and over one time each state is drawn from its row (the MarkovKernel
        default).  Otherwise only the last restart before t matters: the clock
        last rang an Exp(lam) time ago (never, when that exceeds t) and redrew
        from nu then: at most one redraw and one base transition per state.
        """
        if np.ndim(t) == 0 and self._has_matrix():
            return super().sample_transitions(t, x, rng)
        x = np.asarray(x)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape)
        back = rng.exponential(1.0 / self.rate, x.shape)
        hit = back < t
        start = x
        if hit.any():
            redrawn = self.restart.nu.sample(rng, int(hit.sum()))
            start = x.astype(np.result_type(x, redrawn))
            start[hit] = redrawn
        return self.base.sample_transitions(np.where(hit, back, t), start, rng)

    def moment(self, k, t, x, rel_tol=DEFAULT_REL_TOL):
        """E_x[X(t)^k] by weighting the base kernel's closed-form moments."""
        k = check_count("moment order k", k, least=0)
        t = check_nonnegative("time", t)
        unrestarted = self.base.moment(k, t, x)
        if unrestarted is None or t == 0.0:
            return unrestarted
        return self._compose(
            unrestarted,
            lambda y: exp_weighted_integral(
                lambda s: self.base.moments(k, s, y), self.rate, t, rel_tol=rel_tol, abs_tol=DEFAULT_ABS_TOL
            ).value,
            t, rel_tol
        )

    # -- stationary law --------------------------------------------------

    def invariant_measure(self, target, rel_tol=DEFAULT_REL_TOL):
        """Mass the unique invariant law puts on the target set."""
        self.space.check_target(target)
        return self._nu_expect(
            lambda y: self.base.stationary_probability(self.rate, y, target, rel_tol=rel_tol), rel_tol
        )

    def invariant_density(self, z, rel_tol=DEFAULT_REL_TOL):
        """Density of the invariant law at a state z (a float), or at each
        state of a 1-D numpy array z (an array), for kernels with densities.

        Every point is checked before any integral.  Under a point or finite
        nu the base kernel takes all the points in one call per atom; a
        density nu integrates each point's density over nu.
        """
        states = np.atleast_1d(z).tolist() if isinstance(z, np.ndarray) else [z]
        points = np.array([check_state(self.space, p) for p in states], dtype=float)
        if hasattr(self.restart.nu, "pdf"):
            density = np.array([self._invariant_density_at(p, rel_tol) for p in points.tolist()])
        else:
            density = self._invariant_density_at(points, rel_tol)
        return float(density[0]) if np.ndim(z) == 0 else density

    def invariant_vector(self, rel_tol=DEFAULT_REL_TOL):
        """Invariant weight vector on a finite state space."""
        w = nu_weights(self.restart.nu, self.space)
        return self.base.stationary_vector(self.rate, w, rel_tol=rel_tol)

    # -- helpers ---------------------------------------------------------

    def _invariant_density_at(self, z, rel_tol):
        return self._nu_expect(lambda y: self.base.stationary_density(self.rate, y, z, rel_tol=rel_tol), rel_tol)

    def _age_integrals(self):
        """The class whose ``stationary_probability``/``stationary_density``
        integrate the base kernel over the restart age at finite t.

        The base kernel's own, except under a density nu, which keeps the
        quadrature defaults: the closed forms would fix the two
        nested-gaussian-* configs of perfbench/defects.py, which
        perfbench/test_smoke.py requires to miss their tolerance (ROADMAP 2b).
        """
        return MarkovKernel if hasattr(self.restart.nu, "pdf") else type(self.base)

    def _compose(self, unrestarted, restarted, t, rel_tol):
        """exp(-lam*t) f(t, x) + int nu(dy) restarted(y).

        The split of the restarted law over the age of the restart clock,
        applied to any base quantity f(s, y) of the time and start state;
        ``unrestarted`` is its value f(t, x) without a restart, and
        restarted(y) = int_0^t lam exp(-lam*s) f(s, y) ds its share from a
        restart to y.
        """
        return math.exp(-self.rate * t) * unrestarted + self._nu_expect(restarted, rel_tol)

    def _nu_expect(self, inner, rel_tol):
        # a density nu integrates the inner time integral once more, never
        # tighter than 1e-10; point and finite laws sum exactly
        return self.restart.nu.expect(inner, rel_tol=max(rel_tol, 1e-10))


def resolvent(kernel, lam, y, target, rel_tol=DEFAULT_REL_TOL):
    """R_lam(y, target) = int_0^inf exp(-lam*s) P(s, y, target) ds.

    The invariant law of the restarted process is lam times the nu-average
    of this resolvent.  This is the quadrature definition, whatever the
    kernel: it never takes the kernel's exact ``stationary_probability``,
    so the tests keep it as the independent oracle for those routes.
    """
    lam = check_positive("restart rate", lam)
    kernel.space.check_target(target)
    weighted = exp_weighted_integral(
        lambda s: kernel.transition_probabilities(s, y, target), lam, math.inf, rel_tol=rel_tol
    ).value
    return weighted / lam
