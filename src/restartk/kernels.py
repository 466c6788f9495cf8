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
``stationary_vector``, each at a horizon t <= inf or at a 1-D numpy array
of them): in closed form where it has one, by certified quadrature of its
array-in-time forms (``transition_probabilities`` and its siblings, a whole
refinement round of times in one call) otherwise, one lockstep batch for
all the horizons.  ``stationary_density`` takes a 1-D array of points at
one horizon instead.  Letting the horizon grow gives the invariant law,
which the restarted process always has, no matter how badly the base
process escapes.  :class:`RestartedProcess` is the one place that composes
the split (``_compose``), for every quantity, at a 1-D array of times (a
float time is the one-element case), and its nu-average asks the base
kernel once per atom of a point or finite nu for all the times or points;
a density nu asks it at each of its points inside a quadrature over nu,
one time or point at a time.  Over one time the sampler draws from the
rows of the restarted matrix where the base kernel has a matrix, else by
that split.  Kernels state the moment formulas themselves:
``restarted_moment`` (the restarted k-th moment in closed form, a number
at every finite t, and at t = inf a :class:`Divergent` where the limit
does not exist) and ``moment_growth_rate`` (eta_k, the finiteness
threshold), both None by default; where they are None, ``moment``
integrates the base kernel's moments by quadrature.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import partial

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
from .spaces import FiniteSet, check_state


def _at_one_time(array_form, t, *args):
    """A quantity at one time: the one-time case of its array-in-time form."""
    return float(array_form(np.array([float(t)]), *args)[0])


def _horizons(t):
    """A horizon as ``check_horizon`` takes it, or each of a 1-D numpy array of them (an array)."""
    if not isinstance(t, np.ndarray):
        return check_horizon("horizon", t)
    return np.array([check_horizon("horizon", s) for s in check_one_dimensional("horizons", t).tolist()])


def _density_pairs(z, t):
    """A ``stationary_density`` call's points and horizons as aligned lists, and whether it is at one
    of each: an array of points shares the horizon t, a 1-D numpy array of horizons t the point z."""
    z = np.asarray(z, dtype=float)
    if isinstance(t, np.ndarray) and z.ndim:
        raise DomainError("stationary_density takes an array of points or of horizons, not both")
    points, horizons = np.broadcast_arrays(check_one_dimensional("points", z) if z.ndim else z, _horizons(t))
    return np.atleast_1d(points).tolist(), np.atleast_1d(horizons).tolist(), points.ndim == 0


def _weight_vector(space, w):
    """w as a float vector, refused unless it holds one weight per state of a finite space."""
    if not isinstance(space, FiniteSet):
        raise DomainError("weight vectors only exist on finite state spaces")
    w = np.asarray(w, dtype=float)
    if w.shape != (space.n,):
        raise DomainError(f"need {space.n} weights, one per state, got shape {w.shape}")
    return w


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
        """One exact draw of the state at time t started from x.

        rng is a numpy Generator or, in the event log, a view of one whose
        scalar ``standard_normal()`` and ``random()`` are the stream's next
        values, drawn in chunks; every other call goes to the Generator.  A
        kernel that draws only scalar normals, or only scalar uniforms, logs
        the same bytes whatever the chunk size, as the shipped kernels do.
        """

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
        """eta_k, the rate a finite stationary k-th moment needs the restarts to beat, or None: then
        ``monte_carlo_moment`` flags a k-th moment only on a non-finite estimate, not by lam <= eta_{2k}."""
        return None

    # The same four quantities at every time of a 1-D array t, stacked along a leading
    # axis: the form the quadrature integrates.  The defaults loop over the scalar methods;
    # kernels with array formulas override them and read one time through ``_at_one_time``.

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
        at a point z and a horizon t (a float), at each point of a 1-D array
        z, or at each horizon of a 1-D numpy array t (an array).

        The default is certified quadrature, each (point, horizon) pair one
        member of a lockstep batch; at t = inf the point's truncation rests
        on the kernel's ``density_envelope`` there.
        """
        lam = check_positive("restart rate", lam)
        points, horizons, one = _density_pairs(z, t)
        valid_from = min(1.0 / lam, 1.0)
        bounds = [(1.0, 0.0) if s < math.inf else self.density_envelope(p, valid_from)
                  for p, s in zip(points, horizons)]
        points = np.array(points)
        results = _exp_weighted_integrals(
            lambda s, j: self.transition_densities(s, y, points[j]),
            lam, horizons, rel_tol, DEFAULT_ABS_TOL, bounds, valid_from,
        )
        values = np.array([r.value for r in results])
        return float(values[0]) if one else values

    def stationary_vector(self, lam, w, t=math.inf, rel_tol=DEFAULT_REL_TOL):
        """lam * w int_0^t exp(-lam*s) P(s) ds for a weight vector w.

        At t = inf this is the invariant law on a finite space under
        rate-lam restarts drawn from w; at finite t it is the part of the
        restarted transition matrix's rows that the restarts contribute.
        The default is certified quadrature of the transition matrices.
        """
        w = _weight_vector(self.space, w)
        return w @ exp_weighted_integral(self.transition_matrices, lam, _horizons(t), rel_tol=rel_tol).value

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
        """P~(t, x, target) at each time of a 1-D numpy array t, a time t (a float) being its
        one-element case: one ``transition_probabilities`` call of the base kernel, and
        under a point or finite nu one ``stationary_probability`` call per atom."""
        # the array rides on this method: perfbench's tracer counts kernels.calls on its name
        if not isinstance(t, np.ndarray):
            return _at_one_time(self.transition_probability, t, x, target, rel_tol)
        t = check_one_dimensional("times", check_times(t))
        self.space.check_target(target)
        unrestarted = self.base.transition_probabilities(t, x, target)
        return self._compose(unrestarted, partial(
            self._nu_expect, lambda y, s: self.base.stationary_probability(self.rate, y, target, s, rel_tol=rel_tol),
            rel_tol
        ), t)

    def transition_density(self, t, x, z, rel_tol=DEFAULT_REL_TOL):
        """The density of ``transition_probability``, at a time or a 1-D numpy
        array of them as it is; a zero time is refused before any integral."""
        if not isinstance(t, np.ndarray):
            return _at_one_time(self.transition_density, t, x, z, rel_tol)
        t = check_one_dimensional("times", check_times(t))
        if not t.all():
            raise SingularityAtOrigin("the transition law at t=0 is a point mass, not a density")
        z = float(check_state(self.space, z))
        unrestarted = self.base.transition_densities(t, x, z)
        return self._compose(unrestarted, partial(
            self._nu_expect, lambda y, s: self.base.stationary_density(self.rate, y, z, s, rel_tol=rel_tol), rel_tol
        ), t)

    def transition_matrix(self, t, rel_tol=DEFAULT_REL_TOL):
        return self.transition_matrices(np.array([check_nonnegative("time", t)]), rel_tol)[0]

    def transition_matrices(self, t, rel_tol=DEFAULT_REL_TOL):
        """P~(s) at each time s of the 1-D array t, stacked: the base
        matrices in one call, and the rows that the restarts add whatever
        the start, the base's ``stationary_vector`` from nu's weights, in
        one call for all the positive times."""
        t = check_one_dimensional("times", check_times(t))
        P = self.base.transition_matrices(t)
        w = nu_weights(self.restart.nu, self.space)
        return self._compose(P, lambda ages: self.base.stationary_vector(
            self.rate, w, ages, rel_tol=rel_tol)[:, None], t)

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
        """E_x[X(t)^k] by weighting the base kernel's closed-form moments, composed at t as a one-element array."""
        k = check_count("moment order k", k, least=0)
        t = check_nonnegative("time", t)
        unrestarted = self.base.moment(k, t, x)
        if unrestarted is None:
            return None
        restarted = partial(self._nu_expect, lambda y, s: exp_weighted_integral(
            lambda u: self.base.moments(k, u, y), self.rate, s, rel_tol=rel_tol).value, rel_tol)
        return float(self._compose(np.array([unrestarted], dtype=float), restarted, np.array([t]))[0])

    # -- stationary law --------------------------------------------------

    def invariant_measure(self, target, rel_tol=DEFAULT_REL_TOL):
        """Mass the unique invariant law puts on the target set."""
        self.space.check_target(target)
        return self._nu_expect(
            lambda y, t: self.base.stationary_probability(self.rate, y, target, t, rel_tol=rel_tol), rel_tol, math.inf
        )

    def invariant_density(self, z, rel_tol=DEFAULT_REL_TOL):
        """Density of the invariant law at a state z (a float), or at each
        state of a 1-D numpy array z (an array), for kernels with densities.

        Every point is checked before any integral; then one ``_nu_expect``
        asks the base kernel's ``stationary_density`` for all of them.
        """
        states = check_one_dimensional("points", np.atleast_1d(z)).tolist() if isinstance(z, np.ndarray) else [z]
        points = np.array([check_state(self.space, p) for p in states], dtype=float)
        density = self._nu_expect(
            lambda y, p: self.base.stationary_density(self.rate, y, p, rel_tol=rel_tol), rel_tol, points
        )
        return float(density[0]) if np.ndim(z) == 0 else density

    def invariant_vector(self, rel_tol=DEFAULT_REL_TOL):
        """Invariant weight vector on a finite state space."""
        w = nu_weights(self.restart.nu, self.space)
        return self.base.stationary_vector(self.rate, w, rel_tol=rel_tol)

    # -- helpers ---------------------------------------------------------

    def _compose(self, unrestarted, restarted, t):
        """exp(-lam*t) f(t, x) + restarted(t), the one place the split of the
        restarted law over the age of the restart clock is composed.

        f(s, y) is any base quantity of the time and start state: a
        probability, a density, a moment or a transition matrix.
        ``unrestarted`` is f(t, x), its value without a restart, and
        restarted(s) = int nu(dy) lam int_0^s exp(-lam*u) f(u, y) du its
        share from the restarts.  t is a 1-D array, f stacked along the
        leading axis, one element for one time; a zero time keeps f, and
        restarted is asked once, for all the positive times.
        """
        late = t > 0.0
        ages = t[late]
        if len(ages):
            # math.exp per time, as every output has taken it: numpy's exp
            # differs from it in the last bit on some inputs
            kept = np.array([math.exp(-self.rate * s) for s in ages.tolist()])
            kept = kept.reshape(-1, *(1,) * (unrestarted.ndim - 1))
            unrestarted[late] = kept * unrestarted[late] + restarted(ages)
        return unrestarted

    def _nu_expect(self, inner, rel_tol, at):
        """int nu(dy) inner(y, at), at a float or a 1-D array at.

        Point and finite laws sum exactly, one call for all of at.  A
        density nu integrates once more, never tighter than 1e-10, and an
        array one element at a time: its ``expect`` is scipy's quad, whose
        integrand returns one number.
        """
        nu, rel_tol = self.restart.nu, max(rel_tol, 1e-10)
        if nu.atoms or not isinstance(at, np.ndarray):
            return nu.expect(lambda y: inner(y, at), rel_tol=rel_tol)
        return np.array([nu.expect(lambda y: inner(y, a), rel_tol=rel_tol) for a in at.tolist()])
