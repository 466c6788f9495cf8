"""Exact invariant-law routes, each against an independent oracle.

The diffusions' closed-form Laplace masses are checked against the
quadrature definition ``conftest.resolvent``, their finite-t restarted
kernels against the quadrature defaults and against mpmath, the chains'
linear solves against the exponential of the restarted generator, at long
and at finite times.  Also here:
the per-chain memo of exp(Q*t), and categorical draws that reproduce
``Generator.choice`` draw for draw.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import restartk.kernels
import restartk.processes
from restartk import (
    BrownianWithDrift,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    Interval,
    PointMass,
    RestartSpec,
    RestartedProcess,
    Subset,
    ergodicity_check,
    gaussian,
    lognormal,
)
from restartk.errors import DomainError, ToleranceNotMet
from restartk.kernels import MarkovKernel

from conftest import (
    finite_support_from_weights,
    make_three_state_chain,
    mp_restarted_mass,
    mp_restarted_row,
    point_or_two_atom_laws,
    random_generator,
    random_restart_weights,
    resolvent,
    restarted_generator,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

rates = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)


def _bm_case():
    base = st.builds(BrownianWithDrift, st.floats(-2.0, 2.0), st.floats(0.2, 2.0))
    cuts = st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3, unique=True).map(sorted)
    return st.tuples(base, rates, point_or_two_atom_laws(st.floats(-2.0, 2.0)), cuts)


def _gbm_case():
    base = st.builds(GeometricBrownian, st.floats(-0.5, 0.5), st.floats(0.2, 1.0))
    log_cuts = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3, unique=True)
    cuts = log_cuts.map(lambda c: sorted(math.exp(v) for v in c))
    return st.tuples(base, rates, point_or_two_atom_laws(st.floats(0.2, 5.0)), cuts)


cases = st.one_of(_bm_case(), _gbm_case())


class TestDiffusionLaplaceLaw:
    @PROPERTY
    @given(cases)
    def test_matches_quadrature_resolvent(self, case):
        base, lam, nu, (a, b, _) = case
        proc = RestartedProcess(base, RestartSpec(lam, nu))
        target = Interval(a, b)
        q = proc.invariant_measure(target)
        want = nu.expect(lambda y: lam * resolvent(base, lam, y, target))
        assert abs(q - want) <= 1e-12 + 1e-8 * abs(q)

    @PROPERTY
    @given(cases)
    def test_whole_space_mass_is_one(self, case):
        base, lam, nu, _ = case
        proc = RestartedProcess(base, RestartSpec(lam, nu))
        assert abs(proc.invariant_measure(proc.space.whole()) - 1.0) <= 1e-14

    @PROPERTY
    @given(cases)
    def test_masses_add_over_adjacent_intervals(self, case):
        base, lam, nu, (a, b, c) = case
        proc = RestartedProcess(base, RestartSpec(lam, nu))
        q = proc.invariant_measure
        lo = proc.space.whole().lower
        assert abs(q(Interval(a, b)) + q(Interval(b, c)) - q(Interval(a, c))) <= 1e-15
        pieces = [Interval(lo, a), Interval(a, b), Interval(b, c), Interval(c, math.inf)]
        assert abs(sum(q(g) for g in pieces) - 1.0) <= 1e-14

    def test_small_rate_side_mass_does_not_cancel(self):
        # with mu > 0 and tiny lam, the mass below the restart point is
        # (alpha - mu)/(2 alpha) with alpha - mu ~ lam*sigma^2/mu; 50 digits
        # of mpmath stand in for the exact value
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for mu, sigma, lam in ((1.0, 1.0, 1e-12), (2.5, 0.3, 1e-9), (-1.5, 0.7, 1e-11)):
            alpha = mp.sqrt(mp.mpf(mu) ** 2 + 2 * mp.mpf(lam) * mp.mpf(sigma) ** 2)
            below = float((alpha - mu) / (2 * alpha))
            got = BrownianWithDrift(mu, sigma).stationary_probability(lam, 0.0, Interval(-math.inf, 0.0))
            assert abs(got - below) <= 1e-14 * below

    def test_drift_dominated_invariant_density_against_mpmath(self):
        # a fast drift and a small sigma (Peclet number |c*mu|/sigma^2 = 4e7):
        # the time integrand is a peak of relative width about 1/sqrt(Pe) that
        # the quadrature default's first panels step over, and it once returned
        # 0.0 here with no ToleranceNotMet.  GBM's invariant density still takes
        # that default and keeps the blind spot until its closed form returns
        # (ROADMAP item 2).
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        mu, sigma, lam, c = 1.158, 1.77e-3, 2.28e-4, 107.7
        m, s, l, d = (mp.mpf(v) for v in (mu, sigma, lam, c))
        alpha = mp.sqrt(m * m + 2 * l * s * s)
        want = float(l / alpha * mp.exp((m * d - alpha * abs(d)) / (s * s)))
        got = RestartedProcess(BrownianWithDrift(mu, sigma), RestartSpec(lam, PointMass(0.0))).invariant_density(c)
        assert abs(got - want) <= 1e-13 * want

    def test_gbm_target_at_or_below_zero(self):
        gbm = GeometricBrownian(0.1, 0.4)
        assert gbm.stationary_probability(2.0, 1.0, Interval(-1.0, 0.0)) == 0.0
        assert gbm.stationary_probability(2.0, 1.0, Interval(-1.0, math.inf)) == 1.0


class _QuadratureOnly(MarkovKernel):
    """Delegates the transition law and nothing else, so the defaults apply."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def space(self):
        return self.inner.space

    def transition_probability(self, t, x, target):
        return self.inner.transition_probability(t, x, target)

    def transition_density(self, t, x, z):
        return self.inner.transition_density(t, x, z)

    def transition_matrix(self, t):
        return self.inner.transition_matrix(t)

    def sample_transition(self, t, x, rng):
        return self.inner.sample_transition(t, x, rng)

    def density_envelope(self, z, s_min):
        # the t = inf density default truncates on it and refuses without one
        return self.inner.density_envelope(z, s_min)


class TestDefaultRoute:
    def test_scalar_default_agrees_with_closed_form(self):
        bm = BrownianWithDrift(0.4, 0.8)
        for lam in (0.05, 1.0, 30.0):
            for target in (Interval(-1.0, 0.5), Interval(0.2, math.inf)):
                want = bm.stationary_probability(lam, 0.1, target)
                got = _QuadratureOnly(bm).stationary_probability(lam, 0.1, target)
                assert abs(got - want) <= 1e-12 + 1e-8 * want

    def test_vector_default_agrees_with_solve(self, three_state_chain):
        w = np.array([0.2, 0.5, 0.3])
        for t in (math.inf, 0.05, 0.8, 6.0):
            want = three_state_chain.stationary_vector(1.5, w, t)
            got = _QuadratureOnly(three_state_chain).stationary_vector(1.5, w, t)
            assert np.abs(got - want).max() < 1e-10


    def test_invariant_density_asks_the_base_kernel(self, monkeypatch):
        # BM answers in closed form; GBM's t = inf density is the quadrature
        # default: one lockstep batch per restart atom, one member per point
        batches = []
        batch = restartk.kernels._exp_weighted_integrals

        def counting(f, lam, uppers, *args, **kwargs):
            batches.append(len(uppers))
            return batch(f, lam, uppers, *args, **kwargs)

        monkeypatch.setattr(restartk.kernels, "_exp_weighted_integrals", counting)
        bm, gbm = BrownianWithDrift(0.4, 0.8), GeometricBrownian(0.1, 0.5)
        z = np.array([0.5, 0.8, 1.3])
        for base, nu, want in (
            (bm, PointMass(0.1), []),
            (bm, FiniteSupport(((-0.2, 0.4), (0.3, 0.6))), []),
            (gbm, PointMass(1.2), [3]),
            (gbm, FiniteSupport(((0.9, 0.4), (1.5, 0.6))), [3, 3]),
        ):
            batches.clear()
            assert (RestartedProcess(base, RestartSpec(1.5, nu)).invariant_density(z) > 0.0).all()
            assert batches == want, (base, nu)

    @pytest.mark.parametrize(
        "base, nu",
        [
            (BrownianWithDrift(0.4, 0.8), PointMass(0.1)),
            (BrownianWithDrift(0.4, 0.8), FiniteSupport(((-0.2, 0.4), (0.3, 0.6)))),
            (BrownianWithDrift(0.4, 0.8), gaussian(0.1, 0.5)),
            (GeometricBrownian(0.1, 0.5), PointMass(1.2)),
            (GeometricBrownian(0.1, 0.5), FiniteSupport(((0.9, 0.4), (1.5, 0.6)))),
            (GeometricBrownian(0.1, 0.5), lognormal(0.1, 0.3)),
        ],
        ids=repr,
    )
    def test_invariant_density_of_an_array_is_its_points_bit_for_bit(self, base, nu):
        # a loose tolerance keeps the density nu's nested quadrature cheap
        proc = RestartedProcess(base, RestartSpec(1.5, nu))
        z = [0.5, 2.7, 0.5, 1.3]
        got = proc.invariant_density(np.array(z), rel_tol=1e-6)
        assert got.dtype == float and got.tolist() == [proc.invariant_density(p, rel_tol=1e-6) for p in z]

    def test_failing_density_points_raise_what_the_first_failing_atom_raises(self):
        # from the atom 0.1 the second point fails, from 0.3 the first: the
        # atoms' batches run in order, so the batch of 0.1 raises, for its
        # failing point; the two failures differ in their node counts, NaN
        # everywhere against NaN past s = 1/lam only
        class FailsAt(_QuadratureOnly):
            def transition_densities(self, t, x, z):
                values = self.inner.transition_densities(t, x, z)
                values = np.where((x == 0.1) & (z == 0.9), math.nan, values)
                return np.where((x == 0.3) & (z == 0.5) & (t > 1.0 / 1.5), math.nan, values)

        base = FailsAt(BrownianWithDrift(0.4, 0.8))
        proc = RestartedProcess(base, RestartSpec(1.5, FiniteSupport(((0.1, 0.4), (0.3, 0.6)))))
        z = np.array([0.5, 0.9])
        with pytest.raises(ToleranceNotMet) as got:
            proc.invariant_density(z)
        with pytest.raises(ToleranceNotMet) as first_atom:
            RestartedProcess(base, RestartSpec(1.5, PointMass(0.1))).invariant_density(z)
        with pytest.raises(ToleranceNotMet) as second_atom:
            RestartedProcess(base, RestartSpec(1.5, PointMass(0.3))).invariant_density(z)
        assert str(got.value) == str(first_atom.value) and repr(got.value.result) == repr(first_atom.value.result)
        assert first_atom.value.result.nodes_used != second_atom.value.result.nodes_used

    def test_aligned_points_give_the_one_time_densities_bit_for_bit(self):
        # the form the density batch integrates: one start, a point per time
        t = np.array([0.2, 1.5, 0.7, 0.2])
        for base, x, z in (
            (BrownianWithDrift(0.4, 0.8), 0.1, [0.5, 0.5, 2.0, -1.0]),
            (GeometricBrownian(0.1, 0.5), 1.2, [0.8, 1.3, 0.8, 2.5]),
        ):
            want = [base.transition_density(s, x, b) for s, b in zip(t.tolist(), z)]
            for kernel in (base, _QuadratureOnly(base)):
                assert kernel.transition_densities(t, x, np.array(z)).tolist() == want
        # GBM's array forms take math.log, as its one-time forms do: numpy's
        # log differs from it in the last bit at 1.05 on some hosts
        states = [1.05, 2.0, 1.05]
        assert restartk.processes._log_states(np.array(states)).tolist() == [math.log(v) for v in states]
        # in runs, as a batch's points come, and empty
        states = [1.05] * 3 + [2.0] + [0.7] * 2 + [1.05]
        assert restartk.processes._log_states(np.array(states)).tolist() == [math.log(v) for v in states]
        assert restartk.processes._log_states(np.array([])).shape == (0,)
        with pytest.raises(DomainError, match="got -1.0"):
            restartk.processes._log_states(np.array([2.0, 2.0, -1.0, -3.0]))

    def test_array_forms_loop_over_the_scalar_methods(self, three_state_chain):
        bm = BrownianWithDrift(0.4, 0.8)
        g = Interval(-1.0, 0.5)
        t = np.array([0.0, 0.2, 1.5])
        got = _QuadratureOnly(bm).transition_probabilities(t, 0.1, g)
        assert np.array_equal(got, [bm.transition_probability(s, 0.1, g) for s in t])
        got = _QuadratureOnly(three_state_chain).transition_matrices(t)
        assert np.array_equal(got, [three_state_chain.transition_matrix(s) for s in t])
        # the restarted kernel integrates a scalar-only kernel through them
        for base, x, target in ((bm, 0.1, g), (three_state_chain, 1, Subset([0, 2]))):
            restart = RestartSpec(1.5, PointMass(x))
            want = RestartedProcess(base, restart).transition_probability(0.8, x, target)
            got = RestartedProcess(_QuadratureOnly(base), restart).transition_probability(0.8, x, target)
            assert abs(got - want) < 1e-12


def _exp_in_range(v):
    # GBM states are exp of the log-space draws, kept inside exp's range
    return math.exp(min(max(v, -600.0), 600.0))


@st.composite
def finite_horizon_cases(draw, gbm=True):
    """(base, lam, t, nu, x, target, z) for BM or, in log space, GBM (BM only
    without ``gbm``).

    Positions are drawn up to 30 units out in both tails, the unit being
    the diffusive spread sigma*sqrt(t) or the restarts' Laplace scale
    sigma/sqrt(2*lam), and the drift moves at most 3 spreads over t.  The
    quadrature oracle is blind to what happens faster than its first nodes
    resolve, so positions sit on a grid of 1/8 unit (two of them coincide
    or lie at least that far apart), and a faster drift, which makes the
    time integrand a narrow peak, is left to the mpmath checks below.
    """
    sigma = 10.0 ** draw(st.floats(-3.0, 0.3))
    lam = draw(rates)
    t = 10.0 ** draw(st.floats(-3.0, 3.0))
    spread = sigma * math.sqrt(t)
    mu = draw(st.floats(-3.0, 3.0)) * spread / t
    x = draw(st.floats(-1.0, 1.0))
    unit = draw(st.sampled_from([spread, sigma / math.sqrt(2.0 * lam)]))

    def at(lo, hi):
        return st.integers(8 * lo, 8 * hi).map(lambda k: x + k / 8 * unit)

    cuts = sorted(draw(st.lists(at(-30, 30), min_size=2, max_size=2)))
    cuts = draw(st.sampled_from([cuts, [-math.inf, cuts[1]], [cuts[0], math.inf]]))
    z = draw(at(-30, 30))
    if not gbm or draw(st.booleans()):
        return BrownianWithDrift(mu, sigma), lam, t, draw(point_or_two_atom_laws(at(-2, 2))), x, Interval(*cuts), z
    base = GeometricBrownian(mu + 0.5 * sigma**2, sigma)
    nu = draw(point_or_two_atom_laws(at(-2, 2).map(_exp_in_range)))
    target = Interval(*(math.exp(c) if math.isinf(c) else _exp_in_range(c) for c in cuts))
    return base, lam, t, nu, _exp_in_range(x), target, _exp_in_range(z)


def _near_quadrature(got, want):
    return abs(got - want) <= 1e-12 + 1e-10 * abs(want)


class TestFiniteHorizonClosedForm:
    """BM and GBM at finite t: the resolvent identity and its first-passage
    twin, against the quadrature defaults that cannot see them."""

    @PROPERTY
    @given(finite_horizon_cases())
    def test_probability_matches_quadrature(self, case):
        base, lam, t, nu, x, target, _ = case
        restart = RestartSpec(lam, nu)
        got = RestartedProcess(base, restart).transition_probability(t, x, target)
        want = RestartedProcess(_QuadratureOnly(base), restart).transition_probability(t, x, target, rel_tol=1e-11)
        assert _near_quadrature(got, want), (got, want)

    @PROPERTY
    @given(finite_horizon_cases())
    def test_density_matches_quadrature(self, case):
        base, lam, t, nu, x, _, z = case
        restart = RestartSpec(lam, nu)
        got = RestartedProcess(base, restart).transition_density(t, x, z)
        want = RestartedProcess(_QuadratureOnly(base), restart).transition_density(t, x, z, rel_tol=1e-11)
        assert _near_quadrature(got, want), (got, want)

    @pytest.mark.parametrize(
        "mu, sigma, lam, t, c",
        [(0.3, 1.0, 2.0, 0.01, 0.5), (-0.8, 0.5, 0.01, 0.002, -0.1), (1.5, 0.2, 300.0, 0.001, 0.03), (0.0, 1.0, 1e-4, 0.05, -1.0)],
    )
    def test_cancellation_regime_against_mpmath(self, mu, sigma, lam, t, c):
        # small t, z far from y: the value is a sliver of the Laplace term q
        # it would be subtracted from, so the first-passage form carries it
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        bm = BrownianWithDrift(mu, sigma)
        m, s, l, h, d = (mp.mpf(v) for v in (mu, sigma, lam, t, c))
        nodes = mp.linspace(0, h, 9)
        density = mp.quad(lambda u: l * mp.exp(-l * u - (d - m * u) ** 2 / (2 * s * s * u)) / mp.sqrt(2 * mp.pi * s * s * u), nodes)
        sign = 1 if c > 0 else -1
        mass = mp.quad(lambda u: l * mp.exp(-l * u) * mp.ncdf(sign * (m * u - d) / (s * mp.sqrt(u))), nodes)
        assert density < 1e-4 * bm.stationary_density(lam, 0.0, c)
        got = bm.stationary_density(lam, 0.0, c, t)
        assert abs(got - density) <= 1e-12 * density
        # the tail mass is a second difference in lam*t, good to a few ulps
        # of the no-restart mass it is added to in the restarted kernel
        target = Interval(c, math.inf) if c > 0 else Interval(-math.inf, c)
        got = bm.stationary_probability(lam, 0.0, target, t)
        assert abs(got - mass) <= 1e-12 * mass + 8 * np.finfo(float).eps * bm.transition_probability(t, 0.0, target)

    @pytest.mark.parametrize(
        "mu, sigma, lam, t, c, a, b",
        [
            (1.158, 1.77e-3, 2.28e-4, 403.0, 107.7, -24.5, 972.3),
            (-16.09, 0.031, 3727.0, 1.67, -0.0065, -0.009, -0.0065),
            (1.93, 8.2e-3, 20.7, 41.5, 1.0, 0.5, 1.0),
        ],
    )
    def test_drift_dominated_against_mpmath(self, mu, sigma, lam, t, c, a, b):
        # a fast drift and a small sigma: the time integrands are narrow
        # peaks, which the quadrature oracle steps over, and the target's far
        # end lies thousands of diffusive spreads out but within the
        # restarts' Laplace tail, where the normal-Laplace tails must not
        # cancel in their exponent
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        m, s, l = (mp.mpf(v) for v in (mu, sigma, lam))

        def nodes(*ends):
            # breakpoints around each end's crossing time |end/mu|
            out = {0, t}
            for end in ends:
                at, width = abs(end / mu), sigma * math.sqrt(abs(end / mu)) / abs(mu)
                out.update(v for v in (at + k * width for k in (-40, -10, -3, -1, 0, 1, 3, 10, 40)) if 0 < v < t)
            return sorted(out)

        density = mp.quad(lambda u: l * mp.exp(-l * u - (c - m * u) ** 2 / (2 * s * s * u)) / mp.sqrt(2 * mp.pi * s * s * u), nodes(c))
        window = lambda u: mp.ncdf((b - m * u) / (s * mp.sqrt(u))) - mp.ncdf((a - m * u) / (s * mp.sqrt(u)))
        mass = mp.quad(lambda u: l * mp.exp(-l * u) * window(u), nodes(a, b))
        bm = BrownianWithDrift(mu, sigma)
        assert abs(bm.stationary_density(lam, 0.0, c, t) - density) <= 1e-13 * density
        assert abs(bm.stationary_probability(lam, 0.0, Interval(a, b), t) - mass) <= 1e-13 * mass

    @PROPERTY
    @given(finite_horizon_cases(gbm=False))
    def test_invariant_density_default_matches_the_laplace_law(self, case):
        # the t = inf quadrature default, which GBM and kernels without a
        # closed form take, against BM's asymmetric Laplace law; t only
        # bounds the drift
        base, lam, _, nu, _, _, z = case
        restart = RestartSpec(lam, nu)
        got = RestartedProcess(base, restart).invariant_density(z)
        want = RestartedProcess(_QuadratureOnly(base), restart).invariant_density(z, rel_tol=1e-11)
        assert _near_quadrature(got, want), (got, want)

    def test_horizon_zero_and_infinite(self):
        bm = BrownianWithDrift(0.4, 0.8)
        g = Interval(-0.3, 1.1)
        assert bm.stationary_probability(2.0, 0.1, g, 0.0) == 0.0 == bm.stationary_density(2.0, 0.1, 0.5, 0.0)
        assert bm.stationary_probability(2.0, 0.1, g, math.inf) == bm.stationary_probability(2.0, 0.1, g)
        assert bm.stationary_probability(2.0, 0.1, g, 1e4) == bm.stationary_probability(2.0, 0.1, g)
        with pytest.raises(DomainError, match="horizon"):
            bm.stationary_probability(2.0, 0.1, g, math.nan)

    def test_density_nu_takes_the_closed_forms(self, monkeypatch):
        # under a density nu each nu-point takes the closed form, as an atom
        # does: no quadrature over the restart age
        bm = BrownianWithDrift(0.2, 0.9)
        restart = RestartSpec(1.5, gaussian(0.1, 0.3))
        oracle = RestartedProcess(_QuadratureOnly(bm), restart)
        target = Interval(-0.5, 0.5)
        want = (oracle.transition_probability(0.7, 0.0, target, rel_tol=1e-11),
                oracle.transition_density(0.7, 0.0, 0.2, rel_tol=1e-11))

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature over the restart age")

        monkeypatch.setattr(restartk.kernels, "exp_weighted_integral", refuse)
        monkeypatch.setattr(restartk.kernels, "_exp_weighted_integrals", refuse)
        proc = RestartedProcess(bm, restart)
        got = (proc.transition_probability(0.7, 0.0, target), proc.transition_density(0.7, 0.0, 0.2))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * w, (g, w)

    def test_density_nu_sees_a_drift_dominated_peak(self):
        # a time integrand whose peak the restart-age quadrature stepped over,
        # returning 0.0: each nu-point's closed form sees it, and a narrow nu
        # around 0 gives about the point law's value there
        bm = BrownianWithDrift(1.158, 1.77e-3)
        got = RestartedProcess(bm, RestartSpec(2.28e-4, gaussian(0.0, 0.01))).transition_density(403.0, 0.0, 107.7)
        want = RestartedProcess(bm, RestartSpec(2.28e-4, PointMass(0.0))).transition_density(403.0, 0.0, 107.7)
        assert abs(want - 1.9276003e-4) <= 1e-7 * want
        assert abs(got - want) <= 1e-9 * want, (got, want)


def _twelve_state_chain():
    rng = np.random.default_rng(12)
    return FiniteCTMC(random_generator(rng, 12), np.arange(12.0) - 5.5), random_restart_weights(rng, 12)


class TestChainResolvent:
    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n", [3, 12])
    def test_invariant_vector_is_long_time_row(self, lam, n, three_state_chain):
        if n == 3:
            chain, w = three_state_chain, np.array([0.2, 0.5, 0.3])
        else:
            chain, w = _twelve_state_chain()
        proc = RestartedProcess(chain, RestartSpec(lam, finite_support_from_weights(w)))
        q = proc.invariant_vector()
        assert abs(q.sum() - 1.0) < 1e-12
        # the restarted chain forgets its start at least at rate lam
        w = proc.restart.nu.weights(chain.space)
        G = restarted_generator(chain, lam, w)
        assert np.abs(expm(G * (60.0 / lam)) - q).max() < 1e-10
        # and at finite times its kernel is the restarted generator's exponential
        for lam_t in (0.01, 1.0, 30.0):
            t = lam_t / lam
            assert np.abs(proc.transition_matrix(t) - expm(G * t)).max() < 1e-10

    def test_point_restart_vector_and_measures(self):
        chain, _ = _twelve_state_chain()
        proc = RestartedProcess(chain, RestartSpec(0.7, PointMass(4)))
        q = proc.invariant_vector()
        for g in (Subset([4]), Subset([0, 3, 11]), Subset(range(12))):
            assert abs(proc.invariant_measure(g) - sum(q[i] for i in g.indices)) < 1e-13

    @pytest.mark.parametrize("nu", [PointMass(1), FiniteSupport(((0, 0.3), (2, 0.7)))], ids=repr)
    def test_restarted_moment_is_the_restarted_row_bit_for_bit(self, three_state_chain, nu):
        # the chain's moments read the restarted row without building the
        # restarted process; the process's own matrix and vector are the
        # oracle, which pins the row index, the t = 0 and t = inf branches
        restart = RestartSpec(1.5, nu)
        proc = RestartedProcess(three_state_chain, restart)
        for k in (1, 2):
            powers = three_state_chain.values**k
            for i in range(3):
                for t in (0.0, 0.8):
                    want = float(proc.transition_matrix(t)[i] @ powers)
                    assert three_state_chain.restarted_moment(restart, k, t, i) == want
                want = float(proc.invariant_vector() @ powers)
                assert three_state_chain.restarted_moment(restart, k, math.inf, i) == want

    @pytest.mark.parametrize("n", [3, 12])
    @pytest.mark.parametrize("two_atoms", [False, True], ids=["point", "two-atom"])
    def test_stacked_restarted_matrices_and_moments_are_the_one_time_forms_bit_for_bit(self, n, two_atoms):
        # each chain fresh, so that no memo hit makes two sides share a matrix
        fresh = make_three_state_chain if n == 3 else (lambda: _twelve_state_chain()[0])
        nu = FiniteSupport(((0, 0.3), (n - 1, 0.7))) if two_atoms else PointMass(1)
        restart = RestartSpec(1.5, nu)
        t = np.array([0.8, 0.0, 2.5, 0.8, 1e-3])
        stacked = RestartedProcess(fresh(), restart).transition_matrices(t)
        one_time = RestartedProcess(fresh(), restart)
        assert np.array_equal(stacked, [one_time.transition_matrix(s) for s in t.tolist()])
        chain = fresh()
        for k in (1, 2):
            powers = chain.values**k
            for s in (0.0, 0.8):
                want = float(RestartedProcess(fresh(), restart).transition_matrix(s)[n - 1] @ powers)
                assert chain.restarted_moment(restart, k, s, n - 1) == want
            want = float(RestartedProcess(fresh(), restart).invariant_vector() @ powers)
            assert chain.restarted_moment(restart, k, math.inf, n - 1) == want

    def test_probability_matches_quadrature_resolvent(self, three_state_chain):
        for lam in (0.1, 2.0, 40.0):
            for y in range(3):
                g = Subset([0, 2])
                got = three_state_chain.stationary_probability(lam, y, g)
                assert abs(got - lam * resolvent(three_state_chain, lam, y, g)) < 1e-10


class TestChainRestartTermAgainstMpmath:
    """The chain's finite-t restart term takes the resolvent identity where
    the subtracted term is at most half the first, and quadrature where it
    would cancel; both against mpmath, with no absolute floor."""

    CHAINS = (
        make_three_state_chain(),
        FiniteCTMC(random_generator(np.random.default_rng(5), 5)),
        _twelve_state_chain()[0],
    )

    def test_restarted_law_matches_the_restarted_generator(self, monkeypatch):
        quadrature = []
        evaluate = restartk.kernels.exp_weighted_integral

        def counting(f, lam, upper, **kw):
            quadrature.extend(np.atleast_1d(upper).tolist())
            return evaluate(f, lam, upper, **kw)

        monkeypatch.setattr(restartk.kernels, "exp_weighted_integral", counting)
        branches = set()

        def compare(chain, lam, lam_t, x, target, nu):
            t = lam_t / lam
            want, want_term = mp_restarted_mass(chain, lam, nu.weights(chain.space), t, x, target.indices)
            quadrature.clear()
            term = nu.expect(lambda y: chain.stationary_probability(lam, y, target, t))
            # one call per atom, each at t: by quadrature or by the identity
            atoms = len(nu.points) if hasattr(nu, "points") else 1
            branches.update(["quadrature"] * (len(quadrature) > 0) + ["identity"] * (len(quadrature) < atoms))
            assert abs(term - want_term) <= 1e-13 * want_term, (term, want_term)
            got = RestartedProcess(chain, RestartSpec(lam, nu)).transition_probability(t, x, target)
            assert abs(got - want) <= 1e-13 * want, (got, want)

        # few examples: a 12-state 30-digit expm takes about 0.1 s
        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(
            chain=st.sampled_from(self.CHAINS),
            # log grids: hypothesis's floats crowd around 1 at this few examples
            lam=st.integers(-8, 8).map(lambda k: 10.0 ** (k / 4)),
            lam_t=st.integers(-12, 6).map(lambda k: 10.0 ** (k / 4) if k < 6 else 50.0),
            data=st.data(),
        )
        def check(chain, lam, lam_t, data):
            states = st.integers(0, chain.space.n - 1)
            x = data.draw(states)
            target = Subset(data.draw(st.lists(states, min_size=1, max_size=chain.space.n, unique=True)))
            compare(chain, lam, lam_t, x, target, data.draw(point_or_two_atom_laws(states)))

        check()
        # and the corners of the box, which so few draws may miss
        for chain in self.CHAINS:
            n = chain.space.n
            for lam in (1e-2, 1e2):
                for lam_t, nu in ((1e-3, PointMass(0)), (50.0, FiniteSupport(((0, 0.3), (n - 1, 0.7))))):
                    compare(chain, lam, lam_t, n - 1, Subset([0, 1]), nu)
        assert branches == {"identity", "quadrature"}

    @pytest.mark.parametrize("lam", [1e-4, 1e-6])
    def test_small_rate_times_horizon_takes_quadrature(self, three_state_chain, lam, monkeypatch):
        # at lam*t = 1e-7 and 1e-9 the identity v_G - exp(-lam*t) (v exp(Q*t))_G
        # subtracts two numbers that agree in all but their last few digits
        quadrature = []
        evaluate = restartk.kernels.exp_weighted_integral

        def counting(f, lam, upper, **kw):
            quadrature.append(upper.tolist())
            return evaluate(f, lam, upper, **kw)

        monkeypatch.setattr(restartk.kernels, "exp_weighted_integral", counting)
        t, target = 1e-3, Subset([1])
        _, want = mp_restarted_mass(three_state_chain, lam, np.eye(3)[0], t, 0, [1])
        got = three_state_chain.stationary_probability(lam, 0, target, t)
        assert abs(got - want) <= 4 * np.finfo(float).eps * want
        assert quadrature == [[t]]
        identity = three_state_chain.stationary_vector(lam, np.eye(3)[0], t)[1]
        assert abs(identity - want) > 1e-8 * want


class TestChainErgodicityAgainstMpmath:
    """The chain's distance to its invariant law, by the restart split
    exp(-lam*t) (delta_x - q) exp(Q*t), against P~(t, x, .) - q at 40 digits,
    with no absolute floor, while the base chain has not yet mixed
    (t*||Q||_1 <= 3): past that both rows of the split near the chain's own
    stationary law, and their difference cancels."""

    def test_deviations_and_tv_match_the_restarted_generator(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        composed = []
        monkeypatch.setattr(RestartedProcess, "transition_matrices", lambda *args, **kw: composed.append(args))

        def compare(chain, lam, t, x, sets, nu):
            row, _, q = mp_restarted_row(chain, lam, nu.weights(chain.space), t, x)
            got = ergodicity_check(RestartedProcess(chain, RestartSpec(lam, nu)), x, (t,), sets).rows[0]
            with mp.workdps(40):
                gap = [r - v for r, v in zip(row, q)]
                sup_deviation = max(abs(mp.fsum(gap[i] for i in g.indices)) for g in sets)
                tv = mp.fsum(map(abs, gap)) / 2
                assert abs(got.sup_deviation - sup_deviation) <= 1e-12 * sup_deviation, (got, sup_deviation)
                assert abs(got.tv - tv) <= 1e-12 * tv, (got, tv)

        def longest(chain, lam):
            return min(30.0 / lam, 3.0 / float(np.abs(chain.Q).sum(axis=0).max()))

        @settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @given(
            chain=st.sampled_from(TestChainRestartTermAgainstMpmath.CHAINS),
            lam=st.integers(-8, 8).map(lambda k: 10.0 ** (k / 4)),
            shorter=st.integers(0, 12).map(lambda k: 10.0 ** (-k / 4)),
            data=st.data(),
        )
        def check(chain, lam, shorter, data):
            states = st.integers(0, chain.space.n - 1)
            some = Subset(data.draw(st.lists(states, min_size=1, max_size=chain.space.n, unique=True)))
            sets = [Subset([i]) for i in range(chain.space.n)] + [some]
            nu = data.draw(point_or_two_atom_laws(states))
            compare(chain, lam, shorter * longest(chain, lam), data.draw(states), sets, nu)

        check()
        # the longest horizon at the smallest and the largest rates: lam*t = 30 on the 3-state chain at 50 and 1e2
        for chain in TestChainRestartTermAgainstMpmath.CHAINS:
            n = chain.space.n
            for lam in (1e-2, 50.0, 1e2):
                nu = FiniteSupport(((0, 0.3), (n - 1, 0.7)))
                compare(chain, lam, longest(chain, lam), n - 1, [Subset([0]), Subset([1]), Subset([0, n - 1])], nu)
        assert composed == []


class _CountingExpm:
    """Counts the chain's matrix-exponential passes, each of a whole array of times."""

    def __init__(self, monkeypatch):
        self.calls = 0
        evaluate = FiniteCTMC._expm

        def counting(chain, t):
            self.calls += 1
            return evaluate(chain, t)

        monkeypatch.setattr(FiniteCTMC, "_expm", counting)


class TestExpmMemo:
    def test_returned_matrix_is_a_copy(self, three_state_chain):
        P = three_state_chain.transition_matrix(0.7)
        want = P.copy()
        P[:] = 0.0
        # a memo hit, read directly, is a copy too
        hit = three_state_chain.transition_matrix(0.7)
        assert np.array_equal(hit, want)
        hit[:] = 0.0
        assert np.array_equal(three_state_chain.transition_matrix(0.7), want)

    def test_pickle_carries_no_cache(self, three_state_chain):
        empty = len(pickle.dumps(make_three_state_chain()))
        chain, times, w = three_state_chain, np.linspace(0.1, 5.0, 50), [0.2, 0.5, 0.3]
        # every memo and table: by time, by array of times (met twice), the
        # resolvent by rate, the walker's tables and the Pade terms
        for t in times:
            chain.transition_matrix(t)
        for _ in range(2):
            chain.transition_matrices(times[::-1])
        chain.stationary_vector(1.5, w)
        chain.sample_transition(0.7, 1, np.random.default_rng(3))
        chain._pade_terms()
        blob = pickle.dumps(chain)
        assert len(blob) == empty
        clone = pickle.loads(blob)

        def outputs(c):
            rng = np.random.default_rng(5)
            draws = np.array([c.sample_transition(2.0, 0, rng) for _ in range(20)])
            return [c.transition_matrix(1.3), c.transition_matrices(times), c.stationary_vector(1.5, w), draws]

        assert [a.tobytes() for a in outputs(clone)] == [a.tobytes() for a in outputs(chain)]

    def test_repeated_probability_makes_no_new_expm(self, three_state_chain, monkeypatch):
        counting = _CountingExpm(monkeypatch)
        first = three_state_chain.transition_probability(0.9, 1, Subset([0, 2]))
        assert counting.calls == 1
        assert three_state_chain.transition_probability(0.9, 1, Subset([0, 2])) == first
        three_state_chain.transition_probability(0.9, 2, Subset([1]))
        three_state_chain.moment(2, 0.9, 0)
        assert counting.calls == 1

    def test_cache_is_bounded(self, three_state_chain, monkeypatch):
        counting = _CountingExpm(monkeypatch)
        monkeypatch.setattr(restartk.processes, "_MEMO_SIZE", 4)
        times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        for t in times:
            three_state_chain.transition_matrix(t)
        three_state_chain.transition_matrix(0.6)
        assert counting.calls == 6
        # the oldest entries went first
        three_state_chain.transition_matrix(0.1)
        assert counting.calls == 7


def _choice_walk(Q, t, x, rng):
    """The chain's jump loop with each jump drawn by Generator.choice, each
    holding time by inversion of a uniform."""
    n = Q.shape[0]
    state, elapsed = x, 0.0
    while True:
        rate = -Q[state, state]
        elapsed += -(1.0 / rate) * math.log1p(-rng.random())
        if elapsed >= t:
            return state
        probs = Q[state].copy()
        probs[state] = 0.0
        state = int(rng.choice(n, p=probs / rate))


class TestCategoricalDraws:
    @pytest.mark.parametrize(
        "weights",
        [(1.0,), (0.5, 0.5), (0.2, 0.0, 0.8), (0.1, 0.2, 0.3, 0.4), (1 / 3, 1 / 3, 1 - 2 / 3), (0.999, 0.001)],
    )
    def test_finite_support_draws_like_choice(self, weights):
        dist = FiniteSupport(tuple((10.0 * i, w) for i, w in enumerate(weights)))
        probs = [w for _, w in dist.points]
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        got = [dist.sample(a) for _ in range(3000)]
        want = [dist.points[b.choice(len(probs), p=probs)][0] for _ in range(3000)]
        assert got == want
        assert a.random() == b.random()

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_chain_jumps_draw_like_choice(self, n):
        Q = random_generator(np.random.default_rng(n), n)
        chain = FiniteCTMC(Q)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        for i in range(300):
            t, x = 0.05 * (i % 40 + 1), i % n
            assert chain.sample_transition(t, x, a) == _choice_walk(Q, t, x, b)
        assert a.random() == b.random()
