"""Closed-form moment routes, stationary values, bounds, ergodicity, sweep."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartk import (
    BrownianWithDrift,
    Divergent,
    DomainError,
    FiniteCTMC,
    FiniteSupport,
    FubiniUnverified,
    GeometricBrownian,
    Interval,
    MarkovKernel,
    PointMass,
    RealLine,
    RestartSpec,
    RestartedProcess,
    Subset,
    bm_stationary_moments,
    ergodicity_check,
    gaussian,
    gbm_stationary_moment,
    modified_moment,
    small_lambda_sweep,
)
from restartk.analysis import (
    bm_modified_moment,
    ctmc_modified_moment,
    gbm_modified_moment,
)
from restartk.simulation import EstimatorReport
from restartk.spaces import indicator

from conftest import make_three_state_chain, point_or_two_atom_laws


class TestBrownianMoments:
    def test_first_moment_display_formula(self):
        # E_0[X(t)] = (mu/lam)(1 - exp(-lam t)) for restart to the origin
        p = BrownianWithDrift(mu=1.0, sigma=1.0)
        restart = RestartSpec(1.0, PointMass(0.0))
        got = bm_modified_moment(p, restart, 1, 1.0, 0.0)
        assert abs(got - (1.0 - math.exp(-1.0))) < 1e-14
        for lam, mu, t in ((2.0, -0.7, 0.4), (0.5, 1.3, 6.0)):
            got = bm_modified_moment(p.__class__(mu=mu, sigma=1.0), RestartSpec(lam, PointMass(0.0)), 1, t, 0.0)
            assert abs(got - mu / lam * (1.0 - math.exp(-lam * t))) < 1e-12

    def test_matches_quadrature_route(self):
        p = BrownianWithDrift(mu=0.6, sigma=1.4)
        for nu in (PointMass(0.3), FiniteSupport(((-1.0, 0.4), (2.0, 0.6))), gaussian(0.2, 0.9)):
            restart = RestartSpec(1.7, nu)
            proc = RestartedProcess(p, restart)
            for k in (1, 2, 3, 4):
                closed = bm_modified_moment(p, restart, k, 0.9, -0.5)
                quad = proc.moment(k, 0.9, -0.5)
                assert abs(closed - quad) < 1e-8 * max(1.0, abs(closed))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.05, 0.95),
    )
    def test_stationary_moments_match_the_formulas(self, mu, sign, sigma, lam, a, b, w):
        # the docstring formulas, written out by hand, against the closed form;
        # each error is relative to the sum of the magnitudes of its terms
        mu *= sign
        p = BrownianWithDrift(mu=mu, sigma=sigma)
        mean, second, var = bm_stationary_moments(p, RestartSpec(lam, FiniteSupport(((a, w), (b, 1.0 - w)))))
        nu1, nu2 = w * a + (1.0 - w) * b, w * a * a + (1.0 - w) * b * b
        mean_terms = (nu1, mu / lam)
        second_terms = (sigma**2 / lam, 2.0 * mu**2 / lam**2, 2.0 * mu * nu1 / lam, nu2)
        want_mean, want_second = sum(mean_terms), sum(second_terms)
        for got, want, scale in (
            (mean, want_mean, sum(map(abs, mean_terms))),
            (second, want_second, sum(map(abs, second_terms))),
            (var, want_second - want_mean**2, sum(map(abs, second_terms)) + want_mean**2),
        ):
            assert abs(got - want) <= 1e-12 * scale

    def test_stationary_values_by_hand(self):
        p = BrownianWithDrift(mu=1.0, sigma=1.0)
        mean, second, var = bm_stationary_moments(p, RestartSpec(1.0, PointMass(0.0)))
        assert abs(mean - 1.0) < 1e-15
        assert abs(second - 3.0) < 1e-15
        assert abs(var - 2.0) < 1e-15

    def test_long_horizon_converges_to_stationary(self):
        p = BrownianWithDrift(mu=-0.4, sigma=0.8)
        restart = RestartSpec(1.5, PointMass(0.5))
        mean, _, _ = bm_stationary_moments(p, restart)
        assert abs(bm_modified_moment(p, restart, 1, 40.0, 3.0) - mean) < 1e-12

    def test_requires_positive_rate(self):
        p = BrownianWithDrift()
        with pytest.raises(DomainError):
            bm_modified_moment(p, RestartSpec(0.0, PointMass(0.0)), 1, 1.0, 0.0)
        with pytest.raises(DomainError):
            bm_stationary_moments(p, RestartSpec(0.0, PointMass(0.0)))


class TestGeometricMoments:
    def test_subcritical_matches_quadrature(self):
        p = GeometricBrownian(mu=0.5, sigma=0.5)
        restart = RestartSpec(2.0, PointMass(1.0))
        proc = RestartedProcess(p, restart)
        for k, t in ((1, 0.8), (1, 3.0), (2, 0.5)):
            closed = gbm_modified_moment(p, restart, k, t, 1.3)
            quad = proc.moment(k, t, 1.3)
            assert abs(closed - quad) < 1e-8 * max(1.0, abs(closed))

    def test_stationary_value(self):
        # lam/(lam - eta_k) * nu_k
        p = GeometricBrownian(mu=0.5, sigma=0.5)
        restart = RestartSpec(2.0, PointMass(1.5))
        got = gbm_stationary_moment(p, restart, 1)
        assert abs(got - 2.0 / (2.0 - 0.5) * 1.5) < 1e-12

    def test_supercritical_finite_time_still_finite(self):
        p = GeometricBrownian(mu=0.5, sigma=1.0)  # eta_2 = 2
        restart = RestartSpec(1.0, PointMass(1.0))
        proc = RestartedProcess(p, restart)
        closed = gbm_modified_moment(p, restart, 2, 2.0, 1.0)
        assert isinstance(closed, float) and math.isfinite(closed)
        assert abs(closed - proc.moment(2, 2.0, 1.0)) < 1e-7 * closed

    def test_supercritical_stationary_is_divergent(self):
        p = GeometricBrownian(mu=0.5, sigma=1.0)
        restart = RestartSpec(1.0, PointMass(1.0))
        d = gbm_stationary_moment(p, restart, 2)
        assert d == Divergent("exponential growth at rate eta_2 - lam = 1.0")

    def test_resonance_is_exactly_linear(self):
        # eta_1 = mu = 1 equals lam: E_x[X(t)] = x + lam*nu_1*t, a number at every finite t
        p = GeometricBrownian(mu=1.0, sigma=1.0)
        restart = RestartSpec(1.0, PointMass(1.5))
        proc = RestartedProcess(p, restart)
        for t in (0.5, 3.0):
            got = gbm_modified_moment(p, restart, 1, t, 2.0)
            assert isinstance(got, float)
            assert abs(got - (2.0 + 1.5 * t)) < 1e-14 * got
            assert abs(got - proc.moment(1, t, 2.0)) < 1e-8 * got

    def test_resonance_stationary_is_divergent_whatever_the_start(self):
        p = GeometricBrownian(mu=1.0, sigma=1.0)
        restart = RestartSpec(1.0, PointMass(1.5))
        want = Divergent("linear growth at rate lam*nu_moment = 1.5 (resonance lam = eta_1 = 1.0)")
        assert gbm_modified_moment(p, restart, 1, math.inf, 2.0) == want
        assert gbm_modified_moment(p, restart, 1, math.inf, 0.5) == want


class TestChainMoments:
    def test_matches_quadrature_route(self, three_state_chain):
        nu = FiniteSupport(((0, 0.3), (2, 0.7)))
        restart = RestartSpec(1.4, nu)
        proc = RestartedProcess(three_state_chain, restart)
        for k, t in ((1, 0.6), (2, 1.5), (3, 0.2)):
            closed = ctmc_modified_moment(three_state_chain, restart, k, t, 1)
            quad = proc.moment(k, t, 1)
            assert abs(closed - quad) < 1e-9 * max(1.0, abs(closed))

    def test_infinite_horizon_matches_invariant_vector(self, three_state_chain):
        nu = FiniteSupport(((0, 0.3), (2, 0.7)))
        restart = RestartSpec(1.4, nu)
        proc = RestartedProcess(three_state_chain, restart)
        q = proc.invariant_vector()
        got = ctmc_modified_moment(three_state_chain, restart, 2, math.inf, 0)
        assert abs(got - float(q @ three_state_chain.values**2)) < 1e-10

    def test_long_horizon_forgets_start(self, three_state_chain):
        nu = FiniteSupport(((1, 1.0),))
        restart = RestartSpec(2.0, nu)
        a = ctmc_modified_moment(three_state_chain, restart, 1, 25.0, 0)
        b = ctmc_modified_moment(three_state_chain, restart, 1, math.inf, 2)
        assert abs(a - b) < 1e-12


class _Drift(MarkovKernel):
    """Deterministic drift X(t) = x + t; closed moments, no certification."""

    @property
    def space(self):
        return RealLine()

    def transition_probability(self, t, x, target):
        return indicator(target, x + t)

    def sample_transition(self, t, x, rng):
        return x + t

    def moment(self, k, t, x):
        return (x + t) ** k


class _ClosedFormDrift(_Drift):
    """_Drift stating a closed form and a threshold of its own."""

    def restarted_moment(self, restart, k, t, x):
        self.asked = (restart, k, t, x)
        return 42.0

    def moment_growth_rate(self, k):
        return 0.25 * k


def _with_nu_and_start(base, atoms):
    return st.tuples(base, point_or_two_atom_laws(atoms), atoms)


_moment_cases = st.one_of(
    _with_nu_and_start(
        st.builds(BrownianWithDrift, st.floats(-2.0, 2.0), st.floats(0.2, 2.0)), st.floats(-2.0, 2.0)
    ),
    _with_nu_and_start(
        st.builds(GeometricBrownian, st.floats(-0.5, 0.5), st.floats(0.2, 1.0)), st.floats(0.2, 5.0)
    ),
    _with_nu_and_start(st.just(make_three_state_chain()), st.integers(0, 2)),
)


class TestRestartedMomentCapability:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        _moment_cases,
        st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
        st.integers(1, 3),
    )
    def test_closed_form_matches_quadrature_route(self, case, lam, t, k):
        # the quadrature of the base moments over the restart age is the
        # independent oracle: it never reads restarted_moment
        base, nu, x = case
        restart = RestartSpec(lam, nu)
        closed = base.restarted_moment(restart, k, t, x)
        quad = RestartedProcess(base, restart).moment(k, t, x)
        assert abs(closed - quad) <= 1e-12 + 1e-9 * abs(quad)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.floats(-12.0, -6.0).map(lambda e: 10.0**e), st.floats(0.1, 5.0))
    @example(1, 0.0, 3.0)
    @example(3, 0.0, 0.7)
    def test_gbm_near_resonance_matches_quadrature(self, k, eps, t):
        # lam just above eta_k: the finite-t term (1 - exp(-(lam - eta)*t))/(lam - eta)
        # cancels unless written with expm1; at eps = 0 it is its limit, lam*t
        base = GeometricBrownian(mu=0.6, sigma=0.8)
        restart = RestartSpec(base.moment_growth_rate(k) * (1.0 + eps), PointMass(1.5))
        closed = base.restarted_moment(restart, k, t, 1.2)
        quad = RestartedProcess(base, restart).moment(k, t, 1.2, rel_tol=1e-12)
        assert abs(closed - quad) <= 1e-9 * abs(quad)

    def test_modified_moment_takes_the_kernels_closed_form_and_threshold(self):
        base = _ClosedFormDrift()
        restart = RestartSpec(2.0, PointMass(0.0))
        with pytest.warns(FubiniUnverified):
            rep = modified_moment(RestartedProcess(base, restart), 2, math.inf, 0.5)
        assert (rep.analytic, rep.finiteness_threshold) == (42.0, 0.5)
        assert base.asked == (restart, 2, math.inf, 0.5)


class TestModifiedMomentDispatch:
    def test_report_fields_for_gbm(self):
        proc = RestartedProcess(GeometricBrownian(mu=0.5, sigma=0.5), RestartSpec(2.0, PointMass(1.0)))
        rep = modified_moment(proc, 1, 0.7, 1.0)
        assert rep.k == 1 and rep.t == 0.7
        assert abs(rep.finiteness_threshold - 0.5) < 1e-15
        assert rep.consistent() is None

    def test_threshold_only_for_gbm(self):
        proc = RestartedProcess(BrownianWithDrift(), RestartSpec(1.0, PointMass(0.0)))
        assert modified_moment(proc, 2, 1.0, 0.0).finiteness_threshold is None

    def test_consistency_against_estimates(self):
        proc = RestartedProcess(BrownianWithDrift(mu=1.0), RestartSpec(1.0, PointMass(0.0)))
        want = 1.0 - math.exp(-1.0)
        good = EstimatorReport(want + 0.002, 0.001, 1000)
        bad = EstimatorReport(want + 0.02, 0.001, 1000)
        assert modified_moment(proc, 1, 1.0, 0.0, empirical=good).consistent() is True
        assert modified_moment(proc, 1, 1.0, 0.0, empirical=bad).consistent() is False

    def test_divergent_moment_reports_none_consistency(self):
        proc = RestartedProcess(GeometricBrownian(mu=1.0, sigma=1.0), RestartSpec(1.0, PointMass(1.0)))
        rep = modified_moment(proc, 1, math.inf, 1.0, empirical=EstimatorReport(3.0, 0.1, 100))
        assert isinstance(rep.analytic, Divergent)
        assert rep.consistent() is None

    def test_fallback_kernel_warns_and_integrates(self):
        proc = RestartedProcess(_Drift(), RestartSpec(2.0, PointMass(0.0)))
        t, lam = 1.5, 2.0
        with pytest.warns(FubiniUnverified):
            rep = modified_moment(proc, 1, t, 0.0)
        # exp(-lam t)(x+t) + int_0^t lam e^{-lam s} s ds, x = 0
        want = math.exp(-lam * t) * t + (1.0 - (1.0 + lam * t) * math.exp(-lam * t)) / lam
        assert abs(rep.analytic - want) < 1e-9

    def test_fallback_kernel_rejects_infinite_horizon(self):
        proc = RestartedProcess(_Drift(), RestartSpec(2.0, PointMass(0.0)))
        with pytest.warns(FubiniUnverified):
            with pytest.raises(DomainError):
                modified_moment(proc, 1, math.inf, 0.0)

    def test_order_validation(self):
        proc = RestartedProcess(BrownianWithDrift(), RestartSpec(1.0, PointMass(0.0)))
        with pytest.raises(DomainError):
            modified_moment(proc, 0, 1.0, 0.0)
        rep = modified_moment(proc, 2.0, 1.0, 0.0)
        assert type(rep.k) is int and rep.analytic == modified_moment(proc, 2, 1.0, 0.0).analytic

    @pytest.mark.parametrize("k", [True, 2.5, math.inf, math.nan])
    def test_order_must_be_a_whole_number(self, k):
        # int(k) would take True as 1, truncate 2.5 to 2 and fail on inf and
        # nan with errors that name no argument
        proc = RestartedProcess(BrownianWithDrift(), RestartSpec(1.0, PointMass(0.0)))
        with pytest.raises(DomainError, match="moment order k"):
            modified_moment(proc, k, 1.0, 0.0)

    def test_table_shape(self):
        proc = RestartedProcess(BrownianWithDrift(), RestartSpec(1.0, PointMass(0.0)))
        cols, rows = modified_moment(proc, 2, 1.0, 0.0).table()
        assert cols[0] == "k" and len(rows) == 1 and len(rows[0]) == len(cols)


class TestErgodicity:
    def test_finite_chain_bound_holds(self, three_state_chain):
        nu = FiniteSupport(((0, 0.4), (1, 0.6)))
        proc = RestartedProcess(three_state_chain, RestartSpec(2.0, nu))
        sets = [Subset([0]), Subset([1]), Subset([2]), Subset([0, 2])]
        rep = ergodicity_check(proc, 0, (0.3, 1.0, 3.0), sets)
        assert rep.passed
        for row, t in zip(rep.rows, (0.3, 1.0, 3.0)):
            assert abs(row.bound - math.exp(-2.0 * t)) < 1e-15
            assert row.sup_deviation <= row.bound + 1e-6
            assert row.tv <= row.tv_bound + 1e-6

    def test_two_state_tv_closed_form(self):
        # lazy base chain (a=0): P(t,x,.) = delta_x before the first restart,
        # so tv(t) = exp(-lam t) exactly, saturating the bound
        chain = FiniteCTMC(np.zeros((2, 2)))
        proc = RestartedProcess(chain, RestartSpec(1.5, PointMass(1)))
        rep = ergodicity_check(proc, 0, (0.4, 2.0), [Subset([0]), Subset([1])])
        assert rep.passed
        for row in rep.rows:
            assert abs(row.tv - math.exp(-1.5 * row.t)) < 1e-9
            assert abs(row.sup_deviation - row.tv) < 1e-9

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_chain_target_out_of_range(self, three_state_chain, bad):
        # index -1 would otherwise silently read state 2
        proc = RestartedProcess(three_state_chain, RestartSpec(2.0, PointMass(0)))
        with pytest.raises(DomainError, match=rf"state indices \[{bad}\] out of range for n=3"):
            ergodicity_check(proc, 0, (1.0,), [Subset([0]), Subset([bad])])

    def test_continuous_kernel(self):
        proc = RestartedProcess(BrownianWithDrift(mu=0.0, sigma=1.0), RestartSpec(2.0, PointMass(0.0)))
        sets = [Interval(-0.5, 0.5), Interval(0.0, math.inf), Interval(-math.inf, -1.0)]
        rep = ergodicity_check(proc, 0.3, (0.5, 1.5, 4.0), sets)
        assert rep.passed
        assert all(r.tv is None for r in rep.rows)

    def test_finite_space_without_a_matrix(self, three_state_chain):
        # a chain seen through its masses only: no tv, and the deviations the
        # matrix route finds
        class MassesOnly(MarkovKernel):
            space = three_state_chain.space

            def transition_probability(self, t, x, target):
                return three_state_chain.transition_probability(t, x, target)

            def sample_transition(self, t, x, rng):
                return three_state_chain.sample_transition(t, x, rng)

        nu = FiniteSupport(((0, 0.4), (1, 0.6)))
        sets = [Subset([0]), Subset([1, 2])]
        rep = ergodicity_check(RestartedProcess(MassesOnly(), RestartSpec(2.0, nu)), 0, (0.3, 1.0), sets)
        want = ergodicity_check(RestartedProcess(three_state_chain, RestartSpec(2.0, nu)), 0, (0.3, 1.0), sets)
        assert rep.passed
        for row, exact in zip(rep.rows, want.rows):
            assert row.tv is None and row.tv_bound is None
            assert abs(row.sup_deviation - exact.sup_deviation) <= 1e-8

    def test_table(self, three_state_chain):
        proc = RestartedProcess(three_state_chain, RestartSpec(1.0, PointMass(0)))
        rep = ergodicity_check(proc, 0, (1.0,), [Subset([0])])
        cols, rows = rep.table()
        assert cols[0] == "t" and len(rows) == 1


class TestSmallLambdaSweep:
    def test_two_state_deviation_closed_form(self):
        a = 1.0
        chain = FiniteCTMC([[-a, a], [a, -a]])
        nu = PointMass(0)
        grid = (0.1, 0.05, 0.025, 0.0125, 0.00625)
        rep = small_lambda_sweep(chain, nu, [Subset([0])], grid)
        for row in rep.rows:
            lam = row.lam
            assert abs(row.l1_deviation - lam / (lam + 2.0 * a)) < 1e-12
            assert abs(row.masses[0] - (lam + a) / (lam + 2.0 * a)) < 1e-12
        assert 0.9 < rep.fitted_order <= 1.01

    def test_random_chain_converges_to_pi(self):
        rng = np.random.default_rng(12)
        from conftest import random_generator

        chain = FiniteCTMC(random_generator(rng, 4))
        nu = PointMass(2)
        rep = small_lambda_sweep(chain, nu, [Subset([0]), Subset([1, 3])], (0.2, 0.1, 0.05, 0.025))
        devs = [r.l1_deviation for r in rep.rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert 0.8 < rep.fitted_order < 1.2
        assert np.abs(rep.comparison @ chain.Q).max() < 1e-12

    def test_single_rate_reports_no_order(self, three_state_chain):
        # one point fixes no slope: np.polyfit would raise LinAlgError
        rep = small_lambda_sweep(three_state_chain, PointMass(2), [Subset([0])], (1.0,))
        assert rep.fitted_order is None
        assert len(rep.rows) == 1 and rep.rows[0].l1_deviation > 0.0

    def test_diffusion_masses_reported_without_comparison(self):
        kernel = BrownianWithDrift(mu=0.0, sigma=1.0)
        rep = small_lambda_sweep(kernel, PointMass(0.0), [Interval(-1.0, 1.0)], (1.0, 0.5))
        assert rep.comparison is None and rep.fitted_order is None
        for row in rep.rows:
            want = 1.0 - math.exp(-math.sqrt(2.0 * row.lam))
            assert abs(row.masses[0] - want) < 1e-8

    def test_grid_validation(self):
        chain = FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(DomainError):
            small_lambda_sweep(chain, PointMass(0), [Subset([0])], ())
        with pytest.raises(DomainError):
            small_lambda_sweep(chain, PointMass(0), [Subset([0])], (0.1, 0.2))
        with pytest.raises(DomainError):
            small_lambda_sweep(chain, PointMass(0), [Subset([0])], (0.1, -0.05))

    def test_table(self):
        chain = FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]])
        rep = small_lambda_sweep(chain, PointMass(0), [Subset([0])], (0.2, 0.1))
        cols, rows = rep.table()
        assert cols == ["lambda", "q_set0", "l1_deviation"]
        assert len(rows) == 2
