"""Composition of a base kernel with the restart clock, against exact references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import restartk.kernels
from restartk import (
    BrownianWithDrift,
    DomainError,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    Interval,
    PointMass,
    RestartSpec,
    RestartedProcess,
    SingularityAtOrigin,
    Subset,
    UnsupportedTarget,
    exponential,
    gaussian,
)

from conftest import cancelling_horizons, random_generator, resolvent, resolvent_matrix, restarted_generator


@pytest.fixture
def restarted_chain(three_state_chain):
    nu = FiniteSupport(((0, 0.2), (1, 0.5), (2, 0.3)))
    return RestartedProcess(three_state_chain, RestartSpec(rate=2.0, nu=nu))


@pytest.fixture
def restarted_bm():
    return RestartedProcess(BrownianWithDrift(mu=0.0, sigma=1.0), RestartSpec(2.0, PointMass(0.0)))


class TestRestartSpec:
    @pytest.mark.parametrize("rate", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        # no restart mode at rate 0: the invariant law needs a clock that rings
        with pytest.raises(DomainError, match="restart rate must be positive and finite"):
            RestartSpec(rate, PointMass(0.0))

    def test_nu_must_live_on_the_space(self):
        with pytest.raises(DomainError):
            RestartedProcess(GeometricBrownian(), RestartSpec(1.0, PointMass(-1.0)))
        with pytest.raises(DomainError):
            RestartedProcess(
                FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]]), RestartSpec(1.0, gaussian(0.0, 1.0))
            )


class TestChainComposition:
    def test_matrix_matches_restarted_generator_exponential(self, restarted_chain):
        # quadrature route vs expm of Q + lam*(1 nu^T - I), two independent paths
        chain = restarted_chain.base
        w = restarted_chain.restart.nu.weights(chain.space)
        ref = FiniteCTMC(restarted_generator(chain, restarted_chain.rate, w), chain.values)
        for t in (0.05, 0.3, 1.0, 4.0):
            got = restarted_chain.transition_matrix(t)
            assert np.abs(got - ref.transition_matrix(t)).max() < 1e-10

    def test_probability_consistent_with_matrix(self, restarted_chain):
        P = restarted_chain.transition_matrix(0.7)
        got = restarted_chain.transition_probability(0.7, 2, Subset([0, 1]))
        assert abs(got - (P[2, 0] + P[2, 1])) < 1e-10

    @pytest.mark.parametrize("t", [1e5, 1e6, 1e10])
    def test_probability_at_long_horizons(self, restarted_chain, t):
        # the quadrature over the restart age certified 1 - 1/e of the
        # restarts' mass here; the exact matrix is the invariant row
        P = restarted_chain.transition_matrix(t)
        for target in (Subset([0]), Subset([1, 2])):
            got = restarted_chain.transition_probability(t, 1, target)
            assert abs(got - sum(P[1, i] for i in target.indices)) < 1e-10

    def test_invariant_vector_two_references(self, restarted_chain):
        chain = restarted_chain.base
        lam = restarted_chain.rate
        w = restarted_chain.restart.nu.weights(chain.space)
        q = restarted_chain.invariant_vector()
        # reference 1: lam * nu (lam I - Q)^(-1)
        ref1 = lam * w @ resolvent_matrix(chain, lam)
        # reference 2: stationary law of the restarted generator
        ref2 = FiniteCTMC(restarted_generator(chain, lam, w), chain.values).stationary_distribution()
        assert np.abs(q - ref1).max() < 1e-10
        assert np.abs(q - ref2).max() < 1e-10
        assert abs(q.sum() - 1.0) < 1e-10

    def test_invariant_vector_is_fixed_point(self, restarted_chain):
        q = restarted_chain.invariant_vector()
        P = restarted_chain.transition_matrix(1.3)
        assert np.abs(q @ P - q).max() < 1e-9

    def test_invariant_measure_sums_vector_entries(self, restarted_chain):
        q = restarted_chain.invariant_vector()
        got = restarted_chain.invariant_measure(Subset([1, 2]))
        assert abs(got - (q[1] + q[2])) < 1e-9

    def test_chapman_kolmogorov(self, restarted_chain):
        s, t = 0.4, 0.9
        Ps = restarted_chain.transition_matrix(s)
        Pt = restarted_chain.transition_matrix(t)
        assert np.abs(Ps @ Pt - restarted_chain.transition_matrix(s + t)).max() < 1e-9

    def test_sampler_matches_matrix_row(self, restarted_chain):
        rng = np.random.default_rng(17)
        t, n = 0.6, 20000
        counts = np.zeros(3)
        for _ in range(n):
            counts[restarted_chain.sample_transition(t, 0, rng)] += 1
        row = restarted_chain.transition_matrix(t)[0]
        for i in range(3):
            sd = math.sqrt(row[i] * (1 - row[i]) / n)
            assert abs(counts[i] / n - row[i]) < 4.5 * sd


class TestBrownianComposition:
    def test_invariant_density_is_laplace(self, restarted_bm):
        # zero drift, restart to the origin: q(z) = sqrt(lam/2)/sigma * exp(-sqrt(2 lam)|z|/sigma)
        lam = restarted_bm.rate
        for z in (0.0, 0.3, -0.7, 1.5):
            want = math.sqrt(lam / 2.0) * math.exp(-math.sqrt(2.0 * lam) * abs(z))
            assert abs(restarted_bm.invariant_density(z) - want) < 1e-9

    def test_invariant_measure_matches_density_integral(self, restarted_bm):
        got = restarted_bm.invariant_measure(Interval(-0.5, 1.0))
        want, _ = integrate.quad(restarted_bm.invariant_density, -0.5, 1.0)
        assert abs(got - want) < 1e-8

    def test_invariant_measure_normalised(self, restarted_bm):
        assert abs(restarted_bm.invariant_measure(restarted_bm.space.whole()) - 1.0) < 1e-8

    def test_transition_density_normalised_and_consistent(self, restarted_bm):
        t, x = 0.7, 0.4
        mass, _ = integrate.quad(
            lambda z: restarted_bm.transition_density(t, x, z), -8.0, 8.0, limit=100
        )
        assert abs(mass - 1.0) < 1e-7
        prob, _ = integrate.quad(
            lambda z: restarted_bm.transition_density(t, x, z), -0.2, 0.9, limit=100
        )
        assert abs(prob - restarted_bm.transition_probability(t, x, Interval(-0.2, 0.9))) < 1e-7

    def test_chapman_kolmogorov_by_convolution(self, restarted_bm):
        s, t, x = 0.4, 0.4, 0.2
        target = Interval(0.0, 1.0)
        conv, _ = integrate.quad(
            lambda y: restarted_bm.transition_density(s, x, y)
            * restarted_bm.transition_probability(t, y, target, rel_tol=1e-8),
            -7.0,
            7.0,
            limit=60,
            epsabs=1e-9,
            epsrel=1e-8,
        )
        want = restarted_bm.transition_probability(s + t, x, target)
        assert abs(conv - want) < 1e-6

    def test_first_moment_closed_form(self):
        # drifted BM restarted to the origin: E_0[X(t)] = (mu/lam)(1 - exp(-lam t))
        proc = RestartedProcess(BrownianWithDrift(mu=1.0, sigma=1.0), RestartSpec(1.0, PointMass(0.0)))
        got = proc.moment(1, 1.0, 0.0)
        assert abs(got - (1.0 - math.exp(-1.0))) < 1e-10

    def test_moment_matches_density_quadrature(self, restarted_bm):
        t, x = 0.9, 0.5
        want, _ = integrate.quad(
            lambda z: z * z * restarted_bm.transition_density(t, x, z), -8.0, 8.0, limit=100
        )
        assert abs(restarted_bm.moment(2, t, x) - want) < 1e-7

    def test_sampler_mean_matches_moment(self):
        proc = RestartedProcess(BrownianWithDrift(mu=1.0, sigma=0.5), RestartSpec(2.0, PointMass(0.0)))
        rng = np.random.default_rng(23)
        t, x, n = 0.8, 0.0, 40000
        draws = np.array([proc.sample_transition(t, x, rng) for _ in range(n)])
        want = proc.moment(1, t, x)
        second = proc.moment(2, t, x)
        sd = math.sqrt(second - want * want)
        assert abs(draws.mean() - want) < 5 * sd / math.sqrt(n)

    def test_moment_asks_the_base_once_at_t(self):
        # the no-restart term reuses the value that decides closed form or None
        asked = []

        class Spied(BrownianWithDrift):
            def moment(self, k, t, x):
                asked.append(t)
                return super().moment(k, t, x)

        restart = RestartSpec(2.0, PointMass(0.0))
        got = RestartedProcess(Spied(mu=0.3, sigma=0.7), restart).moment(2, 1.0, 0.4)
        assert asked == [1.0]
        assert got == RestartedProcess(BrownianWithDrift(mu=0.3, sigma=0.7), restart).moment(2, 1.0, 0.4)


class TestDensityRestartLaw:
    def test_gbm_with_density_redraw_normalises(self):
        proc = RestartedProcess(
            GeometricBrownian(mu=0.3, sigma=0.4), RestartSpec(1.5, exponential(1.0))
        )
        got = proc.invariant_measure(proc.space.whole(), rel_tol=1e-8)
        assert abs(got - 1.0) < 1e-6

    def test_gbm_invariant_measure_monotone_in_target(self):
        proc = RestartedProcess(
            GeometricBrownian(mu=0.3, sigma=0.4), RestartSpec(1.5, PointMass(1.0))
        )
        a = proc.invariant_measure(Interval(0.0, 1.0))
        b = proc.invariant_measure(Interval(0.0, 2.0))
        assert 0.0 < a < b < 1.0


# a base kernel (made afresh, so a chain starts with an empty memo), a start,
# a target, a point law and atoms for a finite law; a density law lives on a
# continuous space only
_ARRAY_CASES = {
    "bm": (lambda: BrownianWithDrift(0.3, 1.2), 0.2, Interval(-0.5, 1.0), (PointMass(0.0), ((0.0, 0.6), (1.0, 0.4)))),
    "gbm": (lambda: GeometricBrownian(0.1, 0.4), 1.1, Interval(0.8, 1.5), (PointMass(1.0), ((0.9, 0.3), (1.4, 0.7)))),
    "chain": (
        lambda: FiniteCTMC([[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]),
        1,
        Subset([0, 2]),
        (PointMass(2), ((0, 0.5), (2, 0.5))),
    ),
    # a target of more states than numpy's unrolled sum adds one by one
    "chain12": (
        lambda: FiniteCTMC(random_generator(np.random.default_rng(12), 12)),
        4,
        Subset([0, 1, 2, 3, 5, 6, 8, 9, 10, 11]),
        (PointMass(7), ((3, 0.4), (10, 0.6))),
    ),
}


def _array_case(kind, nu_kind, rate):
    make, x, target, (point, atoms) = _ARRAY_CASES[kind]
    base = make()
    density = gaussian(x, 0.5) if kind == "bm" else exponential(1.0)
    nu = {"point": point, "finite": FiniteSupport(atoms), "density": density}[nu_kind]
    return RestartedProcess(base, RestartSpec(rate, nu)), x, target


class TestArrayOfTimes:
    """transition_probability at a 1-D array of times is the float calls at
    each of them, bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from([(k, n) for k in _ARRAY_CASES for n in ("point", "finite")]),
        rate=st.floats(0.2, 5.0),
        times=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 6.0)), min_size=1, max_size=6),
        repeat=st.integers(0, 5),
    )
    def test_array_is_the_float_calls(self, case, rate, times, repeat):
        proc, x, target = _array_case(*case, rate)
        # unsorted, one time repeated
        t = np.array(times + [times[repeat % len(times)]])
        want = [proc.transition_probability(s, x, target) for s in t.tolist()]
        # on a fresh kernel, whose chain memo the float calls did not fill
        proc, x, target = _array_case(*case, rate)
        got = proc.transition_probability(t, x, target)
        assert got.tobytes() == np.array(want).tobytes()

    def test_no_restart_weight_is_the_float_calls_exp(self):
        # times where numpy's exp(-t) differs from math.exp(-t) in the last
        # bit on some hosts (found on an x86-64 one), and P~ with it
        proc, x, target = _array_case("bm", "point", 1.0)
        t = np.array([0.526966861807677, 0.17570410441558304, 0.12920066570461253, 0.26680692073881596])
        want = [proc.transition_probability(s, x, target) for s in t.tolist()]
        assert proc.transition_probability(t, x, target).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", list(_ARRAY_CASES))
    def test_one_time_is_the_float_call(self, kind):
        proc, x, target = _array_case(kind, "point", 0.7)
        for s in (0.0, 0.013, 0.4, 2.5):
            want = np.array([proc.transition_probability(s, x, target)])
            assert proc.transition_probability(np.array([s]), x, target).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(_ARRAY_CASES))
    def test_empty_array_gives_empty_results(self, kind):
        proc, x, target = _array_case(kind, "point", 0.7)
        t = np.array([])
        assert proc.transition_probability(t, x, target).shape == (0,)
        if proc._has_matrix():
            n = proc.space.n
            assert proc.base.transition_matrices(t).shape == (0, n, n)
            assert proc.transition_matrices(t).shape == (0, n, n)

    @pytest.mark.parametrize("kind", ["bm", "gbm"])
    def test_density_law_takes_the_times_one_by_one(self, kind):
        proc, x, target = _array_case(kind, "density", 1.3)
        t = np.array([0.7, 0.0, 0.7])
        want = [proc.transition_probability(s, x, target) for s in t.tolist()]
        assert proc.transition_probability(t, x, target).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", ["bm", "gbm", "chain"])
    def test_stationary_probability_takes_an_array_of_horizons(self, kind):
        proc, _, target = _array_case(kind, "point", 0.9)
        y = proc.restart.nu.x
        t = np.array([2.0, math.inf, 0.0, 0.4, 2.0])
        got = proc.base.stationary_probability(0.9, y, target, t)
        want = [proc.base.stationary_probability(0.9, y, target, s) for s in t.tolist()]
        assert got.tobytes() == np.array(want).tobytes()

    def test_chain_makes_one_quadrature_call_per_atom(self, monkeypatch):
        calls = []
        evaluate = restartk.kernels.exp_weighted_integral

        def counting(f, lam, upper, **kw):
            calls.append(upper.tolist())
            return evaluate(f, lam, upper, **kw)

        monkeypatch.setattr(restartk.kernels, "exp_weighted_integral", counting)
        proc, x, target = _array_case("chain", "finite", 1.5)
        times = [0.5, 0.0, 1.5, 0.05, 3.0]
        proc.transition_probability(np.array(times), x, target)
        # the two atoms, each at the horizons where the resolvent identity
        # would cancel, in the order given: here the short one alone
        want = [cancelling_horizons(proc.base, 1.5, y, target, times) for y, _ in proc.restart.nu.points]
        assert want == [[0.05], [0.05]]
        assert calls == want

    def test_times_are_checked_first_and_must_be_one_dimensional(self, restarted_bm):
        with pytest.raises(DomainError, match="time must be nonnegative and finite, got inf"):
            restarted_bm.transition_probability(np.array([0.5, math.inf]), 0.0, Subset([0]))
        with pytest.raises(DomainError, match="1-D"):
            restarted_bm.transition_probability(np.ones((2, 2)), 0.0, Interval(0.0, 1.0))
        with pytest.raises(UnsupportedTarget):
            restarted_bm.transition_probability(np.array([0.5]), 0.0, Subset([0]))
        with pytest.raises(DomainError, match="horizon must be nonnegative or inf, got -1.0"):
            restarted_bm.base.stationary_probability(1.0, 0.0, Interval(0.0, 1.0), np.array([1.0, -1.0]))


class TestEdgeBehaviour:
    def test_time_zero(self, restarted_bm):
        assert restarted_bm.transition_probability(0.0, 0.3, Interval(0.0, 1.0)) == 1.0
        assert restarted_bm.moment(2, 0.0, 0.5) == 0.25
        with pytest.raises(SingularityAtOrigin):
            restarted_bm.transition_density(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_times_are_refused(self, restarted_bm, restarted_chain, t):
        target = Interval(0.0, 1.0)
        calls = [
            lambda: restarted_bm.transition_probability(t, 0.0, target),
            lambda: restarted_bm.transition_density(t, 0.0, 0.5),
            lambda: restarted_bm.moment(2, t, 0.0),
            lambda: restarted_chain.transition_probability(t, 0, Subset([1])),
            lambda: restarted_chain.transition_matrix(t),
        ]
        for base, x in ((BrownianWithDrift(), 0.0), (GeometricBrownian(), 1.0)):
            calls += [
                lambda base=base, x=x: base.transition_probabilities(np.array([1.0, t]), x, target),
                lambda base=base, x=x: base.transition_densities(np.array([t]), x, 0.5),
                lambda base=base, x=x: base.moments(1, np.array([t]), x),
            ]
        calls.append(lambda: restarted_chain.base.transition_matrices([t]))
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_points_are_refused(self, restarted_bm, z):
        # like a non-finite start state: a NaN point used to give a nan
        # density and a +-inf one a density of 0 on the real line
        gbm = RestartedProcess(GeometricBrownian(mu=0.1, sigma=0.5), RestartSpec(0.5, PointMass(1.0)))
        for proc in (restarted_bm, gbm):
            for call in (lambda: proc.transition_density(0.5, 1.0, z), lambda: proc.invariant_density(z)):
                with pytest.raises(DomainError, match=f"state {z} is not in"):
                    call()

    def test_wrong_target_type(self, restarted_bm, restarted_chain):
        with pytest.raises(UnsupportedTarget):
            restarted_bm.transition_probability(1.0, 0.0, Subset([0]))
        with pytest.raises(UnsupportedTarget):
            restarted_chain.invariant_measure(Interval(0.0, 1.0))

    def test_negative_time(self, restarted_bm):
        with pytest.raises(DomainError):
            restarted_bm.transition_probability(-0.1, 0.0, Interval(0.0, 1.0))

    def test_invariant_vector_needs_finite_space(self, restarted_bm):
        with pytest.raises(DomainError):
            restarted_bm.invariant_vector()


class TestResolvent:
    def test_matches_invariant_measure(self, restarted_bm):
        lam = restarted_bm.rate
        target = Interval(-0.5, 0.5)
        r = resolvent(restarted_bm.base, lam, 0.0, target)
        assert abs(lam * r - restarted_bm.invariant_measure(target)) < 1e-8

    def test_chain_resolvent_matches_matrix(self, three_state_chain):
        lam = 1.7
        R = resolvent_matrix(three_state_chain, lam)
        got = resolvent(three_state_chain, lam, 1, Subset([0, 2]))
        assert abs(got - (R[1, 0] + R[1, 2])) < 1e-9

    def test_rejects_bad_rate(self, three_state_chain):
        with pytest.raises(DomainError):
            resolvent(three_state_chain, 0.0, 0, Subset([0]))
