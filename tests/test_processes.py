"""Base kernels: Gaussian laws, log-space laws, and generator matrices."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import expm

import restartk.processes
from restartk import (
    BrownianWithDrift,
    DomainError,
    FiniteCTMC,
    GeometricBrownian,
    Interval,
    MarkovKernel,
    PointMass,
    RestartedProcess,
    RestartSpec,
    Subset,
    ctmc_from_dict,
    ctmc_from_json,
    exp_weighted_integral,
    gaussian,
    gaussian_raw_moment,
    gbm_stationary_moment,
)

from conftest import make_three_state_chain, random_generator, resolvent_matrix, restarted_generator

_BOUNDS = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-math.inf, math.inf]))


def _phi(u):
    return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))


class TestBrownianWithDrift:
    def test_transition_probability_against_erf(self):
        p = BrownianWithDrift(mu=0.5, sigma=2.0)
        t, x = 1.5, 0.3
        m, sd = x + 0.5 * t, 2.0 * math.sqrt(t)
        got = p.transition_probability(t, x, Interval(-1.0, 2.0))
        want = _phi((2.0 - m) / sd) - _phi((-1.0 - m) / sd)
        assert abs(got - want) < 1e-12

    def test_density_normalises_and_matches_probability(self):
        p = BrownianWithDrift(mu=-0.3, sigma=0.7)
        t, x = 0.8, 1.0
        mass, _ = integrate.quad(lambda z: p.transition_density(t, x, z), -10.0, 10.0)
        assert abs(mass - 1.0) < 1e-9
        prob, _ = integrate.quad(lambda z: p.transition_density(t, x, z), 0.0, 1.5)
        assert abs(prob - p.transition_probability(t, x, Interval(0.0, 1.5))) < 1e-9

    def test_chapman_kolmogorov_by_convolution(self):
        p = BrownianWithDrift(mu=0.4, sigma=1.2)
        s, t, x, z = 0.5, 0.9, 0.2, 1.1
        conv, _ = integrate.quad(
            lambda y: p.transition_density(s, x, y) * p.transition_density(t, y, z),
            -15.0,
            15.0,
        )
        assert abs(conv - p.transition_density(s + t, x, z)) < 1e-9

    def test_moments_match_density_quadrature(self):
        p = BrownianWithDrift(mu=0.5, sigma=1.5)
        t, x = 0.7, -0.4
        for k in range(5):
            numeric, _ = integrate.quad(
                lambda z: z**k * p.transition_density(t, x, z), -20.0, 20.0
            )
            assert abs(p.moment(k, t, x) - numeric) < 1e-8 * max(1.0, abs(numeric))

    def test_time_zero(self):
        p = BrownianWithDrift()
        assert p.transition_probability(0.0, 0.5, Interval(0.0, 1.0)) == 1.0
        assert p.transition_probability(0.0, 2.0, Interval(0.0, 1.0)) == 0.0
        assert p.moment(3, 0.0, 2.0) == 8.0
        with pytest.raises(DomainError):
            p.transition_density(0.0, 0.0, 0.0)

    def test_sampler_moments(self):
        p = BrownianWithDrift(mu=1.0, sigma=0.5)
        rng = np.random.default_rng(3)
        t, x, n = 0.6, 0.2, 50000
        draws = np.array([p.sample_transition(t, x, rng) for _ in range(n)])
        assert abs(draws.mean() - (x + 1.0 * t)) < 5 * 0.5 * math.sqrt(t / n)
        assert abs(draws.var() - 0.25 * t) < 0.01

    def test_density_envelope_uniform_past_s_min(self):
        p = BrownianWithDrift(mu=0.8, sigma=0.9)
        s_min = 0.2
        C, eta = p.density_envelope(1.3, s_min)
        assert eta == 0.0
        for s in (0.2, 0.5, 1.0, 4.0, 30.0):
            for z in (-3.0, 0.0, 1.3, 5.0):
                assert p.transition_density(s, 0.0, z) <= C * math.exp(eta * s) + 1e-15

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            BrownianWithDrift(sigma=0.0)
        with pytest.raises(DomainError):
            BrownianWithDrift(mu=math.inf)
        with pytest.raises(DomainError):
            BrownianWithDrift().transition_probability(-1.0, 0.0, Interval(0.0, 1.0))


class TestGeometricBrownian:
    def test_transition_probability_against_erf(self):
        p = GeometricBrownian(mu=0.1, sigma=0.4)
        t, x = 2.0, 1.5
        m = math.log(x) + (0.1 - 0.5 * 0.16) * t
        sd = 0.4 * math.sqrt(t)
        got = p.transition_probability(t, x, Interval(1.0, 3.0))
        want = _phi((math.log(3.0) - m) / sd) - _phi((math.log(1.0) - m) / sd)
        assert abs(got - want) < 1e-12

    def test_targets_touching_zero(self):
        p = GeometricBrownian(mu=0.1, sigma=0.4)
        a = p.transition_probability(1.0, 1.0, Interval(0.0, 2.0))
        b = p.transition_probability(1.0, 1.0, Interval(-math.inf, 2.0))
        assert abs(a - b) < 1e-15

    def test_density_normalises(self):
        p = GeometricBrownian(mu=0.2, sigma=0.5)
        mass, _ = integrate.quad(
            lambda z: p.transition_density(1.3, 0.8, z), 0.0, math.inf, limit=200
        )
        assert abs(mass - 1.0) < 1e-9

    def test_moment_growth_rates(self):
        p = GeometricBrownian(mu=0.25, sigma=0.6)
        assert abs(p.moment_growth_rate(1) - 0.25) < 1e-15
        assert abs(p.moment_growth_rate(2) - (2 * 0.25 + 0.36)) < 1e-15
        # k=1 moment is the exponential of the drift alone
        assert abs(p.moment(1, 2.0, 1.5) - 1.5 * math.exp(0.5)) < 1e-12

    def test_moments_match_density_quadrature(self):
        p = GeometricBrownian(mu=0.1, sigma=0.3)
        t, x = 0.9, 1.2
        for k in (1, 2, 3):
            numeric, _ = integrate.quad(
                lambda z: z**k * p.transition_density(t, x, z), 0.0, 60.0, limit=300
            )
            assert abs(p.moment(k, t, x) - numeric) < 1e-7 * max(1.0, abs(numeric))

    def test_sampler_is_lognormal(self):
        p = GeometricBrownian(mu=0.2, sigma=0.5)
        rng = np.random.default_rng(5)
        t, x, n = 0.8, 1.0, 50000
        logs = np.array([math.log(p.sample_transition(t, x, rng)) for _ in range(n)])
        m = math.log(x) + (0.2 - 0.125) * t
        sd = 0.5 * math.sqrt(t)
        assert abs(logs.mean() - m) < 5 * sd / math.sqrt(n)
        assert abs(logs.std() - sd) < 0.01

    def test_positivity_validation(self):
        p = GeometricBrownian()
        with pytest.raises(DomainError):
            p.transition_probability(1.0, 0.0, Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            p.transition_density(1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            p.sample_transition(1.0, -1.0, np.random.default_rng(0))
        with pytest.raises(DomainError):
            p.density_envelope(0.0, 0.1)


class TestFiniteCTMC:
    def test_two_state_symmetric_closed_form(self):
        chain = FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]])
        t = math.log(2.0) / 2.0
        P = chain.transition_matrix(t)
        # P00(t) = (1 + exp(-2t))/2 = 3/4 at t = ln(2)/2
        assert abs(P[0, 0] - 0.75) < 1e-14
        assert abs(P[0, 1] - 0.25) < 1e-14

    def test_two_state_asymmetric_closed_form(self):
        a, b, t = 2.0, 3.0, 0.4
        chain = FiniteCTMC([[-a, a], [b, -b]])
        P = chain.transition_matrix(t)
        want00 = b / (a + b) + a / (a + b) * math.exp(-(a + b) * t)
        assert abs(P[0, 0] - want00) < 1e-13

    def test_rows_are_distributions(self, three_state_chain):
        for t in (0.0, 0.05, 1.0, 8.0):
            P = three_state_chain.transition_matrix(t)
            assert np.all(P >= -1e-15)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_chapman_kolmogorov_exact(self, three_state_chain):
        s, t = 0.3, 1.1
        Ps = three_state_chain.transition_matrix(s)
        Pt = three_state_chain.transition_matrix(t)
        Pst = three_state_chain.transition_matrix(s + t)
        assert np.abs(Ps @ Pt - Pst).max() < 1e-13

    def test_transition_probability_sums_rows(self, three_state_chain):
        got = three_state_chain.transition_probability(0.7, 1, Subset([0, 2]))
        P = three_state_chain.transition_matrix(0.7)
        assert abs(got - (P[1, 0] + P[1, 2])) < 1e-15

    def test_stationary_distribution(self, three_state_chain):
        pi = three_state_chain.stationary_distribution()
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.abs(pi @ three_state_chain.Q).max() < 1e-12
        P = three_state_chain.transition_matrix(2.0)
        assert np.abs(pi @ P - pi).max() < 1e-12

    def test_resolvent_matches_weighted_time_integral(self, three_state_chain):
        # lam*(lam I - Q)^(-1) is the exponentially weighted average of e^{Qs}
        lam = 1.3
        R = lam * resolvent_matrix(three_state_chain, lam)
        r = exp_weighted_integral(
            three_state_chain.transition_matrices, lam, math.inf, rel_tol=1e-11
        )
        assert np.abs(r.value - R).max() < 1e-9

    def test_restarted_generator_is_a_generator(self, three_state_chain):
        nu = np.array([0.2, 0.5, 0.3])
        G = restarted_generator(three_state_chain, 2.0, nu)
        assert np.allclose(G.sum(axis=1), 0.0, atol=1e-13)
        off = G - np.diag(np.diag(G))
        assert np.all(off >= 0.0)

    def test_sampler_matches_matrix(self):
        a = 1.5
        chain = FiniteCTMC([[-a, a], [a, -a]])
        rng = np.random.default_rng(9)
        t, n = 0.5, 20000
        stays = sum(chain.sample_transition(t, 0, rng) == 0 for _ in range(n)) / n
        want = 0.5 * (1.0 + math.exp(-2 * a * t))
        assert abs(stays - want) < 4.0 * math.sqrt(want * (1 - want) / n)

    def test_moment_and_state_values(self):
        chain = FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]], state_values=[2.0, -1.0])
        assert chain.space.values == (2.0, -1.0)
        t = 0.3
        P = chain.transition_matrix(t)
        want = P[0, 0] * 4.0 + P[0, 1] * 1.0
        assert abs(chain.moment(2, t, 0) - want) < 1e-14

    def test_default_labels_are_indices(self):
        chain = FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]])
        assert chain.values.tolist() == [0.0, 1.0]

    def test_generator_validation(self):
        with pytest.raises(DomainError, match="square"):
            FiniteCTMC([[-1.0, 1.0]])
        with pytest.raises(DomainError, match=r"Q\[0,1\]"):
            FiniteCTMC([[1.0, -1.0], [1.0, -1.0]])
        with pytest.raises(DomainError, match="row 1"):
            FiniteCTMC([[-1.0, 1.0], [1.0, -0.5]])
        with pytest.raises(DomainError, match="finite"):
            FiniteCTMC([[-math.inf, math.inf], [1.0, -1.0]])
        with pytest.raises(DomainError, match="labels"):
            FiniteCTMC([[-1.0, 1.0], [1.0, -1.0]], state_values=[1.0])
        # the row sum once printed as "np.float64(-0.5)"; of two negative
        # off-diagonal entries the first in row-major order is named
        for Q, message in (
            ([[-1.0, 0.5], [1.0, -1.0]], "row 0 of the generator sums to -0.5, expected 0"),
            ([[-1.0, 1.5, -0.5], [-0.25, 0.0, 0.25], [0.0, 0.0, 0.0]], "off-diagonal entry Q[0,2]=-0.5 is negative"),
        ):
            with pytest.raises(DomainError) as err:
                FiniteCTMC(Q)
            assert str(err.value) == message

    def test_matrix_exponential_overflow_diagnostic(self):
        chain = FiniteCTMC([[-1e200, 1e200], [1e200, -1e200]])
        with pytest.raises(DomainError, match="rescale"):
            chain.transition_matrix(1.0)

    def test_negative_time_rejected(self, three_state_chain):
        with pytest.raises(DomainError):
            three_state_chain.transition_matrix(-0.1)

    @pytest.mark.parametrize("x", [-1, 3, np.int64(-1), 1.5, math.nan, math.inf])
    def test_start_states_outside_the_space_are_refused(self, three_state_chain, x):
        # state -1 would silently read row 2, state 3 raise a bare IndexError,
        # state 1.5 be read as state 1, and int() of NaN or inf raise a bare
        # ValueError or OverflowError; no cast of them may warn either
        chain, rng, g = three_state_chain, np.random.default_rng(0), Subset([0])
        for call in (
            lambda: chain.transition_probability(1.0, x, g),
            lambda: chain.transition_probabilities(np.array([0.5, 1.0]), x, g),
            lambda: chain.moment(1, 1.0, x),
            lambda: chain.moments(1, np.array([0.5, 1.0]), x),
            lambda: chain.sample_transition(1.0, x, rng),
            lambda: chain.sample_transitions(1.0, np.array([0, x]), rng),
            lambda: chain.stationary_probability(1.5, x, g),
            lambda: chain.restarted_moment(RestartSpec(1.5, PointMass(0)), 1, 1.0, x),
            lambda: chain.restarted_moment(RestartSpec(1.5, PointMass(0)), 1, math.inf, x),
            # the restarted chain at t = 0 asks the chain's own t = 0 forms
            lambda: RestartedProcess(chain, RestartSpec(1.5, PointMass(0))).transition_probability(0.0, x, g),
            lambda: RestartedProcess(chain, RestartSpec(1.5, PointMass(0))).moment(1, 0.0, x),
        ):
            with warnings.catch_warnings(), pytest.raises(
                DomainError, match=rf"state {x} is not in FiniteSet\(values=\(0.3, -1.2, 2.5\)\)"
            ):
                warnings.simplefilter("error")
                call()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_target_indices_outside_the_space_are_refused(self, three_state_chain, bad):
        # Subset([-1]) would silently read column 2
        chain, g = three_state_chain, Subset([0, bad])
        for call in (
            lambda: chain.transition_probability(1.0, 0, g),
            lambda: chain.transition_probabilities(np.array([0.5, 1.0]), 0, g),
            lambda: chain.stationary_probability(1.5, 0, g),
        ):
            with pytest.raises(DomainError, match=rf"state indices \[{bad}\] out of range for n=3"):
                call()


_RATES = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))


@st.composite
def _generators(draw):
    """Generators of 1-8 states, each off-diagonal rate 0 or log-uniform on
    [1e-3, 1e3]: absorbing states and reducible chains come with the zeros.
    Each row with a rate sums to 0 or to half the rounding the constructor
    allows, of either sign, as rates written in rounded decimals do."""
    n = draw(st.integers(1, 8))
    Q = np.array(draw(st.lists(_RATES, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    drift = np.array(draw(st.lists(st.sampled_from([0.0, 5e-13, -5e-13]), min_size=n, max_size=n)))
    np.fill_diagonal(Q, np.diag(Q) + np.where(np.diag(Q) < 0.0, drift, 0.0) * max(1.0, np.abs(Q).max()))
    return Q


class TestChainExponential:
    """exp(Q*t) of the chain's stacked Pade pass against mpmath's at 30 digits."""

    @settings(max_examples=36, deadline=None)
    @given(_generators(), st.floats(-6.0, 3.0))
    def test_entries_are_within_1e_12_of_mpmath(self, Q, log_norm_t):
        mp = pytest.importorskip("mpmath")
        norm = np.abs(Q).sum(axis=0).max()
        # ||Q||_1 * t from 1e-6 to 1e3; a zero generator takes t itself
        t = 10.0**log_norm_t / (norm if norm > 0.0 else 1.0)
        with mp.workdps(30):
            want = mp.expm(mp.matrix(Q.tolist()) * mp.mpf(t))
            want = np.array([[float(want[i, j]) for j in range(len(Q))] for i in range(len(Q))])
        got = FiniteCTMC(Q).transition_matrix(t)
        assert np.abs(got - want).max() <= 1e-12, np.abs(got - want).max()

    @pytest.mark.parametrize("t", [1.0, 1e2, 1e4, 1e6])
    def test_rows_that_sum_to_rounding_drift_as_scipy_does(self, t):
        # the constructor takes this generator (row 0 sums to 5e-13), and
        # exp(Q*t) rows then drift from 1 by about 5e-13 * t, past the
        # rounding of the pass from t = 1 on
        Q = np.array([[-1.0, 1.0000000000005], [1.0, -1.0]])
        got = FiniteCTMC(Q).transition_matrix(t)
        assert np.abs(got - expm(Q * t)).max() <= 1e-15 * max(1.0, t)

    def test_a_zero_generator_is_the_identity_at_every_time(self):
        # every state absorbing: ||Q|| = 0, and no time squares
        got = FiniteCTMC(np.zeros((3, 3))).transition_matrices(np.array([0.0, 1.0, 1e300]))
        assert np.array_equal(got, np.broadcast_to(np.eye(3), (3, 3, 3)))

    @pytest.mark.parametrize(
        "Q, t",
        [
            ([[-1e300, 1e300], [1e300, -1e300]], [1e10]),
            ([[-1e300, 1e300], [1e300, -1e300]], [1.0, 1e10]),
            # ||Q||*t is finite, but the rows drift past the float range: the
            # drift bound is inf there, and only its cap refuses the inf rows
            ([[-1.0, 1.0000000000005], [1.0, -1.0]], [1e16]),
        ],
    )
    def test_a_result_past_the_float_range_asks_for_a_rescale(self, Q, t):
        # the rates-1e200 case, whose squarings drain every row, is the overflow diagnostic above
        with pytest.raises(DomainError, match="rescale the generator"):
            FiniteCTMC(Q).transition_matrices(np.array(t))


class TestArraySamplers:
    """``sample_transitions``: one exact draw per path, each after its own time."""

    def test_brownian_scores_are_standard_normal(self):
        p = BrownianWithDrift(mu=0.7, sigma=1.3)
        n = 40000
        t = np.where(np.arange(n) % 2 == 0, 0.3, 2.1)
        x = np.linspace(-1.0, 1.0, n)
        z = (p.sample_transitions(t, x, np.random.default_rng(4)) - x - 0.7 * t) / (1.3 * np.sqrt(t))
        assert abs(z.mean()) < 4.5 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.5 * math.sqrt(2.0 / n)
        assert np.array_equal(p.sample_transitions(0.0, x, np.random.default_rng(4)), x)

    def test_geometric_log_scores_are_standard_normal(self):
        p = GeometricBrownian(mu=0.2, sigma=0.6)
        n = 40000
        t = np.where(np.arange(n) % 2 == 0, 0.5, 1.7)
        x = np.full(n, 2.0)
        draws = p.sample_transitions(t, x, np.random.default_rng(6))
        z = (np.log(draws / x) - (0.2 - 0.18) * t) / (0.6 * np.sqrt(t))
        assert abs(z.mean()) < 4.5 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.5 * math.sqrt(2.0 / n)
        assert np.array_equal(p.sample_transitions(0.0, x, np.random.default_rng(6)), x)

    def test_chain_frequencies_match_matrix_rows(self, three_state_chain):
        n = 30000
        starts = np.tile([0, 2], n // 2)
        t = np.repeat([0.4, 1.5], n // 2)
        draws = three_state_chain.sample_transitions(t, starts, np.random.default_rng(8))
        assert draws.dtype == np.int64
        for time in (0.4, 1.5):
            for start in (0, 2):
                mine = draws[(t == time) & (starts == start)]
                row = three_state_chain.transition_matrix(time)[start]
                for i in range(3):
                    sd = math.sqrt(row[i] * (1.0 - row[i]) / len(mine))
                    assert abs(np.mean(mine == i) - row[i]) < 4.5 * sd

    def test_chain_absorbing_state_stays(self):
        chain = FiniteCTMC([[-1.0, 1.0], [0.0, 0.0]])
        n, t = 20000, 0.8
        draws = chain.sample_transitions(t, np.tile([0, 1], n // 2), np.random.default_rng(2))
        assert np.all(draws[1::2] == 1)
        stay = math.exp(-t)
        assert abs(np.mean(draws[::2] == 0) - stay) < 4.5 * math.sqrt(stay * (1 - stay) / (n // 2))

    def test_validation(self, three_state_chain):
        rng = np.random.default_rng(0)
        for kernel, x in (
            (BrownianWithDrift(), np.zeros(3)),
            (GeometricBrownian(), np.ones(3)),
            (three_state_chain, np.zeros(3, dtype=int)),
        ):
            with pytest.raises(DomainError):
                kernel.sample_transitions(np.array([0.1, -0.1, 0.2]), x, rng)
        with pytest.raises(DomainError):
            GeometricBrownian().sample_transitions(1.0, np.array([1.0, 0.0]), rng)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([2, 5, 0, -1, 7]),
            np.array([0.0, 1.0, 2.5, -3.0, math.nan]),
            np.array([1.0, math.inf, math.nan]),
            np.array([True, False]),
            np.array([0, 1], dtype=np.uint8) + 3,
        ],
    )
    def test_chain_row_draws_refuse_the_first_bad_start_in_sorted_order(self, three_state_chain, x):
        # the smallest state that names none, as a check of the sorted distinct states raises it
        want = None
        for state in np.unique(x):
            try:
                three_state_chain.space.index(state)
            except DomainError as exc:
                want = str(exc)
                break
        assert want is not None
        for kernel in (three_state_chain, RestartedProcess(three_state_chain, RestartSpec(1.0, PointMass(0)))):
            with pytest.raises(DomainError) as raised:
                kernel.sample_transitions(0.5, x, np.random.default_rng(0))
            assert str(raised.value) == want

    def test_chain_row_draws_take_integral_float_starts(self, three_state_chain):
        x = np.array([0, 2, 1, 2, 0])
        want = three_state_chain.sample_transitions(0.5, x, np.random.default_rng(3))
        got = three_state_chain.sample_transitions(0.5, x.astype(float), np.random.default_rng(3))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("time", [math.nan, -0.1])
    def test_scalar_samplers_reject_bad_times(self, three_state_chain, time):
        # a NaN time never ends the chain's jump loop: elapsed >= nan is never true
        rng = np.random.default_rng(0)
        for kernel, x in ((BrownianWithDrift(), 0.0), (GeometricBrownian(), 1.0), (three_state_chain, 0)):
            with pytest.raises(DomainError, match="time must be nonnegative"):
                kernel.sample_transition(time, x, rng)


class TestArrayForms:
    """The array-in-time forms the quadrature integrates, against the scalar forms."""

    times = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 60)])

    @pytest.mark.parametrize(
        "base, x, z, target",
        [
            (BrownianWithDrift(0.7, 1.3), 0.4, -0.9, Interval(-0.5, 2.0)),
            (BrownianWithDrift(-1.5, 0.2), -1.0, 3.0, Interval(0.1, math.inf)),
            (GeometricBrownian(0.3, 0.6), 1.4, 0.8, Interval(0.5, 2.5)),
            (GeometricBrownian(-0.2, 1.1), 0.3, 5.0, Interval(-1.0, 0.9)),
        ],
    )
    def test_diffusions_agree_with_scalar_forms(self, base, x, z, target):
        t = self.times
        # each scalar form is the one-time case of its array form, and the
        # array forms work elementwise, so the floats are the same
        probs = base.transition_probabilities(t, x, target)
        assert probs.shape == t.shape
        assert np.array_equal(probs, [base.transition_probability(s, x, target) for s in t])
        dens = base.transition_densities(t[1:], x, z)
        assert np.array_equal(dens, [base.transition_density(s, x, z) for s in t[1:]])
        for k in (1, 2, 3):
            got = base.moments(k, t, x)
            assert np.array_equal(got, [base.moment(k, s, x) for s in t])

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.floats(-5.0, 5.0),
        sigma=st.floats(1e-3, 10.0),
        t=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
        x=st.floats(-50.0, 50.0),
        z=st.floats(-50.0, 50.0),
        bounds=st.tuples(_BOUNDS, _BOUNDS).map(sorted),
    )
    def test_brownian_one_time_forms_are_the_array_forms(self, mu, sigma, t, x, z, bounds):
        # bit for bit, signed zeros included: the one-time forms are
        # _at_one_time over the array forms, and must give the same floats
        p, target = BrownianWithDrift(mu, sigma), Interval(*bounds)
        with np.errstate(over="ignore"):  # u*u past the float range is inf either way
            want = p.transition_probabilities(np.array([t]), x, target)[0]
            assert p.transition_probability(t, x, target).hex() == float(want).hex()
            if t > 0.0:
                want = p.transition_densities(np.array([t]), x, z)[0]
                assert p.transition_density(t, x, z).hex() == float(want).hex()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        mu=st.floats(-5.0, 5.0),
        sigma=st.floats(1e-3, 10.0),
        t=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
        x=st.floats(1e-3, 50.0),
        z=st.floats(1e-3, 50.0),
        # bounds at or below 0 are -inf in log space
        bounds=st.tuples(_BOUNDS, st.one_of(_BOUNDS, st.just(0.0))).map(sorted),
    )
    def test_gbm_one_time_forms_are_the_array_forms(self, mu, sigma, t, x, z, bounds):
        p, target = GeometricBrownian(mu, sigma), Interval(*bounds)
        with np.errstate(over="ignore"):
            want = p.transition_probabilities(np.array([t]), x, target)[0]
            assert p.transition_probability(t, x, target).hex() == float(want).hex()
            if t > 0.0:
                want = p.transition_densities(np.array([t]), x, z)[0]
                assert p.transition_density(t, x, z).hex() == float(want).hex()

    def test_gbm_one_time_forms_keep_their_checks(self):
        p, target = GeometricBrownian(0.1, 0.4), Interval(0.5, 2.0)
        # at t = 0 the law is the indicator of the start point
        assert p.transition_probability(0.0, 1.0, target) == 1.0
        assert p.transition_probability(0.0, 3.0, target) == 0.0
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError, match="must be positive"):
                p.transition_probability(1.0, bad, target)
            with pytest.raises(DomainError, match="must be positive"):
                p.transition_density(1.0, bad, 1.0)
            with pytest.raises(DomainError, match="must be positive"):
                p.transition_density(1.0, 1.0, bad)
        with pytest.raises(DomainError, match="time must be positive"):
            p.transition_density(0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="time must be nonnegative"):
            p.transition_probability(-0.5, 1.0, target)

    def test_brownian_one_time_forms_at_a_spread_that_underflows(self):
        # sigma*sqrt(t) rounds to 0 at t > 0: the array forms' inf/nan arithmetic
        p, target = BrownianWithDrift(0.0, 5e-324), Interval(-1.0, 1.0)
        with np.errstate(invalid="ignore"):
            assert p.transition_probability(0.25, 0.5, target) == 1.0
            assert math.isnan(p.transition_density(0.25, 0.5, 0.5))

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -0.5])
    def test_brownian_one_time_forms_refuse_times_as_the_array_forms(self, t):
        p, target = BrownianWithDrift(0.2, 1.0), Interval(0.0, 1.0)
        for one, many, args in [
            (p.transition_probability, p.transition_probabilities, (0.0, target)),
            (p.transition_density, p.transition_densities, (0.0, 0.5)),
        ]:
            with pytest.raises(DomainError) as scalar:
                one(t, *args)
            with pytest.raises(DomainError) as array:
                many(np.array([t]), *args)
            assert str(scalar.value) == str(array.value)
        with pytest.raises(DomainError, match="time must be positive and finite, got 0.0"):
            p.transition_density(0.0, 0.0, 0.0)

    def test_diffusion_arrays_validate_times(self):
        with pytest.raises(DomainError):
            BrownianWithDrift().transition_probabilities(np.array([0.5, -0.1]), 0.0, Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            GeometricBrownian().transition_densities(np.array([0.0, 1.0]), 1.0, 1.0)

    def test_gbm_moment_overflow_raises_like_the_scalar(self):
        gbm = GeometricBrownian(0.5, 1.0)
        with pytest.raises(OverflowError):
            gbm.moment(2, 700.0, 1.0)
        with pytest.raises(OverflowError):
            gbm.moments(2, np.array([1.0, 700.0]), 1.0)

    @pytest.mark.parametrize("n", [3, 12])
    def test_stationary_vectors_at_an_array_of_horizons_are_the_float_calls(self, n):
        # the chain's exact form and the MarkovKernel quadrature default, each
        # side on a fresh chain; inf keeps the invariant vector, 0 gives zeros
        Q = make_three_state_chain().Q if n == 3 else random_generator(np.random.default_rng(12), 12)
        w = np.linspace(1.0, 2.0, n) / np.linspace(1.0, 2.0, n).sum()
        t = np.array([0.3, math.inf, 1e-4, 2.0, 0.3, 0.0, 17.5])
        for form in (FiniteCTMC.stationary_vector, MarkovKernel.stationary_vector):
            got = form(FiniteCTMC(Q), 0.7, w, t)
            assert got.shape == (len(t), n)
            want = [form(FiniteCTMC(Q), 0.7, w, s) for s in t.tolist()]
            assert got.tobytes() == np.array(want).tobytes()

    def test_resolvent_is_one_entry_of_the_memo(self, three_state_chain):
        chain = FiniteCTMC(three_state_chain.Q)
        v = chain.stationary_vector(1.5, np.array([0.2, 0.3, 0.5]))
        assert list(chain._memo) == [("resolvent", 1.5)] and chain._held == 1
        assert np.allclose(v, 1.5 * np.array([0.2, 0.3, 0.5]) @ resolvent_matrix(chain, 1.5), rtol=1e-13)

    def test_stacked_matrices_are_the_scalar_matrices(self, three_state_chain):
        Q = three_state_chain.Q
        t = np.array([0.3, 1e-4, 2.0, 0.3, 0.0, 17.5, 0.9])
        stacked = FiniteCTMC(Q).transition_matrices(t)
        scalar = FiniteCTMC(Q)
        assert stacked.shape == (7, 3, 3)
        assert np.array_equal(stacked, [scalar.transition_matrix(s) for s in t])
        # partly memoised: the memo's matrices and the stacked misses agree
        partly = FiniteCTMC(Q)
        partly.transition_matrix(2.0)
        assert np.array_equal(partly.transition_matrices(t), stacked)

    def test_misses_take_one_stacked_expm(self, three_state_chain, monkeypatch):
        calls = []
        evaluate = FiniteCTMC._expm

        def counting(chain, t):
            calls.append(t.shape)
            return evaluate(chain, t)

        monkeypatch.setattr(FiniteCTMC, "_expm", counting)
        three_state_chain.transition_matrix(0.5)
        t = np.linspace(1.1, 4.0, 30)
        first = three_state_chain.transition_matrices(np.append(t, 0.5))
        assert calls == [(1,), (30,)]
        assert np.array_equal(three_state_chain.transition_matrices(t), first[:-1])
        assert len(calls) == 2

    def test_memo_keeps_its_bound_over_a_large_round(self, three_state_chain, monkeypatch):
        monkeypatch.setattr(restartk.processes, "_MEMO_SIZE", 8)
        chain = FiniteCTMC(three_state_chain.Q)
        t = np.linspace(5.0, 6.0, 20)
        got = chain.transition_matrices(t)
        # the round's last 8 times, one matrix each; the stack of 20 is too large to keep
        assert chain._held == len(chain._memo) == 8
        assert all(P.shape == (3, 3) for P in chain._memo.values())
        assert np.array_equal(got, FiniteCTMC(chain.Q).transition_matrices(t))
        # each entry owns its matrix, so the memo does not keep a round alive
        assert all(P.base is None for P in chain._memo.values())

    def test_misses_are_computed_in_chunks_of_the_memo_bound(self, three_state_chain, monkeypatch):
        shapes = []
        evaluate = FiniteCTMC._expm

        def counting(chain, t):
            shapes.append(t.shape[0])
            return evaluate(chain, t)

        t = np.linspace(5.0, 6.0, 20)
        want = FiniteCTMC(three_state_chain.Q).transition_matrices(t)
        monkeypatch.setattr(FiniteCTMC, "_expm", counting)
        monkeypatch.setattr(restartk.processes, "_MEMO_SIZE", 8)
        chain = FiniteCTMC(three_state_chain.Q)
        assert np.array_equal(chain.transition_matrices(t), want)
        assert shapes == [8, 8, 4]

    def test_repeated_array_is_one_memo_hit_returned_as_a_copy(self, three_state_chain, monkeypatch):
        calls = []
        evaluate = FiniteCTMC._expm

        def counting(chain, t):
            calls.append(t.shape)
            return evaluate(chain, t)

        monkeypatch.setattr(FiniteCTMC, "_expm", counting)
        # room for the round's three times and its stack of four
        monkeypatch.setattr(restartk.processes, "_MEMO_SIZE", 7)
        chain = FiniteCTMC(three_state_chain.Q)
        t = np.array([0.9, 0.1, 2.5, 0.1])
        first = chain.transition_matrices(t)
        want = first.copy()
        first[:] = 0.0
        # three new times in one pass push the round's times out of the
        # memo, oldest first; their stack of eight is too large to keep
        chain.transition_matrices(np.array([3.0, 3.5, 4.0] * 2 + [3.0, 3.5]))
        assert calls == [(3,), (3,)] and not {0.9, 0.1, 2.5} & chain._memo.keys()
        # the stack still answers the array
        again = chain.transition_matrices(t)
        assert np.array_equal(again, want) and calls == [(3,), (3,)]
        again[:] = 0.0
        assert np.array_equal(chain.transition_matrices(t), want)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        calls=st.lists(
            st.one_of(
                st.integers(1, 40).map(lambda i: 0.05 * i),
                st.lists(st.integers(1, 40).map(lambda i: 0.05 * i), min_size=1, max_size=20).map(np.array),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_memo_holds_at_most_the_memo_bound(self, calls):
        bound = 16
        chain = FiniteCTMC([[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]])
        fresh = FiniteCTMC(chain.Q)
        saved = restartk.processes._MEMO_SIZE
        restartk.processes._MEMO_SIZE = bound
        try:
            for t in calls:
                got = chain.transition_matrix(t) if np.ndim(t) == 0 else chain.transition_matrices(t)
                # a matrix at one time counts one, a stack one per time
                held = sum(P.size // 9 for P in chain._memo.values())
                assert held == chain._held <= bound
                want = fresh.transition_matrix(t) if np.ndim(t) == 0 else fresh.transition_matrices(t)
                assert np.array_equal(got, want)
        finally:
            restartk.processes._MEMO_SIZE = saved

    def test_stacked_overflow_is_a_domain_error(self):
        chain = FiniteCTMC([[-1e200, 1e200], [1e200, -1e200]])
        with pytest.raises(DomainError, match="rescale"):
            chain.transition_matrices(np.array([0.5, 1.0]))

    def test_chain_rows_agree_with_scalar_forms(self, three_state_chain):
        t = self.times
        target = Subset([0, 2])
        probs = three_state_chain.transition_probabilities(t, 1, target)
        want = np.array([three_state_chain.transition_probability(s, 1, target) for s in t])
        assert probs.tobytes() == want.tobytes()
        for k in (1, 2):
            # numpy's product of a stack of rows with a vector can round a row
            # otherwise than the row alone, so the moments compare within a tolerance
            got = three_state_chain.moments(k, t, 2)
            assert np.allclose(got, [three_state_chain.moment(k, s, 2) for s in t], rtol=1e-15, atol=1e-15)


class TestChainLoading:
    def test_from_dict(self):
        chain = ctmc_from_dict({"Q": [[-1.0, 1.0], [2.0, -2.0]], "values": [5.0, 7.0]})
        assert chain.space.n == 2
        assert chain.values.tolist() == [5.0, 7.0]

    def test_dict_validation_messages(self):
        with pytest.raises(DomainError, match="'Q'"):
            ctmc_from_dict({})
        with pytest.raises(DomainError, match="unknown entries"):
            ctmc_from_dict({"Q": [[0.0]], "rate": 1.0})
        with pytest.raises(DomainError, match="row 1 has 1 entries"):
            ctmc_from_dict({"Q": [[-1.0, 1.0], [0.0]]})
        with pytest.raises(DomainError, match="row 0, column 1"):
            ctmc_from_dict({"Q": [[-1.0, "x"], [0.0, 0.0]]})
        with pytest.raises(DomainError, match="row 0, column 0"):
            ctmc_from_dict({"Q": [[True, False], [0.0, 0.0]]})
        with pytest.raises(DomainError, match="list of rows"):
            ctmc_from_dict({"Q": "nope"})
        with pytest.raises(DomainError, match="expected an object"):
            ctmc_from_dict([1, 2])

    def test_from_json(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"Q": [[-2.0, 2.0], [1.0, -1.0]]}))
        chain = ctmc_from_json(path)
        assert chain.space.n == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DomainError, match="not valid JSON"):
            ctmc_from_json(bad)


class TestMomentOrders:
    """Every closed-form moment of a whole-number order refuses any other
    order; int(k) read True as 1 and truncated 2.5 to 2."""

    BM = BrownianWithDrift(0.3, 1.2)
    RESTART = RestartSpec(1.5, PointMass(0.0))
    ROUTES = {
        "gaussian_raw_moment": lambda k: gaussian_raw_moment(k, 0.4, 1.1),
        "density-law": lambda k: gaussian(0.4, 1.1).moment(k),
        "bm-restarted": lambda k: TestMomentOrders.BM.restarted_moment(TestMomentOrders.RESTART, k, 1.0, 0.0),
        "chain-restarted": lambda k: make_three_state_chain().restarted_moment(
            RestartSpec(1.0, PointMass(0)), k, 1.0, 0
        ),
        "restarted-process": lambda k: RestartedProcess(TestMomentOrders.BM, TestMomentOrders.RESTART).moment(
            k, 1.0, 0.0
        ),
        # at t = 0 the moment is the start point's power, and a GBM with point
        # nu takes no base moment that would check k
        "restarted-process-at-0": lambda k: RestartedProcess(TestMomentOrders.BM, TestMomentOrders.RESTART).moment(
            k, 0.0, 3.0
        ),
        "gbm-restarted": lambda k: GeometricBrownian(0.1, 0.3).restarted_moment(
            RestartSpec(2.0, PointMass(1.0)), k, 1.0, 1.2
        ),
        "gbm-stationary": lambda k: gbm_stationary_moment(
            GeometricBrownian(0.1, 0.3), RestartSpec(2.0, PointMass(1.0)), k
        ),
    }

    @pytest.mark.parametrize("k", [2.5, True, math.nan, -1])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_refuses_an_order_that_is_not_a_whole_number(self, route, k):
        with pytest.raises(DomainError, match="moment order k"):
            self.ROUTES[route](k)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_whole_number_floats_are_orders(self, route):
        assert self.ROUTES[route](2.0) == self.ROUTES[route](2)
        assert self.ROUTES[route](0.0) == self.ROUTES[route](0) == pytest.approx(1.0)
