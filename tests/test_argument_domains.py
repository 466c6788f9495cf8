"""Every public entry refuses a time, horizon, rate, scale, tolerance or state outside its domain.

One table: each row names an entry, the argument it feeds, and the rule the
argument obeys.  The rule fixes the values fed: NaN and -inf always, -1
where the value must be nonnegative, 0 where it must be positive, and +inf
wherever it must be finite; a state of the line or the half line is also fed
None, a string and a list, which name no state, and a state of the 3-state
chain also 3 and 1.5, which name no index.  Each must raise
DomainError; none may be read as a limit (a horizon of -inf as the
stationary law) or pass through to a result.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import make_three_state_chain, resolvent

from restartk import (
    BrownianWithDrift,
    DomainError,
    FiniteSupport,
    GeometricBrownian,
    Interval,
    MarkovKernel,
    PathConfig,
    PointMass,
    RestartedProcess,
    RestartSpec,
    Subset,
    ergodicity_check,
    exp_weighted_integral,
    exponential,
    gaussian,
    lognormal,
    modified_moment,
    nu_weights,
    small_lambda_sweep,
    tail_truncation_point,
)

BAD = {
    "finite": (math.nan, -math.inf, math.inf),
    "nonnegative": (math.nan, -math.inf, -1.0, math.inf),
    "positive": (math.nan, -math.inf, -1.0, 0.0, math.inf),
    "horizon": (math.nan, -math.inf, -1.0),
}
BAD["line state"] = BAD["finite"] + (None, "a", [1.0])
BAD["half-line state"] = BAD["positive"] + (None, "a", [1.0])
BAD["chain state"] = BAD["nonnegative"] + (3, 1.5, None, "a", [1.0])

BM = BrownianWithDrift(0.3, 1.2)
GBM = GeometricBrownian(0.1, 0.4)
CHAIN = make_three_state_chain()
RATE = RestartSpec(1.5, PointMass(0.0))
CHAIN_RATE = RestartSpec(1.5, PointMass(0))
GBM_RATE = RestartSpec(1.5, PointMass(1.0))
W = np.array([0.2, 0.3, 0.5])
G = Interval(-1.0, 1.0)
RNG = np.random.default_rng(0)


def _restarted(base, nu):
    return RestartedProcess(base, RestartSpec(1.5, nu))


def _times(v):
    # a valid time, then v
    return np.array([0.5, v])


# (id, rule, call with the value)
ENTRIES = [
    # times
    ("RestartedProcess.transition_probability t", "nonnegative",
     lambda v: _restarted(BM, PointMass(0.0)).transition_probability(v, 0.0, G)),
    ("RestartedProcess.transition_matrix t", "nonnegative",
     lambda v: _restarted(CHAIN, PointMass(0)).transition_matrix(v)),
    ("RestartedProcess.sample_transition t", "nonnegative",
     lambda v: _restarted(BM, PointMass(0.0)).sample_transition(v, 0.0, RNG)),
    ("RestartedProcess.moment t", "nonnegative", lambda v: _restarted(BM, PointMass(0.0)).moment(1, v, 0.0)),
    ("BrownianWithDrift.transition_probability t", "nonnegative", lambda v: BM.transition_probability(v, 0.0, G)),
    ("BrownianWithDrift.transition_density t", "positive", lambda v: BM.transition_density(v, 0.0, 0.5)),
    ("BrownianWithDrift.transition_probabilities t", "nonnegative",
     lambda v: BM.transition_probabilities(_times(v), 0.0, G)),
    ("BrownianWithDrift.transition_densities t", "positive", lambda v: BM.transition_densities(_times(v), 0.0, 0.5)),
    ("BrownianWithDrift.sample_transition t", "nonnegative", lambda v: BM.sample_transition(v, 0.0, RNG)),
    ("BrownianWithDrift.sample_transitions t", "nonnegative",
     lambda v: BM.sample_transitions(_times(v), np.zeros(2), RNG)),
    ("BrownianWithDrift.moment t", "nonnegative", lambda v: BM.moment(2, v, 0.0)),
    ("BrownianWithDrift.moments t", "nonnegative", lambda v: BM.moments(2, _times(v), 0.0)),
    ("GeometricBrownian.transition_probability t", "nonnegative",
     lambda v: GBM.transition_probability(v, 1.0, Interval(0.5, 2.0))),
    ("GeometricBrownian.transition_density t", "positive", lambda v: GBM.transition_density(v, 1.0, 1.5)),
    ("GeometricBrownian.transition_probabilities t", "nonnegative",
     lambda v: GBM.transition_probabilities(_times(v), 1.0, Interval(0.5, 2.0))),
    ("GeometricBrownian.transition_densities t", "positive", lambda v: GBM.transition_densities(_times(v), 1.0, 1.5)),
    ("GeometricBrownian.sample_transition t", "nonnegative", lambda v: GBM.sample_transition(v, 1.0, RNG)),
    ("GeometricBrownian.sample_transitions t", "nonnegative",
     lambda v: GBM.sample_transitions(_times(v), np.ones(2), RNG)),
    ("GeometricBrownian.moments t", "nonnegative", lambda v: GBM.moments(1, _times(v), 1.0)),
    ("GeometricBrownian.moment t", "nonnegative", lambda v: GBM.moment(1, v, 1.0)),
    ("FiniteCTMC.transition_probability t", "nonnegative",
     lambda v: CHAIN.transition_probability(v, 0, Subset([0]))),
    ("FiniteCTMC.transition_matrices t", "nonnegative", lambda v: CHAIN.transition_matrices(_times(v))),
    ("FiniteCTMC.sample_transition t", "nonnegative", lambda v: CHAIN.sample_transition(v, 0, RNG)),
    ("FiniteCTMC.sample_transitions t", "nonnegative",
     lambda v: CHAIN.sample_transitions(_times(v), np.zeros(2, dtype=int), RNG)),
    ("FiniteCTMC.moment t", "nonnegative", lambda v: CHAIN.moment(1, v, 0)),
    # horizons in [0, inf]
    ("MarkovKernel.stationary_probability t", "horizon",
     lambda v: MarkovKernel.stationary_probability(BM, 1.5, 0.0, G, v)),
    ("MarkovKernel.stationary_density t", "horizon", lambda v: MarkovKernel.stationary_density(BM, 1.5, 0.0, 0.5, v)),
    ("MarkovKernel.stationary_vector t", "horizon", lambda v: MarkovKernel.stationary_vector(CHAIN, 1.5, W, v)),
    ("BrownianWithDrift.stationary_probability t", "horizon", lambda v: BM.stationary_probability(1.5, 0.0, G, v)),
    ("BrownianWithDrift.stationary_density t", "horizon", lambda v: BM.stationary_density(1.5, 0.0, 0.5, v)),
    ("GeometricBrownian.stationary_probability t", "horizon",
     lambda v: GBM.stationary_probability(1.5, 1.0, Interval(0.5, 2.0), v)),
    ("GeometricBrownian.stationary_density t", "horizon", lambda v: GBM.stationary_density(1.5, 1.0, 1.5, v)),
    ("FiniteCTMC.stationary_probability t", "horizon",
     lambda v: CHAIN.stationary_probability(1.5, 0, Subset([0]), v)),
    ("FiniteCTMC.stationary_vector t", "horizon", lambda v: CHAIN.stationary_vector(1.5, W, v)),
    ("BrownianWithDrift.restarted_moment t", "horizon", lambda v: BM.restarted_moment(RATE, 1, v, 0.0)),
    ("GeometricBrownian.restarted_moment t", "horizon", lambda v: GBM.restarted_moment(GBM_RATE, 1, v, 1.0)),
    ("FiniteCTMC.restarted_moment t", "horizon", lambda v: CHAIN.restarted_moment(CHAIN_RATE, 1, v, 0)),
    ("modified_moment t", "horizon", lambda v: modified_moment(_restarted(BM, PointMass(0.0)), 1, v, 0.0)),
    ("exp_weighted_integral upper", "horizon", lambda v: exp_weighted_integral(np.ones_like, 1.5, v)),
    ("PathConfig horizon", "positive",
     lambda v: PathConfig(seed=0, horizon=v, record_grid=(0.0,), n_paths=1, initial=PointMass(0.0))),
    # restart rates; the restarted moments and the invariant law read theirs
    # from a RestartSpec, whose own check is this first row
    ("RestartSpec rate", "positive", lambda v: RestartSpec(v, PointMass(0.0))),
    ("resolvent lam", "positive", lambda v: resolvent(BM, v, 0.0, G)),
    ("exp_weighted_integral lam", "positive", lambda v: exp_weighted_integral(np.ones_like, v, 1.0)),
    ("tail_truncation_point lam", "positive", lambda v: tail_truncation_point(v, -1.0)),
    ("MarkovKernel.stationary_probability lam", "positive",
     lambda v: MarkovKernel.stationary_probability(BM, v, 0.0, G)),
    ("MarkovKernel.stationary_density lam", "positive",
     lambda v: MarkovKernel.stationary_density(BM, v, 0.0, 0.5)),
    ("MarkovKernel.stationary_vector lam", "positive", lambda v: MarkovKernel.stationary_vector(CHAIN, v, W, 1.0)),
    ("BrownianWithDrift.stationary_probability lam", "positive", lambda v: BM.stationary_probability(v, 0.0, G)),
    ("BrownianWithDrift.stationary_density lam", "positive", lambda v: BM.stationary_density(v, 0.0, 0.5)),
    ("GeometricBrownian.stationary_density lam", "positive", lambda v: GBM.stationary_density(v, 1.0, 1.5)),
    ("FiniteCTMC.stationary_probability lam", "positive",
     lambda v: CHAIN.stationary_probability(v, 0, Subset([0]))),
    ("FiniteCTMC.stationary_vector lam", "positive", lambda v: CHAIN.stationary_vector(v, W)),
    ("small_lambda_sweep lambda", "positive",
     lambda v: small_lambda_sweep(CHAIN, PointMass(0), [Subset([0])], [2.0, v])),
    # start states: the line's rule for BM, the half line's for GBM
    ("BrownianWithDrift.transition_probability x", "finite", lambda v: BM.transition_probability(1.0, v, G)),
    ("BrownianWithDrift.transition_density x", "finite", lambda v: BM.transition_density(1.0, v, 0.5)),
    ("BrownianWithDrift.transition_probabilities x", "finite",
     lambda v: BM.transition_probabilities(_times(1.0), v, G)),
    ("BrownianWithDrift.transition_densities x", "finite", lambda v: BM.transition_densities(_times(1.0), v, 0.5)),
    ("BrownianWithDrift.stationary_probability y", "finite", lambda v: BM.stationary_probability(1.5, v, G, 1.0)),
    ("BrownianWithDrift.stationary_density y", "finite", lambda v: BM.stationary_density(1.5, v, 0.5)),
    ("MarkovKernel.stationary_probability y", "finite",
     lambda v: MarkovKernel.stationary_probability(BM, 1.5, v, G, 1.0)),
    ("MarkovKernel.stationary_density y", "finite", lambda v: MarkovKernel.stationary_density(BM, 1.5, v, 0.5)),
    ("GeometricBrownian.transition_probability x", "positive",
     lambda v: GBM.transition_probability(1.0, v, Interval(0.5, 2.0))),
    ("GeometricBrownian.transition_density x", "positive", lambda v: GBM.transition_density(1.0, v, 1.5)),
    ("GeometricBrownian.transition_probabilities x", "positive",
     lambda v: GBM.transition_probabilities(_times(1.0), v, Interval(0.5, 2.0))),
    ("GeometricBrownian.transition_densities x", "positive",
     lambda v: GBM.transition_densities(_times(1.0), v, 1.5)),
    ("GeometricBrownian.stationary_probability y", "positive",
     lambda v: GBM.stationary_probability(1.5, v, Interval(0.5, 2.0), 1.0)),
    ("GeometricBrownian.stationary_density y", "positive", lambda v: GBM.stationary_density(1.5, v, 1.5)),
    # end points of GBM's densities: the half line's rule
    ("GeometricBrownian.transition_density z", "positive", lambda v: GBM.transition_density(1.0, 1.0, v)),
    ("GeometricBrownian.transition_densities z", "positive",
     lambda v: GBM.transition_densities(_times(1.0), 1.0, v)),
    # the points of the restarted densities and the start of the restarted sampler
    ("RestartedProcess.transition_density z", "line state",
     lambda v: _restarted(BM, PointMass(0.0)).transition_density(1.0, 0.0, v)),
    ("RestartedProcess.transition_density z, GBM", "half-line state",
     lambda v: _restarted(GBM, PointMass(1.0)).transition_density(1.0, 1.0, v)),
    ("RestartedProcess.invariant_density z", "line state", lambda v: _restarted(BM, PointMass(0.0)).invariant_density(v)),
    ("RestartedProcess.invariant_density z, GBM", "half-line state",
     lambda v: _restarted(GBM, PointMass(1.0)).invariant_density(v)),
    ("RestartedProcess.invariant_density z in an array", "finite",
     lambda v: _restarted(BM, PointMass(0.0)).invariant_density(np.array([0.5, v]))),
    ("RestartedProcess.sample_transition x", "line state",
     lambda v: _restarted(BM, PointMass(0.0)).sample_transition(0.5, v, RNG)),
    ("RestartedProcess.sample_transition x, GBM", "half-line state",
     lambda v: _restarted(GBM, PointMass(1.0)).sample_transition(0.5, v, RNG)),
    ("RestartedProcess.sample_transition x, chain", "chain state",
     lambda v: _restarted(CHAIN, PointMass(0)).sample_transition(0.5, v, RNG)),
    # restart atoms: supported_in asks the space, which takes real numbers only
    ("RestartedProcess nu atom", "line state", lambda v: _restarted(BM, PointMass(v))),
    ("RestartedProcess nu atom, GBM", "half-line state", lambda v: _restarted(GBM, PointMass(v))),
    # start states of the moment forms, and of the restarted kernel at t = 0
    ("BrownianWithDrift.moment x", "finite", lambda v: BM.moment(2, 1.0, v)),
    ("BrownianWithDrift.moments x", "finite", lambda v: BM.moments(2, _times(1.0), v)),
    ("BrownianWithDrift.restarted_moment x", "finite", lambda v: BM.restarted_moment(RATE, 1, 1.0, v)),
    ("BrownianWithDrift.restarted_moment x at t=inf", "finite",
     lambda v: BM.restarted_moment(RATE, 1, math.inf, v)),
    ("GeometricBrownian.moment x", "positive", lambda v: GBM.moment(1, 1.0, v)),
    ("GeometricBrownian.moments x", "positive", lambda v: GBM.moments(1, _times(1.0), v)),
    ("GeometricBrownian.restarted_moment x", "positive", lambda v: GBM.restarted_moment(GBM_RATE, 1, 1.0, v)),
    ("GeometricBrownian.restarted_moment x at t=inf", "positive",
     lambda v: GBM.restarted_moment(GBM_RATE, 1, math.inf, v)),
    ("modified_moment x", "positive", lambda v: modified_moment(_restarted(GBM, PointMass(1.0)), 1, 1.0, v)),
    ("RestartedProcess.transition_probability x at t=0", "finite",
     lambda v: _restarted(BM, PointMass(0.0)).transition_probability(0.0, v, G)),
    ("RestartedProcess.moment x at t=0", "finite", lambda v: _restarted(BM, PointMass(0.0)).moment(1, 0.0, v)),
    ("RestartedProcess.transition_probability x at t=0, GBM", "positive",
     lambda v: _restarted(GBM, PointMass(1.0)).transition_probability(0.0, v, Interval(0.5, 2.0))),
    ("RestartedProcess.moment x at t=0, GBM", "positive", lambda v: _restarted(GBM, PointMass(1.0)).moment(1, 0.0, v)),
    # and at t > 0, where the base kernel reads the start
    ("RestartedProcess.transition_probability x", "finite",
     lambda v: _restarted(BM, PointMass(0.0)).transition_probability(1.0, v, G)),
    ("RestartedProcess.moment x", "finite", lambda v: _restarted(BM, PointMass(0.0)).moment(1, 1.0, v)),
    ("RestartedProcess.transition_probability x, GBM", "positive",
     lambda v: _restarted(GBM, PointMass(1.0)).transition_probability(1.0, v, Interval(0.5, 2.0))),
    ("RestartedProcess.moment x, GBM", "positive", lambda v: _restarted(GBM, PointMass(1.0)).moment(1, 1.0, v)),
    # scales and law parameters
    ("BrownianWithDrift sigma", "positive", lambda v: BrownianWithDrift(0.0, v)),
    ("BrownianWithDrift mu", "finite", lambda v: BrownianWithDrift(v, 1.0)),
    ("GeometricBrownian sigma", "positive", lambda v: GeometricBrownian(0.0, v)),
    ("GeometricBrownian mu", "finite", lambda v: GeometricBrownian(v, 1.0)),
    ("gaussian std", "positive", lambda v: gaussian(0.0, v)),
    ("gaussian mean", "finite", lambda v: gaussian(v, 1.0)),
    ("exponential rate", "positive", lambda v: exponential(v)),
    ("lognormal log_std", "positive", lambda v: lognormal(0.0, v)),
    ("lognormal log_mean", "finite", lambda v: lognormal(v, 1.0)),
    ("tail_truncation_point eta", "finite", lambda v: tail_truncation_point(1.5, v)),
    ("tail_truncation_point growth_const", "positive", lambda v: tail_truncation_point(1.5, 0.0, v)),
    # tolerances
    ("exp_weighted_integral rel_tol", "positive", lambda v: exp_weighted_integral(np.ones_like, 1.5, 1.0, rel_tol=v)),
    ("exp_weighted_integral abs_tol", "positive", lambda v: exp_weighted_integral(np.ones_like, 1.5, 1.0, abs_tol=v)),
    ("tail_truncation_point eps", "positive", lambda v: tail_truncation_point(1.5, 0.0, eps=v)),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}={v}") for name, rule, call in ENTRIES for v in BAD[rule]],
)
def test_out_of_domain_argument_is_refused(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("name, rule, call", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_the_domain_edge_is_accepted(name, rule, call):
    # the closed end of each domain: 0 for times, inf for horizons; the
    # table's calls are valid there, so a refusal would be the rule's fault
    if rule in ("nonnegative", "horizon"):
        call(0.0)
    if rule == "horizon":
        call(math.inf)


def test_minus_infinity_is_no_stationary_limit():
    # each of these once read t = -inf as t = inf and returned the invariant law
    for call in (
        lambda: exp_weighted_integral(np.ones_like, 1.5, -math.inf),
        lambda: CHAIN.stationary_vector(1.5, W, -math.inf),
        lambda: BM.restarted_moment(RATE, 1, -math.inf, 0.0),
        lambda: GBM.restarted_moment(GBM_RATE, 1, -math.inf, 1.0),
        lambda: CHAIN.restarted_moment(CHAIN_RATE, 1, -math.inf, 0),
    ):
        with pytest.raises(DomainError, match="must be nonnegative or inf, got -inf"):
            call()


# (id, call with a time or horizon t) for every form that takes a 1-D numpy
# array of times or horizons as well as a float
ARRAY_FORMS = [
    ("RestartedProcess.transition_density", lambda t: _restarted(BM, PointMass(0.0)).transition_density(t, 0.0, 0.5)),
    ("RestartedProcess.transition_density, GBM",
     lambda t: _restarted(GBM, PointMass(1.0)).transition_density(t, 1.0, 1.5)),
    ("MarkovKernel.stationary_density", lambda t: MarkovKernel.stationary_density(BM, 1.5, 0.0, 0.5, t)),
    ("BrownianWithDrift.stationary_density", lambda t: BM.stationary_density(1.5, 0.0, 0.5, t)),
    ("GeometricBrownian.stationary_density", lambda t: GBM.stationary_density(1.5, 1.0, 1.5, t)),
    ("FiniteCTMC.stationary_vector", lambda t: CHAIN.stationary_vector(1.5, W, t)),
    ("MarkovKernel.stationary_vector", lambda t: MarkovKernel.stationary_vector(CHAIN, 1.5, W, t)),
]


@pytest.mark.parametrize("name, call", ARRAY_FORMS, ids=[e[0] for e in ARRAY_FORMS])
def test_an_array_refuses_a_time_as_the_float_call_does(name, call):
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError) as one:
            call(bad)
        with pytest.raises(DomainError) as many:
            call(np.array([0.5, bad]))
        assert str(many.value) == str(one.value)
    with pytest.raises(DomainError, match=r"must be a 1-D array, got shape \(2, 2\)"):
        call(np.full((2, 2), 0.5))


def test_stationary_density_takes_an_array_of_points_or_of_horizons_not_both():
    for call in (
        lambda z, t: MarkovKernel.stationary_density(BM, 1.5, 0.0, z, t),
        lambda z, t: BM.stationary_density(1.5, 0.0, z, t),
        lambda z, t: GBM.stationary_density(1.5, 1.0, z, t),
    ):
        with pytest.raises(DomainError, match="^stationary_density takes an array of points or of horizons, not both$"):
            call(np.array([0.5, 1.5]), np.array([1.0, 2.0]))
        for t in (math.inf, 1.0):
            with pytest.raises(DomainError, match=r"^points must be a 1-D array, got shape \(2, 2\)$"):
                call(np.full((2, 2), 0.5), t)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warmed"])
@pytest.mark.parametrize("t", [np.array([[0.1, 0.2], [0.3, 0.4]]), np.array(0.1)], ids=["(2, 2)", "()"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda chain, t: chain.transition_matrices(t),
        lambda chain, t: chain.transition_probabilities(t, 0, Subset([0, 2])),
        lambda chain, t: chain.moments(2, t, 0),
        lambda chain, t: RestartedProcess(chain, CHAIN_RATE).transition_matrices(t),
    ],
    ids=["transition_matrices", "transition_probabilities", "moments", "RestartedProcess.transition_matrices"],
)
def test_chain_array_forms_take_a_1d_array_of_times(entry, t, warm):
    # on a fresh chain these raised a bare TypeError; on a chain that had met
    # the same four times as a 1-D array, the memo answered the (2, 2) array
    # by its bytes with the (4, 3, 3) stack
    chain = make_three_state_chain()
    if warm:
        chain.transition_matrices(np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(DomainError) as err:
        entry(chain, t)
    assert str(err.value) == f"times must be a 1-D array, got shape {t.shape}"


def test_weight_vector_needs_one_weight_per_state():
    # a 2-vector on the 3-state chain once raised numpy's matmul ValueError
    default = lambda lam, w, t: MarkovKernel.stationary_vector(CHAIN, lam, w, t)
    for call in (CHAIN.stationary_vector, default):
        for w, shape in ((W[:2], "(2,)"), (np.full(4, 0.25), "(4,)"), (W[None, :], "(1, 3)")):
            for t in (math.inf, 1.0):
                with pytest.raises(DomainError) as err:
                    call(1.5, w, t)
                assert str(err.value) == f"need 3 weights, one per state, got shape {shape}"
    with pytest.raises(DomainError, match="^weight vectors only exist on finite state spaces$"):
        MarkovKernel.stationary_vector(BM, 1.5, np.ones(1), 1.0)


@pytest.mark.parametrize(
    "nu",
    [
        PointMass(-1), PointMass(1.5), PointMass(3), PointMass(None),
        FiniteSupport(((-1, 0.5), (0, 0.5))), FiniteSupport(((5, 1.0),)),
    ],
    ids=repr,
)
def test_nu_weights_refuses_states_off_the_finite_space(nu):
    # -1 used to wrap to the last state, 1.5 to truncate to state 1, and 5 to
    # raise a bare IndexError
    with pytest.raises(DomainError, match=r"is not supported in FiniteSet"):
        nu_weights(nu, CHAIN.space)


@pytest.mark.parametrize(
    "nu, same",
    [
        (PointMass(1.0), PointMass(1)),
        (PointMass(True), PointMass(1)),
        (PointMass(np.float64(2.0)), PointMass(2)),
        (FiniteSupport(((0.0, 0.5), (2.0, 0.5))), FiniteSupport(((0, 0.5), (2, 0.5)))),
    ],
    ids=repr,
)
def test_an_integral_number_names_the_state_of_that_index(nu, same):
    # contains (behind supported_in) once refused 1.0, which index accepts
    assert np.array_equal(nu_weights(nu, CHAIN.space), nu_weights(same, CHAIN.space))
    want = _restarted(CHAIN, same).invariant_vector()
    assert np.array_equal(_restarted(CHAIN, nu).invariant_vector(), want)


def test_contains_and_index_agree_on_the_finite_space():
    # what names no state is refused as such, never with a TypeError
    for x in (0, 1.0, True, np.int64(2), np.float64(2.0), -1, 3, 1.5, -0.5, math.nan, math.inf, "1", None, [1]):
        named = CHAIN.space.contains(x)
        try:
            CHAIN.space.index(x)
        except DomainError:
            assert not named, x
        else:
            assert named, x


def test_messages_name_the_argument_and_its_rule():
    cases = [
        (lambda: BM.sample_transition(math.nan, 0.0, RNG), "time must be nonnegative and finite, got nan"),
        (lambda: BM.transition_densities(_times(0.0), 0.0, 0.5), "time must be positive and finite, got 0.0"),
        (lambda: gaussian(0.0, math.nan), "gaussian std must be positive and finite, got nan"),
        (lambda: BM.transition_probability(1.0, math.nan, G), "state must be finite, got nan"),
        (lambda: GBM.transition_probability(1.0, math.inf, G), "state must be positive and finite, got inf"),
        (lambda: gaussian(math.nan, 1.0), "gaussian mean must be finite, got nan"),
        (lambda: RestartSpec(-1.0, PointMass(0.0)), "restart rate must be positive and finite, got -1.0"),
        (lambda: RestartSpec(-0.0, PointMass(0.0)), "restart rate must be positive and finite, got -0.0"),
        (lambda: CHAIN.stationary_vector(1.5, W, -1.0), "horizon must be nonnegative or inf, got -1.0"),
        (lambda: MarkovKernel.stationary_vector(CHAIN, 1.5, W, -1.0), "horizon must be nonnegative or inf, got -1.0"),
        (lambda: BM.moments(1, _times(1.0), math.nan), "state must be finite, got nan"),
        (lambda: _restarted(BM, PointMass(None)), "restart distribution PointMass(x=None) is not supported in RealLine()"),
        (lambda: _restarted(GBM, PointMass([1.0])),
         "restart distribution PointMass(x=[1.0]) is not supported in HalfLinePositive()"),
        (lambda: GBM.moment(1, 1.0, -1.0), "state must be positive and finite, got -1.0"),
        (lambda: ergodicity_check(_restarted(BM, PointMass(0.0)), 0.0, [1.0], []), "test_sets must not be empty"),
        (lambda: ergodicity_check(_restarted(BM, PointMass(0.0)), 0.0, [], [G]), "t_grid must not be empty"),
        (lambda: _restarted(BM, PointMass(0.0)).invariant_density(np.zeros((2, 2))),
         "points must be a 1-D array, got shape (2, 2)"),
        (lambda: BrownianWithDrift(0.0, 1e200).stationary_probability(1.0, 0.0, G),
         "restart rate 1.0 with mu=0.0, sigma=1e+200 takes the restart-age law out of the float range; "
         "rescale the process"),
        (lambda: BrownianWithDrift(0.3, 1e-200).stationary_density(1.0, 0.0, 0.5, 1.0),
         "restart rate 1.0 with mu=0.3, sigma=1e-200 takes the restart-age law out of the float range; "
         "rescale the process"),
        # GBM's law is its log motion's, whose drift is mu - sigma^2/2
        (lambda: GeometricBrownian(0.1, 1e100).stationary_probability(1.0, 1.0, Interval(0.5, 2.0)),
         "restart rate 1.0 with mu=-5e+199, sigma=1e+100 takes the restart-age law out of the float range; "
         "rescale the process"),
        # sigma^2 raised a bare OverflowError past about 1.3e154
        (lambda: GeometricBrownian(0.0, 1e200),
         "sigma=1e+200 with mu=0.0 takes the drift of log X, mu - sigma^2/2, out of the float range; "
         "rescale the process"),
        (lambda: GeometricBrownian(-1e308, 1.3e154),
         "sigma=1.3e+154 with mu=-1e+308 takes the drift of log X, mu - sigma^2/2, out of the float range; "
         "rescale the process"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("call", [
    # the peak 1/(sigma*sqrt(2*pi/lam)) of the log motion's density: 1/0
    lambda: GeometricBrownian(1.0, 1e-300).stationary_density(1e100, 1.0, 1.5),
], ids=["peak-overflows"])
def test_invariant_density_past_the_float_range_is_refused(call):
    # this raised a bare ZeroDivisionError
    with pytest.raises(DomainError, match="out of the float range"):
        call()


def test_invariant_density_where_the_tail_bound_underflows():
    # the tail bound's C*lam underflows to 0 (it was refused, and raised a bare
    # ValueError before that): its ratio taken in logs is below 1, so the
    # tail from 0 on is within budget.  The density itself is lam times the
    # log motion's occupation density, exp(-2|m| log z / sigma^2)/|m| with
    # drift m = 1 - sigma^2/2, over z: about 8.9e-501, below every float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GeometricBrownian(1.0, 1e100).stationary_density(1e-300, 1.0, 1.5) == 0.0


def test_mean_past_the_float_range_is_refused():
    # mu*t overflows: the no-restart mass was nan, under numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"mean x \+ mu\*t out of the float range by t = 10.0"):
            BrownianWithDrift(1e308, 1.0).transition_probability(10.0, 0.0, Interval(0.0, math.inf))
        # mu*t fits, x + mu*t does not
        with pytest.raises(DomainError, match="by t = 1.0"):
            BrownianWithDrift(1e308, 1.0).transition_probability(1.0, 1e308, Interval(0.0, math.inf))


DRIFT_PAST_RANGE = BrownianWithDrift(1e308, 1.0)
WIDE = BrownianWithDrift(0.0, 1e308)


@pytest.mark.parametrize("call, message", [
    # each returned 0.0, inf or a nan moment, most under numpy's overflow warning
    (lambda: DRIFT_PAST_RANGE.transition_density(10.0, 0.0, 0.5), r"mean x \+ mu\*t .* by t = 10.0"),
    (lambda: DRIFT_PAST_RANGE.transition_densities(_times(10.0), 0.0, 0.5), r"mean x \+ mu\*t .* by t = 10.0"),
    (lambda: DRIFT_PAST_RANGE.moment(1, 10.0, 0.0), r"mean x \+ mu\*t .* by t = 10.0"),
    (lambda: DRIFT_PAST_RANGE.moments(2, _times(10.0), 0.0), r"mean x \+ mu\*t .* by t = 10.0"),
    # mu*t fits, x + mu*t does not
    (lambda: DRIFT_PAST_RANGE.moment(1, 1.0, 1e308), r"mean x \+ mu\*t .* by t = 1.0"),
    # the sampler returned inf without a warning
    (lambda: DRIFT_PAST_RANGE.sample_transition(10.0, 0.0, RNG), r"draw x \+ mu\*t \+ sigma\*W\(t\) .* by t = 10.0"),
    (lambda: DRIFT_PAST_RANGE.sample_transitions(_times(10.0), np.zeros(2), RNG),
     r"draw x \+ mu\*t \+ sigma\*W\(t\) .* by t = 10.0"),
    # the mean fits, the Gaussian step does not
    (lambda: WIDE.sample_transition(4.0, 0.0, np.random.default_rng(3)), r"sigma\*W\(t\) .* by t = 4.0"),
    (lambda: WIDE.sample_transitions(_times(4.0), np.zeros(2), np.random.default_rng(3)),
     r"sigma\*W\(t\) .* by t = 4.0"),
    # the mean fits, the spread sigma*sqrt(t) does not: 0.0, 0.0 and inf under numpy's overflow warning
    (lambda: WIDE.transition_probability(10.0, 0.0, Interval(-1e300, 1e300)), r"spread sigma\*sqrt\(t\) .* by t = 10.0"),
    (lambda: WIDE.transition_density(10.0, 0.0, 0.0), r"spread sigma\*sqrt\(t\) .* by t = 10.0"),
    (lambda: WIDE.moment(2, 10.0, 0.0), r"spread sigma\*sqrt\(t\) .* by t = 10.0"),
], ids=["density", "densities", "moment", "moments", "moment-from-x", "sample", "samples", "sample-step",
        "samples-step", "probability-spread", "density-spread", "moment-spread"])
def test_bm_routes_refuse_a_mean_or_draw_past_the_float_range(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            call()


def test_bm_routes_at_the_edge_of_the_float_range_still_answer():
    # mu*t = 1e308 at t = 1: every route answers, the sampler's draw a float
    bm = BrownianWithDrift(1e308, 1.0)
    assert bm.transition_density(1.0, 0.0, 1e308) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
    assert bm.moment(1, 1.0, 0.0) == 1e308
    assert bm.sample_transition(1.0, 0.0, np.random.default_rng(0)) == 1e308
    assert np.all(bm.sample_transitions(_times(1.0), np.zeros(2), np.random.default_rng(0)) < math.inf)


def _age_law_values(kernel, lam, t):
    """The restart-age law's mass and density from one start, at horizon t."""
    if isinstance(kernel, GeometricBrownian):
        yield kernel.stationary_probability(lam, 1.0, Interval(0.5, 2.0), t)
        if t < math.inf:  # at t = inf GBM's density is the quadrature default's, not the law's
            yield kernel.stationary_density(lam, 1.0, 1.5, t)
    else:
        yield kernel.stationary_probability(lam, 0.0, Interval(0.0, 1.0), t)
        yield kernel.stationary_density(lam, 0.0, 0.5, t)


def test_restart_age_law_is_finite_or_refused():
    # from the float range's edges to well inside it; inside the box no law is refused
    mus = (0.0, 1e-300, 1.0, -1.0, 1e10, -1e10, 1e100, 1e300, -1e300)
    sigmas = (1e-300, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e70, 1e100, 1e200)
    lams = (1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300)
    for kind, top in ((BrownianWithDrift, 1e100), (GeometricBrownian, 1e70)):
        for mu, sigma, lam, t in itertools.product(mus, sigmas, lams, (math.inf, 1e-3, 1.0, 1e3)):
            inside = abs(mu) <= 1e10 and 1e-100 <= sigma <= top and 1e-100 <= lam <= 1e100
            try:
                values = list(_age_law_values(kind(mu, sigma), lam, t))
            except DomainError:
                assert not inside, (kind.__name__, mu, sigma, lam, t)
            else:
                assert all(math.isfinite(v) for v in values), (kind.__name__, mu, sigma, lam, t, values)
