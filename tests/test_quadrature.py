"""Exponentially weighted integrals: values, error honesty, tail control."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from restartk import quadrature
from restartk import (
    DomainError,
    TailBoundViolated,
    ToleranceNotMet,
    exp_weighted_integral,
    tail_truncation_point,
)

INF = math.inf


def test_weight_total_mass_semi_infinite():
    for lam in (0.3, 1.0, 2.0, 7.5):
        r = exp_weighted_integral(np.ones_like, lam, INF)
        assert abs(r.value - 1.0) < 1e-9
        assert abs(r.value - 1.0) <= r.abs_error_estimate
        assert r.truncated_at is not None and r.reliable


def test_exponential_integrand_resolvent_value():
    # int_0^inf lam e^{-lam s} e^{eta s} ds = lam/(lam-eta); lam=2, eta=1 -> 2
    r = exp_weighted_integral(np.exp, 2.0, INF, growth_bound=(1.0, 1.0))
    assert abs(r.value - 2.0) < 2e-9


def test_linear_integrand_finite_horizon():
    # int_0^1 e^{-s} s ds = 1 - 2/e, weight lam=1 included
    r = exp_weighted_integral(lambda s: s, 1.0, 1.0)
    assert abs(r.value - 0.26424111765711533) < 1e-12


# analytic library: (f, lam, upper, exact value of int_0^upper lam e^{-lam s} f(s) ds)
def _exact_cases():
    cases = []
    for lam, t in ((1.0, 2.0), (3.0, 0.7)):
        cases.append((np.ones_like, lam, t, 1.0 - math.exp(-lam * t)))
        cases.append((lambda s: s, lam, t, (1.0 - (1.0 + lam * t) * math.exp(-lam * t)) / lam))
        cases.append(
            (
                lambda s: s * s,
                lam,
                t,
                (2.0 - (lam * lam * t * t + 2 * lam * t + 2) * math.exp(-lam * t)) / lam**2,
            )
        )
    cases.append((lambda s: np.exp(0.5 * s), 2.0, 3.0, 2.0 / 1.5 * (1 - math.exp(-1.5 * 3.0))))
    cases.append((np.sin, 2.0, INF, 2.0 / (4.0 + 1.0)))
    cases.append((np.cos, 2.0, INF, 4.0 / (4.0 + 1.0)))
    cases.append((lambda s: 1.0 / np.sqrt(s), 2.0, INF, math.sqrt(math.pi * 2.0)))
    cases.append(
        (lambda s: 1.0 / np.sqrt(s), 1.5, 2.0, math.sqrt(math.pi * 1.5) * math.erf(math.sqrt(3.0)))
    )
    # s^3 <= 1.35 e^s everywhere (max of s^3 e^-s is 27/e^3 ~ 1.344)
    cases.append((lambda s: s**3, 1.7, INF, 6.0 / 1.7**3, (1.35, 1.0)))
    return cases


def _case_bound(case):
    return case[4] if len(case) > 4 else (1.0, 0.0)


def test_error_estimates_conservative_on_analytic_library():
    cases = _exact_cases()
    assert len(cases) >= 10
    for case in cases:
        f, lam, upper, exact = case[:4]
        r = exp_weighted_integral(f, lam, upper, rel_tol=1e-10, growth_bound=_case_bound(case))
        true_err = abs(r.value - exact)
        assert true_err <= r.abs_error_estimate, (lam, upper, true_err, r.abs_error_estimate)
        assert true_err <= max(1e-10 * abs(exact), 1e-11)


def test_sqrt_singularity_at_origin_is_cheap():
    # the substitution keeps the node count modest despite s^{-1/2}
    r = exp_weighted_integral(lambda s: 1.0 / np.sqrt(s), 2.0, INF)
    assert abs(r.value - math.sqrt(2.0 * math.pi)) < 1e-9
    assert r.nodes_used < 2000


def test_integrand_never_called_at_zero():
    seen = []

    def f(s):
        assert np.all(s > 0.0)
        seen.append(s.min())
        return 1.0 / np.sqrt(s)

    exp_weighted_integral(f, 1.0, 1.0)
    assert min(seen) > 0.0


def test_matrix_valued_integrand():
    def f(s):
        return np.moveaxis(np.array([[np.cos(s), np.sin(s)], [-np.sin(s), np.cos(s)]]), -1, 0)

    r = exp_weighted_integral(f, 2.0, INF)
    # entrywise Laplace transforms of cos/sin at lam=2
    expect = np.array([[0.8, 0.4], [-0.4, 0.8]])
    assert np.abs(r.value - expect).max() < 1e-9
    assert r.value.shape == (2, 2)


def test_tail_truncation_point_values():
    assert abs(tail_truncation_point(1.0, 0.0, 1.0, 1e-12) - 27.631021115928547) < 1e-12
    assert abs(tail_truncation_point(2.0, 1.0, 1.0, 1e-9) - 21.416413017506358) < 1e-12


def test_tail_truncation_scaling():
    # s* ~ 1/(lam-eta): doubling the gap halves the point, asymptotically
    s1 = tail_truncation_point(2.0, 1.0, 1.0, 1e-14)
    s2 = tail_truncation_point(3.0, 1.0, 1.0, 1e-14)
    assert 0.4 < s2 / s1 < 0.6


def test_tail_truncation_clamped_nonnegative():
    assert tail_truncation_point(2.0, 0.0, 1e-6, 1.0) == 0.0


def test_tail_bound_violated():
    with pytest.raises(TailBoundViolated):
        tail_truncation_point(1.0, 1.0, 1.0, 1e-9)
    with pytest.raises(TailBoundViolated):
        exp_weighted_integral(lambda s: np.exp(2 * s), 1.0, INF, growth_bound=(1.0, 2.0))


def test_truncation_respects_bound_validity_window():
    r = exp_weighted_integral(
        np.ones_like, 1.0, INF, growth_bound=(1.0, 0.0), bound_valid_from=40.0
    )
    assert r.truncated_at >= 40.0
    assert abs(r.value - 1.0) < 1e-9


def test_tolerance_not_met_raises_with_partial_result(monkeypatch):
    def nasty(s):
        return 1.0 / np.sqrt(abs(s - 0.5)) + np.sin(40.0 * s)

    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(ToleranceNotMet) as err:
        exp_weighted_integral(nasty, 1.0, 1.0, rel_tol=1e-13, abs_tol=1e-14)
    assert err.value.result is not None
    assert not err.value.result.reliable


def test_domain_errors():
    with pytest.raises(DomainError):
        exp_weighted_integral(lambda s: 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        exp_weighted_integral(lambda s: 1.0, -1.0, INF)
    with pytest.raises(DomainError):
        exp_weighted_integral(lambda s: 1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        exp_weighted_integral(lambda s: 1.0, 1.0, 1.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        tail_truncation_point(1.0, 0.0, -1.0, 1e-9)


def test_zero_upper_limit():
    r = exp_weighted_integral(lambda s: np.full_like(s, 5.0), 1.0, 0.0)
    assert r.value == 0.0 and r.nodes_used == 0


# -- the batched rule against scipy's quad_vec, its independent oracle ---------

_RATES = np.linspace(0.0, 0.8, 9)
_KINDS = ("smooth", "oscillating", "density", "pure 1/sqrt(s)", "3x3 matrix")


def _integrand(kind, lam):
    """An integrand of the array contract, its growth bound (C, eta) and where that holds from."""
    if kind == "smooth":
        return lambda s: s / (1.0 + s) + np.exp(-0.7 * s), (2.0, 0.0), 0.0
    if kind == "oscillating":
        # ~130 periods under the weight whatever the rate: rounds bisect many intervals
        return lambda s: np.cos(25.0 * lam * s), (1.0, 0.0), 0.0
    if kind == "3x3 matrix":
        return lambda s: np.exp(-np.outer(s, _RATES)).reshape(-1, 3, 3), (1.0, 0.0), 0.0
    # Gaussian densities in time, ~1/sqrt(s) at the origin, whose envelope
    # holds past the peak, as the kernels' density envelopes do
    c = 0.09 if kind == "density" else 0.0
    s_min = min(1.0 / lam, 1.0)
    bound = (1.0 / math.sqrt(2.0 * math.pi * s_min), 0.0)
    return lambda s: np.exp(-c / s) / np.sqrt(2.0 * np.pi * s), bound, s_min


def _weighted(f, lam, near):
    """A segment's integrand in its own variable: u = sqrt(s) on the near
    segment, s itself on the far one, weight included."""

    def g(x):
        s = np.maximum(x * x, quadrature._TINY) if near else x
        w = (2.0 * x * lam if near else lam) * np.exp(-lam * s)
        v = np.asarray(f(s), dtype=float)
        return w.reshape(w.shape + (1,) * (v.ndim - 1)) * v

    return g


def _segments_of(f, lam, upper, **kw):
    """exp_weighted_integral's result, and each (integrand, a, b, ...) it handed
    to _segment, the integrand taken in the segment's own variable; the near
    segment, which starts at 0, first."""
    seen = []
    real = quadrature._segment

    def spy(a, *args):
        out = yield from real(a, *args)
        seen.append(((_weighted(f, lam, a == 0.0), a, *args), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_segment", spy)
        try:
            result = exp_weighted_integral(f, lam, upper, **kw)
        except ToleranceNotMet as exc:
            result = exc.result
    return result, sorted(seen, key=lambda item: item[0][1])


def _run_segment(g, *args):
    """quadrature._segment on g, an integrand of the segment's own variable:
    each round's intervals get the rule on g's values at their nodes."""
    run = quadrature._segment(*args)
    rule = None
    with np.errstate(all="ignore"):
        try:
            while True:
                lo, hi = run.send(rule)
                x, h, half = quadrature._gk_nodes(lo, hi)
                rule = quadrature._gk_rule(np.asarray(g(x), dtype=float), h, half)
        except StopIteration as done:
            return done.value


def _quad_vec(g, a, b, epsabs, epsrel, limit, points=()):
    """scipy's quad_vec on the same segment and breakpoints, one node per call."""
    with np.errstate(all="ignore"):
        want, err, info = quad_vec(
            lambda s: g(np.array([s]))[0],
            a, b, epsabs=epsabs, epsrel=epsrel, norm="max", limit=limit, points=points, full_output=True,
        )
    return np.asarray(want), err, info


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    lam_t=st.one_of(st.just(INF), st.floats(0.01, 40.0)),
    kind=st.sampled_from(_KINDS),
    rel_tol=st.sampled_from((1e-6, 1e-9, 1e-12)),
)
def test_batched_rule_matches_quad_vec(lam, lam_t, kind, rel_tol):
    f, bound, valid_from = _integrand(kind, lam)
    result, seen = _segments_of(
        f, lam, lam_t / lam, rel_tol=rel_tol, growth_bound=bound, bound_valid_from=valid_from
    )
    assert seen
    nodes = 0
    for args, (value, err, used, converged) in seen:
        want, want_err, info = _quad_vec(*args)
        assert used == info.neval
        assert converged == (info.success and bool(np.all(np.isfinite(want))))
        assert np.max(np.abs(value - want)) <= 1e-15 * max(1.0, float(np.max(np.abs(want))))
        # the sums' order differs, and the Kronrod-Gauss difference cancels
        assert abs(err - want_err) <= 0.01 * want_err
        nodes += info.neval
    assert result.nodes_used == nodes


@pytest.mark.parametrize(
    "w, epsabs, epsrel",
    [
        # rounds of many intervals, ending where the batch rule ends them
        (12.090368556724892, 1e-14, 1e-11),
        (24.813139367296976, 1e-14, 1e-9),
        (99.62077586469734, 1e-14, 1e-9),
        # out of reach in floating point: the rounding-error exit
        (3.0, 1e-300, 1e-15),
    ],
)
def test_segment_matches_quad_vec_on_oscillations(w, epsabs, epsrel):
    def g(s):
        return np.cos(w * s) * np.exp(-s)

    value, err, used, converged = _run_segment(g, 0.0, 3.0, epsabs, epsrel, 10000)
    want, want_err, info = _quad_vec(g, 0.0, 3.0, epsabs, epsrel, 10000)
    assert used == info.neval and converged == info.success
    assert abs(value - want) <= 1e-15 and abs(err - want_err) <= 0.01 * want_err


def test_repeated_degenerate_intervals_count_like_quad_vec():
    # bisecting a one-ulp interval makes zero-width intervals, some met
    # twice; quad_vec integrates such a repeat afresh, so its nodes count
    b = math.nextafter(1.0, 2.0)
    for limit in (8, 30):
        value, _, used, converged = _run_segment(np.zeros_like, 1.0, b, 0.0, 0.0, limit)
        want, _, info = _quad_vec(np.zeros_like, 1.0, b, 0.0, 0.0, limit)
        assert used == info.neval
        assert value == want == 0.0 and not converged and not info.success


@pytest.mark.parametrize("upper", [1e5, 1e6, 1e10])
def test_long_horizon_certifies_the_right_value(upper):
    # one panel over [1, upper] put its first node where exp(-s) is 0 and
    # converged on 1 - 1/e; panels that double from 1 see the weight decay
    r = exp_weighted_integral(np.ones_like, 1.0, upper)
    assert abs(r.value - 1.0) <= 1e-14 and r.reliable


def test_long_horizon_panels_match_quad_vec_with_the_same_breakpoints():
    result, seen = _segments_of(lambda s: np.cos(s), 2.0, 1e6)
    (_, near), (args, (value, err, used, converged)) = seen
    assert args[6] == [2.0**j for j in range(20)]
    want, want_err, info = _quad_vec(*args)
    assert used == info.neval and converged == info.success
    assert abs(value - want) <= 1e-15 and abs(err - want_err) <= 0.01 * want_err
    assert abs(result.value - 4.0 / 5.0) <= 1e-12


def test_horizons_up_to_lam_t_of_ten_thousand_keep_one_far_panel():
    # every golden and workload config has lam*t <= 30: their values and
    # node counts do not move
    _, (_, (far, _)) = _segments_of(np.ones_like, 2.0, 5e3)
    assert far[6] == []


def test_round_evaluates_the_integrand_once():
    # 21 nodes for the first rule, then one call per refinement round
    calls = []

    def f(s):
        calls.append(len(s))
        return np.sin(40.0 * s)

    r = exp_weighted_integral(f, 1.0, 1.0)
    assert sum(calls) == r.nodes_used
    assert all(n == 21 or n % 42 == 0 for n in calls)
    assert max(calls) > 42


def test_integrand_must_keep_the_time_axis():
    with pytest.raises(DomainError, match="leading axis"):
        exp_weighted_integral(lambda s: 1.0, 1.0, 1.0)


# -- the lockstep batch against its members one at a time -------------------


def _family(kind):
    """Integrands f(s, a) of one parameter a, broadcast against s, and a bound
    on |f| for each a: the batch takes a per node, a member its own a."""
    if kind == "scalar":
        return lambda s, a: np.cos(a * s) + a * np.exp(-s) / np.sqrt(1.0 + s), lambda a: 1.0 + a
    return (
        lambda s, a: np.stack([np.cos(a * s), np.sin(a * s) * np.exp(-a * s), a / (1.0 + s)], axis=-1),
        lambda a: 1.0 + a,
    )


def _bits(result):
    """Every field of a QuadratureResult, as bits."""
    value = np.asarray(result.value)
    truncated = None if result.truncated_at is None else float(result.truncated_at).hex()
    return (
        type(result.value), value.shape, value.tobytes(), float(result.abs_error_estimate).hex(),
        result.nodes_used, truncated, result.reliable,
    )


def _outcome(call):
    """What a call returns, or the ToleranceNotMet it raises, as bits."""
    try:
        return [_bits(r) for r in call()]
    except ToleranceNotMet as exc:
        return str(exc), _bits(exc.result)


def _one_by_one(f, lam, params, uppers, bounds, **kw):
    return lambda: [
        exp_weighted_integral(lambda s, a=a: f(s, a), lam, upper, growth_bound=bound, **kw)
        for a, upper, bound in zip(params, uppers, bounds)
    ]


def _in_lockstep(f, lam, params, uppers, bounds, rel_tol=quadrature.DEFAULT_REL_TOL, abs_tol=quadrature.DEFAULT_ABS_TOL):
    params = np.array(params)
    return lambda: quadrature._exp_weighted_integrals(
        lambda s, j: f(s, params[j]), lam, uppers, rel_tol, abs_tol, bounds
    )


# a horizon in units of 1/lam: 0, near segment only, one far panel, doublings, inf
_LAM_TIMES = st.one_of(
    st.just(0.0), st.floats(0.01, 1.0), st.floats(1.0, 40.0), st.floats(1.5e4, 1e6), st.just(INF)
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    kind=st.sampled_from(("scalar", "array")),
    members=st.lists(st.tuples(st.floats(0.1, 3.0), _LAM_TIMES, st.floats(0.0, 0.9)), min_size=1, max_size=6),
    rel_tol=st.sampled_from((1e-6, 1e-9, 1e-12)),
)
def test_lockstep_batch_is_its_members_bit_for_bit(lam, kind, members, rel_tol):
    f, bound_of = _family(kind)
    params = [a for a, _, _ in members]
    uppers = [lam_t / lam for _, lam_t, _ in members]
    # each member's own growth bound: its constant, and a rate below lam
    bounds = [(bound_of(a), share * lam) for a, _, share in members]
    want = _outcome(_one_by_one(f, lam, params, uppers, bounds, rel_tol=rel_tol))
    assert _outcome(_in_lockstep(f, lam, params, uppers, bounds, rel_tol=rel_tol)) == want


def test_lockstep_batch_raises_the_first_failing_members_error(monkeypatch):
    # the second and third members, a > 0, cannot meet the tolerance in 4
    # intervals; the batch raises the second's error, as a loop over the
    # members would
    def f(s, a):
        return np.where(a > 0.0, 1.0 / np.sqrt(np.abs(s - a)) + np.sin(40.0 * s), np.exp(a * s))

    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    params, uppers, bounds = [-1.0, 0.5, 0.7], [1.0, 1.0, 1.0], [(1.0, 0.0)] * 3
    kw = {"rel_tol": 1e-10, "abs_tol": 1e-12}
    want = _outcome(_one_by_one(f, 1.0, params, uppers, bounds, **kw))
    assert want == _outcome(_one_by_one(f, 1.0, params[1:2], uppers[1:2], bounds[1:2], **kw))
    assert _outcome(_in_lockstep(f, 1.0, params, uppers, bounds, **kw)) == want
    assert _outcome(_one_by_one(f, 1.0, params[:1], uppers[:1], bounds[:1], **kw))[0][-1]


def test_lockstep_round_calls_the_integrand_once_for_every_member():
    calls = []

    def f(s, j):
        calls.append(len(s))
        return np.cos((1.0 + j) * s)

    results = quadrature._exp_weighted_integrals(f, 1.0, [3.0, 30.0, INF], 1e-9, 1e-12, [(1.0, 0.0)] * 3)
    assert sum(calls) == sum(r.nodes_used for r in results)
    # each member alone makes as many rounds as the longest of its segments
    alone = []
    for i in range(3):
        calls.clear()
        exp_weighted_integral(lambda s: f(s, i), 1.0, [3.0, 30.0, INF][i])
        alone.append(len(calls))
    calls.clear()
    quadrature._exp_weighted_integrals(f, 1.0, [3.0, 30.0, INF], 1e-9, 1e-12, [(1.0, 0.0)] * 3)
    assert len(calls) == max(alone)


# -- an array of upper limits against one call per limit --------------------


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lam=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    kind=st.sampled_from(("scalar", "array")),
    lam_ts=st.lists(_LAM_TIMES, min_size=1, max_size=6),
    rel_tol=st.sampled_from((1e-6, 1e-9, 1e-12)),
)
def test_array_of_uppers_is_the_per_upper_calls_bit_for_bit(lam, kind, lam_ts, rel_tol):
    f, bound_of = _family(kind)
    g = lambda s: f(s, 0.7)  # noqa: E731
    uppers = np.array([lam_t / lam for lam_t in lam_ts])
    kw = {"rel_tol": rel_tol, "growth_bound": (bound_of(0.7), 0.5 * lam)}
    try:
        alone = [exp_weighted_integral(g, lam, upper, **kw) for upper in uppers.tolist()]
    except ToleranceNotMet as exc:
        # the first limit to miss raises its own result, as the loop does
        with pytest.raises(ToleranceNotMet) as raised:
            exp_weighted_integral(g, lam, uppers, **kw)
        assert (str(raised.value), _bits(raised.value.result)) == (str(exc), _bits(exc.result))
        return
    got = exp_weighted_integral(g, lam, uppers, **kw)
    assert got.value.shape == (len(uppers),) + np.shape(alone[0].value)
    assert got.value.tobytes() == np.array([r.value for r in alone]).tobytes()
    assert got.abs_error_estimate.tobytes() == np.array([r.abs_error_estimate for r in alone]).tobytes()
    assert got.nodes_used == sum(r.nodes_used for r in alone)
    assert got.truncated_at == next((r.truncated_at for r in alone if r.truncated_at is not None), None)
    assert got.reliable


def test_array_of_uppers_evaluates_the_integrand_once_per_round():
    calls = []

    def f(s):
        calls.append(len(s))
        return np.cos(s)

    uppers = [0.3, 3.0, 30.0, 3e5, INF]
    rounds = []
    for upper in uppers:
        calls.clear()
        exp_weighted_integral(f, 1.0, upper)
        rounds.append(len(calls))
    calls.clear()
    result = exp_weighted_integral(f, 1.0, np.array(uppers))
    assert len(calls) == max(rounds)
    assert sum(calls) == result.nodes_used


def test_array_of_uppers_must_be_one_dimensional():
    with pytest.raises(DomainError, match="1-D"):
        exp_weighted_integral(np.cos, 1.0, np.ones((2, 2)))
    with pytest.raises(DomainError, match="upper limit"):
        exp_weighted_integral(np.cos, 1.0, np.array([1.0, -1.0]))
