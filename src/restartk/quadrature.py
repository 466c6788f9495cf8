"""Exponentially weighted time integrals with certified error estimates.

Everything about a process restarted at Poisson times reduces to integrals of
the form

    I = int_0^U  lam * exp(-lam*s) * f(s) ds,        U finite or infinite,

where f(s) is a transition probability, density, matrix, or moment of the
underlying process.  This module evaluates such integrals adaptively,
handles the 1/sqrt(s) endpoint behaviour of diffusion densities by a
square-root substitution near the origin, and for U = inf truncates at a
point where a user-supplied growth bound certifies that the discarded tail
is negligible.  The truncated mass is charged to the reported error
estimate, so the estimate stays honest.

The rule is QUADPACK's 21-point Gauss-Kronrod pair with its error estimate
(Piessens et al., QUADPACK, Springer 1983), refined globally as
scipy.integrate.quad_vec refines it: each round bisects up to 128 intervals
of largest error.  A round evaluates f once, on the nodes of all its
intervals, so f maps a 1-D array of times to an array with that leading
axis: shape (n,) for scalar integrands, (n, ...) for array-valued ones,
whose error is controlled in the max norm.  A finite horizon longer than
1e4/lam starts from panels that double in length from 1/lam (quad_vec's
``points``), so that the first rule sees the weight decay at all.

The core refines a batch of such integrals in lockstep: each member keeps
its own truncation point, segments, heaps, tolerance and exits, and each
round calls one integrand f(s, j) once, on the nodes of every member's
bisected intervals, j naming each node's member.  A member's result is the
one it gets alone, bit for bit.  ``exp_weighted_integral`` at one upper
limit is the batch of one; at a 1-D array of upper limits it is the batch
of one integrand up to each of them, so a kernel's grid of horizons costs
one call and one evaluation of f per round.  The kernels' density defaults
integrate all their points as one batch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    TailBoundViolated,
    ToleranceNotMet,
    check_finite,
    check_horizon,
    check_one_dimensional,
    check_positive,
)

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12

# smallest positive normal float; keeps u*u from underflowing to exactly 0
_TINY = np.finfo(float).tiny
_EPS = float(np.finfo(float).eps)

# the 21-point Kronrod rule on [-1, 1], nodes from +1 down, and the 10-point
# Gauss rule embedded in it at every second node (QUADPACK's qk21)
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([_XK, -_XK[-2::-1]])
_GK_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GK_GAUSS = np.concatenate([_WG, _WG[::-1]])

# intervals bisected per refinement round, and held by one segment, at most
_ROUND = 128
_MAX_SUBDIVISIONS = 10000

# far segments longer than this many 1/lam start from _doublings
_LONG = 1e4

# the rule's arithmetic, and the integrand, run with these floating-point
# warnings off: a non-finite value is caught by the error estimate instead
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass
class QuadratureResult:
    """Value of an exponentially weighted integral plus error bookkeeping.

    At a 1-D array of upper limits ``value`` and ``abs_error_estimate``
    hold one entry per upper limit, each the one-limit result's, and
    ``nodes_used`` is their total.

    Attributes
    ----------
    value : float or ndarray
        The integral estimate (same shape as the integrand values; at an
        array of upper limits, those stacked along a leading axis).
    abs_error_estimate : float or ndarray
        Certified bound combining the adaptive rule's own estimate and,
        for semi-infinite integrals, the bound on the truncated tail.
    nodes_used : int
        Total number of integrand evaluations.
    truncated_at : float or None
        Truncation point for U = inf, None for finite U; at an array of
        upper limits, the one its infinite entries share, None if it has none.
    reliable : bool
        False when the estimate did not meet the requested tolerance; such
        a result only travels on the ToleranceNotMet that reports it.
    """

    value: object
    abs_error_estimate: float
    nodes_used: int
    truncated_at: float = None
    reliable: bool = True


def tail_truncation_point(lam, eta, growth_const=1.0, eps=1e-12):
    """Upper limit beyond which the weighted tail is certifiably below eps.

    For |f(s)| <= C * exp(eta*s) with eta < lam, the tail of the weighted
    integral past s* is bounded by C*lam/(lam-eta) * exp(-(lam-eta)*s*).
    Returns the smallest nonnegative s* making that bound at most eps.
    """
    lam = check_positive("restart rate", lam)
    eta = check_finite("growth rate eta", eta)
    C = check_positive("growth constant", growth_const)
    eps = check_positive("tail budget", eps)
    if eta >= lam:
        raise TailBoundViolated(
            f"growth rate eta={eta} is not below the restart rate lam={lam}; "
            "the weighted tail does not vanish"
        )
    gap = lam - eta
    try:
        ratio = C * lam / (gap * eps)
    except ZeroDivisionError:
        ratio = math.inf
    if 0.0 < ratio < math.inf:
        s_star = math.log(ratio) / gap
    elif gap < math.inf:
        # the ratio left the float range on the way; its log has not
        s_star = (math.log(C) + math.log(lam) - math.log(gap) - math.log(eps)) / gap
    else:
        # lam - eta past the float range, and its half within it
        half = 0.5 * lam - 0.5 * eta
        s_star = (math.log(C) + math.log(lam) - math.log(half) - math.log(2.0) - math.log(eps)) / half / 2.0
    if not s_star < math.inf:
        raise DomainError(f"the tail truncation point log(C*lam/((lam - eta)*eps))/(lam - eta) at lam={lam!r}, "
                          f"eta={eta!r}, C={C!r}, eps={eps!r} is out of the float range; rescale the problem")
    return max(s_star, 0.0)


def _tail_bound(lam, eta, C, s_star):
    return C * lam / (lam - eta) * math.exp(-(lam - eta) * s_star)


def exp_weighted_integral(
    f,
    lam,
    upper,
    rel_tol=DEFAULT_REL_TOL,
    abs_tol=DEFAULT_ABS_TOL,
    growth_bound=(1.0, 0.0),
    bound_valid_from=0.0,
):
    """Evaluate int_0^upper lam*exp(-lam*s)*f(s) ds, weight included.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of times s > 0 to an array of values with that
        leading axis.  Never called at s = 0, so integrable endpoint
        singularities such as the 1/sqrt(s) prefactor of a diffusion
        density are acceptable.
    lam : float
        Restart rate, must be positive.
    upper : float or 1-D ndarray
        Upper limit; may be ``math.inf``.  At a 1-D numpy array of them the
        integrals to each limit refine in lockstep, one call of f per round
        on all their nodes, and each is the one-limit call's, bit for bit.
    growth_bound : (C, eta)
        Certified bound |f(s)| <= C*exp(eta*s), used only for upper = inf
        to pick the truncation point.  Requires eta < lam there.
    bound_valid_from : float
        First s at which the growth bound is claimed.  The truncation point
        is never taken below it, so envelopes that only hold past an initial
        transient (diffusion densities, say) stay honest.

    Returns
    -------
    QuadratureResult, one entry per limit at an array of them;
    ToleranceNotMet, carrying the first missing limit's own result, when a
    certified error exceeds its tolerance.  All the limits refine before
    any of them raises.
    """
    uppers = check_one_dimensional("upper limits", upper).tolist() if isinstance(upper, np.ndarray) else [upper]
    results = _exp_weighted_integrals(
        lambda s, j: f(s), lam, uppers, rel_tol, abs_tol, [growth_bound] * len(uppers), bound_valid_from
    )
    if not isinstance(upper, np.ndarray):
        return results[0]
    # the infinite limits share one truncation point: it depends on lam and the bound alone
    cut = next((r.truncated_at for r in results if r.truncated_at is not None), None)
    return QuadratureResult(
        np.array([r.value for r in results]),
        np.array([r.abs_error_estimate for r in results]),
        sum(r.nodes_used for r in results),
        cut,
    )


def _exp_weighted_integrals(f, lam, uppers, rel_tol, abs_tol, growth_bounds, bound_valid_from=0.0):
    """``exp_weighted_integral`` for a batch of integrals, refined in lockstep.

    Member i is int_0^uppers[i] lam*exp(-lam*s)*f(s, i) ds under the growth
    bound growth_bounds[i].  f maps a 1-D array of times and the aligned
    array of their members' indices to the values there, with that leading
    axis.  Each member refines as ``exp_weighted_integral`` refines it alone:
    its own truncation point, near and far segments, doublings, heaps,
    tolerance and exits.  Each round calls f once, on the nodes of every
    segment's bisected intervals, so each member's result is the one it gets
    alone, bit for bit.  Returns the members' results in order.  A member
    whose set-up is refused (its upper limit or growth bound) raises at
    once, before any round; otherwise the first member to miss its
    tolerance raises its ToleranceNotMet.
    """
    lam = check_positive("restart rate", lam)
    rel_tol = check_positive("rel_tol", rel_tol)
    abs_tol = check_positive("abs_tol", abs_tol)
    members = [
        _member(f, i, lam, upper, rel_tol, abs_tol, bound, bound_valid_from)
        for i, (upper, bound) in enumerate(zip(uppers, growth_bounds))
    ]
    runs = [(segment, root, i) for i, (segments, _) in enumerate(members) for segment, root in segments]
    outcomes = iter(_lockstep(f, lam, runs))
    return [finish([next(outcomes) for _ in segments]) for segments, finish in members]


def _lockstep(f, lam, runs):
    """Refine the segments of ``runs`` together; return what each returns.

    runs holds (segment, root, member): a ``_segment`` generator, whether
    it integrates in u = sqrt(s) (a near segment), and the index f takes
    for its member.  Each round applies the 21-point rule to the intervals
    that every unfinished segment asks for, with one call of f on all their
    nodes, and sends each segment its intervals' integrals and estimates.
    """
    outcomes = [None] * len(runs)
    wanted = [None] * len(runs)

    def advance(k, rule):
        try:
            wanted[k] = runs[k][0].send(rule)
        except StopIteration as done:
            wanted[k], outcomes[k] = None, done.value

    for k in range(len(runs)):
        advance(k, None)
    active = [k for k in range(len(runs)) if wanted[k] is not None]
    while active:
        counts = [len(wanted[k][0]) for k in active]
        per_node = [len(_GK_NODES) * m for m in counts]
        root = np.repeat([runs[k][1] for k in active], per_node)
        # the rule's arithmetic, f's and the segments' runs in here
        with np.errstate(**_QUIET):
            x, h, half = _gk_nodes([a for k in active for a in wanted[k][0]], [b for k in active for b in wanted[k][1]])
            # a near segment's node u is the time u*u, with weight 2*u*lam*exp(-lam*s)
            s = np.where(root, np.maximum(x * x, _TINY), x)
            weights = np.where(root, 2.0 * x * lam, lam) * np.exp(-lam * s)
            values = np.asarray(f(s, np.repeat([runs[k][2] for k in active], per_node)), dtype=float)
            if values.shape[:1] != s.shape:
                raise DomainError(
                    f"integrand returned shape {values.shape} for {len(s)} times; "
                    "it must map an array of times to an array with that leading axis"
                )
            integrals, estimates = _gk_rule(weights.reshape(weights.shape + (1,) * (values.ndim - 1)) * values, h, half)
            start = 0
            for k, m in zip(active, counts):
                advance(k, (integrals[start : start + m], estimates[start : start + m]))
                start += m
        active = [k for k in active if wanted[k] is not None]
    return outcomes


def _member(f, i, lam, upper, rel_tol, abs_tol, growth_bound, bound_valid_from):
    """Member i of a batch: its segments, each with whether it is the near
    one, and the function that makes its QuadratureResult of what they
    return.  That function raises ToleranceNotMet, carrying the result, when
    the certified error exceeds the tolerance."""
    upper = check_horizon("upper limit", upper)

    tail_err = 0.0
    truncated_at = None
    if math.isinf(upper):
        C, eta = growth_bound
        # the final tolerance is at least abs_tol whatever the value's scale,
        # so budgeting the tail against abs_tol keeps it certifiably small
        tail_eps = 0.01 * abs_tol
        U = max(tail_truncation_point(lam, eta, C, tail_eps), float(bound_valid_from))
        tail_err = _tail_bound(lam, float(eta), float(C), U)
        truncated_at = U
    else:
        U = upper

    if U == 0.0:

        def empty(_):
            # f at one time, times 0: the integral over no interval, in f's shape
            probe = np.asarray(f(np.array([_TINY]), np.array([i])), dtype=float)[0] * 0.0
            value = float(probe) if probe.ndim == 0 else probe
            return QuadratureResult(value, tail_err, 0, truncated_at)

        return [], empty

    # Split at ~1/lam: a sqrt substitution on [0, split] turns s^(-1/2)
    # endpoint behaviour into a bounded smooth integrand, the remainder is
    # integrated in the original variable.
    split = min(1.0 / lam, U)
    seg_rel = rel_tol / 4.0
    seg_abs = abs_tol / 4.0
    segments = [(_segment(0.0, math.sqrt(split), seg_abs, seg_rel, _MAX_SUBDIVISIONS), True)]
    if U > split:
        segments.append((_segment(split, U, seg_abs, seg_rel, _MAX_SUBDIVISIONS, _doublings(split, U)), False))

    def finish(outcomes):
        value, err, nodes, ok = outcomes[0]
        for v2, e2, n2, ok2 in outcomes[1:]:
            value = value + v2
            err += e2
            nodes += n2
            ok = ok and ok2

        err_total = err + tail_err
        scale = _max_abs(value)
        tol = max(abs_tol, rel_tol * scale)
        reliable = ok and math.isfinite(err_total) and err_total <= tol

        if np.ndim(value) == 0:
            value = float(value)
        result = QuadratureResult(value, err_total, nodes, truncated_at, reliable)
        if not reliable:
            raise ToleranceNotMet(
                f"certified error {err_total:.3e} exceeds tolerance {tol:.3e} "
                f"(adaptive rule {'converged' if ok else 'did not converge'})",
                result=result,
            )
        return result

    return segments, finish


def _doublings(split, U):
    """Breakpoints split*2, split*4, ... below U once U exceeds _LONG*split, else none.

    One 21-point panel over [split, U] places its first node near 0.002*U,
    where exp(-lam*s) has long since underflowed when lam*U is large: the
    rule then sees a zero integrand and converges on a wrong value.
    """
    points = []
    if U > _LONG * split:
        p = 2.0 * split
        while p < U:
            points.append(p)
            p *= 2.0
    return points


def _gk_nodes(lo, hi):
    """The 21 nodes of each interval [lo[i], hi[i]], all in one array, with
    the half-lengths as a list and as a column for ``_gk_rule``."""
    h = [0.5 * (b - a) for a, b in zip(lo, hi)]
    c = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
    half = np.array(h)[:, None]
    return (c[:, None] + half * _GK_NODES).ravel(), h, half


def _gk_rule(values, h, half):
    """The 21-point Gauss-Kronrod rule on each interval of ``_gk_nodes``,
    from the integrand's values at its nodes; the rule's sums are dot
    products, each interval's alone.  Returns the integrals, shaped
    (m, *value shape), and per interval QUADPACK's error and rounding
    estimates in the max norm."""
    m = len(h)
    F = values.reshape(m, len(_GK_NODES), -1)
    kronrod = _GK_KRONROD @ F
    # max norms taken before the scaling by h > 0, which commutes with them
    diff = np.abs(kronrod - _GK_GAUSS @ F[:, 1::2]).max(axis=1)
    spread = (_GK_KRONROD @ np.abs(F - (kronrod / 2.0)[:, None])).max(axis=1)
    size = (_GK_KRONROD @ np.abs(F)).max(axis=1)
    estimates = list(map(_gk_error, h, diff.tolist(), spread.tolist(), size.tolist()))
    return (half * kronrod).reshape((m,) + values.shape[1:]), estimates


def _max_abs(value):
    # the max norm of a value: a Python float's abs where it is a scalar,
    # which costs a tenth of numpy's reduction
    return abs(float(value)) if np.ndim(value) == 0 else float(np.abs(value).max())


def _gk_error(h, diff, spread, size):
    """QUADPACK's error estimate and rounding error of one interval."""
    err = diff * h
    dabs = spread * h
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    rounding = 50 * _EPS * h * size
    if rounding > _TINY:
        err = max(err, rounding)
    return err, rounding


def _segment(a, b, epsabs, epsrel, limit, points=()):
    """Globally adaptive GK21 on [a, b]: value, error, node count, converged.

    A generator: it yields the intervals it wants the 21-point rule on, as
    (lows, highs), and receives their integrals and estimates from
    ``_gk_rule``; its caller keeps floating-point warnings off while it runs.  The refinement of scipy.integrate.quad_vec, with its
    ``points``: the initial intervals are [a, b] cut at the sorted interior
    breakpoints, in a heap of (-error, lo, hi); rounds bisect the intervals
    of largest error until their errors cover all but tol/8 of the total,
    with the same exits (total error below tol/8, below the rounding error,
    or the interval limit).  Only the evaluation differs: all the initial
    intervals are asked for at once, and so are all the bisected halves of
    a round.
    """
    edges = [a, *points, b]
    integral, estimates = yield edges[:-1], edges[1:]
    value = integral[0]
    for more in integral[1:]:
        value = value + more
    error = sum(e for e, _ in estimates)
    round_error = sum(r for _, r in estimates)
    cache = dict(zip(zip(edges[:-1], edges[1:]), integral))
    heap = [(-e, lo, hi) for (e, _), lo, hi in zip(estimates, edges[:-1], edges[1:])]
    heapq.heapify(heap)
    nodes = len(_GK_NODES) * len(integral)
    converged = False
    tol = max(epsabs, epsrel * _max_abs(value))
    while heap and len(heap) < limit:
        batch = []
        popped = 0.0
        while heap and len(batch) < _ROUND and not (batch and popped > error - tol / 8):
            neg, lo, hi = heapq.heappop(heap)
            batch.append((lo, hi, 0.5 * (lo + hi), -neg, cache.pop((lo, hi), None)))
            popped -= neg
        # the two halves of every interval, then each interval whose own
        # integral was not kept (a degenerate interval met twice)
        redo = [iv for iv in batch if iv[4] is None]
        integral, estimates = yield (
            [iv[0] for iv in batch] + [iv[2] for iv in batch] + [iv[0] for iv in redo],
            [iv[2] for iv in batch] + [iv[1] for iv in batch] + [iv[1] for iv in redo],
        )
        nodes += len(_GK_NODES) * len(integral)
        m = len(batch)
        redone = iter(integral[2 * m :])
        # in interval order, as quad_vec adds them
        for j, (lo, hi, mid, old_err, old) in enumerate(batch):
            left, right = integral[j], integral[m + j]
            (e1, r1), (e2, r2) = estimates[j], estimates[m + j]
            value = value + (left + right - (next(redone) if old is None else old))
            error += e1 + e2 - old_err
            round_error += r1 + r2
            cache[(lo, mid)] = left
            cache[(mid, hi)] = right
            heapq.heappush(heap, (-e1, lo, mid))
            heapq.heappush(heap, (-e2, mid, hi))
        tol = max(epsabs, epsrel * _max_abs(value))
        if len(heap) >= 2:
            if error < tol / 8:
                converged = True
                break
            if error < round_error:
                break
        if not (math.isfinite(error) and math.isfinite(round_error)):
            break
    ok = converged and bool(np.all(np.isfinite(value)))
    total = error + round_error
    if not math.isfinite(total):
        ok = False
        total = math.inf
    return np.asarray(value, dtype=float), total, nodes, ok
