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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TailBoundViolated, ToleranceNotMet, check_finite, check_horizon, check_positive

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


@dataclass
class QuadratureResult:
    """Value of an exponentially weighted integral plus error bookkeeping.

    Attributes
    ----------
    value : float or ndarray
        The integral estimate (same shape as the integrand values).
    abs_error_estimate : float
        Certified bound combining the adaptive rule's own estimate and,
        for semi-infinite integrals, the bound on the truncated tail.
    nodes_used : int
        Total number of integrand evaluations.
    truncated_at : float or None
        Truncation point for U = inf, None for finite U.
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
    s_star = math.log(C * lam / ((lam - eta) * eps)) / (lam - eta)
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
    upper : float
        Upper limit; may be ``math.inf``.
    growth_bound : (C, eta)
        Certified bound |f(s)| <= C*exp(eta*s), used only for upper = inf
        to pick the truncation point.  Requires eta < lam there.
    bound_valid_from : float
        First s at which the growth bound is claimed.  The truncation point
        is never taken below it, so envelopes that only hold past an initial
        transient (diffusion densities, say) stay honest.

    Returns
    -------
    QuadratureResult; ToleranceNotMet, carrying it, when the certified
    error exceeds the tolerance.
    """
    lam = check_positive("restart rate", lam)
    rel_tol = check_positive("rel_tol", rel_tol)
    abs_tol = check_positive("abs_tol", abs_tol)
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
        probe = np.asarray(f(np.array([_TINY])), dtype=float)[0] * 0.0
        value = float(probe) if probe.ndim == 0 else probe
        return QuadratureResult(value, tail_err, 0, truncated_at)

    # Split at ~1/lam: a sqrt substitution on [0, split] turns s^(-1/2)
    # endpoint behaviour into a bounded smooth integrand, the remainder is
    # integrated in the original variable.
    split = min(1.0 / lam, U)
    seg_rel = rel_tol / 4.0
    seg_abs = abs_tol / 4.0

    def near(u):
        s = np.maximum(u * u, _TINY)
        return _weigh(2.0 * u * lam * np.exp(-lam * s), f(s))

    value, err, nodes, ok = _segment(near, 0.0, math.sqrt(split), seg_abs, seg_rel, _MAX_SUBDIVISIONS)

    if U > split:

        def far(s):
            return _weigh(lam * np.exp(-lam * s), f(s))

        v2, e2, n2, ok2 = _segment(far, split, U, seg_abs, seg_rel, _MAX_SUBDIVISIONS, _doublings(split, U))
        value = value + v2
        err += e2
        nodes += n2
        ok = ok and ok2

    err_total = err + tail_err
    scale = float(np.max(np.abs(value))) if np.ndim(value) else abs(float(value))
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


def _weigh(weights, values):
    """weights[i] * values[i] for the values of f at n times."""
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != weights.shape:
        raise DomainError(
            f"integrand returned shape {values.shape} for {len(weights)} times; "
            "it must map an array of times to an array with that leading axis"
        )
    return weights.reshape(weights.shape + (1,) * (values.ndim - 1)) * values


def _gk21(g, lo, hi):
    """The 21-point Gauss-Kronrod rule on each interval [lo[i], hi[i]].

    One call of g on all 21*m nodes; the rule's sums are dot products.
    Returns the integrals, shaped (m, *value shape), and per interval
    QUADPACK's error and rounding estimates in the max norm.
    """
    m = len(lo)
    h = [0.5 * (b - a) for a, b in zip(lo, hi)]
    c = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
    half = np.array(h)[:, None]
    values = g((c[:, None] + half * _GK_NODES).ravel())
    F = values.reshape(m, len(_GK_NODES), -1)
    kronrod = _GK_KRONROD @ F
    # max norms taken before the scaling by h > 0, which commutes with them
    diff = np.abs(kronrod - _GK_GAUSS @ F[:, 1::2]).max(axis=1)
    spread = (_GK_KRONROD @ np.abs(F - (kronrod / 2.0)[:, None])).max(axis=1)
    size = (_GK_KRONROD @ np.abs(F)).max(axis=1)
    estimates = list(map(_gk_error, h, diff.tolist(), spread.tolist(), size.tolist()))
    return (half * kronrod).reshape((m,) + values.shape[1:]), estimates


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


def _segment(g, a, b, epsabs, epsrel, limit, points=()):
    """Globally adaptive GK21 on [a, b]: value, error, node count, converged.

    The refinement of scipy.integrate.quad_vec, with its ``points``: the
    initial intervals are [a, b] cut at the sorted interior breakpoints, in
    a heap of (-error, lo, hi); rounds bisect the intervals of largest error
    until their errors cover all but tol/8 of the total, with the same exits
    (total error below tol/8, below the rounding error, or the interval
    limit).  Only the evaluation differs: all the initial intervals share
    one call of g, and so do all the bisected halves of a round.
    """
    edges = [a, *points, b]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        integral, estimates = _gk21(g, edges[:-1], edges[1:])
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
        while heap and len(heap) < limit:
            tol = max(epsabs, epsrel * float(np.abs(value).max()))
            batch = []
            popped = 0.0
            while heap and len(batch) < _ROUND and not (batch and popped > error - tol / 8):
                neg, lo, hi = heapq.heappop(heap)
                batch.append((lo, hi, 0.5 * (lo + hi), -neg, cache.pop((lo, hi), None)))
                popped -= neg
            # the two halves of every interval, then each interval whose own
            # integral was not kept (a degenerate interval met twice)
            redo = [iv for iv in batch if iv[4] is None]
            integral, estimates = _gk21(
                g,
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
            if len(heap) >= 2:
                tol = max(epsabs, epsrel * float(np.abs(value).max()))
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
