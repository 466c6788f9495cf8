"""Moment dynamics, stationary limits, ergodicity bounds and the small-rate sweep.

The k-th moment of the restarted process splits like the kernel itself:

    E_x[X(t)^k] = exp(-lam*t) E_x[base^k](t)
                  + int_nu int_0^t lam exp(-lam*s) E_y[base^k](s) ds

For drifted Brownian motion the inner integrand is a polynomial in s, for
geometric Brownian motion a pure exponential; both integrate in closed form,
which is the 'analytic' route tested against quadrature and Monte Carlo.
Finite chains get an exact resolvent form.  Each base kernel carries its
own form (``restarted_moment``) and threshold (``moment_growth_rate``);
kernels without one fall back to quadrature.  Every moment at a finite t is
a number, the restart law entering only through its closed-form moments.
Stationary values follow by letting t grow; geometric Brownian motion keeps
its k-th moment only while the restart rate beats the moment growth rate
eta_k, and at t = inf the boundary and supercritical cases are reported as
explicit Divergent values rather than numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FubiniUnverified, check_count, check_positive
from .kernels import Divergent, RestartedProcess, RestartSpec
from .quadrature import DEFAULT_REL_TOL


@dataclass
class MomentReport:
    """Analytic moment value with its optional empirical counterpart."""

    k: int
    t: float
    analytic: object
    empirical: object = None
    finiteness_threshold: float = None

    def consistent(self):
        """Whether the empirical estimate sits within 3 standard errors."""
        if self.empirical is None or isinstance(self.analytic, Divergent):
            return None
        gap = abs(self.analytic - self.empirical.estimate)
        return gap <= 3.0 * self.empirical.std_error

    def analytic_cell(self):
        """The analytic value, or the growth law as text when it diverges."""
        an = self.analytic
        return an.description if isinstance(an, Divergent) else an

    def table(self):
        cols = ["k", "t", "analytic", "empirical", "std_error", "n", "threshold", "consistent"]
        emp = self.empirical
        return cols, [
            (
                self.k,
                self.t,
                self.analytic_cell(),
                emp.estimate if emp else None,
                emp.std_error if emp else None,
                emp.n if emp else None,
                self.finiteness_threshold,
                self.consistent(),
            )
        ]


def bm_modified_moment(p, restart, k, t, x):
    """E_x[X(t)^k] of base kernel p under ``restart``, by p's closed form; t may be inf."""
    return p.restarted_moment(restart, k, t, x)


gbm_modified_moment = ctmc_modified_moment = bm_modified_moment


def modified_moment(proc, k, t, x, empirical=None, rel_tol=DEFAULT_REL_TOL):
    """Time-t moment of a restarted process: the analytic route, as a report.

    Takes the base kernel's closed form (``restarted_moment``) and its
    finiteness threshold (``moment_growth_rate``), and falls back to
    quadrature of the base kernel's moments where it has no closed form.
    Warns FubiniUnverified when the base kernel cannot certify that absolute
    moments stay finite on compact time intervals, the hypothesis behind
    swapping the time integral and the expectation.
    """
    k = check_count("moment order k", k)
    base = proc.base
    if not proc.certifies_absolute_moment(k):
        warnings.warn(
            f"absolute-moment condition for k={k} not certified by "
            f"{type(base).__name__}; formula applied unverified",
            FubiniUnverified,
        )
    analytic = base.restarted_moment(proc.restart, k, t, x)
    if analytic is None:
        if math.isinf(t):
            raise DomainError(
                f"no stationary moment route for {type(base).__name__}; "
                "closed-form base moments are required"
            )
        analytic = proc.moment(k, t, x, rel_tol=rel_tol)
        if analytic is None:
            raise DomainError(f"{type(base).__name__} exposes no closed-form moments")
    return MomentReport(k, float(t), analytic, empirical, base.moment_growth_rate(k))


def bm_stationary_moments(p, restart):
    """Stationary mean, second moment and variance of restarted drifted BM.

    mean       -> nu_1 + mu/lam
    second mom -> sigma^2/lam + 2 mu^2/lam^2 + 2 mu nu_1/lam + nu_2
    variance   -> nu_2 - nu_1^2 + sigma^2/lam + mu^2/lam^2

    Mean and second moment are p's closed form at t = inf.
    """
    mean, second = (p.restarted_moment(restart, k, math.inf, 0.0) for k in (1, 2))
    if not (math.isfinite(mean) and math.isfinite(second)):
        raise DomainError("nu needs finite first and second moments")
    return mean, second, second - mean**2


def gbm_stationary_moment(p, restart, k):
    """Stationary k-th moment of restarted GBM, or Divergent when lam <= eta_k."""
    return gbm_modified_moment(p, restart, k, math.inf, 1.0)


@dataclass
class ErgodicityRow:
    t: float
    sup_deviation: float
    bound: float
    passed: bool
    tv: float = None
    tv_bound: float = None


@dataclass
class ErgodicityReport:
    """Per-time deviations from the invariant law against the exp(-lam*t) bound.

    On finite chains ``tv`` is the exact total variation distance
    (half the l1 norm); the classical two-sup convention is twice that, with
    bound 2*exp(-lam*t) -- the recorded ``tv <= tv_bound = exp(-lam*t)``
    check is the same inequality.
    """

    x: object
    rows: list = field(default_factory=list)
    passed: bool = True

    def table(self):
        cols = ["t", "sup_deviation", "bound", "tv", "tv_bound", "passed"]
        return cols, [(r.t, r.sup_deviation, r.bound, r.tv, r.tv_bound, r.passed) for r in self.rows]


# what ergodicity_check lets a deviation exceed its bound by: the certified
# numerical error of both sides
ERGODICITY_SLACK = 1e-6


def ergodicity_check(proc, x, t_grid, test_sets, rel_tol=DEFAULT_REL_TOL):
    """Verify |q(G) - P(t, x, G)| <= exp(-lam*t) over the (t, set) matrix.

    Kernels with a transition matrix go through exact matrices, and their
    rows also report ``tv``, the total variation distance, against
    ``tv_bound``; other kernels go through their masses (closed forms for BM
    and GBM, quadrature otherwise) and leave both None.  ERGODICITY_SLACK
    absorbs the certified error on both sides.
    """
    if not test_sets:
        raise DomainError("test_sets must not be empty")
    if len(t_grid) == 0:
        raise DomainError("t_grid must not be empty")
    for g in test_sets:
        proc.space.check_target(g)
    times = [float(t) for t in t_grid]
    if proc._has_matrix():
        q = proc.invariant_vector(rel_tol=rel_tol)
        # every grid time's restarted row: the chain's exp(Q*t) in one stacked call
        rows = proc.transition_matrices(np.array(times), rel_tol=rel_tol)[:, proc.space.index(x)]
        q_by_set = [float(sum(q[i] for i in g.indices)) for g in test_sets]
        masses = [[float(sum(row[i] for i in g.indices)) for g in test_sets] for row in rows]
        tvs = [0.5 * float(np.abs(q - row).sum()) for row in rows]
    else:
        q_by_set = [proc.invariant_measure(g, rel_tol=rel_tol) for g in test_sets]
        by_set = [proc.transition_probability(np.array(times), x, g, rel_tol=rel_tol) for g in test_sets]
        masses = np.transpose(by_set).tolist()
        tvs = [None] * len(times)
    report = ErgodicityReport(x)
    for t, mass, tv in zip(times, masses, tvs):
        bound = math.exp(-proc.rate * t)
        tv_bound = None if tv is None else bound
        sup_dev = max(abs(qg - p) for qg, p in zip(q_by_set, mass))
        ok = sup_dev <= bound + ERGODICITY_SLACK and (tv is None or tv <= tv_bound + ERGODICITY_SLACK)
        report.rows.append(ErgodicityRow(t, sup_dev, bound, ok, tv, tv_bound))
        report.passed = report.passed and ok
    return report


@dataclass
class SweepRow:
    lam: float
    masses: tuple
    l1_deviation: float = None


@dataclass
class SweepReport:
    """q as a function of the restart rate, against the base process's own
    stationary law when it has one."""

    rows: list
    comparison: object = None
    fitted_order: float = None

    def table(self):
        k = len(self.rows[0].masses) if self.rows else 0
        cols = ["lambda"] + [f"q_set{i}" for i in range(k)] + ["l1_deviation"]
        return cols, [(r.lam, *r.masses, r.l1_deviation) for r in self.rows]


def small_lambda_sweep(kernel, nu, target_sets, lambda_grid, rel_tol=DEFAULT_REL_TOL):
    """Invariant masses along a decreasing grid of restart rates.

    When the base kernel knows its own stationary law (a finite chain), the
    report carries the l1 distance of the invariant vector to it and, over
    two or more rates, a fitted convergence order in lam.  For diffusions
    with no stationary law of their own the masses are reported as they are
    -- typically draining to zero on bounded windows -- and no limit is
    asserted.
    """
    lams = [check_positive("lambda_grid entry", l) for l in lambda_grid]
    if not lams:
        raise DomainError("lambda_grid must not be empty")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise DomainError("lambda_grid must be strictly decreasing")
    pi = kernel.stationary_distribution()
    rows = []
    for lam in lams:
        proc = RestartedProcess(kernel, RestartSpec(lam, nu))
        masses = tuple(proc.invariant_measure(g, rel_tol=rel_tol) for g in target_sets)
        dev = None if pi is None else float(np.abs(proc.invariant_vector(rel_tol=rel_tol) - pi).sum())
        rows.append(SweepRow(lam, masses, dev))
    order = None
    if pi is not None and len(rows) > 1 and all(r.l1_deviation > 0.0 for r in rows):
        order = float(np.polyfit(np.log(lams), np.log([r.l1_deviation for r in rows]), 1)[0])
    return SweepReport(rows, comparison=pi, fitted_order=order)
