"""Acceptance gate: the headline guarantees of the library, end to end.

Each test checks one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible under ``pytest -s``), so the whole gate can be read
off the log.  Every random quantity runs under a fixed seed; the statistical
checks use 3-standard-error bands.
"""

import math
import time

import numpy as np
import pytest
from conftest import draw_restart_times, finite_support_from_weights, random_generator, random_restart_weights
from scipy.integrate import quad
from scipy.linalg import expm

from restartk import (
    BrownianWithDrift,
    Divergent,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    Interval,
    MomentUnstable,
    PathConfig,
    PointMass,
    RestartSpec,
    RestartedProcess,
    Subset,
    ergodicity_check,
    gbm_stationary_moment,
    modified_moment,
    monte_carlo_moment,
    nu_weights,
    run_ensemble,
    small_lambda_sweep,
)
from restartk.analysis import ERGODICITY_SLACK
from restartk.simulation import block_rng


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _random_chains():
    """Five dense ergodic chains (2 to 6 states) with paired restart data."""
    rng = np.random.default_rng(2024)
    out = []
    for trial, n in enumerate((2, 3, 4, 5, 6)):
        Q = random_generator(rng, n)
        rate = 1.3 + 0.2 * trial
        nu = finite_support_from_weights(random_restart_weights(rng, n))
        out.append((FiniteCTMC(Q), rate, nu))
    return out


def test_restarted_kernel_matches_generator_exponential():
    """Criterion 1: the restarted kernel equals expm of Q + lam(1 nu^T - I)."""
    t0 = time.monotonic()
    worst = 0.0
    for chain, rate, nu in _random_chains():
        n = chain.space.n
        w = nu_weights(nu, chain.space)
        G = chain.Q + rate * (np.outer(np.ones(n), w) - np.eye(n))
        proc = RestartedProcess(chain, RestartSpec(rate, nu))
        for t in (0.1, 1.0, 5.0):
            gap = np.max(np.abs(proc.transition_matrix(t) - expm(G * t)))
            worst = max(worst, float(gap))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(1, ok, f"5 chains, worst entrywise gap {worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_invariant_law_is_fixed_by_the_kernel():
    """Criterion 2: q is invariant, exactly on chains and by quadrature for BM."""
    worst_chain = 0.0
    for chain, rate, nu in _random_chains():
        proc = RestartedProcess(chain, RestartSpec(rate, nu))
        q = proc.invariant_vector()
        for t in (0.5, 2.0, 10.0):
            l1 = float(np.abs(q @ proc.transition_matrix(t) - q).sum())
            worst_chain = max(worst_chain, l1)

    proc = RestartedProcess(BrownianWithDrift(0.0, 1.0), RestartSpec(2.0, PointMass(0.0)))
    t = 0.7
    worst_bm = 0.0
    for i in range(10):
        target = Interval(-3.0 + 0.6 * i, -3.0 + 0.6 * i + 0.8)
        lhs, _ = quad(
            lambda z: proc.invariant_density(z)
            * proc.transition_probability(t, z, target, rel_tol=1e-8),
            -8.0,
            8.0,
            points=[0.0],
            limit=80,
            epsabs=1e-8,
        )
        worst_bm = max(worst_bm, abs(lhs - proc.invariant_measure(target)))
    ok = worst_chain < 1e-9 and worst_bm < 1e-5
    _report(
        2,
        ok,
        f"chain l1 gap {worst_chain:.2e} (tol 1e-9), "
        f"BM interval gap {worst_bm:.2e} (tol 1e-5)",
    )


def test_distance_to_invariant_law_is_dominated_by_restart_clock():
    """Criterion 3: sup-deviation and chain TV sit under exp(-lam t), full matrix."""
    slack = ERGODICITY_SLACK
    reports = []

    chain3 = FiniteCTMC(
        np.array([[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]),
        [0.3, -1.2, 2.5],
    )
    proc = RestartedProcess(chain3, RestartSpec(2.0, FiniteSupport(((0, 0.4), (2, 0.6)))))
    sets = [Subset({0}), Subset({1}), Subset({2}), Subset({0, 2})]
    reports.append(ergodicity_check(proc, 0, (0.3, 1.0, 2.0, 5.0), sets))

    chain4 = FiniteCTMC(random_generator(np.random.default_rng(77), 4))
    proc = RestartedProcess(chain4, RestartSpec(1.2, FiniteSupport(((1, 1.0),))))
    sets = [Subset({0}), Subset({1, 2}), Subset({3})]
    reports.append(ergodicity_check(proc, 2, (0.3, 1.0, 2.0, 5.0), sets))

    proc = RestartedProcess(BrownianWithDrift(0.3, 1.0), RestartSpec(2.0, PointMass(0.0)))
    sets = [
        Interval(-1.0, 1.0),
        Interval(0.0, math.inf),
        Interval(-math.inf, -0.5),
        Interval(0.2, 1.4),
    ]
    reports.append(ergodicity_check(proc, 0.3, (0.5, 1.5, 3.0), sets))

    proc = RestartedProcess(GeometricBrownian(0.2, 0.5), RestartSpec(1.5, PointMass(1.0)))
    sets = [Interval(0.0, 1.0), Interval(1.0, math.inf), Interval(0.5, 2.0)]
    reports.append(ergodicity_check(proc, 2.0, (0.5, 1.5, 3.0), sets))

    rows = [r for rep in reports for r in rep.rows]
    worst_margin = max(r.sup_deviation - r.bound for r in rows)
    tv_ok = all(
        2.0 * r.tv <= 2.0 * r.tv_bound + slack for r in rows if r.tv is not None
    )
    ok = all(rep.passed for rep in reports) and tv_ok
    _report(
        3,
        ok,
        f"{len(rows)} (process, t) rows, worst sup-deviation margin "
        f"{worst_margin:.1e} (slack {slack:.0e}), chain TV under 2 exp(-lam t)",
    )


def test_brownian_stationary_moments_by_monte_carlo():
    """Criterion 4: 1e5 paths reproduce mean 1/2 and variance 3/4 within 3 SE."""
    t0 = time.monotonic()
    proc = RestartedProcess(BrownianWithDrift(1.0, 1.0), RestartSpec(2.0, PointMass(0.0)))
    config = PathConfig(
        seed=20260826, horizon=10.0, record_grid=(10.0,), n_paths=100000,
        initial=PointMass(0.0),
    )
    vals = run_ensemble(proc, config, workers=1)[:, 0]
    n = len(vals)
    mean = float(np.mean(vals))
    se_mean = float(np.std(vals, ddof=1)) / math.sqrt(n)
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - mean) ** 4))
    se_var = math.sqrt((m4 - var**2) / n)
    elapsed = time.monotonic() - t0
    mean_ok = abs(mean - 0.5) <= 3.0 * se_mean
    var_ok = abs(var - 0.75) <= 3.0 * se_var
    ok = mean_ok and var_ok and elapsed < 60.0
    _report(
        4,
        ok,
        f"mean {mean:.4f} (target 0.5, 3SE {3 * se_mean:.4f}), "
        f"var {var:.4f} (target 0.75, 3SE {3 * se_var:.4f}), {elapsed:.1f}s",
    )


def test_moment_finiteness_threshold_of_restarted_gbm():
    """Criterion 5: k-th moments flip between finite values and divergence at eta_k."""
    p = GeometricBrownian(0.5, 1.0)
    nu = PointMass(1.0)

    first = gbm_stationary_moment(p, RestartSpec(1.0, nu), 1)
    proc = RestartedProcess(p, RestartSpec(1.0, nu))
    config = PathConfig(
        seed=101, horizon=30.0, record_grid=(30.0,), n_paths=100000,
        initial=PointMass(1.0),
    )
    # var(X^1) needs eta_2 < lam, which fails here, so the heavy-tail
    # diagnostic must fire; the mean itself is finite and well estimated
    with pytest.warns(MomentUnstable):
        rep1 = monte_carlo_moment(proc, config, 1, 30.0, ensemble=run_ensemble(proc, config, workers=2))
    z1 = (rep1.estimate - first) / rep1.std_error

    blown = gbm_stationary_moment(p, RestartSpec(1.0, nu), 2)

    second = gbm_stationary_moment(p, RestartSpec(3.0, nu), 2)
    proc = RestartedProcess(p, RestartSpec(3.0, nu))
    config = PathConfig(
        seed=404, horizon=12.0, record_grid=(12.0,), n_paths=100000,
        initial=PointMass(1.0),
    )
    with pytest.warns(MomentUnstable):
        rep2 = monte_carlo_moment(proc, config, 2, 12.0, ensemble=run_ensemble(proc, config, workers=2))
    z2 = (rep2.estimate - second) / rep2.std_error

    # eta_2 = 2: the second moment diverges just below lam = 2 and is finite just above
    below = gbm_stationary_moment(p, RestartSpec(1.99, nu), 2)
    above = gbm_stationary_moment(p, RestartSpec(2.01, nu), 2)
    orders_ok = isinstance(below, Divergent) and isinstance(above, float) and math.isfinite(above)
    ok = (
        math.isclose(first, 2.0, rel_tol=1e-12)
        and abs(z1) <= 3.0
        and isinstance(blown, Divergent)
        and math.isclose(second, 3.0, rel_tol=1e-12)
        and abs(z2) <= 3.0
        and orders_ok
    )
    _report(
        5,
        ok,
        f"k=1 lam=1 -> {first:.1f} (MC z {z1:+.2f}), k=2 lam=1 divergent, "
        f"k=2 lam=3 -> {second:.1f} (MC z {z2:+.2f}), order jumps 1 -> 2 across lam=2",
    )


def test_invariant_law_collapses_to_chain_stationary_at_small_rates():
    """Criterion 6: ||q(lam) - pi||_1 decays ~linearly in lam; exactly 0 at nu=pi."""
    grid = (1.0, 0.3, 0.1, 0.03, 0.01)
    threshold = 5e-2 * grid[-1] / grid[0]
    chains = [
        (FiniteCTMC(np.array([[-25.0, 25.0], [25.0, -25.0]])), FiniteSupport(((0, 1.0),))),
        (FiniteCTMC(random_generator(np.random.default_rng(99), 4, scale=40.0)),
         FiniteSupport(((2, 1.0),))),
    ]
    finest = []
    pi_worst = 0.0
    monotone = True
    for chain, nu in chains:
        sets = [Subset({i}) for i in range(chain.space.n)]
        devs = [r.l1_deviation for r in small_lambda_sweep(chain, nu, sets, grid).rows]
        monotone = monotone and all(b < a for a, b in zip(devs, devs[1:]))
        finest.append(devs[-1])

        nu_pi = finite_support_from_weights(chain.stationary_distribution())
        rows = small_lambda_sweep(chain, nu_pi, sets, grid).rows
        pi_worst = max(pi_worst, max(r.l1_deviation for r in rows))
    ok = monotone and max(finest) < threshold and pi_worst < 1e-12
    _report(
        6,
        ok,
        f"monotone decay, finest-rate deviations {finest[0]:.2e}/{finest[1]:.2e} "
        f"(tol {threshold:.0e}), nu=pi deviation {pi_worst:.1e} (tol 1e-12)",
    )


def test_age_of_restart_clock_is_truncated_exponential():
    """Criterion 7: the age law behind the kernel identity, at Monte Carlo scale.

    P[age <= s, at least one restart] = 1 - exp(-lam*s) on [0, t], read off
    the event log's own clock: path i's restart times on block_rng(515, i).
    """
    lam, t, n = 5.0, 10.0, 100000
    last = np.array([times[-1] if len(times) else -math.inf
                     for times in (draw_restart_times(block_rng(515, i), lam, t) for i in range(n))])
    ages = np.sort(t - last)  # inf where the clock never rang
    grid = np.linspace(0.0, t, 200)
    gap = float(np.abs(np.searchsorted(ages, grid, side="right") / n - (1.0 - np.exp(-lam * grid))).max())
    band = 3.0 / math.sqrt(n)
    _report(7, gap < band, f"sup gap to 1-exp(-5s) is {gap:.2e} (band 3/sqrt(n) = {band:.2e})")


def test_moment_oracle_triangle():
    """Criterion 8: closed form, quadrature and Monte Carlo agree on 12 cases."""
    chain = FiniteCTMC(
        np.array([[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]),
        [0.3, -1.2, 2.5],
    )
    matrix = [
        (BrownianWithDrift(1.0, 1.0), 2.0, PointMass(0.0), 0.0,
         [(1, 0.5), (1, 2.0), (2, 1.0), (3, 1.0)]),
        (BrownianWithDrift(-0.5, 0.8), 1.0, FiniteSupport(((0.0, 0.5), (1.0, 0.5))), 0.5,
         [(1, 1.0), (2, 2.0)]),
        (GeometricBrownian(0.5, 0.5), 2.0, PointMass(1.0), 1.0,
         [(1, 1.0), (1, 3.0), (2, 0.5)]),
        (chain, 1.4, FiniteSupport(((0, 0.3), (2, 0.7))), 1,
         [(1, 0.6), (2, 1.5), (3, 0.8)]),
    ]
    combos = 0
    worst_quad = 0.0
    worst_z = 0.0
    for base, rate, nu, x, cases in matrix:
        proc = RestartedProcess(base, RestartSpec(rate, nu))
        grid = tuple(sorted({t for _, t in cases}))
        config = PathConfig(
            seed=88, horizon=grid[-1], record_grid=grid, n_paths=30000,
            initial=PointMass(x),
        )
        ensemble = run_ensemble(proc, config, workers=2)
        for k, t in cases:
            analytic = modified_moment(proc, k, t, x).analytic
            quad_route = proc.moment(k, t, x, rel_tol=1e-9)
            emp = monte_carlo_moment(proc, config, k, t, ensemble=ensemble)
            scale = max(1.0, abs(analytic))
            worst_quad = max(worst_quad, abs(analytic - quad_route) / scale)
            worst_z = max(worst_z, abs(analytic - emp.estimate) / emp.std_error)
            combos += 1
    ok = combos >= 12 and worst_quad <= 1e-6 and worst_z < 3.0
    _report(
        8,
        ok,
        f"{combos} (process, lam, k, t) cases, worst quadrature gap {worst_quad:.1e} "
        f"(tol 1e-6), worst Monte Carlo z {worst_z:.2f} (band 3)",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
