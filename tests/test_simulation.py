"""Event-driven simulation: exactness, reproducibility, and diagnostics."""

import io
import math

import numpy as np
import pytest

from restartk import (
    BrownianWithDrift,
    DomainError,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    MomentUnstable,
    PathConfig,
    PointMass,
    RestartSpec,
    RestartedProcess,
    WindowTooNarrow,
    age_distribution_test,
    empirical_distribution,
    histogram_tv,
    monte_carlo_moment,
    run_ensemble,
    simulate_path,
    write_path_csv,
)
from restartk.simulation import draw_restart_times, path_rng


def bm_process(mu=0.0, sigma=1.0, rate=2.0, nu=None):
    nu = PointMass(0.0) if nu is None else nu
    return RestartedProcess(BrownianWithDrift(mu=mu, sigma=sigma), RestartSpec(rate, nu))


class TestPathConfig:
    def test_validation(self):
        good = dict(seed=1, horizon=2.0, record_grid=(1.0, 2.0), n_paths=3, initial=PointMass(0.0))
        PathConfig(**good)
        for bad in (
            dict(good, seed=-1),
            dict(good, seed=1.5),
            dict(good, horizon=0.0),
            dict(good, horizon=math.inf),
            dict(good, record_grid=()),
            dict(good, record_grid=(1.0, 3.0)),
            dict(good, record_grid=(2.0, 1.0)),
            dict(good, record_grid=(1.0, 1.0)),
            dict(good, record_grid=(-0.5, 1.0)),
            dict(good, n_paths=0),
        ):
            with pytest.raises(DomainError):
                PathConfig(**bad)

    def test_grid_coerced_to_floats(self):
        cfg = PathConfig(seed=0, horizon=2, record_grid=(1, 2), n_paths=1, initial=PointMass(0.0))
        assert cfg.record_grid == (1.0, 2.0)
        assert cfg.horizon == 2.0


class TestRandomness:
    def test_path_streams_reproducible_and_distinct(self):
        a = path_rng(7, 3).standard_normal(4)
        b = path_rng(7, 3).standard_normal(4)
        c = path_rng(7, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_restart_times_properties(self):
        rng = path_rng(1, 0)
        times = draw_restart_times(rng, 2.0, 5.0)
        assert np.all(times > 0.0) and np.all(times <= 5.0)
        assert np.all(np.diff(times) > 0.0)

    def test_restart_times_zero_rate(self):
        assert len(draw_restart_times(path_rng(1, 0), 0.0, 5.0)) == 0

    def test_restart_count_is_poisson_mean(self):
        counts = [len(draw_restart_times(path_rng(3, i), 2.0, 3.0)) for i in range(4000)]
        assert abs(np.mean(counts) - 6.0) < 4.5 * math.sqrt(6.0 / 4000)

    def test_long_horizon_chunking(self):
        times = draw_restart_times(path_rng(4, 0), 0.5, 400.0)
        assert abs(len(times) - 200) < 4.5 * math.sqrt(200)
        assert times[-1] <= 400.0


class TestSinglePath:
    def test_deterministic(self):
        proc = bm_process(mu=0.3)
        cfg = PathConfig(seed=11, horizon=3.0, record_grid=(0.5, 1.5, 3.0), n_paths=1, initial=PointMass(0.0))
        a = simulate_path(proc, cfg, 0)
        b = simulate_path(proc, cfg, 0)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.restart_times, b.restart_times)

    def test_restart_bookkeeping(self):
        proc = bm_process(rate=3.0)
        cfg = PathConfig(seed=2, horizon=4.0, record_grid=(4.0,), n_paths=1, initial=PointMass(0.0))
        s = simulate_path(proc, cfg, 0)
        assert s.n_restarts_at_horizon == len(s.restart_times)
        assert np.all(s.restart_times <= 4.0)
        assert s.states.shape == (1,)

    def test_initial_must_fit_space(self):
        proc = RestartedProcess(GeometricBrownian(), RestartSpec(1.0, PointMass(1.0)))
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=1, initial=PointMass(-1.0))
        with pytest.raises(DomainError):
            simulate_path(proc, cfg, 0)


class TestEnsemble:
    def test_worker_count_never_changes_results(self):
        proc = bm_process(mu=0.2, rate=1.5)
        cfg = PathConfig(
            seed=9, horizon=2.0, record_grid=(0.5, 1.0, 2.0), n_paths=60, initial=PointMass(0.0)
        )
        serial = run_ensemble(proc, cfg, workers=1)
        parallel = run_ensemble(proc, cfg, workers=3)
        assert np.array_equal(serial.states, parallel.states)
        assert np.array_equal(serial.restart_counts, parallel.restart_counts)
        assert np.array_equal(
            serial.ages[~np.isnan(serial.ages)], parallel.ages[~np.isnan(parallel.ages)]
        )
        assert np.array_equal(serial.n_restarts_at_horizon, parallel.n_restarts_at_horizon)

    def test_age_and_count_bookkeeping(self):
        proc = bm_process(rate=1.0)
        cfg = PathConfig(
            seed=21, horizon=3.0, record_grid=(0.25, 1.0, 3.0), n_paths=400, initial=PointMass(0.0)
        )
        ens = run_ensemble(proc, cfg)
        assert np.all(np.diff(ens.restart_counts, axis=1) >= 0)
        no_restart_yet = ens.restart_counts == 0
        assert np.all(np.isnan(ens.ages[no_restart_yet]))
        seen = ~no_restart_yet
        ages = ens.ages[seen]
        grid_bcast = np.broadcast_to(ens.grid, ens.ages.shape)[seen]
        assert np.all(ages > 0.0) and np.all(ages <= grid_bcast)

    def test_chain_frequencies_match_analytic_row(self, three_state_chain):
        nu = FiniteSupport(((0, 0.5), (2, 0.5)))
        proc = RestartedProcess(three_state_chain, RestartSpec(2.0, nu))
        t, n = 0.8, 4000
        cfg = PathConfig(seed=31, horizon=t, record_grid=(t,), n_paths=n, initial=PointMass(0))
        ens = run_ensemble(proc, cfg)
        row = proc.transition_matrix(t)[0]
        for i in range(3):
            freq = float(np.mean(ens.states[:, 0] == i))
            sd = math.sqrt(row[i] * (1.0 - row[i]) / n)
            assert abs(freq - row[i]) < 4.5 * sd


class TestMonteCarloMoment:
    def test_estimate_matches_analytic_within_error(self):
        proc = bm_process(mu=1.0, sigma=0.5, rate=2.0)
        t = 1.5
        cfg = PathConfig(seed=5, horizon=t, record_grid=(t,), n_paths=4000, initial=PointMass(0.0))
        rep = monte_carlo_moment(proc, cfg, 1, t)
        want = proc.moment(1, t, 0.0)
        assert abs(rep.estimate - want) < 5.0 * rep.std_error
        assert rep.n == 4000
        assert not rep.heavy_tailed

    def test_reuses_supplied_ensemble(self):
        proc = bm_process()
        t = 1.0
        cfg = PathConfig(seed=6, horizon=t, record_grid=(t,), n_paths=500, initial=PointMass(0.0))
        ens = run_ensemble(proc, cfg)
        rep = monte_carlo_moment(proc, cfg, 2, t, ensemble=ens)
        vals = ens.states[:, 0] ** 2
        assert rep.estimate == float(np.mean(vals))
        assert rep.std_error == float(np.std(vals, ddof=1) / math.sqrt(500))

    def test_finite_space_uses_state_labels(self, three_state_chain):
        nu = FiniteSupport(((0, 1.0),))
        proc = RestartedProcess(three_state_chain, RestartSpec(1.0, nu))
        t = 0.5
        cfg = PathConfig(seed=8, horizon=t, record_grid=(t,), n_paths=800, initial=PointMass(0))
        rep = monte_carlo_moment(proc, cfg, 1, t)
        want = proc.moment(1, t, 0)
        # labels are (0.3, -1.2, 2.5); an index-based mean would sit near 0.5+
        assert abs(rep.estimate - want) < 5.0 * rep.std_error

    def test_divergent_moment_is_flagged(self):
        # second-moment growth 2.0 outstrips the restart rate 1.0
        proc = RestartedProcess(
            GeometricBrownian(mu=0.5, sigma=1.0), RestartSpec(1.0, PointMass(1.0))
        )
        cfg = PathConfig(seed=0, horizon=6.0, record_grid=(6.0,), n_paths=3000, initial=PointMass(1.0))
        with pytest.warns(MomentUnstable):
            rep = monte_carlo_moment(proc, cfg, 2, 6.0)
        assert rep.heavy_tailed

    def test_divergent_moment_prefix_maxima_keep_growing(self):
        # empirical witness for the divergence flag: along one growing sample
        # the running maximum of X(t)^2 never saturates
        proc = RestartedProcess(
            GeometricBrownian(mu=0.5, sigma=1.0), RestartSpec(1.0, PointMass(1.0))
        )
        cfg = PathConfig(
            seed=8, horizon=6.0, record_grid=(6.0,), n_paths=32000, initial=PointMass(1.0)
        )
        vals = run_ensemble(proc, cfg).states[:, 0] ** 2
        maxes = [vals[:n].max() for n in (500, 2000, 8000, 32000)]
        assert all(b > a for a, b in zip(maxes, maxes[1:]))
        assert maxes[-1] / maxes[0] > 10.0

    def test_off_grid_time_rejected(self):
        proc = bm_process()
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=4, initial=PointMass(0.0))
        with pytest.raises(DomainError):
            monte_carlo_moment(proc, cfg, 1, 0.7)


class TestAgeDistribution:
    def test_truncated_exponential_law(self):
        proc = bm_process(rate=2.0)
        rep = age_distribution_test(proc, t=1.5, n_paths=4000, seed=13)
        assert rep.passed
        assert rep.max_deviation < rep.threshold
        assert abs(rep.threshold - 3.0 / math.sqrt(4000)) < 1e-15
        s = rep.grid[100]
        assert abs(rep.theoretical[100] - (1.0 - math.exp(-2.0 * s))) < 1e-12

    def test_total_mass_is_sub_probability(self):
        # the age law at t has an atom exp(-lam t) at 'never restarted'
        proc = bm_process(rate=2.0)
        rep = age_distribution_test(proc, t=1.5, n_paths=4000, seed=13)
        assert rep.theoretical[-1] == 1.0 - math.exp(-3.0)
        assert rep.empirical[-1] <= 1.0

    def test_requires_positive_rate_and_time(self):
        with pytest.raises(DomainError):
            age_distribution_test(bm_process(rate=0.0), t=1.0, n_paths=10, seed=0)
        with pytest.raises(DomainError):
            age_distribution_test(bm_process(), t=0.0, n_paths=10, seed=0)


@pytest.fixture(scope="module")
def stationary_run():
    proc = bm_process(rate=2.0)
    cfg = PathConfig(seed=42, horizon=8.0, record_grid=(8.0,), n_paths=4000, initial=PointMass(0.0))
    ens = run_ensemble(proc, cfg)
    return proc, cfg, ens


class TestEmpiricalDistribution:
    def test_tv_against_invariant_density(self, stationary_run):
        proc, cfg, ens = stationary_run
        rep = empirical_distribution(
            proc, cfg, 8.0, bins=40, window=(-5.0, 5.0), reference_pdf=proc.invariant_density,
            ensemble=ens,
        )
        assert rep.tv_distance < rep.noise_floor + 0.02
        assert rep.outside_mass < 1e-3
        assert abs(rep.empirical_masses.sum() + rep.outside_mass - 1.0) < 1e-12

    def test_cdf_and_pdf_references_agree(self, stationary_run):
        proc, cfg, ens = stationary_run

        def laplace_cdf(z):
            return 0.5 * math.exp(2.0 * z) if z < 0 else 1.0 - 0.5 * math.exp(-2.0 * z)

        a = empirical_distribution(
            proc, cfg, 8.0, bins=40, window=(-5.0, 5.0), reference_pdf=proc.invariant_density,
            ensemble=ens,
        )
        b = empirical_distribution(
            proc, cfg, 8.0, bins=40, window=(-5.0, 5.0), reference_cdf=laplace_cdf, ensemble=ens
        )
        assert np.abs(a.reference_masses - b.reference_masses).max() < 1e-8
        assert abs(a.tv_distance - b.tv_distance) < 1e-8

    def test_window_must_cover_reference(self, stationary_run):
        proc, cfg, ens = stationary_run
        with pytest.raises(WindowTooNarrow):
            empirical_distribution(
                proc, cfg, 8.0, bins=10, window=(-0.5, 0.5),
                reference_pdf=proc.invariant_density, ensemble=ens,
            )

    def test_no_reference_gives_nan_tv(self, stationary_run):
        proc, cfg, ens = stationary_run
        rep = empirical_distribution(proc, cfg, 8.0, bins=10, window=(-5.0, 5.0), ensemble=ens)
        assert math.isnan(rep.tv_distance)
        assert rep.reference_masses is None

    def test_input_validation(self, three_state_chain, stationary_run):
        proc, cfg, ens = stationary_run
        chain_proc = RestartedProcess(three_state_chain, RestartSpec(1.0, PointMass(0)))
        chain_cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=4, initial=PointMass(0))
        with pytest.raises(DomainError):
            empirical_distribution(chain_proc, chain_cfg, 1.0, bins=4, window=(0.0, 1.0))
        with pytest.raises(DomainError):
            empirical_distribution(proc, cfg, 8.0, bins=0, window=(-5.0, 5.0), ensemble=ens)
        with pytest.raises(DomainError):
            empirical_distribution(proc, cfg, 8.0, bins=4, window=(1.0, 1.0), ensemble=ens)

    def test_histogram_tv_values(self):
        assert histogram_tv([0.5, 0.5], 0.0, [0.5, 0.5], 0.0) == 0.0
        assert histogram_tv([0.5, 0.5], 0.0, [1.0, 0.0], 0.0) == 0.5
        assert histogram_tv([0.4, 0.4], 0.2, [0.5, 0.5], 0.0) == pytest.approx(0.2)


class TestPathCsv:
    def test_rows_and_consistency(self, tmp_path):
        proc = bm_process(rate=2.0)
        cfg = PathConfig(
            seed=3, horizon=2.0, record_grid=(0.5, 1.0, 2.0), n_paths=5, initial=PointMass(0.0)
        )
        out = tmp_path / "paths.csv"
        write_path_csv(proc, cfg, str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path_id,time,state,event_type"
        rows = [line.split(",") for line in lines[1:]]
        assert {r[3] for r in rows} <= {"restart", "grid"}
        for i in range(5):
            mine = [r for r in rows if int(r[0]) == i]
            times = [float(r[1]) for r in mine]
            assert times == sorted(times)
            assert sum(r[3] == "grid" for r in mine) == 3
            n_restarts = sum(r[3] == "restart" for r in mine)
            ref = simulate_path(proc, cfg, i)
            assert n_restarts == ref.n_restarts_at_horizon

    def test_finite_space_writes_labels(self, three_state_chain):
        proc = RestartedProcess(three_state_chain, RestartSpec(2.0, PointMass(1)))
        cfg = PathConfig(seed=4, horizon=1.0, record_grid=(1.0,), n_paths=3, initial=PointMass(0))
        buf = io.StringIO()
        write_path_csv(proc, cfg, buf)
        states = {row.split(",")[2] for row in buf.getvalue().strip().split("\n")[1:]}
        assert states <= {"0.29999999999999999", "-1.2", "2.5"}

    def test_stream_and_path_targets_agree(self, tmp_path):
        proc = bm_process(rate=1.0)
        cfg = PathConfig(seed=6, horizon=1.0, record_grid=(1.0,), n_paths=2, initial=PointMass(0.0))
        buf = io.StringIO()
        write_path_csv(proc, cfg, buf)
        out = tmp_path / "p.csv"
        write_path_csv(proc, cfg, str(out))
        assert buf.getvalue() == out.read_text()

    def test_grid_rows_equal_ensemble_states(self):
        # the event log walks each path with the same draws as the ensemble,
        # restarts after the last grid time included
        proc = bm_process(mu=0.3, rate=3.0, nu=FiniteSupport(((-1.0, 0.5), (1.0, 0.5))))
        cfg = PathConfig(
            seed=8, horizon=2.0, record_grid=(0.25, 0.5, 1.0), n_paths=6, initial=PointMass(0.0)
        )
        buf = io.StringIO()
        write_path_csv(proc, cfg, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        grid = np.array([[float(r[2]) for r in rows if int(r[0]) == i and r[3] == "grid"]
                         for i in range(cfg.n_paths)])
        assert np.array_equal(grid, run_ensemble(proc, cfg).states)
        assert any(r[3] == "restart" and float(r[1]) > 1.0 for r in rows)
