"""Event-driven simulation: exactness, reproducibility, and diagnostics."""

import io
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import restartk.simulation
from restartk import (
    BrownianWithDrift,
    DomainError,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    Interval,
    MomentUnstable,
    PathConfig,
    PointMass,
    RestartSpec,
    RestartedProcess,
    WindowTooNarrow,
    age_distribution_test,
    empirical_distribution,
    gaussian,
    histogram_tv,
    monte_carlo_moment,
    run_ensemble,
    simulate_path,
    write_path_csv,
)
from restartk.kernels import MarkovKernel
from restartk.simulation import (
    BLOCK,
    POOL_BLOCKS_PER_WORKER,
    block_rng,
    draw_restart_times,
    path_rng,
)
from restartk.spaces import RealLine, indicator


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
            dict(good, record_grid=(1.0, math.nan)),
            dict(good, record_grid=(math.nan, 2.0)),
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

    def test_block_streams_reuse_no_path_stream(self):
        paths = {tuple(path_rng(7, i).random(2)) for i in range(50)}
        blocks = {tuple(block_rng(7, b).random(2)) for b in range(50)}
        assert len(paths | blocks) == 100
        assert np.array_equal(block_rng(7, 2).random(3), block_rng(7, 2).random(3))

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
        assert serial.states.tobytes() == parallel.states.tobytes()

    def test_small_ensemble_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 3-block ensemble started a process pool")

        monkeypatch.setattr(restartk.simulation, "ProcessPoolExecutor", refuse)
        cfg = PathConfig(seed=5, horizon=1.0, record_grid=(1.0,), n_paths=3 * BLOCK, initial=PointMass(0.0))
        ens = run_ensemble(bm_process(), cfg, workers=2)
        assert ens.states.shape == (3 * BLOCK, 1)

    def test_large_ensemble_uses_the_pool_and_matches_serial(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(restartk.simulation, "ProcessPoolExecutor", CountingPool)
        n = 2 * POOL_BLOCKS_PER_WORKER * BLOCK + 5
        cfg = PathConfig(seed=6, horizon=1.0, record_grid=(1.0,), n_paths=n, initial=PointMass(0.0))
        serial = run_ensemble(bm_process(), cfg, workers=1)
        assert pools == []
        parallel = run_ensemble(bm_process(), cfg, workers=2)
        assert pools == [2]
        assert serial.states.tobytes() == parallel.states.tobytes()

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

    @staticmethod
    def gbm_squares(rate):
        proc = RestartedProcess(
            GeometricBrownian(mu=0.5, sigma=1.0), RestartSpec(rate, PointMass(1.0))
        )
        cfg = PathConfig(
            seed=8, horizon=6.0, record_grid=(6.0,), n_paths=32000, initial=PointMass(1.0)
        )
        return run_ensemble(proc, cfg).states[:, 0] ** 2

    def test_divergent_moment_prefix_maxima_keep_growing(self):
        # empirical witness for the divergence flag: log X(6) is driftless
        # and Laplace-distributed with decay sqrt(2*lam), so X(6)^2 has a
        # Pareto tail of index sqrt(2*lam)/2 = 0.71 < 1 at lam = 1: its mean
        # is infinite and the sample maximum keeps growing with the sample
        vals = self.gbm_squares(1.0)
        maxes = [vals[:n].max() for n in (500, 2000, 8000, 32000)]
        assert maxes[-1] / maxes[0] > 10.0
        assert _hill_tail_index(vals) < 1.0

    def test_finite_moment_has_tail_index_above_one(self):
        # the control: at lam = 4 the index is sqrt(8)/2 = 1.41 and E[X(6)^2] is finite
        assert _hill_tail_index(self.gbm_squares(4.0)) > 1.0

    def test_off_grid_time_rejected(self):
        proc = bm_process()
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=4, initial=PointMass(0.0))
        with pytest.raises(DomainError):
            monte_carlo_moment(proc, cfg, 1, 0.7)


def _hill_tail_index(vals, frac=0.01):
    """Hill estimate of the Pareto tail index over the top frac of the sample."""
    top = np.sort(vals)[::-1][: int(frac * len(vals)) + 1]
    return 1.0 / float(np.mean(np.log(top[:-1] / top[-1])))


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

    @pytest.mark.parametrize(
        "args, name",
        [
            (dict(t=1.0, n_paths=0), "n_paths"),
            (dict(t=1.0, n_paths=-3), "n_paths"),
            (dict(t=1.0, n_paths=10, grid_points=0), "grid_points"),
            (dict(t=math.nan, n_paths=10), "t must"),
            (dict(t=math.inf, n_paths=10), "t must"),
        ],
    )
    def test_bad_arguments_are_named(self, args, name):
        # unchecked, each would surface as an arithmetic or numpy error
        # that names no argument
        with pytest.raises(DomainError, match=name):
            age_distribution_test(bm_process(), seed=1, **args)


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
            assert n_restarts == len(ref.restart_times)

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

    def test_grid_rows_equal_walker_states(self):
        # the event log and simulate_path walk each path with the same draws,
        # restarts after the last grid time included
        proc = bm_process(mu=0.3, rate=3.0, nu=FiniteSupport(((-1.0, 0.5), (1.0, 0.5))))
        cfg = PathConfig(
            seed=8, horizon=2.0, record_grid=(0.25, 0.5, 1.0), n_paths=6, initial=PointMass(0.0)
        )
        buf = io.StringIO()
        write_path_csv(proc, cfg, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        for i in range(cfg.n_paths):
            grid = [float(r[2]) for r in rows if int(r[0]) == i and r[3] == "grid"]
            assert np.array_equal(grid, simulate_path(proc, cfg, i).states)
        assert any(r[3] == "restart" and float(r[1]) > 1.0 for r in rows)

    def test_ensemble_and_walker_agree_in_law(self):
        # the block sampler and the event walker draw differently but must
        # give the same law: means and variances at every grid time within 4
        # joint standard errors
        proc = bm_process(mu=0.3, rate=3.0, nu=FiniteSupport(((-1.0, 0.5), (1.0, 0.5))))
        n = 4000
        cfg = PathConfig(
            seed=8, horizon=2.0, record_grid=(0.25, 0.5, 1.0), n_paths=n, initial=PointMass(0.0)
        )
        ens = run_ensemble(proc, cfg)
        walked = np.array([simulate_path(proc, cfg, i).states for i in range(n)])
        for a, b in [(ens.states[:, j], walked[:, j]) for j in range(3)]:
            assert abs(a.mean() - b.mean()) < 4.0 * math.hypot(_se_mean(a), _se_mean(b))
            assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4.0 * math.hypot(_se_var(a), _se_var(b))


def _se_mean(v):
    return float(np.std(v, ddof=1)) / math.sqrt(len(v))


def _se_var(v):
    # sqrt((m4 - var^2) / n), the large-sample error of the sample variance
    c = v - v.mean()
    return math.sqrt(max(float(np.mean(c**4)) - float(np.mean(c**2)) ** 2, 0.0) / len(v))


class _ScalarOnly(MarkovKernel):
    """A kernel with only the scalar sampler, so ensembles take the generic default."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def space(self):
        return self.inner.space

    def transition_probability(self, t, x, target):
        return self.inner.transition_probability(t, x, target)

    def sample_transition(self, t, x, rng):
        return self.inner.sample_transition(t, x, rng)


class _Drift(MarkovKernel):
    """X(t) = x + t, deterministic: the state shows the restart age exactly."""

    @property
    def space(self):
        return RealLine()

    def transition_probability(self, t, x, target):
        return indicator(target, x + t)

    def sample_transition(self, t, x, rng):
        return x + t


class TestBlockSampler:
    def test_restart_ages_are_exact_in_law(self):
        # X(t) = x + t restarted to 0 is the age of the last restart wherever
        # the clock rang, and 10 + t where it never did
        lam, n = 1.5, 6000
        grid = (0.2, 0.9, 2.0)
        proc = RestartedProcess(_Drift(), RestartSpec(lam, PointMass(0.0)))
        cfg = PathConfig(seed=41, horizon=3.0, record_grid=grid, n_paths=n, initial=PointMass(10.0))
        ens = run_ensemble(proc, cfg)
        for j, g in enumerate(grid):
            states = ens.states[:, j]
            restarted = states < 10.0
            # an atom of mass exp(-lam*g) at 'never restarted', then
            # P[age <= s] = 1 - exp(-lam*s) on [0, g]; DKW makes the sup
            # deviation exceed 2/sqrt(n) with probability below 1e-3
            never = math.exp(-lam * g)
            assert abs((~restarted).mean() - never) < 4.0 * math.sqrt(never * (1 - never) / n)
            s = np.linspace(0.0, g, 101)
            emp = np.searchsorted(np.sort(states[restarted]), s, side="right") / n
            assert np.abs(emp - (1.0 - np.exp(-lam * s))).max() < 2.0 / math.sqrt(n)

    def test_ages_are_the_time_since_the_last_restart(self):
        # X(t) = x + t restarted to 0 shows the age itself: from one grid time
        # to the next a path either ages by the gap or was restarted inside it
        proc = RestartedProcess(_Drift(), RestartSpec(2.0, PointMass(0.0)))
        cfg = PathConfig(
            seed=3, horizon=1.5, record_grid=(0.0, 0.4, 1.5), n_paths=500, initial=PointMass(10.0)
        )
        ens = run_ensemble(proc, cfg)
        assert np.all(ens.states[:, 0] == 10.0)
        for j in (1, 2):
            gap = ens.grid[j] - ens.grid[j - 1]
            now, before = ens.states[:, j], ens.states[:, j - 1]
            aged = np.isclose(now, before + gap, rtol=0.0, atol=1e-12)
            assert np.all(aged | ((now >= 0.0) & (now < gap)))
            assert aged.any() and not aged.all()

    @pytest.mark.parametrize("kind", ["bm", "gbm", "chain"])
    def test_worker_count_never_changes_blocks(self, kind, three_state_chain):
        base, nu, x = {
            "bm": (BrownianWithDrift(0.2, 0.7), FiniteSupport(((-1.0, 0.5), (1.0, 0.5))), 0.0),
            "gbm": (GeometricBrownian(0.1, 0.3), PointMass(1.0), 1.5),
            "chain": (three_state_chain, FiniteSupport(((0, 0.3), (2, 0.7))), 1),
        }[kind]
        proc = RestartedProcess(base, RestartSpec(1.2, nu))
        cfg = PathConfig(
            seed=17, horizon=2.5, record_grid=(0.5, 2.0), n_paths=2 * BLOCK + 77,
            initial=PointMass(x),
        )
        serial = run_ensemble(proc, cfg, workers=1)
        parallel = run_ensemble(proc, cfg, workers=3)
        assert serial.states.tobytes() == parallel.states.tobytes()
        assert serial.states.shape == (2 * BLOCK + 77, 2)

    def test_chain_frequencies_at_two_times(self, three_state_chain):
        proc = RestartedProcess(three_state_chain, RestartSpec(1.3, FiniteSupport(((1, 0.6), (2, 0.4)))))
        n, grid = 5000, (0.35, 1.6)
        cfg = PathConfig(seed=57, horizon=1.6, record_grid=grid, n_paths=n, initial=PointMass(0))
        ens = run_ensemble(proc, cfg)
        for j, t in enumerate(grid):
            row = proc.transition_matrix(t)[0]
            for i in range(3):
                freq = float(np.mean(ens.states[:, j] == i))
                assert abs(freq - row[i]) < 4.5 * math.sqrt(row[i] * (1.0 - row[i]) / n)

    def test_gaussian_restart_masses(self):
        proc = bm_process(mu=-0.4, sigma=0.8, rate=1.7, nu=gaussian(0.5, 0.7))
        n, t = 5000, 1.2
        cfg = PathConfig(seed=61, horizon=t, record_grid=(t,), n_paths=n, initial=PointMass(1.0))
        vals = run_ensemble(proc, cfg).states[:, 0]
        for a, b in ((-math.inf, 0.0), (0.0, 0.8), (0.8, math.inf)):
            p = proc.transition_probability(t, 1.0, Interval(a, b), rel_tol=1e-6)
            freq = float(np.mean((vals >= a) & (vals <= b)))
            assert abs(freq - p) < 4.5 * math.sqrt(p * (1.0 - p) / n)

    def test_scalar_only_kernel_takes_the_generic_default(self, three_state_chain):
        # the generic sample_transitions loops over sample_transition, so a
        # wrapped kernel gives a valid ensemble with the same law
        for base, x in ((three_state_chain, 0), (BrownianWithDrift(0.3, 1.0), 0.0)):
            proc = RestartedProcess(_ScalarOnly(base), RestartSpec(2.0, PointMass(x)))
            n, t = 3000, 0.7
            cfg = PathConfig(seed=71, horizon=t, record_grid=(t,), n_paths=n, initial=PointMass(x))
            vals = run_ensemble(proc, cfg).states[:, 0]
            want = RestartedProcess(base, RestartSpec(2.0, PointMass(x))).moment(1, t, x)
            labels = np.asarray(base.space.values)[vals.astype(int)] if base is three_state_chain else vals
            assert abs(labels.mean() - want) < 4.5 * _se_mean(labels)
