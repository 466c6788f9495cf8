"""Event-driven simulation: exactness, reproducibility, and diagnostics."""

import logging
import math
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.stats import chisquare, kstest

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
    exponential,
    gaussian,
    lognormal,
    monte_carlo_moment,
    run_ensemble,
    write_path_csv,
)
from restartk.distributions import categorical_cdf
from restartk.kernels import MarkovKernel
from restartk.simulation import (
    BLOCK,
    DRAW_CHUNK,
    KURTOSIS_THRESHOLD,
    MAX_SHARE_THRESHOLD,
    POOL_BLOCKS_PER_WORKER,
    _Prefetched,
    _restart_clock,
    block_rng,
)
from restartk.spaces import FiniteSet, RealLine, indicator

from conftest import (
    make_three_state_chain,
    point_or_two_atom_laws,
    random_generator,
    restarted_generator,
)


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
            # int() would keep a bool seed, truncate 2.7 to 2 and overflow on inf
            dict(good, seed=True),
            dict(good, n_paths=2.7),
            dict(good, n_paths=math.inf),
            dict(good, n_paths=math.nan),
            dict(good, n_paths=True),
        ):
            with pytest.raises(DomainError):
                PathConfig(**bad)

    def test_integral_path_counts_are_kept(self):
        for n in (3, 3.0, np.int64(3), np.float64(3.0)):
            cfg = PathConfig(seed=np.int64(1), horizon=2.0, record_grid=(2.0,), n_paths=n, initial=PointMass(0.0))
            assert cfg.n_paths == 3 and type(cfg.n_paths) is int

    def test_grid_coerced_to_floats(self):
        cfg = PathConfig(seed=0, horizon=2, record_grid=(1, 2), n_paths=1, initial=PointMass(0.0))
        assert cfg.record_grid == (1.0, 2.0)
        assert cfg.horizon == 2.0


class TestRandomness:
    def test_block_streams_reproducible_and_distinct(self):
        a = block_rng(7, 3).standard_normal(4)
        b = block_rng(7, 3).standard_normal(4)
        c = block_rng(7, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# a statistic outside 4.5 standard errors, or a p-value below this two-sided
# normal tail, fails a law test
BAND = 4.5
P_BAND = math.erfc(BAND / math.sqrt(2.0))


class TestBlockClock:
    """The event log's restart clocks: per path a Poisson(rate * horizon) count
    of sorted uniform times on (0, horizon], then infinity to the row's end."""

    @pytest.mark.parametrize("rate, horizon", [(2.0, 5.0), (0.3, 1.0), (40.0, 0.5)])
    def test_times_increase_within_the_horizon(self, rate, horizon):
        counts, clocks = _restart_clock(block_rng(1, 0), rate, horizon, BLOCK)
        assert clocks.shape == (BLOCK, counts.max() + 1)
        for n, clock in zip(counts.tolist(), clocks):
            times = clock[:n]
            assert np.all(np.diff(times) > 0.0)
            assert np.all(times > 0.0) and np.all(times <= horizon)
            assert np.all(clock[n:] == math.inf)

    def test_counts_are_poisson(self):
        lam_h, m = 6.0, 4000
        counts = _restart_clock(block_rng(3, 0), 2.0, 3.0, m)[0]
        assert abs(counts.mean() - lam_h) < BAND * math.sqrt(lam_h / m)
        # a Poisson count's fourth central moment is lam_h + 3 lam_h^2
        assert abs(counts.var(ddof=1) - lam_h) < BAND * math.sqrt((lam_h + 2.0 * lam_h**2) / m)

    def test_pooled_times_are_uniform(self):
        clocks = _restart_clock(block_rng(5, 0), 2.0, 3.0, 4000)[1]
        assert kstest(clocks[np.isfinite(clocks)], "uniform", args=(0.0, 3.0)).pvalue > P_BAND

    def test_long_horizon_keeps_its_count(self):
        # lam * h = 200: every time of each path's count is in its row
        counts, clocks = _restart_clock(block_rng(4, 0), 0.5, 400.0, 64)
        assert np.array_equal(np.isfinite(clocks).sum(axis=1), counts)
        assert abs(counts.mean() - 200.0) < BAND * math.sqrt(200.0 / 64)
        assert clocks[np.isfinite(clocks)].max() <= 400.0


# The event-log walker written plainly, its row format and the chain's
# categorical sampler (searchsorted, since rewritten to bisect over lists)
# included: each block's draws, then its paths walked in turn, in the order
# the event log takes them.  It is the independent oracle: the event log must
# make the same draws in the same order and write the same bytes.


def frozen_jump_tables(chain):
    """Per state of the chain: its total jump rate, and the distribution
    function of where it jumps, built as Generator.choice would build it."""
    rates = -np.diag(chain.Q)
    jumps = chain.Q - np.diag(np.diag(chain.Q))
    n = len(rates)
    return rates, np.array([categorical_cdf(jumps[i] / r) if r > 0.0 else np.ones(n) for i, r in enumerate(rates)])


def frozen_chain_step(tables, t, x, rng):
    """FiniteCTMC.sample_transition before the rewrite, on ``frozen_jump_tables``:
    each holding time -log(1 - u)/rate by inversion of a uniform u."""
    rates, jump_cdfs = tables
    state = int(x)
    elapsed = 0.0
    while True:
        rate = rates.item(state)
        if rate <= 0.0:
            return state
        elapsed += -(1.0 / rate) * math.log1p(-rng.random())
        if elapsed >= t:
            return state
        state = int(jump_cdfs[state].searchsorted(rng.random(), side="right"))


def frozen_sample(law, rng, size=None):
    """Draws of a law; a FiniteSupport's by searchsorted on its distribution function."""
    if isinstance(law, FiniteSupport):
        states = [s for s, _ in law.points]
        index = categorical_cdf([w for _, w in law.points]).searchsorted(rng.random(size), side="right")
        return states[int(index)] if size is None else np.array(states)[index]
    if isinstance(law, PointMass):
        return law.x if size is None else np.full(size, law.x)
    return law.sample(rng, size)


def frozen_block_draws(proc, config, rng, m):
    """A block's draws before its walk, per path: (start state, sorted restart
    times, redraws from nu).  The block draws m start states, m Poisson counts,
    their total of uniforms u for the times horizon * (1 - u), then as many
    redraws, each path's share in path order."""
    starts = frozen_sample(config.initial, rng, m)
    counts = rng.poisson(proc.rate * config.horizon, m)
    times = config.horizon * (1.0 - rng.random(counts.sum()))
    redraws = frozen_sample(proc.restart.nu, rng, counts.sum())
    cuts = np.cumsum(counts)[:-1]
    return [(x, np.sort(t), r) for x, t, r in zip(starts, np.split(times, cuts), np.split(redraws, cuts))]


def frozen_run_path(proc, config, rng, start, restarts, redraws):
    """Walk one path from its block draws on the rest of rng; its (time, state, kind) rows."""
    state = start
    restarts = restarts.tolist()
    redraws = redraws.tolist()
    grid = config.record_grid
    base = proc.base
    step = base.sample_transition
    if isinstance(base, FiniteCTMC):
        step = partial(frozen_chain_step, frozen_jump_tables(base))
    events = []
    ri = 0
    now = 0.0
    for g in grid + (math.inf,):
        while ri < len(restarts) and restarts[ri] <= g:
            dt = restarts[ri] - now
            if dt > 0.0:
                step(dt, state, rng)  # the walker draws this transition and drops it
            state = redraws[ri]
            now = restarts[ri]
            ri += 1
            events.append((now, state, "restart"))
        if g == math.inf:
            return events
        dt = g - now
        if dt > 0.0:
            state = step(dt, state, rng)
        now = g
        events.append((g, state, "grid"))


def numpy_walk(proc, cfg, wrap=lambda rng: rng):
    """The event log's rows by the frozen walker, each block walked on numpy's
    own Generator(PCG64(SeedSequence(seed, spawn_key=(b,)))), seen through ``wrap``."""
    if isinstance(proc.space, FiniteSet):
        labels = [format(v, ".17g") for v in proc.space.values]

        def show(state):
            return labels[int(state)]
    else:

        def show(state):
            return format(state, ".17g")

    rows = ["path_id,time,state,event_type"]
    for lo in range(0, cfg.n_paths, BLOCK):
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(lo // BLOCK,))
        rng = wrap(np.random.Generator(np.random.PCG64(seq)))
        for i, draws in enumerate(frozen_block_draws(proc, cfg, rng, min(BLOCK, cfg.n_paths - lo)), lo):
            rows += [f"{i},{t:.17g},{show(x)},{kind}" for t, x, kind in frozen_run_path(proc, cfg, rng, *draws)]
    return rows


def log_rows(proc, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "paths.csv")
        write_path_csv(proc, cfg, out)
        with open(out) as fh:
            rows = fh.read().split("\n")
    assert rows.pop() == ""
    return rows


def assert_same_rows(proc, cfg, wrap=lambda rng: rng):
    with mock.patch.object(restartk.simulation, "block_rng", lambda s, b: wrap(block_rng(s, b))):
        got = log_rows(proc, cfg)
    want = numpy_walk(proc, cfg, wrap)
    # the first differing row, not pytest's diff of two 100 kB logs
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, (got[first], want[first])
    assert len(got) == len(want)


def two_atom_bm_paths(seed, n_paths=2500):
    # 2,500 paths span three blocks, the last one partial
    proc = bm_process(mu=0.3, rate=2.0, nu=FiniteSupport(((-0.5, 0.4), (1.5, 0.6))))
    cfg = PathConfig(seed=seed, horizon=2.0, record_grid=(0.5, 2.0), n_paths=n_paths, initial=PointMass(0.0))
    return proc, cfg


class TestPathStreams:
    """The event log walks block b on the ensemble's stream SeedSequence(seed, spawn_key=(b,))."""

    SEEDS = (0, 1, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_numpy(self, seed):
        assert_same_rows(*two_atom_bm_paths(seed))

    def test_seed_must_be_a_nonnegative_integer(self):
        with pytest.raises(DomainError, match="seed"):
            two_atom_bm_paths(-1)


class _Lattice:
    """A Generator whose restart clock's uniforms, the array drawn next after
    the Poisson counts, come out as multiples of 1/``units``, so that the
    restart times horizon * (1 - u) fall on multiples of horizon/``units``
    and meet grid times; every other draw is the wrapped Generator's own."""

    def __init__(self, rng, units):
        self.rng, self.units, self.clock_next = rng, units, False

    def poisson(self, lam, size=None):
        self.clock_next = True
        return self.rng.poisson(lam, size)

    def random(self, size=None):
        u = self.rng.random(size)
        if size is None or not self.clock_next:
            return u
        self.clock_next = False
        return np.floor(u * self.units) / self.units

    def __getattr__(self, name):
        return getattr(self.rng, name)


ABSORBING_CHAIN = FiniteCTMC([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]], [0.3, -1.2, 2.5])


def _with_laws(bases, atoms, other_nu=st.nothing()):
    """(base kernel, restart law, initial law): point or two-atom laws on atoms."""
    laws = point_or_two_atom_laws(atoms)
    return st.tuples(bases, st.one_of(laws, other_nu), laws)


WALKS = st.one_of(
    _with_laws(
        st.builds(BrownianWithDrift, st.floats(-1.0, 1.0), st.floats(0.2, 2.0)),
        st.floats(-2.0, 2.0),
        st.just(gaussian(0.3, 0.8)),
    ),
    _with_laws(
        st.builds(GeometricBrownian, st.floats(-0.5, 0.5), st.floats(0.1, 1.0)),
        st.floats(0.2, 5.0),
        st.one_of(
            st.builds(exponential, st.floats(0.5, 3.0)),
            st.builds(lognormal, st.floats(-0.5, 0.5), st.floats(0.1, 1.0)),
        ),
    ),
    _with_laws(st.sampled_from([make_three_state_chain(), ABSORBING_CHAIN]), st.integers(0, 2)),
)


class TestFrozenWalker:
    """The event log writes the bytes of the frozen walker, draw for draw."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        WALKS,
        st.floats(0.1, 5.0),
        st.one_of(st.floats(0.5, 4.0), st.sampled_from((1.0, 2.0, 4.0))),
        # 0 and 1 put grid times at 0 and at the horizon
        st.sets(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.8, 1.0)), min_size=1),
        st.integers(1, 12),
        st.integers(0, 2**64),
        # restart times on multiples of horizon/8 meet the grid times at
        # 0.25, 0.5 and 1 of it, each other and the horizon itself
        st.sampled_from((None, 8)),
    )
    def test_log_bytes_match(self, walk, rate, horizon, fractions, n_paths, seed, units):
        base, nu, initial = walk
        proc = RestartedProcess(base, RestartSpec(rate, nu))
        grid = tuple(sorted(horizon * f for f in fractions))
        cfg = PathConfig(seed=seed, horizon=horizon, record_grid=grid, n_paths=n_paths, initial=initial)
        assert_same_rows(proc, cfg, lambda rng: rng if units is None else _Lattice(rng, units))

    def test_restarts_on_grid_times_come_first(self):
        proc = bm_process(mu=0.3, rate=2.0, nu=FiniteSupport(((-0.5, 0.4), (1.5, 0.6))))
        cfg = PathConfig(seed=5, horizon=2.0, record_grid=(0.5, 1.0, 2.0), n_paths=40, initial=PointMass(0.0))
        # restart times on multiples of 0.5
        assert_same_rows(proc, cfg, lambda rng: _Lattice(rng, 4))
        with mock.patch.object(restartk.simulation, "block_rng", lambda s, b: _Lattice(block_rng(s, b), 4)):
            rows = [row.split(",") for row in log_rows(proc, cfg)[1:]]
        # the kinds of two rows of one path at one time: restarts may meet each other too
        met = {(a[3], b[3]) for a, b in zip(rows, rows[1:]) if a[:2] == b[:2]}
        assert ("restart", "grid") in met and ("grid", "restart") not in met

    def test_signed_zero_atoms_keep_their_sign(self):
        # 0.0 == -0.0, so a table of atom texts keyed by value would write one for both
        proc = bm_process(rate=3.0, nu=FiniteSupport(((0.0, 0.5), (-0.0, 0.5))))
        cfg = PathConfig(seed=1, horizon=2.0, record_grid=(0.0, 1.0), n_paths=20, initial=PointMass(-0.0))
        assert_same_rows(proc, cfg)
        states = {row.split(",")[2] for row in log_rows(proc, cfg)[1:] if row.endswith("restart")}
        assert states == {"0", "-0"}

    def test_scalar_categorical_draws_break_ties_as_searchsorted(self):
        # a uniform equal to a value of the distribution function takes the
        # next atom, as searchsorted(side="right") does
        class Uniforms:
            def __init__(self, values):
                self.values = list(values)

            def random(self, size=None):
                return self.values.pop(0) if size is None else np.array([self.values.pop(0) for _ in range(size)])

        law = FiniteSupport(((3.0, 0.25), (4.0, 0.5), (5.0, 0.25)))
        us = [0.0, 0.25, 0.5, 0.75, 0.999]
        want = [frozen_sample(law, Uniforms([u])) for u in us]
        assert [law.sample(Uniforms([u])) for u in us] == want
        # the event log's block of redraws breaks them alike
        assert law.sample(Uniforms(us), len(us)).tolist() == want
        chain = FiniteCTMC([[-4.0, 1.0, 3.0], [2.0, -2.0, 0.0], [1.0, 1.0, -2.0]])
        for u in (0.0, 0.25, 0.5, 0.75):
            # state 0 holds -log(1 - 4e-9)/4, about 1e-9, and jumps on u; then
            # state 1 or 2 holds -log(1 - 0.5)/2, past t
            got = chain.sample_transition(1.5e-9, 0, Uniforms([4e-9, u, 0.5]))
            assert got == frozen_chain_step(frozen_jump_tables(chain), 1.5e-9, 0, Uniforms([4e-9, u, 0.5]))
            assert got == categorical_cdf([0.0, 0.25, 0.75]).searchsorted(u, side="right")

    @pytest.mark.parametrize("kind", ["bm", "gbm", "chain"])
    def test_two_blocks(self, kind):
        assert_same_rows(*two_block_log(kind))


def two_block_log(kind):
    # 1,030 paths: a whole block and 6 paths of the next
    base, nu, x = {
        "bm": (BrownianWithDrift(0.2, 0.9), FiniteSupport(((-0.5, 0.4), (1.5, 0.6))), 0.0),
        "gbm": (GeometricBrownian(0.1, 0.3), FiniteSupport(((0.8, 0.5), (1.3, 0.5))), 1.0),
        "chain": (make_three_state_chain(), PointMass(2), 0),
    }[kind]
    proc = RestartedProcess(base, RestartSpec(1.7, nu))
    cfg = PathConfig(seed=2002, horizon=2.5, record_grid=(0.6, 1.2, 2.5), n_paths=1030, initial=PointMass(x))
    return proc, cfg


class TestPrefetchedDraws:
    """The walk's scalar normals and uniforms come from chunks of DRAW_CHUNK
    drawn in one numpy call each: the stream's own scalar draws, in order."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, DRAW_CHUNK])
    @pytest.mark.parametrize("method", ["standard_normal", "random"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64), st.integers(0, 3 * DRAW_CHUNK))
    def test_scalar_draws_are_the_streams_in_order(self, chunk, method, seed, n):
        prefetched = getattr(_Prefetched(block_rng(seed, 0), chunk), method)
        scalar = getattr(block_rng(seed, 0), method)
        assert [prefetched() for _ in range(n)] == [scalar() for _ in range(n)]

    def test_other_calls_go_to_the_stream(self):
        draws, stream = _Prefetched(block_rng(3, 0), 7), block_rng(3, 0)
        assert draws.standard_normal(4).tolist() == stream.standard_normal(4).tolist()
        assert draws.random((2, 2)).tolist() == stream.random((2, 2)).tolist()
        assert draws.random(dtype=np.float32) == stream.random(dtype=np.float32)
        assert draws.poisson(2.0, 3).tolist() == stream.poisson(2.0, 3).tolist()
        assert draws.exponential(0.5) == stream.exponential(0.5)
        # the first chunk is drawn at the first scalar call, from where the stream is
        assert draws.random() == stream.random()

    # at DRAW_CHUNK itself this is test_two_blocks
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("kind", ["bm", "gbm", "chain"])
    def test_logs_keep_their_bytes_whatever_the_chunk(self, kind, chunk):
        with mock.patch.object(restartk.simulation, "DRAW_CHUNK", chunk):
            assert_same_rows(*two_block_log(kind))

    @pytest.mark.parametrize("chain", [make_three_state_chain(), ABSORBING_CHAIN], ids=["three-state", "absorbing"])
    def test_chain_walker_draws_the_transition_law(self, chain):
        # the state at t from x by the holding times -log(1 - u)/rate, against
        # row x of exp(Q t); a state out of the row's support never comes
        draws, n = _Prefetched(block_rng(9, 0), DRAW_CHUNK), 4000
        for t in (0.3, 2.0):
            rows = chain.transition_matrix(t)
            for x, row in enumerate(rows):
                counts = np.bincount([chain.sample_transition(t, x, draws) for _ in range(n)], minlength=len(row))
                support = row > 1e-12
                assert counts[~support].sum() == 0
                if support.sum() > 1:
                    want = n * row[support] / row[support].sum()
                    assert chisquare(counts[support], want).pvalue > P_BAND, (t, x, counts, want)


class TestEnsemble:
    def test_worker_count_never_changes_results(self):
        proc = bm_process(mu=0.2, rate=1.5)
        cfg = PathConfig(
            seed=9, horizon=2.0, record_grid=(0.5, 1.0, 2.0), n_paths=60, initial=PointMass(0.0)
        )
        serial = run_ensemble(proc, cfg, workers=1)
        parallel = run_ensemble(proc, cfg, workers=3)
        assert serial.tobytes() == parallel.tobytes()

    def test_small_ensemble_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 3-block ensemble started a process pool")

        monkeypatch.setattr(restartk.simulation, "ProcessPoolExecutor", refuse)
        cfg = PathConfig(seed=5, horizon=1.0, record_grid=(1.0,), n_paths=3 * BLOCK, initial=PointMass(0.0))
        ens = run_ensemble(bm_process(), cfg, workers=2)
        assert ens.shape == (3 * BLOCK, 1)

    @pytest.mark.parametrize("kind", ["bm", "chain"])
    def test_large_ensemble_uses_the_pool_and_matches_serial(self, kind, monkeypatch, caplog):
        # each worker unpickles the chain without its matrix memo and rebuilds it
        proc, x = {
            "bm": (bm_process(), 0.0),
            "chain": (RestartedProcess(make_three_state_chain(), RestartSpec(2.0, PointMass(2))), 0),
        }[kind]
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(restartk.simulation, "ProcessPoolExecutor", CountingPool)
        n = 2 * POOL_BLOCKS_PER_WORKER * BLOCK + 5
        cfg = PathConfig(seed=6, horizon=1.0, record_grid=(0.4, 1.0), n_paths=n, initial=PointMass(x))
        with caplog.at_level(logging.INFO, logger="restartk"):
            serial = run_ensemble(proc, cfg, workers=1)
            assert pools == [] and caplog.messages == []
            parallel = run_ensemble(proc, cfg, workers=2)
        assert pools == [2]
        # the line a --verbose run prints, which CI greps for
        assert caplog.messages == [f"process pool of 2 workers for {2 * POOL_BLOCKS_PER_WORKER + 1} blocks"]
        assert serial.tobytes() == parallel.tobytes()

    @pytest.mark.parametrize("n_states", [3, 12])
    def test_chain_frequencies_match_analytic_row(self, n_states):
        # the sampler draws from the rows of transition_matrix; the oracle is
        # the exponential of the restarted generator, at each grid time
        if n_states == 3:
            chain, nu = make_three_state_chain(), FiniteSupport(((0, 0.5), (2, 0.5)))
        else:
            chain = FiniteCTMC(random_generator(np.random.default_rng(12), n_states))
            nu = FiniteSupport(((3, 0.3), (9, 0.7)))
        lam, n, grid = 2.0, 4000, (0.3, 0.8)
        proc = RestartedProcess(chain, RestartSpec(lam, nu))
        cfg = PathConfig(seed=31, horizon=grid[-1], record_grid=grid, n_paths=n, initial=PointMass(0))
        ens = run_ensemble(proc, cfg)
        generator = restarted_generator(chain, lam, nu.weights(chain.space))
        for j, t in enumerate(grid):
            row = expm(generator * t)[0]
            for i in range(n_states):
                freq = float(np.mean(ens[:, j] == i))
                assert abs(freq - row[i]) < 4.5 * math.sqrt(row[i] * (1.0 - row[i]) / n)


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
        vals = ens[:, 0] ** 2
        assert rep.estimate == float(np.mean(vals))
        assert rep.std_error == float(np.std(vals, ddof=1) / math.sqrt(500))
        assert monte_carlo_moment(proc, cfg, 2.0, t, ensemble=ens) == rep

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
        return run_ensemble(proc, cfg)[:, 0] ** 2

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
        # the grid once printed as "[np.float64(0.5), np.float64(1.0)]"
        proc = bm_process()
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(0.5, 1.0), n_paths=4, initial=PointMass(0.0))
        with pytest.raises(DomainError) as err:
            monte_carlo_moment(proc, cfg, 1, 0.7)
        assert str(err.value) == "t=0.7 is not on the record grid [0.5, 1.0]"

    @pytest.mark.parametrize("k", [0, -1, True, 2.5, math.inf, math.nan])
    def test_order_must_be_a_whole_number_of_at_least_one(self, k):
        # unchecked, 0 and -1 gave estimates, True the first moment and 2.5
        # a NaN with only numpy's warning
        proc = bm_process()
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=4, initial=PointMass(0.0))
        with pytest.raises(DomainError, match="moment order k"):
            monte_carlo_moment(proc, cfg, k, 1.0)

    @staticmethod
    def moment_without_numpy_warnings(states, k=1):
        """monte_carlo_moment on the ensemble ``states``, with every RuntimeWarning
        but MomentUnstable an error; the report and the warnings' categories."""
        proc = bm_process()
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=len(states), initial=PointMass(0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("always", MomentUnstable)
            rep = monte_carlo_moment(proc, cfg, k, 1.0, ensemble=states)
        return rep, [w.category for w in caught]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_flagged(self, bad):
        # an infinite or NaN value makes the kurtosis NaN, and NaN > threshold
        # is False: the flag must not rest on that comparison; numpy's own
        # warnings on the mean and the standard error stay silent
        states = np.random.default_rng(3).normal(size=(3000, 1))
        states[17, 0] = bad
        rep, caught = self.moment_without_numpy_warnings(states)
        assert rep.heavy_tailed and caught == [MomentUnstable]

    def test_power_past_the_float_range_is_flagged(self):
        states = np.random.default_rng(3).normal(size=(3000, 1))
        states[17, 0] = 1e200
        rep, caught = self.moment_without_numpy_warnings(states, k=2)
        assert rep.heavy_tailed and caught == [MomentUnstable]

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e306])
    def test_estimate_and_standard_error_are_finite_at_any_scale(self, scale):
        # squared deviations overflow near 1e160 and underflow near 1e-160,
        # and the sum of these 3,000 values overflows near 1e306; estimate and
        # standard error are the unit sample's, scaled
        unit = 1.0 + np.random.default_rng(3).normal(size=(3000, 1)) ** 2
        rep, caught = self.moment_without_numpy_warnings(scale * unit)
        assert caught == [] and not rep.heavy_tailed
        for got, want in ((rep.estimate, np.mean(unit)), (rep.std_error, np.std(unit, ddof=1) / math.sqrt(3000))):
            assert math.isfinite(got) and abs(got - scale * float(want)) < 1e-12 * scale * float(want)

    @pytest.mark.parametrize("scale", [1e-300, 1e-80, 1.0, 1e80, 1e160, 1e300])
    def test_flag_is_scale_free(self, scale):
        # raw squared deviations overflow near 1e160 and underflow near
        # 1e-300, and raw fourth powers overflow near 1e80
        rng = np.random.default_rng(3)
        light = 1.0 + rng.normal(size=3000) ** 2
        heavy = rng.lognormal(0.0, 3.0, 3000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not restartk.simulation._heavy_tailed(scale * light)
            assert restartk.simulation._heavy_tailed(scale * heavy)

    def test_heavy_tail_flag_matches_the_fourth_power_form(self):
        # the fourth moment is a square of scaled squares, not numpy's
        # per-value pow of centered**4: the two round differently, the flag
        # must not move
        rng = np.random.default_rng(11)
        samples = [rng.lognormal(0.0, s, 3000) for s in np.linspace(1.0, 3.0, 200)]
        samples += [rng.standard_t(df, 3000) for df in (2.5, 3.0, 5.0) for _ in range(30)]
        samples += [rng.normal(size=n) for n in (15, 16, 17, 400)]
        kurtoses = [frozen_kurtosis(v) for v in samples[:200]]
        # lognormal samples on both sides of the threshold, some close to it
        assert any(0.8 < k / KURTOSIS_THRESHOLD < 1.0 for k in kurtoses)
        assert any(1.0 < k / KURTOSIS_THRESHOLD < 1.25 for k in kurtoses)
        for vals in samples:
            assert restartk.simulation._heavy_tailed(vals) == frozen_heavy_tailed(vals)


def frozen_kurtosis(vals):
    centered = vals - np.mean(vals)
    return float(np.mean(centered**4)) / float(np.mean(centered**2)) ** 2 - 3.0


def frozen_heavy_tailed(vals):
    """simulation._heavy_tailed on finite samples, fourth powers by centered**4."""
    if len(vals) < 16 or np.var(vals) == 0.0:
        return False
    absvals = np.abs(vals)
    share = float(np.max(absvals)) / float(np.sum(absvals))
    return frozen_kurtosis(vals) > KURTOSIS_THRESHOLD or share > MAX_SHARE_THRESHOLD


def _hill_tail_index(vals, frac=0.01):
    """Hill estimate of the Pareto tail index over the top frac of the sample."""
    top = np.sort(vals)[::-1][: int(frac * len(vals)) + 1]
    return 1.0 / float(np.mean(np.log(top[:-1] / top[-1])))


def binned_tv(values, edges, pdf):
    """TV distance between the sample's law and the density's on the bins of
    ``edges``, the mass outside them one more cell."""
    emp = np.histogram(values, bins=edges)[0] / len(values)
    ref = np.array([quad(pdf, a, b, epsabs=1e-12, epsrel=1e-9)[0] for a, b in zip(edges, edges[1:])])
    return 0.5 * (float(np.abs(emp - ref).sum()) + abs(float(emp.sum() - ref.sum())))


class TestEmpiricalDistribution:
    def test_tv_against_invariant_density(self):
        proc = bm_process(rate=2.0)
        cfg = PathConfig(seed=42, horizon=8.0, record_grid=(8.0,), n_paths=64000, initial=PointMass(0.0))
        vals = run_ensemble(proc, cfg)[:, 0]
        bins = 40
        # the invariant law puts exp(-10) outside the window; over seeds 42, 1,
        # 2 and 3 the sampler reads 0.005-0.010 against sqrt(bins/n) = 0.025,
        # and one whose restart-age draw runs at 1.3 lam reads 0.044-0.049
        tv = binned_tv(vals, np.linspace(-5.0, 5.0, bins + 1), proc.invariant_density)
        assert tv < math.sqrt(bins / len(vals))
        assert np.mean(np.abs(vals) > 5.0) < 1e-3


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

    def test_log_equals_numpy_streams_path_by_path(self):
        # a 33-bit seed off the powers of two; each path is walked on its
        # block's numpy Generator and must give the same bytes
        assert_same_rows(*two_atom_bm_paths(2**32 + 9))

    def test_failed_run_leaves_no_file_and_keeps_the_old_log(self, tmp_path):
        out = tmp_path / "paths.csv"
        out.write_text("an earlier log\n")
        proc = RestartedProcess(GeometricBrownian(mu=5.0, sigma=0.5), RestartSpec(1e-6, PointMass(1.0)))
        cfg = PathConfig(seed=0, horizon=1000.0, record_grid=(1.0, 150.0), n_paths=3, initial=PointMass(1.0))
        with pytest.raises(OverflowError):
            write_path_csv(proc, cfg, str(out))
        assert out.read_text() == "an earlier log\n"
        assert [p.name for p in tmp_path.iterdir()] == ["paths.csv"]

    def test_finite_space_writes_labels(self, three_state_chain):
        proc = RestartedProcess(three_state_chain, RestartSpec(2.0, PointMass(1)))
        cfg = PathConfig(seed=4, horizon=1.0, record_grid=(1.0,), n_paths=3, initial=PointMass(0))
        states = {row.split(",")[2] for row in log_rows(proc, cfg)[1:]}
        assert states <= {"0.29999999999999999", "-1.2", "2.5"}

    def test_restarts_after_the_last_grid_time_are_logged(self):
        proc = bm_process(mu=0.3, rate=3.0, nu=FiniteSupport(((-1.0, 0.5), (1.0, 0.5))))
        cfg = PathConfig(
            seed=8, horizon=2.0, record_grid=(0.25, 0.5, 1.0), n_paths=6, initial=PointMass(0.0)
        )
        assert_same_rows(proc, cfg)
        assert any(r.endswith("restart") and float(r.split(",")[1]) > 1.0 for r in log_rows(proc, cfg)[1:])

    def test_initial_must_fit_space(self, tmp_path):
        proc = RestartedProcess(GeometricBrownian(), RestartSpec(1.0, PointMass(1.0)))
        cfg = PathConfig(seed=0, horizon=1.0, record_grid=(1.0,), n_paths=1, initial=PointMass(-1.0))
        with pytest.raises(DomainError, match="initial distribution"):
            write_path_csv(proc, cfg, str(tmp_path / "paths.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_ensemble_and_walker_agree_in_law(self):
        # the block sampler and the event walker draw differently but must
        # give the same law: means and variances at every grid time within 4
        # joint standard errors.  Both draw from block_rng(seed, b), so the
        # log takes another seed to keep the two samples independent
        proc = bm_process(mu=0.3, rate=3.0, nu=FiniteSupport(((-1.0, 0.5), (1.0, 0.5))))
        n = 4000
        cfg = PathConfig(
            seed=8, horizon=2.0, record_grid=(0.25, 0.5, 1.0), n_paths=n, initial=PointMass(0.0)
        )
        ens = run_ensemble(proc, cfg)
        rows = [row.split(",") for row in log_rows(proc, replace(cfg, seed=9))[1:]]
        walked = np.array([float(r[2]) for r in rows if r[3] == "grid"]).reshape(n, 3)
        for a, b in [(ens[:, j], walked[:, j]) for j in range(3)]:
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
            states = ens[:, j]
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
        assert np.all(ens[:, 0] == 10.0)
        for j in (1, 2):
            gap = cfg.record_grid[j] - cfg.record_grid[j - 1]
            now, before = ens[:, j], ens[:, j - 1]
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
        assert serial.tobytes() == parallel.tobytes()
        assert serial.shape == (2 * BLOCK + 77, 2)

    def test_chain_frequencies_at_two_times(self, three_state_chain):
        proc = RestartedProcess(three_state_chain, RestartSpec(1.3, FiniteSupport(((1, 0.6), (2, 0.4)))))
        n, grid = 5000, (0.35, 1.6)
        cfg = PathConfig(seed=57, horizon=1.6, record_grid=grid, n_paths=n, initial=PointMass(0))
        ens = run_ensemble(proc, cfg)
        for j, t in enumerate(grid):
            row = proc.transition_matrix(t)[0]
            for i in range(3):
                freq = float(np.mean(ens[:, j] == i))
                assert abs(freq - row[i]) < 4.5 * math.sqrt(row[i] * (1.0 - row[i]) / n)

    def test_gaussian_restart_masses(self):
        proc = bm_process(mu=-0.4, sigma=0.8, rate=1.7, nu=gaussian(0.5, 0.7))
        n, t = 5000, 1.2
        cfg = PathConfig(seed=61, horizon=t, record_grid=(t,), n_paths=n, initial=PointMass(1.0))
        vals = run_ensemble(proc, cfg)[:, 0]
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
            vals = run_ensemble(proc, cfg)[:, 0]
            want = RestartedProcess(base, RestartSpec(2.0, PointMass(x))).moment(1, t, x)
            labels = np.asarray(base.space.values)[vals.astype(int)] if base is three_state_chain else vals
            assert abs(labels.mean() - want) < 4.5 * _se_mean(labels)
