"""Exact simulation of restarted processes.

No time discretisation anywhere.  Ensembles (``run_ensemble``) advance
blocks of BLOCK paths one grid interval at a time, all paths of a block at
once, through ``RestartedProcess.sample_transitions``.  A restarted chain is
itself a finite chain, so per interval each of its paths takes one draw from
its row of the restarted transition matrix; any other path takes the age of
its last restart, at most one redraw from nu and one exact base transition.
An ensemble keeps the states on the grid and nothing else.

The event log (``write_path_csv``) walks one path event by event instead:
restart times are drawn from the exponential clock, and the base kernel is
sampled over each inter-event interval, on Python lists, with each grid
time and restart atom formatted once per run.

Both routes draw block b (paths b*BLOCK to (b + 1)*BLOCK - 1) of a run
seeded with s from one stream, SeedSequence(s, spawn_key=(b,)): the
ensemble for all paths of the block at once, the walker for one path after
another.  So the draws depend on the seed and the path count only, never on
how blocks are spread over workers.
"""

from __future__ import annotations

import logging
import math
import os
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, MomentUnstable, check_count, check_positive
from .spaces import FiniteSet

# paths per block: the unit of vectorisation, of random streams (ensemble
# and event log alike) and of work handed to a worker
BLOCK = 1024

# blocks each worker must get before run_ensemble starts a process pool.  No
# pool of 2 won its start back on a 2-core x86-64 host (run_ensemble, 3 grid
# times, min of 5, seconds serial/2 workers); 64 lets --threads 2 start one at 137 blocks
#   paths  BM         GBM        3-state    12-state chain
#   140k   0.05/0.07  0.07/0.09  0.07/0.13  0.05/0.14
#   400k   0.15/0.17  0.14/0.16  0.15/0.26  0.15/0.29
#   1M     0.38/0.42  0.39/0.42  0.41/0.47  0.40/0.44
POOL_BLOCKS_PER_WORKER = 64

_logger = logging.getLogger("restartk")

# heavy-tail diagnostics for Monte Carlo moments: excess kurtosis of the
# k-th powers, and the largest single path's share of their absolute sum
KURTOSIS_THRESHOLD = 1000.0
MAX_SHARE_THRESHOLD = 0.2


@dataclass(frozen=True)
class PathConfig:
    """What to simulate: clock seed, horizon, recording grid, ensemble size."""

    seed: int
    horizon: float
    record_grid: tuple
    n_paths: int
    initial: object

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        h = check_positive("horizon", self.horizon)
        grid = tuple(float(g) for g in self.record_grid)
        if not grid:
            raise DomainError("record_grid must contain at least one time")
        if not all(0.0 <= g <= h for g in grid):
            raise DomainError(f"record_grid must lie within [0, {h}]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("record_grid must be strictly increasing")
        object.__setattr__(self, "horizon", h)
        object.__setattr__(self, "record_grid", grid)
        object.__setattr__(self, "n_paths", check_count("n_paths", self.n_paths))


@dataclass(frozen=True)
class EstimatorReport:
    """A Monte Carlo estimate with its standard error and sample size."""

    estimate: float
    std_error: float
    n: int
    heavy_tailed: bool = False


@dataclass
class EnsembleResult:
    """The states of an ensemble on the record grid.

    states[i, j] is path i at grid time j (a state index for finite spaces).
    """

    grid: np.ndarray
    states: np.ndarray


def block_rng(seed, block):
    """The random stream of one block of paths, ensemble or event log."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _first_chunk(rate, horizon):
    # gaps in a clock's first draw: the mean count plus six standard
    # deviations, so almost every clock passes the horizon in one draw
    return max(16, int(rate * horizon + 6.0 * math.sqrt(rate * horizon) + 10.0))


def _restart_times(rng, scale, horizon, chunk):
    """The restart times in (0, horizon] as a list: one draw of ``chunk``
    Exp(scale) gaps, then draws of 16 more while the clock has not passed
    the horizon.  The gaps are summed in order, as numpy's 1-D cumsum sums
    them, and only up to the first time past the horizon."""
    gaps = rng.exponential(scale, size=chunk).tolist()
    times = []
    while True:
        for s in accumulate(gaps):
            if s > horizon:
                return times
            times.append(s)
        gaps = rng.exponential(scale, size=16).tolist()
        gaps[0] += times[-1]


def draw_restart_times(rng, rate, horizon):
    """All restart times in (0, horizon], drawn as cumulative exponential gaps."""
    if rate == 0.0:
        return np.empty(0)
    return np.array(_restart_times(rng, 1.0 / rate, horizon, _first_chunk(rate, horizon)))


def _walker(proc, config):
    """walk(rng): the events of the next path on rng.

    The events are (time, state, kind) in time order, kind "restart" at
    each restart (the state just redrawn) and "grid" at each grid time; a
    restart at a grid time comes first.  The restarts between the last grid
    time and the horizon are walked too: the event log shows them, and every
    path uses up the same draws, so the next path of its block starts from
    the same point of the stream.  Whatever does not change from path to
    path is looked up here, once.
    """
    start = config.initial.sample
    step = proc.base.sample_transition
    redraw = proc.restart.nu.sample
    rate, horizon = proc.rate, config.horizon
    scale = 1.0 / rate if rate > 0.0 else math.inf
    chunk = _first_chunk(rate, horizon)
    # the grid and the restarts each end at infinity: each grid time is taken
    # as the clock passes it, and the pass at infinity ends the path
    stops = config.record_grid + (math.inf,)
    end = [math.inf]

    def walk(rng):
        state = start(rng)
        restarts = _restart_times(rng, scale, horizon, chunk) if rate > 0.0 else []
        events = []
        now = 0.0
        j = 0
        for r in restarts + end:
            while stops[j] < r:
                g = stops[j]
                if g > now:
                    state = step(g - now, state, rng)
                    now = g
                events.append((g, state, "grid"))
                j += 1
            if r == math.inf:
                return events
            if r > now:
                state = step(r - now, state, rng)
            state = redraw(rng)
            now = r
            events.append((r, state, "restart"))

    return walk


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported only when run_ensemble
    starts a pool: most runs never do, and the import costs every run."""
    from concurrent import futures

    return futures.ProcessPoolExecutor(*args, **kwargs)


def _run_block(proc, config, block):
    """The states of one block of paths at every grid time, as an (m, grid) array."""
    rng = block_rng(config.seed, block)
    m = min(BLOCK, config.n_paths - block * BLOCK)
    states = np.empty((m, len(config.record_grid)))
    state = config.initial.sample(rng, m)
    now = 0.0
    for j, t in enumerate(config.record_grid):
        if t > now:
            state = proc.sample_transitions(t - now, state, rng)
            now = t
        states[:, j] = state
    return states


def _run_blocks(proc, config, lo, hi):
    return [_run_block(proc, config, b) for b in range(lo, hi)]


def run_ensemble(proc, config, workers=1):
    """Simulate the whole ensemble; worker count never changes the draws.

    Workers take whole blocks, at least POOL_BLOCKS_PER_WORKER each; smaller
    ensembles run in this process.  Parallel execution needs the process and
    config to be picklable, which holds for all kernels and distributions
    shipped here.
    """
    _check_initial(proc, config)
    n_blocks = -(-config.n_paths // BLOCK)
    workers = max(1, min(int(workers), n_blocks // POOL_BLOCKS_PER_WORKER))
    if workers == 1:
        blocks = _run_blocks(proc, config, 0, n_blocks)
    else:
        _logger.info("process pool of %d workers for %d blocks", workers, n_blocks)
        bounds = np.linspace(0, n_blocks, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(
                _run_blocks, [proc] * workers, [config] * workers, bounds[:-1], bounds[1:]
            )
            blocks = [block for chunk in chunks for block in chunk]
    return EnsembleResult(np.asarray(config.record_grid), np.concatenate(blocks))


def _check_initial(proc, config):
    if not config.initial.supported_in(proc.space):
        raise DomainError(
            f"initial distribution {config.initial!r} is not supported in {proc.space!r}"
        )


def _grid_index(config, t):
    grid = np.asarray(config.record_grid)
    hits = np.nonzero(np.isclose(grid, t, rtol=0.0, atol=1e-12))[0]
    if hits.size == 0:
        raise DomainError(f"t={t} is not on the record grid {list(grid)}")
    return int(hits[0])


def monte_carlo_moment(proc, config, k, t, ensemble=None):
    """Estimate E[X(t)^k] over the ensemble, with heavy-tail diagnostics.

    Emits MomentUnstable (and flags the report) when the k-th powers show
    heavy-tail symptoms: enormous excess kurtosis or one path dominating
    their absolute sum.  The standard error is then unreliable and the
    moment itself may not exist.  Without an ``ensemble`` it simulates one
    in this process.
    """
    k = check_count("moment order k", k)
    j = _grid_index(config, t)
    if ensemble is None:
        ensemble = run_ensemble(proc, config)
    vals = proc.space.labels(ensemble.states[:, j]) ** k
    n = len(vals)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    heavy = _heavy_tailed(vals)
    if heavy:
        warnings.warn(
            f"moment k={k} at t={t}: heavy-tail symptoms in the sample; "
            "standard error unreliable, moment may be infinite",
            MomentUnstable,
        )
    return EstimatorReport(est, se, n, heavy)


def _heavy_tailed(vals):
    n = len(vals)
    if n < 16:
        return False
    centered = vals - np.mean(vals)
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return False
    m4 = float(np.mean(centered**4))
    kurtosis = m4 / m2**2 - 3.0
    absvals = np.abs(vals)
    total = float(np.sum(absvals))
    share = float(np.max(absvals)) / total if total > 0.0 else 0.0
    return kurtosis > KURTOSIS_THRESHOLD or share > MAX_SHARE_THRESHOLD


def write_path_csv(proc, config, out):
    """Stream every path as CSV rows: path_id,time,state,event_type.

    A row is written at each restart (state just after the redraw) and at
    each grid time, in time order; restart rows precede a grid row at the
    same instant.  States on finite spaces are written as labels.  The
    paths of block b are walked in order on ``block_rng(config.seed, b)``,
    the stream of the ensemble's block b.  A file named by ``out`` is
    written beside it under a temporary name and takes its place only when
    every path is written, so a failed run leaves no partial log and an
    earlier log at ``out`` stays as it was.
    """
    _check_initial(proc, config)
    if not isinstance(out, str):
        _write_paths(proc, config, out)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            _write_paths(proc, config, fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_paths(proc, config, fh):
    # the text of each grid time, and of the states a log writes over and
    # over: a chain's labels, the atoms of a finite restart law (not 0, whose
    # key would also take -0.0); format(x, ".17g") of any other state
    grid_text = {g: format(g, ".17g") for g in config.record_grid}
    if isinstance(proc.space, FiniteSet):
        state_text = {i: format(proc.state_value(i), ".17g") for i in range(proc.space.n)}
    else:
        state_text = {x: format(x, ".17g") for x in getattr(proc.restart.nu, "atoms", ()) if x}
    walk = _walker(proc, config)
    fh.write("path_id,time,state,event_type\n")
    for block, lo in enumerate(range(0, config.n_paths, BLOCK)):
        rng = block_rng(config.seed, block)
        rows = []
        for i in range(lo, min(lo + BLOCK, config.n_paths)):
            for t, x, kind in walk(rng):
                text = state_text.get(x) or format(x, ".17g")
                if kind == "grid":
                    rows.append(f"{i},{grid_text[t]},{text},grid\n")
                else:
                    rows.append(f"{i},{t:.17g},{text},restart\n")
        fh.write("".join(rows))
