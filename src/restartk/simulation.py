"""Exact simulation of restarted processes.

No time discretisation anywhere.  Ensembles (``run_ensemble``) advance
blocks of BLOCK paths one grid interval at a time, all paths of a block at
once, through ``RestartedProcess.sample_transitions``.  A restarted chain is
itself a finite chain, so per interval each of its paths takes one draw from
its row of the restarted transition matrix; any other path takes the age of
its last restart, at most one redraw from nu and one exact base transition.
An ensemble is the (paths, grid times) array of the states on the grid
(state indices on finite spaces).

The event log (``write_path_csv``) walks one path event by event instead.
Each block first draws what no path's state changes, one numpy call each:
the start states, the restart clocks (per path a Poisson(lam*h) count of
sorted uniform times on (0, h], the Poisson process's order statistics)
and the redraws from nu.  The walk then samples the base kernel over each
inter-event interval, its scalar draws taken from chunks of DRAW_CHUNK
values, one numpy call each (``_Prefetched``): a diffusion's steps are the
stream's next normals, a chain's holding times -log(1 - u)/rate and jumps
its next uniforms u, whatever the chunk size.  Each row it reaches is a
%-template fragment from tables made once per log, with the grid time, a
chain's label or a restart atom already in its text; the path id, the
restart time and any other state are kept as values, and one % over a
block's fragments formats them all, so the numbers are formatted in C and
each block is one write.

Both routes draw block b (paths b*BLOCK to (b + 1)*BLOCK - 1) of a run
seeded with s from one stream, SeedSequence(s, spawn_key=(b,)): the
ensemble for all paths of the block at once, the event log its block draws
and then each path's transitions in turn.  So the draws depend on the seed
and the path count only, never on how blocks are spread over workers.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MomentUnstable, check_count, check_positive
from .spaces import FiniteSet

# paths per block: the unit of vectorisation, of random streams (ensemble
# and event log alike) and of work handed to a worker
BLOCK = 1024

# values per numpy call behind the scalar draws of the event log's walk
# (_Prefetched): 256 normals take about 7 µs, 256 uniforms 5 µs, against
# 0.4-0.8 µs a scalar call (2-core x86-64); 64 to 1024 ran the paths
# workload's logs alike, and a block that walks few events wastes less of a chunk
DRAW_CHUNK = 256

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


def block_rng(seed, block):
    """The random stream of one block of paths, ensemble or event log."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _restart_clock(rng, rate, horizon, m):
    """The restart times in (0, horizon] of m paths of a rate-``rate`` Poisson
    clock: Poisson(rate * horizon) counts, then for each path that many sorted
    times horizon * (1 - u), u uniform on [0, 1).  Returns the counts and an
    (m, max count + 1) array whose row i holds path i's times, then infinity."""
    counts = rng.poisson(rate * horizon, m)
    slots = np.arange(counts.max() + 1) < counts[:, None]
    times = np.full(slots.shape, math.inf)
    times[slots] = horizon * (1.0 - rng.random(int(counts.sum())))
    times.sort(axis=1)
    return counts, times


class _Prefetched:
    """A block's stream as the event log's walk sees it.  Each scalar
    ``standard_normal()`` and ``random()`` is the next value of a chunk of
    ``chunk`` drawn in one numpy call, and numpy's Generator draws a chunk
    as the values, in order, of that many scalar calls.  A call with a size
    or any other argument, and every other method, goes to the stream
    itself (ahead of what the chunks have drawn)."""

    def __init__(self, rng, chunk):
        self._rng = rng
        self.standard_normal = _in_chunks(rng.standard_normal, chunk)
        self.random = _in_chunks(rng.random, chunk)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _in_chunks(draw, chunk):
    take = itertools.chain.from_iterable(iter(lambda: draw(chunk).tolist(), None)).__next__
    float64 = np.float64

    def scalar_or_array(size=None, dtype=float64, out=None):
        if size is None and dtype is float64 and out is None:
            return take()
        return draw(size, dtype, out)

    return scalar_or_array


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
    """The states of every path at the grid times, as an (n_paths, grid) array.

    Worker count never changes the draws: workers take whole blocks, at
    least POOL_BLOCKS_PER_WORKER each, and smaller ensembles run in this
    process.  Parallel execution needs the process and config to be
    picklable, which holds for all kernels and distributions shipped here.
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
    return np.concatenate(blocks)


def _check_initial(proc, config):
    if not config.initial.supported_in(proc.space):
        raise DomainError(
            f"initial distribution {config.initial!r} is not supported in {proc.space!r}"
        )


def _grid_index(config, t):
    grid = np.asarray(config.record_grid)
    hits = np.nonzero(np.isclose(grid, t, rtol=0.0, atol=1e-12))[0]
    if hits.size == 0:
        raise DomainError(f"t={t} is not on the record grid {list(config.record_grid)}")
    return int(hits[0])


def monte_carlo_moment(proc, config, k, t, ensemble=None):
    """Estimate E[X(t)^k] over the ensemble, with heavy-tail diagnostics.

    Emits MomentUnstable (and flags the report) when the k-th powers show
    heavy-tail symptoms: enormous excess kurtosis or one path dominating
    their absolute sum.  The standard error is then unreliable and the
    moment itself may not exist.  ``ensemble`` is ``run_ensemble``'s array;
    without one it simulates one in this process.
    """
    k = check_count("moment order k", k)
    j = _grid_index(config, t)
    if ensemble is None:
        ensemble = run_ensemble(proc, config)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN value is flagged below
        vals = proc.space.labels(ensemble[:, j]) ** k
        n = len(vals)
        # past 1e140 or under 1e-140 the sums and squares of vals can leave the
        # float range, and those of vals / top cannot
        top = float(np.max(np.abs(vals), initial=0.0))
        scale = top if 0.0 < top < math.inf and not 1e-140 < top < 1e140 else 1.0
        est = scale * float(np.mean(vals / scale))
        se = scale * float(np.std(vals / scale, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    heavy = _heavy_tailed(vals)
    if heavy:
        warnings.warn(
            f"moment k={k} at t={t}: heavy-tail symptoms in the sample; "
            "standard error unreliable, moment may be infinite",
            MomentUnstable,
        )
    return EstimatorReport(est, se, n, heavy)


def _heavy_tailed(vals):
    if len(vals) < 16:
        return False
    absvals = np.abs(vals)
    top = float(np.max(absvals))
    if not math.isfinite(top):
        return True  # an infinite or NaN value: no finite kurtosis, nor estimate
    if top == 0.0:
        return False
    # kurtosis and share do not change with scale, and on vals / top every
    # square fits the float range, whatever the scale of vals
    scaled = vals / top
    squared = (scaled - np.mean(scaled)) ** 2
    m2 = float(np.mean(squared))
    if m2 == 0.0:
        return False
    # (x**2 / m2)**2: no per-value pow as in x**4
    kurtosis = float(np.mean(np.square(squared / m2))) - 3.0
    share = 1.0 / float(np.sum(absvals / top))
    return kurtosis > KURTOSIS_THRESHOLD or share > MAX_SHARE_THRESHOLD


def write_path_csv(proc, config, out):
    """Write every path as CSV rows, path_id,time,state,event_type, to the file at path ``out``.

    A row is written at each restart (state just after the redraw) and at
    each grid time, in time order; restart rows precede a grid row at the
    same instant.  States on finite spaces are written as labels.  Block b
    draws from ``block_rng(config.seed, b)``, the stream of the ensemble's
    block b: its start states, its restart clocks and its redraws from nu,
    then the base transitions of each path in order, walked and written in
    one loop, on the stream's next values in chunks (``_Prefetched``).
    The log is written beside ``out`` under a temporary name and takes its
    place only when every path is written, so a failed run leaves no
    partial log and an earlier log at ``out`` stays as it was.
    """
    _check_initial(proc, config)
    tmp = f"{os.fspath(out)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            _write_paths(proc, config, fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_paths(proc, config, fh):
    # block b draws its start states, restart clocks and redraws from nu first,
    # each in one call, then walks its paths in order on the rest of its
    # stream, seen through _Prefetched.  The restarts after the last grid
    # time are walked too, and each path's clock ends at infinity, whose pass
    # ends the path.  Each row is a
    # %-template fragment from tables made once per log: each grid time, a
    # chain's labels and the atoms of a finite restart law (not 0, whose key
    # would also take -0.0) are written into the fragments (formatted numbers
    # hold no %); the path id, each restart time and any other state fill %d
    # and %.17g slots, one % over a block's fragments fills them all
    step = proc.base.sample_transition
    stops = config.record_grid + (math.inf,)
    if isinstance(proc.space, FiniteSet):
        state_text = {i: format(v, ".17g") for i, v in enumerate(proc.space.values)}
    else:
        state_text = {x: format(x, ".17g") for x in proc.restart.nu.atoms if x}

    def fragments(time, kind):
        # (the row with a %.17g state slot, the rows of the known states)
        known = {x: f"%d,{time},{text},{kind}\n" for x, text in state_text.items()}
        return f"%d,{time},%.17g,{kind}\n", known.get

    grid_rows = [fragments(format(g, ".17g"), "grid") for g in config.record_grid]
    restart_row, restart_known = fragments("%.17g", "restart")
    fh.write("path_id,time,state,event_type\n")
    for block, lo in enumerate(range(0, config.n_paths, BLOCK)):
        rng = block_rng(config.seed, block)
        m = min(BLOCK, config.n_paths - lo)
        starts = config.initial.sample(rng, m).tolist()
        counts, clocks = _restart_clock(rng, proc.rate, config.horizon, m)
        redraw = iter(proc.restart.nu.sample(rng, int(counts.sum())).tolist()).__next__
        draws = _Prefetched(rng, DRAW_CHUNK)
        rows = []
        row = rows.append
        values = []
        value = values.append
        for i, state, clock in zip(range(lo, lo + m), starts, clocks.tolist()):
            now = 0.0
            j = 0
            for r in clock:
                while stops[j] < r:
                    g = stops[j]
                    if g > now:
                        state = step(g - now, state, draws)
                        now = g
                    free, known = grid_rows[j]
                    value(i)
                    fragment = known(state)
                    if fragment is None:
                        fragment = free
                        value(state)
                    row(fragment)
                    j += 1
                if r == math.inf:
                    break
                if r > now:
                    # a transition the redraw replaces, drawn only for the pin
                    # 0 < simulation.useful_transition_ratio < 1 in perfbench/test_smoke.py
                    # (ROADMAP 1a and 3 free it)
                    step(r - now, state, draws)
                state = redraw()
                now = r
                value(i)
                value(r)
                fragment = restart_known(state)
                if fragment is None:
                    fragment = restart_row
                    value(state)
                row(fragment)
        fh.write("".join(rows) % tuple(values))
