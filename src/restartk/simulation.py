"""Exact simulation of restarted processes.

No time discretisation anywhere.  Ensembles (``run_ensemble``) advance
blocks of BLOCK paths one grid interval at a time, all paths of a block at
once, through ``RestartedProcess.sample_transitions``: per interval each path
takes the age of its last restart, at most one redraw from nu and one exact
base transition.  An ensemble keeps the states on the grid and nothing else.
Block b of a run seeded with s draws from the stream
SeedSequence(s, spawn_key=(b,)), so the states depend on the seed and the
path count only, never on how blocks are spread over workers.

Single paths and the event log (``simulate_path``, ``write_path_csv``) walk
one path event by event instead: restart times are drawn from the
exponential clock, the base kernel is sampled over each inter-event
interval, and path i draws from its own stream SeedSequence((s, i)).  The
two contracts share no stream: a block stream's entropy is the seed padded
to four words plus the block key, longer than any path stream's for seeds
below 2**96.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MomentUnstable, WindowTooNarrow
from .spaces import FiniteSet

# paths per ensemble block: the unit of vectorisation, of random streams and
# of work handed to a worker
BLOCK = 1024

# blocks each worker must get before run_ensemble starts a process pool.  On
# a 2-core x86-64 host a pool of 2 took 30-60 ms to start and to return its
# blocks at 1-5 ms of work per block; only ensembles of 128 blocks and more
# won that time back, and only for the 3-state chain
POOL_BLOCKS_PER_WORKER = 64

# most exponential gaps age_distribution_test draws at once (8 MB of floats)
AGE_TEST_GAPS = 1 << 20

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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        h = float(self.horizon)
        if not (h > 0.0) or not math.isfinite(h):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        grid = tuple(float(g) for g in self.record_grid)
        if not grid:
            raise DomainError("record_grid must contain at least one time")
        if not all(0.0 <= g <= h for g in grid):
            raise DomainError(f"record_grid must lie within [0, {h}]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("record_grid must be strictly increasing")
        if int(self.n_paths) < 1:
            raise DomainError(f"n_paths must be at least 1, got {self.n_paths}")
        object.__setattr__(self, "horizon", h)
        object.__setattr__(self, "record_grid", grid)
        object.__setattr__(self, "n_paths", int(self.n_paths))


@dataclass
class PathSample:
    """One simulated path: recorded states and every restart time up to the horizon."""

    states: np.ndarray
    restart_times: np.ndarray


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


def path_rng(seed, path_index):
    """The dedicated random stream of one path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, path_index))))


def block_rng(seed, block):
    """The dedicated random stream of one ensemble block."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def draw_restart_times(rng, rate, horizon):
    """All restart times in (0, horizon], drawn as cumulative exponential gaps."""
    if rate == 0.0:
        return np.empty(0)
    times = []
    total = 0.0
    chunk = max(16, int(rate * horizon + 6.0 * math.sqrt(rate * horizon) + 10.0))
    while total <= horizon:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        gaps[0] += total
        cum = np.cumsum(gaps)
        times.append(cum)
        total = float(cum[-1])
        chunk = 16
    times = np.concatenate(times)
    return times[times <= horizon]


def _run_path(proc, config, path_index, events=None):
    """Walk one path over the grid; optionally collect per-event rows."""
    rng = path_rng(config.seed, path_index)
    state = config.initial.sample(rng)
    restarts = draw_restart_times(rng, proc.rate, config.horizon)
    grid = config.record_grid
    states = np.empty(len(grid))
    base = proc.base
    nu = proc.restart.nu
    ri = 0
    now = 0.0
    # event logs also cover restarts between the last grid time and the
    # horizon, through one more pass that stops at infinity and records
    # nothing; grid recordings are unaffected
    stops = grid + (math.inf,) if events is not None else grid
    for j, g in enumerate(stops):
        while ri < len(restarts) and restarts[ri] <= g:
            dt = restarts[ri] - now
            if dt > 0.0:
                state = base.sample_transition(dt, state, rng)
            state = nu.sample(rng)
            now = restarts[ri]
            ri += 1
            if events is not None:
                events.append((now, state, "restart"))
        if j == len(grid):
            break
        dt = g - now
        if dt > 0.0:
            state = base.sample_transition(dt, state, rng)
        now = g
        states[j] = state
        if events is not None:
            events.append((g, state, "grid"))
    return states, restarts


def simulate_path(proc, config, path_index=0):
    """One exact path of the restarted process."""
    _check_initial(proc, config)
    return PathSample(*_run_path(proc, config, path_index))


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


def monte_carlo_moment(proc, config, k, t, ensemble=None, workers=1):
    """Estimate E[X(t)^k] over the ensemble, with heavy-tail diagnostics.

    Emits MomentUnstable (and flags the report) when the k-th powers show
    heavy-tail symptoms: enormous excess kurtosis or one path dominating
    their absolute sum.  The standard error is then unreliable and the
    moment itself may not exist.
    """
    j = _grid_index(config, t)
    if ensemble is None:
        ensemble = run_ensemble(proc, config, workers=workers)
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


@dataclass
class AgeReport:
    """Empirical law of the time since the last restart versus theory."""

    grid: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    max_deviation: float
    threshold: float
    n_paths: int
    passed: bool


def age_distribution_test(proc, t, n_paths, seed, grid_points=200):
    """Check that the age of the restart clock at time t is truncated-exponential.

    P[age <= s, at least one restart] should equal 1 - exp(-lam*s) for
    s in [0, t].  Only the clock matters, so every path is run forward from
    0 by exponential gaps, all paths at once from the one stream of the
    seed, until its clock passes t: the opposite construction to the
    ensemble sampler's backward draw of the age.  Deviations are compared
    on a uniform grid against a 3/sqrt(n) band.
    """
    lam = proc.rate
    if lam <= 0.0:
        raise DomainError("age test needs a positive restart rate")
    t = float(t)
    if not (0.0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    n_paths, grid_points = int(n_paths), int(grid_points)
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    if grid_points < 1:
        raise DomainError(f"grid_points must be at least 1, got {grid_points}")
    rng = np.random.default_rng(seed)
    # gaps per path and draw: the mean count plus six standard deviations,
    # so almost every clock passes t in one draw, but at most AGE_TEST_GAPS
    # gaps over all paths
    mean = lam * t
    chunk = max(1, min(int(mean + 6.0 * math.sqrt(mean) + 10.0), AGE_TEST_GAPS // n_paths))
    clock = np.zeros(n_paths)
    last = np.full(n_paths, -math.inf)
    live = np.arange(n_paths)
    while live.size:
        times = clock[live, None] + np.cumsum(rng.exponential(1.0 / lam, (live.size, chunk)), axis=1)
        inside = np.count_nonzero(times <= t, axis=1)
        hit = inside > 0
        last[live[hit]] = times[hit, inside[hit] - 1]
        clock[live] = times[:, -1]
        live = live[times[:, -1] <= t]
    ages = np.sort(t - last)  # inf where no restart happened
    grid = np.linspace(0.0, t, grid_points)
    empirical = np.searchsorted(ages, grid, side="right") / n_paths
    theoretical = 1.0 - np.exp(-lam * grid)
    dev = float(np.max(np.abs(empirical - theoretical)))
    threshold = 3.0 / math.sqrt(n_paths)
    return AgeReport(grid, empirical, theoretical, dev, threshold, n_paths, dev < threshold)


@dataclass
class HistogramReport:
    """Binned empirical law at one grid time, optionally against a reference."""

    bin_edges: np.ndarray
    empirical_masses: np.ndarray
    outside_mass: float
    reference_masses: np.ndarray
    reference_outside: float
    tv_distance: float
    noise_floor: float
    n: int


def empirical_distribution(
    proc,
    config,
    t,
    bins,
    window,
    reference_pdf=None,
    reference_cdf=None,
    ensemble=None,
    workers=1,
):
    """Histogram of the ensemble at time t on a continuous state space.

    When a reference law is supplied (as a density or a distribution
    function), the report carries the total variation distance on the bin
    partition, an 'outside the window' cell included.  The window must hold
    all but 1e-4 of the reference mass, otherwise WindowTooNarrow is
    raised.  The sampling noise floor sqrt(bins/n) calibrates how small a
    TV distance can meaningfully get.
    """
    if isinstance(proc.space, FiniteSet):
        raise DomainError("histograms are for continuous state spaces; use state frequencies")
    a, b = float(window[0]), float(window[1])
    if not (a < b):
        raise DomainError(f"window must be a nonempty interval, got ({a}, {b})")
    bins = int(bins)
    if bins < 1:
        raise DomainError(f"need at least one bin, got {bins}")
    j = _grid_index(config, t)
    if ensemble is None:
        ensemble = run_ensemble(proc, config, workers=workers)
    vals = ensemble.states[:, j]
    n = len(vals)
    edges = np.linspace(a, b, bins + 1)
    counts, _ = np.histogram(vals, bins=edges)
    emp = counts / n
    emp_out = 1.0 - float(emp.sum())

    ref = None
    ref_out = math.nan
    tv = math.nan
    if reference_cdf is not None or reference_pdf is not None:
        ref = _reference_masses(edges, reference_pdf, reference_cdf)
        ref_out = 1.0 - float(ref.sum())
        if ref_out > 1e-4:
            raise WindowTooNarrow(
                f"window ({a}, {b}) misses {ref_out:.3e} of the reference mass (limit 1e-4)"
            )
        tv = histogram_tv(emp, emp_out, ref, ref_out)
    return HistogramReport(
        edges, emp, emp_out, ref, ref_out, tv, math.sqrt(bins / n), n
    )


def _reference_masses(edges, pdf, cdf):
    if cdf is not None:
        vals = np.asarray([cdf(e) for e in edges], dtype=float)
        return np.diff(vals)
    from scipy.integrate import quad

    masses = np.empty(len(edges) - 1)
    for i in range(len(masses)):
        masses[i], _ = quad(pdf, edges[i], edges[i + 1], epsabs=1e-12, epsrel=1e-9)
    return masses


def histogram_tv(masses_a, outside_a, masses_b, outside_b):
    """Total variation distance between two binned laws on the same partition."""
    return 0.5 * (float(np.abs(np.asarray(masses_a) - np.asarray(masses_b)).sum()) + abs(outside_a - outside_b))


def write_path_csv(proc, config, out):
    """Stream every path as CSV rows: path_id,time,state,event_type.

    A row is written at each restart (state just after the redraw) and at
    each grid time, in time order; restart rows precede a grid row at the
    same instant.  States on finite spaces are written as labels.
    """
    _check_initial(proc, config)
    if isinstance(proc.space, FiniteSet):
        labels = [format(proc.state_value(i), ".17g") for i in range(proc.space.n)]

        def show(state):
            return labels[int(state)]
    else:

        def show(state):
            return format(state, ".17g")

    own = isinstance(out, str)
    fh = open(out, "w") if own else out
    try:
        fh.write("path_id,time,state,event_type\n")
        for i in range(config.n_paths):
            events = []
            _run_path(proc, config, i, events=events)
            for time, state, kind in events:
                fh.write(f"{i},{format(time, '.17g')},{show(state)},{kind}\n")
    finally:
        if own:
            fh.close()
