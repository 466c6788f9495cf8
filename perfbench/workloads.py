"""Seeded generators for the benchmark's restartk configs.

``generate(workload, seed, rounds)`` returns the configs of one workload as
a list of ``Case``; the same seed gives the same list.  Each round holds one
config of every template in a fixed order, so the mix of tasks and
processes is fixed by the number of rounds.

Continuous parameters (rates, drifts, start points, targets, times) come
from a Kronecker sequence: the k-th uniform of the c-th config of a
template is frac((c + 1) * alpha_k), with alpha_k = frac(sqrt(p_k)) for the
k-th prime.  The sequence spreads every parameter evenly over its range
within a few configs, and it does not depend on the seed, so every seed
asks restartk for the same diffusion values.  Whether restartk meets its
tolerance on a config is then a property of the program, not of the seed:
its quadrature trusts QUADPACK's error estimate, which at rare isolated
inputs is far too small (defects.py keeps one such input), and with
seeded parameters such a point would fail one seed in dozens.  A fixed
sequence also keeps the costliest configs, which set the tail time, the
same from run to run.  The seed draws the rest outright: the 12-state
generators, chain target subsets, chain restart states and config seeds
(and so every Monte Carlo draw).

- ``analytic``: kernel-eval, stationary, ergodicity and sweep-lambda on bm,
  gbm and ctmc with point or finite nu.  Quadrature, chain expm and the
  kernel/analysis dispatch do the work; nothing is simulated.  Density nu
  (nested quadrature) is not drawn here: restartk misses its stated
  tolerance on some such configs, which defects.py runs instead.
- ``paths``: moments (Monte Carlo ensemble plus closed-form moments) and
  simulate (event-log CSV) on all three processes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# the 3-state chain the tests use as their baseline
BASELINE_Q = [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]
LARGE_CHAIN_STATES = 12

WORKLOADS = ("analytic", "paths")


@dataclass(frozen=True)
class Case:
    """One config of a workload: ``id`` is its position, ``template`` its kind."""

    id: int
    template: str
    config: dict

    @property
    def task(self):
        return self.config["task"]["name"]


def _r(x, digits=4):
    return float(round(float(x), digits))


def _primes():
    n = 2
    while True:
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


class _Draw:
    """Parameter draws, low-discrepancy across the configs of each template."""

    def __init__(self, rng):
        self.rng = rng
        self._alphas = []
        self._primes = _primes()
        self.begin(0)

    def begin(self, index):
        """Start the draws of a template's ``index``-th config."""
        self.round, self._k = index, 0

    def uniform(self):
        k = self._k
        self._k += 1
        while len(self._alphas) <= k:
            self._alphas.append(math.sqrt(next(self._primes)) % 1.0)
        return ((self.round + 1) * self._alphas[k]) % 1.0

    def u(self, lo, hi):
        return _r(lo + (hi - lo) * self.uniform())

    def log_u(self, lo, hi):
        return _r(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * self.uniform()), 6)

    def index(self, n):
        return min(int(self.uniform() * n), n - 1)

    def coin(self):
        return self.uniform() < 0.5

    def seed(self):
        return int(self.rng.integers(0, 2**31 - 1))

    # -- processes and restart laws ------------------------------------

    def bm(self):
        return {"type": "bm", "mu": self.u(-1.0, 1.0), "sigma": self.u(0.5, 1.5)}

    def gbm(self):
        return {"type": "gbm", "mu": self.u(0.0, 0.3), "sigma": self.u(0.2, 0.6)}

    def chain(self, large):
        if not large:
            return {"type": "ctmc", "Q": BASELINE_Q, "values": [-1.0, 0.5, 2.0]}
        n = LARGE_CHAIN_STATES
        Q = np.round(self.rng.uniform(0.05, 1.0, size=(n, n)), 3)
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        # labels must be distinct: one per unit cell, jittered inside it
        values = np.round(np.arange(n) - n / 2 + self.rng.uniform(-0.4, 0.4, size=n), 3)
        return {"type": "ctmc", "Q": Q.tolist(), "values": values.tolist()}

    def atoms_nu(self, center, spread, positive=False):
        """Point or two-atom nu around ``center``."""
        if self.coin():
            return {"type": "point", "x": center}
        other = _r(center * math.exp(self.u(-spread, spread))) if positive else self.u(center - spread, center + spread)
        w = self.u(0.2, 0.8)
        return {"type": "finite", "points": [[center, w], [other, _r(1.0 - w)]]}

    def chain_nu(self, n):
        if self.coin():
            return {"type": "point", "x": self.index(n)}
        i, j = (int(v) for v in self.rng.choice(n, size=2, replace=False))
        w = self.u(0.2, 0.8)
        return {"type": "finite", "points": [[i, w], [j, _r(1.0 - w)]]}

    # -- targets ---------------------------------------------------------

    def line_targets(self, center, scale, n):
        out = [[self.u(center - 3 * scale, center), "inf"], ["-inf", self.u(center, center + 3 * scale)]]
        return out + [self.interval(center, scale) for _ in range(n - 2)]

    def interval(self, center, scale):
        a = self.u(center - 3 * scale, center + 3 * scale)
        return [a, _r(a + self.u(0.1, 2.0) * scale)]

    def half_line_targets(self, center, log_scale, n):
        out = [[0, _r(center * math.exp(self.u(0.0, 2 * log_scale)))], [_r(center * math.exp(-log_scale)), "inf"]]
        return out + [self.log_interval(center, log_scale) for _ in range(n - 2)]

    def log_interval(self, center, log_scale):
        a = _r(center * math.exp(self.u(-3 * log_scale, 3 * log_scale)))
        return [a, _r(a * math.exp(self.u(0.1, 1.5) * log_scale))]

    def subsets(self, n, count):
        out = []
        for _ in range(count):
            size = 1 + self.index(n - 1)
            out.append(sorted(int(v) for v in self.rng.choice(n, size=size, replace=False)))
        return out

    def points(self, center, scale, n, positive=False):
        if positive:
            return [_r(center * math.exp(self.u(-2 * scale, 2 * scale))) for _ in range(n)]
        return [self.u(center - 3 * scale, center + 3 * scale) for _ in range(n)]


def _config(draw, process, rate, nu, task, fmt=None):
    cfg = {
        "schema_version": 1,
        "seed": draw.seed(),
        "process": process,
        "restart": {"rate": rate, "nu": nu},
        "task": task,
        "output": {"format": fmt or ("csv" if draw.coin() else "json"), "path": ""},
    }
    if draw.uniform() < 0.25:
        cfg["tolerances"] = {"quad_rel_tol": 1e-8}
    return cfg


def _ages(lam, n):
    # restart-age times from lam*t = 0.01 (almost never restarted) to 30
    return [_r(v / lam, 6) for v in np.geomspace(0.01, 30.0, n)]


# -- analytic ---------------------------------------------------------------


def _diffusion(draw, kind):
    """(process, x, targets(n), density points(n), nu) for bm or gbm."""
    if kind == "bm":
        proc, x0 = draw.bm(), draw.u(-1.0, 1.0)
        return proc, x0, lambda n: draw.line_targets(x0, 1.5, n), lambda n: draw.points(x0, 1.0, n), draw.atoms_nu(x0, 1.0)
    proc, x0 = draw.gbm(), draw.u(0.5, 2.0)
    return (
        proc,
        x0,
        lambda n: draw.half_line_targets(x0, 0.6, n),
        lambda n: draw.points(x0, 0.6, n, positive=True),
        draw.atoms_nu(x0, 0.5, positive=True),
    )


def _kernel_eval_diffusion(draw, kind):
    proc, x0, targets, points, nu = _diffusion(draw, kind)
    lam = draw.log_u(0.2, 5.0)
    task = {"name": "kernel-eval", "t": _ages(lam, 8), "x": x0, "targets": targets(8), "density_points": points(5)}
    return _config(draw, proc, lam, nu, task)


def _kernel_eval_chain(draw, large):
    proc = draw.chain(large)
    n = len(proc["Q"])
    lam = draw.log_u(0.2, 5.0)
    task = {"name": "kernel-eval", "t": _ages(lam, 6), "x": draw.index(n), "targets": draw.subsets(n, 4)}
    return _config(draw, proc, lam, draw.chain_nu(n), task)


def _stationary_diffusion(draw, kind):
    proc, x0, targets, points, nu = _diffusion(draw, kind)
    if kind == "gbm":
        # lam between eta_2 and eta_3: moments 1-2 finite, 3-5 divergent
        eta = [k * (proc["mu"] - 0.5 * proc["sigma"] ** 2) + 0.5 * k * k * proc["sigma"] ** 2 for k in (2, 3)]
        lam = _r(eta[0] + draw.u(0.2, 0.8) * (eta[1] - eta[0]), 6)
        moments = [1, 2, 3, 4, 5]
    else:
        lam = draw.log_u(1e-2, 1e4)
        moments = [1, 2, 3, 4]
    task = {"name": "stationary", "targets": targets(40), "density_points": points(30), "moments": moments}
    return _config(draw, proc, lam, nu, task)


def _stationary_chain(draw):
    proc = draw.chain(draw.coin())
    n = len(proc["Q"])
    task = {"name": "stationary", "targets": draw.subsets(n, 6), "moments": [1, 2, 3]}
    return _config(draw, proc, draw.log_u(0.05, 20.0), draw.chain_nu(n), task)


def _ergodicity(draw, kind):
    lam = draw.log_u(0.3, 3.0)
    t_grid = _ages(lam, 6)
    if kind == "ctmc":
        proc = draw.chain(draw.coin())
        n = len(proc["Q"])
        task = {"name": "ergodicity", "x": draw.index(n), "t_grid": t_grid, "targets": draw.subsets(n, 4)}
        return _config(draw, proc, lam, draw.chain_nu(n), task)
    proc, x0, targets, _, nu = _diffusion(draw, kind)
    task = {"name": "ergodicity", "x": x0, "t_grid": t_grid, "targets": targets(3)}
    return _config(draw, proc, lam, nu, task)


def _sweep(draw, kind):
    lambdas = [_r(v, 6) for v in np.geomspace(draw.log_u(20.0, 100.0), draw.log_u(1e-3, 5e-3), 6)]
    if kind == "ctmc":
        proc = draw.chain(draw.coin())
        n = len(proc["Q"])
        task = {"name": "sweep-lambda", "lambdas": lambdas, "targets": draw.subsets(n, 3)}
        return _config(draw, proc, 1.0, draw.chain_nu(n), task)
    proc, _, targets, _, nu = _diffusion(draw, kind)
    task = {"name": "sweep-lambda", "lambdas": lambdas, "targets": targets(3)}
    return _config(draw, proc, 1.0, nu, task)


# -- paths ------------------------------------------------------------------


def _paths_setup(draw, kind):
    """(process, start state, nu around it, rate)."""
    if kind == "bm":
        proc, x = draw.bm(), draw.u(-1.0, 1.0)
        nu = draw.atoms_nu(x, 1.0)
    elif kind == "gbm":
        # mild volatility and lam > eta_2: the Monte Carlo standard error of
        # the mean is itself well estimated, so the oracle can check it
        proc = {"type": "gbm", "mu": draw.u(0.0, 0.2), "sigma": draw.u(0.15, 0.35)}
        x = draw.u(0.5, 2.0)
        return proc, x, draw.atoms_nu(x, 0.5, positive=True), draw.log_u(1.0, 2.5)
    else:
        proc = draw.chain(False)
        x = draw.index(3)
        nu = {"type": "point", "x": x}
    return proc, x, nu, draw.log_u(1.0, 2.5)


def _moments(draw, kind, n_paths):
    proc, x, nu, lam = _paths_setup(draw, kind)
    ts = sorted({_r(v / lam, 6) for v in (draw.u(0.5, 1.0), draw.u(3.5, 4.5))})
    ks = [1] if kind == "gbm" else [1, 2]
    task = {"name": "moments", "k": ks, "x": x, "t": ts, "n_paths": n_paths, "monte_carlo": True}
    return _config(draw, proc, lam, nu, task)


def _simulate(draw, kind, n_paths):
    proc, x, nu, lam = _paths_setup(draw, kind)
    horizon = _r(draw.u(3.5, 4.5) / lam, 6)
    grid = [_r(horizon * f, 6) for f in (0.25, 0.5, 1.0)]
    task = {"name": "simulate", "horizon": horizon, "record_grid": grid, "n_paths": n_paths,
            "initial": {"type": "point", "x": x}}
    return _config(draw, proc, lam, nu, task, fmt="csv")


TEMPLATES = {
    "analytic": [
        ("kernel-bm", lambda d: _kernel_eval_diffusion(d, "bm")),
        ("kernel-gbm", lambda d: _kernel_eval_diffusion(d, "gbm")),
        ("kernel-chain3", lambda d: _kernel_eval_chain(d, False)),
        ("kernel-chain12", lambda d: _kernel_eval_chain(d, True)),
        ("stationary-bm", lambda d: _stationary_diffusion(d, "bm")),
        ("stationary-gbm", lambda d: _stationary_diffusion(d, "gbm")),
        ("stationary-chain", _stationary_chain),
        ("ergodicity-bm", lambda d: _ergodicity(d, "bm")),
        ("ergodicity-gbm", lambda d: _ergodicity(d, "gbm")),
        ("ergodicity-chain", lambda d: _ergodicity(d, "ctmc")),
        ("sweep-bm", lambda d: _sweep(d, "bm")),
        ("sweep-gbm", lambda d: _sweep(d, "gbm")),
        ("sweep-chain", lambda d: _sweep(d, "ctmc")),
    ],
    "paths": [
        ("moments-bm", lambda d: _moments(d, "bm", 3000)),
        ("moments-gbm", lambda d: _moments(d, "gbm", 2500)),
        ("moments-chain", lambda d: _moments(d, "ctmc", 1500)),
        ("simulate-bm", lambda d: _simulate(d, "bm", 2000)),
        ("simulate-gbm", lambda d: _simulate(d, "gbm", 2000)),
        ("simulate-chain", lambda d: _simulate(d, "ctmc", 1000)),
    ],
}


def generate(workload, seed, rounds):
    """The first ``rounds`` rounds of the workload's templates, drawn from ``seed``.

    The CLI lets RESTARTK_SEED override every config's seed, which would
    silently change the workload, so the variable is cleared here.
    """
    os.environ.pop("RESTARTK_SEED", None)
    draw = _Draw(np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, WORKLOADS.index(workload))))))
    cases = []
    for index in range(rounds):
        for name, make in TEMPLATES[workload]:
            draw.begin(index)
            cfg = make(draw)
            i = len(cases)
            cfg["output"]["path"] = f"out{i}.{cfg['output']['format']}"
            cases.append(Case(i, name, cfg))
    return cases


def write_configs(cases, directory):
    """Write each case's config to ``directory``; returns their paths by id."""
    paths = []
    for case in cases:
        path = os.path.join(directory, f"config{case.id}.json")
        with open(path, "w") as fh:
            json.dump(case.config, fh)
        paths.append(path)
    return paths
