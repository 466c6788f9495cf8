"""Check one CLI output against the oracle.

``check(config, exit_code, data)`` returns a list of failure reasons, empty
when the output is right.  Deterministic values must lie within the
library's stated tolerance of the oracle: abs 1e-12 + quad_rel_tol*|oracle|.
Values the CLI derives from several such numbers (a deviation, a total
variation, a sum over states) get the same tolerance summed over their
inputs.  Monte Carlo values must lie within 6 true standard errors of the
oracle mean, a band a correct sampler with any draw order leaves with
probability ~2e-9, and their reported standard error within a factor 2 of
the true one.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle

ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
MC_BAND = 6.0
ERGODICITY_SLACK = 1e-6  # the library's own slack on the exp(-lam t) bound
ROUNDING = 64 * np.finfo(float).eps


def parse_table(data, fmt):
    """(columns, rows) of a CSV or JSON table, cells as float/bool/str/None."""
    if fmt == "json":
        payload = json.loads(data)
        return payload["columns"], payload["rows"], payload
    reader = csv.reader(io.StringIO(data.decode()))
    columns = next(reader)
    return columns, [[_cell(v) for v in row] for row in reader], None


def _cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def count_rows(data, fmt):
    if fmt == "json":
        return len(json.loads(data)["rows"])
    return data.count(b"\n") - 1


def _describe(spec):
    """The CLI's label of a target: '[lo .. hi]' or '{i j}'."""
    if all(isinstance(v, int) for v in spec):
        return "{" + " ".join(str(i) for i in sorted(spec)) + "}"
    return f"[{float(spec[0])} .. {float(spec[1])}]"


class _Report:
    def __init__(self, rel):
        self.rel = rel
        self.errors = []

    def fail(self, msg):
        if len(self.errors) < 5:
            self.errors.append(msg)

    def near(self, what, got, want, scale=None, terms=1, rounding=0.0):
        """|got - want| <= terms*abs_tol + rel*scale + rounding allowance.

        scale defaults to |want|; ``rounding`` is the size of the terms a
        closed form sums, charged ROUNDING each.
        """
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.fail(f"{what}: expected a number near {want!r}, got {got!r}")
            return
        tol = terms * ABS_TOL + self.rel * (abs(want) if scale is None else scale) + ROUNDING * rounding
        if not abs(got - want) <= tol:
            self.fail(f"{what}: {got!r} vs oracle {want!r} (|diff| {abs(got - want):.3e} > tol {tol:.3e})")

    def equal(self, what, got, want):
        if got != want:
            self.fail(f"{what}: {got!r} != {want!r}")

    def shape(self, rows, expected_len, width):
        if len(rows) != expected_len:
            self.fail(f"expected {expected_len} rows, got {len(rows)}")
            return False
        if any(len(r) != width for r in rows):
            self.fail(f"rows are not {width} cells wide")
            return False
        return True


def check(config, exit_code, data):
    """Failure reasons for one run of ``config``; empty when correct."""
    rel = config.get("tolerances", {}).get("quad_rel_tol", DEFAULT_REL_TOL)
    rep = _Report(rel)
    task = config["task"]
    fmt = config["output"]["format"]
    expected_code = 0
    if data is None:
        return [f"exit code {exit_code}, no output"]
    try:
        if task["name"] == "simulate":
            _check_simulate(rep, config, data)
        else:
            columns, rows, payload = parse_table(data, fmt)
            expected_code = CHECKS[task["name"]](rep, config, columns, rows, payload)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        rep.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    if exit_code != expected_code:
        rep.fail(f"exit code {exit_code}, expected {expected_code}")
    return rep.errors


# -- per-task checks -----------------------------------------------------------


def _continuous(config):
    d = oracle.Diffusion.from_spec(config["process"])
    return d, oracle.Nu.from_spec(config["restart"]["nu"], d), float(config["restart"]["rate"])


def _chain_mass(row, indices):
    return float(sum(row[i] for i in indices))


def _check_kernel_eval(rep, config, columns, rows, _):
    task = config["task"]
    rep.equal("columns", columns, ["kind", "t", "where", "value"])
    dens = task.get("density_points", [])
    if not rep.shape(rows, len(task["t"]) * (len(task["targets"]) + len(dens)), 4):
        return 0
    chain = config["process"]["type"] == "ctmc"
    if chain:
        ch = oracle.Chain.from_config(config)
    else:
        d, nu, lam = _continuous(config)
    it = iter(rows)
    for t in task["t"]:
        P = ch.kernel(t)[task["x"]] if chain else None
        for g in task["targets"]:
            kind, tt, where, value = next(it)
            rep.equal("kind", kind, "probability")
            rep.equal("where", where, _describe(g))
            rep.near("row t", tt, float(t), scale=0.0)
            want = _chain_mass(P, g) if chain else oracle.kernel_prob(d, nu, lam, t, task["x"], float(g[0]), float(g[1]))
            rep.near(f"P~({t}, {where})", value, want)
        for z in dens:
            kind, tt, where, value = next(it)
            rep.equal("kind", kind, "density")
            rep.equal("where", str(where), str(z))
            rep.near(f"p~({t}, {z})", value, oracle.kernel_density(d, nu, lam, t, task["x"], z))
    return 0


def _check_stationary(rep, config, columns, rows, _):
    task = config["task"]
    rep.equal("columns", columns, ["kind", "where", "value"])
    dens, ks = task.get("density_points", []), task.get("moments", [])
    if not rep.shape(rows, len(task["targets"]) + len(dens) + len(ks), 3):
        return 0
    it = iter(rows)
    if config["process"]["type"] == "ctmc":
        ch = oracle.Chain.from_config(config)
        q = ch.invariant()
        for g in task["targets"]:
            kind, where, value = next(it)
            rep.equal("where", where, _describe(g))
            rep.near(f"q({where})", value, _chain_mass(q, g))
        for k in ks:
            kind, where, value = next(it)
            rep.equal("kind", kind, f"moment_{k}")
            terms = q * ch.values**k
            rep.near(f"moment {k}", value, float(terms.sum()), rounding=float(np.abs(terms).sum()))
        return 0
    d, nu, lam = _continuous(config)
    for g in task["targets"]:
        kind, where, value = next(it)
        rep.equal("kind", kind, "measure")
        rep.equal("where", where, _describe(g))
        rep.near(f"q({where})", value, oracle.stationary_prob(d, nu, lam, float(g[0]), float(g[1])))
    for z in dens:
        kind, where, value = next(it)
        rep.equal("where", str(where), str(z))
        rep.near(f"q density at {z}", value, oracle.stationary_density(d, nu, lam, z))
    for k in ks:
        kind, where, value = next(it)
        rep.equal("kind", kind, f"moment_{k}")
        want, scale = oracle.stationary_moment(d, nu, lam, k)
        if want is None:
            if not (isinstance(value, str) and "growth" in value):
                rep.fail(f"moment {k}: oracle diverges, CLI gave {value!r}")
        else:
            rep.near(f"moment {k}", value, want, rounding=scale)
    return 0


def _time_moment(config, k, t, x):
    if config["process"]["type"] == "ctmc":
        ch = oracle.Chain.from_config(config)
        return float(ch.kernel(t)[int(x)] @ ch.values**k)
    d, nu, lam = _continuous(config)
    return oracle.time_moment(d, nu, lam, t, x, k)


def _check_moments(rep, config, columns, rows, _):
    task = config["task"]
    rep.equal("columns", columns, ["k", "t", "analytic", "empirical", "std_error", "n", "threshold", "consistent"])
    times = sorted(set(float(t) for t in task["t"]))
    if not rep.shape(rows, len(task["k"]) * len(times), 8):
        return 0
    n_paths = task["n_paths"]
    it = iter(rows)
    for k in task["k"]:
        for t in times:
            kk, tt, an, emp, se, n, threshold, consistent = next(it)
            rep.near("k", kk, float(k), scale=0.0)
            rep.near("t", tt, t, scale=0.0)
            want = _time_moment(config, k, t, task["x"])
            rep.near(f"E[X({t})^{k}]", an, want)
            true_se = math.sqrt(max(_time_moment(config, 2 * k, t, task["x"]) - want**2, 0.0) / n_paths)
            rep.equal("n", n, float(n_paths))
            if not isinstance(emp, float) or abs(emp - want) > MC_BAND * true_se:
                rep.fail(f"empirical E[X({t})^{k}] {emp!r} outside {MC_BAND} SE ({true_se:.3e}) of {want!r}")
            if not isinstance(se, float) or not (0.5 * true_se <= se <= 2.0 * true_se):
                rep.fail(f"std_error {se!r} not within a factor 2 of {true_se:.3e}")
            elif isinstance(an, float) and isinstance(emp, float):
                rep.equal("consistent", consistent, abs(an - emp) <= 3.0 * se)
            if config["process"]["type"] == "gbm":
                rep.near("threshold", threshold, oracle.gbm_growth_rate(config["process"], k))
            else:
                rep.equal("threshold", threshold, None)
    return 0


def _check_ergodicity(rep, config, columns, rows, payload):
    task = config["task"]
    rep.equal("columns", columns, ["t", "sup_deviation", "bound", "tv", "tv_bound", "passed"])
    if not rep.shape(rows, len(task["t_grid"]), 6):
        return 0
    lam = float(config["restart"]["rate"])
    targets = task["targets"]
    chain = config["process"]["type"] == "ctmc"
    if chain:
        ch = oracle.Chain.from_config(config)
        q = ch.invariant()
        n = len(q)
    else:
        d, nu, _ = _continuous(config)
        qs = [oracle.stationary_prob(d, nu, lam, float(g[0]), float(g[1])) for g in targets]
    all_pass = True
    for t, (tt, sup_dev, bound, tv, tv_bound, passed) in zip(task["t_grid"], rows):
        want_bound = math.exp(-lam * t)
        rep.near(f"bound at t={t}", bound, want_bound, scale=0.0, rounding=want_bound)
        if chain:
            row = ch.kernel(t)[task["x"]]
            devs = [abs(_chain_mass(q, g) - _chain_mass(row, g)) for g in targets]
            want_tv = 0.5 * float(np.abs(q - row).sum())
            # the CLI integrates whole matrices, entries certified to the max-norm tolerance
            rep.near(f"sup deviation at t={t}", sup_dev, max(devs), scale=2 * n, terms=2 * n)
            rep.near(f"tv at t={t}", tv, want_tv, scale=n, terms=n)
            rep.near(f"tv bound at t={t}", tv_bound, want_bound, scale=0.0, rounding=want_bound)
            margin = 2 * n * (ABS_TOL + rep.rel)
            checks = [(max(devs), margin), (want_tv, margin)]
        else:
            ps = [oracle.kernel_prob(d, nu, lam, t, task["x"], float(g[0]), float(g[1])) for g in targets]
            devs = [abs(a - b) for a, b in zip(qs, ps)]
            scale = max(abs(a) + abs(b) for a, b in zip(qs, ps))
            rep.near(f"sup deviation at t={t}", sup_dev, max(devs), scale=scale, terms=2)
            rep.equal("tv", tv, None)
            margin = 2 * ABS_TOL + rep.rel * scale
            checks = [(max(devs), margin)]
        # a verdict within the numerical margin of the bound may go either way
        verdicts = {v + s * m <= want_bound + ERGODICITY_SLACK for v, m in checks for s in (-1, 1)}
        want_pass = all(v <= want_bound + ERGODICITY_SLACK for v, _ in checks)
        if len(verdicts) == 1 and passed != want_pass:
            rep.fail(f"passed={passed!r} at t={t}, oracle says {want_pass}")
        all_pass = all_pass and (passed is True)
    if payload is not None:
        rep.equal("passed", payload.get("passed"), all_pass)
    return 0 if all_pass else 4


def _check_sweep(rep, config, columns, rows, payload):
    task = config["task"]
    targets = task["targets"]
    lams = sorted(set(float(v) for v in task["lambdas"]), reverse=True)
    rep.equal("columns", columns, ["lambda"] + [f"q_set{i}" for i in range(len(targets))] + ["l1_deviation"])
    if not rep.shape(rows, len(lams), len(targets) + 2):
        return 0
    chain = config["process"]["type"] == "ctmc"
    if chain:
        ch = oracle.Chain.from_config(config)
        pi = ch.chain_stationary()
        n = len(pi)
    else:
        d, nu, _ = _continuous(config)
    devs = []
    for lam, row in zip(lams, rows):
        rep.near("lambda", row[0], lam, scale=0.0)
        if chain:
            q = ch.invariant(lam)
            for i, g in enumerate(targets):
                rep.near(f"q_set{i} at lam={lam}", row[1 + i], _chain_mass(q, g))
            dev = float(np.abs(q - pi).sum())
            devs.append(dev)
            rep.near(f"l1 deviation at lam={lam}", row[-1], dev, scale=2.0, terms=2 * n)
        else:
            for i, g in enumerate(targets):
                rep.near(f"q_set{i} at lam={lam}", row[1 + i], oracle.stationary_prob(d, nu, lam, float(g[0]), float(g[1])))
            rep.equal("l1_deviation", row[-1], None)
    if payload is not None and chain:
        comparison = payload.get("comparison") or []
        if len(comparison) != n:
            rep.fail(f"comparison law has {len(comparison)} entries, expected {n}")
        for i, (got, want) in enumerate(zip(comparison, pi)):
            rep.near(f"comparison[{i}]", got, float(want))
        if all(v > 0.0 for v in devs):
            order = float(np.polyfit(np.log(lams), np.log(devs), 1)[0])
            got = payload.get("fitted_order")
            if not isinstance(got, float) or abs(got - order) > 1e-6 * max(1.0, abs(order)):
                rep.fail(f"fitted_order {got!r} vs oracle {order!r}")
    return 0


CHECKS = {
    "kernel-eval": _check_kernel_eval,
    "stationary": _check_stationary,
    "moments": _check_moments,
    "ergodicity": _check_ergodicity,
    "sweep-lambda": _check_sweep,
}


def _check_simulate(rep, config, data):
    task = config["task"]
    lines = data.decode().split("\n")
    rep.equal("header", lines[0], "path_id,time,state,event_type")
    if lines[-1] != "":
        rep.fail("log does not end with a newline")
    n_paths, horizon = task["n_paths"], float(task["horizon"])
    grid = [float(g) for g in task["record_grid"]]
    chain = config["process"]["type"] == "ctmc"
    nu = config["restart"]["nu"]
    if chain:
        values = oracle.Chain.from_config(config).values
        atoms = nu.get("points", [[nu.get("x"), 1.0]])
        allowed = {float(values[int(s)]) for s, _ in atoms}
    elif nu["type"] in ("point", "finite"):
        allowed = {float(s) for s, _ in nu.get("points", [[nu.get("x"), 1.0]])}
    else:
        allowed = None
    restarts = 0
    finals = []
    expected_path, grid_i, last_time = 0, 0, 0.0
    for line in lines[1:-1]:
        pid, time, state, kind = line.split(",")
        pid, time, state = int(pid), float(time), float(state)
        if pid != expected_path:
            rep.fail(f"path {pid} out of order (expected {expected_path})")
            return
        if time < last_time:
            rep.fail(f"path {pid}: time goes back to {time}")
        last_time = time
        if kind == "restart":
            restarts += 1
            if not 0.0 < time <= horizon:
                rep.fail(f"path {pid}: restart at {time} outside (0, {horizon}]")
            if allowed is not None and state not in allowed:
                rep.fail(f"path {pid}: restart state {state} not in the support of nu")
        elif kind == "grid":
            if grid_i >= len(grid) or time != grid[grid_i]:
                rep.fail(f"path {pid}: grid row at {time}, expected grid point {grid_i}")
            grid_i += 1
            if grid_i == len(grid):
                finals.append(state)
                expected_path, grid_i, last_time = pid + 1, 0, 0.0
        else:
            rep.fail(f"unknown event type {kind!r}")
    if expected_path != n_paths:
        rep.fail(f"log holds {expected_path} complete paths, expected {n_paths}")
        return
    lam = float(config["restart"]["rate"])
    mean_restarts = lam * horizon * n_paths
    if abs(restarts - mean_restarts) > MC_BAND * math.sqrt(mean_restarts):
        rep.fail(f"{restarts} restarts, Poisson mean {mean_restarts:.1f}")
    x = task["initial"]["x"]
    mean = _time_moment(config, 1, horizon, x)
    true_se = math.sqrt(max(_time_moment(config, 2, horizon, x) - mean**2, 0.0) / n_paths)
    got = float(np.mean(finals))
    if abs(got - mean) > MC_BAND * true_se:
        rep.fail(f"mean state at the horizon {got!r} outside {MC_BAND} SE ({true_se:.3e}) of {mean!r}")
