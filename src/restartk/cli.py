"""Config-driven experiment runner.

    restartk run <config.json> [--threads N] [--out DIR] [--verbose]

A config is a single JSON object selecting a process, a restart
specification and one task; see the schema below.  The same config and seed
produce byte-identical report files.  RESTARTK_SEED overrides the config
seed (environment beats file).  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 property-check failure, 1 unexpected crash.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from . import analysis, simulation
from .distributions import FiniteSupport, PointMass, exponential, gaussian, lognormal
from .errors import (
    ConfigError,
    RestartkError,
    SingularityAtOrigin,
    TailBoundViolated,
    UnsupportedTarget,
    check_positive,
)
from .kernels import RestartedProcess, RestartSpec
from .processes import BrownianWithDrift, GeometricBrownian, ctmc_from_dict, ctmc_from_json
from .quadrature import DEFAULT_REL_TOL
from .reporting import table_payload, write_csv, write_json

_logger = logging.getLogger("restartk")

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_NUMBER_OR_INF = {"oneOf": [_NUMBER, {"enum": ["inf", "-inf"]}]}


def _array(items, **limits):
    return {"type": "array", "items": items, **limits}


def _closed(required, **props):
    return {
        "type": "object",
        "properties": props,
        "required": required,
        "additionalProperties": False,
    }


def _keyed(key, name, required, **props):
    """The ``oneOf`` branch that ``key == name`` selects (see _schema_error_message)."""
    return _closed([key, *required], **{key: {"const": name}}, **props)


_NUMBERS = _array(_NUMBER)
_POSITIVES = _array(_POSITIVE, minItems=1)
_TIMES = _array({"type": "number", "minimum": 0}, minItems=1)
_TARGETS = _array(_array(_NUMBER_OR_INF, minItems=1), minItems=1)
_PAIRS = _array(_array(_NUMBER, minItems=2, maxItems=2), minItems=1)

_DISTRIBUTION = {
    "oneOf": [
        _keyed("type", "point", ["x"], x=_NUMBER),
        _keyed("type", "finite", ["points"], points=_PAIRS),
        _keyed("type", "gaussian", ["mean", "std"], mean=_NUMBER, std=_POSITIVE),
        _keyed("type", "exponential", ["rate"], rate=_POSITIVE),
        _keyed("type", "lognormal", ["log_mean", "log_std"], log_mean=_NUMBER, log_std=_POSITIVE),
    ]
}

_PROCESS = {
    "oneOf": [
        _keyed("type", "bm", ["mu", "sigma"], mu=_NUMBER, sigma=_POSITIVE),
        _keyed("type", "gbm", ["mu", "sigma"], mu=_NUMBER, sigma=_POSITIVE),
        _keyed("type", "ctmc", [], Q=_array(_NUMBERS), values=_NUMBERS, file={"type": "string"}),
    ]
}

_TASK = {
    "oneOf": [
        _keyed(
            "name", "kernel-eval", ["t", "x", "targets"],
            t=_TIMES, x=_NUMBER, targets=_TARGETS, density_points=_NUMBERS,
        ),
        _keyed(
            "name", "stationary", ["targets"],
            targets=_TARGETS, density_points=_NUMBERS, moments=_array(_COUNT),
        ),
        _keyed(
            "name", "simulate", ["horizon", "record_grid", "n_paths", "initial"],
            horizon=_POSITIVE, record_grid=_array(_NUMBER, minItems=1), n_paths=_COUNT,
            initial=_DISTRIBUTION,
        ),
        _keyed(
            "name", "moments", ["k", "x", "t"],
            k=_array(_COUNT, minItems=1), x=_NUMBER, t=_POSITIVES,
            n_paths={"type": "integer", "minimum": 2, "default": 10000},
            monte_carlo={"type": "boolean", "default": True},
        ),
        _keyed(
            "name", "ergodicity", ["x", "t_grid", "targets"],
            x=_NUMBER, t_grid=_TIMES, targets=_TARGETS,
        ),
        _keyed("name", "sweep-lambda", ["lambdas", "targets"], lambdas=_POSITIVES, targets=_TARGETS),
    ]
}

# Draft-07 on purpose: each process checks SCHEMA against its metaschema
# once (see _CheckedOnce), and the draft-07 one is ~5x cheaper to check than
# the default 2020-12 one; every keyword used here means the same in both.
# tests/cli_schema.json holds the full schema as JSON, key order included.
SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_closed(
        ["schema_version", "process", "restart", "task", "output"],
        schema_version={"const": 1},
        seed={"type": "integer", "minimum": 0},
        process=_PROCESS,
        restart=_closed(["rate", "nu"], rate=_POSITIVE, nu=_DISTRIBUTION),
        task=_TASK,
        output=_closed(["format", "path"], format={"enum": ["csv", "json"]}, path={"type": "string"}),
        tolerances={
            "type": "object",
            "properties": {"quad_rel_tol": _POSITIVE},
            "additionalProperties": False,
        },
    ),
}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _equal(x, value):
    # draft-07 equality of a config value with a scalar const or enum value:
    # a bool equals only a bool, and 1.0 equals 1
    return isinstance(x, bool) == isinstance(value, bool) and x == value


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _number,
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),
}

# keyword -> check(instance, value, schema) for every keyword SCHEMA uses,
# read as jsonschema reads draft-07: each applies only to the JSON type it
# constrains, so NaN passes the numeric bounds.  SCHEMA forbids extra keys
# only next to its own "properties".
_KEYWORDS = {
    "$schema": lambda x, value, schema: True,
    "default": lambda x, value, schema: True,
    "type": lambda x, name, schema: _TYPES[name](x),
    "const": lambda x, value, schema: _equal(x, value),
    "enum": lambda x, values, schema: any(_equal(x, v) for v in values),
    "oneOf": lambda x, branches, schema: sum(_conforms(x, b) for b in branches) == 1,
    "properties": lambda x, props, schema: not isinstance(x, dict)
    or all(_conforms(x[k], s) for k, s in props.items() if k in x),
    "required": lambda x, keys, schema: not isinstance(x, dict) or all(k in x for k in keys),
    "additionalProperties": lambda x, allowed, schema: not isinstance(x, dict)
    or x.keys() <= schema["properties"].keys(),
    "items": lambda x, item, schema: not isinstance(x, list) or all(_conforms(v, item) for v in x),
    "minItems": lambda x, n, schema: not isinstance(x, list) or len(x) >= n,
    "maxItems": lambda x, n, schema: not isinstance(x, list) or len(x) <= n,
    "minimum": lambda x, bound, schema: not _number(x) or not x < bound,
    "exclusiveMinimum": lambda x, bound, schema: not _number(x) or not x <= bound,
}


def _conforms(instance, schema):
    """Whether a JSON value is valid against a schema made of _KEYWORDS."""
    for key, value in schema.items():
        if not _KEYWORDS[key](instance, value, schema):
            return False
    return True


class _CheckedOnce:
    """The ``cls`` that ``run`` hands to jsonschema.validate.

    jsonschema.validate checks the schema against its metaschema before each
    validation.  Here the first call of a process checks SCHEMA and builds one
    Draft7Validator, and later calls reuse it.  Validity itself is decided by
    walking SCHEMA's own dict (_conforms), over ten times cheaper per config
    than the Draft7Validator.  Only a rejected config goes to the
    Draft7Validator, whose errors make the message, so every message is
    jsonschema's; jsonschema also stays the oracle the tests hold _conforms
    to.  It is imported at start-up: every ``run`` validates its config
    before any other work, so importing it later would only move the cost.
    """

    validator = None

    def check_schema(self, schema):
        if self.validator is None:
            jsonschema.Draft7Validator.check_schema(schema)
            self.validator = jsonschema.Draft7Validator(schema)

    def __call__(self, schema):
        return self

    def iter_errors(self, instance):
        if _conforms(instance, self.validator.schema):
            return ()
        return self.validator.iter_errors(instance)


_SCHEMA_CHECK = _CheckedOnce()


def exit_code_for(exc):
    """Map an exception to the documented process exit code."""
    numerical = (TailBoundViolated, SingularityAtOrigin, ArithmeticError)
    if isinstance(exc, numerical):
        return 3
    # ConfigError and DomainError are ValueErrors
    if isinstance(exc, (ValueError, UnsupportedTarget, OSError)):
        return 2
    return 1


def _schema_error_message(err):
    # a oneOf over objects keyed by a const field (process and nu "type",
    # task "name"): report the best error inside the branch the key selects
    while err.validator == "oneOf" and isinstance(err.instance, dict):
        keyed = {i for i, branch in enumerate(err.validator_value) if _key_matches(branch, err.instance)}
        inside = [e for e in err.context if e.relative_schema_path[0] in keyed]
        if not inside:
            break
        err = best_match(inside)
    path = ".".join(str(p) for p in err.absolute_path) or "(top level)"
    return f"config error at {path}: {err.message}"


def _key_matches(branch, instance):
    keys = {k: v["const"] for k, v in branch.get("properties", {}).items() if "const" in v}
    return bool(keys) and all(k in instance and instance[k] == v for k, v in keys.items())


def build_process(spec, config_dir):
    kind = spec["type"]
    if kind == "bm":
        return BrownianWithDrift(spec["mu"], spec["sigma"])
    if kind == "gbm":
        return GeometricBrownian(spec["mu"], spec["sigma"])
    if "file" in spec:
        if "Q" in spec or "values" in spec:
            raise ConfigError("ctmc process: give either 'file' or inline 'Q', not both")
        return ctmc_from_json(os.path.join(config_dir, spec["file"]))
    if "Q" not in spec:
        raise ConfigError("ctmc process needs 'Q' (inline) or 'file'")
    data = {"Q": spec["Q"]}
    if "values" in spec:
        data["values"] = spec["values"]
    return ctmc_from_dict(data)


def build_distribution(spec, space):
    # the library refuses a law its space does not support, where it is used
    kind = spec["type"]
    if kind == "point":
        return PointMass(space.state(spec["x"]))
    if kind == "finite":
        return FiniteSupport(tuple((space.state(s), w) for s, w in spec["points"]))
    if kind == "gaussian":
        return gaussian(spec["mean"], spec["std"])
    if kind == "exponential":
        return exponential(spec["rate"])
    return lognormal(spec["log_mean"], spec["log_std"])


class _Runner:
    def __init__(self, config, config_dir, threads):
        self.config = config
        self.threads = threads
        self.base = build_process(config["process"], config_dir)
        restart = config["restart"]
        nu = build_distribution(restart["nu"], self.base.space)
        self.proc = RestartedProcess(self.base, RestartSpec(restart["rate"], nu))
        self.seed = self._resolve_seed()
        rel_tol = config.get("tolerances", {}).get("quad_rel_tol", DEFAULT_REL_TOL)
        self.rel_tol = check_positive("quad_rel_tol", rel_tol)

    def _resolve_seed(self):
        env = os.environ.get("RESTARTK_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"RESTARTK_SEED must be an integer, got {env!r}") from None
            if seed < 0:
                raise ConfigError(f"RESTARTK_SEED must be nonnegative, got {seed}")
            return seed
        return self.config.get("seed", 0)

    def run_task(self, out_path, fmt):
        task = self.config["task"]
        name = task["name"]
        _logger.info("task %s -> %s", name, out_path)
        handler = {
            "kernel-eval": self.task_kernel_eval,
            "stationary": self.task_stationary,
            "simulate": self.task_simulate,
            "moments": self.task_moments,
            "ergodicity": self.task_ergodicity,
            "sweep-lambda": self.task_sweep,
        }[name]
        return handler(task, out_path, fmt)

    def _targets(self, task):
        return [self.proc.space.target(raw) for raw in task["targets"]]

    def _emit(self, name, columns, rows, out_path, fmt, extra=None):
        if fmt == "csv":
            write_csv(out_path, columns, rows)
        else:
            payload = table_payload(name, columns, rows)
            if extra:
                payload.update(extra)
            write_json(out_path, payload)

    def task_kernel_eval(self, task, out_path, fmt):
        x = self.proc.space.state(task["x"])
        targets = self._targets(task)
        # one call per target for all the times, its rows still t-major
        times = np.array(task["t"], dtype=float)
        by_target = [self.proc.transition_probability(times, x, g, rel_tol=self.rel_tol).tolist() for g in targets]
        rows = []
        for k, t in enumerate(task["t"]):
            for g, p in zip(targets, by_target):
                rows.append(("probability", t, str(g), p[k]))
            for z in task.get("density_points", []):
                v = self.proc.transition_density(t, x, z, rel_tol=self.rel_tol)
                rows.append(("density", t, str(z), v))
        self._emit("kernel-eval", ["kind", "t", "where", "value"], rows, out_path, fmt)
        return 0

    def task_stationary(self, task, out_path, fmt):
        rows = []
        for g in self._targets(task):
            rows.append(("measure", str(g), self.proc.invariant_measure(g, rel_tol=self.rel_tol)))
        points = task.get("density_points", [])
        states = np.array([self.proc.space.state(z) for z in points])
        densities = self.proc.invariant_density(states, rel_tol=self.rel_tol).tolist() if points else []
        for z, v in zip(points, densities):
            rows.append(("density", str(z), v))
        # the limit ignores the start, but the route checks it: a state nu charges, else 1.0
        x = (self.proc.restart.nu.atoms or (1.0,))[0]
        for k in task.get("moments", []):
            rep = analysis.modified_moment(self.proc, k, math.inf, x)
            rows.append((f"moment_{k}", "stationary", rep.analytic_cell()))
        self._emit("stationary", ["kind", "where", "value"], rows, out_path, fmt)
        return 0

    def task_simulate(self, task, out_path, fmt):
        if fmt != "csv":
            raise ConfigError("simulate writes path logs; output.format must be 'csv'")
        cfg = simulation.PathConfig(
            seed=self.seed,
            horizon=task["horizon"],
            record_grid=tuple(task["record_grid"]),
            n_paths=task["n_paths"],
            initial=build_distribution(task["initial"], self.proc.space),
        )
        simulation.write_path_csv(self.proc, cfg, out_path)
        return 0

    def task_moments(self, task, out_path, fmt):
        x = self.proc.space.state(task["x"])
        times = sorted(set(float(t) for t in task["t"]))
        use_mc = task.get("monte_carlo", True)
        if use_mc:
            cfg = simulation.PathConfig(
                seed=self.seed,
                horizon=max(times),
                record_grid=tuple(times),
                n_paths=task.get("n_paths", 10000),
                initial=PointMass(x),
            )
            _logger.info("simulating %s paths to t=%s", cfg.n_paths, cfg.horizon)
            ensemble = simulation.run_ensemble(self.proc, cfg, workers=self.threads)
        rows = []
        for k in task["k"]:
            for t in times:
                emp = None
                if use_mc:
                    emp = simulation.monte_carlo_moment(self.proc, cfg, k, t, ensemble=ensemble)
                rep = analysis.modified_moment(self.proc, k, t, x, empirical=emp, rel_tol=self.rel_tol)
                columns, row = rep.table()
                rows += row
        self._emit("moments", columns, rows, out_path, fmt)
        return 0

    def task_ergodicity(self, task, out_path, fmt):
        x = self.proc.space.state(task["x"])
        targets = self._targets(task)
        report = analysis.ergodicity_check(self.proc, x, task["t_grid"], targets, rel_tol=self.rel_tol)
        cols, rows = report.table()
        self._emit("ergodicity", cols, rows, out_path, fmt, extra={"passed": report.passed})
        if not report.passed:
            print("ergodicity bound violated; see report", file=sys.stderr)
            return 4
        return 0

    def task_sweep(self, task, out_path, fmt):
        targets = self._targets(task)
        lams = sorted(set(float(l) for l in task["lambdas"]), reverse=True)
        report = analysis.small_lambda_sweep(
            self.base, self.proc.restart.nu, targets, lams, rel_tol=self.rel_tol
        )
        cols, rows = report.table()
        extra = {}
        if report.comparison is not None:
            extra["comparison"] = list(report.comparison)
            extra["fitted_order"] = report.fitted_order
        self._emit("sweep-lambda", cols, rows, out_path, fmt, extra=extra)
        return 0


def run(config_path, threads=None, out_dir=None):
    """Execute one experiment config; returns the process exit code."""
    try:
        with open(config_path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                print(f"{config_path} is not valid JSON: {exc}", file=sys.stderr)
                return 2
        try:
            jsonschema.validate(config, SCHEMA, cls=_SCHEMA_CHECK)
        except jsonschema.ValidationError as exc:
            print(_schema_error_message(exc), file=sys.stderr)
            return 2
        out_path = config["output"]["path"]
        if out_dir is not None and not os.path.isabs(out_path):
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, out_path)
        workers = threads if threads else (os.cpu_count() or 1)
        runner = _Runner(config, os.path.dirname(os.path.abspath(config_path)), workers)
        return runner.run_task(out_path, config["output"]["format"])
    except Exception as exc:  # map every failure to its documented code
        code = exit_code_for(exc)
        kind = {2: "validation error", 3: "numerical failure", 4: "property-check failure"}.get(
            code, "unexpected error"
        )
        print(f"{kind}: {exc}", file=sys.stderr)
        if code == 1 and not isinstance(exc, RestartkError):
            import traceback

            traceback.print_exc()
        return code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="restartk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("config", help="path to the JSON experiment config")
    runp.add_argument("--threads", type=int, default=None, help="worker cap (default: all cores)")
    runp.add_argument("--out", default=None, help="directory for relative output paths")
    runp.add_argument("--verbose", action="store_true", help="progress to stderr")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("--threads must be at least 1", file=sys.stderr)
        return 2
    if not args.verbose:
        return run(args.config, threads=args.threads, out_dir=args.out)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = _logger.level
    _logger.addHandler(handler)
    _logger.setLevel(logging.INFO)
    try:
        return run(args.config, threads=args.threads, out_dir=args.out)
    finally:
        _logger.removeHandler(handler)
        _logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
