"""The config-driven runner: schema, tasks, exit codes, reproducibility."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import Draft7Validator, Draft202012Validator, validator_for

from restartk import (
    BrownianWithDrift,
    ConfigError,
    DomainError,
    EtaNotLessThanLambda,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    PointMass,
    RestartSpec,
    RestartedProcess,
    SingularityAtOrigin,
    TailBoundViolated,
    ToleranceNotMet,
    UnsupportedTarget,
    bm_stationary_moments,
    modified_moment,
)
from restartk.analysis import ErgodicityReport, ErgodicityRow
from restartk.cli import SCHEMA, _schema_error_message, exit_code_for, main

REPO = Path(__file__).resolve().parents[1]

BM = {"type": "bm", "mu": 0.5, "sigma": 1.0}
RESTART = {"rate": 2.0, "nu": {"type": "point", "x": 0.0}}
CHAIN2 = {"type": "ctmc", "Q": [[-1.0, 1.0], [1.0, -1.0]]}
CHAIN2_RESTART = {"rate": 1.0, "nu": {"type": "point", "x": 0}}


def write_config(tmp_path, task, process=BM, restart=RESTART, fmt="json",
                 out_name="out", seed=3, extra=None):
    cfg = {
        "schema_version": 1,
        "seed": seed,
        "process": process,
        "restart": restart,
        "task": task,
        "output": {"format": fmt, "path": str(tmp_path / f"{out_name}.{fmt}")},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg["output"]["path"]


def run_cli(path, *args):
    return main(["run", str(path), *args])


class TestExitCodeMapping:
    def test_numerical_failures(self):
        for exc in (
            ToleranceNotMet("x"),
            TailBoundViolated("x"),
            SingularityAtOrigin("x"),
            EtaNotLessThanLambda("x"),
            OverflowError("math range error"),
        ):
            assert exit_code_for(exc) == 3

    def test_validation_failures(self):
        for exc in (
            ConfigError("x"),
            DomainError("x"),
            UnsupportedTarget("x"),
            jsonschema.ValidationError("x"),
            OSError("x"),
            ValueError("x"),
        ):
            assert exit_code_for(exc) == 2

    def test_unexpected(self):
        assert exit_code_for(RuntimeError("x")) == 1
        assert exit_code_for(KeyError("x")) == 1


class TestKernelEval:
    def test_values_match_library(self, tmp_path):
        task = {
            "name": "kernel-eval",
            "t": [0.5],
            "x": 0.0,
            "targets": [[-0.5, 0.5], ["-inf", 0]],
            "density_points": [0.0],
        }
        path, out = write_config(tmp_path, task)
        assert run_cli(path) == 0
        payload = json.loads(open(out).read())
        assert payload["task"] == "kernel-eval"
        assert payload["columns"] == ["kind", "t", "where", "value"]
        proc = RestartedProcess(BrownianWithDrift(mu=0.5, sigma=1.0), RestartSpec(2.0, PointMass(0.0)))
        from restartk import Interval

        want0 = proc.transition_probability(0.5, 0.0, Interval(-0.5, 0.5))
        want1 = proc.transition_probability(0.5, 0.0, Interval(-math.inf, 0.0))
        want2 = proc.transition_density(0.5, 0.0, 0.0)
        rows = payload["rows"]
        assert rows[0][0] == "probability" and abs(rows[0][3] - want0) < 1e-12
        assert abs(rows[1][3] - want1) < 1e-12
        assert rows[2][0] == "density" and abs(rows[2][3] - want2) < 1e-12

    def test_csv_output_is_flat(self, tmp_path):
        task = {"name": "kernel-eval", "t": [0.5], "x": 0.0, "targets": [[-0.5, 0.5]]}
        path, out = write_config(tmp_path, task, fmt="csv")
        assert run_cli(path) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "kind,t,where,value"
        assert all(len(line.split(",")) == 4 for line in lines)


class TestStationary:
    def test_measures_and_moments(self, tmp_path):
        task = {
            "name": "stationary",
            "targets": [[-1.0, 1.0]],
            "density_points": [0.0],
            "moments": [1, 2],
        }
        path, out = write_config(tmp_path, task)
        assert run_cli(path) == 0
        rows = json.loads(open(out).read())["rows"]
        p = BrownianWithDrift(mu=0.5, sigma=1.0)
        restart = RestartSpec(2.0, PointMass(0.0))
        mean, second, _ = bm_stationary_moments(p, restart)
        by_kind = {r[0]: r[2] for r in rows}
        assert abs(by_kind["moment_1"] - mean) < 1e-12
        assert abs(by_kind["moment_2"] - second) < 1e-12
        assert 0.0 < by_kind["measure"] < 1.0
        assert by_kind["density"] > 0.0

        task["moments"] = [3]
        path, out = write_config(tmp_path, task)
        assert run_cli(path) == 0
        rows = json.loads(open(out).read())["rows"]
        want = modified_moment(RestartedProcess(p, restart), 3, math.inf, 0.0).analytic
        assert [r[2] for r in rows if r[0] == "moment_3"] == [want]

        chain = {"type": "ctmc", "Q": [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]],
                 "values": [0.3, -1.2, 2.5]}
        nu = {"type": "finite", "points": [[0, 0.5], [2, 0.5]]}
        task = {"name": "stationary", "targets": [[0]], "moments": [1, 2]}
        path, out = write_config(tmp_path, task, process=chain, restart={"rate": 2.0, "nu": nu})
        assert run_cli(path) == 0
        rows = json.loads(open(out).read())["rows"]
        proc = RestartedProcess(
            FiniteCTMC(chain["Q"], chain["values"]),
            RestartSpec(2.0, FiniteSupport(((0, 0.5), (2, 0.5)))),
        )
        for k in (1, 2):
            want = modified_moment(proc, k, math.inf, 0).analytic
            assert [r[2] for r in rows if r[0] == f"moment_{k}"] == [want]

    def test_chain_answers_every_target_from_one_solve_per_rate(self, tmp_path, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        chain = {"type": "ctmc", "Q": [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]}
        nu = {"type": "finite", "points": [[0, 0.4], [2, 0.6]]}
        targets = [[0], [1], [2], [0, 1], [1, 2], [0, 2]]
        task = {"name": "stationary", "targets": targets, "moments": [1, 2, 3]}
        path, _ = write_config(tmp_path, task, process=chain, restart={"rate": 0.7, "nu": nu})
        assert run_cli(path) == 0
        assert len(solves) == 1
        solves.clear()
        task = {"name": "sweep-lambda", "lambdas": [20.0, 5.0, 1.0, 0.2, 0.04, 0.008], "targets": targets[:3]}
        path, _ = write_config(tmp_path, task, process=chain, restart={"rate": 1.0, "nu": nu})
        assert run_cli(path) == 0
        assert len(solves) == 6

    def test_divergent_moment_reported_as_text(self, tmp_path):
        gbm = {"type": "gbm", "mu": 0.5, "sigma": 1.0}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 1.0}}
        task = {"name": "stationary", "targets": [[0.5, 2.0]], "moments": [2]}
        path, out = write_config(tmp_path, task, process=gbm, restart=restart)
        assert run_cli(path) == 0
        rows = json.loads(open(out).read())["rows"]
        moment_row = [r for r in rows if r[0] == "moment_2"][0]
        assert isinstance(moment_row[2], str) and "growth" in moment_row[2]


class TestSimulate:
    def task(self):
        return {
            "name": "simulate",
            "horizon": 2.0,
            "record_grid": [1.0, 2.0],
            "n_paths": 5,
            "initial": {"type": "point", "x": 0.0},
        }

    def test_writes_paths_and_reruns_identically(self, tmp_path):
        path, out = write_config(tmp_path, self.task(), fmt="csv")
        assert run_cli(path) == 0
        first = open(out).read()
        assert first.startswith("path_id,time,state,event_type\n")
        assert run_cli(path) == 0
        assert open(out).read() == first

    def test_nan_grid_time_rejected(self, tmp_path, capsys):
        # json.load reads NaN, and the schema's "number" takes it
        task = dict(self.task(), record_grid=[1.0, math.nan])
        path, out = write_config(tmp_path, task, fmt="csv")
        assert run_cli(path) == 2
        assert "record_grid must lie within" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_json_format_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, self.task(), fmt="json")
        assert run_cli(path) == 2
        assert "csv" in capsys.readouterr().err

    def test_env_seed_beats_config(self, tmp_path, monkeypatch):
        path_a, out_a = write_config(tmp_path, self.task(), fmt="csv", out_name="a", seed=1)
        monkeypatch.setenv("RESTARTK_SEED", "7")
        assert run_cli(path_a) == 0
        monkeypatch.delenv("RESTARTK_SEED")
        path_b, out_b = write_config(tmp_path, self.task(), fmt="csv", out_name="b", seed=7)
        assert run_cli(path_b) == 0
        assert open(out_a).read() == open(out_b).read()

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, self.task(), fmt="csv")
        monkeypatch.setenv("RESTARTK_SEED", "abc")
        assert run_cli(path) == 2
        monkeypatch.setenv("RESTARTK_SEED", "-4")
        assert run_cli(path) == 2


class TestMoments:
    def task(self, **kw):
        base = {"name": "moments", "k": [1], "x": 0.0, "t": [0.5, 1.0], "n_paths": 400}
        base.update(kw)
        return base

    def test_analytic_and_empirical_columns(self, tmp_path):
        path, out = write_config(tmp_path, self.task())
        assert run_cli(path, "--threads", "1") == 0
        payload = json.loads(open(out).read())
        assert payload["columns"] == [
            "k", "t", "analytic", "empirical", "std_error", "n", "threshold", "consistent",
        ]
        for row in payload["rows"]:
            k, t, analytic = row[0], row[1], row[2]
            want = 0.5 / 2.0 * (1.0 - math.exp(-2.0 * t))
            assert k == 1 and abs(analytic - want) < 1e-12
            assert row[5] == 400
            assert row[7] is True

    def test_thread_count_does_not_change_output(self, tmp_path):
        path, out = write_config(tmp_path, self.task())
        assert run_cli(path, "--threads", "1") == 0
        serial = open(out).read()
        assert run_cli(path, "--threads", "3") == 0
        assert open(out).read() == serial

    def test_analytic_only(self, tmp_path):
        path, out = write_config(tmp_path, self.task(monte_carlo=False))
        assert run_cli(path) == 0
        for row in json.loads(open(out).read())["rows"]:
            assert row[3] is None and row[4] is None and row[7] is None

    def test_overflowing_horizon_is_a_numerical_failure(self, tmp_path, capsys):
        gbm = {"type": "gbm", "mu": 0.5, "sigma": 1.0}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 1.0}}
        task = self.task(k=[2], x=1.0, t=[700.0], monte_carlo=False)
        path, _ = write_config(tmp_path, task, process=gbm, restart=restart)
        assert run_cli(path) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestErgodicity:
    def chain(self):
        return {"type": "ctmc", "Q": [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]}

    def test_bound_holds(self, tmp_path):
        restart = {"rate": 2.0, "nu": {"type": "finite", "points": [[0, 0.5], [2, 0.5]]}}
        task = {"name": "ergodicity", "x": 0, "t_grid": [0.5, 1.0, 3.0], "targets": [[0], [1, 2]]}
        path, out = write_config(tmp_path, task, process=self.chain(), restart=restart)
        assert run_cli(path) == 0
        payload = json.loads(open(out).read())
        assert payload["passed"] is True
        assert all(row[5] is True for row in payload["rows"])

    def test_violation_exits_4(self, tmp_path, monkeypatch):
        restart = {"rate": 2.0, "nu": {"type": "point", "x": 0}}
        task = {"name": "ergodicity", "x": 0, "t_grid": [1.0], "targets": [[0]]}
        path, _ = write_config(tmp_path, task, process=self.chain(), restart=restart)

        def fake_check(proc, x, t_grid, sets, rel_tol=1e-9, slack=1e-6):
            rep = ErgodicityReport(x, [ErgodicityRow(1.0, 0.9, 0.1, False)], passed=False)
            return rep

        monkeypatch.setattr("restartk.analysis.ergodicity_check", fake_check)
        assert run_cli(path) == 4


class TestSweep:
    def test_chain_from_file_with_comparison(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"Q": [[-1.0, 1.0], [1.0, -1.0]]}))
        process = {"type": "ctmc", "file": "chain.json"}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 0}}
        task = {"name": "sweep-lambda", "lambdas": [0.05, 0.2, 0.1], "targets": [[0]]}
        path, out = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 0
        payload = json.loads(open(out).read())
        lams = [row[0] for row in payload["rows"]]
        assert lams == [0.2, 0.1, 0.05]
        for row in payload["rows"]:
            lam = row[0]
            assert abs(row[2] - lam / (lam + 2.0)) < 1e-12
        assert payload["comparison"] == [0.5, 0.5]
        assert payload["fitted_order"] is not None

    def test_file_and_inline_conflict(self, tmp_path, capsys):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"Q": [[-1.0, 1.0], [1.0, -1.0]]}))
        process = {"type": "ctmc", "file": "chain.json", "Q": [[-1.0, 1.0], [1.0, -1.0]]}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 0}}
        task = {"name": "sweep-lambda", "lambdas": [0.1], "targets": [[0]]}
        path, _ = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 2
        assert "either" in capsys.readouterr().err

    def test_ctmc_without_q_or_file(self, tmp_path):
        process = {"type": "ctmc"}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 0}}
        task = {"name": "sweep-lambda", "lambdas": [0.1], "targets": [[0]]}
        path, _ = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 2


class TestConfigValidation:
    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli(path) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli(tmp_path / "absent.json") == 2

    def test_schema_violation_names_the_path(self, tmp_path, capsys):
        task = {"name": "stationary", "targets": [[0.0, 1.0]]}
        path, _ = write_config(tmp_path, task, restart={"rate": -1.0, "nu": {"type": "point", "x": 0.0}})
        assert run_cli(path) == 2
        assert "restart.rate" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        task = {"name": "stationary", "targets": [[0.0, 1.0]]}
        path, _ = write_config(tmp_path, task, extra={"mystery": 1})
        assert run_cli(path) == 2

    def test_unknown_task_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, {"name": "frobnicate"})
        assert run_cli(path) == 2

    def test_non_integer_index_on_finite_space(self, tmp_path, capsys):
        process = {"type": "ctmc", "Q": [[-1.0, 1.0], [1.0, -1.0]]}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 0.5}}
        task = {"name": "stationary", "targets": [[0]]}
        path, _ = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 2
        assert "integer" in capsys.readouterr().err

    def test_fractional_target_on_finite_space(self, tmp_path):
        process = {"type": "ctmc", "Q": [[-1.0, 1.0], [1.0, -1.0]]}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 0}}
        task = {"name": "stationary", "targets": [[0.5]]}
        path, _ = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 2

    def test_interval_needs_two_bounds(self, tmp_path):
        task = {"name": "stationary", "targets": [[0.0, 1.0, 2.0]]}
        path, _ = write_config(tmp_path, task)
        assert run_cli(path) == 2

    @pytest.mark.parametrize(
        "task",
        [
            {"name": "kernel-eval", "t": [0.5], "x": 5, "targets": [[0]]},
            {"name": "moments", "k": [1], "x": 5, "t": [0.5], "monte_carlo": False},
        ],
        ids=["kernel-eval", "moments"],
    )
    def test_chain_start_state_out_of_range(self, tmp_path, capsys, task):
        path, _ = write_config(tmp_path, task, process=CHAIN2, restart=CHAIN2_RESTART)
        assert run_cli(path) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, missing",
        [
            (
                {"name": "kernel-eval", "t": [0.5], "x": 0, "targets": [[0]], "density_points": [0.0]},
                "no transition density",
            ),
            ({"name": "stationary", "targets": [[0]], "density_points": [0.0]}, "no density envelope"),
        ],
        ids=["kernel-eval", "stationary"],
    )
    def test_chain_density_points_rejected(self, tmp_path, capsys, task, missing):
        path, _ = write_config(tmp_path, task, process=CHAIN2, restart=CHAIN2_RESTART)
        assert run_cli(path) == 2
        assert missing in capsys.readouterr().err

    def test_nu_must_fit_space(self, tmp_path):
        gbm = {"type": "gbm", "mu": 0.1, "sigma": 0.5}
        restart = {"rate": 1.0, "nu": {"type": "gaussian", "mean": 0.0, "std": 1.0}}
        task = {"name": "stationary", "targets": [[0.5, 2.0]]}
        path, _ = write_config(tmp_path, task, process=gbm, restart=restart)
        assert run_cli(path) == 2

    def test_threads_flag_validation(self, tmp_path):
        task = {"name": "stationary", "targets": [[0.0, 1.0]]}
        path, _ = write_config(tmp_path, task)
        assert run_cli(path, "--threads", "0") == 2

    def test_out_dir_resolves_relative_paths(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "process": BM,
            "restart": RESTART,
            "task": {"name": "stationary", "targets": [[0.0, 1.0]]},
            "output": {"format": "json", "path": "report.json"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        dest = tmp_path / "results"
        assert run_cli(path, "--out", str(dest)) == 0
        assert (dest / "report.json").exists()


def readme_config():
    """The example config of README's command-line section."""
    text = (REPO / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


_DROP = object()

# one field changed per case: (dotted path, new value or _DROP)
SCHEMA_MUTATIONS = {
    "schema-version-2": ("schema_version", 2),
    "rate-0": ("restart.rate", 0),
    "extra-top-level-key": ("mystery", 1),
    "missing-task": ("task", _DROP),
    "unknown-process": ("process.type", "ou"),
    "k-0": ("task.k", [0]),
    "negative-sigma": ("process.sigma", -1.0),
    "empty-t": ("task.t", []),
    "format-xml": ("output.format", "xml"),
    "gaussian-nu-without-mean": ("restart.nu", {"type": "gaussian", "std": 1.0}),
    "non-integer-seed": ("seed", 2.5),
    "unknown-task": ("task.name", "frobnicate"),
}


def mutated(config, dotted, value):
    config = copy.deepcopy(config)
    *parents, key = dotted.split(".")
    node = config
    for p in parents:
        node = node[p]
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return config


class TestSchemaDialect:
    """SCHEMA declares draft-07, whose metaschema is cheap to check on every
    run; it must accept and reject exactly as the 2020-12 default did."""

    def test_schema_is_draft7(self):
        assert validator_for(SCHEMA) is Draft7Validator
        Draft7Validator.check_schema(SCHEMA)

    def validators(self):
        legacy = {k: v for k, v in SCHEMA.items() if k != "$schema"}
        assert validator_for(legacy) is Draft202012Validator
        return Draft7Validator(SCHEMA), Draft202012Validator(legacy)

    def test_readme_config_is_valid(self):
        assert all(v.is_valid(readme_config()) for v in self.validators())

    @pytest.mark.parametrize("case", sorted(SCHEMA_MUTATIONS))
    def test_drafts_agree_on_mutation(self, case):
        config = mutated(readme_config(), *SCHEMA_MUTATIONS[case])
        errors = [best_match(v.iter_errors(config)) for v in self.validators()]
        assert all(e is not None for e in errors)
        assert _schema_error_message(errors[0]) == _schema_error_message(errors[1])

    @pytest.mark.parametrize(
        "case, message",
        [
            ("negative-sigma", "process.sigma: -1.0 is less than or equal to the minimum of 0"),
            ("gaussian-nu-without-mean", "restart.nu: 'mean' is a required property"),
            ("empty-t", "task.t: [] should be non-empty"),
            ("unknown-process", "process: {'type': 'ou', 'mu': 0.5, 'sigma': 1.0} is not valid under any of the given schemas"),
        ],
    )
    def test_keyed_branch_error_names_the_field(self, case, message):
        # the branch a process/nu "type" or task "name" selects reports its
        # own failing field; an unknown key still reports the whole object
        config = mutated(readme_config(), *SCHEMA_MUTATIONS[case])
        for validator in self.validators():
            err = best_match(validator.iter_errors(config))
            assert _schema_error_message(err) == f"config error at {message}"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs ~0.2 s to import and only density laws use it
    probe = (
        "import sys\n"
        "import restartk.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'loaded by import restartk.cli'\n"
        "from restartk import gaussian\n"
        "v = gaussian(0, 1).expect(lambda y: y**2)\n"
        "assert abs(v - 1.0) <= 1e-9, v\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr


def test_verbose_logs_progress_to_stderr(tmp_path, capsys):
    task = {"name": "kernel-eval", "t": [0.5], "x": 0.0, "targets": [[0.0, 1.0]]}
    path, out = write_config(tmp_path, task)
    line = f"task kernel-eval -> {out}\n"
    # the handler lives only for its verbose run: none is left behind
    for flags, err in [((), ""), (("--verbose",), line), (("--verbose",), line), ((), "")]:
        assert run_cli(path, *flags) == 0
        assert capsys.readouterr().err == err
