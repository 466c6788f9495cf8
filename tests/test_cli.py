"""The config-driven runner: schema, tasks, exit codes, reproducibility."""

import copy
import functools
import importlib.util
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import Draft7Validator, Draft202012Validator, validator_for

from restartk import cli, kernels
from restartk import (
    BrownianWithDrift,
    ConfigError,
    DomainError,
    FiniteCTMC,
    FiniteSupport,
    GeometricBrownian,
    PointMass,
    RestartSpec,
    RestartedProcess,
    SingularityAtOrigin,
    Subset,
    TailBoundViolated,
    ToleranceNotMet,
    UnsupportedTarget,
    bm_stationary_moments,
    modified_moment,
)
from restartk.analysis import ErgodicityReport, ErgodicityRow
from restartk.cli import SCHEMA, _schema_error_message, exit_code_for, main

from conftest import cancelling_horizons

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

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
            OverflowError("math range error"),
        ):
            assert exit_code_for(exc) == 3

    def test_validation_failures(self):
        for exc in (
            ConfigError("x"),
            DomainError("x"),
            UnsupportedTarget("x"),
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

    def test_chain_makes_one_quadrature_call_per_target_and_atom(self, tmp_path, monkeypatch):
        calls = []
        integrate = kernels.exp_weighted_integral

        def counting(f, lam, upper, **kw):
            calls.append(upper.tolist())
            return integrate(f, lam, upper, **kw)

        monkeypatch.setattr(kernels, "exp_weighted_integral", counting)
        task = {"name": "kernel-eval", "t": [1.5, 0.25, 0.0, 4.0], "x": 1, "targets": [[0], [1, 2], [0, 2]]}
        restart = {"rate": 0.8, "nu": {"type": "finite", "points": [[0, 0.5], [1, 0.5]]}}
        chain3 = {"type": "ctmc", "Q": [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]}
        path, out = write_config(tmp_path, task, process=chain3, restart=restart)
        assert run_cli(path) == 0
        # three targets, two atoms: each pair's call carries the horizons
        # where the resolvent identity would cancel, and a pair without one
        # makes none; the others take the identity
        chain = FiniteCTMC(chain3["Q"])
        want = [
            horizons
            for g in task["targets"]
            for y in (0, 1)
            if (horizons := cancelling_horizons(chain, 0.8, y, Subset(g), task["t"]))
        ]
        assert want == [[0.25]] * 6
        assert calls == want
        rows = json.loads(open(out).read())["rows"]
        assert [(r[1], r[2]) for r in rows] == [(t, g) for t in task["t"] for g in ("{0}", "{1 2}", "{0 2}")]

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

    @pytest.mark.parametrize(
        "process, restart, space",
        [
            (BM, RESTART, "RealLine()"),
            ({"type": "gbm", "mu": 0.1, "sigma": 0.5}, {"rate": 0.5, "nu": {"type": "point", "x": 1.0}}, "HalfLinePositive()"),
        ],
        ids=["bm", "gbm"],
    )
    def test_a_nan_among_the_density_points_is_refused(self, tmp_path, capsys, process, restart, space):
        # the points go to the library in one call, which checks each before
        # any integral: the message is the one a point-by-point loop gave
        task = {"name": "stationary", "targets": [[0.5, 2.0]], "density_points": [1.0, math.nan, 2.0]}
        path, out = write_config(tmp_path, task, process=process, restart=restart, fmt="csv")
        assert run_cli(path) == 2
        assert capsys.readouterr().err == f"validation error: state nan is not in {space}\n"
        assert not os.path.exists(out)

    def test_a_generator_row_off_zero_is_refused_with_its_sum(self, tmp_path, capsys):
        chain = {"type": "ctmc", "Q": [[-1.0, 0.5], [1.0, -1.0]]}
        task = {"name": "stationary", "targets": [[0]]}
        path, out = write_config(tmp_path, task, process=chain, restart=CHAIN2_RESTART, fmt="csv")
        assert run_cli(path) == 2
        assert capsys.readouterr().err == "validation error: row 0 of the generator sums to -0.5, expected 0\n"
        assert not os.path.exists(out)

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

        def fake_check(proc, x, t_grid, sets, rel_tol=1e-9):
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

    def test_single_rate_reports_no_fitted_order(self, tmp_path):
        # [1, 1] is one rate once deduplicated
        process = {"type": "ctmc", "Q": [[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]}
        restart = {"rate": 1.0, "nu": {"type": "point", "x": 2}}
        task = {"name": "sweep-lambda", "lambdas": [1, 1], "targets": [[0]]}
        path, out = write_config(tmp_path, task, process=process, restart=restart)
        assert run_cli(path) == 0
        payload = json.loads(open(out).read())
        assert [row[0] for row in payload["rows"]] == [1.0]
        assert payload["comparison"] is not None and payload["fitted_order"] is None

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

    @pytest.mark.parametrize(
        "task, process, restart, space",
        [
            ({"name": "kernel-eval", "t": [0.5], "x": 0.0, "targets": [[0.0, 1.0]]}, BM, RESTART, "RealLine()"),
            (
                {"name": "stationary", "targets": [[0.5, 2.0]]},
                {"type": "gbm", "mu": 0.1, "sigma": 0.5},
                {"rate": 0.5, "nu": {"type": "point", "x": 1.0}},
                "HalfLinePositive()",
            ),
        ],
        ids=["bm-kernel-eval", "gbm-stationary"],
    )
    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_infinite_density_point_rejected(self, tmp_path, capsys, task, process, restart, space, z):
        # BM used to print a density of 0 here, and GBM at inf to blame the
        # growth constant
        path, out = write_config(tmp_path, {**task, "density_points": [z]}, process=process, restart=restart)
        assert run_cli(path) == 2
        assert capsys.readouterr().err == f"validation error: state {z} is not in {space}\n"
        assert not os.path.exists(out)

    # a density law is refused once, by the library, with the role it plays
    def test_nu_must_fit_space(self, tmp_path, capsys):
        gbm = {"type": "gbm", "mu": 0.1, "sigma": 0.5}
        restart = {"rate": 1.0, "nu": {"type": "gaussian", "mean": 0.0, "std": 1.0}}
        task = {"name": "stationary", "targets": [[0.5, 2.0]]}
        path, out = write_config(tmp_path, task, process=gbm, restart=restart)
        assert run_cli(path) == 2
        assert capsys.readouterr().err == (
            "validation error: restart distribution DensityDistribution(gaussian(mean=0.0, std=1.0)) "
            "is not supported in HalfLinePositive()\n"
        )
        assert not os.path.exists(out)

    def test_initial_law_must_fit_space(self, tmp_path, capsys):
        task = {**TestSimulate().task(), "initial": {"type": "gaussian", "mean": 0.0, "std": 1.0}}
        path, out = write_config(tmp_path, task, process=CHAIN2, restart=CHAIN2_RESTART, fmt="csv")
        assert run_cli(path) == 2
        assert capsys.readouterr().err == (
            "validation error: initial distribution DensityDistribution(gaussian(mean=0.0, std=1.0)) "
            "is not supported in FiniteSet(values=(0.0, 1.0))\n"
        )
        assert not os.path.exists(out)

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
    """SCHEMA declares draft-07, whose metaschema is cheap to check once per
    process; it must accept and reject exactly as the 2020-12 default did."""

    def test_schema_is_draft7(self):
        assert validator_for(SCHEMA) is Draft7Validator
        Draft7Validator.check_schema(SCHEMA)

    def test_schema_matches_its_snapshot(self):
        # text, not ==, so key order counts; an intended schema change
        # regenerates tests/cli_schema.json
        snapshot = (REPO / "tests" / "cli_schema.json").read_text()
        assert json.dumps(SCHEMA, indent=2) + "\n" == snapshot

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


class TestSchemaCheckedOnce:
    """Each process checks SCHEMA against its metaschema before it validates
    its first config, and only then; every config is still validated."""

    INVALID_RATE = {"rate": -1.0, "nu": {"type": "point", "x": 0.0}}

    @pytest.fixture(autouse=True)
    def fresh_process(self, monkeypatch):
        # the one-time state of a process that has not validated a config yet
        monkeypatch.setattr(cli, "_SCHEMA_CHECK", cli._CheckedOnce())

    def configs(self, tmp_path):
        task = {"name": "stationary", "targets": [[0.0, 1.0]]}
        for name in ("valid", "invalid"):
            (tmp_path / name).mkdir()
        valid, _ = write_config(tmp_path / "valid", task)
        invalid, _ = write_config(tmp_path / "invalid", task, restart=self.INVALID_RATE)
        return valid, invalid

    def test_one_metaschema_check_per_process(self, tmp_path, monkeypatch):
        checked = []
        check_schema = Draft7Validator.check_schema

        def counted(schema, *args, **kwargs):
            checked.append(schema)
            return check_schema(schema, *args, **kwargs)

        monkeypatch.setattr(Draft7Validator, "check_schema", counted)
        valid, invalid = self.configs(tmp_path)
        codes = [run_cli(path) for path in (invalid, valid, invalid, valid, valid)]
        assert codes == [2, 0, 2, 0, 0]
        assert len(checked) == 1 and checked[0] is SCHEMA

    def test_invalid_config_reports_the_same_first_and_later(self, tmp_path, capsys):
        valid, invalid = self.configs(tmp_path)
        with pytest.raises(jsonschema.ValidationError) as per_run:
            jsonschema.validate(json.loads(invalid.read_text()), SCHEMA)
        want = (2, _schema_error_message(per_run.value) + "\n")
        assert want[1].startswith("config error at restart.rate: ")
        assert (run_cli(invalid), capsys.readouterr().err) == want
        for _ in range(2):
            assert run_cli(valid) == 0
        assert (run_cli(invalid), capsys.readouterr().err) == want

    def test_broken_schema_fails_on_first_use(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SCHEMA", {**SCHEMA, "type": "mapping"})
        valid, _ = self.configs(tmp_path)
        assert run_cli(valid) == 1
        assert "jsonschema.exceptions.SchemaError: 'mapping' is not valid" in capsys.readouterr().err


def _subschemas(schema):
    """SCHEMA and every schema nested in it, through the keywords that nest."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    if isinstance(schema.get("items"), dict):
        nested.append(schema["items"])
    for sub in nested:
        yield from _subschemas(sub)


@functools.cache
def _workload_configs():
    """One round of each benchmark workload at seed 5, from perfbench/workloads.py."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
        sys.modules["workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    workloads = sys.modules["workloads"]
    return [case.config for name in workloads.WORKLOADS for case in workloads.generate(name, 5, 1)]


VALID_GOLDENS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.startswith("error-"))
GOLDEN_CONFIGS = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))]
DRAFT7 = Draft7Validator(SCHEMA)

# replacement values: every JSON type, and the values where draft-07 and
# Python disagree (bools against numbers, 1.0 against 1, NaN and inf against
# the bounds, the strings SCHEMA itself names)
_SCALARS = st.sampled_from(
    [None, True, False, 0, 1, 1.0, 2, -1, -1.0, 0.5, 2.5, math.nan, math.inf, -math.inf, 1e308,
     "inf", "-inf", "", "csv", "bm", "ctmc", "point", "finite", "stationary", "simulate"]
)
_VALUES = st.one_of(
    _SCALARS,
    st.floats(),
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=2),
    st.dictionaries(st.sampled_from(["type", "name", "x", "rate", "nu", "extra"]), _SCALARS, max_size=3),
)


def _locations(value, path=()):
    """(path of a container, key in it) for every value nested in a config."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield path, key
            yield from _locations(child, (*path, key))


class TestSchemaInterpreter:
    """cli._conforms decides validity; Draft7Validator is its oracle here and
    still writes the message of a rejected config."""

    def test_every_schema_keyword_is_interpreted(self):
        # a keyword SCHEMA gains (pattern, maxLength, ...) fails here first
        for schema in _subschemas(SCHEMA):
            assert set(schema) <= set(cli._KEYWORDS), schema
            assert schema.get("type", "object") in cli._TYPES, schema
            if "additionalProperties" in schema:
                assert schema["additionalProperties"] is False and "properties" in schema, schema
            if "items" in schema:
                assert isinstance(schema["items"], dict), schema
            for value in [schema.get("const"), *schema.get("enum", [])]:
                assert not isinstance(value, (dict, list)), schema

    def test_an_unknown_keyword_is_never_passed_over(self):
        with pytest.raises(KeyError):
            cli._conforms("x", {"type": "string", "maxLength": 0})

    @pytest.mark.parametrize(
        "schema, instance",
        [
            ({"type": "number"}, True),
            ({"type": "integer"}, False),
            ({"type": "integer"}, 1.0),
            ({"type": "integer"}, 1.5),
            ({"type": "integer"}, math.nan),
            ({"type": "integer"}, math.inf),
            ({"type": "number"}, math.nan),
            ({"type": "boolean"}, 0),
            ({"const": 1}, True),
            ({"const": 1}, 1.0),
            ({"const": 1}, "1"),
            ({"enum": ["inf", "-inf"]}, "inf"),
            ({"enum": ["csv", "json"]}, ["csv"]),
            ({"minimum": 0}, math.nan),
            ({"minimum": 0}, -math.inf),
            ({"minimum": 0}, "-1"),
            ({"exclusiveMinimum": 0}, math.nan),
            ({"exclusiveMinimum": 0}, 0.0),
            ({"exclusiveMinimum": 0}, True),
            ({"minItems": 1, "maxItems": 2}, []),
            ({"minItems": 1, "maxItems": 2}, [1, 2, 3]),
            ({"minItems": 1}, {}),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
            ({"required": ["a"]}, ["a"]),
            ({"properties": {"a": {"type": "string"}}, "additionalProperties": False}, {"a": "x", "b": 1}),
        ],
    )
    def test_draft7_readings(self, schema, instance):
        assert cli._conforms(instance, schema) == Draft7Validator(schema).is_valid(instance)

    def test_shipped_configs_conform(self):
        valid = [json.loads(p.read_text()) for p in VALID_GOLDENS] + _workload_configs() + [readme_config()]
        assert all(cli._conforms(config, SCHEMA) for config in valid)

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_agrees_with_draft7_on_mutated_configs(self, data):
        config = copy.deepcopy(data.draw(st.sampled_from(_workload_configs() + GOLDEN_CONFIGS)))
        path, key = data.draw(st.sampled_from(list(_locations(config))))
        node = functools.reduce(operator.getitem, path, config)
        change = data.draw(st.sampled_from(["replace", "delete", "extra"]))
        if change == "delete":
            del node[key]
        elif change == "extra" and isinstance(node, dict):
            node["extra"] = data.draw(_VALUES)
        elif change == "extra":
            node.append(data.draw(_VALUES))
        else:
            node[key] = data.draw(_VALUES)
        assert cli._conforms(config, SCHEMA) == DRAFT7.is_valid(config)

    @pytest.mark.parametrize("config", VALID_GOLDENS, ids=lambda p: p.stem)
    def test_a_valid_config_never_reaches_the_draft7_validator(self, config, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_SCHEMA_CHECK", cli._CheckedOnce())
        cli._SCHEMA_CHECK.check_schema(SCHEMA)  # its metaschema check iterates errors itself

        def refuse(*args, **kwargs):
            raise AssertionError("a valid config went to Draft7Validator.iter_errors")

        monkeypatch.setattr(Draft7Validator, "iter_errors", refuse)
        assert run_cli(config, "--threads", "1", "--out", str(tmp_path)) == 0


def _fresh_interpreter(probe, *args):
    # a new python, so that nothing an earlier test imported is in sys.modules
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


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
    res = _fresh_interpreter(probe)
    assert res.returncode == 0, res.stderr


# the modules whose import costs every run and which only some routes use
_UNUSED_AT_IMPORT = (
    "def unused():\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')\n"
)


def test_import_loads_no_scipy_and_no_process_pool():
    probe = (
        "import sys\n" + _UNUSED_AT_IMPORT +
        "import restartk\n"
        "assert unused() == [], unused()\n"
        "import restartk.cli\n"
        "assert unused() == [], unused()\n"
    )
    res = _fresh_interpreter(probe)
    assert res.returncode == 0, res.stderr


def test_simulate_runs_load_no_scipy(tmp_path):
    bm_path, bm_out = write_config(
        tmp_path,
        {"name": "simulate", "horizon": 1.0, "record_grid": [0.5, 1.0], "n_paths": 4,
         "initial": {"type": "gaussian", "mean": 0.0, "std": 1.0}},
        fmt="csv",
    )
    probe = (
        "import sys\n" + _UNUSED_AT_IMPORT +
        "from restartk import cli\n"
        "for config in sys.argv[1:3]:\n"
        "    assert cli.run(config, threads=2, out_dir=sys.argv[3]) == 0, config\n"
        "assert unused() == [], unused()\n"
    )
    res = _fresh_interpreter(probe, GOLDEN / "simulate-chain.json", bm_path, tmp_path)
    assert res.returncode == 0, res.stderr
    assert Path(bm_out).read_text().startswith("path_id,time,state,event_type\n")
    got = (tmp_path / "simulate-chain.csv").read_bytes()
    assert got == (GOLDEN / "expected" / "simulate-chain.csv").read_bytes()


def test_first_scipy_call_rebinds_each_stand_in_to_scipy():
    # after its first call each name is scipy's own function, so the scalar
    # helpers that call it per value pay no stand-in on later calls
    probe = (
        "import sys\n"
        "from restartk import BrownianWithDrift, Interval, PointMass, RestartSpec, RestartedProcess, processes\n"
        "from restartk import ctmc_from_dict\n"
        "names = ('erfcx', 'ndtr', 'gammainc')\n"
        "assert all(getattr(processes, n).__module__ == 'restartk.processes' for n in names)\n"
        "proc = RestartedProcess(BrownianWithDrift(0.3, 1.2), RestartSpec(1.5, PointMass(0.0)))\n"
        "proc.transition_probability(0.7, 0.2, Interval(-0.5, 2.0))\n"
        "proc.base.restarted_moment(proc.restart, 2, 0.7, 0.2)\n"
        "import scipy.special\n"
        "assert processes.erfcx is scipy.special.erfcx\n"
        "assert processes.ndtr is scipy.special.ndtr\n"
        "assert processes.gammainc is scipy.special.gammainc\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        # the chain's matrix exponential is numpy's work: it loads no scipy.linalg
        "ctmc_from_dict({'Q': [[-1.0, 1.0], [2.0, -2.0]]}).transition_matrix(0.5)\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    res = _fresh_interpreter(probe)
    assert res.returncode == 0, res.stderr


def test_verbose_logs_progress_to_stderr(tmp_path, capsys):
    task = {"name": "kernel-eval", "t": [0.5], "x": 0.0, "targets": [[0.0, 1.0]]}
    path, out = write_config(tmp_path, task)
    line = f"task kernel-eval -> {out}\n"
    # the handler lives only for its verbose run: none is left behind
    for flags, err in [((), ""), (("--verbose",), line), (("--verbose",), line), ((), "")]:
        assert run_cli(path, *flags) == 0
        assert capsys.readouterr().err == err
