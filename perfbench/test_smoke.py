"""Smoke test of the benchmark harness on a tiny generated workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import restartk.cli  # noqa: E402
import restartk.kernels  # noqa: E402
import defects  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload, templates):
    """One config per named template, with ensembles cut to a few hundred paths."""
    cases = [c for c in workloads.generate(workload, 7, 1) if c.template in templates]
    for c in cases:
        if "n_paths" in c.config["task"]:
            c.config["task"]["n_paths"] = 300
    return cases


def _runner(tmp_path, cases):
    return run.Runner([workloads.Case(i, c.template, c.config) for i, c in enumerate(cases)], str(tmp_path))


def test_generation_is_seeded_and_clears_the_seed_override(monkeypatch):
    monkeypatch.setenv("RESTARTK_SEED", "5")
    for workload in workloads.WORKLOADS:
        first = [c.config for c in workloads.generate(workload, 3, 2)]
        assert first == [c.config for c in workloads.generate(workload, 3, 2)]
        assert first != [c.config for c in workloads.generate(workload, 4, 2)]
    assert "RESTARTK_SEED" not in os.environ


def test_outputs_pass_the_oracle_and_reruns_match(tmp_path):
    cases = _tiny("analytic", {"kernel-bm", "kernel-chain3", "stationary-gbm", "sweep-chain"})
    cases += _tiny("paths", {"moments-bm", "simulate-chain"})
    r = _runner(tmp_path, cases)
    probes = []
    records = r.two_passes(lambda: probes.append(len(probes)), 3)
    assert len(probes) == 3
    assert all(rec.rows > 0 for rec in records)
    r.threads_check(records)
    assert [rec.errors for rec in records] == [[]] * len(records)


def test_known_defects_still_miss_their_tolerance(tmp_path):
    r = run.Runner(defects.cases(), str(tmp_path))
    for case in r.cases:
        rec = r.timed(case)
        assert rec.rows > 0
        assert rec.errors and all("oracle" in e for e in rec.errors), (case.template, rec.errors)


def test_oracle_rejects_a_wrong_value(tmp_path):
    case = _tiny("analytic", {"kernel-bm"})[0]
    case.config["output"]["format"] = "csv"
    r = _runner(tmp_path, [case])
    _, code, data = r.run(r.cases[0])
    lines = data.decode().splitlines()
    kind, t, where, value = lines[1].split(",")
    lines[1] = ",".join([kind, t, where, repr(float(value) * (1 + 1e-6) + 1e-9)])
    errors = verify.check(case.config, code, ("\n".join(lines) + "\n").encode())
    assert errors and "oracle" in errors[0]


def test_tracer_reports_layers_and_restores_patches(tmp_path):
    cases = _tiny("analytic", {"kernel-chain3"}) + _tiny("paths", {"moments-bm", "simulate-bm"})
    r = _runner(tmp_path, cases)
    original = restartk.kernels.exp_weighted_integral
    with tracing.Tracer() as tracer:
        for case in r.cases:
            tracer.config_id = case.id
            rec = r.timed(case)
            assert rec.errors == []
            tracer.end_config(rec.rows)
    assert restartk.kernels.exp_weighted_integral is original
    m = tracer.metrics()
    assert m["cli.runs"] == 3
    assert m["quadrature.calls"] > 0 and m["quadrature.evals"] > m["quadrature.calls"]
    assert m["processes.expm_calls"] > 0 and m["kernels.calls"] > 0
    assert m["simulation.paths"] == 600
    assert m["simulation.rows_written"] > 300 and m["processes.sample_calls"] > 0
    assert 0.0 < m["simulation.useful_transition_ratio"] < 1.0
    assert m["reporting.calls"] >= 2 and m["cli.validate_s"] > 0.0
    assert len(tracer.spans) > m["cli.runs"]
    tracer.write_spans(tmp_path / "spans.jsonl.gz")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_gauge_scales_by_the_reference_times_around_a_run():
    gauge = run.Gauge()
    gauge.times = [0.01] * 5 + [0.02] * 5
    ref = reference.REFERENCE_SECONDS
    assert gauge.scaled((1.0, 0)) == ref / 0.01
    assert gauge.scaled((1.0, 9)) == ref / 0.02
    assert gauge.tick() == 10 and gauge.times[-1] > 0.0


def test_result_line_is_the_contract():
    records = [run.Record(workloads.Case(0, "t", {"task": {"name": "moments", "n_paths": 10}}), [(0.5, 0)], 4, "d")]
    assert run.side_metrics(records, lambda r: 0.5) == {"paths_per_s": 20.0, "log_rows_per_s": 0.0, "failed_frac": 0.0}
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
