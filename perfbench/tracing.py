"""Per-layer spans and counts, recorded from outside the library.

``Tracer`` wraps restartk's public functions at the names their callers look
them up by (``restartk.kernels.exp_weighted_integral``, ``restartk.cli.write_csv``,
class methods such as ``BrownianWithDrift.sample_transition``) and restores
them on exit.  Each call is a span: name, start, end, parent span and config
id.  Self time is a span's duration minus the time its child spans cover.
Spans stay in memory and are written once, by ``write_spans``.  Calls into
the per-transition and per-draw methods (``processes.transition``,
``processes.sample``, ``distributions.sample``) run thousands of times per
config, so they are counted and timed but not kept as spans.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import jsonschema

import restartk.analysis
import restartk.cli
import restartk.kernels
import restartk.simulation
from restartk.distributions import DensityDistribution, FiniteSupport, PointMass
from restartk.kernels import RestartedProcess
from restartk.processes import BrownianWithDrift, FiniteCTMC, GeometricBrownian

_BASES = (BrownianWithDrift, GeometricBrownian, FiniteCTMC)
_DISTRIBUTIONS = (PointMass, FiniteSupport, DensityDistribution)
_KERNEL_METHODS = (
    "transition_probability",
    "transition_density",
    "transition_matrix",
    "moment",
    "invariant_measure",
    "invariant_density",
    "invariant_vector",
)
_ANALYSIS_FUNCTIONS = (
    "modified_moment",
    "bm_modified_moment",
    "gbm_modified_moment",
    "ctmc_modified_moment",
    "bm_stationary_moments",
    "gbm_stationary_moment",
    "ergodicity_check",
    "small_lambda_sweep",
)


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; set ``tr.config_id`` per config."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, config id)
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(float)
        self.config_id = None
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._patched = []
        self._log_written = False

    # -- installation ----------------------------------------------------

    def __enter__(self):
        quad = restartk.kernels.exp_weighted_integral
        self._patch(restartk.kernels, "exp_weighted_integral", self._wrap("quadrature", quad, after=self._after_quad))
        for name in _KERNEL_METHODS:
            self._patch_method(RestartedProcess, name, "kernels")
        for cls in _BASES:
            for name in ("transition_probability", "transition_density"):
                self._patch_method(cls, name, "processes.transition", keep=False)
            self._patch_method(cls, "sample_transition", "processes.sample", keep=False)
        self._patch_method(FiniteCTMC, "transition_matrix", "processes.expm")
        for cls in _DISTRIBUTIONS:
            self._patch_method(cls, "expect", "distributions.expect")
            self._patch_method(cls, "sample", "distributions.sample", keep=False)
        sim = restartk.simulation
        self._patch(sim, "run_ensemble", self._wrap("simulation", sim.run_ensemble, after=self._after_ensemble))
        self._patch(sim, "write_path_csv", self._wrap("simulation", sim.write_path_csv, after=self._after_path_csv))
        self._patch(sim, "monte_carlo_moment", self._wrap("simulation", sim.monte_carlo_moment))
        for name in _ANALYSIS_FUNCTIONS:
            self._patch(restartk.analysis, name, self._wrap("analysis", getattr(restartk.analysis, name)))
        cli = restartk.cli
        self._patch(cli, "run", self._wrap("cli", cli.run))
        # the CLI calls jsonschema.validate through the module attribute
        self._patch(jsonschema, "validate", self._wrap("cli.validate", jsonschema.validate))
        for name in ("write_csv", "write_json"):
            self._patch(cli, name, self._wrap("reporting", getattr(cli, name), after=self._after_report))
        self._patch(cli, "table_payload", self._wrap("reporting", cli.table_payload))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    def _patch(self, owner, name, replacement):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_method(self, cls, name, layer, keep=True):
        if name in cls.__dict__:
            self._patch(cls, name, self._wrap(layer, cls.__dict__[name], keep=keep))

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, fn, keep=True, after=None):
        stack = self._stack
        stat = self.stats[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if keep:
                    self.spans.append((sid, layer, start, end, parent, self.config_id))
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_quad(self, result, args, kwargs):
        self.counts["quadrature.evals"] += result.nodes_used
        self.counts["quadrature.truncated_calls"] += result.truncated_at is not None
        self.counts["quadrature.unreliable"] += not result.reliable

    def _after_ensemble(self, result, args, kwargs):
        config = args[1]
        self.counts["simulation.paths"] += config.n_paths
        self.counts["simulation.grid_states"] += config.n_paths * len(config.record_grid)

    def _after_path_csv(self, result, args, kwargs):
        self._after_ensemble(result, args, kwargs)
        self.counts["simulation.bytes_written"] += os.path.getsize(args[2])
        self._log_written = True

    def _after_report(self, result, args, kwargs):
        self.counts["reporting.bytes_written"] += os.path.getsize(args[0])

    def end_config(self, rows):
        """Credit ``rows``, the rows the caller counted in the last config's
        output, to the event log when that output was one."""
        if self._log_written:
            self.counts["simulation.rows_written"] += rows
        self._log_written = False

    # -- results -----------------------------------------------------------

    def metrics(self):
        """The per-layer metrics, by name."""
        st, c = self.stats, self.counts
        quad_calls = st["quadrature"].calls
        kernel_calls = st["kernels"].calls
        samples = st["processes.sample"].calls
        return {
            "quadrature.calls": quad_calls,
            "quadrature.self_s": st["quadrature"].self_s,
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.evals_per_call": c["quadrature.evals"] / quad_calls if quad_calls else 0.0,
            "quadrature.truncated_calls": c["quadrature.truncated_calls"],
            "quadrature.unreliable": c["quadrature.unreliable"],
            "distributions.expect_calls": st["distributions.expect"].calls,
            "distributions.expect_self_s": st["distributions.expect"].self_s,
            "distributions.sample_calls": st["distributions.sample"].calls,
            "processes.expm_calls": st["processes.expm"].calls,
            "processes.expm_self_s": st["processes.expm"].self_s,
            "processes.transition_calls": st["processes.transition"].calls,
            "processes.transition_self_s": st["processes.transition"].self_s,
            "processes.sample_calls": samples,
            "processes.sample_self_s": st["processes.sample"].self_s,
            "simulation.useful_transition_ratio": c["simulation.grid_states"] / samples if samples else 0.0,
            "simulation.paths": c["simulation.paths"],
            "simulation.self_s": st["simulation"].self_s,
            "simulation.rows_written": c["simulation.rows_written"],
            "simulation.bytes_written": c["simulation.bytes_written"],
            "kernels.calls": kernel_calls,
            "kernels.self_s": st["kernels"].self_s,
            "kernels.quad_calls_per_call": quad_calls / kernel_calls if kernel_calls else 0.0,
            "analysis.calls": st["analysis"].calls,
            "analysis.self_s": st["analysis"].self_s,
            "reporting.calls": st["reporting"].calls,
            "reporting.self_s": st["reporting"].self_s,
            "reporting.bytes_written": c["reporting.bytes_written"],
            "cli.runs": st["cli"].calls,
            "cli.self_s": st["cli"].self_s,
            "cli.validate_s": st["cli.validate"].self_s,
        }

    def write_spans(self, path):
        """All kept spans as gzipped JSON lines, plus a summary line first."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"metrics": self.metrics(), "spans": len(self.spans)}) + "\n")
            for sid, name, start, end, parent, config in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, config]) + "\n")
