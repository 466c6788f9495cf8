"""Known defects: fixed configs on which restartk misses its stated tolerance.

Two defects, both in restartk's quadrature, make some values miss
abs 1e-12 + quad_rel_tol*|value|, and a benchmark run must not fail on a
program that works as well as its parent:

- density nu: the nested quadrature (a time quadrature per nu-point under
  ``DensityDistribution.expect``, whose outer ``quad`` error is dropped and
  never combined with the inner one) misses on some inputs.  The workloads
  therefore draw no density nu.
- false convergence: ``exp_weighted_integral`` trusts QUADPACK's error
  estimate, which at rare isolated inputs is far too small (here: 252
  nodes and a claimed error of 3e-12 for an error of 1.5e-6; the inputs
  0.0002 on either side take 420 nodes and are right to 2e-15).  Such
  inputs show up about once in 10^5 density values, so the workloads keep
  their diffusion parameters fixed (see workloads.py) and were checked on
  them.

These configs keep both defects in view: run.py runs each of them once per
run, checks it against the oracle exactly as it checks the workloads,
prints every value still outside its tolerance, and counts the configs that
fail as ``defects.open``.  They do not count into a run's
``correct``/``failed``.  A fix shows as the count going down; the change
that fixes one drops its config from this list.

On ``analytic`` the traced run also traces these configs, so the nested
layer (``distributions.expect``) is measured per layer.

Each config was met as a failure of a generated workload config; the value
restartk printed and the oracle's are given beside it (the oracle agrees
with mpmath at 30 digits where noted).
"""

from __future__ import annotations

import copy

import workloads

_NESTED_BM_GAUSSIAN = {"schema_version": 1, "output": {"format": "csv", "path": ""}, "tolerances": {"quad_rel_tol": 1e-5}}

KNOWN = (
    (
        # 0.12175834914817366 vs 0.1217602777164174 (mpmath 0.121760277716417411): 1.6x tol
        "nested-gaussian-kernel-probability",
        {
            **_NESTED_BM_GAUSSIAN,
            "seed": 166754075,
            "process": {"type": "bm", "mu": -0.8894, "sigma": 1.1443},
            "restart": {"rate": 1.89511, "nu": {"type": "gaussian", "mean": -0.5976, "std": 0.2651}},
            "task": {"name": "kernel-eval", "t": [0.988], "x": -0.9522, "targets": [[-0.1597, 1.4295], ["-inf", "inf"]]},
        },
    ),
    (
        # 0.6813259445107479 vs 0.6814231138725968: 14x tol
        "nested-gaussian-kernel-density",
        {
            **_NESTED_BM_GAUSSIAN,
            "seed": 791401477,
            "process": {"type": "bm", "mu": 0.6345, "sigma": 0.9771},
            "restart": {"rate": 1.984544, "nu": {"type": "gaussian", "mean": -0.049, "std": 0.2847}},
            "task": {"name": "kernel-eval", "t": [0.834], "x": -0.5478, "targets": [["-inf", "inf"]], "density_points": [0.0417]},
        },
    ),
    (
        # 0.5958457330593822 vs 0.5958465479595895 (mpmath 0.59584655): 1,365x tol
        "false-convergence-gbm-stationary-density",
        {
            "schema_version": 1,
            "seed": 1956545439,
            "process": {"type": "gbm", "mu": 0.1972, "sigma": 0.5614},
            "restart": {"rate": 1.130457, "nu": {"type": "finite", "points": [[1.8843, 0.4594], [1.5119, 0.5406]]}},
            "task": {"name": "stationary", "targets": [[0, "inf"]], "density_points": [1.3858]},
            "output": {"format": "csv", "path": ""},
        },
    ),
)


def cases():
    """The known-defect configs as ``workloads.Case``, ids 0..n-1."""
    out = []
    for i, (name, config) in enumerate(KNOWN):
        config = copy.deepcopy(config)
        config["output"]["path"] = f"defect{i}.{config['output']['format']}"
        out.append(workloads.Case(i, name, config))
    return out
