"""Markov processes under Poissonian restarts.

Compose a continuous-time Markov kernel with an independent exponential
restart clock that redraws the state from a fixed distribution.  The package
evaluates the restarted transition law, its invariant measure and moments
analytically (certified quadrature plus closed forms), bounds the distance
to stationarity, and cross-validates everything against exact Monte Carlo
simulation and matrix-exponential references.
"""

from .analysis import (
    bm_stationary_moments,
    ergodicity_check,
    gbm_stationary_moment,
    modified_moment,
    small_lambda_sweep,
)
from .distributions import (
    DensityDistribution,
    FiniteSupport,
    PointMass,
    exponential,
    gaussian,
    gaussian_raw_moment,
    lognormal,
    nu_weights,
)
from .errors import (
    ConfigError,
    DomainError,
    FubiniUnverified,
    MomentUnstable,
    QuadratureFailure,
    RestartkError,
    SingularityAtOrigin,
    TailBoundViolated,
    ToleranceNotMet,
    UnsupportedTarget,
)
from .kernels import Divergent, MarkovKernel, RestartedProcess, RestartSpec, resolvent
from .processes import (
    BrownianWithDrift,
    FiniteCTMC,
    GeometricBrownian,
    ctmc_from_dict,
    ctmc_from_json,
)
from .quadrature import exp_weighted_integral, tail_truncation_point
from .simulation import (
    PathConfig,
    monte_carlo_moment,
    run_ensemble,
    write_path_csv,
)
from .spaces import (
    FiniteSet,
    HalfLinePositive,
    Interval,
    RealLine,
    Subset,
    indicator,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianWithDrift",
    "ConfigError",
    "DensityDistribution",
    "Divergent",
    "DomainError",
    "FiniteCTMC",
    "FiniteSet",
    "FiniteSupport",
    "FubiniUnverified",
    "GeometricBrownian",
    "HalfLinePositive",
    "Interval",
    "MarkovKernel",
    "MomentUnstable",
    "PathConfig",
    "PointMass",
    "QuadratureFailure",
    "RealLine",
    "RestartSpec",
    "RestartedProcess",
    "RestartkError",
    "SingularityAtOrigin",
    "Subset",
    "TailBoundViolated",
    "ToleranceNotMet",
    "UnsupportedTarget",
    "bm_stationary_moments",
    "ctmc_from_dict",
    "ctmc_from_json",
    "ergodicity_check",
    "exp_weighted_integral",
    "exponential",
    "gaussian",
    "gaussian_raw_moment",
    "gbm_stationary_moment",
    "indicator",
    "lognormal",
    "modified_moment",
    "monte_carlo_moment",
    "nu_weights",
    "resolvent",
    "run_ensemble",
    "small_lambda_sweep",
    "tail_truncation_point",
    "write_path_csv",
]
