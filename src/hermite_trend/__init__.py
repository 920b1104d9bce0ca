"""Simulation and nonparametric trend estimation for Hermite-driven SDEs.

The package covers the full pipeline: exact fractional Gaussian noise and
Hermite-process path generation, a bank of higher-order polynomial kernels
with exact moment arithmetic, small-noise SDE simulation with pathwise error
bounds, kernel-type trend estimators with their bandwidth rules, and a
deterministic Monte Carlo harness (consistency / rate / CLT experiments)
behind the ``hermite-trend`` command line tool.
"""

from .estimators import (
    EstimateSeries,
    EstimatorConfig,
    alternate_estimate,
    bandwidth_alt,
    bandwidth_main,
    bias_center_term,
    estimate_series,
    indicator_path,
    kernel_estimate_product,
)
from .experiments import (
    CltReport,
    ConditionViolated,
    ConsistencyReport,
    ExperimentConfig,
    ExperimentResult,
    FitDegenerate,
    RateFit,
    ReplicationFailure,
    load_experiment_config,
    parse_experiment_config,
    run_clt,
    run_consistency,
    run_experiment,
    run_rate,
    theoretical_rate_alt,
    theoretical_rate_main,
    write_report,
)
from .gaussian import (
    EmbeddingFailure,
    FgnSpec,
    fgn_autocovariance,
    sample_fgn,
)
from .hermite import (
    MAX_HERMITE_ORDER,
    HermitePath,
    HermiteSpec,
    discrete_normalizer,
    h_zero,
    hermite_polynomial,
    max_moment_scaling_check,
    replicate,
    sample_hermite,
)
from .kernels import (
    MAX_KERNEL_ORDER,
    Kernel,
    asymptotic_variance,
    box_kernel,
    kernel_autocorrelation,
    kernel_moment,
    vanishing_moment_kernel,
)
from .rng import derive_seed, philox_generator
from .sde import (
    BoundViolation,
    GronwallReport,
    MeanSquareReport,
    PathConfig,
    SdePath,
    gronwall_check,
    mean_square_bound_check,
    simulate_path,
    simulate_sde,
    solve_ode,
)
from .trends import (
    DerivativeUnavailable,
    TrendFunction,
    constant_trend,
    parse_trend,
    polynomial_trend,
    sinusoid_trend,
    weierstrass_trend,
)
from .validation import ParameterError

__version__ = "0.1.0"
