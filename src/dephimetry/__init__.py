"""Precision limits for phase estimation under correlated Gaussian dephasing.

The package covers the full chain from probe states and dephasing channels
through Fisher information, locally unbiased Bayesian estimators, and the
precision bounds they saturate, plus a CLI for grids and figure data.
"""
from .bayes import (
    EstimatorTable,
    ExperimentConfig,
    QbcrReport,
    SimulationResult,
    averaged_probabilities,
    bayes_estimators,
    bayes_mse,
    best_estimator,
    local_error,
    qbcr_gap,
    simulate,
)
from .bounds import (
    AsymptoticsReport,
    BoundReport,
    CrossoverReport,
    asymptotics,
    bound_report,
    check_violation,
    crossover,
    crossover_boundary,
    error_bound,
    main_bound,
    reference_bound_g,
    verify_bound,
)
from .core import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    encode_phase,
    ghz_state,
    product_plus_state,
    variance,
)
from .covariance import (
    CovarianceMatrix,
    WeightVector,
    build_c1,
    build_c2,
    delta2_c,
    delta2_c1_closed,
    delta2_c2_closed,
    weights,
)
from .dephasing import (
    conditional_covariance,
    conditional_dephased_state,
    dephase,
    derivative_state,
)
from .errors import (
    BoundViolationError,
    DegenerateMeasurementError,
    NumericalConsistencyError,
    SingularCovarianceError,
    UninformativeMeasurementError,
)
from .fisher import Povm, classical_fi, optimal_povm, qfi, sld

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "BoundReport",
    "BoundViolationError",
    "CovarianceMatrix",
    "CrossoverReport",
    "DegenerateMeasurementError",
    "DensityMatrix",
    "EstimatorTable",
    "ExperimentConfig",
    "GeneratorSpec",
    "HermitianOperator",
    "NumericalConsistencyError",
    "Povm",
    "QbcrReport",
    "SimulationResult",
    "SingularCovarianceError",
    "UninformativeMeasurementError",
    "WeightVector",
    "asymptotics",
    "averaged_probabilities",
    "bayes_estimators",
    "bayes_mse",
    "best_estimator",
    "build_c1",
    "build_c2",
    "bound_report",
    "check_violation",
    "classical_fi",
    "conditional_covariance",
    "conditional_dephased_state",
    "crossover",
    "crossover_boundary",
    "delta2_c",
    "delta2_c1_closed",
    "delta2_c2_closed",
    "dephase",
    "derivative_state",
    "encode_phase",
    "error_bound",
    "ghz_state",
    "local_error",
    "main_bound",
    "optimal_povm",
    "product_plus_state",
    "qbcr_gap",
    "qfi",
    "reference_bound_g",
    "simulate",
    "sld",
    "variance",
    "verify_bound",
    "weights",
]
