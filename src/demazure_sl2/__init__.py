"""Exact weight distributions of affine sl2 Demazure modules.

Compute multiplicity distributions by iterating Demazure operators along
alternating Weyl words, cross-check them against the Gaussian-binomial
closed form at level 1, verify the moment and symmetry identities they
satisfy as exact rational equalities, and study the rescaled law of large
numbers including the conjectured degree-variance cubics at levels 2-4.
"""

from .asymptotics import (
    CONJECTURED_DEGREE_VARIANCE,
    ConjectureReport,
    FitMismatchError,
    PolynomialFit,
    RescaledSummary,
    conjecture_check,
    degree_mean_limit,
    fit_polynomial,
    rescaled_summary,
    wlln_series,
)
from .closedform import (
    PalindromeResult,
    gaussian_binomial,
    level1_distribution,
    palindromicity_check,
    string_symmetry_shift,
)
from .demazure import (
    WeightDistribution,
    WeylWord,
    apply_demazure,
    distribution_chain,
    marginal,
    weight_distribution,
)
from .lattice import (
    A,
    B,
    Functional,
    HighestWeight,
    LatticePoint,
    coroot_pairing,
    degree_functional,
    finite_weight_functional,
)
from .moments import (
    CoordinateMap,
    CovarianceMatrix,
    EmptyDistributionError,
    covariance,
    covariance_matrix,
    expectation,
    pushforward,
    reference_formula,
    variance,
)
from .render import (
    DegenerateCovarianceError,
    Ellipse,
    degree_histogram,
    ellipse_path,
    heatmap,
)
from .verify import CheckResult, format_check, run_suite, theorem_covariance_matrix

__version__ = "0.1.0"

__all__ = [
    "A",
    "B",
    "CONJECTURED_DEGREE_VARIANCE",
    "CheckResult",
    "ConjectureReport",
    "CoordinateMap",
    "CovarianceMatrix",
    "DegenerateCovarianceError",
    "Ellipse",
    "EmptyDistributionError",
    "FitMismatchError",
    "Functional",
    "HighestWeight",
    "LatticePoint",
    "PalindromeResult",
    "PolynomialFit",
    "RescaledSummary",
    "WeightDistribution",
    "WeylWord",
    "apply_demazure",
    "conjecture_check",
    "coroot_pairing",
    "covariance",
    "covariance_matrix",
    "degree_functional",
    "degree_histogram",
    "degree_mean_limit",
    "distribution_chain",
    "ellipse_path",
    "expectation",
    "finite_weight_functional",
    "fit_polynomial",
    "format_check",
    "gaussian_binomial",
    "heatmap",
    "level1_distribution",
    "marginal",
    "palindromicity_check",
    "pushforward",
    "reference_formula",
    "rescaled_summary",
    "run_suite",
    "string_symmetry_shift",
    "theorem_covariance_matrix",
    "variance",
    "weight_distribution",
    "wlln_series",
]
