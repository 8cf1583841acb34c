"""Exact weight distributions of affine sl2 Demazure modules.

Compute multiplicity distributions by iterating Demazure operators along
alternating Weyl words, cross-check them against the Gaussian-binomial
closed form at level 1, verify the moment and symmetry identities they
satisfy as exact rational equalities, and study the rescaled law of large
numbers including the conjectured degree-variance cubics at levels 2-4.

Importing the package loads none of its submodules.  The first read of a
public name imports the submodule that defines it (with that submodule's
own imports) and binds the name here, so later reads are plain attribute
reads; ``from demazure_sl2 import *`` therefore loads every submodule
that defines a public name.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "asymptotics": (
        "CONJECTURED_DEGREE_VARIANCE",
        "ConjectureReport",
        "FitMismatchError",
        "PolynomialFit",
        "RescaledSummary",
        "conjecture_check",
        "degree_mean_limit",
        "fit_polynomial",
        "rescaled_summary",
        "wlln_series",
    ),
    "closedform": (
        "PalindromeResult",
        "gaussian_binomial",
        "level1_distribution",
        "palindromicity_check",
        "string_symmetry_shift",
    ),
    "demazure": (
        "WeightDistribution",
        "WeylWord",
        "apply_demazure",
        "distribution_chain",
        "weight_distribution",
    ),
    "lattice": (
        "A",
        "B",
        "Functional",
        "HighestWeight",
        "LatticePoint",
        "coroot_pairing",
        "degree_functional",
        "finite_weight_functional",
    ),
    "moments": (
        "CovarianceMatrix",
        "EmptyDistributionError",
        "covariance",
        "covariance_matrix",
        "expectation",
        "marginal",
        "pushforward",
        "reference_formula",
        "variance",
    ),
    "render": ("DegenerateCovarianceError", "Ellipse", "degree_histogram", "ellipse_path", "heatmap"),
    "verify": ("CheckResult", "format_check", "run_suite", "theorem_covariance_matrix"),
}

_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # called only for names not yet bound here (PEP 562); an AttributeError
    # for a submodule name lets the import system load it as a submodule
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
