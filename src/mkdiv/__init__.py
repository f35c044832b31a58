"""Asymmetric transport divergences built from statistical scoring functions.

The package computes optimal-transport divergences on the real line whose
costs are consistent scoring functions (Bregman, generalized piecewise
linear, expectile, shortfall, decomposable, entropic, and monotone
transforms thereof), certifies the claimed comonotonic/antitonic optimal
couplings against an exact discrete oracle, and solves two robust
optimization problems over Bregman-Wasserstein balls: worst-case distortion
risk measures and cheapest payoffs under benchmark constraints.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562) and then kept here, so a
process loads only the modules whose names it reads.
"""

# the public names, by the module that defines them
_PUBLIC = {
    "distributions": (
        "Distribution", "Empirical", "Exponential", "LogNormal", "Normal", "PointMass",
        "QuantileGrid", "Uniform", "from_samples", "quantile_grid", "read_value_csv",
    ),
    "errors": (
        "AmbiguityError", "CalibrationError", "CapacityError", "ConfigError", "DomainError",
        "EvaluationError", "InfeasibleLambdaError", "IngestionError", "MkdivError",
        "MomentError",
    ),
    "functionals": (
        "AxiomReport", "Entropic", "Expectile", "LambdaQuantile", "Mean", "Quantile",
        "Shortfall", "argmin_expected_score", "check_axioms", "expected_score",
    ),
    "generators": (
        "ConvexGenerator", "DistortionSpec", "dual_power", "entropy_generator",
        "exponential_generator", "generator_catalog", "identity_distortion",
        "power_distortion", "quadratic", "quartic", "tvar_distortion",
    ),
    "payoff": ("MarketSpec", "PayoffSolution", "cheapest_payoff", "payoff_cost"),
    "robust": ("UniquenessWarning", "WorstCaseSolution", "choquet", "solve_worst_case"),
    "scores": (
        "ANTITONIC", "COMONOTONIC", "BregmanScore", "DecomposableScore", "EntropicScore",
        "ExpectileScore", "GPLScore", "LambdaQuantileScore", "LossFunction", "MonotoneMap",
        "OsbandScore", "Score", "ShortfallScore", "StepFunction", "check_submodular",
        "cube_map", "dist_transform", "exp_map", "exponential_loss", "identity_map",
        "linear_loss", "log_map", "negation_map", "osband_transform", "power_loss",
        "reciprocal_map",
    ),
    "transport": (
        "CouplingReport", "antitonic_matching", "certify_optimal_coupling",
        "comonotonic_matching", "coupling_value", "mk_divergence", "oracle_optimal",
        "wasserstein_p",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = {*_PUBLIC, "cli", "numerics", "specs"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # __import__, unlike importlib.import_module, is timed by -X importtime
    if name in _MODULE_OF:
        value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    elif name in _SUBMODULES:
        value = __import__(f"{__name__}.{name}", fromlist=[name])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # the next access is a plain attribute lookup
    return value


def __dir__():
    return sorted({*globals(), *__all__})
