"""Asymmetric transport divergences built from statistical scoring functions.

The package computes optimal-transport divergences on the real line whose
costs are consistent scoring functions (Bregman, generalized piecewise
linear, expectile, shortfall, decomposable, entropic, and monotone
transforms thereof), certifies the claimed comonotonic/antitonic optimal
couplings against an exact discrete oracle, and solves two robust
optimization problems over Bregman-Wasserstein balls: worst-case distortion
risk measures and cheapest payoffs under benchmark constraints.
"""

from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    Normal,
    PointMass,
    QuantileGrid,
    Uniform,
    from_samples,
    quantile_grid,
    read_value_csv,
)
from .errors import (
    AmbiguityError,
    CalibrationError,
    CapacityError,
    ConfigError,
    DomainError,
    EvaluationError,
    InfeasibleLambdaError,
    IngestionError,
    MkdivError,
    MomentError,
)
from .functionals import (
    AxiomReport,
    Entropic,
    Expectile,
    LambdaQuantile,
    Mean,
    Quantile,
    Shortfall,
    argmin_expected_score,
    check_axioms,
    expected_score,
)
from .generators import (
    ConvexGenerator,
    DistortionSpec,
    dual_power,
    entropy_generator,
    exponential_generator,
    generator_catalog,
    identity_distortion,
    power_distortion,
    quadratic,
    quartic,
    tvar_distortion,
)
from .payoff import MarketSpec, PayoffSolution, cheapest_payoff, payoff_cost
from .robust import (
    UniquenessWarning,
    WorstCaseSolution,
    choquet,
    solve_worst_case,
)
from .scores import (
    ANTITONIC,
    COMONOTONIC,
    BregmanScore,
    DecomposableScore,
    EntropicScore,
    ExpectileScore,
    GPLScore,
    LambdaQuantileScore,
    LossFunction,
    MonotoneMap,
    OsbandScore,
    Score,
    ShortfallScore,
    StepFunction,
    check_submodular,
    cube_map,
    dist_transform,
    exp_map,
    exponential_loss,
    identity_map,
    linear_loss,
    log_map,
    negation_map,
    osband_transform,
    power_loss,
    reciprocal_map,
)
from .transport import (
    CouplingReport,
    antitonic_matching,
    certify_optimal_coupling,
    comonotonic_matching,
    coupling_value,
    mk_divergence,
    oracle_optimal,
    wasserstein_p,
)

__version__ = "0.1.0"
