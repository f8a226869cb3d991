"""Randomized approximate inference for binary belief networks.

Parse a network, bound its dependence structure, pick a conditioning set,
and estimate conditional probabilities to a requested relative error with
a certified failure probability.
"""

__version__ = "0.12.0"

from .errors import (
    BnetSyntaxError,
    CondsimError,
    DuplicateNodeError,
    EmptyPosteriorError,
    LengthMismatchError,
    MissingParentBindingError,
    NetworkFormatError,
    NetworkTooLargeError,
    NonPositivePhiMinError,
    NonPositiveShapeError,
    OverlappingSetsError,
    ProbabilityOutOfRangeError,
    RowBudgetExceededError,
    UndeclaredParentError,
    UnknownNodeError,
    WrongRowCountError,
    ZeroDenominatorError,
)
from .network import (
    BeliefNetwork,
    Cpt,
    ancestral_network,
    conditional_row,
    parse_network,
    serialize_network,
)
from .exact import (
    exact_conditional,
    exact_distribution_over,
    exact_marginal,
)
from .dependence import (
    CostEstimate,
    DependenceReport,
    NodeBounds,
    dependence_value,
    node_bounds,
    node_lambda,
    phi_min_lower_bound,
    predicted_cost,
    satisfies_ras,
)
from .stopping import (
    DirichletPosterior,
    failure_probability_bound,
    regularized_incomplete_beta,
    should_stop,
    worst_case_sample_bound,
)
from .sampling import (
    RandomSource,
    RasEstimate,
    TrialGeneratorKind,
    conditioned_sample_batch,
    estimate_conditional_fraction,
    estimate_distribution_over,
    logic_sample_batch,
    mix_seed,
)
from .reformulate import (
    DEFAULT_SEED,
    GreedyStep,
    GreedyTrace,
    InferConfig,
    InferenceResult,
    Subproblem,
    bayes_ratio,
    combine_weighted,
    decompose,
    greedy_select,
    infer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
