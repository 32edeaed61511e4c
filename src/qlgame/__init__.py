"""Contextual-probability toolkit for choose-and-test wine games:
amplitude reconstruction, payoff averages, classicality tests and seeded
Monte Carlo simulation."""

from .probability import (
    ALPHABET,
    PROB_TOL,
    ContextData,
    Distribution,
    JointTable,
    ReversibilityReport,
    TransitionMatrix,
    ValidationError,
    check_reversibility,
    context_to_json,
    joint_distribution,
    uniform_distribution,
    validate_context_data,
)
from .frequency import (
    StabilizationReport,
    TrialSequence,
    conditional_frequencies,
    estimate_frequencies,
    read_sequence,
    running_frequencies,
    stabilization_report,
)
from .hilbert import (
    HilbertError,
    OrthonormalBasis,
    born_probability,
    delta_basis,
    expand_in_basis,
    inner_product,
)
from .representation import (
    HYPERBOLIC,
    TRIGONOMETRIC,
    HyperbolicContextError,
    InterferenceProfile,
    PhaseConstraintError,
    QLRepresentation,
    build_representation,
    classify_context,
    interference_coefficients,
    reconstruct_data,
    representation_to_json,
)
from .game import (
    GameAverages,
    GamePart,
    GameSpec,
    PayoffConventionWarning,
    PayoffMatrix,
    ThreePlayerReport,
    game_from_json,
    interference_average,
    multidim_average,
    ql_average,
    three_player_representations,
    total_averages,
    zero_sum_symmetric_average,
)
from .classicality import (
    BayesConsistencyReport,
    BellReport,
    FeasibilityResult,
    PairwiseSystem,
    bayes_consistency,
    bell_check,
    bell_scan,
    covariance,
    joint_feasibility,
    spin_system,
    spin_transition_matrix,
)
from .montecarlo import (
    GeneratorSpec,
    SimulationReport,
    report_to_json,
    sample_outcomes,
    simulate_game,
    simulate_multidim,
    stream_rng,
)

__version__ = "0.1.0"
