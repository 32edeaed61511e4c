import types

import qlgame

# Every public name of the package, sorted. Adding or deleting one is a
# deliberate change to this list. Deleted so far: context_from_json (an
# alias of validate_context_data once its text branch had no caller),
# part_average (every game average goes through total_averages' kernel) and
# game_to_json (only tests wrote game files; it lives in tests/helpers.py).
PUBLIC_NAMES = [
    "ALPHABET", "BayesConsistencyReport", "BellReport", "ContextData", "Distribution",
    "FeasibilityResult", "GameAverages", "GamePart", "GameSpec", "GeneratorSpec",
    "HYPERBOLIC", "HilbertError", "HyperbolicContextError", "InterferenceProfile",
    "JointTable", "OrthonormalBasis", "PROB_TOL", "PairwiseSystem",
    "PayoffConventionWarning", "PayoffMatrix", "PhaseConstraintError", "QLRepresentation",
    "ReversibilityReport", "SimulationReport", "StabilizationReport", "TRIGONOMETRIC",
    "ThreePlayerReport", "TransitionMatrix", "TrialSequence", "ValidationError",
    "bayes_consistency", "bell_check", "bell_scan", "born_probability",
    "build_representation", "check_reversibility", "classify_context",
    "conditional_frequencies", "context_to_json", "covariance", "delta_basis",
    "estimate_frequencies", "expand_in_basis", "game_from_json",
    "inner_product", "interference_average", "interference_coefficients",
    "joint_distribution", "joint_feasibility", "multidim_average",
    "ql_average", "read_sequence", "reconstruct_data", "report_to_json",
    "representation_to_json", "running_frequencies", "sample_outcomes", "simulate_game",
    "simulate_multidim", "spin_system", "spin_transition_matrix", "stabilization_report",
    "stream_rng", "three_player_representations", "total_averages",
    "uniform_distribution", "validate_context_data", "zero_sum_symmetric_average",
]


def test_public_names_are_deliberate():
    public = sorted(
        name for name in dir(qlgame)
        if not name.startswith("_") and not isinstance(getattr(qlgame, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
